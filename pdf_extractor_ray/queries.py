"""Driver-contract query implementations + DuckDB oracle SQL.

Each public ``q_*`` function takes ``sf_dir`` and returns a Dataset /
pandas DataFrame / pyarrow Table; ``ORACLE_SQL`` maps the same names to
ANSI SQL DuckDB runs over the same parquet tables. Column names match
exactly between both sides (the driver's compare is name-keyed).

Float discipline: money aggregates are computed as integer cents
(``round(x*100)`` per row, summed as int64) on BOTH sides so value hashes
are exact, never float-sum-order-dependent. Rank outputs drop raw scores
for the same reason.

Nothing here calls ``ray.init`` — the driver owns the session.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .functions.pdf_extract import layout_text
from .ops.text import STOPWORDS
from .functions.problems import FINANCIAL_KEYWORDS
from .pipelines.extract import extraction_pipeline


def _read(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _cents(x):
    """Vectorized money→integer-cents (same per-row arithmetic AND rounding
    mode as the SQL ``CAST(round(x*100, 0) AS BIGINT)`` — DuckDB rounds half
    away from zero; Arrow's default is half-to-even)."""
    return pc.cast(
        pc.round(pc.multiply(x, pa.scalar(100.0)), round_mode="half_towards_infinity"),
        pa.int64(),
    )


# ---------------------------------------------------------------------------
# Relational engine queries (TPC-H-ish) — shuffle-minimal implementations
# ---------------------------------------------------------------------------

def q_tpch_q1(sf_dir: str) -> pd.DataFrame:
    """Pricing summary: per-batch partial aggregation (combiner) before the
    tiny final groupby — the pre-aggregate pattern that keeps the all-to-all
    exchange at O(groups), not O(rows)."""
    from ray.data.aggregate import Sum

    ds = _read(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount", "l_shipdate",
        ],
    )

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.less_equal(batch["l_shipdate"], pa.scalar(np.datetime64("1998-09-02", "us")))
        )
        disc_price = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        t = pa.Table.from_arrays(
            [
                batch["l_returnflag"],
                batch["l_linestatus"],
                _cents(batch["l_quantity"]),
                _cents(batch["l_extendedprice"]),
                _cents(disc_price),
                pa.array(np.ones(len(batch), dtype=np.int64)),
            ],
            names=["l_returnflag", "l_linestatus", "qty_c", "base_c", "disc_c", "n"],
        )
        df = t.to_pandas()
        agg = (
            df.groupby(["l_returnflag", "l_linestatus"], sort=True)
            .sum()
            .reset_index()
        )
        return pa.Table.from_pandas(agg, preserve_index=False).replace_schema_metadata(None)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    final = (
        partials.groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty_c", alias_name="sum_qty_cents"),
            Sum("base_c", alias_name="sum_base_cents"),
            Sum("disc_c", alias_name="sum_disc_cents"),
            Sum("n", alias_name="count_order"),
        )
        .to_pandas()
        .sort_values(["l_returnflag", "l_linestatus"])
        .reset_index(drop=True)
    )
    return final


def q_orders_topk(sf_dir: str) -> pd.DataFrame:
    """Top-10 orders by total price (deterministic orderkey tiebreak):
    distributed sort + limit."""
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])

    def to_cents(batch: pa.Table) -> pa.Table:
        return batch.append_column("total_cents", _cents(batch["o_totalprice"])).drop_columns(
            ["o_totalprice"]
        )

    out = (
        ds.map_batches(to_cents, batch_format="pyarrow")
        .sort(["total_cents", "o_orderkey"], descending=[True, False])
        .limit(10)
        .to_pandas()
    )
    return out[["o_orderkey", "o_custkey", "total_cents"]]


def q_revenue_by_segment(sf_dir: str) -> pd.DataFrame:
    """Revenue per market segment: broadcast hash join (customer is the
    small side — ``ray.put`` once, dict lookup per batch; no shuffle join)
    then pre-aggregated groupby."""
    import ray
    from ray.data.aggregate import Sum

    customer = (
        _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
        .to_pandas()
    )
    seg_map = dict(zip(customer["c_custkey"], customer["c_mktsegment"]))
    ref = ray.put(seg_map)

    def join_partial(batch: pa.Table) -> pa.Table:
        lookup = ray.get(ref)
        segs = [lookup.get(k, "UNKNOWN") for k in batch["o_custkey"].to_pylist()]
        df = pd.DataFrame(
            {
                "c_mktsegment": segs,
                "revenue_cents": _cents(batch["o_totalprice"]).to_numpy(),
                "n_orders": np.ones(len(batch), dtype=np.int64),
            }
        )
        agg = df.groupby("c_mktsegment", sort=True).sum().reset_index()
        return pa.Table.from_pandas(agg, preserve_index=False).replace_schema_metadata(None)

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    return (
        orders.map_batches(join_partial, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .aggregate(
            Sum("revenue_cents", alias_name="revenue_cents"),
            Sum("n_orders", alias_name="n_orders"),
        )
        .to_pandas()
        .sort_values("c_mktsegment")
        .reset_index(drop=True)
    )


def q_customers_per_region(sf_dir: str) -> pd.DataFrame:
    """customer ⋈ nation ⋈ region (both dimension sides broadcast)."""
    import ray
    from ray.data.aggregate import Sum

    nation = _read(sf_dir, "nation").to_pandas()
    region = _read(sf_dir, "region").to_pandas()
    nat_to_region = dict(
        zip(
            nation["n_nationkey"],
            nation["n_regionkey"].map(
                dict(zip(region["r_regionkey"], region["r_name"]))
            ),
        )
    )
    ref = ray.put(nat_to_region)

    def partial(batch: pa.Table) -> pa.Table:
        lookup = ray.get(ref)
        names = [lookup[k] for k in batch["c_nationkey"].to_pylist()]
        df = pd.DataFrame(
            {
                "r_name": names,
                "n_customers": np.ones(len(batch), dtype=np.int64),
                "acctbal_cents": _cents(batch["c_acctbal"]).to_numpy(),
            }
        )
        return pa.Table.from_pandas(
            df.groupby("r_name", sort=True).sum().reset_index(), preserve_index=False
        ).replace_schema_metadata(None)

    return (
        _read(sf_dir, "customer", columns=["c_nationkey", "c_acctbal"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("r_name")
        .aggregate(
            Sum("n_customers", alias_name="n_customers"),
            Sum("acctbal_cents", alias_name="acctbal_cents"),
        )
        .to_pandas()
        .sort_values("r_name")
        .reset_index(drop=True)
    )


def q_top_orders_per_customer(sf_dir: str) -> pd.DataFrame:
    """Per-group top-k (the grouped-rank pattern): each customer's 2 most
    expensive orders, VECTORIZED — sort by (custkey, -total_cents, orderkey)
    puts each group's top rows at its segment start, so the per-group top-2
    is a pure gather at the segment bounds (``ops.segments`` — no per-group
    Python; key cardinality is corpus-proportional, the regime where
    ``map_groups`` would be one Python call per customer). Oracle = SQL
    row_number window. Restricted to custkey < 100 to keep the result
    compact."""
    from .ops.segments import sorted_segment_apply

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])

    def prune(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less(batch["o_custkey"], pa.scalar(100)))
        return batch.append_column("total_cents", _cents(batch["o_totalprice"])).drop_columns(
            ["o_totalprice"]
        )

    def top2_block(batch: pa.Table, starts: np.ndarray, ends: np.ndarray) -> pa.Table:
        lens = ends - starts
        second = (starts + 1)[lens >= 2]
        idx = np.concatenate([starts, second]).astype(np.int64)
        ranks = np.concatenate(
            [np.ones(len(starts), np.int64), np.full(len(second), 2, np.int64)]
        )
        out = batch.select(["o_custkey", "o_orderkey", "total_cents"]).take(
            pa.array(idx)
        )
        return out.append_column("rank", pa.array(ranks))

    return (
        sorted_segment_apply(
            ds.map_batches(prune, batch_format="pyarrow"),
            key_col="o_custkey",
            block_fn=top2_block,
            within_cols=["total_cents", "o_orderkey"],
            descending=[True, False],
        )
        .to_pandas()
        .sort_values(["o_custkey", "rank"])
        .reset_index(drop=True)[["o_custkey", "o_orderkey", "total_cents", "rank"]]
    )


def q_order_priority_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H-Q3-shaped LARGE×LARGE join: lineitem ⋈ orders on the order key
    via the NATIVE Ray Data hash join (``Dataset.join`` — both sides
    hash-partitioned; neither is broadcast), then revenue per order
    priority. Lineitem is pre-aggregated per (batch, orderkey) BEFORE the
    join so the exchange carries one row per distinct orderkey per batch
    instead of every line item — the combiner-before-shuffle pattern
    applied to a join input."""
    ds = _read(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def li_partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.greater(batch["l_shipdate"], pa.scalar(np.datetime64("1995-03-15", "us")))
        )
        disc = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        df = pd.DataFrame(
            {
                "l_orderkey": batch["l_orderkey"].to_numpy(),
                "rev_c": _cents(disc).to_numpy(),
            }
        )
        return pa.Table.from_pandas(
            df.groupby("l_orderkey", sort=True).sum().reset_index(),
            preserve_index=False,
        ).replace_schema_metadata(None)

    def o_filter(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.less(batch["o_orderdate"], pa.scalar(np.datetime64("1995-03-15", "us")))
        )
        return batch.select(["o_orderkey", "o_orderpriority"])

    li = ds.map_batches(li_partial, batch_format="pyarrow")
    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(o_filter, batch_format="pyarrow")

    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8))
    import os

    cap = int(os.environ.get("GRAFT_JOIN_PARTITIONS", "0")) or min(32, cpus)
    joined = li.join(
        orders,
        join_type="inner",
        # one hash partition per CPU, capped (the join schedules this many
        # aggregators — oversubscribing small clusters starves them)
        num_partitions=max(2, cap),
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    from ray.data.aggregate import Sum

    def agg_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "o_orderpriority": batch["o_orderpriority"].to_pylist(),
                "revenue_cents": batch["rev_c"].to_numpy(),
            }
        )
        return pa.Table.from_pandas(
            df.groupby("o_orderpriority", sort=True).sum().reset_index(),
            preserve_index=False,
        ).replace_schema_metadata(None)

    return (
        joined.map_batches(agg_partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
        .to_pandas()
        .sort_values("o_orderpriority")
        .reset_index(drop=True)
    )


def q_revenue_by_nation(sf_dir: str) -> pd.DataFrame:
    """TPC-H-Q5-shaped multi-join chain mixing BOTH join strategies where
    each belongs: customer→nation→region resolved by broadcast lookup
    (dimension sides, ray.put once), orders⋈lineitem through the native
    hash join (both large), revenue per nation of ASIA-region customers.
    The lineitem side is pre-aggregated per (batch, orderkey) before the
    exchange."""
    import ray
    from ray.data.aggregate import Sum

    nation = _read(sf_dir, "nation").to_pandas()
    region = _read(sf_dir, "region").to_pandas()
    region_of = dict(zip(region["r_regionkey"], region["r_name"]))
    nation_name = dict(zip(nation["n_nationkey"], nation["n_name"]))
    nation_region = {
        k: region_of[r] for k, r in zip(nation["n_nationkey"], nation["n_regionkey"])
    }
    customer = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]).to_pandas()
    cust_nation = {
        c: n for c, n in zip(customer["c_custkey"], customer["c_nationkey"])
        if nation_region.get(n) == "ASIA"
    }
    ref = ray.put(cust_nation)

    def o_filter(batch: pa.Table) -> pa.Table:
        lookup = ray.get(ref)
        keys = batch["o_custkey"].to_pylist()
        mask = pa.array([k in lookup for k in keys])
        batch = batch.filter(mask)
        nations = [lookup[k] for k in batch["o_custkey"].to_pylist()]
        return pa.Table.from_arrays(
            [batch["o_orderkey"], pa.array(nations, pa.int64())],
            names=["o_orderkey", "nationkey"],
        )

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]).map_batches(
        o_filter, batch_format="pyarrow"
    )

    def li_partial(batch: pa.Table) -> pa.Table:
        disc = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        df = pd.DataFrame(
            {
                "l_orderkey": batch["l_orderkey"].to_numpy(),
                "rev_c": _cents(disc).to_numpy(),
            }
        )
        return pa.Table.from_pandas(
            df.groupby("l_orderkey", sort=True).sum().reset_index(),
            preserve_index=False,
        ).replace_schema_metadata(None)

    li = _read(
        sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"]
    ).map_batches(li_partial, batch_format="pyarrow")

    cpus = int(ray.cluster_resources().get("CPU", 8))
    joined = li.join(
        orders,
        join_type="inner",
        num_partitions=max(2, min(32, cpus)),
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    nref = ray.put(nation_name)

    def agg_partial(batch: pa.Table) -> pa.Table:
        names = ray.get(nref)
        df = pd.DataFrame(
            {
                "n_name": [names[k] for k in batch["nationkey"].to_pylist()],
                "revenue_cents": batch["rev_c"].to_numpy(),
            }
        )
        return pa.Table.from_pandas(
            df.groupby("n_name", sort=True).sum().reset_index(), preserve_index=False
        ).replace_schema_metadata(None)

    return (
        joined.map_batches(agg_partial, batch_format="pyarrow")
        .groupby("n_name")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
        .to_pandas()
        .sort_values("n_name")
        .reset_index(drop=True)
    )


def q_distinct_segments(sf_dir: str) -> pd.DataFrame:
    """Distinct values of a column (``Dataset.unique`` — a shuffle; kept to
    one small column)."""
    ds = _read(sf_dir, "customer", columns=["c_mktsegment"])
    values = sorted(ds.unique("c_mktsegment"))
    return pd.DataFrame({"c_mktsegment": values})


def q_events_hourly(sf_dir: str) -> pd.DataFrame:
    """Tumbling hourly window per event type (event-time bucketing as a
    vectorized projection + pre-aggregated groupby)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        epoch_us = pc.cast(batch["ts"], pa.int64())
        hour = pc.divide(epoch_us, pa.scalar(3_600_000_000))
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pylist(),
                "hour": hour.to_numpy(),
                "n_events": np.ones(len(batch), dtype=np.int64),
                "value_cents": _cents(batch["value"]).to_numpy(),
            }
        )
        return pa.Table.from_pandas(
            df.groupby(["event_type", "hour"], sort=True).sum().reset_index(),
            preserve_index=False,
        ).replace_schema_metadata(None)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "hour"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("value_cents", alias_name="value_cents"),
        )
        .to_pandas()
        .sort_values(["event_type", "hour"])
        .reset_index(drop=True)
    )


def q_streaming_counts(sf_dir: str) -> pd.DataFrame:
    """Streaming-shaped ingestion: replay events as event-time-ordered
    micro-batches through sharded incremental-aggregate actors; the final
    state must equal the batch groupby (commutative-monoid aggregates), so
    the oracle is exact."""
    from .state.stream import run_streaming_counts

    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"])
    return run_streaming_counts(ds).reset_index(drop=True)


def q_user_sessions(sf_dir: str) -> pd.DataFrame:
    """Session windows (30-minute inactivity gap) per user: the ordered
    per-key window pattern, VECTORIZED — one sort by (user_id, ts), then
    session breaks and per-user counts fall out of a cumulative-sum gather
    at the segment bounds (``ops.segments`` — no per-group Python; user
    cardinality is corpus-proportional)."""
    from .ops.segments import sorted_segment_apply

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def sessions_block(batch: pa.Table, starts: np.ndarray, ends: np.ndarray) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        brk = np.zeros(len(uid), dtype=np.int64)
        if len(uid) > 1:
            gaps = (ts[1:] - ts[:-1]) / np.timedelta64(1, "s")
            brk[1:] = ((uid[1:] == uid[:-1]) & (gaps > 1800)).astype(np.int64)
        csum = np.concatenate(([0], np.cumsum(brk)))
        # brk[start] is always 0 (segment start = new user), so the
        # [start, end) prefix-sum difference counts in-group breaks only.
        n_sessions = csum[ends] - csum[starts] + 1
        return pa.Table.from_arrays(
            [
                pa.array(uid[starts].astype(np.int64)),
                pa.array((ends - starts).astype(np.int64)),
                pa.array(n_sessions.astype(np.int64)),
            ],
            names=["user_id", "n_events", "n_sessions"],
        )

    return (
        sorted_segment_apply(ds, key_col="user_id", block_fn=sessions_block,
                             within_cols=["ts"])
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )


def q_events_sliding(sf_dir: str) -> pd.DataFrame:
    """3-hour sliding window per event type over present hours (range
    semantics, matching SQL RANGE BETWEEN 2 PRECEDING AND CURRENT ROW)."""
    from .ops.windows import sliding_window_counts

    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"])
    out = sliding_window_counts(ds, window_hours=3).to_pandas()
    return out.sort_values(["event_type", "hour"]).reset_index(drop=True)


_VALUE_BANDS = [
    (0.0, 5.0, "xs"),
    (5.0, 25.0, "s"),
    (25.0, 100.0, "m"),
    (100.0, 250.0, "l"),
    # deliberately NOT covering the top of the range: inner semantics
    # must drop out-of-band rows.
]


def q_range_join(sf_dir: str) -> pd.DataFrame:
    """Range (interval) join: each event's value matched to its half-open
    price band via ONE broadcast searchsorted per batch — no shuffle
    (:func:`ops.joins.broadcast_range_join`; the IP→geo / time-window /
    price-band shape). Inner semantics: values above the last band drop.
    The oracle is a literal BETWEEN-style join against a VALUES table."""
    from .ops.joins import broadcast_range_join

    ds = _read(sf_dir, "events", columns=["event_id", "value"])
    out = broadcast_range_join(ds, _VALUE_BANDS, "value").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_asof_join(sf_dir: str) -> pd.DataFrame:
    """As-of join: each event matched to the user's latest order at or
    before the event time (keyed co-group + in-group merge_asof; oracle:
    DuckDB ASOF JOIN over the tie-deduplicated right side)."""
    from .ops.joins import asof_join

    events = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def rename_orders(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch["o_custkey"], batch["o_orderdate"], batch["o_orderkey"]],
            names=["user_id", "o_orderdate", "o_orderkey"],
        )

    orders = _read(
        sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_orderkey"]
    ).map_batches(rename_orders, batch_format="pyarrow")
    out = asof_join(
        events, orders,
        key_col="user_id", left_ts="ts", right_ts="o_orderdate",
        right_value_cols=["o_orderkey"], tiebreak_col="o_orderkey",
    ).to_pandas()
    # Unmatched → -1 (both sides COALESCE) so dtypes stay int64 and the
    # value hash is null-representation-free.
    out["o_orderkey"] = out["o_orderkey"].fillna(-1).astype("int64")
    out["event_id"] = out["event_id"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    return (
        out[["event_id", "user_id", "o_orderkey"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def q_asof_join_salted(sf_dir: str) -> pd.DataFrame:
    """The as-of join through the hot-key-safe (key, time-bucket) co-group
    (asof_join_salted, 365-day buckets + carry summaries) — must equal the
    plain keyed join, so the same DuckDB ASOF JOIN oracle applies
    (restricted to user_id < 30 to keep the gate fast: the salted plan has
    ~4 extra exchanges whose FIXED per-stage cost dominates at test scale;
    tests/test_windows_joins.py proves full-data equality separately)."""
    from .ops.joins import asof_join_salted

    def keep_users(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch["user_id"], pa.scalar(30, pa.int64())))

    events = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"]).map_batches(
        keep_users, batch_format="pyarrow"
    )

    def rename_orders(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch["o_custkey"], batch["o_orderdate"], batch["o_orderkey"]],
            names=["user_id", "o_orderdate", "o_orderkey"],
        )

    orders = (
        _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_orderkey"])
        .map_batches(rename_orders, batch_format="pyarrow")
        .map_batches(keep_users, batch_format="pyarrow")
    )
    out = asof_join_salted(
        events, orders,
        key_col="user_id", left_ts="ts", right_ts="o_orderdate",
        right_value_cols=["o_orderkey"], tiebreak_col="o_orderkey",
        bucket="365D",
    ).to_pandas()
    out["o_orderkey"] = out["o_orderkey"].fillna(-1).astype("int64")
    out["event_id"] = out["event_id"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    return (
        out[["event_id", "user_id", "o_orderkey"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def q_semi_join(sf_dir: str) -> pd.DataFrame:
    """Broadcast semi join: events of high-balance customers only (key set
    via ray.put + vectorized is_in; no shuffle), aggregated per event type."""
    from ray.data.aggregate import Sum

    from .ops.joins import broadcast_semi_join

    rich = (
        _read(sf_dir, "customer", columns=["c_custkey", "c_acctbal"])
        .to_pandas()
        .query("c_acctbal > 5000")["c_custkey"]
        .tolist()
    )
    events = _read(sf_dir, "events", columns=["event_id", "user_id", "event_type"])
    kept = broadcast_semi_join(events, rich, key_col="user_id")

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pylist(),
                "n_events": np.ones(len(batch), dtype=np.int64),
            }
        )
        return pa.Table.from_pandas(
            df.groupby("event_type", sort=True).sum().reset_index(), preserve_index=False
        ).replace_schema_metadata(None)

    return (
        kept.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("n_events", alias_name="n_events"))
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )


def q_link_graph(sf_dir: str) -> pd.DataFrame:
    """Host link graph from synthesized HTML pages: doc i lives on host
    ``site(i%20).example.com``, carries one relative link (a self edge)
    and ``i % 4`` absolute links to hosts ``site((i*7+j)%20)`` — real
    href scanning + URL host resolution (:mod:`ops.links`), closed-form
    oracle from doc_id arithmetic (ground truth, not parser-vs-parser)."""
    from .ops.links import link_graph

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    df = link_graph(pages).to_pandas()
    return df.sort_values(["src_host", "dst_host"]).reset_index(drop=True)


def _linkgraph_pages(batch: pa.Table) -> pa.Table:
    """Deterministic link-bearing pages for Q link_graph / Q pagerank:
    doc i on host site(i%20) links to /local (self) and to
    site((i*7+j)%20) for j < i%4 — closed form from doc_id."""
    ids = batch["doc_id"].to_pylist()
    urls, htmls = [], []
    for i in ids:
        urls.append(f"http://site{i % 20}.example.com/p/{i}")
        links = '<a href="/local">l</a>' + "".join(
            f'<a href=\'https://site{(i * 7 + j) % 20}.example.com/x{j}\'>t</a>'
            for j in range(i % 4)
        )
        htmls.append(f"<html><body><p>page {i}</p>{links}</body></html>".encode())
    return pa.Table.from_arrays(
        [
            pa.array(ids, pa.int64()),
            pa.array(urls, pa.string()),
            pa.array(htmls, pa.binary()),
        ],
        names=["doc_id", "url", "html"],
    )


def q_pagerank(sf_dir: str) -> pd.DataFrame:
    """Fixed-point PageRank (2 iterations, damping 85/100, scale 10^12)
    over the synthesized host link graph of Q ``link_graph``. Integer
    fixed-point arithmetic makes every rank bit-exact — order-independent
    sums, floor division on both engines — so the iterative algorithm is
    SQL-oracled by UNROLLING the two rounds as chained CTEs
    (:func:`ops.links.pagerank`; each Ray round is one sorted-lookup
    join + one groupby-sum)."""
    from .ops.links import link_graph, pagerank

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    ranks = pagerank(link_graph(pages), num_iters=2)
    df = ranks.to_pandas()
    df["rank"] = df["rank"].astype("int64")
    return df.sort_values("host").reset_index(drop=True)


def q_hits(sf_dir: str) -> pd.DataFrame:
    """Integer HITS hubs-and-authorities (2 rounds, unnormalized weighted
    path counts — rankings identical to the L2-normalized classic, scores
    exact integers) over the synthesized host link graph of Q
    ``link_graph``. Bit-exact at any layout and in SQL: the oracle
    unrolls both rounds as chained CTEs (:func:`ops.links.hits_scores`;
    each Ray half-round is one sorted-lookup join + one groupby-sum, or
    per-block broadcast partials under the node cap)."""
    from .ops.links import hits_scores, link_graph

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    df = hits_scores(link_graph(pages), num_iters=2).to_pandas()
    return df.sort_values("host").reset_index(drop=True)


def q_communities(sf_dir: str) -> pd.DataFrame:
    """Synchronous weighted label-propagation communities (2 rounds,
    ties → min label, self loops ignored) over the synthesized host link
    graph of Q ``link_graph`` — mirror-farm / spam-ring clustering.
    Integer vote sums and a fixed round count make the labels bit-exact
    at any layout and in SQL: the oracle unrolls both rounds as chained
    CTEs with the same zero-weight keep-own-label sentinel
    (:func:`ops.links.label_propagation`; each Ray round is one
    sorted-lookup attach + one (node, lab) groupby-sum + one argmax
    sort)."""
    from .ops.links import label_propagation, link_graph

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    df = label_propagation(link_graph(pages), num_iters=2).to_pandas()
    return df.sort_values("host").reset_index(drop=True)


def q_bitext_pairs(sf_dir: str) -> pd.DataFrame:
    """Mutual-nearest-neighbor bitext mining between two embedding sets
    (even vec_ids = "language A", odd = "language B"): a pair survives
    only when each side is the other's cosine top-1. Scores are rounded
    to 6 decimals before every argmax with smallest-id tiebreaks, and the
    oracle casts the float32 vectors to DOUBLE so both engines compute
    the same cosine to ~2e-16 (:func:`ops.bitext.mutual_nn_pairs`: B
    broadcast once, ONE matmul pass over A emitting both argmax
    reductions, |B|-keyed partial-argmax exchange, vectorized mutual
    membership filter)."""
    from .ops.bitext import mutual_nn_pairs

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def parity(rem: int):
        def fn(batch: pa.Table) -> pa.Table:
            keep = pc.equal(
                pc.bit_wise_and(batch["vec_id"], pa.scalar(1, pa.int64())),
                pa.scalar(rem, pa.int64()),
            )
            return batch.filter(keep)

        return fn

    side_a = ds.map_batches(parity(0), batch_format="pyarrow")
    side_b = ds.map_batches(parity(1), batch_format="pyarrow")
    df = mutual_nn_pairs(side_a, side_b, round_decimals=6).to_pandas()
    return df.sort_values("src_id").reset_index(drop=True)


def q_structural_dedup(sf_dir: str) -> pd.DataFrame:
    """Near-duplicate page-TEMPLATE clustering by exact pq-gram-set
    Jaccard (p=2, q=3; Augsten et al. 2005) over a planted HTML family:
    doc i is ``html>body>[nav>a if i%3==0]+p×(i%4+1)`` — template drift
    (extra paragraphs) stays in-cluster (J ≥ 0.69), the nav/no-nav split
    stays out (J ≤ 0.53) at threshold 0.6. The engine hashes grams to
    uint64 for the AllPairs prefix join; the oracle rebuilds the SAME
    gram strings closed-form with DuckDB list ops and clusters with the
    identical recursive min-label components
    (:func:`ops.templates.structural_dedup` riding
    :func:`ops.dedup.ngram_jaccard_dedup`'s machinery)."""
    from .ops.templates import structural_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        htmls = [
            b"<html><body>"
            + (b"<nav><a></a></nav>" if i % 3 == 0 else b"")
            + b"<p></p>" * (i % 4 + 1)
            + b"</body></html>"
            for i in ids
        ]
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(htmls, pa.binary())],
            names=["doc_id", "html"],
        )

    pages = ds.map_batches(plant, batch_format="pyarrow")
    out = (
        structural_dedup(pages, threshold=0.6)
        .select_columns(["doc_id", "cluster_id", "is_duplicate"])
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def q_front_code(sf_dir: str) -> pd.DataFrame:
    """Front coding of the sorted crawl-URL dictionary
    (:func:`ops.index.front_code_urls`): restart row every 16 entries
    stores the full string, others store varint(lcp)+varint(suffix)+
    suffix. One summary row with the integer stats that pin the
    encoding (raw/encoded byte totals, Σ lcp). The oracle replays the
    row_number restart rule and a max-prefix-match lcp in SQL (URLs are
    ASCII, so chars = bytes)."""
    from .ops.index import front_code_urls

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    blocks = front_code_urls(
        pages.select_columns(["url"]), restart=16
    ).to_pandas()
    return pd.DataFrame(
        {
            "n_urls": [int(blocks["n"].sum())],
            "raw_bytes": [int(blocks["raw_bytes"].sum())],
            "enc_bytes": [int(blocks["enc_bytes"].sum())],
            "prefix_sum": [int(blocks["prefix_sum"].sum())],
        }
    )


def q_domain_gini(sf_dir: str) -> pd.DataFrame:
    """Exact Gini concentration of corpus bytes across 50 synthetic
    hosts (doc_id % 50, weight = n_chars) — the skew number a mixture
    designer reads before capping domains. Integer-exact big-int
    accumulation; the double is num/den cast exactly as SQL casts it
    (:func:`ops.quantiles.gini_concentration`: keys-sized groupby-sum →
    keys-sized sort → block-offset partial combine on the driver)."""
    from .ops.quantiles import gini_concentration

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def host(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                pc.cast(
                    pc.subtract(
                        batch["doc_id"],
                        pc.multiply(
                            pc.divide(batch["doc_id"], pa.scalar(50, pa.int64())),
                            pa.scalar(50, pa.int64()),
                        ),
                    ),
                    pa.int64(),
                ),
                pc.cast(batch["n_chars"], pa.int64()),
            ],
            names=["host_bucket", "n_chars"],
        )

    buckets = ds.map_batches(host, batch_format="pyarrow")
    return gini_concentration(buckets, "host_bucket", "n_chars").to_pandas()


def q_retention(sf_dir: str) -> pd.DataFrame:
    """Weekly cohort retention: users cohorted by first-event week; each
    (cohort, offset) cell counts that cohort's distinct users active
    offset weeks later. Pure composition of existing exchanges — per-block
    pair dedup, user-sized groupby(min), one attach_lookup sort join, one
    final cell groupby (:func:`ops.funnel.cohort_retention`)."""
    from .ops.funnel import cohort_retention

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    df = cohort_retention(ds).to_pandas()
    return df.sort_values(["cohort", "offset"]).reset_index(drop=True)


def q_distinct_users(sf_dir: str) -> pd.DataFrame:
    """Exact count(DISTINCT user_id) per event type: per-block pair dedup
    (one row per distinct pair per block enters the exchange) → one
    (key, value) sort → change-count segment kernel
    (:func:`ops.segments.distinct_count_per_key`). The exact counterpart
    of the HLL sketch in Q ``distinct_sketch``."""
    from .ops.segments import distinct_count_per_key

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    df = distinct_count_per_key(ds, "event_type", "user_id").to_pandas()
    return df.sort_values("event_type").reset_index(drop=True)


def q_funnel(sf_dir: str) -> pd.DataFrame:
    """Ordered funnel view → click → purchase per user (next step must be
    STRICTLY later in time than the earliest occurrence of the previous
    step). One (user, ts) sort + a per-step reduceat kernel vectorized
    across user segments (:mod:`ops.funnel`); the oracle states the same
    strict-inequality rule with nested min(ts) CTEs."""
    from .ops.funnel import funnel_stages

    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "ts"])
    df = funnel_stages(ds).to_pandas()
    return df.sort_values("user_id").reset_index(drop=True)


def q_anti_join(sf_dir: str) -> pd.DataFrame:
    """Distributed ANTI join: events whose user has NO high-balance
    customer row, aggregated per event type. Exercises
    :func:`ops.segments.attach_lookup` with ``anti=True`` — the
    sorted-lookup exchange (one sort, no hash-join operator, no broadcast)
    that also backs exact_dedup_large's over-gate loser filter; here it is
    driver-verified against a NOT-EXISTS oracle."""
    from ray.data.aggregate import Sum

    from .ops.segments import attach_lookup

    rich = _read(sf_dir, "customer", columns=["c_custkey", "c_acctbal"]).map_batches(
        lambda b: b.filter(pc.greater(b["c_acctbal"], pa.scalar(5000.0)))
        .select(["c_custkey"])
        .rename_columns(["user_id"]),
        batch_format="pyarrow",
    )
    events = _read(sf_dir, "events", columns=["user_id", "event_type"])
    kept = attach_lookup(
        events, rich, key_col="user_id", val_cols=[], carry_cols=["event_type"],
        anti=True,
    )

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        u, c = np.unique(et.astype(str), return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(u.astype(object), pa.string()), pa.array(c, pa.int64())],
            names=["event_type", "n_events"],
        )

    return (
        kept.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("n_events", alias_name="n_events"))
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )


def q_lineitem_filter(sf_dir: str) -> pd.DataFrame:
    """Predicate + projection pushed to the read (column pruning at the
    parquet scan), per-batch vectorized filter, pre-aggregated count."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_quantity", "l_shipdate"])

    def partial(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.greater_equal(
                batch["l_shipdate"], pa.scalar(np.datetime64("1995-01-01", "us"))
            ),
            pc.greater(batch["l_quantity"], pa.scalar(25.0)),
        )
        batch = batch.filter(mask)
        df = pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"].to_pylist(),
                "n": np.ones(len(batch), dtype=np.int64),
                "qty_cents": _cents(batch["l_quantity"]).to_numpy(),
            }
        )
        return pa.Table.from_pandas(
            df.groupby("l_returnflag", sort=True).sum().reset_index(),
            preserve_index=False,
        ).replace_schema_metadata(None)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("l_returnflag")
        .aggregate(Sum("n", alias_name="n"), Sum("qty_cents", alias_name="qty_cents"))
        .to_pandas()
        .sort_values("l_returnflag")
        .reset_index(drop=True)
    )


# ---------------------------------------------------------------------------
# Extraction queries over the documents table
# ---------------------------------------------------------------------------

_WRAP_PREFIX = (
    "<html><head><title>doc</title><script>var boiler=1;</script></head><body>"
    '<nav><a href="/home">Home</a> <a href="/about">About</a> '
    '<a href="/contact">Contact</a> <a href="/terms">Terms</a></nav>'
    '<div class="cookie-banner">We use cookies. <a href="/ok">Accept</a></div>'
    "<aside class='sidebar'><a href='/x'>x</a><br><a href='/y'>y</a></aside>"
    "<article><p>"
)
_WRAP_SUFFIX = (
    "</p></article><footer>© 2026 Example Corp · legal · privacy</footer>"
    "</body></html>"
)


def _real_pdf_payload(i: int, text: str) -> bytes:
    """Deterministic real-PDF payload: the doc id rotates the content-stream
    operator style (Tm / Td / TL+T*+TJ), FlateDecode compression, AND the
    cross-reference form (classic table / PDF 1.5 xref stream / ObjStm) so
    the parser's whole operator/filter/xref surface is continuously
    exercised under the byte-identity oracle."""
    from .functions.pdf_codec import build_pdf

    return build_pdf(
        text,
        compress=bool(i % 2),
        style=("tm", "td", "tstar")[i % 3],
        xref_kind=("table", "stream", "objstm")[(i // 3) % 3],
    )


def _encrypted_pdf_payload(i: int, text: str) -> bytes:
    """Encrypted real PDF (standard security handler, EMPTY user
    password), cycling the whole supported surface by doc id: R2/RC4-40,
    R3/RC4-128, R4/AESV2-128, R6/AES-256; compression and operator style
    keep rotating so decryption composes with the whole filter surface."""
    from .functions.pdf_codec import build_pdf

    return build_pdf(
        text,
        compress=bool(i % 2),
        style=("tm", "td", "tstar")[i % 3],
        encrypt=True,
        encrypt_rev=(2, 3, 4, 6)[i % 4],
    )


def wrap_documents_as_pages(sf_dir: str, pdf_every: int = 0, pdf_kind: str = "real"):
    """documents table → pages table (the engine's input shape): text
    wrapped in a deterministic boilerplate shell; every ``pdf_every``-th doc
    becomes a PDF payload instead (0 = never) — ``pdf_kind="real"`` emits
    genuine ``%PDF-1.4`` bytes (mixed operator styles + FlateDecode),
    ``"toy"`` the GRAFT1 record format. Extraction must recover ``text``
    byte-exactly — the independent SQL oracle for the whole extract stage."""

    def to_pages(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        langs = batch["lang"].to_pylist()
        payloads = []
        for i, text in zip(ids, texts):
            if pdf_every and i % pdf_every == 0:
                if pdf_kind == "real":
                    payloads.append(_real_pdf_payload(i, text))
                elif pdf_kind == "encrypted":
                    payloads.append(_encrypted_pdf_payload(i, text))
                else:
                    payloads.append(layout_text(text))
            else:
                payloads.append((_WRAP_PREFIX + text + _WRAP_SUFFIX).encode())
        return pa.Table.from_arrays(
            [
                pa.array([f"doc://{i:08d}" for i in ids], pa.string()),
                pa.array(
                    [1_767_225_600_000_000 + i * 1_000_000 for i in ids],
                    pa.timestamp("us"),
                ),
                pa.array(payloads, pa.binary()),
                pa.array(texts, pa.string()),
                pa.array(langs, pa.string()),
                pa.array(ids, pa.int64()),
            ],
            names=["url", "warc_ts", "html", "text", "lang", "doc_id"],
        )

    return _read(sf_dir, "documents", columns=["doc_id", "text", "lang"]).map_batches(
        to_pages, batch_format="pyarrow"
    )


def _roundtrip(sf_dir: str, pdf_every: int, pdf_kind: str = "real") -> pd.DataFrame:
    pages = wrap_documents_as_pages(sf_dir, pdf_every=pdf_every, pdf_kind=pdf_kind)
    out = extraction_pipeline(pages)
    df = out.select_columns(["doc_id", "extracted_text"]).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_extract_html(sf_dir: str) -> pd.DataFrame:
    """Full pipeline over boilerplate-wrapped documents; extracted text must
    equal the original text byte-for-byte (oracle: SELECT doc_id, text)."""
    return _roundtrip(sf_dir, pdf_every=0)


def q_extract_mixed(sf_dir: str) -> pd.DataFrame:
    """Same, with every 3rd document as a REAL ``%PDF-1.4`` payload —
    exercises routing + the from-scratch PDF parser + the layout-analysis
    kernel under the same byte-identity oracle."""
    return _roundtrip(sf_dir, pdf_every=3, pdf_kind="real")


def q_extract_real_pdf(sf_dir: str) -> pd.DataFrame:
    """EVERY document as a genuine ``%PDF-1.4`` file (operator styles
    Tm/Td/TL+T*+TJ and FlateDecode rotating by doc id): full-corpus
    byte-identity through xref parse → object graph → content-stream
    interpretation → layout analysis (the reference's core competency,
    reference: src/services/extraction_service.py:26-114)."""
    return _roundtrip(sf_dir, pdf_every=1, pdf_kind="real")


def q_extract_encrypted_pdf(sf_dir: str) -> pd.DataFrame:
    """EVERY document as an RC4-ENCRYPTED real PDF (standard security
    handler, empty user password — R2/40-bit and R3/128-bit alternating,
    per-object keys over streams AND strings) under the same
    byte-identity oracle as extract_real_pdf: decryption must compose
    transparently with filters, content-stream interpretation, and
    layout analysis. Reference parity: pdfplumber opens these via
    pypdf's standard handler (extraction_service.py:26-114)."""
    return _roundtrip(sf_dir, pdf_every=1, pdf_kind="encrypted")


def q_extract_protected_pdf(sf_dir: str) -> pd.DataFrame:
    """NON-EMPTY-password PDFs (round 4): every document becomes a real
    PDF encrypted with a per-doc user password (R2/R3/R4/R6 cycling;
    every 3rd doc also gets a DISTINCT owner password and is opened with
    THAT, exercising Algorithm 7 recovery / the R6 /O+/OE path). The
    password rides a sidecar column — the shape a real protected corpus
    has — and the extract stage passes it per row. Same byte-identity
    oracle as extract_real_pdf."""
    from .functions.pdf_codec import build_pdf
    from .functions.pdf_extract import extract_pdf

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def to_pages(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        payloads, pws = [], []
        for i, text in zip(ids, texts):
            # passwords bucketed mod 16: per-row threading is still proven
            # (a wrong-bucket password fails the open), and the R6
            # Hash-2B lru_cache stays warm — 0.2 s/eval by design.
            user_pw = b"u-%d" % (i % 16)
            owner_pw = b"o-%d" % (i % 16)
            payloads.append(
                build_pdf(
                    text,
                    compress=bool(i % 2),
                    encrypt=True,
                    encrypt_rev=(2, 3, 4, 6)[i % 4],
                    encrypt_user_pw=user_pw,
                    encrypt_owner_pw=owner_pw,
                )
            )
            pws.append(owner_pw if i % 3 == 0 else user_pw)
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(payloads, pa.binary()),
                pa.array(pws, pa.binary()),
            ],
            names=["doc_id", "payload", "password"],
        )

    def extract(batch: pa.Table) -> pa.Table:
        texts = [
            extract_pdf(p, password=pw)[0]
            for p, pw in zip(
                batch["payload"].to_pylist(), batch["password"].to_pylist()
            )
        ]
        return pa.Table.from_arrays(
            [batch["doc_id"].combine_chunks(), pa.array(texts, pa.string())],
            names=["doc_id", "extracted_text"],
        )

    out = (
        ds.map_batches(to_pages, batch_format="pyarrow")
        .map_batches(extract, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def q_extract_toy_pdf(sf_dir: str) -> pd.DataFrame:
    """Every 3rd document as a toy GRAFT1-record PDF payload, under the same
    byte-identity oracle: the only oracle over the record payload kind."""
    return _roundtrip(sf_dir, pdf_every=3, pdf_kind="toy")


def q_sections_pdf(sf_dir: str) -> pd.DataFrame:
    """PDF outline → titled sections: each document becomes a real PDF with
    two outline bookmarks ('Part 1' at the first-half words, 'Part 2' at the
    second half, each starting a fresh page); the PDF-branch section stage
    must recover (title, page-range content) per bookmark
    (reference: src/services/pdf_processor.py:105-221, top-4 cap :56-59).
    Oracle: the same word-midpoint split computed in SQL."""
    from .stages.sections import pdf_sections_rows
    from .functions.pdf_codec import build_sectioned_pdf

    def to_pages(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        payloads = []
        for i, text in zip(ids, texts):
            words = text.split()
            half = (len(words) + 1) // 2
            payloads.append(
                build_sectioned_pdf(
                    [
                        ("Part 1", " ".join(words[:half])),
                        ("Part 2", " ".join(words[half:])),
                    ],
                    compress=bool(i % 2),
                    style=("tm", "td", "tstar")[i % 3],
                )
            )
        return pa.Table.from_arrays(
            [
                pa.array([f"doc://{i:08d}" for i in ids], pa.string()),
                pa.array(payloads, pa.binary()),
            ],
            names=["url", "html"],
        )

    pages = _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        to_pages, batch_format="pyarrow"
    )
    out = pdf_sections_rows(pages)
    df = out.select_columns(["url", "section_idx", "title", "content"]).to_pandas()
    return df.sort_values(["url", "section_idx"]).reset_index(drop=True)


def q_extract_with_repair(sf_dir: str) -> pd.DataFrame:
    """Every 7th document's payload is corrupted (truncated to <100 alnum
    chars → ``low_content_density`` fires); the validate stage must repair
    it from the provided ``text`` column, so the final output STILL equals
    ``SELECT doc_id, text`` — the repair policy proven through the oracle
    (reference substitution policy: mistral_client.py:237-244)."""

    def to_pages(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        payloads = []
        for i, text in zip(ids, texts):
            body = text[:40] if i % 7 == 0 else text  # corrupted minority
            payloads.append((_WRAP_PREFIX + body + _WRAP_SUFFIX).encode())
        return pa.Table.from_arrays(
            [
                pa.array([f"doc://{i:08d}" for i in ids], pa.string()),
                pa.array(payloads, pa.binary()),
                pa.array(texts, pa.string()),
                pa.array(["en"] * len(ids), pa.string()),
                pa.array(ids, pa.int64()),
            ],
            names=["url", "html", "text", "lang", "doc_id"],
        )

    pages = _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        to_pages, batch_format="pyarrow"
    )
    out = extraction_pipeline(pages)
    df = out.select_columns(["doc_id", "extracted_text"]).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_extract_pdf_with_repair(sf_dir: str) -> pd.DataFrame:
    """Error containment + repair through the REAL PDF parser: every 7th
    document's payload is a real PDF TRUNCATED to its first 200 bytes
    (valid header, destroyed xref/objects) — decode must fail cleanly
    inside the per-row containment boundary, the empty extraction trips
    ``low_content_density``, and the validate stage repairs from the
    provided ``text`` column, so the output STILL equals
    ``SELECT doc_id, text`` (the reference substitution policy,
    mistral_client.py:237-244, driven by real-parser failures)."""

    def to_pages(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        payloads = []
        for i, text in zip(ids, texts):
            pdf = _real_pdf_payload(i, text)
            payloads.append(pdf[:200] if i % 7 == 0 else pdf)
        return pa.Table.from_arrays(
            [
                pa.array([f"doc://{i:08d}" for i in ids], pa.string()),
                pa.array(payloads, pa.binary()),
                pa.array(texts, pa.string()),
                pa.array(["en"] * len(ids), pa.string()),
                pa.array(ids, pa.int64()),
            ],
            names=["url", "html", "text", "lang", "doc_id"],
        )

    pages = _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        to_pages, batch_format="pyarrow"
    )
    out = extraction_pipeline(pages)
    df = out.select_columns(["doc_id", "extracted_text"]).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_classify_transactions(sf_dir: str) -> pd.DataFrame:
    """Running-balance DEBIT/CREDIT classification end-to-end: a synthetic
    bank statement derived from lineitem → rendered as a markdown table
    (reference: table_merger.py:38-92) → parsed back
    (reference: classify_debit_credit.py:261-310) → classified by balance
    continuity (reference: classify_debit_credit.py:161-258). The oracle
    recomputes the expected classification with SQL window functions."""
    from .functions.numbers import classify_transactions
    from .functions.tables import parse_markdown_tables, render_table_markdown

    rows = (
        _read(
            sf_dir, "lineitem",
            columns=["l_orderkey", "l_linenumber", "l_returnflag", "l_extendedprice"],
        )
        .sort(["l_orderkey", "l_linenumber"])
        .limit(200)
        .to_pandas()
    )
    amounts = (rows["l_extendedprice"] / 100).round(2)
    signed = np.where(rows["l_linenumber"] % 2 == 0, amounts, -amounts)
    balances = (10_000 + np.cumsum(signed)).round(2)
    table_rows = [
        [flag, f"{amt:,.2f}", f"{bal:,.2f}"]
        for flag, amt, bal in zip(rows["l_returnflag"], amounts, balances)
    ]
    markdown = render_table_markdown(["Description", "Amount", "Balance"], table_rows, 1)
    parsed = parse_markdown_tables(markdown)[0]
    df = pd.DataFrame(parsed["rows"], columns=parsed["headers"])
    classified = classify_transactions(df)
    return pd.DataFrame(
        {
            "row_idx": np.arange(len(classified), dtype=np.int64),
            "transaction_type": classified["transaction_type"].tolist(),
        }
    )


def q_classify_transactions_pdf(sf_dir: str) -> pd.DataFrame:
    """The classify_transactions flow with a REAL PDF in the middle: the
    bank statement is laid out as a character-grid table PDF
    (build_table_pdf), recovered by the table-aware PDF layout analysis
    (extract_pdf_pages_tables — the pdfplumber path, reference:
    extraction_service.py:26-114), parsed back from markdown, and
    classified by balance continuity. Same SQL oracle as
    classify_transactions — the PDF round trip must be semantically
    invisible."""
    from .functions.numbers import classify_transactions
    from .functions.pdf_codec import build_table_pdf
    from .functions.pdf_extract import extract_pdf_pages_tables
    from .functions.tables import parse_markdown_tables

    rows = (
        _read(
            sf_dir, "lineitem",
            columns=["l_orderkey", "l_linenumber", "l_returnflag", "l_extendedprice"],
        )
        .sort(["l_orderkey", "l_linenumber"])
        .limit(200)
        .to_pandas()
    )
    amounts = (rows["l_extendedprice"] / 100).round(2)
    signed = np.where(rows["l_linenumber"] % 2 == 0, amounts, -amounts)
    balances = (10_000 + np.cumsum(signed)).round(2)
    table_rows = [
        [flag, f"{amt:,.2f}", f"{bal:,.2f}"]
        for flag, amt, bal in zip(rows["l_returnflag"], amounts, balances)
    ]
    pdf = build_table_pdf(
        ["Description", "Amount", "Balance"], table_rows,
        title="Account statement", compress=True,
    )
    pages, _ = extract_pdf_pages_tables(pdf)
    parsed = parse_markdown_tables("\n\n".join(pages))[0]
    df = pd.DataFrame(parsed["rows"], columns=parsed["headers"])
    classified = classify_transactions(df)
    return pd.DataFrame(
        {
            "row_idx": np.arange(len(classified), dtype=np.int64),
            "transaction_type": classified["transaction_type"].tolist(),
        }
    )


def q_sections(sf_dir: str) -> pd.DataFrame:
    """Extraction → section-row explosion (the columnar form of the
    reference's ZIP-of-sections sink, response_builder.py:143-189). Wrapped
    documents have no headings, so each yields exactly one preamble section
    whose content is the document text — fully SQL-checkable."""
    from .stages.sections import sections_rows

    pages = wrap_documents_as_pages(sf_dir)
    out = sections_rows(extraction_pipeline(pages))
    df = out.select_columns(["url", "section_idx", "title", "content"]).to_pandas()
    return df.sort_values("url").reset_index(drop=True)


def q_token_stats(sf_dir: str) -> pd.DataFrame:
    """Whitespace-token and alnum-char counts per document (vectorized
    text-analysis stage)."""
    from .ops.text import quality_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(
        lambda b: quality_batch(b).select(["doc_id", "n_tokens", "n_alnum"]),
        batch_format="pyarrow",
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_quality_filter(sf_dir: str) -> pd.DataFrame:
    """Training-data curation shape: quality-score every document, keep
    docs above thresholds, aggregate survivors per language (vectorized
    score → per-batch filter → pre-aggregated groupby)."""
    from ray.data.aggregate import Sum

    from .ops.text import quality_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def score_filter_partial(batch: pa.Table) -> pa.Table:
        scored = quality_batch(batch)
        mask = pc.and_(
            pc.greater_equal(scored["n_tokens"], pa.scalar(20, pa.int64())),
            pc.greater_equal(scored["alnum_ratio"], pa.scalar(0.7)),
        )
        kept = scored.filter(mask)
        df = pd.DataFrame(
            {
                "lang": kept["lang"].to_pylist(),
                "n_docs": np.ones(len(kept), dtype=np.int64),
                "total_tokens": kept["n_tokens"].to_numpy(),
            }
        )
        return pa.Table.from_pandas(
            df.groupby("lang", sort=True).sum().reset_index(), preserve_index=False
        ).replace_schema_metadata(None)

    return (
        ds.map_batches(score_filter_partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("total_tokens", alias_name="total_tokens"),
        )
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )


def q_lang_distribution(sf_dir: str) -> pd.DataFrame:
    """Predicted-language histogram (stopword-hit argmax heuristic)."""
    from .ops.text import lang_distribution

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = lang_distribution(ds).to_pandas()
    return out.sort_values("pred_lang").reset_index(drop=True)


def q_decontaminate(sf_dir: str) -> pd.DataFrame:
    """Train/test decontamination: documents sharing ANY word 8-gram with a
    benchmark set (every 50th doc plays the held-out test set) are dropped;
    the benchmark's n-gram hashes are broadcast once and the corpus streams
    through one shuffle-free ``map_batches``. Oracle: the same exact
    8-gram-overlap rule via an n-gram join in SQL (hashes vs strings —
    identical outcome absent 2^-64 FNV collisions, like fingerprint_dedup).
    """
    from .ops.text import decontaminate

    import pyarrow.parquet as pq

    # benchmark = every 50th document (a small held-out set)
    tbl = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ids = tbl["doc_id"].to_numpy()
    bench = tbl.filter(pa.array(ids % 50 == 0))["text"].to_pylist()

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = decontaminate(ds, bench, n=8).select_columns(["doc_id"]).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_scrub_pii(sf_dir: str) -> pd.DataFrame:
    """PII redaction pass: every 7th document gets a deterministic planted
    email + account number appended; the scrub stage must redact them to
    typed placeholders (<EMAIL>, <ID>) byte-exactly. Oracle: identical
    concat + regexp_replace in SQL (patterns chosen for exact Python-re /
    RE2 semantics parity — no backtracking-dependent constructs)."""
    from .ops.text import scrub_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = [
            t + f" contact user{i}@example.com ref 1234567{i:04d} end"
            if i % 7 == 0 else t
            for i, t in zip(ids, batch["text"].to_pylist())
        ]
        idx = batch.schema.get_field_index("text")
        return batch.set_column(idx, "text", pa.array(texts, pa.string()))

    out = (
        ds.map_batches(plant, batch_format="pyarrow")
        .map_batches(scrub_batch, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def q_exact_dedup(sf_dir: str) -> pd.DataFrame:
    """Exact dedup over documents ∪ an id-shifted copy: the survivor set is
    the original ids (oracle: GROUP BY text / min(doc_id)). Uses the
    scale-default ``exact_dedup_large`` path — only ``(hash, id)`` enters
    the shuffle, losers broadcast back as an anti-join set; the text column
    never moves (the grouped variant stays available as ``exact_dedup`` for
    corpora small enough that a second pass costs more than the shuffle)."""
    from .ops.dedup import exact_dedup_large

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])

    def shift(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("doc_id"),
            "doc_id",
            pc.add(batch["doc_id"], pa.scalar(100_000, pa.int64())),
        )

    both = ds.union(ds.map_batches(shift, batch_format="pyarrow"))
    out = (
        exact_dedup_large(both)
        .select_columns(["doc_id", "n_chars"])
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def q_canonical_select(sf_dir: str) -> pd.DataFrame:
    """Canonical selection (:func:`ops.dedup.canonical_select`): documents ∪
    a whitespace-variant copy (``text + "\\n "``, score ``n_chars + 2``, id
    shifted) dedup by the whitespace-normalized key keeping the BEST row —
    max score, ties min id — so every variant beats its original. The
    oracle restates the normalization with the identical RE2 class and
    ranks with ``row_number() OVER (... ORDER BY n_chars DESC, doc_id)``."""
    from .ops.dedup import canonical_select

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])

    def variant(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                pc.add(batch["doc_id"], pa.scalar(100_000, pa.int64())),
                pc.binary_join_element_wise(
                    pc.fill_null(batch["text"], ""), "\n ", ""
                ),
                pc.add(batch["n_chars"], pa.scalar(2, pa.int64())),
            ],
            names=["doc_id", "text", "n_chars"],
        )

    both = ds.union(ds.map_batches(variant, batch_format="pyarrow"))
    out = (
        canonical_select(both, score_col="n_chars")
        .select_columns(["doc_id", "n_chars"])
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def q_streaming_dedup(sf_dir: str) -> pd.DataFrame:
    """Streaming-shaped exact dedup: documents ∪ copies replayed as
    doc_id-ordered micro-batches through the sharded seen-key index
    (content-hash keys, exactly-once admission per key). Ordered replay
    makes the admitted winner the MIN doc id, so the batch exact-dedup
    oracle applies unchanged — the streaming state machine must agree
    with the batch groupby.

    SEMANTICS HARNESS, not a scale path: the driver-side ordered replay
    exists only to pin a deterministic winner for the oracle. The
    production admission stage is ``state.seen_index.filter_unseen`` —
    fully dataset-native ``map_batches`` against the sharded actors —
    exercised at scale shape by Q ``incremental_admission``."""
    from .ops.dedup import content_hash_batch
    from .state.seen_index import ShardedSeenIndex

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])

    def shift(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("doc_id"),
            "doc_id",
            pc.add(batch["doc_id"], pa.scalar(100_000, pa.int64())),
        )

    both = ds.union(ds.map_batches(shift, batch_format="pyarrow"))
    index = ShardedSeenIndex(n_shards=4)
    kept_parts = []
    for batch in both.sort("doc_id").iter_batches(
        batch_format="pyarrow", batch_size=512
    ):
        seen = index.check_and_add(content_hash_batch(batch["text"].to_pylist()))
        kept = batch.filter(pa.array([not s for s in seen]))
        kept_parts.append(kept.select(["doc_id", "n_chars"]).to_pandas())
    out = pd.concat(kept_parts, ignore_index=True)
    return out.sort_values("doc_id").reset_index(drop=True)


def q_incremental_admission(sf_dir: str) -> pd.DataFrame:
    """Dataset-native incremental admission through the sharded seen-key
    index (the 100-TB streaming-dedup path): run 1 streams the documents
    table through ``filter_unseen`` (content-hash keys, exactly-once per
    key across blocks via the sharded actors); run 2 replays the same
    corpus PLUS a modified third (text + " v2") — only the genuinely new
    keys may be admitted. Output per run: admitted row count + total
    admitted characters. Both aggregates are arrival-order-independent
    (duplicate keys carry byte-identical text), so the exact SQL oracle
    applies even though block arrival order is nondeterministic — no
    driver-side replay loop anywhere."""
    from ray.data.aggregate import Count, Sum

    from .ops.dedup import content_hash_batch
    from .state.seen_index import ShardedSeenIndex, filter_unseen

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def hashed(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "content_hash",
            pa.array(content_hash_batch(batch["text"].to_pylist()), pa.string()),
        ).append_column("n_chars_live", pc.utf8_length(batch["text"]))

    def modify(batch: pa.Table) -> pa.Table:
        keep = pa.array(batch["doc_id"].to_numpy() % 3 == 0)
        t = batch.filter(keep)
        return t.set_column(
            t.schema.get_field_index("text"),
            "text",
            pc.binary_join_element_wise(t["text"], pa.scalar(" v2"), ""),
        )

    index = ShardedSeenIndex(n_shards=4)
    rows = []
    for run, stream in (
        (1, ds),
        (2, ds.union(ds.map_batches(modify, batch_format="pyarrow"))),
    ):
        admitted = filter_unseen(
            stream.map_batches(hashed, batch_format="pyarrow"),
            index,
            key_col="content_hash",
        )
        agg = admitted.aggregate(
            Count(alias_name="admitted"),
            Sum("n_chars_live", alias_name="total_chars"),
        )
        rows.append(
            {
                "run": run,
                "admitted": int(agg["admitted"]),
                "total_chars": int(agg["total_chars"] or 0),
            }
        )
    return pd.DataFrame(rows)


def q_paragraph_dedup(sf_dir: str) -> pd.DataFrame:
    """Cross-document paragraph (boilerplate) removal: documents are recast
    as multi-paragraph pages (10-word chunks) with a fixed boilerplate
    paragraph injected into every even doc; ``paragraph_dedup(min_docs=3)``
    must strip exactly the paragraphs occurring in ≥3 distinct documents
    (the boilerplate — plus any chance-repeated chunk, which the oracle
    counts identically). Exact string compare of the rebuilt text."""
    from .ops.text import paragraph_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    BP = "subscribe to our newsletter for updates"

    def to_paras(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = []
        for i, t in zip(ids, batch["text"].to_pylist()):
            words = t.split()
            chunks = [
                " ".join(words[j : j + 10]) for j in range(0, len(words), 10)
            ]
            paras = ([BP] if i % 2 == 0 else []) + chunks
            texts.append("\n\n".join(paras))
        return pa.Table.from_arrays(
            [batch["doc_id"].combine_chunks(), pa.array(texts, pa.string())],
            names=["doc_id", "text"],
        )

    out = (
        paragraph_dedup(
            ds.map_batches(to_paras, batch_format="pyarrow"), min_docs=3
        )
        .to_pandas()
        .rename(columns={"text": "clean_text"})
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def q_domain_cap(sf_dir: str) -> pd.DataFrame:
    """Per-domain document cap (RefinedWeb-style curation): documents get
    deterministic hosts (``site{doc_id %% 37}.example.com``); at most 5
    docs per host survive, lowest doc_id first — ``ops.segments.cap_per_key``
    (sort + segment-start gather, no per-group Python). Oracle: SQL
    row_number window."""
    from .ops.segments import cap_per_key

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def add_host(batch: pa.Table) -> pa.Table:
        hosts = [
            f"site{i % 37}.example.com" for i in batch["doc_id"].to_pylist()
        ]
        return batch.append_column("host", pa.array(hosts, pa.string()))

    out = cap_per_key(
        ds.map_batches(add_host, batch_format="pyarrow"),
        key_col="host",
        k=5,
        order_cols=["doc_id"],
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)[
        ["doc_id", "host", "n_chars"]
    ]


def q_stratified_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic stratified sampling by language: keep-rate 1/2 for
    en, 1/4 for de, 1/8 otherwise, decided per row by
    ``splitmix64(doc_id + 7) < rate·2^64`` — shuffle-free, driver-free,
    byte-stable at any parallelism. The SQL oracle replicates the
    splitmix64 mix bit-for-bit (HUGEINT modular arithmetic), so the
    sampled id SET matches exactly, not just approximately."""
    from .ops.text import hash_sample

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    out = hash_sample(
        ds,
        rates={"en": 0.5, "de": 0.25, None: 0.125},
        key_col="lang",
        salt=7,
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_fingerprint_dedup(sf_dir: str) -> pd.DataFrame:
    """Format-invariant fingerprint dedup: documents ∪ whitespace/punct-
    perturbed copies must collapse to the original distinct count (the
    rolling hash ignores formatting, reference: content_normalizer.py:14-28).
    Oracle: count of distinct alnum-normalized texts — identical outcome
    assuming no 64-bit collisions."""
    from ray.data.aggregate import Count

    from .ops.text import fingerprint_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def perturb(batch: pa.Table) -> pa.Table:
        texts = [t.replace(" ", "  ") + " ." for t in batch["text"].to_pylist()]
        return pa.Table.from_arrays(
            [
                pc.add(batch["doc_id"], pa.scalar(100_000, pa.int64())),
                pa.array(texts, pa.string()),
            ],
            names=["doc_id", "text"],
        )

    both = ds.union(ds.map_batches(perturb, batch_format="pyarrow"))
    fingerprinted = both.map_batches(fingerprint_batch, batch_format="pyarrow")
    n_distinct = len(fingerprinted.unique("fingerprint"))
    return pd.DataFrame({"n_distinct": [n_distinct]})


def q_minhash_dedup(sf_dir: str) -> pd.DataFrame:
    """MinHash-LSH near-dup over documents ∪ perturbed copies (every 5th doc
    duplicated with its last word dropped). Oracle: exact all-pairs 5-char
    shingle Jaccard in DuckDB (sparse shingle join) + recursive min-label
    components — the LSH candidates must span every true cluster, so the
    Ray clustering equals the exact ground truth."""
    import ray.data as rd

    from .ops.dedup import minhash_lsh_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def perturb(batch: pa.Table) -> pa.Table:
        ids = [i for i in batch["doc_id"].to_pylist() if i % 5 == 0]
        texts = [
            " ".join(t.split()[:-1])
            for i, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist())
            if i % 5 == 0
        ]
        return pa.Table.from_arrays(
            [
                pa.array([i + 100_000 for i in ids], pa.int64()),
                pa.array(texts, pa.string()),
            ],
            names=["doc_id", "text"],
        )

    both = ds.union(ds.map_batches(perturb, batch_format="pyarrow"))
    out = (
        minhash_lsh_dedup(both, threshold=0.7)
        .select_columns(["doc_id", "cluster_id", "is_duplicate"])
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def q_minhash_canonical(sf_dir: str) -> pd.DataFrame:
    """Near-dup curation END TO END: the minhash_dedup clustering (same
    corpus ∪ perturbed copies, exact-Jaccard-verified LSH) composed with
    per-cluster canonical selection (:func:`ops.dedup.
    cluster_representatives`) — keep the LONGEST member (ties → min id),
    report each cluster's representative and size. Oracle: the
    minhash_dedup recursive ground-truth clusters extended with a
    row_number argmax."""
    import ray.data as rd

    from .ops.dedup import cluster_representatives, minhash_lsh_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def perturb(batch: pa.Table) -> pa.Table:
        ids = [i for i in batch["doc_id"].to_pylist() if i % 5 == 0]
        texts = [
            " ".join(t.split()[:-1])
            for i, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist())
            if i % 5 == 0
        ]
        return pa.Table.from_arrays(
            [
                pa.array([i + 100_000 for i in ids], pa.int64()),
                pa.array(texts, pa.string()),
            ],
            names=["doc_id", "text"],
        )

    both = ds.union(ds.map_batches(perturb, batch_format="pyarrow"))
    labeled = minhash_lsh_dedup(both, threshold=0.7)

    def score(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch["cluster_id"].combine_chunks(),
                batch["doc_id"].combine_chunks(),
                pc.utf8_length(pc.fill_null(batch["text"], "")).cast(pa.int64()),
            ],
            names=["cluster_id", "doc_id", "score"],
        )

    reps = cluster_representatives(
        labeled.map_batches(score, batch_format="pyarrow"),
        cluster_col="cluster_id",
        score_col="score",
    ).to_pandas()
    return reps.sort_values("cluster_id").reset_index(drop=True)


def q_ngram_jaccard_dedup(sf_dir: str) -> pd.DataFrame:
    """EXACT word-trigram Jaccard near-dup clustering (AllPairs prefix
    filtering + PPJoin length filter — ops/dedup.py:ngram_jaccard_dedup)
    over documents ∪ perturbed copies (every 7th doc duplicated with its
    last TWO words dropped, ids +200000). Unlike minhash, candidate recall
    is deterministic (every pair ≥ threshold provably shares a prefix
    gram), so the clustering equals the brute-force all-pairs join the
    DuckDB oracle computes."""
    from .ops.dedup import ngram_jaccard_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def perturb(batch: pa.Table) -> pa.Table:
        ids = [i for i in batch["doc_id"].to_pylist() if i % 7 == 0]
        texts = [
            " ".join(t.split()[:-2])
            for i, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist())
            if i % 7 == 0
        ]
        return pa.Table.from_arrays(
            [
                pa.array([i + 200_000 for i in ids], pa.int64()),
                pa.array(texts, pa.string()),
            ],
            names=["doc_id", "text"],
        )

    both = ds.union(ds.map_batches(perturb, batch_format="pyarrow"))
    out = (
        ngram_jaccard_dedup(both, threshold=0.6, n=3)
        .select_columns(["doc_id", "cluster_id", "is_duplicate"])
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def q_simhash(sf_dir: str) -> pd.DataFrame:
    """SimHash near-dup clustering over documents ∪ exact copies."""
    from .ops.dedup import simhash_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def shift(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("doc_id"),
            "doc_id",
            pc.add(batch["doc_id"], pa.scalar(100_000, pa.int64())),
        )

    both = ds.union(ds.map_batches(shift, batch_format="pyarrow"))
    out = (
        simhash_dedup(both)
        .select_columns(["doc_id", "cluster_id", "is_duplicate"])
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def q_embedding_dedup(sf_dir: str) -> pd.DataFrame:
    """Embedding-cosine near-dup over embeddings ∪ exact copies (id+100k) ∪
    ×2-scaled copies (id+200k; scaling by 2 is exact in IEEE floats, so the
    scaled copy tests normalization with zero float-boundary risk — cosine
    is exactly 1 on both engines). Oracle: all-pairs
    ``list_cosine_similarity`` + recursive min-label components. The corpus
    has a wide empty margin around the threshold (max non-copy cosine ≈0.6
    vs threshold 0.9999), so Ray/DuckDB float differences cannot flip any
    pair decision."""
    from .ops.dedup import embedding_dedup

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def shift(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("vec_id"),
            "vec_id",
            pc.add(batch["vec_id"], pa.scalar(100_000, pa.int64())),
        )

    def scale2(batch: pa.Table) -> pa.Table:
        vecs = [[x * 2.0 for x in v] for v in batch["embedding"].to_pylist()]
        return pa.Table.from_arrays(
            [
                pc.add(batch["vec_id"], pa.scalar(200_000, pa.int64())),
                pa.array(vecs, batch.schema.field("embedding").type),
            ],
            names=["vec_id", "embedding"],
        )

    both = ds.union(
        ds.map_batches(shift, batch_format="pyarrow"),
        ds.map_batches(scale2, batch_format="pyarrow"),
    )
    out = (
        embedding_dedup(both, threshold=0.9999)
        .select_columns(["vec_id", "cluster_id", "is_duplicate"])
        .to_pandas()
    )
    return out.sort_values("vec_id").reset_index(drop=True)


def _first_vectors(sf_dir: str, n: int) -> list:
    """The query vectors (vec_id < n) via a pushed-down filter — never a
    full-table driver pull."""
    import pyarrow.parquet as pq

    tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n)],
    )
    tbl = tbl.sort_by("vec_id")
    return tbl["embedding"].to_pylist()


def q_ann_topk(sf_dir: str) -> pd.DataFrame:
    """Brute-force cosine top-10 of the first 5 vectors against the corpus
    (broadcast query matrix; per-batch numpy matmul; rank-only output so the
    oracle hash is float-free)."""
    from .ops.ann import brute_force_topk

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    queries = _first_vectors(sf_dir, 5)
    out = brute_force_topk(ds, np.array(queries), k=10, query_ids=list(range(5)))
    return (
        out[["query_id", "vec_id", "rank"]]
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )


def q_ann_ivf(sf_dir: str) -> pd.DataFrame:
    """IVF ANN in full-probe validation mode (``n_probe == n_centroids``):
    the result must EXACTLY equal the brute-force scan, which end-to-end
    checks centroid build, vectorized assignment, per-list scans and the
    partial-top-k merge (misrouting any vector breaks the oracle). The
    testdata embeddings are isotropic gaussians — no cluster structure —
    so pruned probing is inherently lossy on them; the approximation
    quality at ``n_probe=4/16`` is pinned by tests/test_ops.py's recall@10
    bound instead, and reported in BASELINE.md."""
    from .ops.ann import assign_lists, build_ivf_centroids, ivf_topk

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    queries = _first_vectors(sf_dir, 5)
    centroids = build_ivf_centroids(ds, n_centroids=8)
    # index build: persist the list assignment once; queries probe by the
    # stored list_id column instead of re-assigning per run (round 4)
    indexed = assign_lists(ds, centroids).materialize()
    out = ivf_topk(
        indexed,
        np.array(queries),
        centroids,
        k=10,
        n_probe=8,
        query_ids=list(range(5)),
        list_col="list_id",
    )
    return (
        out[["query_id", "vec_id", "rank"]]
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )


def q_quantize_embeddings(sf_dir: str) -> pd.DataFrame:
    """Int8 max-abs embedding quantization (:func:`ops.embed.
    quantize_embeddings`): one shuffle-free zero-copy pass; every output —
    per-vector scale, q min/max/sum/L1 and the reconstruction-error
    checksum — is integer-exact, so the oracle replays the fixed-point
    map, the truncating division, and the error sum bit-for-bit."""
    from .ops.embed import quantize_embeddings

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = quantize_embeddings(ds).to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


def q_embedding_stats(sf_dir: str) -> pd.DataFrame:
    """Per-label embedding stats (vector column handling + pre-aggregated
    groupby; dims as int so the oracle hash is float-free)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])

    def partial(batch: pa.Table) -> pa.Table:
        dims = [len(v) for v in batch["embedding"].to_pylist()]
        df = pd.DataFrame(
            {
                "label": batch["label"].to_pylist(),
                "n_vecs": np.ones(len(batch), dtype=np.int64),
                "total_dims": np.asarray(dims, dtype=np.int64),
            }
        )
        return pa.Table.from_pandas(
            df.groupby("label", sort=True).sum().reset_index(), preserve_index=False
        ).replace_schema_metadata(None)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("label")
        .aggregate(
            Sum("n_vecs", alias_name="n_vecs"),
            Sum("total_dims", alias_name="total_dims"),
        )
        .to_pandas()
        .sort_values("label")
        .reset_index(drop=True)
    )


def q_embed_ann(sf_dir: str) -> pd.DataFrame:
    """Model-inference composition: embed documents.text with the hashed
    n-gram embedder (actor pool, identity projection so the embedding is a
    normalized trigram-bucket histogram the SQL oracle can replicate) →
    brute-force ANN with 6-decimal score quantization (near-ties resolve by
    vec_id on both engines, making ranks float-order-independent). Oracle:
    the same FNV-1a trigram bucketing + sparse-dim cosine in DuckDB."""
    from .ops.ann import brute_force_topk
    from .ops.embed import HashedNgramEmbedder, embed_documents

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["vec_id", "text"])

    embedded = embed_documents(
        ds.map_batches(rename, batch_format="pyarrow"), dim=64, projection="identity"
    )
    import pyarrow.parquet as pq

    first = (
        pq.read_table(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "text"],
            filters=[("doc_id", "<", 3)],
        )
        .sort_by("doc_id")
        .to_pandas()
    )
    embedder = HashedNgramEmbedder(dim=64, projection="identity")
    queries = np.stack([embedder.embed_one(t) for t in first["text"]])
    out = brute_force_topk(
        embedded, queries, k=3, query_ids=first["doc_id"].tolist(), round_decimals=6
    )
    return (
        out[["query_id", "vec_id", "rank"]]
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )


def q_media_features(sf_dir: str) -> pd.DataFrame:
    """Multimodal image pipeline with an exact oracle across FIVE real
    formats: doc_id%5==0 yields a 16×16 grayscale PNG, %5==2 a GIF89a
    (lossless; identity grayscale palette), %5==3 a TIFF (LZW strips,
    predictor 2), %5==4 a lossless WebP (VP8L, SUBTRACT_GREEN + flat
    prefix codes), all with the per-pixel formula
    ``(doc_id*31 + i) % 256``; %5==1 yields a REAL JPEG
    of four constant 8×8 blocks valued ``(doc_id*31 + b*17) % 256``
    encoded with a flat quant table of 8 — constant blocks round-trip
    EXACTLY through the real DCT path (DC=(v-128)*8 quantizes
    losslessly); half of those (doc_id%10==6) are PROGRESSIVE (SOF2,
    round 4: DC refine + spectral-selection + successive-approximation
    scans) with identical pixels, so the same oracle covers the Annex G
    decode path. The media stage must decode all five formats, compute
    the 16-bin intensity histogram, and emit normalized weights; the SQL
    oracle recomputes the histograms directly from the pixel formulas.
    Weights are exact dyadic rationals (count/256), hash-safe across
    engines."""
    from .ops.jpeg import (
        encode_gif_gray,
        encode_jpeg_gray,
        encode_jpeg_progressive_gray,
        encode_tiff_gray,
    )
    from .ops.multimodal import encode_png, media_pipeline
    from .ops.webp import encode_webp_gray

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_media(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        payloads, mimes = [], []
        for i in ids:
            if i % 5 == 1:
                img = np.zeros((16, 16), np.uint8)
                for b, (by, bx) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
                    img[by * 8 : by * 8 + 8, bx * 8 : bx * 8 + 8] = (
                        i * 31 + b * 17
                    ) % 256
                enc = (
                    encode_jpeg_progressive_gray
                    if i % 10 == 6
                    else encode_jpeg_gray
                )
                payloads.append(enc(img, quant_value=8))
                mimes.append("image/jpeg")
            else:
                pixels = (
                    ((i * 31 + np.arange(256)) % 256).astype(np.uint8).reshape(16, 16)
                )
                if i % 5 == 0:
                    payloads.append(encode_png(pixels, 0, 2))
                    mimes.append("image/png")
                elif i % 5 == 2:
                    payloads.append(encode_gif_gray(pixels, interlaced=i % 10 == 7))
                    mimes.append("image/gif")
                elif i % 5 == 3:
                    payloads.append(
                        encode_tiff_gray(pixels, compression=5, predictor=2)
                    )
                    mimes.append("image/tiff")
                else:
                    payloads.append(encode_webp_gray(pixels))
                    mimes.append("image/webp")
        n = len(ids)
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array([f"img://{i}" for i in ids], pa.string()),
                pa.array(["image"] * n, pa.string()),
                pa.array(payloads, pa.binary()),
                pa.array(mimes, pa.string()),
                pa.array([16] * n, pa.int32()),
                pa.array([16] * n, pa.int32()),
                pa.array([0] * n, pa.int32()),
            ],
            names=["media_id", "url", "kind", "payload", "mime",
                   "width", "height", "duration_ms"],
        )

    out = media_pipeline(ds.map_batches(to_media, batch_format="pyarrow"))

    def explode(batch: pa.Table) -> pa.Table:
        ids, bins, weights = [], [], []
        for mid, feats in zip(batch["media_id"].to_pylist(), batch["features"].to_pylist()):
            for b, wgt in enumerate(feats):
                ids.append(mid)
                bins.append(b)
                weights.append(wgt)
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(bins, pa.int32()),
                pa.array(weights, pa.float64()),
            ],
            names=["media_id", "bin", "weight"],
        )

    df = out.map_batches(explode, batch_format="pyarrow").to_pandas()
    return df.sort_values(["media_id", "bin"]).reset_index(drop=True)


def q_audio_features(sf_dir: str) -> pd.DataFrame:
    """Audio pipeline with an exact oracle across REAL codecs: each
    document becomes a 1024-sample int16 signal
    ``s[t] = (doc_id*37 + t*13) % 2048 - 1024`` encoded as
    ``doc_id%4==0`` → WAV, ``%4 in (1,2)`` → mono FLAC (real fixed-
    predictor + Rice coding via the from-scratch :mod:`ops.flac` codec),
    ``%4==3`` → stereo mid/side FLAC with L=R (mean-mix is exact). The
    actor-pool stage decodes and emits per-window INTEGER abs-energy over
    8 windows of 128 samples; FLAC is lossless, so the SQL oracle
    recomputes the energies straight from the closed form — hash-exact."""
    from .ops.flac import encode_flac
    from .ops.multimodal import audio_pipeline, encode_wav

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_audio(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        payloads = []
        for i in ids:
            sig = ((i * 37 + np.arange(1024) * 13) % 2048 - 1024).astype(np.int16)
            if i % 4 == 0:
                payloads.append(encode_wav(sig))
            elif i % 4 == 3:
                payloads.append(
                    encode_flac(np.stack([sig, sig], axis=1), mid_side=True)
                )
            else:
                payloads.append(encode_flac(sig, blocksize=256))
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(payloads, pa.binary())],
            names=["media_id", "payload"],
        )

    out = audio_pipeline(ds.map_batches(to_audio, batch_format="pyarrow"))
    df = out.to_pandas()
    return df.sort_values(["media_id", "win"]).reset_index(drop=True)


def q_g711_features(sf_dir: str) -> pd.DataFrame:
    """G.711 telephony audio (µ-law for even docs, A-law for odd) with a
    FULL exact oracle: each doc is a 1024-byte companded stream
    ``b[t] = (doc_id*13 + t*7) % 256`` in a real mono WAV; decode is
    pure bit arithmetic, restated verbatim in the SQL (no tables).
    Same windowed abs-energy stage as the other audio queries."""
    from .ops.g711 import encode_g711_wav
    from .ops.multimodal import audio_pipeline

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_g711(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        t = np.arange(1024)
        payloads = [
            encode_g711_wav(
                (i * 13 + t * 7) % 256, "mulaw" if i % 2 == 0 else "alaw"
            )
            for i in ids
        ]
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(payloads, pa.binary())],
            names=["media_id", "payload"],
        )

    out = audio_pipeline(ds.map_batches(to_g711, batch_format="pyarrow"))
    df = out.to_pandas()
    return df.sort_values(["media_id", "win"]).reset_index(drop=True)


def q_mp3_features(sf_dir: str) -> pd.DataFrame:
    """MP3 framing census (round 5, :mod:`ops.mp3`): each document
    becomes a structurally complete, silent MPEG-1 Layer III stream with
    closed-form shape — ``3 + doc_id%4`` frames, bitrate index cycling
    ``1 + (doc_id+j)%14`` (held constant for ``doc_id%5==3`` → the CBR
    bucket), padding ``(doc_id+j)%2``, CRC-protected frames for even
    docs, an ID3v2 prefix (``doc_id%3==0``), an ID3v1 tail
    (``doc_id%4==1``), a Xing VBR header frame (``doc_id%5==2``), and
    leading junk bytes (``doc_id%5==4``, untagged docs) that force a
    resync. The actor-pool stage walks sync/header/CRC/side-info/bit-
    reservoir for real (the parser also validates against genuine
    MPEG-2 files — LSF layouts implemented); every census field is
    integer arithmetic the SQL oracle restates verbatim. Spectral decode
    stays the typed-unsupported declared variant."""
    from .ops.mp3 import encode_mp3, mp3_pipeline

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_mp3(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        payloads = []
        for i in ids:
            n = 3 + i % 4
            bidx = [
                1 + ((i + (0 if i % 5 == 3 else j)) % 14) for j in range(n)
            ]
            pads = [(i + j) % 2 for j in range(n)]
            raw = encode_mp3(
                bidx,
                paddings=pads,
                crc=i % 2 == 0,
                anc_fill=lambda k, m, i=i: bytes(
                    (i * 11 + k + t) % 256 for t in range(m)
                ),
                xing={"frames": n, "bytes": 0} if i % 5 == 2 else None,
                id3v2_payload=(
                    bytes((i + t) % 256 for t in range(23 + i % 50))
                    if i % 3 == 0
                    else None
                ),
                id3v1=i % 4 == 1,
            )
            if i % 5 == 4 and i % 3 != 0:
                raw = b"\x00" * (i % 7) + raw
            payloads.append(raw)
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(payloads, pa.binary())],
            names=["media_id", "payload"],
        )

    out = mp3_pipeline(ds.map_batches(to_mp3, batch_format="pyarrow"))
    df = out.to_pandas()
    return df.sort_values("media_id").reset_index(drop=True)


def q_vp8_census(sf_dir: str) -> pd.DataFrame:
    """Lossy-WebP (VP8) header census (round 5,
    :func:`ops.webp.parse_vp8_header`): each document becomes a WebP
    container whose VP8 chunk carries a spec-exact RFC 6386 uncompressed
    keyframe header with closed-form fields — dimensions
    ``16 + doc_id%320`` × ``16 + (doc_id·7)%240``, version ``doc_id%4``,
    scales, partition-0 size ``50 + doc_id%1000``, filler ``doc_id%64``
    bytes. The census stage reads exactly the header layer (the
    bool-coded pixel layer stays typed-unsupported, like the MP3
    spectral layer); SQL restates every field."""
    from .ops.webp import encode_vp8_header_webp, parse_vp8_header

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def census(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        rows = {k: [] for k in (
            "media_id", "width", "height", "xscale", "yscale", "version",
            "partition0_bytes", "chunk_bytes",
        )}
        for i in ids:
            p = encode_vp8_header_webp(
                16 + i % 320, 16 + (i * 7) % 240,
                partition0=50 + i % 1000, version=i % 4,
                xscale=i % 4, yscale=(i // 4) % 4,
                filler=bytes((i + t) % 256 for t in range(i % 64)),
            )
            c = parse_vp8_header(p)
            rows["media_id"].append(i)
            for k in ("width", "height", "xscale", "yscale", "version",
                      "partition0_bytes", "chunk_bytes"):
                rows[k].append(int(c[k]))
        return pa.Table.from_arrays(
            [pa.array(rows[k], pa.int64()) for k in rows], names=list(rows)
        )

    df = ds.map_batches(census, batch_format="pyarrow").to_pandas()
    return df.sort_values("media_id").reset_index(drop=True)


def q_video_features(sf_dir: str) -> pd.DataFrame:
    """Video pipeline with an exact oracle over REAL containers: each
    document becomes a 6-frame 16×16 clip with per-pixel formula
    ``(doc_id*31 + f*7 + i) % 256`` (frame ``f``, raster position ``i``),
    written as Y4M (``doc_id%2==0``; ``%4==2`` uses the mono colourspace)
    or an uncompressed-DIB AVI (odd ids — B=G=R, so integer luma is the
    gray value on both paths). The actor-pool stage decodes, samples 3
    evenly-spaced frames (0, 2, 4), and emits per-frame INTEGER luma
    sums; the SQL oracle recomputes them from the closed form."""
    from .ops.multimodal import video_pipeline
    from .ops.video import encode_avi, encode_y4m

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_video(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        payloads = []
        for i in ids:
            frames = [
                ((i * 31 + f * 7 + np.arange(256)) % 256)
                .astype(np.uint8)
                .reshape(16, 16)
                for f in range(6)
            ]
            if i % 2 == 0:
                cs = "mono" if i % 4 == 2 else "420jpeg"
                payloads.append(encode_y4m(frames, colorspace=cs))
            else:
                payloads.append(encode_avi(frames))
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(payloads, pa.binary())],
            names=["media_id", "payload"],
        )

    out = video_pipeline(ds.map_batches(to_video, batch_format="pyarrow"))
    df = out.to_pandas()
    return df.sort_values(["media_id", "frame_no"]).reset_index(drop=True)


def q_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact distributed quantiles of ``l_extendedprice`` (60k rows at
    sf0.01) via iterative histogram refinement (:mod:`ops.quantiles`):
    O(passes) counting scans, zero data shuffles — the column itself
    never moves, only per-block 4096-bucket partials.  Definition is
    rank = ``ceil(q*n)`` computed in IEEE double on BOTH sides, so the
    DuckDB ``row_number`` oracle is value-exact including ties."""
    from .ops.quantiles import exact_quantiles

    qs = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])
    pairs = exact_quantiles(ds, "l_extendedprice", qs)
    return pd.DataFrame({"q": [p[0] for p in pairs], "value": [p[1] for p in pairs]})


def q_distinct_sketch(sf_dir: str) -> pd.DataFrame:
    """HyperLogLog distinct-customer sketch over ``orders.o_custkey``
    (p=12, splitmix64 hash).  The query returns the ENTIRE register table
    ``(register, max_rho)`` — fixed 2^p-bounded state combined by
    element-wise max — and the oracle recomputes every register
    bit-for-bit in SQL (same HUGEINT splitmix64 as ``stratified_sample``
    plus a bit-scan for the leading-zero count), so the sketch itself is
    hash-exact, not just its estimate.  Estimate accuracy is pinned
    separately in tests/test_sketch.py."""
    from .ops.sketch import hll_sketch

    ds = _read(sf_dir, "orders", columns=["o_custkey"])
    df = hll_sketch(ds, "o_custkey", p=12).to_pandas()
    df = df.rename(columns={"max(rho)": "max_rho"})
    df["register"] = df["register"].astype("int32")
    df["max_rho"] = df["max_rho"].astype("int32")
    return df.sort_values("register").reset_index(drop=True)


def q_mixture(sf_dir: str) -> pd.DataFrame:
    """Deterministic data-mixture replication (epochs-per-source): src0
    at weight 2.5, src1 at 0.5, src2 dropped, src3 at 3.0, every other
    source once. Shuffle-free per-row arithmetic
    (:func:`ops.text.replicate_by_weight`); dyadic fractional weights make
    the splitmix64 coin flip bit-exact in the SQL oracle."""
    from .ops.text import replicate_by_weight

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])
    out = replicate_by_weight(
        ds,
        {"src0": 2.5, "src1": 0.5, "src2": 0.0, "src3": 3.0, None: 1.0},
        salt=11,
    )
    df = out.to_pandas()[["doc_id", "source", "epoch"]]
    return df.sort_values(["doc_id", "epoch"]).reset_index(drop=True)


def q_distinct_sketch_grouped(sf_dir: str) -> pd.DataFrame:
    """Per-event-type HyperLogLog register tables over users (p=12) —
    the mergeable approximate counterpart of Q ``distinct_users``; every
    register is recomputed bit-for-bit by the SQL oracle (same HUGEINT
    splitmix64 chain as ``distinct_sketch``, grouped)."""
    from .ops.sketch import hll_sketch_grouped

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    df = hll_sketch_grouped(ds, "event_type", "user_id", p=12).to_pandas()
    df = df.rename(columns={"max(rho)": "max_rho"})
    df["register"] = df["register"].astype("int32")
    df["max_rho"] = df["max_rho"].astype("int32")
    return df.sort_values(["event_type", "register"]).reset_index(drop=True)


def q_word_topk(sf_dir: str) -> pd.DataFrame:
    """Exact heavy hitters: 10 most frequent lowercased words per
    language (tiebreak word asc). Words are the canonical skewed shuffle
    key — the op pre-combines counts per BLOCK before the vocabulary
    groupby and finishes with per-block partial top-ks merged on the
    driver (exact once counts are global), so no row-level data ever
    enters an exchange (:func:`ops.text.word_topk`). RE2 ``\\s+`` split
    semantics on both sides."""
    from .ops.text import word_topk

    ds = _read(sf_dir, "documents", columns=["text", "lang"])
    return word_topk(ds, k=10).sort_values(["lang", "rank"]).reset_index(drop=True)


def q_group_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact per-language length quantiles (rank = ceil(q*n), 1-based —
    the same IEEE-double rank convention as Q ``quantiles``): one
    (lang, n_chars) sort with a vectorized per-segment gather
    (:func:`ops.quantiles.group_quantiles`); ties are value-exact because
    the rank indexes a fixed position in the sorted run."""
    from .ops.quantiles import group_quantiles

    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])
    df = group_quantiles(ds, "lang", "n_chars", [0.1, 0.5, 0.9, 0.99]).to_pandas()
    return df.sort_values(["lang", "q"]).reset_index(drop=True)


def q_inverted_index(sf_dir: str) -> pd.DataFrame:
    """Inverted-index metadata tier over documents: per token with df ≥ 5,
    its document frequency, total term frequency, and the first 5 posting
    doc ids (ascending, comma-joined). One (token, doc_id) sort with
    vectorized segment kernels (:mod:`ops.index`); the exchange carries
    one row per DISTINCT (token, doc) pair, never one per occurrence."""
    from .ops.index import inverted_index

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    df = inverted_index(ds, min_df=5).to_pandas()
    return df.sort_values("token").reset_index(drop=True)


def q_compress_postings(sf_dir: str) -> pd.DataFrame:
    """Varbyte delta compression of posting lists
    (:func:`ops.index.compress_postings`): per token with df ≥ 3, the
    gap-coded byte stream's length and byte-value sum (which pins the
    exact encoding) plus first/last posting id. Same (token, doc_id)
    exchange as the inverted index; the encode is a segment-local digit
    matrix + masked flatten with zero per-group Python. The SQL oracle
    replays the 7-bit little-endian group arithmetic exactly."""
    from .ops.index import compress_postings

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    df = compress_postings(ds, min_df=3).to_pandas()
    df = df.drop(columns=["encoded"])  # binary column checked in unit tests
    return df.sort_values("token").reset_index(drop=True)


def q_linear_fit(sf_dir: str) -> pd.DataFrame:
    """Exact distributed OLS (:func:`ops.regress.linear_fit`): fit
    ``n_chars ≈ β₀ + β₁·n_words + β₂·n_a`` (token count and 'a'-character
    count) over the documents
    table. One tiny partial row per block (the XᵀX upper triangle as
    int64 sums), unbounded-int Bareiss/Cramer solve on the driver;
    coefficients reported as UNREDUCED determinant rationals so the SQL
    oracle replays the identical integer polynomial (no gcd or float
    rounding conventions to agree on)."""
    from .ops.regress import linear_fit_frame

    ds = _read(sf_dir, "documents", columns=["text", "n_chars"])

    def feats(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch["text"], "")
        return pa.table(
            {
                "n_words": pc.count_substring_regex(texts, r"\S+").cast(
                    pa.int64()
                ),
                "n_a": pc.count_substring(texts, "a").cast(pa.int64()),
                "n_chars": batch["n_chars"].cast(pa.int64()),
            }
        )

    feat_ds = ds.map_batches(feats, batch_format="pyarrow")
    return linear_fit_frame(feat_ds, ["n_words", "n_a"], "n_chars")


def q_fix_mojibake(sf_dir: str) -> pd.DataFrame:
    """Mojibake repair (:func:`ops.text.fix_mojibake_batch`): over the
    ASCII subset of documents, plant the cp1252 mis-decode of 'é—'
    ('Ã©â€”') on every doc_id % 3 == 0 row, then run the general sloppy-
    cp1252 → UTF-8 round-trip repair. The oracle states the closed form:
    planted rows come back with the true suffix and fixed = true, all
    others are fixed points. The repair itself is per-row, shuffle-free,
    with an isascii fast path."""
    from .ops.text import fix_mojibake_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    moji = "\u00c3\u00a9\u00e2\u20ac\u201d"  # 'Ã©â€”'

    def plant(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch["text"], "").to_pylist()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = [i for i, t in enumerate(texts) if t.isascii()]
        out_ids = [int(ids[i]) for i in keep]
        out_txt = [
            texts[i] + moji if ids[i] % 3 == 0 else texts[i] for i in keep
        ]
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "text": pa.array(out_txt, pa.string()),
            }
        )

    fixed = ds.map_batches(plant, batch_format="pyarrow").map_batches(
        fix_mojibake_batch, batch_format="pyarrow"
    )
    return fixed.to_pandas().sort_values("doc_id").reset_index(drop=True)


BM25_QUERIES = {
    "q1": "hash join",
    "q2": "window sort stream",
    "q3": "spark dup",
}


def q_bm25_search(sf_dir: str) -> pd.DataFrame:
    """Integer-exact rational-IDF BM25 top-10 per query over documents
    (:mod:`ops.search`). The broadcast query-term set turns retrieval into
    one vectorized match pass (postings for O(query terms) tokens only)
    plus exchanges over the matching-doc minority."""
    from .ops.search import bm25_topk

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bm25_topk(ds, BM25_QUERIES, k=10).to_pandas()


CM_PROBES = ["hash", "join", "spark", "window", "zzzunseen"]


def q_count_min(sf_dir: str) -> pd.DataFrame:
    """Count-Min frequency sketch over corpus tokens (:mod:`ops.sketch`):
    fixed 4×1024 counters built from per-block vectorized partials, probed
    for five tokens (incl. one absent) against the exact counts. Every
    counter is bit-exact — the oracle replays the token hash, all cell
    updates, and the min-over-rows estimate."""
    from .ops.sketch import count_min_estimates

    ds = _read(sf_dir, "documents", columns=["text"])
    return count_min_estimates(ds, CM_PROBES).to_pandas()


def q_shard_plan(sf_dir: str) -> pd.DataFrame:
    """Byte-budgeted shard plan over documents in doc_id order
    (:mod:`ops.shard`): a distributed exclusive prefix sum (one sort, one
    row per block to the driver, broadcast offsets) assigning each doc to
    ``shard_id = prefix_bytes // 100_000``."""
    from .ops.shard import shard_plan

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return shard_plan(ds, shard_bytes=100_000).to_pandas()


def q_dhash_dedup(sf_dir: str) -> pd.DataFrame:
    """Perceptual image dedup (:mod:`ops.phash`): each doc becomes a REAL
    16×16 gray PNG with closed-form pixels ``(g*37 + y*17 + x*29) % 256``
    where ``g = doc_id % 7``; odd docs additionally get ``+1`` on pixel
    (y=1, x=2), which is byte-visible but OUTSIDE the 8×9 dHash sample
    grid — so the perceptual clusters collapse byte-distinct retouches.
    The oracle restates the 64-bit hash from the formula (the perturbed
    pixel provably never sampled: ys = 2·dy, xs = ⌊16·dx/9⌋)."""
    from .ops.multimodal import encode_png
    from .ops.phash import dhash_clusters

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_png(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        y, x = np.mgrid[0:16, 0:16]
        payloads = []
        for i in ids:
            img = ((i % 7) * 37 + y * 17 + x * 29) % 256
            if i % 2 == 1:
                img[1, 2] = (img[1, 2] + 1) % 256
            payloads.append(encode_png(img.astype(np.uint8)))
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(payloads, pa.binary())],
            names=["doc_id", "payload"],
        )

    images = ds.map_batches(to_png, batch_format="pyarrow")
    return dhash_clusters(images).to_pandas()


def q_kmeans_clusters(sf_dir: str) -> pd.DataFrame:
    """SemDeDup-style semantic clustering: 3 integer-exact distributed
    Lloyd iterations over quantized embeddings (:mod:`ops.cluster`), k=5,
    init = the 5 lowest vec_ids. Per-cluster membership count, min id,
    and an exact integer distance checksum — the DuckDB oracle replays
    the full algorithm as unrolled CTE iterations."""
    from .ops.cluster import kmeans_clusters

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return kmeans_clusters(ds, k=5, iters=3).to_pandas()


def q_semdedup(sf_dir: str) -> pd.DataFrame:
    """SemDeDup (Abbas et al. 2023) over embeddings ∪ exact copies
    (vec_id+100k): integer-exact k-means (k=5, 2 Lloyd iterations), then
    pairwise exact big-int cosine ≥ 999/1000 WITHIN each cluster, min-id
    components. Exact copies always share their original's cluster (same
    quantized vector → same assignment) and sit at cosine exactly 1; the
    corpus has a wide margin around the threshold (max non-copy cosine
    ≈0.6), so the float candidate pre-filters on either engine cannot
    flip any pair decision — every compared decision is exact integer
    arithmetic replayed by the DuckDB oracle."""
    from .ops.cluster import semdedup

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def shift(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("vec_id"),
            "vec_id",
            pc.add(batch["vec_id"], pa.scalar(100_000, pa.int64())),
        )

    both = ds.union(ds.map_batches(shift, batch_format="pyarrow"))
    out = semdedup(both, k=5, iters=2).to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


def q_prototype_prune(sf_dir: str) -> pd.DataFrame:
    """D4 prototype pruning (Sorscher et al. 2022 / Tirumala et al. 2023)
    over embeddings: integer-exact k-means (k=5, 2 Lloyd iterations),
    then within each cluster keep the ceil(n/2) FARTHEST members (dist
    DESC, vec_id ASC ties). Every distance is exact int64, so the oracle
    replays the unrolled Lloyd chain and the window ranking verbatim."""
    from .ops.cluster import prototype_prune

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = prototype_prune(ds, k=5, iters=2, keep_num=1, keep_den=2).to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


def q_cross_decontaminate(sf_dir: str) -> pd.DataFrame:
    """Document-level benchmark decontamination
    (:func:`ops.dedup.lsh_decontaminate`): bench side = every 25th
    document (broadcast once), train side = the full corpus streaming
    shuffle-free; contaminated ⇔ exact 5-char-shingle Jaccard ≥ 0.8 with
    any bench doc. Bench members are exact copies of train docs (J = 1,
    every band collides — LSH recall is certain), and natural cross
    pairs sit far below 0.8, so the oracle's exact all-pairs Jaccard is
    reproduced bit-for-bit."""
    from .ops.dedup import lsh_decontaminate

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def bench_filter(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 25 == 0))

    bench = ds.map_batches(bench_filter, batch_format="pyarrow")
    out = (
        lsh_decontaminate(ds, bench, threshold=0.8)
        .select_columns(["doc_id", "contaminated"])
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def q_quality_tiers(sf_dir: str) -> pd.DataFrame:
    """Tier extraction: exact corpus-wide quality tiers
    (:func:`ops.quantiles.global_ntile`, 4 tiers) over an integer
    alnum-permille score — ``1000 * ascii_alnum_chars // max(chars, 1)``,
    fully vectorized Arrow kernels. Heavy score ties are broken by
    doc_id, so the assignment is deterministic; the oracle is a
    row_number window over the same integer score."""
    from .ops.quantiles import global_ntile

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch["text"], "")
        alnum = pc.utf8_length(
            pc.replace_substring_regex(text, "[^a-zA-Z0-9]", "")
        ).cast(pa.int64())
        chars = pc.utf8_length(text).cast(pa.int64())
        s = pc.divide(
            pc.multiply(alnum, pa.scalar(1000, pa.int64())),
            pc.max_element_wise(chars, pa.scalar(1, pa.int64())),
        )
        return pa.Table.from_arrays(
            [batch["doc_id"], s], names=["doc_id", "score"]
        )

    out = global_ntile(
        ds.map_batches(score, batch_format="pyarrow"), 4, score_col="score"
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_exif_census(sf_dir: str) -> pd.DataFrame:
    """EXIF metadata census over a synthetic JPEG corpus: per doc a real
    baseline JPEG with a planted APP1 Exif segment (orientation / make /
    pixel_x / iso closed-form in doc_id; every 7th doc carries none),
    parsed back by the engine's own TIFF-IFD reader
    (:func:`ops.jpeg.parse_exif`) in one stateless shuffle-free pass —
    the image-curation metadata path that never decodes pixels."""
    from .ops.jpeg import build_exif_app1, encode_jpeg_gray, parse_exif

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    base = encode_jpeg_gray(np.zeros((8, 8), np.uint8))

    def build(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        payloads = []
        for i in ids:
            if i % 7 == 0:
                payloads.append(base)
            else:
                app1 = build_exif_app1(
                    orientation=i % 8 + 1,
                    make=f"cam{i % 3}",
                    pixel_x=16 + i % 5,
                    iso=100 * (i % 4 + 1),
                )
                payloads.append(base[:2] + app1 + base[2:])
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(payloads, pa.binary())],
            names=["doc_id", "payload"],
        )

    def census(batch: pa.Table) -> pa.Table:
        metas = [parse_exif(p) for p in batch["payload"].to_pylist()]
        return pa.Table.from_arrays(
            [
                batch["doc_id"],
                pa.array([m["orientation"] for m in metas], pa.int64()),
                pa.array([m["make"] for m in metas], pa.string()),
                pa.array([m["pixel_x"] for m in metas], pa.int64()),
                pa.array([m["iso"] for m in metas], pa.int64()),
                pa.array([m["has_exif"] for m in metas], pa.bool_()),
            ],
            names=["doc_id", "orientation", "make", "pixel_x", "iso", "has_exif"],
        )

    out = (
        ds.map_batches(build, batch_format="pyarrow")
        .map_batches(census, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def q_tier_extract(sf_dir: str) -> pd.DataFrame:
    """THE graft theme end-to-end — tier extraction over the flagship
    pipeline: boilerplate-wrapped pages (every 3rd a real ``%PDF-1.4``
    payload) → full extraction (routing, PDF codec, layout, validate) →
    integer alnum-permille quality score on the EXTRACTED text → exact
    global 4-tile tiers (:func:`ops.quantiles.global_ntile`) → per-tier
    rollup. Extraction is byte-identical to the source text (the
    extract_mixed invariant), so the oracle scores ``documents.text``
    directly — any extraction, ranking, or rollup drift breaks the
    match."""
    from ray.data.aggregate import Max, Min, Sum

    from .ops.quantiles import global_ntile

    pages = wrap_documents_as_pages(sf_dir, pdf_every=3, pdf_kind="real")
    out = extraction_pipeline(pages).select_columns(
        ["doc_id", "extracted_text"]
    )

    def score(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch["extracted_text"], "")
        alnum = pc.utf8_length(
            pc.replace_substring_regex(text, "[^a-zA-Z0-9]", "")
        ).cast(pa.int64())
        chars = pc.utf8_length(text).cast(pa.int64())
        s = pc.divide(
            pc.multiply(alnum, pa.scalar(1000, pa.int64())),
            pc.max_element_wise(chars, pa.scalar(1, pa.int64())),
        )
        one = pa.array(np.ones(batch.num_rows, dtype=np.int64))
        return pa.Table.from_arrays(
            [batch["doc_id"], s, one], names=["doc_id", "score", "one"]
        )

    tiers = global_ntile(
        out.map_batches(score, batch_format="pyarrow"), 4, score_col="score"
    )
    agg = (
        tiers.map_batches(
            lambda b: b.append_column(
                "one", pa.array(np.ones(b.num_rows, dtype=np.int64))
            ),
            batch_format="pyarrow",
        )
        .groupby("tier")
        .aggregate(
            Sum("one", alias_name="n_docs"),
            Min("score", alias_name="min_score"),
            Max("score", alias_name="max_score"),
            Sum("score", alias_name="sum_score"),
        )
    )
    df = agg.to_pandas().sort_values("tier").reset_index(drop=True)
    return df[["tier", "n_docs", "min_score", "max_score", "sum_score"]]


def q_bpe_pair_counts(sf_dir: str) -> pd.DataFrame:
    """Iteration-0 of the distributed BPE trainer (Sennrich et al. 2016):
    the 100 most frequent adjacent symbol pairs (characters + end-of-word
    marker chr(31)) weighted by word-TYPE frequency. This is the exchange
    the whole trainer rests on — the merge loop itself iterates the
    vocabulary-bounded word-type table on the driver
    (:func:`ops.bpe.bpe_train`; the full loop is oracled by Q ``bpe_train``'s
    unrolled per-round SQL replica)."""
    from .ops.bpe import bpe_pair_counts

    ds = _read(sf_dir, "documents", columns=["text"])
    return bpe_pair_counts(ds, k=100)


def _six_bucket_urls(batch: pa.Table) -> pa.Table:
    """Deterministic messy-URL corpus, six buckets per doc_id (case, default
    ports, dot-segments, duplicate slashes, tracking params,
    percent-encoding, co.uk suffix, unparseable junk)."""
    ids = batch["doc_id"].to_pylist()
    urls = []
    for i in ids:
        b = i % 6
        if b == 0:
            u = (
                f"HTTP://WWW.Site{i % 37}.Example.COM:80/a/b/../c/./page{i % 5}/"
                f"?utm_source=x&q={i}&fbclid=1#frag"
            )
        elif b == 1:
            u = f"https://News.Example.co.uk:443//world//{i}/"
        elif b == 2:
            u = f"https://example.com:8443/%41bc%2f{i}"
        elif b == 3:
            u = f"http://blog.sub.site{i % 7}.org/a/../../x?gclid=z"
        elif b == 4:
            u = "https://www.example.com"
        else:
            u = f"not a url {i}"
        urls.append(u)
    return pa.Table.from_arrays(
        [pa.array(ids, pa.int64()), pa.array(urls, pa.string())],
        names=["doc_id", "url"],
    )


def q_canonical_urls(sf_dir: str) -> pd.DataFrame:
    """URL canonicalization over six deterministic mess buckets per
    doc_id (case, default ports, dot-segments, duplicate slashes,
    tracking params, percent-encoding, co.uk suffix, unparseable junk).
    The op does real RFC-3986-style parsing (:mod:`ops.urls`); the SQL
    oracle states the expected canonical form in CLOSED FORM per bucket,
    so this is ground-truth-checked end-to-end, not parser-vs-parser."""
    from .ops.urls import canonicalize_urls

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    out = canonicalize_urls(ds.map_batches(_six_bucket_urls, batch_format="pyarrow"))
    df = out.select_columns(
        ["doc_id", "canon_url", "host", "registered_domain"]
    ).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


_BOILERPLATE = (
    " (c) 2026 example media group - all rights reserved."
    " subscribe to our newsletter today for more stories."
)


def q_substring_dup(sf_dir: str) -> pd.DataFrame:
    """ExactSubstr-style duplicated-window signal (Lee et al. 2022,
    arXiv:2107.06499): per document, how many of its 50-char windows
    occur ≥2 times anywhere in the corpus. Docs with doc_id%3==0 get a
    shared boilerplate suffix so the duplicated set is non-trivial; the
    oracle recounts with true SQL ``substring`` equality (hash
    collisions are 2^-64 like fingerprint_dedup). The groupby(hash)
    exchange is the honest suffix-array-equivalent cost
    (:mod:`ops.substr`)."""
    from .ops.substr import duplicate_window_counts

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def with_bp(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        out = [
            (t or "") + _BOILERPLATE if i % 3 == 0 else (t or "")
            for i, t in zip(ids, batch["text"].to_pylist())
        ]
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(out, pa.string())],
            names=["doc_id", "text"],
        )

    out = duplicate_window_counts(
        ds.map_batches(with_bp, batch_format="pyarrow"), window=50
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def q_deterministic_shuffle(sf_dir: str) -> pd.DataFrame:
    """Epoch shuffling for training pipelines, deterministically: global
    order = sort by ``splitmix64(doc_id + epoch_salt)`` — the same
    reproducible-at-any-parallelism trick as ``stratified_sample``, with
    the sort as the honest distributed exchange (Ray pushes the limit
    into the sort). Returns the first 50 (rank, doc_id); the SQL oracle
    replays the hash chain bit-for-bit and row_numbers the same order."""
    from .ops.text import splitmix64_np

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def keyed(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        hv = splitmix64_np(ids + np.uint64(123))
        # Flip the top bit: signed order of the stored key == unsigned
        # order of the hash, so Ray's int64 sort matches ORDER BY hv.
        key = (hv ^ np.uint64(1 << 63)).view(np.int64)
        return batch.append_column("shuffle_key", pa.array(key, pa.int64()))

    head = (
        ds.map_batches(keyed, batch_format="pyarrow")
        .sort("shuffle_key")
        .limit(50)
        .to_pandas()
    )
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(head) + 1, dtype=np.int64),
            "doc_id": head["doc_id"].astype("int64"),
        }
    )


def q_revenue_rollup(sf_dir: str) -> pd.DataFrame:
    """Multi-level aggregation (ROLLUP) done the scale-correct way: ONE
    corpus pass computes the finest grain (returnflag × linestatus, with
    per-batch partials before the tiny groupby); the subtotal and
    grand-total levels re-aggregate the HANDFUL of fine-grain rows on
    the driver — never a second pass over the data. Subtotal keys are
    the literal 'ALL' on both sides (no null-ordering ambiguity)."""
    from ray.data.aggregate import Sum

    ds = _read(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_extendedprice",
                 "l_discount", "l_shipdate"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.less_equal(
                batch["l_shipdate"], pa.scalar(np.datetime64("1998-09-02", "us"))
            )
        )
        rev = _cents(
            pc.multiply(
                batch["l_extendedprice"],
                pc.subtract(pa.scalar(1.0), batch["l_discount"]),
            )
        )
        df = pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"].to_pylist(),
                "l_linestatus": batch["l_linestatus"].to_pylist(),
                "revenue_cents": rev.to_numpy(),
            }
        )
        return pa.Table.from_pandas(
            df.groupby(["l_returnflag", "l_linestatus"], sort=True)
            .sum()
            .reset_index(),
            preserve_index=False,
        ).replace_schema_metadata(None)

    fine = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
        .to_pandas()  # finest grain: ≤ |flags|×|statuses| rows
    )
    sub = (
        fine.groupby("l_returnflag", as_index=False)["revenue_cents"]
        .sum()
        .assign(l_linestatus="ALL")
    )
    total = pd.DataFrame(
        {
            "l_returnflag": ["ALL"],
            "l_linestatus": ["ALL"],
            "revenue_cents": [fine["revenue_cents"].sum()],
        }
    )
    out = pd.concat([fine, sub, total], ignore_index=True)[
        ["l_returnflag", "l_linestatus", "revenue_cents"]
    ]
    out["revenue_cents"] = out["revenue_cents"].astype("int64")
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


def q_tfidf_terms(sf_dir: str) -> pd.DataFrame:
    """Per-document distinctive terms, TF-IDF-shaped but INTEGER-exact
    (``score = tf * n_docs // df``) so the oracle is hash-exact: one
    vocabulary groupby builds the document-frequency table (per-block
    per-doc-uniqued partials), the df map broadcasts under a documented
    vocabulary cap (semi-join swap noted for 100 TB vocabularies), and
    scoring is per-row shuffle-free (:func:`ops.text.tfidf_top_terms`)."""
    from .ops.text import tfidf_top_terms

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    df = tfidf_top_terms(ds, k=3).to_pandas()
    return df.sort_values(["doc_id", "rank"]).reset_index(drop=True)


def q_lm_quality(sf_dir: str) -> pd.DataFrame:
    """CCNet-style LM quality scoring (round 4): a corpus-trained bigram
    MLE scores every document's word transitions with integer-exact
    arithmetic (``C(w1,w2) * 1e6 // C(w1,·)`` summed over consecutive
    pairs — :func:`ops.text.lm_bigram_score`); the oracle recomputes the
    model and scores in SQL (window-function bigrams + two joins)."""
    from .ops.text import lm_bigram_score

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    df = lm_bigram_score(ds).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_length_bins(sf_dir: str) -> pd.DataFrame:
    """Curriculum binning composition: quartile thresholds of ``n_chars``
    come from :func:`ops.quantiles.exact_quantiles` (counting passes, no
    sort), then one shuffle-free pass bins every document and per-batch
    partials feed a tiny groupby. Bin = number of thresholds < value
    (so bin b holds values in (t_{b-1}, t_b], exactly the rank
    definition) — the SQL oracle recomputes the identical thresholds via
    row_number and rebins. Demonstrates op reuse: a statistics op
    feeding a pipeline stage via broadcast thresholds."""
    from ray.data.aggregate import Count

    from .ops.quantiles import exact_quantiles

    ds = _read(sf_dir, "documents", columns=["n_chars"])
    qs = [0.25, 0.5, 0.75]
    thresholds = [v for _, v in exact_quantiles(ds, "n_chars", qs)]
    thr = np.asarray(thresholds, dtype=np.int64)

    def binned(batch: pa.Table) -> pa.Table:
        arr = batch["n_chars"]
        if arr.null_count:  # defensive: match exact_quantiles' null policy
            arr = arr.drop_null()
        x = arr.to_numpy(zero_copy_only=False).astype(np.int64)
        # side="left" == count of thresholds strictly below x, so values
        # equal to a threshold land in the lower bin.
        b = np.searchsorted(thr, x, side="left")
        return pa.Table.from_arrays(
            [pa.array(b.astype(np.int32), pa.int32())], names=["bin"]
        )

    out = (
        ds.map_batches(binned, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Count(alias_name="docs"))
        .to_pandas()
    )
    out["bin"] = out["bin"].astype("int32")
    out["docs"] = out["docs"].astype("int64")
    return out.sort_values("bin").reset_index(drop=True)


def q_media_resize(sf_dir: str) -> pd.DataFrame:
    """Thumbnail stage over REAL PNGs: each doc becomes a 16×16 gray PNG
    with per-pixel formula ``(doc_id*7 + y*13 + x*5) % 256``; the actor
    pool decodes and emits BOTH resize modes — nearest-neighbor to 8×8
    (floor mapping ``src = dst*in//out``) and 2×2 integer box downsample
    (floor-mean). Both are pure integer transforms of the closed-form
    image, so the SQL oracle restates every output pixel exactly."""
    from .ops.multimodal import encode_png, resize_pipeline

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_png(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        y, x = np.mgrid[0:16, 0:16]
        payloads = [
            encode_png(((i * 7 + y * 13 + x * 5) % 256).astype(np.uint8))
            for i in ids
        ]
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(payloads, pa.binary())],
            names=["media_id", "payload"],
        )

    out = resize_pipeline(ds.map_batches(to_png, batch_format="pyarrow"))
    df = out.to_pandas()
    return df.sort_values(["media_id", "mode", "y", "x"]).reset_index(drop=True)


def q_rasterize_pages(sf_dir: str) -> pd.DataFrame:
    """Text rasterizer (round 4, retiring the M6 exclusion — reference
    ``openai_client.py:60-105`` renders pages to PNG for a vision model):
    each document's first 200 codepoints render onto a 256-px-wide
    monospace bitmap with the deterministic bar-glyph formula
    (:mod:`.ops.raster`), and the layout metrics — ink pixels, occupied
    8-px row bands — are read off the RENDERED PIXELS; the SQL oracle
    recomputes them from the per-codepoint closed form."""
    from .ops.raster import rasterize_pages

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = rasterize_pages(ds, width=256, max_chars=200).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_adpcm_features(sf_dir: str) -> pd.DataFrame:
    """IMA-ADPCM audio with a FULL exact oracle for a LOSSY codec: the
    decode is a pure integer state machine (published step/index
    tables), so the SQL side replays it bit-for-bit with a recursive CTE
    — no closed-form signal needed, unlike the WAV/FLAC query. Each doc
    becomes an 8-block mono ADPCM WAV whose block headers and nibble
    stream come from closed forms of (doc_id, block, t); windows align
    to blocks (129 samples each) so per-window abs-energy groups by
    block on both sides."""
    from .ops.adpcm import encode_ima_wav
    from .ops.multimodal import audio_pipeline

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_adpcm(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        payloads = []
        blk = np.arange(8)
        t = np.arange(128)
        for i in ids:
            headers = (i * 11 + blk * 29) % 1024 - 512
            idxs = (i + blk * 5) % 89
            nibs = (i * 7 + blk[:, None] * 13 + t[None, :] * 3) % 16
            payloads.append(encode_ima_wav(headers, idxs, nibs))
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(payloads, pa.binary())],
            names=["media_id", "payload"],
        )

    out = audio_pipeline(ds.map_batches(to_adpcm, batch_format="pyarrow"))
    df = out.to_pandas()
    return df.sort_values(["media_id", "win"]).reset_index(drop=True)


def q_mjpeg_video(sf_dir: str) -> pd.DataFrame:
    """Motion-JPEG video — a real DCT video container decoded end-to-end
    by the engine's own codecs (AVI demux → per-frame baseline JPEG).
    Each doc becomes a 4-frame 16×16 MJPEG AVI whose frames are 2×2
    grids of CONSTANT 8×8 blocks with value
    ``(doc_id*31 + f*7 + b*11) % 256`` — constant blocks round-trip
    EXACTLY through the flat-quant-8 JPEG encoder (DC = (v-128)·8
    divides the quantizer), so per-frame luma sums have a closed-form
    oracle. Frame sampling picks frames 0,1,2 of 4."""
    from .ops.jpeg import encode_jpeg_gray
    from .ops.multimodal import video_pipeline
    from .ops.video import encode_mjpeg_avi

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_mjpeg(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        payloads = []
        for i in ids:
            jpegs = []
            for f in range(4):
                vals = np.array(
                    [(i * 31 + f * 7 + b * 11) % 256 for b in range(4)],
                    dtype=np.uint8,
                ).reshape(2, 2)
                img = np.repeat(np.repeat(vals, 8, axis=0), 8, axis=1)
                jpegs.append(encode_jpeg_gray(img, quant_value=8))
            payloads.append(encode_mjpeg_avi(jpegs, 16, 16))
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(payloads, pa.binary())],
            names=["media_id", "payload"],
        )

    out = video_pipeline(ds.map_batches(to_mjpeg, batch_format="pyarrow"))
    df = out.to_pandas()
    return df.sort_values(["media_id", "frame_no"]).reset_index(drop=True)


def q_repetition_filter(sf_dir: str) -> pd.DataFrame:
    """Gopher-style repetition signal per document: most-frequent word
    bigram count, total bigrams, and the repetitive flag (top fraction >
    18%, compared in exact integers on both engines — no float
    thresholds)."""
    from .ops.text import repetition_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = (
        ds.map_batches(
            lambda b: repetition_batch(b).select(
                ["doc_id", "top_bigram_count", "n_bigrams", "repetitive"]
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def q_c4_clean(sf_dir: str) -> pd.DataFrame:
    """C4-style line/document cleaning (Raffel et al. §2.2, the
    deterministic list-free subset): lines kept iff terminal-punctuated,
    ≥5 words, and javascript-free; documents kept iff ≥3 retained lines
    and free of 'lorem ipsum'/'{'. One Arrow-kernel `map_batches` pass
    (:func:`ops.text.c4_clean_batch`); the oracle replays every rule
    with DuckDB list lambdas."""
    from .ops.text import c4_clean_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(
        lambda b: c4_clean_batch(b).select(
            ["doc_id", "total_lines", "kept_lines", "kept", "cleaned_text"]
        ),
        batch_format="pyarrow",
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_gopher_rules(sf_dir: str) -> pd.DataFrame:
    """Gopher/MassiveText document-level quality rules with exact integer
    threshold comparisons (:func:`ops.text.gopher_rules_batch`): one
    Arrow-kernel `map_batches` pass emitting every rule counter plus the
    pass flag; the oracle recomputes all seven rules with DuckDB list
    lambdas and the same integer inequalities."""
    from .ops.text import gopher_rules_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(
        lambda b: gopher_rules_batch(b).select(
            [
                "doc_id", "n_words", "word_chars", "n_symbols", "n_lines",
                "bullet_lines", "ellipsis_lines", "alpha_words",
                "stop_hits", "passes",
            ]
        ),
        batch_format="pyarrow",
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_winnow_fingerprints(sf_dir: str) -> pd.DataFrame:
    """Winnowing fingerprints (Schleimer et al. / MOSS): word-3-gram
    FNV-1a hashes, window w=4, rightmost-minimum selection — per-doc
    fingerprint count plus a bit-exact hash-sum digest
    (:func:`ops.winnow.winnow_summary_batch`; shuffle-free). The oracle
    recomputes every hash with the list_reduce/unicode() FNV idiom and
    replays the rightmost tie rule via a HUGEINT composite key inside a
    window-frame min."""
    from .ops.winnow import winnow_summary_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(
        lambda b: winnow_summary_batch(b).select(
            ["doc_id", "n_grams", "n_fingerprints", "fp_sum"]
        ),
        batch_format="pyarrow",
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_pack_sequences(sf_dir: str) -> pd.DataFrame:
    """Sequence packing for pretraining: documents tokenized with the
    hash vocabulary (FNV-1a → [2, 32768), EOS=1 after each doc), packed
    into 128-token sequences within 100-doc shards (sharded packing —
    embarrassingly parallel, no global prefix sum). Output is the exploded
    (shard, seq_idx, pos, token_id) form; the oracle recomputes every
    token id and position with window functions."""
    from .ops.pack import pack_tokens

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = pack_tokens(ds, seq_len=128, vocab_size=32_768, shard_size=100).to_pandas()
    return out.sort_values(["shard", "seq_idx", "pos"]).reset_index(drop=True)


def q_extraction_metrics(sf_dir: str) -> pd.DataFrame:
    """Per-language lineage rollup of the HTML roundtrip pipeline (the G3
    metrics aggregate keyed on a SQL-checkable column)."""
    from ray.data.aggregate import Sum

    pages = wrap_documents_as_pages(sf_dir)
    out = extraction_pipeline(pages)

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "lang": batch["lang"].to_pylist(),
                "docs": np.ones(len(batch), dtype=np.int64),
                "bytes_out": [len(t) for t in batch["extracted_text"].to_pylist()],
            }
        )
        return pa.Table.from_pandas(
            df.groupby("lang", sort=True).sum().reset_index(), preserve_index=False
        ).replace_schema_metadata(None)

    return (
        out.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("docs", alias_name="docs"), Sum("bytes_out", alias_name="bytes_out"))
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )


# ---------------------------------------------------------------------------
# Oracle SQL
# ---------------------------------------------------------------------------

def _keyword_condition() -> str:
    parts = " OR ".join(
        "lower(text) LIKE '%" + kw.replace("'", "''") + "%'"
        for kw in FINANCIAL_KEYWORDS
    )
    return "(" + parts + ")"


def _langid_sql() -> str:
    """SQL replica of LangIdScorer: per-language stopword token hits,
    argmax with alphabetical tiebreak, Hebrew-script fallback, 'und'."""
    hit_exprs = {
        lang: (
            "length(regexp_extract_all(lower(text), '\\b("
            + "|".join(sorted(STOPWORDS[lang]))
            + ")\\b'))"
        )
        for lang in sorted(STOPWORDS)
    }
    langs = sorted(STOPWORDS)
    # strictly-greater argmax scanning langs alphabetically == python loop
    case = "CASE\n"
    for i, lang in enumerate(langs):
        others = [
            f"h_{lang} >= h_{o}" if o > lang else f"h_{lang} > h_{o}"
            for o in langs
            if o != lang
        ]
        case += (
            f" WHEN h_{lang} > 0 AND " + " AND ".join(others) + f" THEN '{lang}'\n"
        )
    case += (
        " WHEN regexp_matches(text, '[֐-׿]') THEN 'he'\n"
        " ELSE 'und' END"
    )
    hits = ", ".join(f"{expr} AS h_{lang}" for lang, expr in hit_exprs.items())
    return (
        f"WITH hits AS (SELECT doc_id, text, {hits} FROM documents),\n"
        f"pred AS (SELECT doc_id, {case} AS pred_lang FROM hits)\n"
        "SELECT pred_lang, count(*) AS n_docs FROM pred GROUP BY pred_lang "
        "ORDER BY pred_lang"
    )


ORACLE_SQL: dict[str, str] = {
    "tpch_q1": """
        SELECT l_returnflag, l_linestatus,
               CAST(sum(CAST(round(l_quantity * 100, 0) AS BIGINT)) AS BIGINT) AS sum_qty_cents,
               CAST(sum(CAST(round(l_extendedprice * 100, 0) AS BIGINT)) AS BIGINT) AS sum_base_cents,
               CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100, 0) AS BIGINT)) AS BIGINT) AS sum_disc_cents,
               count(*) AS count_order
        FROM lineitem
        WHERE l_shipdate <= TIMESTAMP '1998-09-02'
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus
    """,
    "orders_topk": """
        SELECT o_orderkey, o_custkey,
               CAST(round(o_totalprice * 100, 0) AS BIGINT) AS total_cents
        FROM orders
        ORDER BY total_cents DESC, o_orderkey
        LIMIT 10
    """,
    "revenue_by_segment": """
        SELECT c.c_mktsegment,
               CAST(sum(CAST(round(o.o_totalprice * 100, 0) AS BIGINT)) AS BIGINT) AS revenue_cents,
               count(*) AS n_orders
        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        GROUP BY c.c_mktsegment
        ORDER BY c.c_mktsegment
    """,
    "customers_per_region": """
        SELECT r.r_name,
               count(*) AS n_customers,
               CAST(sum(CAST(round(c.c_acctbal * 100, 0) AS BIGINT)) AS BIGINT) AS acctbal_cents
        FROM customer c
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        JOIN region r ON n.n_regionkey = r.r_regionkey
        GROUP BY r.r_name
        ORDER BY r.r_name
    """,
    "top_orders_per_customer": """
        WITH ranked AS (
            SELECT o_custkey, o_orderkey,
                   CAST(round(o_totalprice * 100, 0) AS BIGINT) AS total_cents,
                   row_number() OVER (
                       PARTITION BY o_custkey
                       ORDER BY round(o_totalprice * 100, 0) DESC, o_orderkey
                   ) AS rank
            FROM orders WHERE o_custkey < 100
        )
        SELECT o_custkey, o_orderkey, total_cents, CAST(rank AS BIGINT) AS rank
        FROM ranked WHERE rank <= 2
        ORDER BY o_custkey, rank
    """,
    "order_priority_revenue": """
        SELECT o.o_orderpriority,
               CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100, 0)
                    AS BIGINT)) AS BIGINT) AS revenue_cents
        FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
        WHERE l.l_shipdate > TIMESTAMP '1995-03-15'
          AND o.o_orderdate < TIMESTAMP '1995-03-15'
        GROUP BY o.o_orderpriority
        ORDER BY o.o_orderpriority
    """,
    "revenue_by_nation": """
        SELECT n.n_name,
               CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100, 0)
                    AS BIGINT)) AS BIGINT) AS revenue_cents
        FROM lineitem l
        JOIN orders o ON l.l_orderkey = o.o_orderkey
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        JOIN region r ON n.n_regionkey = r.r_regionkey
        WHERE r.r_name = 'ASIA'
        GROUP BY n.n_name
        ORDER BY n.n_name
    """,
    "distinct_segments": """
        SELECT DISTINCT c_mktsegment FROM customer ORDER BY c_mktsegment
    """,
    "events_hourly": """
        SELECT event_type,
               CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour,
               count(*) AS n_events,
               CAST(sum(CAST(round(value * 100, 0) AS BIGINT)) AS BIGINT) AS value_cents
        FROM events
        GROUP BY event_type, hour
        ORDER BY event_type, hour
    """,
    "streaming_counts": """
        SELECT event_type, count(*) AS n_events,
               CAST(sum(CAST(round(value * 100, 0) AS BIGINT)) AS BIGINT) AS value_cents
        FROM events GROUP BY event_type ORDER BY event_type
    """,
    "user_sessions": """
        WITH ordered AS (
            SELECT user_id, ts,
                   CASE WHEN epoch(ts) - epoch(lag(ts) OVER (PARTITION BY user_id ORDER BY ts)) > 1800
                        THEN 1 ELSE 0 END AS new_session
            FROM events
        )
        SELECT user_id, count(*) AS n_events,
               CAST(sum(new_session) + 1 AS BIGINT) AS n_sessions
        FROM ordered
        GROUP BY user_id
        ORDER BY user_id
    """,
    "events_sliding": """
        WITH hourly AS (
            SELECT event_type,
                   CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour,
                   count(*) AS n,
                   CAST(sum(CAST(round(value * 100, 0) AS BIGINT)) AS BIGINT) AS cents
            FROM events GROUP BY event_type, hour
        )
        SELECT event_type, hour,
               CAST(sum(n) OVER w AS BIGINT) AS window_events,
               CAST(sum(cents) OVER w AS BIGINT) AS window_value_cents
        FROM hourly
        WINDOW w AS (
            PARTITION BY event_type ORDER BY hour
            RANGE BETWEEN 2 PRECEDING AND CURRENT ROW
        )
        ORDER BY event_type, hour
    """,
    "range_join": """
        WITH bands(lo, hi, band) AS (
            VALUES (0.0, 5.0, 'xs'), (5.0, 25.0, 's'),
                   (25.0, 100.0, 'm'), (100.0, 250.0, 'l')
        )
        SELECT e.event_id, e.value, b.band
        FROM events e JOIN bands b
          ON e.value >= b.lo AND e.value < b.hi
        ORDER BY e.event_id
    """,
    "asof_join": """
        WITH r AS (
            SELECT o_custkey AS user_id, o_orderdate,
                   max(o_orderkey) AS o_orderkey
            FROM orders GROUP BY o_custkey, o_orderdate
        )
        SELECT e.event_id, e.user_id,
               CAST(coalesce(r.o_orderkey, -1) AS BIGINT) AS o_orderkey
        FROM events e
        ASOF LEFT JOIN r
            ON e.user_id = r.user_id AND e.ts >= r.o_orderdate
        ORDER BY e.event_id
    """,
    "semi_join": """
        SELECT event_type, count(*) AS n_events
        FROM events
        WHERE user_id IN (SELECT c_custkey FROM customer WHERE c_acctbal > 5000)
        GROUP BY event_type ORDER BY event_type
    """,
    "link_graph": """
        WITH base AS (SELECT doc_id AS i FROM documents),
        rel AS (
            SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
                   'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS dst
            FROM base),
        ext AS (
            SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
                   'site' || CAST((i * 7 + j) % 20 AS VARCHAR)
                       || '.example.com' AS dst
            FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)),
        edges AS (SELECT * FROM rel UNION ALL SELECT * FROM ext)
        SELECT src AS src_host, dst AS dst_host, count(*) AS n_links
        FROM edges GROUP BY 1, 2 ORDER BY 1, 2
    """,
    "pagerank": """
        WITH base AS (SELECT doc_id AS i FROM documents),
        rel AS (
            SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
                   'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS dst
            FROM base),
        ext AS (
            SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
                   'site' || CAST((i * 7 + j) % 20 AS VARCHAR)
                       || '.example.com' AS dst
            FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)),
        edges_all AS (SELECT * FROM rel UNION ALL SELECT * FROM ext),
        edges AS (SELECT src, dst, count(*) AS w FROM edges_all GROUP BY 1, 2),
        nodes AS (SELECT src AS host FROM edges
                  UNION SELECT dst FROM edges),
        par AS (SELECT count(*) AS n FROM nodes),
        outdeg AS (SELECT src AS host, sum(w) AS od FROM edges GROUP BY 1),
        r0 AS (SELECT host,
                      CAST(1000000000000 AS HUGEINT) // (SELECT n FROM par) AS r
               FROM nodes),
        it1 AS (
            SELECT n.host,
                CAST(15 * 1000000000000 AS HUGEINT)
                    // (100 * (SELECT n FROM par))
                + coalesce(
                    (SELECT sum((85 * p.r * e.w) // (100 * o.od))
                       FROM edges e
                       JOIN r0 p ON e.src = p.host
                       JOIN outdeg o ON o.host = e.src
                      WHERE e.dst = n.host), 0) AS r
            FROM nodes n),
        it2 AS (
            SELECT n.host,
                CAST(15 * 1000000000000 AS HUGEINT)
                    // (100 * (SELECT n FROM par))
                + coalesce(
                    (SELECT sum((85 * p.r * e.w) // (100 * o.od))
                       FROM edges e
                       JOIN it1 p ON e.src = p.host
                       JOIN outdeg o ON o.host = e.src
                      WHERE e.dst = n.host), 0) AS r
            FROM nodes n)
        SELECT host, CAST(r AS BIGINT) AS rank FROM it2 ORDER BY host
    """,
    "hits": """
        WITH base AS (SELECT doc_id AS i FROM documents),
        rel AS (
            SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
                   'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS dst
            FROM base),
        ext AS (
            SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
                   'site' || CAST((i * 7 + j) % 20 AS VARCHAR)
                       || '.example.com' AS dst
            FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)),
        edges_all AS (SELECT * FROM rel UNION ALL SELECT * FROM ext),
        edges AS (SELECT src, dst, count(*) AS w FROM edges_all GROUP BY 1, 2),
        nodes AS (SELECT src AS host FROM edges
                  UNION SELECT dst FROM edges),
        a1 AS (
            SELECT n.host,
                   coalesce((SELECT sum(e.w) FROM edges e
                             WHERE e.dst = n.host), 0) AS s
            FROM nodes n),
        h1 AS (
            SELECT n.host,
                   coalesce((SELECT sum(e.w * a.s) FROM edges e
                             JOIN a1 a ON a.host = e.dst
                             WHERE e.src = n.host), 0) AS s
            FROM nodes n),
        a2 AS (
            SELECT n.host,
                   coalesce((SELECT sum(e.w * h.s) FROM edges e
                             JOIN h1 h ON h.host = e.src
                             WHERE e.dst = n.host), 0) AS s
            FROM nodes n),
        h2 AS (
            SELECT n.host,
                   coalesce((SELECT sum(e.w * a.s) FROM edges e
                             JOIN a2 a ON a.host = e.dst
                             WHERE e.src = n.host), 0) AS s
            FROM nodes n)
        SELECT a2.host, CAST(a2.s AS BIGINT) AS authority,
               CAST(h2.s AS BIGINT) AS hub
        FROM a2 JOIN h2 ON a2.host = h2.host
        ORDER BY a2.host
    """,
    "communities": """
        WITH base AS (SELECT doc_id AS i FROM documents),
        rel AS (
            SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
                   'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS dst
            FROM base),
        ext AS (
            SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
                   'site' || CAST((i * 7 + j) % 20 AS VARCHAR)
                       || '.example.com' AS dst
            FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)),
        edges_all AS (SELECT * FROM rel UNION ALL SELECT * FROM ext),
        edges AS (SELECT src, dst, count(*) AS w FROM edges_all GROUP BY 1, 2),
        nodes AS (SELECT src AS host FROM edges
                  UNION SELECT dst FROM edges),
        adj AS (SELECT src AS u, dst AS v, w FROM edges WHERE src <> dst
                UNION ALL
                SELECT dst AS u, src AS v, w FROM edges WHERE src <> dst),
        l0 AS (SELECT host AS node, host AS lab FROM nodes),
        v1 AS (SELECT a.u AS node, p.lab AS lab, CAST(a.w AS BIGINT) AS s
               FROM adj a JOIN l0 p ON p.node = a.v
               UNION ALL SELECT node, lab, 0 FROM l0),
        s1 AS (SELECT node, lab, sum(s) AS s FROM v1 GROUP BY 1, 2),
        l1 AS (SELECT node, lab FROM s1
               QUALIFY row_number()
                   OVER (PARTITION BY node ORDER BY s DESC, lab) = 1),
        v2 AS (SELECT a.u AS node, p.lab AS lab, CAST(a.w AS BIGINT) AS s
               FROM adj a JOIN l1 p ON p.node = a.v
               UNION ALL SELECT node, lab, 0 FROM l1),
        s2 AS (SELECT node, lab, sum(s) AS s FROM v2 GROUP BY 1, 2),
        l2 AS (SELECT node, lab FROM s2
               QUALIFY row_number()
                   OVER (PARTITION BY node ORDER BY s DESC, lab) = 1)
        SELECT node AS host, lab AS community FROM l2 ORDER BY host
    """,
    "structural_dedup": """
        WITH RECURSIVE d AS (
            SELECT doc_id, doc_id % 3 = 0 AS nav, doc_id % 4 + 1 AS k
            FROM documents),
        base AS (
            SELECT doc_id,
                   ['*', '*']
                       || CASE WHEN nav THEN ['nav'] ELSE [] END
                       || list_transform(range(k), x -> 'p')
                       || ['*', '*'] AS pad,
                   nav
            FROM d),
        grams AS (
            SELECT doc_id,
                   list_distinct(
                       ['*/#root|*/*/html', '*/#root|*/html/*',
                        '*/#root|html/*/*', '#root/html|*/*/body',
                        '#root/html|*/body/*', '#root/html|body/*/*',
                        'body/p|*/*/*']
                       || CASE WHEN nav THEN
                           ['body/nav|*/*/a', 'body/nav|*/a/*',
                            'body/nav|a/*/*', 'nav/a|*/*/*']
                       ELSE [] END
                       || list_transform(range(1, len(pad) - 1),
                           i -> 'html/body|' || list_extract(pad, i)
                                || '/' || list_extract(pad, i + 1)
                                || '/' || list_extract(pad, i + 2))
                   ) AS s
            FROM base),
        lens AS (SELECT doc_id, len(s) AS l FROM grams),
        ex AS (SELECT doc_id, unnest(s) AS g FROM grams),
        inter AS (
            SELECT a.doc_id AS ia, b.doc_id AS ib, count(*) AS i
            FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
            GROUP BY 1, 2),
        cand AS (
            SELECT ia, ib FROM inter
            JOIN lens la ON la.doc_id = ia
            JOIN lens lb ON lb.doc_id = ib
            WHERE CAST(i AS DOUBLE) / (la.l + lb.l - i) >= 0.6),
        edges AS (SELECT ia, ib FROM cand UNION SELECT ib, ia FROM cand),
        reach(src, dst) AS (
            SELECT doc_id, doc_id FROM d
            UNION
            SELECT r.src, e.ib FROM reach r JOIN edges e ON r.dst = e.ia),
        lab AS (SELECT src AS doc_id, min(dst) AS cluster_id
                FROM reach GROUP BY src)
        SELECT doc_id, cluster_id, doc_id <> cluster_id AS is_duplicate
        FROM lab ORDER BY doc_id
    """,
    "front_code": """
        WITH u AS (
            SELECT DISTINCT 'http://site' || CAST(doc_id % 20 AS VARCHAR)
                   || '.example.com/p/' || CAST(doc_id AS VARCHAR) AS url
            FROM documents),
        s AS (SELECT url, row_number() OVER (ORDER BY url) - 1 AS rn
              FROM u),
        p AS (
            SELECT c.url AS cu, c.rn, pr.url AS pu
            FROM s c LEFT JOIN s pr ON pr.rn = c.rn - 1),
        l AS (
            SELECT rn, cu,
                   CASE WHEN rn % 16 = 0 OR pu IS NULL THEN 0
                        ELSE coalesce(list_max(list_transform(
                            range(1, least(length(cu), length(pu)) + 1),
                            i -> CASE WHEN substring(cu, 1, i)
                                          = substring(pu, 1, i)
                                 THEN i ELSE 0 END)), 0)
                   END AS lcp
            FROM p),
        e AS (
            SELECT length(cu) AS len, lcp,
                   CASE WHEN rn % 16 = 0 THEN
                       (CASE WHEN length(cu) < 128 THEN 1
                             WHEN length(cu) < 16384 THEN 2 ELSE 3 END)
                       + length(cu)
                   ELSE
                       (CASE WHEN lcp < 128 THEN 1
                             WHEN lcp < 16384 THEN 2 ELSE 3 END)
                       + (CASE WHEN length(cu) - lcp < 128 THEN 1
                               WHEN length(cu) - lcp < 16384 THEN 2
                               ELSE 3 END)
                       + length(cu) - lcp
                   END AS enc
            FROM l)
        SELECT count(*) AS n_urls,
               CAST(sum(len) AS BIGINT) AS raw_bytes,
               CAST(sum(enc) AS BIGINT) AS enc_bytes,
               CAST(sum(lcp) AS BIGINT) AS prefix_sum
        FROM e
    """,
    "domain_gini": """
        WITH tot AS (
            SELECT doc_id % 50 AS host_bucket, sum(n_chars) AS x
            FROM documents GROUP BY 1),
        r AS (SELECT x, row_number() OVER (ORDER BY x, host_bucket) AS i
              FROM tot),
        agg AS (SELECT count(*) AS n, sum(x) AS s, sum(i * x) AS swx FROM r)
        SELECT n AS n_keys, CAST(s AS BIGINT) AS total,
               CAST(2 * swx - (n + 1) * s AS DOUBLE)
                   / CAST(n * s AS DOUBLE) AS gini
        FROM agg
    """,
    "bitext_pairs": """
        WITH e AS (
            SELECT vec_id,
                   list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
            FROM embeddings),
        a AS (SELECT vec_id, v FROM e WHERE vec_id % 2 = 0),
        b AS (SELECT vec_id, v FROM e WHERE vec_id % 2 = 1),
        s AS (
            SELECT a.vec_id AS ai, b.vec_id AS bi,
                   round(list_cosine_similarity(a.v, b.v), 6) AS sc
            FROM a CROSS JOIN b),
        ab AS (SELECT ai, bi FROM s
               QUALIFY row_number()
                   OVER (PARTITION BY ai ORDER BY sc DESC, bi) = 1),
        ba AS (SELECT ai, bi FROM s
               QUALIFY row_number()
                   OVER (PARTITION BY bi ORDER BY sc DESC, ai) = 1)
        SELECT ab.ai AS src_id, ab.bi AS dst_id
        FROM ab JOIN ba ON ab.ai = ba.ai AND ab.bi = ba.bi
        ORDER BY src_id
    """,
    "retention": """
        WITH act AS (
            SELECT DISTINCT user_id, epoch_us(ts) // 604800000000 AS period
            FROM events
        ),
        coh AS (SELECT user_id, min(period) AS cohort FROM act GROUP BY 1)
        SELECT c.cohort, a.period - c.cohort AS "offset",
               count(*) AS n_users
        FROM act a JOIN coh c ON a.user_id = c.user_id
        GROUP BY 1, 2 ORDER BY 1, 2
    """,
    "distinct_users": """
        SELECT event_type, count(DISTINCT user_id) AS n_distinct
        FROM events GROUP BY event_type ORDER BY event_type
    """,
    "funnel": """
        WITH u AS (SELECT DISTINCT user_id FROM events),
        s1 AS (SELECT user_id, min(ts) AS t1 FROM events
               WHERE event_type = 'view' GROUP BY 1),
        s2 AS (SELECT e.user_id, min(e.ts) AS t2 FROM events e
               JOIN s1 ON e.user_id = s1.user_id
               WHERE e.event_type = 'click' AND e.ts > s1.t1 GROUP BY 1),
        s3 AS (SELECT e.user_id, min(e.ts) AS t3 FROM events e
               JOIN s2 ON e.user_id = s2.user_id
               WHERE e.event_type = 'purchase' AND e.ts > s2.t2 GROUP BY 1)
        SELECT u.user_id,
               CAST(CASE WHEN s3.user_id IS NOT NULL THEN 3
                         WHEN s2.user_id IS NOT NULL THEN 2
                         WHEN s1.user_id IS NOT NULL THEN 1
                         ELSE 0 END AS INTEGER) AS stage
        FROM u LEFT JOIN s1 ON u.user_id = s1.user_id
               LEFT JOIN s2 ON u.user_id = s2.user_id
               LEFT JOIN s3 ON u.user_id = s3.user_id
        ORDER BY u.user_id
    """,
    "anti_join": """
        SELECT event_type, count(*) AS n_events
        FROM events e
        WHERE NOT EXISTS (
            SELECT 1 FROM customer c
            WHERE c.c_custkey = e.user_id AND c.c_acctbal > 5000
        )
        GROUP BY event_type ORDER BY event_type
    """,
    "lineitem_filter": """
        SELECT l_returnflag, count(*) AS n,
               CAST(sum(CAST(round(l_quantity * 100, 0) AS BIGINT)) AS BIGINT) AS qty_cents
        FROM lineitem
        WHERE l_shipdate >= TIMESTAMP '1995-01-01' AND l_quantity > 25
        GROUP BY l_returnflag
        ORDER BY l_returnflag
    """,
    "extract_html": """
        SELECT doc_id, text AS extracted_text FROM documents ORDER BY doc_id
    """,
    "extract_mixed": """
        SELECT doc_id, text AS extracted_text FROM documents ORDER BY doc_id
    """,
    "extract_real_pdf": """
        SELECT doc_id, text AS extracted_text FROM documents ORDER BY doc_id
    """,
    "sections_pdf": r"""
        WITH w AS (
            SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents
        ),
        halves AS (
            SELECT doc_id, 0 AS section_idx, 'Part 1' AS title,
                   array_to_string(list_slice(ws, 1, (len(ws) + 1) // 2), ' ') AS content
            FROM w
            UNION ALL
            SELECT doc_id, 1, 'Part 2',
                   array_to_string(list_slice(ws, (len(ws) + 1) // 2 + 1, len(ws)), ' ')
            FROM w
        )
        SELECT printf('doc://%08d', doc_id) AS url, section_idx, title, content
        FROM halves ORDER BY url, section_idx
    """,
    "extract_with_repair": """
        SELECT doc_id, text AS extracted_text FROM documents ORDER BY doc_id
    """,
    "extract_pdf_with_repair": """
        SELECT doc_id, text AS extracted_text FROM documents ORDER BY doc_id
    """,
    "extract_toy_pdf": """
        SELECT doc_id, text AS extracted_text FROM documents ORDER BY doc_id
    """,
    "sections": """
        SELECT printf('doc://%08d', doc_id) AS url,
               0 AS section_idx,
               '' AS title,
               text AS content
        FROM documents ORDER BY url
    """,
    "classify_transactions": """
        WITH src AS (
            SELECT l_linenumber,
                   round(l_extendedprice / 100, 2) AS amt,
                   row_number() OVER (ORDER BY l_orderkey, l_linenumber) AS rn
            FROM lineitem
            ORDER BY l_orderkey, l_linenumber
            LIMIT 200
        ), bal AS (
            SELECT rn, amt,
                   round(10000 + sum(CASE WHEN l_linenumber % 2 = 0 THEN amt ELSE -amt END)
                                 OVER (ORDER BY rn), 2) AS balance
            FROM src
        ), d AS (
            SELECT rn, amt,
                   balance - lag(balance) OVER (ORDER BY rn) AS diff
            FROM bal
        )
        SELECT rn - 1 AS row_idx,
               CASE WHEN rn = 1 THEN ''
                    WHEN abs(diff - amt) < abs(diff) * 0.01 THEN 'CREDIT'
                    WHEN abs(diff + amt) < abs(diff) * 0.01 THEN 'DEBIT'
                    ELSE 'UNCLEAR' END AS transaction_type
        FROM d ORDER BY row_idx
    """,
    "token_stats": r"""
        SELECT doc_id,
               length(regexp_extract_all(text, '\S+')) AS n_tokens,
               length(regexp_replace(text, '[^a-zA-Z0-9]', '', 'g')) AS n_alnum
        FROM documents ORDER BY doc_id
    """,
    "quality_filter": r"""
        WITH scored AS (
            SELECT lang,
                   length(regexp_extract_all(text, '\S+')) AS n_tokens,
                   CASE WHEN length(text) > 0
                        THEN length(regexp_replace(text, '[^a-zA-Z0-9]', '', 'g')) * 1.0
                             / length(text)
                        ELSE 0.0 END AS alnum_ratio
            FROM documents
        )
        SELECT lang, count(*) AS n_docs,
               CAST(sum(n_tokens) AS BIGINT) AS total_tokens
        FROM scored
        WHERE n_tokens >= 20 AND alnum_ratio >= 0.7
        GROUP BY lang ORDER BY lang
    """,
    "fingerprint_dedup": r"""
        SELECT count(DISTINCT lower(regexp_replace(text, '[^a-zA-Z0-9]', '', 'g'))) AS n_distinct
        FROM documents
    """,
    "scrub_pii": r"""
        SELECT doc_id,
               regexp_replace(
                   regexp_replace(
                       CASE WHEN doc_id % 7 = 0
                            THEN text || ' contact user' || doc_id ||
                                 '@example.com ref 1234567' ||
                                 lpad(CAST(doc_id AS VARCHAR), 4, '0') || ' end'
                            ELSE text END,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                       '<EMAIL>', 'g'),
                   '\b\d{9,}\b', '<ID>', 'g') AS text
        FROM documents ORDER BY doc_id
    """,
    "decontaminate": r"""
        WITH alldocs AS (
            SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS w
            FROM documents
        ),
        bgrams AS (
            SELECT DISTINCT
                unnest(list_transform(range(1, len(w) - 6),
                       i -> array_to_string(list_slice(w, i, i + 7), ' '))) AS g
            FROM alldocs WHERE doc_id % 50 = 0
        ),
        dgrams AS (
            SELECT doc_id,
                unnest(list_transform(range(1, len(w) - 6),
                       i -> array_to_string(list_slice(w, i, i + 7), ' '))) AS g
            FROM alldocs
        ),
        contaminated AS (SELECT DISTINCT d.doc_id FROM dgrams d JOIN bgrams USING (g))
        SELECT doc_id FROM documents
        WHERE doc_id NOT IN (SELECT doc_id FROM contaminated)
        ORDER BY doc_id
    """,
    "exact_dedup": """
        SELECT min(doc_id) AS doc_id, min(n_chars) AS n_chars
        FROM (
            SELECT doc_id, text, n_chars FROM documents
            UNION ALL
            SELECT doc_id + 100000, text, n_chars FROM documents
        )
        GROUP BY text
        ORDER BY doc_id
    """,
    "ann_topk": """
        WITH q AS (
            SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 5
        ), scored AS (
            SELECT q.qid AS query_id, e.vec_id,
                   list_cosine_similarity(q.qe, e.embedding) AS score
            FROM q CROSS JOIN embeddings e
        ), ranked AS (
            SELECT query_id, vec_id,
                   row_number() OVER (PARTITION BY query_id ORDER BY score DESC, vec_id) AS rank
            FROM scored
        )
        SELECT query_id, vec_id, rank FROM ranked WHERE rank <= 10
        ORDER BY query_id, rank
    """,
    "embedding_stats": """
        SELECT label,
               count(*) AS n_vecs,
               CAST(sum(len(embedding)) AS BIGINT) AS total_dims
        FROM embeddings GROUP BY label ORDER BY label
    """,
    "repetition_filter": r"""
        WITH toks AS (
            SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS w
            FROM documents
        ),
        bg AS (
            SELECT doc_id,
                   unnest(list_transform(range(1, len(w)),
                          i -> w[i] || ' ' || w[i + 1])) AS g
            FROM toks
        ),
        counts AS (
            SELECT doc_id, g, count(*) AS c FROM bg GROUP BY doc_id, g
        ),
        agg AS (
            SELECT doc_id, max(c) AS top_bigram_count, CAST(sum(c) AS BIGINT) AS n_bigrams
            FROM counts GROUP BY doc_id
        )
        SELECT d.doc_id,
               CAST(coalesce(a.top_bigram_count, 0) AS BIGINT) AS top_bigram_count,
               CAST(coalesce(a.n_bigrams, 0) AS BIGINT) AS n_bigrams,
               coalesce(a.top_bigram_count * 100 > a.n_bigrams * 18, FALSE) AS repetitive
        FROM documents d LEFT JOIN agg a USING (doc_id)
        ORDER BY d.doc_id
    """,
    "c4_clean": r"""
        WITH split AS (
            SELECT doc_id, text, string_split(text, chr(10)) AS ls
            FROM documents
        ),
        filt AS (
            SELECT doc_id, text,
                   CAST(len(ls) AS BIGINT) AS total_lines,
                   list_filter(ls, l ->
                       regexp_matches(l, '[.!?"]$')
                       AND len(regexp_extract_all(l, '\S+')) >= 5
                       AND NOT contains(lower(l), 'javascript')) AS kl
            FROM split
        )
        SELECT doc_id, total_lines,
               CAST(len(kl) AS BIGINT) AS kept_lines,
               (len(kl) >= 3
                AND NOT contains(lower(text), 'lorem ipsum')
                AND NOT contains(text, '{')) AS kept,
               CASE WHEN len(kl) >= 3
                         AND NOT contains(lower(text), 'lorem ipsum')
                         AND NOT contains(text, '{')
                    THEN array_to_string(kl, chr(10)) ELSE '' END
                   AS cleaned_text
        FROM filt ORDER BY doc_id
    """,
    "gopher_rules": r"""
        WITH w AS (
            SELECT doc_id, text,
                   regexp_extract_all(text, '\S+') AS ws,
                   string_split(text, chr(10)) AS ls
            FROM documents
        ),
        m AS (
            SELECT doc_id,
                CAST(len(ws) AS BIGINT) AS n_words,
                CAST(coalesce(list_sum(list_transform(ws,
                     x -> length(x))), 0) AS BIGINT) AS word_chars,
                CAST(len(regexp_extract_all(text, '#'))
                   + len(regexp_extract_all(text, '\.\.\.'))
                   + len(regexp_extract_all(text, '…')) AS BIGINT)
                    AS n_symbols,
                CAST(len(ls) AS BIGINT) AS n_lines,
                CAST(len(list_filter(ls, l ->
                     regexp_matches(l, '^(•|- |\* )'))) AS BIGINT)
                    AS bullet_lines,
                CAST(len(list_filter(ls, l ->
                     regexp_matches(l, '(\.\.\.|…)$'))) AS BIGINT)
                    AS ellipsis_lines,
                CAST(len(list_filter(ws, x ->
                     regexp_matches(x, '[A-Za-z]'))) AS BIGINT)
                    AS alpha_words,
                CAST(CAST(list_contains(list_transform(ws, x -> lower(x)), 'the') AS INT)
                   + CAST(list_contains(list_transform(ws, x -> lower(x)), 'be') AS INT)
                   + CAST(list_contains(list_transform(ws, x -> lower(x)), 'to') AS INT)
                   + CAST(list_contains(list_transform(ws, x -> lower(x)), 'of') AS INT)
                   + CAST(list_contains(list_transform(ws, x -> lower(x)), 'and') AS INT)
                   + CAST(list_contains(list_transform(ws, x -> lower(x)), 'that') AS INT)
                   + CAST(list_contains(list_transform(ws, x -> lower(x)), 'have') AS INT)
                   + CAST(list_contains(list_transform(ws, x -> lower(x)), 'with') AS INT)
                     AS BIGINT) AS stop_hits
            FROM w
        )
        SELECT *,
               (n_words >= 50 AND n_words <= 100000
                AND 3 * n_words <= word_chars
                AND word_chars <= 10 * n_words
                AND 10 * n_symbols <= n_words
                AND 10 * bullet_lines <= 9 * n_lines
                AND 10 * ellipsis_lines <= 3 * n_lines
                AND 5 * alpha_words >= 4 * n_words
                AND stop_hits >= 2) AS passes
        FROM m ORDER BY doc_id
    """,
    "winnow_fingerprints": r"""
        WITH toks AS (
            SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS ww
            FROM documents
        ),
        grams AS (
            SELECT doc_id, CAST(i AS BIGINT) AS pos,
                   ww[i] || ' ' || ww[i + 1] || ' ' || ww[i + 2] AS g
            FROM (SELECT doc_id, ww, unnest(range(1, len(ww) - 1)) AS i
                  FROM toks)
        ),
        h AS (
            SELECT doc_id, pos,
                CAST(CAST(list_reduce(
                    list_prepend(CAST(14695981039346656037 AS HUGEINT),
                        list_transform(range(1, length(g) + 1),
                            j -> CAST(unicode(substring(g, j, 1)) AS HUGEINT))),
                    (a, b) -> (CAST(xor(CAST(a AS UBIGINT),
                                        CAST(b AS UBIGINT)) AS HUGEINT)
                               * 1099511628211) % 18446744073709551616
                ) AS UBIGINT) AS HUGEINT) AS hv
            FROM grams
        ),
        keys AS (
            SELECT doc_id, pos,
                   hv * 1048576 + (1048575 - pos) AS ck
            FROM h
        ),
        wins AS (
            SELECT doc_id,
                   min(ck) OVER (PARTITION BY doc_id ORDER BY pos
                       ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS wmin,
                   count(*) OVER (PARTITION BY doc_id ORDER BY pos
                       ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS wn
            FROM keys
        ),
        sel AS (
            SELECT DISTINCT doc_id, wmin FROM wins WHERE wn = 4
        ),
        agg AS (
            SELECT doc_id, count(*) AS n_fingerprints,
                   CAST(sum(wmin // 1048576)
                        % 9223372036854775808 AS BIGINT) AS fp_sum
            FROM sel GROUP BY doc_id
        ),
        ng AS (
            SELECT doc_id,
                   CAST(greatest(len(ww) - 2, 0) AS BIGINT) AS n_grams
            FROM toks
        )
        SELECT d.doc_id, ng.n_grams,
               CAST(coalesce(a.n_fingerprints, 0) AS BIGINT)
                   AS n_fingerprints,
               CAST(coalesce(a.fp_sum, 0) AS BIGINT) AS fp_sum
        FROM documents d
        JOIN ng USING (doc_id)
        LEFT JOIN agg a USING (doc_id)
        ORDER BY d.doc_id
    """,
    "pack_sequences": """
        WITH toks AS (
            SELECT doc_id, doc_id // 100 AS shard,
                   regexp_extract_all(lower(text), '\\S+') AS w
            FROM documents
        ),
        idx AS (
            SELECT doc_id, shard, unnest(range(1, len(w) + 2)) AS ti FROM toks
        ),
        tk AS (
            SELECT i.doc_id, i.shard, i.ti,
                   CASE WHEN i.ti = len(t.w) + 1 THEN 1
                        ELSE CAST(
                            CAST(list_reduce(
                                list_prepend(CAST(14695981039346656037 AS HUGEINT),
                                    list_transform(range(1, length(t.w[i.ti]) + 1),
                                        j -> CAST(unicode(substring(t.w[i.ti], j, 1)) AS HUGEINT))),
                                (a, b) -> (CAST(xor(CAST(a AS UBIGINT), CAST(b AS UBIGINT)) AS HUGEINT)
                                           * 1099511628211) % 18446744073709551616) AS UBIGINT)
                            % 32766 + 2 AS INTEGER) END AS token_id
            FROM idx i JOIN toks t USING (doc_id)
        ),
        seq AS (
            SELECT shard, token_id,
                   row_number() OVER (PARTITION BY shard ORDER BY doc_id, ti) - 1 AS gpos
            FROM tk
        )
        SELECT shard, gpos // 128 AS seq_idx, gpos % 128 AS pos, token_id
        FROM seq ORDER BY shard, seq_idx, pos
    """,
    "media_features": """
        WITH px AS (
            SELECT d.doc_id AS media_id, (d.doc_id * 31 + i.i) % 256 AS v
            FROM documents d
            CROSS JOIN (SELECT unnest(range(0, 256)) AS i) i
            WHERE d.doc_id % 5 <> 1
            UNION ALL
            SELECT d.doc_id, (d.doc_id * 31 + (i.i // 64) * 17) % 256
            FROM documents d
            CROSS JOIN (SELECT unnest(range(0, 256)) AS i) i
            WHERE d.doc_id % 5 = 1
        ),
        hist AS (
            SELECT media_id, CAST(v // 16 AS INTEGER) AS bin, count(*) AS c
            FROM px GROUP BY 1, 2
        ),
        bins AS (SELECT unnest(range(0, 16)) AS bin),
        grid AS (
            SELECT d.doc_id AS media_id, CAST(b.bin AS INTEGER) AS bin
            FROM documents d CROSS JOIN bins b
        )
        SELECT g.media_id, g.bin,
               coalesce(h.c, 0) / 256.0 AS weight
        FROM grid g LEFT JOIN hist h ON g.media_id = h.media_id AND g.bin = h.bin
        ORDER BY g.media_id, g.bin
    """,
    "audio_features": """
        WITH s AS (
            SELECT d.doc_id AS media_id,
                   CAST(t.t // 128 AS INTEGER) AS win,
                   abs((d.doc_id * 37 + t.t * 13) % 2048 - 1024) AS a
            FROM documents d
            CROSS JOIN (SELECT unnest(range(0, 1024)) AS t) t
        )
        SELECT media_id, win, CAST(sum(a) AS BIGINT) AS energy
        FROM s GROUP BY 1, 2 ORDER BY media_id, win
    """,
    "mp3_features": """
WITH f AS (
    SELECT d.doc_id, j.j,
           1 + ((d.doc_id + CASE WHEN d.doc_id % 5 = 3 THEN 0 ELSE j.j END)
                % 14) AS bidx,
           (d.doc_id + j.j) % 2 AS pad
    FROM documents d
    CROSS JOIN (SELECT unnest(range(0, 7)) AS j) j
    WHERE j.j < 3 + d.doc_id % 4
), br AS (
    SELECT * FROM (VALUES (1,32),(2,40),(3,48),(4,56),(5,64),(6,80),(7,96),
        (8,112),(9,128),(10,160),(11,192),(12,224),(13,256),(14,320))
        t(bidx, kbps)
), fr AS (
    SELECT f.doc_id, br.kbps, f.pad,
           (144000 * br.kbps) // 44100 + f.pad AS flen,
           CASE WHEN f.doc_id % 2 = 0 THEN 2 ELSE 0 END AS crc2
    FROM f JOIN br USING (bidx)
)
SELECT doc_id AS media_id,
       CAST(count(*) AS BIGINT) AS n_frames,
       CAST(sum(flen) AS BIGINT) AS frame_bytes,
       CAST(sum(flen - 4 - crc2 - 17) AS BIGINT) AS anc_bytes,
       CAST(CASE WHEN doc_id % 5 = 4 AND doc_id % 3 <> 0
                 THEN doc_id % 7 ELSE 0 END AS BIGINT) AS junk_bytes,
       CAST(count(*) * 1152 * 1000 // 44100 AS BIGINT) AS duration_ms,
       CAST(min(kbps) AS BIGINT) AS kbps_min,
       CAST(max(kbps) AS BIGINT) AS kbps_max,
       CAST(sum(pad) AS BIGINT) AS n_padded,
       CAST(CASE WHEN doc_id % 2 = 0
                 THEN count(*) + CASE WHEN doc_id % 5 = 2 THEN 1 ELSE 0 END
                 ELSE 0 END AS BIGINT) AS n_crc,
       CAST(1 AS BIGINT) AS crc_ok,
       CAST(CASE WHEN doc_id % 3 = 0 THEN 33 + doc_id % 50
                 ELSE 0 END AS BIGINT) AS id3v2_bytes,
       CAST(CASE WHEN doc_id % 4 = 1 THEN 1 ELSE 0 END AS BIGINT)
           AS has_id3v1,
       CAST(CASE WHEN doc_id % 5 = 2 THEN 1 ELSE 0 END AS BIGINT)
           AS has_xing,
       CAST(CASE WHEN doc_id % 5 = 3 THEN 0 ELSE 1 END AS BIGINT) AS is_vbr
FROM fr GROUP BY doc_id ORDER BY media_id
""",
    "vp8_census": """
SELECT doc_id AS media_id,
       CAST(16 + doc_id % 320 AS BIGINT) AS width,
       CAST(16 + (doc_id * 7) % 240 AS BIGINT) AS height,
       CAST(doc_id % 4 AS BIGINT) AS xscale,
       CAST((doc_id // 4) % 4 AS BIGINT) AS yscale,
       CAST(doc_id % 4 AS BIGINT) AS version,
       CAST(50 + doc_id % 1000 AS BIGINT) AS partition0_bytes,
       CAST(10 + doc_id % 64 AS BIGINT) AS chunk_bytes
FROM documents ORDER BY media_id
""",
    "g711_features": """
WITH raw AS (
    SELECT d.doc_id AS media_id,
           CAST(t.t // 128 AS INTEGER) AS win,
           (d.doc_id * 13 + t.t * 7) % 256 AS b,
           d.doc_id % 2 AS law
    FROM documents d
    CROSS JOIN (SELECT unnest(range(0, 1024)) AS t) t
),
dec AS (
    SELECT media_id, win,
        CASE WHEN law = 0 THEN
            -- mu-law: u = ~b; mag = ((mant*8+132) << exp) - 132
            (CASE WHEN ((255 - b) & 128) <> 0 THEN -1 ELSE 1 END)
            * ((((255 - b) & 15) * 8 + 132) * (1 << (((255 - b) >> 4) & 7)) - 132)
        ELSE
            -- A-law: a = b ^ 85; bit 7 set means positive
            (CASE WHEN (xor(b, 85) & 128) <> 0 THEN 1 ELSE -1 END)
            * (CASE WHEN ((xor(b, 85) >> 4) & 7) = 0
                    THEN (xor(b, 85) & 15) * 16 + 8
                    ELSE ((xor(b, 85) & 15) * 16 + 264)
                         * (1 << (((xor(b, 85) >> 4) & 7) - 1)) END)
        END AS sample
    FROM raw
)
SELECT media_id, win, CAST(sum(abs(sample)) AS BIGINT) AS energy
FROM dec GROUP BY 1, 2 ORDER BY media_id, win
""",
    "video_features": """
        WITH px AS (
            SELECT d.doc_id AS media_id,
                   CAST(f.f AS INTEGER) AS frame_no,
                   (d.doc_id * 31 + f.f * 7 + i.i) % 256 AS v
            FROM documents d
            CROSS JOIN (SELECT unnest([0, 2, 4]) AS f) f
            CROSS JOIN (SELECT unnest(range(0, 256)) AS i) i
        )
        SELECT media_id, frame_no, CAST(sum(v) AS BIGINT) AS luma_sum
        FROM px GROUP BY 1, 2 ORDER BY media_id, frame_no
    """,
    "revenue_rollup": """
        SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
               coalesce(l_linestatus, 'ALL') AS l_linestatus,
               CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100, 0) AS BIGINT)) AS BIGINT) AS revenue_cents
        FROM lineitem
        WHERE l_shipdate <= TIMESTAMP '1998-09-02'
        GROUP BY ROLLUP(l_returnflag, l_linestatus)
        ORDER BY 1, 2
    """,
    "tfidf_terms": r"""
WITH toks AS (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '\S+')) AS term
    FROM documents
),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2),
dfv AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY 1),
n AS (SELECT count(*) AS n_docs FROM documents),
scored AS (
    SELECT tf.doc_id, tf.term,
           CAST(tf.tf * n.n_docs // dfv.df AS BIGINT) AS score,
           row_number() OVER (
               PARTITION BY tf.doc_id
               ORDER BY tf.tf * n.n_docs // dfv.df DESC, tf.term
           ) AS r
    FROM tf JOIN dfv USING (term) CROSS JOIN n
)
SELECT doc_id, term, score, CAST(r AS INTEGER) AS rank
FROM scored WHERE r <= 3 ORDER BY doc_id, rank
""",
    "lm_quality": r"""
WITH lists AS (
    SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS l FROM documents
),
toks AS (
    SELECT doc_id, unnest(l) AS term,
           unnest(range(1, len(l) + 1)) AS idx
    FROM lists
),
big AS (
    SELECT doc_id, term AS w1,
           lead(term) OVER (PARTITION BY doc_id ORDER BY idx) AS w2
    FROM toks
),
bg AS (SELECT doc_id, w1, w2 FROM big WHERE w2 IS NOT NULL),
bc AS (SELECT w1, w2, count(*) AS c FROM bg GROUP BY 1, 2),
uc AS (SELECT w1, CAST(sum(c) AS BIGINT) AS u FROM bc GROUP BY 1),
scored AS (
    SELECT g.doc_id, count(*) AS nb,
           CAST(sum(bc.c * 1000000 // uc.u) AS BIGINT) AS s
    FROM bg g JOIN bc USING (w1, w2) JOIN uc USING (w1)
    GROUP BY 1
)
SELECT d.doc_id,
       CAST(coalesce(scored.nb, 0) AS BIGINT) AS n_bigrams,
       CAST(coalesce(scored.s, 0) AS BIGINT) AS lm_score
FROM documents d LEFT JOIN scored USING (doc_id)
ORDER BY d.doc_id
""",
    "length_bins": """
WITH o AS (
    SELECT n_chars AS x,
           row_number() OVER (ORDER BY n_chars) AS rn,
           count(*) OVER () AS n
    FROM documents
),
t AS (
    SELECT
        min(CASE WHEN rn >= greatest(1, ceil(CAST(0.25 AS DOUBLE) * n)) THEN x END) AS t1,
        min(CASE WHEN rn >= greatest(1, ceil(CAST(0.5 AS DOUBLE) * n))  THEN x END) AS t2,
        min(CASE WHEN rn >= greatest(1, ceil(CAST(0.75 AS DOUBLE) * n)) THEN x END) AS t3
    FROM o
),
b AS (
    SELECT CAST((CASE WHEN t.t1 < d.n_chars THEN 1 ELSE 0 END
               + CASE WHEN t.t2 < d.n_chars THEN 1 ELSE 0 END
               + CASE WHEN t.t3 < d.n_chars THEN 1 ELSE 0 END) AS INTEGER) AS bin
    FROM documents d CROSS JOIN t
)
SELECT bin, count(*) AS docs FROM b GROUP BY bin ORDER BY bin
""",
    "rasterize_pages": """
WITH idxs AS (
    SELECT doc_id, text,
           unnest(range(1, least(length(text), 200) + 1)) AS idx
    FROM documents
    WHERE length(text) > 0
),
chars AS (
    SELECT doc_id, CAST(idx AS BIGINT) AS idx,
           unicode(substr(text, CAST(idx AS INT), 1)) AS cp
    FROM idxs
),
inked AS (
    SELECT doc_id, idx,
           CASE WHEN cp IN (32, 9, 10, 13) THEN 0 ELSE cp % 32 + 8 END AS ink
    FROM chars
)
SELECT doc_id,
       COUNT(*) AS n_rendered,
       CAST(SUM(ink) AS BIGINT) AS ink_pixels,
       COUNT(DISTINCT CASE WHEN ink > 0 THEN (idx - 1) // 32 END) AS rows_occupied
FROM inked
GROUP BY doc_id
ORDER BY doc_id
""",
    "media_resize": """
WITH g AS (
    SELECT d.doc_id, y.y, x.x FROM documents d
    CROSS JOIN (SELECT unnest(range(0, 8)) AS y) y
    CROSS JOIN (SELECT unnest(range(0, 8)) AS x) x
)
SELECT doc_id AS media_id, 'box2' AS mode,
       CAST(y AS INTEGER) AS y, CAST(x AS INTEGER) AS x,
       CAST((  (doc_id*7 + (2*y)*13   + (2*x)*5)   % 256
             + (doc_id*7 + (2*y)*13   + (2*x+1)*5) % 256
             + (doc_id*7 + (2*y+1)*13 + (2*x)*5)   % 256
             + (doc_id*7 + (2*y+1)*13 + (2*x+1)*5) % 256) // 4 AS INTEGER) AS v
FROM g
UNION ALL
SELECT doc_id, 'nearest8', CAST(y AS INTEGER), CAST(x AS INTEGER),
       CAST((doc_id*7 + (2*y)*13 + (2*x)*5) % 256 AS INTEGER)
FROM g
ORDER BY 1, 2, 3, 4
""",
    "adpcm_features": """
WITH RECURSIVE
steps AS (
    SELECT unnest(range(0, 89)) AS i,
           unnest([7,8,9,10,11,12,13,14,16,17,19,21,23,25,28,31,34,37,41,45,
                   50,55,60,66,73,80,88,97,107,118,130,143,157,173,190,209,
                   230,253,279,307,337,371,408,449,494,544,598,658,724,796,
                   876,963,1060,1166,1282,1411,1552,1707,1878,2066,2272,2499,
                   2749,3024,3327,3660,4026,4428,4871,5358,5894,6484,7132,
                   7845,8630,9493,10442,11487,12635,13899,15289,16818,18500,
                   20350,22385,24623,27086,29794,32767]) AS s
),
blocks AS (
    SELECT d.doc_id, b.b AS blk,
           CAST((d.doc_id * 11 + b.b * 29) % 1024 - 512 AS BIGINT) AS pred0,
           CAST((d.doc_id + b.b * 5) % 89 AS BIGINT) AS idx0
    FROM documents d CROSS JOIN (SELECT unnest(range(0, 8)) AS b) b
),
st AS (
    SELECT doc_id, blk, CAST(-1 AS BIGINT) AS t, pred0 AS pred, idx0 AS idx
    FROM blocks
    UNION ALL
    SELECT st.doc_id, st.blk, st.t + 1,
        greatest(-32768, least(32767,
            st.pred
            + CASE WHEN ((st.doc_id*7 + st.blk*13 + (st.t+1)*3) % 16 & 8) <> 0
                   THEN -1 ELSE 1 END
            * ( (steps.s >> 3)
              + CASE WHEN ((st.doc_id*7 + st.blk*13 + (st.t+1)*3) % 16 & 1) <> 0
                     THEN steps.s >> 2 ELSE 0 END
              + CASE WHEN ((st.doc_id*7 + st.blk*13 + (st.t+1)*3) % 16 & 2) <> 0
                     THEN steps.s >> 1 ELSE 0 END
              + CASE WHEN ((st.doc_id*7 + st.blk*13 + (st.t+1)*3) % 16 & 4) <> 0
                     THEN steps.s ELSE 0 END ))),
        greatest(0, least(88, st.idx + list_extract(
            [-1,-1,-1,-1,2,4,6,8,-1,-1,-1,-1,2,4,6,8],
            CAST((st.doc_id*7 + st.blk*13 + (st.t+1)*3) % 16 AS INTEGER) + 1)))
    FROM st JOIN steps ON steps.i = st.idx
    WHERE st.t < 127
)
SELECT doc_id AS media_id, CAST(blk AS INTEGER) AS win,
       CAST(sum(abs(pred)) AS BIGINT) AS energy
FROM st GROUP BY 1, 2 ORDER BY media_id, win
""",
    "mjpeg_video": """
WITH s AS (
    SELECT d.doc_id AS media_id, CAST(f.f AS INTEGER) AS frame_no,
           64 * ( (d.doc_id*31 + f.f*7) % 256
                + (d.doc_id*31 + f.f*7 + 11) % 256
                + (d.doc_id*31 + f.f*7 + 22) % 256
                + (d.doc_id*31 + f.f*7 + 33) % 256 ) AS luma_sum
    FROM documents d CROSS JOIN (SELECT unnest([0, 1, 2]) AS f) f
)
SELECT media_id, frame_no, CAST(luma_sum AS BIGINT) AS luma_sum
FROM s ORDER BY media_id, frame_no
""",
    "extraction_metrics": """
        SELECT lang, count(*) AS docs, CAST(sum(length(text)) AS BIGINT) AS bytes_out
        FROM documents GROUP BY lang ORDER BY lang
    """,
    "problem_flags": None,  # filled in below (built from the keyword list)
}

ORACLE_SQL["problem_flags"] = f"""
    SELECT doc_id,
           length(regexp_replace(text, '[^a-zA-Z0-9]', '', 'g')) < 100 AS low_content_density,
           length(trim(text)) < 200 AS very_short_pages,
           (length(text) >= 500 AND NOT {_keyword_condition()}) AS missing_keywords
    FROM documents ORDER BY doc_id
"""

ORACLE_SQL["lang_distribution"] = _langid_sql()

# Salting must be semantically invisible — the plain-join oracle with the
# same user subset.
ORACLE_SQL["asof_join_salted"] = """
    WITH r AS (
        SELECT o_custkey AS user_id, o_orderdate,
               max(o_orderkey) AS o_orderkey
        FROM orders WHERE o_custkey < 30 GROUP BY o_custkey, o_orderdate
    )
    SELECT e.event_id, e.user_id,
           CAST(coalesce(r.o_orderkey, -1) AS BIGINT) AS o_orderkey
    FROM events e
    ASOF LEFT JOIN r
        ON e.user_id = r.user_id AND e.ts >= r.o_orderdate
    WHERE e.user_id < 30
    ORDER BY e.event_id
"""

# Ordered streaming replay admits the min-id row per distinct text —
# exactly the batch exact-dedup semantics.
ORACLE_SQL["streaming_dedup"] = ORACLE_SQL["exact_dedup"]

ORACLE_SQL["quantize_embeddings"] = r"""
WITH q AS (
    SELECT vec_id,
           list_transform(embedding,
               e -> CAST(floor((CAST(e AS DOUBLE) + 2) * 1000000) AS BIGINT)
                    - 2000000) AS c
    FROM embeddings
),
mm AS (
    SELECT vec_id, c,
           coalesce(list_max(list_transform(c, x -> abs(x))), 0) AS m
    FROM q
),
qq AS (
    SELECT vec_id, c, m,
           list_transform(c, x -> CASE
               WHEN m = 0 THEN 0
               WHEN x < 0 THEN -((127 * (-x)) // m)
               ELSE (127 * x) // m END) AS qv
    FROM mm
)
SELECT vec_id,
       CAST(m AS BIGINT) AS scale,
       CAST(list_min(qv) AS BIGINT) AS q_min,
       CAST(list_max(qv) AS BIGINT) AS q_max,
       CAST(list_sum(qv) AS BIGINT) AS q_sum,
       CAST(list_sum(list_transform(qv, x -> abs(x))) AS BIGINT) AS q_l1,
       CAST(list_sum(list_transform(list_zip(c, qv),
            p -> abs(127 * p[1] - p[2] * m))) AS BIGINT) AS err_sum
FROM qq ORDER BY vec_id
"""

ORACLE_SQL["canonical_select"] = r"""
WITH unioned AS (
    SELECT doc_id, text, n_chars FROM documents
    UNION ALL
    SELECT doc_id + 100000, coalesce(text, '') || chr(10) || ' ', n_chars + 2
    FROM documents
),
k AS (
    SELECT doc_id, n_chars,
           trim(regexp_replace(coalesce(text, ''), '[\t\n\r\f ]+', ' ', 'g')) AS ck
    FROM unioned
)
SELECT doc_id, n_chars FROM k
QUALIFY row_number() OVER (PARTITION BY ck ORDER BY n_chars DESC, doc_id) = 1
ORDER BY doc_id
"""

# 64-bit mulmod without INT128 overflow: a*B mod 2^64 =
# (a_lo*B + ((a_hi * B_lo mod 2^32) << 32)) mod 2^64 — every partial fits.
def _splitmix_sql(src: str, key: str, salt: int, carry: str) -> str:
    """CTE chain ``m1..h`` reproducing ``splitmix64(key + salt)`` in
    HUGEINT modular arithmetic (the 64-bit multiply decomposed into
    32-bit halves) — ONE definition for every hash-exact oracle
    (stratified_sample, deterministic_shuffle, distinct_sketch).
    ``carry`` = pass-through column list ('' for none); the result ends
    with ``h`` exposing ``{carry,} hv``."""
    c = f"{carry}, " if carry else ""
    return f"""
WITH m1 AS (
    SELECT {c}CAST((CAST({key} AS HUGEINT) + {salt} + 11400714819323198485)
         % 18446744073709551616 AS UBIGINT) AS x
    FROM {src}
),
m1x AS (SELECT {c}xor(x, x >> 30) AS a FROM m1),
m2 AS (
    SELECT {c}CAST((CAST(a % 4294967296 AS HUGEINT) * 13787848793156543929
          + CAST(((a >> 32) * 484763065) % 4294967296 AS HUGEINT) * 4294967296)
         % 18446744073709551616 AS UBIGINT) AS x
    FROM m1x
),
m2x AS (SELECT {c}xor(x, x >> 27) AS a FROM m2),
m3 AS (
    SELECT {c}CAST((CAST(a % 4294967296 AS HUGEINT) * 10723151780598845931
          + CAST(((a >> 32) * 321982955) % 4294967296 AS HUGEINT) * 4294967296)
         % 18446744073709551616 AS UBIGINT) AS x
    FROM m2x
),
h AS (SELECT {c}xor(x, x >> 31) AS hv FROM m3)
"""


ORACLE_SQL["stratified_sample"] = _splitmix_sql(
    "documents", "doc_id", 7, "doc_id, lang"
) + """
SELECT doc_id, lang FROM h
WHERE hv < CASE lang
    WHEN 'en' THEN CAST(9223372036854775808 AS UBIGINT)
    WHEN 'de' THEN CAST(4611686018427387904 AS UBIGINT)
    ELSE CAST(2305843009213693952 AS UBIGINT) END
ORDER BY doc_id
"""

ORACLE_SQL["deterministic_shuffle"] = _splitmix_sql(
    "documents", "doc_id", 123, "doc_id"
) + """
SELECT CAST(row_number() OVER (ORDER BY hv) AS BIGINT) AS rank, doc_id
FROM h ORDER BY hv LIMIT 50
"""

ORACLE_SQL["extract_encrypted_pdf"] = ORACLE_SQL["extract_real_pdf"]
ORACLE_SQL["extract_protected_pdf"] = ORACLE_SQL["extract_real_pdf"]

ORACLE_SQL["quantiles"] = """
WITH o AS (
    SELECT l_extendedprice AS x,
           row_number() OVER (ORDER BY l_extendedprice) AS rn,
           count(*) OVER () AS n
    FROM lineitem
),
qs AS (SELECT unnest([0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]) AS qd)
SELECT CAST(qd AS DOUBLE) AS q, min(x) AS value
FROM o JOIN qs ON rn >= greatest(1, ceil(CAST(qd AS DOUBLE) * n))
GROUP BY 1 ORDER BY 1
"""

# Shared HUGEINT splitmix64 chain (salt 0 here), then HLL register = top
# 12 hash bits, rho = 1 + leading zeros of the low 52 bits (bit-scan via
# list_min over set-bit positions).
ORACLE_SQL["distinct_sketch"] = _splitmix_sql(
    "orders", "o_custkey", 0, ""
) + """
, reg AS (SELECT CAST(hv >> 52 AS INTEGER) AS register,
               hv % 4503599627370496 AS rest FROM h),
rho AS (SELECT register,
    CAST(coalesce(list_min(list_filter(range(1, 53),
        i -> ((rest >> (52 - i)) & 1) = 1)), 53) AS INTEGER) AS r
    FROM reg)
SELECT register, max(r) AS max_rho FROM rho GROUP BY register ORDER BY register
"""

ORACLE_SQL["mixture"] = _splitmix_sql(
    "documents", "doc_id", 11, "doc_id, source"
) + """
, cp AS (
    SELECT doc_id, source,
        CASE source WHEN 'src0' THEN 2 WHEN 'src1' THEN 0
                    WHEN 'src2' THEN 0 WHEN 'src3' THEN 3 ELSE 1 END
        + CASE WHEN hv < CASE source
                    WHEN 'src0' THEN CAST(9223372036854775808 AS UBIGINT)
                    WHEN 'src1' THEN CAST(9223372036854775808 AS UBIGINT)
                    ELSE CAST(0 AS UBIGINT) END
               THEN 1 ELSE 0 END AS copies
    FROM h)
SELECT doc_id, source, CAST(unnest(range(copies)) AS INTEGER) AS epoch
FROM cp ORDER BY doc_id, epoch
"""

ORACLE_SQL["distinct_sketch_grouped"] = _splitmix_sql(
    "events", "user_id", 0, "event_type"
) + """
, reg AS (SELECT event_type, CAST(hv >> 52 AS INTEGER) AS register,
               hv % 4503599627370496 AS rest FROM h),
rho AS (SELECT event_type, register,
    CAST(coalesce(list_min(list_filter(range(1, 53),
        i -> ((rest >> (52 - i)) & 1) = 1)), 53) AS INTEGER) AS r
    FROM reg)
SELECT event_type, register, max(r) AS max_rho FROM rho
GROUP BY 1, 2 ORDER BY 1, 2
"""

ORACLE_SQL["word_topk"] = r"""
WITH words AS (
    SELECT lang, unnest(regexp_extract_all(lower(text), '\S+')) AS word
    FROM documents
),
counts AS (SELECT lang, word, count(*) AS cnt FROM words GROUP BY 1, 2),
ranked AS (
    SELECT lang, word, cnt,
           row_number() OVER (PARTITION BY lang ORDER BY cnt DESC, word) AS r
    FROM counts
)
SELECT lang, word, CAST(cnt AS BIGINT) AS cnt, CAST(r AS INTEGER) AS rank
FROM ranked WHERE r <= 10 ORDER BY lang, rank
"""

ORACLE_SQL["group_quantiles"] = """
WITH ranked AS (
    SELECT lang, n_chars,
           row_number() OVER (PARTITION BY lang ORDER BY n_chars) AS rn,
           count(*) OVER (PARTITION BY lang) AS n
    FROM documents
    WHERE lang IS NOT NULL AND n_chars IS NOT NULL
),
qs(q) AS (VALUES (0.1), (0.5), (0.9), (0.99))
SELECT lang, q, n_chars AS value
FROM ranked, qs
WHERE rn = CAST(ceil(q * n) AS BIGINT)
ORDER BY lang, q
"""

ORACLE_SQL["inverted_index"] = r"""
WITH pairs AS (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '\S+')) AS token
    FROM documents
),
per_doc AS (SELECT token, doc_id, count(*) AS tf FROM pairs GROUP BY 1, 2),
agg AS (
    SELECT token,
           count(*) AS df,
           sum(tf) AS total_tf,
           array_to_string(list_slice(list(doc_id ORDER BY doc_id), 1, 5), ',')
               AS sample_postings
    FROM per_doc GROUP BY 1
)
SELECT token, CAST(df AS BIGINT) AS df, CAST(total_tf AS BIGINT) AS total_tf,
       sample_postings
FROM agg WHERE df >= 5 ORDER BY token
"""

ORACLE_SQL["compress_postings"] = r"""
WITH pairs AS (
    SELECT DISTINCT token, doc_id FROM (
        SELECT doc_id, unnest(regexp_extract_all(lower(text), '\S+')) AS token
        FROM documents
    )
),
gaps AS (
    SELECT token, doc_id,
           CASE WHEN lag(doc_id) OVER w IS NULL THEN doc_id + 1
                ELSE doc_id - lag(doc_id) OVER w END AS g
    FROM pairs
    WINDOW w AS (PARTITION BY token ORDER BY doc_id)
),
-- varbyte: little-endian 7-bit groups, continuation bit 0x80 on all but
-- the last byte; nb = number of groups, dsum = sum of the 7-bit digits
-- (gaps here are < 2^35, so five groups suffice)
enc AS (
    SELECT token, doc_id, g,
           CASE WHEN g < 128 THEN 1 WHEN g < 16384 THEN 2
                WHEN g < 2097152 THEN 3 WHEN g < 268435456 THEN 4
                ELSE 5 END AS nb,
           (g % 128) + ((g // 128) % 128) + ((g // 16384) % 128)
             + ((g // 2097152) % 128) + ((g // 268435456) % 128) AS dsum
    FROM gaps
)
SELECT token,
       CAST(count(*) AS BIGINT) AS df,
       CAST(sum(nb) AS BIGINT) AS n_bytes,
       CAST(sum(dsum) + 128 * sum(nb - 1) AS BIGINT) AS byte_sum,
       CAST(min(doc_id) AS BIGINT) AS first_id,
       CAST(max(doc_id) AS BIGINT) AS last_id
FROM enc GROUP BY token HAVING count(*) >= 3 ORDER BY token
"""

ORACLE_SQL["linear_fit"] = r"""
WITH f AS (
    SELECT CAST(len(regexp_extract_all(coalesce(text, ''), '\S+')) AS HUGEINT) AS x1,
           CAST(length(coalesce(text, ''))
                - length(replace(coalesce(text, ''), 'a', '')) AS HUGEINT) AS x2,
           CAST(n_chars AS HUGEINT) AS y
    FROM documents
),
s AS (
    SELECT CAST(count(*) AS HUGEINT) AS n, sum(x1) AS sx1, sum(x2) AS sx2,
           sum(x1 * x1) AS s11, sum(x1 * x2) AS s12, sum(x2 * x2) AS s22,
           sum(y) AS sy, sum(x1 * y) AS t1, sum(x2 * y) AS t2
    FROM f
),
-- Cramer over A = [[n,sx1,sx2],[sx1,s11,s12],[sx2,s12,s22]], b = [sy,t1,t2]
d AS (
    SELECT
      n  * (s11 * s22 - s12 * s12) - sx1 * (sx1 * s22 - s12 * sx2)
         + sx2 * (sx1 * s12 - s11 * sx2) AS den,
      sy * (s11 * s22 - s12 * s12) - sx1 * (t1 * s22 - s12 * t2)
         + sx2 * (t1 * s12 - s11 * t2) AS n0,
      n  * (t1 * s22 - s12 * t2)  - sy  * (sx1 * s22 - s12 * sx2)
         + sx2 * (sx1 * t2 - t1 * sx2) AS n1,
      n  * (s11 * t2 - t1 * s12)  - sx1 * (sx1 * t2 - t1 * sx2)
         + sy  * (sx1 * s12 - s11 * sx2) AS n2
    FROM s
)
SELECT * FROM (
    SELECT 'const' AS coef, CAST(n0 AS VARCHAR) AS num,
           CAST(den AS VARCHAR) AS den FROM d
    UNION ALL
    SELECT 'n_words', CAST(n1 AS VARCHAR), CAST(den AS VARCHAR) FROM d
    UNION ALL
    SELECT 'n_a', CAST(n2 AS VARCHAR), CAST(den AS VARCHAR) FROM d
)
ORDER BY coef
"""

ORACLE_SQL["cocitation"] = r"""
WITH base AS (SELECT doc_id AS i FROM documents),
raw AS (
    SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
           'site' || CAST((i * 7 + j) % 20 AS VARCHAR) || '.example.com' AS dst
    FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)
    UNION ALL
    SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com',
           'site' || CAST(i % 20 AS VARCHAR) || '.example.com'
    FROM base
),
e AS (SELECT DISTINCT src, dst FROM raw),
deg AS (SELECT src, count(*) AS d FROM e GROUP BY 1),
keep AS (SELECT e.src, e.dst FROM e JOIN deg ON e.src = deg.src
         WHERE deg.d <= 1024),
p AS (
    SELECT a.dst AS d1, b.dst AS d2, count(*) AS cnt
    FROM keep a JOIN keep b ON a.src = b.src AND a.dst < b.dst
    GROUP BY 1, 2
)
SELECT d1, d2, CAST(cnt AS BIGINT) AS cnt
FROM p WHERE cnt >= 2
ORDER BY cnt DESC, d1, d2 LIMIT 15
"""

ORACLE_SQL["fix_mojibake"] = r"""
SELECT doc_id,
       CASE WHEN doc_id % 3 = 0 THEN coalesce(text, '') || 'é—'
            ELSE coalesce(text, '') END AS text,
       (doc_id % 3 = 0) AS fixed
FROM documents
WHERE strlen(coalesce(text, '')) = length(coalesce(text, ''))
ORDER BY doc_id
"""

ORACLE_SQL["bpe_pair_counts"] = r"""
WITH words AS (
    SELECT unnest(regexp_extract_all(lower(text), '\S+')) AS word FROM documents
),
wf AS (SELECT word || chr(31) AS w, count(*) AS cnt FROM words GROUP BY 1),
pos AS (SELECT w, cnt, unnest(range(1, length(w))) AS i FROM wf),
pc AS (
    SELECT substring(w, CAST(i AS INT), 1) AS left_sym,
           substring(w, CAST(i AS INT) + 1, 1) AS right_sym,
           sum(cnt) AS cnt
    FROM pos GROUP BY 1, 2
)
SELECT left_sym, right_sym, CAST(cnt AS BIGINT) AS cnt,
       CAST(row_number() OVER (ORDER BY cnt DESC, left_sym, right_sym) AS INTEGER) AS rank
FROM pc
QUALIFY rank <= 100
ORDER BY rank
"""

ORACLE_SQL["canonical_urls"] = """
SELECT doc_id,
    CASE doc_id % 6
        WHEN 0 THEN 'http://site' || CAST(doc_id % 37 AS VARCHAR)
             || '.example.com/a/c/page' || CAST(doc_id % 5 AS VARCHAR)
             || '?q=' || CAST(doc_id AS VARCHAR)
        WHEN 1 THEN 'https://news.example.co.uk/world/' || CAST(doc_id AS VARCHAR)
        WHEN 2 THEN 'https://example.com:8443/Abc%2F' || CAST(doc_id AS VARCHAR)
        WHEN 3 THEN 'http://blog.sub.site' || CAST(doc_id % 7 AS VARCHAR) || '.org/x'
        WHEN 4 THEN 'https://example.com/'
        ELSE NULL END AS canon_url,
    CASE doc_id % 6
        WHEN 0 THEN 'site' || CAST(doc_id % 37 AS VARCHAR) || '.example.com'
        WHEN 1 THEN 'news.example.co.uk'
        WHEN 2 THEN 'example.com'
        WHEN 3 THEN 'blog.sub.site' || CAST(doc_id % 7 AS VARCHAR) || '.org'
        WHEN 4 THEN 'example.com'
        ELSE NULL END AS host,
    CASE doc_id % 6
        WHEN 0 THEN 'example.com'
        WHEN 1 THEN 'example.co.uk'
        WHEN 2 THEN 'example.com'
        WHEN 3 THEN 'site' || CAST(doc_id % 7 AS VARCHAR) || '.org'
        WHEN 4 THEN 'example.com'
        ELSE NULL END AS registered_domain
FROM documents ORDER BY doc_id
"""

ORACLE_SQL["substring_dup"] = """
WITH corpus AS (
    SELECT doc_id,
           CASE WHEN doc_id % 3 = 0
                THEN text || ' (c) 2026 example media group - all rights reserved. subscribe to our newsletter today for more stories.'
                ELSE text END AS text
    FROM documents
),
w AS (
    SELECT doc_id, substring(text, CAST(i.i AS INT), 50) AS s
    FROM corpus, LATERAL (SELECT unnest(range(1, length(text) - 48)) AS i) i
),
c AS (SELECT s, count(*) AS n FROM w GROUP BY s)
SELECT doc_id,
       CAST(count(*) AS BIGINT) AS total_windows,
       CAST(sum(CASE WHEN c.n >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS dup_windows
FROM w JOIN c USING (s)
GROUP BY doc_id ORDER BY doc_id
"""

ORACLE_SQL["domain_cap"] = """
WITH hosted AS (
    SELECT doc_id, 'site' || CAST(doc_id % 37 AS VARCHAR) || '.example.com' AS host,
           n_chars
    FROM documents
),
ranked AS (
    SELECT *, row_number() OVER (PARTITION BY host ORDER BY doc_id) AS rn
    FROM hosted
)
SELECT doc_id, host, n_chars FROM ranked WHERE rn <= 5 ORDER BY doc_id
"""

ORACLE_SQL["paragraph_dedup"] = r"""
WITH words AS (
    SELECT doc_id, regexp_extract_all(text, '\S+') AS w FROM documents
),
chunks AS (
    SELECT doc_id, i.i AS ord2,
           array_to_string(list_slice(w, i.i*10+1, i.i*10+10), ' ') AS para
    FROM words, LATERAL (
        SELECT unnest(range(0, CAST(ceil(len(w)/10.0) AS INT))) AS i
    ) i
),
all_paras AS (
    SELECT doc_id, ord2*2+2 AS ord, para FROM chunks
    UNION ALL
    SELECT doc_id, 1, 'subscribe to our newsletter for updates'
    FROM documents WHERE doc_id % 2 = 0
),
counts AS (SELECT para, count(DISTINCT doc_id) AS nd FROM all_paras GROUP BY para),
kept AS (
    SELECT a.doc_id, a.ord, a.para
    FROM all_paras a JOIN counts c USING (para) WHERE c.nd < 3
)
SELECT d.doc_id,
       coalesce(string_agg(k.para, chr(10)||chr(10) ORDER BY k.ord), '') AS clean_text
FROM documents d LEFT JOIN kept k USING (doc_id)
GROUP BY d.doc_id ORDER BY d.doc_id
"""

ORACLE_SQL["incremental_admission"] = """
WITH d AS (SELECT DISTINCT text FROM documents),
m AS (SELECT DISTINCT text || ' v2' AS text FROM documents WHERE doc_id % 3 = 0),
new2 AS (SELECT text FROM m WHERE text NOT IN (SELECT text FROM d))
SELECT 1 AS run, COUNT(*) AS admitted,
       CAST(COALESCE(SUM(LENGTH(text)), 0) AS BIGINT) AS total_chars FROM d
UNION ALL
SELECT 2, COUNT(*), CAST(COALESCE(SUM(LENGTH(text)), 0) AS BIGINT) FROM new2
ORDER BY run
"""

# The PDF statement round trip must be semantically invisible.
ORACLE_SQL["classify_transactions_pdf"] = ORACLE_SQL["classify_transactions"]

# --- sketch/ANN oracles (added in round 2) --------------------------------
# Each replicates the Ray pipeline's EXACT semantics in DuckDB: shingle /
# token / trigram hashing is reproduced bit-for-bit (polynomial + splitmix
# finalizer and FNV-1a are plain HUGEINT modular arithmetic), clustering is
# the transitive closure over exact-similarity pairs via a recursive CTE.
# Cross-engine float risk is engineered out per query (see each q_*
# docstring): wide empty score margins, exact-in-IEEE perturbations, or
# 6-decimal score quantization before ranking.

ORACLE_SQL["minhash_dedup"] = r"""
WITH RECURSIVE corpus AS (
    SELECT doc_id, lower(text) AS t FROM documents
    UNION ALL
    SELECT doc_id + 100000,
           lower(array_to_string(list_slice(regexp_extract_all(text, '\S+'), 1,
                 len(regexp_extract_all(text, '\S+')) - 1), ' '))
    FROM documents WHERE doc_id % 5 = 0
),
sh AS (
    SELECT doc_id,
           list_distinct(list_transform(range(1, length(t) - 3),
                                        i -> substring(t, i, 5))) AS s
    FROM corpus
),
lens AS (SELECT doc_id, len(s) AS l FROM sh),
ex AS (SELECT doc_id, unnest(s) AS g FROM sh),
inter AS (
    SELECT a.doc_id AS ia, b.doc_id AS ib, count(*) AS i
    FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
    GROUP BY 1, 2
),
cand AS (
    SELECT ia, ib FROM inter
    JOIN lens la ON la.doc_id = ia
    JOIN lens lb ON lb.doc_id = ib
    WHERE CAST(i AS DOUBLE) / (la.l + lb.l - i) >= 0.7
),
edges AS (SELECT ia, ib FROM cand UNION SELECT ib, ia FROM cand),
reach(src, dst) AS (
    SELECT doc_id, doc_id FROM corpus
    UNION
    SELECT r.src, e.ib FROM reach r JOIN edges e ON r.dst = e.ia
),
lab AS (SELECT src AS doc_id, min(dst) AS cluster_id FROM reach GROUP BY src)
SELECT doc_id, cluster_id, doc_id <> cluster_id AS is_duplicate
FROM lab ORDER BY doc_id
"""

ORACLE_SQL["ngram_jaccard_dedup"] = r"""
WITH RECURSIVE corpus AS (
    SELECT doc_id, lower(text) AS t FROM documents
    UNION ALL
    SELECT doc_id + 200000,
           lower(array_to_string(list_slice(regexp_extract_all(text, '\S+'), 1,
                 len(regexp_extract_all(text, '\S+')) - 2), ' '))
    FROM documents WHERE doc_id % 7 = 0
),
toks AS (SELECT doc_id, regexp_extract_all(t, '\S+') AS w FROM corpus),
sh AS (
    SELECT doc_id,
           list_distinct(list_transform(range(1, len(w) - 1),
                 i -> array_to_string(list_slice(w, i, i + 2), ' '))) AS s
    FROM toks
),
lens AS (SELECT doc_id, len(s) AS l FROM sh),
ex AS (SELECT doc_id, unnest(s) AS g FROM sh),
inter AS (
    SELECT a.doc_id AS ia, b.doc_id AS ib, count(*) AS i
    FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
    GROUP BY 1, 2
),
cand AS (
    SELECT ia, ib FROM inter
    JOIN lens la ON la.doc_id = ia
    JOIN lens lb ON lb.doc_id = ib
    WHERE CAST(i AS DOUBLE) / (la.l + lb.l - i) >= 0.6
),
edges AS (SELECT ia, ib FROM cand UNION SELECT ib, ia FROM cand),
reach(src, dst) AS (
    SELECT doc_id, doc_id FROM corpus
    UNION
    SELECT r.src, e.ib FROM reach r JOIN edges e ON r.dst = e.ia
),
lab AS (SELECT src AS doc_id, min(dst) AS cluster_id FROM reach GROUP BY src)
SELECT doc_id, cluster_id, doc_id <> cluster_id AS is_duplicate
FROM lab ORDER BY doc_id
"""

ORACLE_SQL["simhash"] = r"""
WITH RECURSIVE corpus AS (
    SELECT doc_id, lower(text) AS t FROM documents
    UNION ALL
    SELECT doc_id + 100000, lower(text) FROM documents
),
toks AS (SELECT doc_id, unnest(regexp_extract_all(t, '\S+')) AS tok FROM corpus),
tok_hash AS (
    SELECT tok, xor(m2, m2 >> 32) AS h
    FROM (
        SELECT tok,
               CAST((CAST(xor(raw, raw >> 29) AS HUGEINT) * 11400714819323198485)
                    % 18446744073709551616 AS UBIGINT) AS m2
        FROM (
            SELECT tok,
                   CAST(list_reduce(
                       list_prepend(CAST(0 AS HUGEINT),
                           list_transform(range(1, length(tok) + 1),
                               i -> CAST(unicode(substring(tok, i, 1)) AS HUGEINT))),
                       (a, b) -> (a * 31 + b) % 18446744073709551616) AS UBIGINT) AS raw
            FROM (SELECT DISTINCT tok FROM toks)
        )
    )
),
bitsum AS (
    SELECT t.doc_id, bits.j,
           sum(CASE WHEN (th.h >> bits.j) & 1 = 1 THEN 1 ELSE -1 END) AS s
    FROM toks t
    JOIN tok_hash th USING (tok)
    CROSS JOIN (SELECT unnest(range(0, 64)) AS j) bits
    GROUP BY 1, 2
),
sig AS (
    SELECT c.doc_id,
           CAST(coalesce(sum(CASE WHEN b.s > 0
                    THEN CAST(CAST(1 AS UBIGINT) << b.j AS HUGEINT)
                    ELSE CAST(0 AS HUGEINT) END), 0) AS UBIGINT) AS sim
    FROM corpus c LEFT JOIN bitsum b USING (doc_id)
    GROUP BY 1
),
pairs AS (
    SELECT a.doc_id AS ia, b.doc_id AS ib
    FROM sig a JOIN sig b ON a.doc_id < b.doc_id
    WHERE bit_count(xor(a.sim, b.sim)) <= 3
),
edges AS (SELECT ia, ib FROM pairs UNION SELECT ib, ia FROM pairs),
reach(src, dst) AS (
    SELECT doc_id, doc_id FROM corpus
    UNION
    SELECT r.src, e.ib FROM reach r JOIN edges e ON r.dst = e.ia
),
lab AS (SELECT src AS doc_id, min(dst) AS cluster_id FROM reach GROUP BY src)
SELECT doc_id, cluster_id, doc_id <> cluster_id AS is_duplicate
FROM lab ORDER BY doc_id
"""

ORACLE_SQL["embedding_dedup"] = """
WITH RECURSIVE corpus AS (
    SELECT vec_id, embedding FROM embeddings
    UNION ALL
    SELECT vec_id + 100000, embedding FROM embeddings
    UNION ALL
    SELECT vec_id + 200000, list_transform(embedding, x -> x * 2) FROM embeddings
),
pairs AS (
    SELECT a.vec_id AS ia, b.vec_id AS ib
    FROM corpus a JOIN corpus b ON a.vec_id < b.vec_id
    WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.9999
),
edges AS (SELECT ia, ib FROM pairs UNION SELECT ib, ia FROM pairs),
reach(src, dst) AS (
    SELECT vec_id, vec_id FROM corpus
    UNION
    SELECT r.src, e.ib FROM reach r JOIN edges e ON r.dst = e.ia
),
lab AS (SELECT src AS vec_id, min(dst) AS cluster_id FROM reach GROUP BY src)
SELECT vec_id, cluster_id, vec_id <> cluster_id AS is_duplicate
FROM lab ORDER BY vec_id
"""

# Full-probe IVF must equal the exact scan — same oracle as ann_topk.
ORACLE_SQL["ann_ivf"] = ORACLE_SQL["ann_topk"]

ORACLE_SQL["embed_ann"] = """
WITH corpus AS (SELECT doc_id, lower(text) AS t FROM documents),
grams AS (
    SELECT doc_id,
           unnest(list_transform(range(1, length(t) - 1),
                                 i -> substring(t, i, 3))) AS g
    FROM corpus
),
gh AS (
    SELECT g,
           CAST(list_reduce(
               list_prepend(CAST(14695981039346656037 AS HUGEINT),
                   list_transform(range(1, length(g) + 1),
                       i -> CAST(unicode(substring(g, i, 1)) AS HUGEINT))),
               (a, b) -> (CAST(xor(CAST(a AS UBIGINT), CAST(b AS UBIGINT)) AS HUGEINT)
                          * 1099511628211) % 18446744073709551616) AS UBIGINT)
           % 64 AS dim
    FROM (SELECT DISTINCT g FROM grams)
),
dims AS (
    SELECT doc_id, dim, CAST(count(*) AS DOUBLE) AS c
    FROM grams JOIN gh USING (g)
    GROUP BY 1, 2
),
norms AS (SELECT doc_id, sqrt(sum(c * c)) AS nrm FROM dims GROUP BY 1),
qd AS (SELECT * FROM dims WHERE doc_id < 3),
dots AS (
    SELECT q.doc_id AS query_id, d.doc_id AS vec_id, sum(q.c * d.c) AS dot
    FROM qd q JOIN dims d ON q.dim = d.dim
    GROUP BY 1, 2
),
scored AS (
    SELECT query_id, vec_id, dot / (nq.nrm * nd.nrm) AS score
    FROM dots
    JOIN norms nq ON nq.doc_id = query_id
    JOIN norms nd ON nd.doc_id = vec_id
),
ranked AS (
    SELECT query_id, vec_id,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY round(score, 6) DESC, vec_id) AS rank
    FROM scored
)
SELECT query_id, vec_id, rank FROM ranked WHERE rank <= 3
ORDER BY query_id, rank
"""



def q_problem_flags(sf_dir: str) -> pd.DataFrame:
    """Three SQL-expressible detectors over documents.text as boolean
    columns (reference: problem_detector.py:67-82, 213-228, 230-259)."""
    from .functions.problems import detect_all_problems

    names = ("low_content_density", "very_short_pages", "missing_keywords")
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def flags(batch: pa.Table) -> pa.Table:
        rows = [detect_all_problems(t, names) for t in batch["text"].to_pylist()]
        return pa.Table.from_arrays(
            [batch["doc_id"]] + [pa.array([r[n] for r in rows], pa.bool_()) for n in names],
            names=["doc_id", *names],
        )

    out = ds.map_batches(flags, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# Crawl-archive formats (WARC — ISO 28500, the Common Crawl interchange)
# ---------------------------------------------------------------------------

def q_feed_items(sf_dir: str) -> pd.DataFrame:
    """RSS/Atom discovery-feed parsing (:mod:`sources.feed`): doc i emits
    an RSS 2.0 feed (even ids — element-text links, entity in title) or
    an Atom feed (odd ids — href-attribute links, rel filtering) with two
    items each; the from-scratch scanner yields every item row. Oracle is
    the closed-form item table."""
    import functools

    from .sources.feed import feed_rows_batch

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        blobs = []
        for i in batch["doc_id"].to_pylist():
            i = int(i)
            if i % 2 == 0:
                blobs.append(
                    (
                        '<?xml version="1.0"?><rss version="2.0"><channel>'
                        f"<item><title>Story {i} &amp; more</title>"
                        f"<link>https://news/{i}/a</link>"
                        f"<pubDate>day{i % 7}</pubDate></item>"
                        f"<item><title>Extra {i}</title>"
                        f"<link>https://news/{i}/b</link></item>"
                        "</channel></rss>"
                    ).encode()
                )
            else:
                blobs.append(
                    (
                        '<?xml version="1.0"?><feed>'
                        f"<entry><title>Post {i}</title>"
                        f'<link rel="self" href="https://feed/{i}/self"/>'
                        f'<link rel="alternate" href="https://blog/{i}/a"/>'
                        f"<updated>t{i % 5}</updated></entry>"
                        f"<entry><title>Note {i}</title>"
                        f'<link href="https://blog/{i}/b"/></entry>'
                        "</feed>"
                    ).encode()
                )
        return pa.Table.from_arrays([pa.array(blobs, pa.binary())], names=["xml"])

    out = (
        ds.map_batches(synth, batch_format="pyarrow")
        .map_batches(feed_rows_batch, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values(["link"]).reset_index(drop=True)


def q_meta_refresh_chains(sf_dir: str) -> pd.DataFrame:
    """Client-side redirect resolution end to end: meta-refresh tags
    extracted from real HTML (:func:`functions.metadata.
    meta_refresh_edges_batch`, attribute-order/quote tolerant), chains
    resolved by pointer doubling (:func:`ops.links.resolve_redirects`).
    Doc i (i%4 != 0) refreshes to doc i-1, terminating at i%4 == 0 —
    chains of 1..3 hops, closed-form oracle."""
    from .functions.metadata import meta_refresh_edges_batch
    from .ops.links import resolve_redirects

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        ids = [int(i) for i in batch["doc_id"].to_pylist()]
        urls, htmls = [], []
        for i in ids:
            urls.append(f"doc://{i:08d}")
            if i % 4 == 0:
                htmls.append(b"<html><head><title>t</title></head></html>")
            else:
                htmls.append(
                    f'<html><head><meta content="0; url=doc://{i - 1:08d}" '
                    f'http-equiv="Refresh"></head></html>'.encode()
                )
        return pa.Table.from_arrays(
            [pa.array(urls, pa.string()), pa.array(htmls, pa.binary())],
            names=["url", "html"],
        )

    edges = ds.map_batches(synth, batch_format="pyarrow").map_batches(
        meta_refresh_edges_batch, batch_format="pyarrow"
    )
    out = resolve_redirects(edges).to_pandas()
    return out.sort_values("src").reset_index(drop=True)


def q_translation_sets(sf_dir: str) -> pd.DataFrame:
    """Parallel-corpus discovery via hreflang
    (:func:`functions.metadata.translation_sets_batch`): consecutive doc
    triples form en/de/fr variant sets, each page declaring all three
    alternates; pages with doc_id%11==0 declare nothing and vanish. Set
    id = min variant url; oracle is the closed-form set table."""
    from .functions.metadata import translation_sets_batch

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    LANGS = ["de", "en", "fr"]

    def synth(batch: pa.Table) -> pa.Table:
        ids = [int(i) for i in batch["doc_id"].to_pylist()]
        urls, htmls = [], []
        for i in ids:
            s, lang = i // 3, LANGS[i % 3]
            urls.append(f"https://ex.com/s{s}/{lang}")
            if i % 11 == 0:
                htmls.append(b"<html><head></head></html>")
                continue
            links = "".join(
                f'<link rel="alternate" hreflang="{lg}" '
                f'href="https://ex.com/s{s}/{lg}">'
                for lg in LANGS
            )
            htmls.append(f"<html><head>{links}</head></html>".encode())
        return pa.Table.from_arrays(
            [pa.array(urls, pa.string()), pa.array(htmls, pa.binary())],
            names=["url", "html"],
        )

    out = (
        ds.map_batches(synth, batch_format="pyarrow")
        .map_batches(translation_sets_batch, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("url").reset_index(drop=True)


def q_jsonld_census(sf_dir: str) -> pd.DataFrame:
    """schema.org JSON-LD census (:func:`functions.metadata.jsonld_batch`):
    doc i carries an Article block (i%2==0), a Product block (i%3==0), a
    two-element array block (i%5==0 → Article + BreadcrumbList), and a
    MALFORMED block (i%7==0 — must be skipped, never kill the page).
    Output one row per (doc, @type); oracle is the closed-form census."""
    from .functions.metadata import jsonld_batch

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        ids = [int(i) for i in batch["doc_id"].to_pylist()]
        htmls = []
        for i in ids:
            parts = ["<html><head>"]
            if i % 2 == 0:
                parts.append(
                    '<script type="application/ld+json">'
                    '{"@type": "Article", "headline": "h%d"}</script>' % i
                )
            if i % 3 == 0:
                parts.append(
                    "<script type='application/ld+json'>"
                    '{"@type": "Product", "sku": "%d"}</script>' % i
                )
            if i % 5 == 0:
                parts.append(
                    '<script type="application/ld+json">'
                    '[{"@type": "Article"}, {"@type": "BreadcrumbList"}]'
                    "</script>"
                )
            if i % 7 == 0:
                parts.append(
                    '<script type="application/ld+json">{broken json'
                    "</script>"
                )
            parts.append("</head><body>x</body></html>")
            htmls.append("".join(parts).encode())
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(htmls, pa.binary())],
            names=["doc_id", "html"],
        )

    out = (
        ds.map_batches(synth, batch_format="pyarrow")
        .map_batches(jsonld_batch, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values(["doc_id", "schema_type"]).reset_index(drop=True)


def q_idn_hosts(sf_dir: str) -> pd.DataFrame:
    """IDN hostname decoding (:mod:`functions.punycode`, from-scratch RFC
    3492 bootstring) + confusable skeletons: five host families per
    doc_id%5 — two genuine IDNs, an ASCII passthrough, a punycoded
    Cyrillic paypal spoof, and the plain target. The spoof's skeleton
    collapses onto the target's. Oracle states the decoded unicode and
    folded skeleton closed-form (the codec is independently
    cross-checked against stdlib punycode in tests)."""
    from .functions.punycode import idna_decode_host
    from .ops.urls import homoglyph_skeleton

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    HOSTS = [
        "xn--mnchen-3ya.example.com",
        "xn--bcher-kva.shop.de",
        "plain.example.com",
        "xn--pypl-53dc.com",
        "paypal.com",
    ]

    def decode(batch: pa.Table) -> pa.Table:
        ids = [int(i) for i in batch["doc_id"].to_pylist()]
        hosts = [HOSTS[i % 5] for i in ids]
        decoded = [idna_decode_host(h) for h in hosts]
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(hosts, pa.string()),
                pa.array(decoded, pa.string()),
                pa.array(homoglyph_skeleton(decoded), pa.string()),
            ],
            names=["doc_id", "host", "decoded_host", "skeleton"],
        )

    out = ds.map_batches(decode, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_group_sample(sf_dir: str) -> pd.DataFrame:
    """Unbiased per-group sampling: at most 5 documents per language,
    chosen by splitmix64(doc_id + salt) rank — :func:`ops.segments.
    cap_per_key` over a hash order column instead of arrival order, so
    the per-domain/per-language eval-set draw is deterministic AND
    position-independent. Oracle replays the mix and the rank window."""
    from .ops.segments import cap_per_key
    from .ops.text import splitmix64_np

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])

    # int64 reinterpretation does NOT preserve uint64 order; flip the sign
    # bit so the signed sort order equals the unsigned hash order (the
    # engine's standard trick, cf. deterministic_shuffle).
    def add_key(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        hv = splitmix64_np(ids + np.uint64(41)) ^ np.uint64(1 << 63)
        return batch.append_column("hv", pa.array(hv.view(np.int64)))

    capped = cap_per_key(
        ds.map_batches(add_key, batch_format="pyarrow"),
        key_col="lang",
        k=5,
        order_cols=["hv", "doc_id"],
    )
    out = capped.select_columns(["lang", "doc_id"]).to_pandas()
    return out.sort_values(["lang", "doc_id"]).reset_index(drop=True)


def q_percentile_rank(sf_dir: str) -> pd.DataFrame:
    """Within-language percentile position of every document's n_chars
    (:func:`ops.segments.rank_per_key`): dense 1-based rank and group
    size as exact integers (callers derive rank/n; no floats cross the
    oracle). The quantile-normalization step quality-mixing pipelines
    apply before thresholding across languages."""
    from .ops.segments import rank_per_key

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    ranked = rank_per_key(
        ds,
        key_col="lang",
        within_cols=["n_chars", "doc_id"],
        carry_cols=["doc_id", "n_chars"],
    )
    # group sizes: a languages-sized aggregate, merged onto the rank rows
    sizes = ds.groupby("lang").count().to_pandas().rename(
        columns={"count()": "n_in_group"}
    )
    out = ranked.to_pandas().merge(sizes, on="lang")
    out["n_in_group"] = out["n_in_group"].astype("int64")
    return (
        out[["lang", "doc_id", "n_chars", "rank", "n_in_group"]]
        .sort_values(["lang", "rank"])
        .reset_index(drop=True)
    )


def q_mode_per_user(sf_dir: str) -> pd.DataFrame:
    """Per-user dominant event type (:func:`ops.segments.mode_per_key`):
    exact categorical mode with min-value tiebreak — the aggregate Ray
    Data lacks natively. Oracle: count + row_number argmax."""
    from .ops.segments import mode_per_key

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def as_str(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                pc.cast(batch["user_id"], pa.string()),
                batch["event_type"].combine_chunks(),
            ],
            names=["user_id", "event_type"],
        )

    out = mode_per_key(
        ds.map_batches(as_str, batch_format="pyarrow"),
        key_col="user_id",
        value_col="event_type",
    ).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def q_homoglyph_dedup(sf_dir: str) -> pd.DataFrame:
    """Spoofed-host detection via UTS#39-subset confusable skeletons
    (:func:`ops.urls.homoglyph_dedup`): every doc contributes host
    ``site{i%20}.example.com``; docs with i%6==0 contribute a spoofed
    variant with Cyrillic 'е'/'о' substituted. Spoof pairs share a
    skeleton and flag ``is_spoofed``; oracle replays the fold with SQL
    replace chains."""
    from .ops.urls import homoglyph_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        hosts = []
        for i in batch["doc_id"].to_pylist():
            i = int(i)
            h = f"site{i % 20}.example.com"
            if i % 6 == 0:
                h = h.replace("e", "е").replace("o", "о")
            hosts.append(h)
        return pa.Table.from_arrays([pa.array(hosts, pa.string())], names=["host"])

    out = homoglyph_dedup(ds.map_batches(synth, batch_format="pyarrow")).to_pandas()
    return out.sort_values(["skeleton", "host"]).reset_index(drop=True)


def q_politeness_schedule(sf_dir: str) -> pd.DataFrame:
    """Crawl-delay-aware fetch scheduling: per-host robots.txt bodies
    (Crawl-delay 1 + k%4 seconds for hosts k%3 != 0, default 1 for the
    rest) parsed by the RFC 9309 parser (:mod:`ops.robots`, round-4d
    Crawl-delay support), urls ranked within host
    (:func:`ops.segments.rank_per_key`), and each fetch slotted at
    ``(rank-1) · delay`` seconds. Oracle: closed-form delays +
    row_number."""
    import ray

    from .ops.robots import parse_robots
    from .ops.segments import rank_per_key

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    # per-host robots bodies (the tiny side: parse once, broadcast)
    delays = {}
    for k in range(10):
        body = "User-agent: *\nDisallow: /private/\n" + (
            f"Crawl-delay: {1 + k % 4}\n" if k % 3 != 0 else ""
        )
        pol = parse_robots(body, agent="graftbot")
        delays[f"site{k}"] = pol.crawl_delay if pol.crawl_delay is not None else 1
    dref = ray.put(delays)

    def synth(batch: pa.Table) -> pa.Table:
        ids = [int(i) for i in batch["doc_id"].to_pylist()]
        return pa.Table.from_arrays(
            [
                pa.array([f"site{i % 10}" for i in ids], pa.string()),
                pa.array([f"https://site{i % 10}/p/{i:08d}" for i in ids],
                         pa.string()),
            ],
            names=["host", "url"],
        )

    ranked = rank_per_key(
        ds.map_batches(synth, batch_format="pyarrow"),
        key_col="host",
        within_cols=["url"],
        carry_cols=["url"],
    )

    def slot(batch: pa.Table) -> pa.Table:
        d = ray.get(dref)
        hosts = batch["host"].to_pylist()
        ranks = batch["rank"].to_numpy(zero_copy_only=False)
        dl = np.fromiter((d[h] for h in hosts), dtype=np.int64, count=len(hosts))
        return batch.append_column(
            "slot_sec", pa.array((ranks - 1) * dl)
        )

    out = ranked.map_batches(slot, batch_format="pyarrow").to_pandas()
    return out.sort_values(["host", "rank"]).reset_index(drop=True)


def q_remove_dup_substrings(sf_dir: str) -> pd.DataFrame:
    """ExactSubstr REMOVAL (Lee et al. 2022): same boilerplate-suffixed
    corpus as substring_dup, but characters covered by any duplicated
    50-char window are deleted (:func:`ops.substr.remove_dup_substrings`).
    Oracle rebuilds each document character by character from the true
    SQL substring duplicate set — full end-to-end text identity."""
    from .ops.substr import remove_dup_substrings

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def with_bp(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        out = [
            (t or "") + _BOILERPLATE if i % 3 == 0 else (t or "")
            for i, t in zip(ids, batch["text"].to_pylist())
        ]
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(out, pa.string())],
            names=["doc_id", "text"],
        )

    corpus = ds.map_batches(with_bp, batch_format="pyarrow")
    out = remove_dup_substrings(corpus).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_redact_contaminated(sf_dir: str) -> pd.DataFrame:
    """Span-level decontamination (:func:`ops.text.redact_contaminated`):
    the benchmark is the 8-gram at token positions 6–13 of every tenth
    document; matching spans are excised everywhere they occur, the rest
    of each document survives. Oracle replays gram extraction, position
    marking, and the surviving-token re-join in SQL."""
    from .ops.text import redact_contaminated

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    import duckdb  # only to derive the planted benchmark deterministically

    bench_df = duckdb.sql(
        f"""
        SELECT array_to_string(list_slice(
                   regexp_extract_all(lower(text), '\\S+'), 6, 13), ' ') AS g
        FROM read_parquet('{sf_dir}/documents.parquet')
        WHERE doc_id % 10 = 0
          AND len(regexp_extract_all(lower(text), '\\S+')) >= 13
        """
    ).df()
    bench = sorted(set(bench_df["g"].tolist()))
    out = redact_contaminated(ds, bench).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_lang_spans(sf_dir: str) -> pd.DataFrame:
    """Per-document language span segmentation
    (:func:`ops.text.lang_spans_batch`): every doc becomes six lines —
    two English, two German, then two Hebrew (even ids) or English (odd)
    — and must segment into exactly three monolingual spans. Real
    per-line scoring + run-length merge, zero exchanges; oracle is the
    closed-form span table."""
    from .ops.text import lang_spans_batch

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    EN = "the and was at be"
    DE = "der die das auf den"
    HE = "שלום עולם"

    def synth(batch: pa.Table) -> pa.Table:
        ids = [int(i) for i in batch["doc_id"].to_pylist()]
        texts = [
            "\n".join([EN, EN, DE, DE] + ([HE, HE] if i % 2 == 0 else [EN, EN]))
            for i in ids
        ]
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(texts, pa.string())],
            names=["doc_id", "text"],
        )

    out = (
        ds.map_batches(synth, batch_format="pyarrow")
        .map_batches(lang_spans_batch, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values(["doc_id", "span_start"]).reset_index(drop=True)


def q_snapshot_delta(sf_dir: str) -> pd.DataFrame:
    """Delta-encode changed recrawl captures (:mod:`ops.delta`): same
    old/new construction as snapshot_edit_distance ('a'→'@' rewrites on
    doc_id%3), greedy block-match diff + reconstruction per changed url.
    The oracle byte-compares the RECONSTRUCTED text against the
    independently computed new capture — end-to-end encode/decode
    verification, nothing self-certified."""
    from .ops.delta import snapshot_delta

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def side(old: bool):
        def fn(batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch["doc_id"].to_numpy())
            keep = (ids % 5 != 0) if old else (ids % 7 != 0)
            texts = batch["text"].to_pylist()
            urls, out = [], []
            for i, t, k in zip(ids, texts, keep):
                if not k:
                    continue
                t = (t or "")[:1000]
                urls.append(f"doc://{i:08d}")
                out.append(t if old or i % 3 else t.replace("a", "@"))
            return pa.Table.from_arrays(
                [pa.array(urls, pa.string()), pa.array(out, pa.string())],
                names=["url", "text"],
            )

        return fn

    old_ds = docs.map_batches(side(True), batch_format="pyarrow")
    new_ds = docs.map_batches(side(False), batch_format="pyarrow")
    df = (
        snapshot_delta(old_ds, new_ds)
        .select_columns(["url", "reconstructed", "bytes_new"])
        .to_pandas()
    )
    return df.sort_values("url").reset_index(drop=True)


def q_http_stats(sf_dir: str) -> pd.DataFrame:
    """Crawl-health histogram from raw WARC archives
    (:func:`sources.warc.http_stats_batch`): doc i is archived as an HTTP
    reply with status by ``i % 5`` (200/200/301/404/500) and media type by
    ``i % 3``; per-block pre-combined (status, mime) partials fold through
    one tiny groupby. Statuses/types are read back from the embedded
    HTTP/1.1 headers, not trusted metadata — oracle is the closed form."""
    import functools

    from ray.data.aggregate import Sum

    from .sources.warc import http_stats_batch, records_to_warc

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    STATUSES = [200, 200, 301, 404, 500]
    CTYPES = ["text/html; charset=utf-8", "application/pdf", "text/plain"]

    def to_warc(batch: pa.Table) -> pa.Table:
        ids = [int(i) for i in batch["doc_id"].to_pylist()]
        blobs = []
        for k in range(0, len(ids), 16):
            chunk = ids[k : k + 16]
            blobs.append(
                records_to_warc(
                    [f"doc://{i:08d}" for i in chunk],
                    [i * 1_000_000 for i in chunk],
                    [f"payload {i}".encode() for i in chunk],
                    compress=(k % 32 == 0),
                    statuses=[STATUSES[i % 5] for i in chunk],
                    content_types=[CTYPES[i % 3] for i in chunk],
                )
            )
        return pa.Table.from_arrays([pa.array(blobs, pa.binary())], names=["warc"])

    out = (
        ds.map_batches(to_warc, batch_format="pyarrow")
        .map_batches(http_stats_batch, batch_format="pyarrow")
        .groupby(["http_status", "mime"])
        .aggregate(Sum("cnt", alias_name="n"))
        .to_pandas()
    )
    return out.sort_values(["http_status", "mime"]).reset_index(drop=True)


def q_wat_roundtrip(sf_dir: str) -> pd.DataFrame:
    """Pages → WAT metadata records (Common Crawl's third archive product:
    a ``metadata``-type WARC record per page carrying a canonical JSON
    envelope with the header echo, head title, and href list) → parse back
    (:func:`sources.warc.wat_encode_batch` / ``wat_decode_batch``).
    Title (entity-resolved) and link count are closed-form from doc_id, so
    the oracle is ground truth through the whole JSON+WARC roundtrip."""
    import functools

    from .sources.warc import wat_decode_batch, wat_encode_batch

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        urls, ts, htmls = [], [], []
        for i in ids:
            i = int(i)
            links = "".join(
                f'<a href="https://t{j}.example.com/p">x</a>' for j in range(i % 3)
            )
            htmls.append(
                f"<html><head><title>Doc {i} &amp; Co</title></head>"
                f"<body>{links}</body></html>".encode()
            )
            urls.append(f"doc://{i:08d}")
            ts.append(1_767_225_600_000_000 + i * 1_000_000)
        return pa.Table.from_arrays(
            [
                pa.array(urls, pa.string()),
                pa.array(np.asarray(ts, dtype=np.int64)).cast(pa.timestamp("us")),
                pa.array(htmls, pa.binary()),
            ],
            names=["url", "warc_ts", "html"],
        )

    blobs = ds.map_batches(synth, batch_format="pyarrow").map_batches(
        functools.partial(wat_encode_batch, compress="mixed"),
        batch_format="pyarrow",
    )
    out = blobs.map_batches(wat_decode_batch, batch_format="pyarrow").to_pandas()
    return out.sort_values("url").reset_index(drop=True)


def q_warc_roundtrip(sf_dir: str) -> pd.DataFrame:
    """Pages → WARC/1.0 archive blobs (gzip member per record — the Common
    Crawl layout — alternating with plain concatenation to cover both parse
    paths) → from-scratch WARC parse (Content-Length-exact, binary-safe,
    sha1 payload-digest verified) → the extraction pipeline. Oracle:
    byte-identical text per doc PLUS url and second-granular warc_ts carried
    through the WARC headers themselves."""
    import functools

    from .sources.warc import warc_decode_batch, warc_encode_batch
    from .stages.extract import extract_batch
    from .stages.normalize import normalize_route

    pages = wrap_documents_as_pages(sf_dir, pdf_every=0)
    blobs = pages.select_columns(["url", "warc_ts", "html"]).map_batches(
        functools.partial(warc_encode_batch, compress="mixed"),
        batch_format="pyarrow",
    )
    decoded = blobs.map_batches(warc_decode_batch, batch_format="pyarrow")
    extracted = decoded.map_batches(
        normalize_route, batch_format="pyarrow"
    ).map_batches(extract_batch, batch_format="pyarrow")

    def project(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        return pa.Table.from_arrays(
            [
                pa.array([int(u.rsplit("/", 1)[-1]) for u in urls], pa.int64()),
                batch["url"],
                batch["warc_ts"],
                batch["extracted_text"],
            ],
            names=["doc_id", "url", "warc_ts", "extracted_text"],
        )

    df = extracted.map_batches(project, batch_format="pyarrow").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_wet_roundtrip(sf_dir: str) -> pd.DataFrame:
    """WET (extracted-text ``conversion`` records — the Common Crawl text
    product): docs serialize to WET blobs (text/plain payloads, no HTTP
    wrapper, mixed gzip/plain members) and parse back through the
    type-filtered decode path. Byte-identity oracle on text + url."""
    import functools

    from .sources.warc import warc_decode_batch, warc_encode_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def to_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        return pa.Table.from_arrays(
            [
                pa.array([f"doc://{i:08d}" for i in ids], pa.string()),
                pa.array(
                    [1_767_225_600_000_000 + i * 1_000_000 for i in ids],
                    pa.timestamp("us"),
                ),
                pa.array([t.encode() for t in texts], pa.binary()),
            ],
            names=["url", "warc_ts", "payload"],
        )

    blobs = ds.map_batches(to_rows, batch_format="pyarrow").map_batches(
        functools.partial(
            warc_encode_batch,
            compress="mixed",
            payload_col="payload",
            record_type="conversion",
            content_type="text/plain",
        ),
        batch_format="pyarrow",
    )
    decoded = blobs.map_batches(
        functools.partial(warc_decode_batch, types=("conversion",)),
        batch_format="pyarrow",
    )

    def project(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        return pa.Table.from_arrays(
            [
                pa.array([int(u.rsplit("/", 1)[-1]) for u in urls], pa.int64()),
                batch["url"],
                pa.array(
                    [bytes(b).decode() for b in batch["html"].to_pylist()],
                    pa.string(),
                ),
            ],
            names=["doc_id", "url", "text"],
        )

    df = decoded.map_batches(project, batch_format="pyarrow").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_extract_charset(sf_dir: str) -> pd.DataFrame:
    """Charset-diverse corpus: each page's HTML is encoded rotating through
    utf-8, utf-16-le/be (BOM), and windows-1252 (one variant labeled
    ``ISO-8859-1`` — the WHATWG alias trap: web latin1 IS cp1252), with a
    non-ASCII probe (``— résumé €``: cp1252 0x97/0xE9/0x80) appended to the
    body so a wrong decode cannot produce the right bytes. The decode stage
    sniffs (BOM > meta scan > utf-8 default), re-encodes utf-8, and the
    normal extraction runs downstream. Oracle: byte-identity on
    text+probe, plus the sniffed charset per doc."""
    from .functions.charset import encode_html, decode_pages_batch
    from .stages.extract import extract_batch
    from .stages.normalize import normalize_route

    probe = " — résumé €"
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def to_pages(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        payloads = []
        for i, t in zip(ids, texts):
            body = _WRAP_PREFIX + t + probe + _WRAP_SUFFIX
            mode = i % 5
            if mode == 0:
                payloads.append(encode_html(body, "utf-8"))
            elif mode == 1:
                payloads.append(encode_html(body, "utf-16-le", with_bom=True))
            elif mode == 2:
                payloads.append(encode_html(body, "utf-16-be", with_bom=True))
            elif mode == 3:
                labeled = body.replace(
                    "<head>", '<head><meta charset="ISO-8859-1">', 1
                )
                payloads.append(encode_html(labeled, "windows-1252"))
            else:
                labeled = body.replace(
                    "<head>",
                    '<head><meta http-equiv="Content-Type" '
                    'content="text/html; charset=windows-1252">',
                    1,
                )
                payloads.append(encode_html(labeled, "windows-1252"))
        return pa.Table.from_arrays(
            [
                pa.array([f"doc://{i:08d}" for i in ids], pa.string()),
                pa.array(payloads, pa.binary()),
            ],
            names=["url", "html"],
        )

    out = (
        ds.map_batches(to_pages, batch_format="pyarrow")
        .map_batches(decode_pages_batch, batch_format="pyarrow")
        .map_batches(normalize_route, batch_format="pyarrow")
        .map_batches(extract_batch, batch_format="pyarrow")
    )

    def project(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        return pa.Table.from_arrays(
            [
                pa.array([int(u.rsplit("/", 1)[-1]) for u in urls], pa.int64()),
                batch["charset"],
                batch["extracted_text"],
            ],
            names=["doc_id", "charset", "extracted_text"],
        )

    df = out.map_batches(project, batch_format="pyarrow").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


_WILD_TRAITS = [
    "comments", "scripts", "markedsec", "misnest", "entities", "attrs",
    "controls", "charset_lie", "deep_nest", "layout_tables", "double_doc",
    "rawtext_traps", "truncated", "bom_controls",
]
_N_WILD = len(_WILD_TRAITS)

_WILD_HEAD = "<head><title>doc</title></head>"
_WILD_NAV = (
    '<nav><a href="/h">Home</a> <a href="/a">About</a> '
    '<a href="/c">Contact</a></nav>'
)
_WILD_FOOT = "<footer>(c) 2026 Example Corp legal privacy</footer>"


def _wild_payload(i: int, t: str) -> bytes:
    """Deterministic WILD-HTML payload for doc ``i``: twelve hostile
    markup shapes real crawl pages exhibit (comment/script traps, marked
    sections, misnesting, entity and attribute hazards, NUL/control
    bytes, charset lies, deep nesting, layout tables, concatenated
    documents, raw-text-element traps, EOF truncation, BOM/control
    noise) — each built so that correct main-content extraction
    recovers ``t`` byte-exactly. The engine's analogue of the
    reference's real-PDF integration corpus (reference:
    tests/test_pdfs/, run_integration_tests.py:1-188)."""
    v = i % _N_WILD
    if v == 0:
        body = (
            "<!-- <p>commented fake paragraph content long enough</p> -->"
            f"<p>{t}</p>"
            "<!--[if IE 6]><p>internet explorer six junk block</p>"
            "<![endif]-->"
        )
    elif v == 1:
        body = (
            '<script type="text/javascript">document.write("<p>js junk '
            'paragraph</p>");var s="<\\/script>";</script>'
            '<style>p::before{content:"<b>sneak</b>"}</style>'
            f"<p>{t}</p>"
            "<script>/* trailing <div>commented markup</div> */</script>"
        )
    elif v == 2:
        return (
            '<?xml version="1.0" encoding="utf-8"?>'
            '<!DOCTYPE html PUBLIC "-//W3C//DTD XHTML 1.0 Strict//EN" '
            '"http://www.w3.org/TR/xhtml1/DTD/xhtml1-strict.dtd">'
            f'<html xmlns="http://www.w3.org/1999/xhtml">{_WILD_HEAD}'
            f"<body>{_WILD_NAV}"
            "<![CDATA[ <p>cdata junk paragraph content here</p> ]]>"
            f"<p>{t}</p>"
            "<![INCLUDE[ <p>include junk paragraph content</p> ]]>"
            f"{_WILD_FOOT}</body></html>"
        ).encode()
    elif v == 3:
        body = (
            "<div><nav><b>menu junk</b><p>unclosed nav paragraph junk"
            f"</nav><p>{t}"
            '<div class="footer">footer junk paragraph long enough</div>'
        )
    elif v == 4:
        body = (
            '<div class="menu">&amp; &#8212; &nbsp; &fake; & &lt;li&gt;'
            f"</div><p>{t}</p>"
            '<ul class="nav"><li>&copy;&copy;</li></ul>'
        )
    elif v == 5:
        body = (
            '<div class="a>b" data-x=\'q>r\'>'
            f'<p title="<not a tag>" align=left align=right>{t}</p></div>'
            '<div data-u="unquoted>gt" im=g>short</div>'
        )
    elif v == 6:
        body = (
            f'<p\x00 class="x">{t}</p>\x0c\x00'
            '<div class="menu">junk\x00null</div>\x0b'
        )
    elif v == 7:
        return (
            '<html><head><meta charset="utf-8">'
            "<title>Café résumé</title></head>"
            f"<body>{_WILD_NAV}<p>{t}</p>"
            "<footer>© 2026 Café Corp — règles</footer></body></html>"
        ).encode("windows-1252")
    elif v == 8:
        body = "<div>" * 120 + f"<p>{t}</p>" + "</div>" * 120
    elif v == 9:
        body = (
            "<table><tr><td><table><tr><td>"
            f"<p>{t}</p>"
            "</td></tr></table></td></tr></table>"
        )
    elif v == 10:
        body = (
            f"<p>{t}</p>{_WILD_FOOT}</body></html>"
            "<html><head><title>dup</title></head><body>"
            '<nav><a href="/m">menu one</a> <a href="/n">menu two</a></nav>'
        )
        return (f"<html>{_WILD_HEAD}<body>{_WILD_NAV}{body}").encode()
    elif v == 12:
        # crawl truncation: the payload ends mid-construct AFTER the
        # content (rotating cut shapes: mid-footer text, mid-attribute,
        # mid-tag-name, mid-entity).
        cut = (
            "<footer>(c) 2026 Example Corp le",
            '<div class="trailing-junk-class-name',
            "<foote",
            "<p>&#40 &am",
        )[(i // _N_WILD) % 4]
        return (
            f"<html>{_WILD_HEAD}<body>{_WILD_NAV}<p>{t}</p>{cut}"
        ).encode()
    elif v == 13:
        page = (
            f"<html>{_WILD_HEAD}<body>\r\n{_WILD_NAV}\r\n<p>{t}</p>\x7f"
            '<div class="menu">j\x07unk&#0;</div>\r\n'
            f"{_WILD_FOOT}</body></html>"
        )
        return b"\xef\xbb\xbf" + page.encode()
    else:
        body = (
            "<form><textarea rows=3><p>textarea junk paragraph content</p>"
            "</textarea></form>"
            '<svg viewBox="0 0 10 10"><text x="1" y="1">svg junk</text></svg>'
            "<template><p>template junk paragraph content</p></template>"
            f"<p>{t}</p>"
            '<iframe srcdoc="<p>iframe junk paragraph</p>"></iframe>'
        )
    return (
        f"<html>{_WILD_HEAD}<body>{_WILD_NAV}{body}{_WILD_FOOT}"
        "</body></html>"
    ).encode()


def q_wild_pages(sf_dir: str) -> pd.DataFrame:
    """WILD-HTML integration shard (round 5): every document becomes one
    of twelve genuinely hostile markup shapes (:func:`_wild_payload`),
    travels the FULL crawl path — WARC gzip-member encode → WARC parse
    (digest-checked) → charset sniff/decode → route → extract — and must
    come back byte-identical to ``documents.text``. This mirrors the one
    reference test tier not yet fixtured here: its real-PDF integration
    corpus (reference: run_integration_tests.py:1-188). Oracle: the text
    column plus the closed-form trait label."""
    from .functions.charset import decode_pages_batch
    from .sources.warc import warc_decode_batch, warc_encode_batch
    from .stages.extract import extract_batch
    from .stages.normalize import normalize_route

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def to_pages(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        return pa.Table.from_arrays(
            [
                pa.array([f"doc://{i:08d}" for i in ids], pa.string()),
                pa.array(
                    [1_767_225_600_000_000 + i * 1_000_000 for i in ids],
                    pa.timestamp("us"),
                ),
                pa.array(
                    [_wild_payload(i, t) for i, t in zip(ids, texts)],
                    pa.binary(),
                ),
            ],
            names=["url", "warc_ts", "html"],
        )

    out = (
        ds.map_batches(to_pages, batch_format="pyarrow")
        .map_batches(
            lambda b: warc_encode_batch(b, compress="mixed"),
            batch_format="pyarrow",
        )
        .map_batches(warc_decode_batch, batch_format="pyarrow")
        .map_batches(decode_pages_batch, batch_format="pyarrow")
        .map_batches(normalize_route, batch_format="pyarrow")
        .map_batches(extract_batch, batch_format="pyarrow")
    )

    def project(batch: pa.Table) -> pa.Table:
        ids = [int(u.rsplit("/", 1)[-1]) for u in batch["url"].to_pylist()]
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array([_WILD_TRAITS[i % _N_WILD] for i in ids], pa.string()),
                batch["extracted_text"],
            ],
            names=["doc_id", "trait", "extracted_text"],
        )

    df = out.map_batches(project, batch_format="pyarrow").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


_WILD_PDF_TRAITS = [
    "clean", "trailing_garbage", "leading_junk", "comments",
    "nul_padding", "truncated_xref", "bad_startxref", "incremental",
]


def _append_incremental_update(base: bytes) -> bytes:
    """Append a spec-shaped incremental update (new object + classic
    xref section with ``/Prev`` chaining to the previous table) — the
    crawl shape edited-then-resaved PDFs have. Content untouched, so
    extraction must not change."""
    import re as _re

    prev = int(list(_re.finditer(rb"startxref\s+(\d+)", base))[-1].group(1))
    maxnum = max(
        int(m.group(1)) for m in _re.finditer(rb"(\d+)\s+\d+\s+obj\b", base)
    )
    newnum = maxnum + 1
    off = len(base)
    obj = b"%d 0 obj\n<< /Type /CrawlNote /Seq 1 >>\nendobj\n" % newnum
    xref_pos = off + len(obj)
    return base + obj + (
        b"xref\n0 1\n0000000000 65535 f \n%d 1\n%010d 00000 n \n"
        b"trailer\n<< /Size %d /Root 1 0 R /Prev %d >>\nstartxref\n%d\n%%%%EOF\n"
        % (newnum, off, newnum + 1, prev, xref_pos)
    )


def _wild_pdf_payload(i: int, text: str) -> bytes:
    """Crawl-damaged-but-recoverable real-PDF payload for doc ``i``:
    seven damage shapes harvested crawls exhibit, over a base PDF whose
    compression / operator style / xref form rotate with the doc id.
    Every shape must extract byte-identically (trailing garbage and
    comments are ignored per spec; leading junk re-bases at the header
    per the Adobe implementation note; offset-breaking NUL padding,
    missing trailers, and bogus startxref all land in the brute-force
    object-scan fallback)."""
    from .functions.pdf_codec import build_pdf

    v = i % 8
    base = build_pdf(
        text,
        compress=bool(i % 2),
        style=("tm", "td", "tstar")[i % 3],
        # incremental updates append a CLASSIC xref section, which the
        # spec only chains onto table-form files.
        xref_kind="table" if v == 7 else
        ("table", "stream", "objstm")[(i // 8) % 3],
    )
    if v == 7:
        return _append_incremental_update(base)
    if v == 1:
        return base + b"\x00\x12<junk after eof>\xff" * 8
    if v == 2:
        return (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/pdf\r\n\r\n"
            + base
        )
    if v == 3:
        return base.replace(
            b"endobj\n", b"endobj\n% crawl-inserted comment line\n", 3
        )
    if v == 4:
        return base.replace(b"endobj\n", b"endobj\n\x00\x00\x00\x00\n", 2)
    if v == 5:
        return base[: base.rfind(b"startxref")]
    if v == 6:
        return base.replace(
            b"startxref\n", b"startxref\n99999999\n% bogus\n", 1
        )
    return base


def q_wild_pdfs(sf_dir: str) -> pd.DataFrame:
    """Crawl-damaged real-PDF integration shard (round 5): every
    document becomes one of seven damaged-but-recoverable PDF shapes
    (:func:`_wild_pdf_payload`) and runs the FULL extraction pipeline;
    output must equal ``documents.text`` byte-exactly — the PDF-route
    twin of Q ``wild_pages``, and the closest analogue of the
    reference's real-PDF integration corpus
    (reference: run_integration_tests.py:1-188)."""
    from .pipelines.extract import extraction_pipeline

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def to_pages(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        langs = batch["lang"].to_pylist()
        return pa.Table.from_arrays(
            [
                pa.array([f"doc://{i:08d}" for i in ids], pa.string()),
                pa.array(
                    [1_767_225_600_000_000 + i * 1_000_000 for i in ids],
                    pa.timestamp("us"),
                ),
                pa.array(
                    [_wild_pdf_payload(i, t) for i, t in zip(ids, texts)],
                    pa.binary(),
                ),
                pa.array(texts, pa.string()),
                pa.array(langs, pa.string()),
                pa.array(ids, pa.int64()),
            ],
            names=["url", "warc_ts", "html", "text", "lang", "doc_id"],
        )

    out = extraction_pipeline(
        ds.map_batches(to_pages, batch_format="pyarrow")
    )
    df = out.select_columns(["doc_id", "extracted_text"]).to_pandas()
    df["trait"] = [
        _WILD_PDF_TRAITS[int(i) % 8] for i in df["doc_id"]
    ]
    return (
        df[["doc_id", "trait", "extracted_text"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_publish_dates(sf_dir: str) -> pd.DataFrame:
    """Publication-date extraction (round 5,
    :func:`functions.metadata.extract_publish_date` — the htmldate/
    trafilatura precedence ladder restated as an exact rule): six page
    shapes per doc — meta article:published_time (with a CONFLICTING
    ``<time>`` the ladder must outrank), JSON-LD datePublished, a
    ``<time datetime>`` element, a date-bearing URL path, no date at
    all, and an IMPLAUSIBLE meta date (year 3000) that must fall
    through to the valid ``<time>`` rung. Dates are closed-form in
    doc_id; the oracle restates ladder + dates in SQL."""
    from .functions.metadata import publish_date_batch

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_pages(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        urls, htmls = [], []
        for i in ids:
            y, mo, d = 1995 + i % 30, 1 + i % 12, 1 + i % 28
            date = f"{y:04d}-{mo:02d}-{d:02d}"
            v = i % 6
            url = f"https://news.example.com/p/{i}"
            body = "<p>article body text</p>"
            if v == 0:
                page = (
                    f'<html><head><meta property="article:published_time" '
                    f'content="{date}T09:30:00Z"></head><body>'
                    f'<time datetime="1999-01-01">wrong</time>{body}'
                    "</body></html>"
                )
            elif v == 1:
                page = (
                    '<html><head><script type="application/ld+json">'
                    f'{{"@type": "NewsArticle", "datePublished": "{date}"}}'
                    f"</script></head><body>{body}</body></html>"
                )
            elif v == 2:
                page = (
                    f"<html><body><time datetime=\"{date}T07:00\">then"
                    f"</time>{body}</body></html>"
                )
            elif v == 3:
                url = f"https://news.example.com/{y:04d}/{mo:02d}/story-{i}"
                page = f"<html><body>{body}</body></html>"
            elif v == 4:
                page = f"<html><body>{body}</body></html>"
            else:
                page = (
                    '<html><head><meta name="date" content="3000-01-01">'
                    f'</head><body><time datetime="{date}">ok</time>{body}'
                    "</body></html>"
                )
            urls.append(url)
            htmls.append(page.encode())
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(urls, pa.string()),
                pa.array(htmls, pa.binary()),
            ],
            names=["doc_id", "url", "html"],
        )

    out = ds.map_batches(to_pages, batch_format="pyarrow").map_batches(
        publish_date_batch, batch_format="pyarrow"
    )
    df = out.to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


_SPAN_PRE = (
    '<html><head><title>d</title></head><body>'
    '<nav><a href="/h">Home</a> <a href="/a">About</a></nav>'
)
_SPAN_SUF = "<footer>(c) 2026 Example Corp legal</footer></body></html>"


def q_extract_spans(sf_dir: str) -> pd.DataFrame:
    """Span-level extraction provenance (round 5,
    :func:`functions.html_extract.extract_html_spans` — the north
    star's "reconciles extracted SPANS against the provided text
    column"): each document renders as two paragraphs (the sections_pdf
    word split) inside the boilerplate shell; the extractor must report,
    per kept block, the exact raw-source char span such that
    ``html[start:end] == block text``. The query verifies the slice
    identity in-stage (raising on any mismatch) and emits the offsets;
    the oracle recomputes them arithmetically from the wrap shape."""
    from .functions.html_extract import extract_html_spans

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def spans(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out_id, out_idx, out_s, out_e, out_c = [], [], [], [], []
        for i, t in zip(ids, texts):
            ws = t.split()
            mid = (len(ws) + 1) // 2
            h1, h2 = " ".join(ws[:mid]), " ".join(ws[mid:])
            html = f"{_SPAN_PRE}<p>{h1}</p><p>{h2}</p>{_SPAN_SUF}"
            for idx, (kind, s, e, txt) in enumerate(
                extract_html_spans(html)
            ):
                if html[s:e] != txt:  # provenance contract, enforced
                    raise AssertionError(
                        f"span mismatch doc {i}: {html[s:e]!r} != {txt!r}"
                    )
                out_id.append(i)
                out_idx.append(idx)
                out_s.append(s)
                out_e.append(e)
                out_c.append(txt)
        return pa.Table.from_arrays(
            [
                pa.array(out_id, pa.int64()),
                pa.array(out_idx, pa.int32()),
                pa.array(out_s, pa.int64()),
                pa.array(out_e, pa.int64()),
                pa.array(out_c, pa.string()),
            ],
            names=["doc_id", "block_idx", "span_start", "span_end", "content"],
        )

    df = ds.map_batches(spans, batch_format="pyarrow").to_pandas()
    return df.sort_values(["doc_id", "block_idx"]).reset_index(drop=True)


_WORLD_CHARSETS = [
    # (meta label as pages write it, canonical decode, body probe)
    ("shift_jis", "shift_jis", " 日本語のテキスト"),
    ("EUC-JP", "euc_jp", " 日本語"),
    ("gb2312", "gbk", " 中文网页"),  # WHATWG: gb2312 label decodes as GBK
    ("Big5", "big5", " 中文字"),
    ("euc-kr", "euc_kr", " 한국어 텍스트"),
    ("windows-1251", "windows-1251", " Русский текст"),
    ("KOI8-R", "koi8-r", " Русский"),
    ("iso-8859-7", "iso-8859-7", " Ελληνικά"),
    ("ISO-8859-9", "windows-1254", " Türkçe sayfa ğış"),
    ("windows-1256", "windows-1256", " نص عربي"),
]


def q_charset_world(sf_dir: str) -> pd.DataFrame:
    """World-charset decode (round 5): the crawl-significant WHATWG
    label rows beyond the round-2 utf/cp1252 set — Shift_JIS, EUC-JP,
    GBK (via the ``gb2312`` alias trap), Big5, EUC-KR, windows-1251,
    KOI8-R, ISO-8859-7, the ISO-8859-9→windows-1254 WHATWG remap, and
    windows-1256 — each page body carrying a native-script probe that a
    wrong decode cannot reproduce. Same sniff→decode→extract chain as
    Q ``extract_charset``; oracle restates label→canonical and
    text+probe per bucket."""
    from .functions.charset import decode_pages_batch, encode_html
    from .stages.extract import extract_batch
    from .stages.normalize import normalize_route

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def to_pages(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        payloads = []
        for i, t in zip(ids, texts):
            label, enc, probe = _WORLD_CHARSETS[i % 10]
            body = (
                f'<html><head><meta charset="{label}"><title>d</title>'
                f"</head><body><article><p>{t}{probe}</p></article>"
                "</body></html>"
            )
            payloads.append(encode_html(body, enc))
        return pa.Table.from_arrays(
            [
                pa.array([f"doc://{i:08d}" for i in ids], pa.string()),
                pa.array(payloads, pa.binary()),
            ],
            names=["url", "html"],
        )

    out = (
        ds.map_batches(to_pages, batch_format="pyarrow")
        .map_batches(decode_pages_batch, batch_format="pyarrow")
        .map_batches(normalize_route, batch_format="pyarrow")
        .map_batches(extract_batch, batch_format="pyarrow")
    )

    def project(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        return pa.Table.from_arrays(
            [
                pa.array(
                    [int(u.rsplit("/", 1)[-1]) for u in urls], pa.int64()
                ),
                batch["charset"],
                batch["extracted_text"],
            ],
            names=["doc_id", "charset", "extracted_text"],
        )

    df = out.map_batches(project, batch_format="pyarrow").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


_HTTP_CODINGS = ["identity", "chunked", "gzip", "deflate", "gzip+chunked"]


def q_http_codings(sf_dir: str) -> pd.DataFrame:
    """As-captured HTTP response codings (round 5, :mod:`sources.warc`):
    each document's text rides a WARC response record whose HTTP body is
    stored exactly as a crawler captures it — identity, chunked
    transfer framing, gzip or deflate content-encoding, or gzip THEN
    chunked (the wire order) — rotating by ``doc_id%5``. The parser
    verifies the payload digest over the STORED bytes (per spec), then
    de-chunks and decompresses; the body must round-trip byte-exactly.
    br/zstd stay typed-unsupported (no stdlib codec)."""
    from .sources.warc import parse_warc, records_to_warc

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def roundtrip(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        blob = records_to_warc(
            [f"doc://{i:08d}" for i in ids],
            [1_767_225_600_000_000 + i * 1_000_000 for i in ids],
            [t.encode() for t in texts],
            compress=True,
            http_codings=[_HTTP_CODINGS[i % 5] for i in ids],
        )
        out_id, out_c, out_t = [], [], []
        for rec in parse_warc(blob):
            if not rec["digest_ok"]:
                raise AssertionError(f"digest mismatch for {rec['url']}")
            out_id.append(int(rec["url"].rsplit("/", 1)[-1]))
            out_c.append(rec["http_coding"])
            out_t.append(rec["payload"].decode())
        return pa.Table.from_arrays(
            [
                pa.array(out_id, pa.int64()),
                pa.array(out_c, pa.string()),
                pa.array(out_t, pa.string()),
            ],
            names=["doc_id", "coding", "body"],
        )

    df = ds.map_batches(roundtrip, batch_format="pyarrow").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_warc_salvage(sf_dir: str) -> pd.DataFrame:
    """Corrupt-archive salvage (round 5,
    :func:`sources.warc.parse_warc_salvage`): each document's 8-record
    gzip-member WARC blob is damaged by bucket — clean, a bit-flip in
    the middle of member 3 (CRC catches it), the final member truncated
    halfway, or member 0's WARC version line mangled inside a valid
    gzip member — and the tolerant walk must recover every intact
    record (the Common-Crawl reality: archives contain rotten members;
    a reader that dies on one loses the shard). Census per doc:
    recovered/lost counts and recovered chars, closed form."""
    from .sources.warc import _gzip_member, build_record, parse_warc_salvage

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def salvage(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out_id, out_ok, out_lost, out_chars = [], [], [], []
        for i, t in zip(ids, texts):
            recs = [
                build_record(
                    f"doc://{i:08d}/{j}",
                    1_767_225_600_000_000 + i * 1_000_000 + j,
                    t.encode(),
                )
                for j in range(8)
            ]
            members = [_gzip_member(r) for r in recs]
            v = i % 4
            if v == 1:
                m = bytearray(members[3])
                m[len(m) // 2] ^= 0xFF
                members[3] = bytes(m)
            elif v == 2:
                members[7] = members[7][: len(members[7]) // 2]
            elif v == 3:
                members[0] = _gzip_member(
                    recs[0].replace(b"WARC/1.0", b"WARC/9.9", 1)
                )
            got = parse_warc_salvage(b"".join(members))
            for r in got:  # survivors must be byte-exact, not just counted
                if r["payload"] != t.encode() or not r["digest_ok"]:
                    raise AssertionError(f"salvaged record corrupt, doc {i}")
            out_id.append(i)
            out_ok.append(len(got))
            out_lost.append(8 - len(got))
            out_chars.append(sum(len(r["payload"]) for r in got))
        return pa.Table.from_arrays(
            [
                pa.array(out_id, pa.int64()),
                pa.array(out_ok, pa.int64()),
                pa.array(out_lost, pa.int64()),
                pa.array(out_chars, pa.int64()),
            ],
            names=["doc_id", "n_ok", "n_lost", "recovered_chars"],
        )

    df = ds.map_batches(salvage, batch_format="pyarrow").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_wild_mixed(sf_dir: str) -> pd.DataFrame:
    """The capstone wild-crawl integration shard (round 5): ONE corpus
    interleaving all three hostile families — wild-HTML markup
    (``doc%3==0``, :func:`_wild_payload`), crawl-damaged real PDFs
    (``doc%3==1``, :func:`_wild_pdf_payload`, incl. leading-junk
    binaries the charset stage must NOT re-encode), and world-charset
    pages (``doc%3==2``, native-script probes) — through one
    decode → route → extract chain. Byte-identity per family; the
    closest single-query analogue of pointing the engine at a real
    crawl shard."""
    from .functions.charset import decode_pages_batch
    from .stages.extract import extract_batch
    from .stages.normalize import normalize_route

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def to_pages(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        payloads = []
        for i, t in zip(ids, texts):
            m = i % 3
            if m == 0:
                payloads.append(_wild_payload(i, t))
            elif m == 1:
                payloads.append(_wild_pdf_payload(i, t))
            else:
                from .functions.charset import encode_html

                label, enc, probe = _WORLD_CHARSETS[i % 10]
                payloads.append(
                    encode_html(
                        f'<html><head><meta charset="{label}"></head>'
                        f"<body><article><p>{t}{probe}</p></article>"
                        "</body></html>",
                        enc,
                    )
                )
        return pa.Table.from_arrays(
            [
                pa.array([f"doc://{i:08d}" for i in ids], pa.string()),
                pa.array(payloads, pa.binary()),
            ],
            names=["url", "html"],
        )

    out = (
        ds.map_batches(to_pages, batch_format="pyarrow")
        .map_batches(decode_pages_batch, batch_format="pyarrow")
        .map_batches(normalize_route, batch_format="pyarrow")
        .map_batches(extract_batch, batch_format="pyarrow")
    )

    def project(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        ids = [int(u.rsplit("/", 1)[-1]) for u in urls]
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(
                    [["html", "pdf", "charset"][i % 3] for i in ids],
                    pa.string(),
                ),
                batch["extracted_text"],
            ],
            names=["doc_id", "family", "extracted_text"],
        )

    df = out.map_batches(project, batch_format="pyarrow").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_cdx_index(sf_dir: str) -> pd.DataFrame:
    """CDX-style crawl index: SURT keys (host labels reversed — the Common
    Crawl index key order) over the six messy-URL buckets, plus each row's
    global rank in (surt, doc_id) order via the broadcast-searchsorted rank
    stage (ops/urls.py::cdx_index). Oracle: closed-form SURT per bucket +
    row_number() over the same order."""
    from .ops.urls import cdx_index

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    out = cdx_index(ds.map_batches(_six_bucket_urls, batch_format="pyarrow"))
    df = out.to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_html_metadata(sf_dir: str) -> pd.DataFrame:
    """Head-metadata extraction (title / meta description / canonical link)
    over four deterministic markup variants per doc — quote styles,
    attribute order, uppercase tags, self-closing slashes, missing
    ``</head>`` — parsed by the tolerant head parser
    (:mod:`functions.metadata`), which never walks the body. Oracle
    recomputes the planted metadata from ``text`` in closed form."""
    from .functions.metadata import parse_head_meta

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def to_pages(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        htmls = []
        for i, t in zip(ids, texts):
            ws = t.split()
            t5, t12 = " ".join(ws[:5]), " ".join(ws[:12])
            url = f"doc://{i:08d}"
            v = i % 4
            if v == 0:
                head = (
                    f"<head><title>{t5}</title>"
                    f'<meta name="description" content="{t12}">'
                    f'<link rel="canonical" href="{url}"></head>'
                )
            elif v == 1:
                head = (
                    f"<head><meta content='{t12}' name='description'/>"
                    f"<link href='{url}' rel='canonical'/>"
                    f"<title>{t5}</title></head>"
                )
            elif v == 2:
                head = (
                    f"<HEAD><TITLE>  {t5}  </TITLE>"
                    f'<META NAME=description CONTENT="{t12}">'
                    f'<LINK REL=canonical HREF="{url}"></HEAD>'
                )
            else:  # no </head>; og tags present; body starts directly
                head = (
                    f"<head><title>{t5}</title>"
                    f'<meta property="og:title" content="{t5}">'
                    f'<meta name="description" content="{t12}">'
                    f'<link rel="canonical" href="{url}">'
                )
            htmls.append(f"<html>{head}<body><p>{t}</p></body></html>")
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(htmls, pa.string())],
            names=["doc_id", "html"],
        )

    def extract_meta(batch: pa.Table) -> pa.Table:
        metas = [parse_head_meta(h) for h in batch["html"].to_pylist()]
        return pa.Table.from_arrays(
            [
                batch["doc_id"],
                pa.array([m["title"] for m in metas], pa.string()),
                pa.array([m["description"] for m in metas], pa.string()),
                pa.array([m["canonical"] for m in metas], pa.string()),
            ],
            names=["doc_id", "title", "description", "canonical"],
        )

    df = (
        ds.map_batches(to_pages, batch_format="pyarrow")
        .map_batches(extract_meta, batch_format="pyarrow")
        .to_pandas()
    )
    return df.sort_values("doc_id").reset_index(drop=True)


def q_zipf_histogram(sf_dir: str) -> pd.DataFrame:
    """Vocabulary frequency spectrum: word types bucketed by
    floor(log2(count)) with exact type/occurrence totals — one vocabulary
    exchange, O(blocks × 64) driver rows (:func:`ops.text.zipf_histogram`)."""
    from .ops.text import zipf_histogram

    ds = _read(sf_dir, "documents", columns=["text"])
    return zipf_histogram(ds)


def q_weighted_sample(sf_dir: str) -> pd.DataFrame:
    """Quality-weighted deterministic admission: keep each doc with
    probability min(n_chars, 512)/512 via a per-row dyadic splitmix64
    threshold — shuffle-free, layout-independent, and bit-exact against
    the HUGEINT splitmix oracle (:func:`ops.text.weighted_sample`)."""
    from .ops.text import weighted_sample

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    df = weighted_sample(ds, weight_col="n_chars", cap=512, salt=7).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_oov_rate(sf_dir: str) -> pd.DataFrame:
    """Per-doc out-of-vocabulary counts against the exact global top-20
    word vocabulary: a vocabulary exchange + broadcast set + one streaming
    scoring pass, integer outputs (:func:`ops.text.oov_rate`)."""
    from .ops.text import oov_rate

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    df = oov_rate(ds, vocab_k=20).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_fetch_schedule(sf_dir: str) -> pd.DataFrame:
    """Crawl politeness schedule: per-host fetch rank (by permuted capture
    time) and fetch wave at ≤4 concurrent requests per host — one sort +
    vectorized segment arithmetic, zero per-group Python
    (:func:`ops.segments.rank_per_key`). Oracle: row_number window."""
    from .ops.segments import rank_per_key

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_urls(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        ts = 1_767_225_600_000_000 + ((ids * 37) % 500) * 1_000_000
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array([f"h{i % 7}" for i in ids], pa.string()),
                pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
            ],
            names=["doc_id", "host", "warc_ts"],
        )

    out = rank_per_key(
        ds.map_batches(to_urls, batch_format="pyarrow"),
        key_col="host",
        within_cols=["warc_ts", "doc_id"],
        carry_cols=["doc_id"],
        slot_size=4,
    )
    df = out.select_columns(["doc_id", "host", "rank", "slot"]).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_crawl_depth(sf_dir: str) -> pd.DataFrame:
    """Crawl-depth BFS from a seed host over a directed 3-level graph with
    a shortcut edge (so min-relaxation beats path order) and an
    unreachable island (which must emit nothing). Each round is one
    sorted-lookup gather + one groupby-min (:func:`ops.links.bfs_depth`);
    explicit ``rounds=3`` (= graph depth) skips the per-round convergence
    probes the open-ended mode pays.
    Closed-form oracle: s=0; a*=1; b0=1 (shortcut), b1–b5=2; c even=2
    (via b0), c odd=3; island x*/y* absent."""
    from .ops.links import bfs_depth

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def edges(batch: pa.Table) -> pa.Table:
        src, dst = [], []
        for i in batch["doc_id"].to_pylist():
            src += ["s", f"a{i % 4}", f"b{i % 6}", "s", f"x{i % 2}"]
            dst += [f"a{i % 4}", f"b{i % 6}", f"c{i % 8}", "b0", f"y{i % 2}"]
        return pa.Table.from_arrays(
            [pa.array(src, pa.string()), pa.array(dst, pa.string())],
            names=["src_host", "dst_host"],
        )

    out = bfs_depth(
        ds.map_batches(edges, batch_format="pyarrow"), seeds=["s"], rounds=3
    )
    return out.to_pandas().sort_values("node").reset_index(drop=True)


def q_passage_chunks(sf_dir: str) -> pd.DataFrame:
    """RAG passage chunking: overlapping 8-token windows at stride 6 per
    document (final window shorter, empty docs dropped) — per-row
    flat-map, shuffle-free (:func:`ops.text.passage_chunks`). Oracle
    recomputes windows with list_slice arithmetic."""
    from .ops.text import passage_chunks

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    df = passage_chunks(ds, size=8, stride=6).to_pandas()
    return df.sort_values(["doc_id", "passage_idx"]).reset_index(drop=True)


def q_kn_stats(sf_dir: str) -> pd.DataFrame:
    """Kneser-Ney smoothing statistics for orders 1–3 in ONE corpus pass
    (composite order⊕gram keys, one vocabulary-sized exchange, O(blocks·3)
    driver rows): totals, type counts, singleton/doubleton counts, and the
    absolute discount D = n1/(n1+2n2) as integer num/den so the oracle is
    bit-exact (:func:`ops.text.kn_stats`)."""
    from .ops.text import kn_stats

    ds = _read(sf_dir, "documents", columns=["text"])
    return kn_stats(ds, max_n=3)


def q_template_clusters(sf_dir: str) -> pd.DataFrame:
    """Template detection: three markup skeletons rotate over the corpus
    (identical tag sequences, per-doc text) → cluster by DOM-structure
    fingerprint, attach (min-id representative, size) back through the
    sorted-lookup exchange — payloads never shuffle, no driver state
    (:mod:`ops.templates`). Closed-form oracle over doc_id % 3."""
    from .ops.templates import template_clusters

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def to_pages(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        htmls = []
        for i, t in zip(ids, texts):
            v = i % 3
            if v == 0:
                h = f"<html><head><title>x</title></head><body><p>{t}</p></body></html>"
            elif v == 1:
                h = (
                    f"<html><body><nav><a href='/'>h</a></nav>"
                    f"<article><p>{t}</p></article></body></html>"
                )
            else:
                h = (
                    f"<html><body><div><div><span>{t}</span></div>"
                    f"<footer>f</footer></div></body></html>"
                )
            htmls.append(h.encode())
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(htmls, pa.binary())],
            names=["doc_id", "html"],
        )

    pages = ds.map_batches(to_pages, batch_format="pyarrow")
    df = template_clusters(pages).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_sitemap_entries(sf_dir: str) -> pd.DataFrame:
    """Sitemap ingestion: docs serialize into ``<urlset>`` XML blobs (10
    entries each; namespace'd root, XML-entity-escaped query strings,
    rotating lastmod/changefreq/priority) parsed back by the from-scratch
    tokenizer (:mod:`sources.sitemap`). Closed-form oracle from doc_id,
    entity round-trip included. Round 5: blobs whose FIRST doc id is odd
    serialize as ``sitemap.xml.gz`` (gzip, mtime 0) — the parser must
    sniff the magic and decompress, same rows either way."""
    import gzip as _gzip

    from .sources.sitemap import sitemap_rows_batch

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_xml(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        blobs = []
        for s in range(0, len(ids), 10):
            entries = []
            for i in ids[s : s + 10]:
                loc = f"https://ex.com/doc/{i}"
                if i % 5 == 0:
                    loc += "?a=1&amp;b=2"  # escaped in XML, decoded by parse
                freq = ["daily", "weekly", "monthly"][i % 3]
                entries.append(
                    f"<url><loc>{loc}</loc>"
                    f"<lastmod>2026-01-{(i % 28) + 1:02d}</lastmod>"
                    f"<changefreq>{freq}</changefreq>"
                    f"<priority>0.{i % 10}</priority></url>"
                )
            xml = (
                '<?xml version="1.0" encoding="UTF-8"?>\n'
                '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
                + "".join(entries)
                + "</urlset>"
            ).encode()
            if ids[s] % 2 == 1:
                xml = _gzip.compress(xml, mtime=0)
            blobs.append(xml)
        return pa.Table.from_arrays(
            [pa.array(blobs, pa.binary())], names=["xml"]
        )

    rows = ds.map_batches(to_xml, batch_format="pyarrow").map_batches(
        sitemap_rows_batch, batch_format="pyarrow"
    )

    def project(batch: pa.Table) -> pa.Table:
        locs = batch["loc"].to_pylist()
        ids = [int(u.split("/doc/")[1].split("?")[0]) for u in locs]
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                batch["loc"],
                batch["lastmod"],
                batch["changefreq"],
                batch["priority"],
            ],
            names=["doc_id", "loc", "lastmod", "changefreq", "priority"],
        )

    df = rows.map_batches(project, batch_format="pyarrow").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_anchor_texts(sf_dir: str) -> pd.DataFrame:
    """Inbound anchor-text index: every doc links to a rotating absolute
    target (anchor carries an inner tag to prove tag-stripping) and a
    relative path (resolved under the source host); per target url the top
    3 anchors by count, rank-ordered. Extraction pre-combines per block,
    one distinct-pair exchange, segment-local top-k — target cardinality
    is unbounded so no driver merge (:func:`ops.links.anchor_topk`)."""
    from .ops.links import anchor_topk

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_pages(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        urls, htmls = [], []
        for i in ids:
            urls.append(f"https://site{i % 10}.example.com/p/{i}")
            htmls.append(
                (
                    f'<a href="https://t{i % 7}.example.com/x">anchor <b>{i % 3}</b></a>'
                    f"<a href='/page'>home {i % 2}</a>"
                ).encode()
            )
        return pa.Table.from_arrays(
            [pa.array(urls, pa.string()), pa.array(htmls, pa.binary())],
            names=["url", "html"],
        )

    pages = ds.map_batches(to_pages, batch_format="pyarrow")
    df = anchor_topk(pages, k=3).to_pandas()
    return df.sort_values(["dst_url", "rank"]).reset_index(drop=True)


def q_robots_admission(sf_dir: str) -> pd.DataFrame:
    """RFC 9309 robots.txt admission over five host policies (longest-match
    Allow/Disallow precedence, ``*``/``$`` wildcards, per-agent group
    selection, empty Disallow, absent policy) × four path shapes per doc.
    Policies parse once and broadcast; admission is a shuffle-free
    map_batches lookup (:mod:`ops.robots`). Closed-form oracle over
    (doc_id % 5, doc_id % 4)."""
    from .ops.robots import robots_filter

    policies = {
        "h0.example.com": "User-agent: *\nDisallow: /private/\nAllow: /private/ok",
        "h1.example.com": (
            "User-agent: graftbot\nDisallow: /*.pdf$\n\n"
            "User-agent: *\nDisallow: /"
        ),
        "h2.example.com": "User-agent: *\nDisallow:",
        "h3.example.com": "User-agent: *\nDisallow: /",
        # h4: no robots.txt → allowed
    }
    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_urls(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        hosts, urls = [], []
        for i in ids:
            host = f"h{i % 5}.example.com"
            path = [
                f"/private/doc{i}",
                f"/private/ok{i}",
                f"/a/doc{i}.pdf",
                f"/pub/doc{i}",
            ][i % 4]
            hosts.append(host)
            urls.append(f"https://{host}{path}")
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(hosts, pa.string()),
                pa.array(urls, pa.string()),
            ],
            names=["doc_id", "host", "url"],
        )

    out = robots_filter(
        ds.map_batches(to_urls, batch_format="pyarrow"), policies
    )
    df = out.select_columns(["doc_id", "host", "allowed"]).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_ngram_topk(sf_dir: str) -> pd.DataFrame:
    """Exact global word-bigram heavy hitters (top 20, tiebreak ngram asc):
    per-block vectorized counting with boundary-safe sliding joins, one
    vocabulary-sized exchange, partial top-ks merged exactly on the driver
    (:func:`ops.text.ngram_topk`)."""
    from .ops.text import ngram_topk

    ds = _read(sf_dir, "documents", columns=["text"])
    return ngram_topk(ds, n=2, k=20)


def q_host_components(sf_dir: str) -> pd.DataFrame:
    """Connected components of a host graph (string node ids) against an
    INDEPENDENT oracle: a DuckDB RECURSIVE CTE computing reachability-
    closure min-labels — another CC implementation, not a closed form.
    This runs the documented ≤``driver_edge_cap`` regime (the edge list is
    component-minority-sized); the distributed string-id rounds
    (``driver_edge_cap=0``: dense-rank mapping + pointer-jumping label
    propagation) are pinned equal to this regime by tests/test_ops.py —
    at ~0.7 s fixed cost per Ray job × ~15 jobs/round they are the right
    tool at billions of edges, not under a per-query oracle-gate budget."""
    from .ops.dedup import connected_components

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    # Five star components (hub+11 spokes) plus one 7-node chain: stars
    # resolve in one hop, the chain proves multi-round pointer jumping —
    # 4 propagation rounds total, so the per-round fixed exchange cost
    # stays oracle-gate-friendly (a diameter-25 graph converges identically
    # but pays ~15 rounds; see tests for the long-chain case).
    def edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        id_a = [f"c{i % 5}h0" for i in ids] + [f"c5m{i % 6}" for i in ids]
        id_b = [f"c{i % 5}n{i % 11:02d}" for i in ids] + [
            f"c5m{i % 6 + 1}" for i in ids
        ]
        return pa.Table.from_arrays(
            [pa.array(id_a, pa.string()), pa.array(id_b, pa.string())],
            names=["id_a", "id_b"],
        )

    pairs = ds.map_batches(edges, batch_format="pyarrow")
    out = connected_components(pairs)
    return out.sort_values("node").reset_index(drop=True)


def q_latest_snapshot(sf_dir: str) -> pd.DataFrame:
    """Recrawl hygiene: each url appears as 1–3 captures (warc_ts a day
    apart, per-version text); keep only the newest capture per url. The
    operator shuffles ONLY (url, ts) — payloads are semi-joined against the
    broadcast winner set, never exchanged (ops/snapshots.py)."""
    from .ops.snapshots import latest_per_key

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def versions(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        did, url, ts, txt = [], [], [], []
        for i, t in zip(ids, texts):
            for v in range(1 + i % 3):
                did.append(i)
                url.append(f"doc://{i:08d}")
                ts.append(1_767_225_600_000_000 + i * 1_000_000 + v * 86_400_000_000)
                txt.append(f"{t} [v{v}]")
        return pa.Table.from_arrays(
            [
                pa.array(did, pa.int64()),
                pa.array(url, pa.string()),
                pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
                pa.array(txt, pa.string()),
            ],
            names=["doc_id", "url", "warc_ts", "text"],
        )

    latest = latest_per_key(
        ds.map_batches(versions, batch_format="pyarrow"), "url", "warc_ts"
    )
    df = latest.select_columns(["doc_id", "warc_ts", "text"]).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_snapshot_diff(sf_dir: str) -> pd.DataFrame:
    """Two crawl snapshots (old drops every 5th url, new drops every 7th
    and rewrites every 3rd) → per-url added/removed/changed/same. Payloads
    reduce to 8-byte content hashes inside map_batches; the one exchange is
    a (url, side, hash) groupby-aggregate (ops/snapshots.py)."""
    from .ops.snapshots import snapshot_diff

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def side(old: bool):
        def fn(batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch["doc_id"].to_numpy())
            keep = (ids % 5 != 0) if old else (ids % 7 != 0)
            texts = batch["text"].to_pylist()
            urls, out = [], []
            for i, t, k in zip(ids, texts, keep):
                if not k:
                    continue
                urls.append(f"doc://{i:08d}")
                out.append(t if old or i % 3 else t + " CHANGED")
            return pa.Table.from_arrays(
                [pa.array(urls, pa.string()), pa.array(out, pa.string())],
                names=["url", "text"],
            )

        return fn

    old_ds = docs.map_batches(side(True), batch_format="pyarrow")
    new_ds = docs.map_batches(side(False), batch_format="pyarrow")
    df = snapshot_diff(old_ds, new_ds).to_pandas()
    return df.sort_values("url").reset_index(drop=True)


def q_kcore(sf_dir: str) -> pd.DataFrame:
    """3-core of a synthesized core+fringe host graph
    (:func:`ops.links.kcore`): a complete K6 of core hosts plus
    degree-≤2 fringe/pendant chains that iterative pruning must peel in
    two rounds, leaving exactly the K6 at degree 5 each — the oracle
    states that closed-form ground truth."""
    from .ops.links import kcore

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        us, vs = [], []
        for i in ids:
            i = int(i)
            a = i % 6
            b = (a + 1 + (i // 6) % 5) % 6
            us.append(f"c{a}"); vs.append(f"c{b}")          # core K6
            j = i % 40
            us.append(f"f{j}"); vs.append(f"c{j % 6}")       # fringe spoke
            us.append(f"f{j}"); vs.append(f"h{j}")           # pendant
        return pa.Table.from_arrays(
            [pa.array(us, pa.string()), pa.array(vs, pa.string())],
            names=["src_host", "dst_host"],
        )

    g = ds.map_batches(edges, batch_format="pyarrow")
    out = kcore(g, k=3, rounds=6).to_pandas()
    return out.sort_values("node").reset_index(drop=True)


def q_strip_headers(sf_dir: str) -> pd.DataFrame:
    """Running header/footer removal across the pages of each document
    (:func:`ops.segments.strip_repeated_lines`): every doc becomes 4 pages
    sharing a per-doc header line and a constant footer (chrome on ≥3
    pages → dropped) around a unique body line (kept). One (doc, page)
    sort; per-document resolution. Oracle: the closed-form surviving body
    line and drop count."""
    from .ops.segments import strip_repeated_lines

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def paginate(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        out_id, out_pg, out_tx = [], [], []
        for i in ids:
            i = int(i)
            for p in range(4):
                out_id.append(i)
                out_pg.append(p)
                out_tx.append(
                    f"ACME header {i % 5}\nbody {i} page {p}\nfooter confidential"
                )
        return pa.Table.from_arrays(
            [
                pa.array(out_id, pa.int64()),
                pa.array(out_pg, pa.int64()),
                pa.array(out_tx, pa.string()),
            ],
            names=["doc_id", "page_no", "text"],
        )

    pages = ds.map_batches(paginate, batch_format="pyarrow")
    out = strip_repeated_lines(pages, min_pages=3).to_pandas()
    return out.sort_values(["doc_id", "page_no"]).reset_index(drop=True)


def q_audio_fingerprint(sf_dir: str) -> pd.DataFrame:
    """Cross-codec perceptual audio dedup
    (:func:`ops.multimodal.audio_fingerprint_dedup`): doc i carries the
    signal of class ``i % 50`` encoded as WAV or mono/mid-side FLAC by
    ``i % 4`` — lossless codecs, so equal classes fingerprint identically
    ACROSS formats and cluster together. Energy-delta sign bits over 32
    windows; oracle recomputes every window energy, bit, and cluster from
    the closed form."""
    from .ops.flac import encode_flac
    from .ops.multimodal import audio_fingerprint_dedup, encode_wav

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_audio(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        payloads = []
        for i in ids:
            sig = (((i % 50) * 37 + np.arange(1024) * 13) % 2048 - 1024).astype(
                np.int16
            )
            if i % 4 == 0:
                payloads.append(encode_wav(sig))
            elif i % 4 == 3:
                payloads.append(
                    encode_flac(np.stack([sig, sig], axis=1), mid_side=True)
                )
            else:
                payloads.append(encode_flac(sig.reshape(-1, 1)))
        return pa.Table.from_arrays(
            [
                pa.array([int(i) for i in ids], pa.int64()),
                pa.array(payloads, pa.binary()),
            ],
            names=["media_id", "payload"],
        )

    media = ds.map_batches(to_audio, batch_format="pyarrow")
    out = audio_fingerprint_dedup(media).to_pandas()
    return out.sort_values("media_id").reset_index(drop=True)


def q_path_templates(sf_dir: str) -> pd.DataFrame:
    """Top-20 URL path templates (:func:`ops.urls.path_templates`) over
    synthesized dynamic-page urls (item/review/static/search families with
    embedded ids and tracking params): digit runs generalize to ``<d>``,
    scheme/query strip, one vocabulary exchange, exact driver-merged
    top-k. Oracle restates the RE2 chain with regexp_replace."""
    from .ops.urls import path_templates

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        urls = []
        for i in ids:
            i = int(i)
            b = i % 4
            if b == 0:
                urls.append(f"https://site{i % 10}.example.com/item/{i}/review/{i % 7}")
            elif b == 1:
                urls.append(f"http://site{i % 10}.example.com/about")
            elif b == 2:
                urls.append(f"https://site{i % 10}.example.com/search?q=x{i}&page={i % 5}")
            else:
                urls.append(f"https://site{i % 10}.example.com/p/{i}#frag{i}")
        return pa.Table.from_arrays([pa.array(urls, pa.string())], names=["url"])

    return path_templates(ds.map_batches(synth, batch_format="pyarrow"), k=20)


def q_group_winsorize(sf_dir: str) -> pd.DataFrame:
    """Per-language winsorized n_chars statistics
    (:func:`ops.quantiles.group_winsorize`): exact rank clipping at
    p05/p95 folded into ONE (lang, n_chars) sort + cumulative-sum segment
    pass; integer-exact clipped sums. Oracle: row_number ranks + the same
    ceil(q·n) IEEE rank arithmetic."""
    from .ops.quantiles import group_winsorize

    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])
    out = group_winsorize(ds, "lang", "n_chars").to_pandas()
    return out.sort_values("lang").reset_index(drop=True)


def q_profile_table(sf_dir: str) -> pd.DataFrame:
    """Per-column profiling of the events table
    (:func:`ops.profile.profile_table`): rows, nulls, EXACT distinct,
    min/max — per-block partials plus one deduped (column, value) pair
    exchange; the oracle is the literal per-column aggregate union."""
    from .ops.profile import profile_table

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "event_type"])
    out = profile_table(ds, ["event_id", "user_id", "event_type"]).to_pandas()
    return out.sort_values("column").reset_index(drop=True)


def q_dataset_split(sf_dir: str) -> pd.DataFrame:
    """Deterministic 80/10/10 train/val/test assignment
    (:func:`ops.text.dataset_split`): exact rational splitmix64 cutoffs,
    per-row and shuffle-free, identical at any parallelism. The oracle
    replays the mix in HUGEINT and states the same integer thresholds."""
    from .ops.text import dataset_split

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    out = dataset_split(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_crawl_budget(sf_dir: str) -> pd.DataFrame:
    """Largest-remainder crawl-budget apportionment
    (:func:`ops.budget.apportion_budget`): 137 fetch slots divided across
    the 20 synthesized hosts in proportion to page counts; exact integer
    base + remainder-ranked extras, allocations sum to the budget."""
    from .ops.budget import apportion_budget

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_host(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        hosts = [f"site{int(i) % 20}" for i in ids]
        return pa.Table.from_arrays(
            [pa.array(hosts, pa.string()),
             pa.array(np.ones(len(ids), np.int64))],
            names=["host", "n_pages"],
        )

    hosts = ds.map_batches(to_host, batch_format="pyarrow")
    out = apportion_budget(hosts, budget=137).to_pandas()
    return out.sort_values("host").reset_index(drop=True)


def q_triangles(sf_dir: str) -> pd.DataFrame:
    """Exact triangle count of the synthesized host link graph
    (:func:`ops.links.triangle_count`): degree-oriented wedges (out-degree
    bounded O(sqrt m)), vectorized per-segment pair emission, wedge
    semi-join against the oriented edge set. Oracle: the closed-form edge
    arithmetic plus the canonical triple self-join."""
    from .ops.links import link_graph, triangle_count

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    edges = link_graph(pages)
    return triangle_count(edges).to_pandas()


def q_cocitation(sf_dir: str) -> pd.DataFrame:
    """Co-citation top pairs of the synthesized host link graph
    (:func:`ops.links.cocitation_topk`): for each unordered target pair,
    the number of distinct sources linking to both; one source-grouping
    sort with vectorized triu pair emission and per-block pre-combine,
    hub sources gated at ``src_out_cap`` (never binds on this graph —
    oracle mirrors the gate anyway)."""
    from .ops.links import cocitation_topk, link_graph

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    edges = link_graph(pages)
    return (
        cocitation_topk(edges, k=15, min_count=2, src_out_cap=1024)
        .to_pandas()
        .reset_index(drop=True)
    )


def q_curate_corpus(sf_dir: str) -> pd.DataFrame:
    """The END-TO-END curation composition (:mod:`ops.curate`): C4 clean →
    Gopher quality gate → exact dedup → byte-budgeted shard plan, one
    streaming pipeline. Documents are first re-lineated deterministically
    (8 words per line, '.' appended — fixture synthesis so the single-line
    corpus exercises the line rules); the oracle chains every stage's CTE:
    lineify, C4 line/doc filters, Gopher integer inequalities over the
    cleaned text, min-id dedup, window-frame prefix-sum sharding."""
    from .ops.curate import curate_corpus

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def lineify(batch: pa.Table) -> pa.Table:
        # fixture synthesis (not the operator): 8-word lines, '.' appended
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out = []
        for t in texts:
            w = [x for x in re.split(r"\s+", t or "") if x]
            lines = [
                " ".join(w[k : k + 8]) + "." for k in range(0, len(w), 8)
            ]
            out.append("\n".join(lines))
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(out, pa.string())],
            names=["doc_id", "text"],
        )

    lined = ds.map_batches(lineify, batch_format="pyarrow")
    return curate_corpus(lined, shard_bytes=20_000).to_pandas()


def q_dsir_select(sf_dir: str) -> pd.DataFrame:
    """DSIR importance selection (:func:`ops.curate.dsir_select`):
    hashed-unigram bucket counts over the English target slice vs the
    whole corpus, integer-exact ratio weights, per-document scores, and
    top-10% selection resolved exactly at the threshold (row_number
    ORDER BY score DESC, doc_id semantics). The oracle rebuilds the
    identical bucket hash (the simhash oracle's SQL token hash, mod
    128), weights, scores and window-rank cut in DuckDB."""
    from .ops.curate import dsir_select

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    df = dsir_select(ds).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_pmi_bigrams(sf_dir: str) -> pd.DataFrame:
    """Top-20 bigrams by scaled-integer PMI with min-count 5
    (:func:`ops.text.pmi_topk`): two vocabulary count exchanges, unigram
    counts attached to the filtered bigram minority via two sorted-lookup
    joins, exact big-int scoring, per-block partial top-k merged on the
    driver. Oracle replays the identical floor((scale·cxy·N)/(cx·cy)) in
    HUGEINT."""
    from .ops.text import pmi_topk

    ds = _read(sf_dir, "documents", columns=["text"])
    return pmi_topk(ds, k=20, min_count=5)


def q_snapshot_edit_distance(sf_dir: str) -> pd.DataFrame:
    """Byte-level edit distance between two crawl captures of each url
    (:func:`ops.snapshots.snapshot_edit_distance`): old = every url except
    doc_id%5, new = every url except doc_id%7 with 'a'→'@' rewrites on
    doc_id%3; texts truncate to 1000 chars before diffing. Phase 1 finds
    the changed minority by hash (payloads stay put); phase 2 pairs ONLY
    those texts through one (url, side) sort and runs the numpy byte DP
    per pair. Oracle: DuckDB's native ``levenshtein`` (UTF-8 code-unit
    semantics — matched by the byte-level kernel) over the same join."""
    from .ops.snapshots import snapshot_edit_distance

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def side(old: bool):
        def fn(batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch["doc_id"].to_numpy())
            keep = (ids % 5 != 0) if old else (ids % 7 != 0)
            texts = batch["text"].to_pylist()
            urls, out = [], []
            for i, t, k in zip(ids, texts, keep):
                if not k:
                    continue
                t = (t or "")[:1000]
                urls.append(f"doc://{i:08d}")
                out.append(t if old or i % 3 else t.replace("a", "@"))
            return pa.Table.from_arrays(
                [pa.array(urls, pa.string()), pa.array(out, pa.string())],
                names=["url", "text"],
            )

        return fn

    old_ds = docs.map_batches(side(True), batch_format="pyarrow")
    new_ds = docs.map_batches(side(False), batch_format="pyarrow")
    df = snapshot_edit_distance(old_ds, new_ds).to_pandas()
    return df.sort_values("url").reset_index(drop=True)


QUERIES = {
    "tpch_q1": q_tpch_q1,
    "orders_topk": q_orders_topk,
    "top_orders_per_customer": q_top_orders_per_customer,
    "revenue_by_segment": q_revenue_by_segment,
    "customers_per_region": q_customers_per_region,
    "order_priority_revenue": q_order_priority_revenue,
    "revenue_rollup": q_revenue_rollup,
    "revenue_by_nation": q_revenue_by_nation,
    "distinct_segments": q_distinct_segments,
    "events_hourly": q_events_hourly,
    "events_sliding": q_events_sliding,
    "streaming_counts": q_streaming_counts,
    "user_sessions": q_user_sessions,
    "asof_join": q_asof_join,
    "asof_join_salted": q_asof_join_salted,
    "semi_join": q_semi_join,
    "anti_join": q_anti_join,
    "funnel": q_funnel,
    "distinct_users": q_distinct_users,
    "retention": q_retention,
    "link_graph": q_link_graph,
    "pagerank": q_pagerank,
    "hits": q_hits,
    "communities": q_communities,
    "bitext_pairs": q_bitext_pairs,
    "domain_gini": q_domain_gini,
    "front_code": q_front_code,
    "structural_dedup": q_structural_dedup,
    "lineitem_filter": q_lineitem_filter,
    "extract_html": q_extract_html,
    "extract_mixed": q_extract_mixed,
    "extract_real_pdf": q_extract_real_pdf,
    "extract_encrypted_pdf": q_extract_encrypted_pdf,
    "extract_protected_pdf": q_extract_protected_pdf,
    "sections_pdf": q_sections_pdf,
    "extract_toy_pdf": q_extract_toy_pdf,
    "extract_with_repair": q_extract_with_repair,
    "extract_pdf_with_repair": q_extract_pdf_with_repair,
    "classify_transactions": q_classify_transactions,
    "classify_transactions_pdf": q_classify_transactions_pdf,
    "sections": q_sections,
    "problem_flags": q_problem_flags,
    "token_stats": q_token_stats,
    "quality_filter": q_quality_filter,
    "lang_distribution": q_lang_distribution,
    "decontaminate": q_decontaminate,
    "scrub_pii": q_scrub_pii,
    "exact_dedup": q_exact_dedup,
    "canonical_select": q_canonical_select,
    "quantize_embeddings": q_quantize_embeddings,
    "snapshot_edit_distance": q_snapshot_edit_distance,
    "pmi_bigrams": q_pmi_bigrams,
    "curate_corpus": q_curate_corpus,
    "dsir_select": q_dsir_select,
    "triangles": q_triangles,
    "dataset_split": q_dataset_split,
    "profile_table": q_profile_table,
    "group_winsorize": q_group_winsorize,
    "path_templates": q_path_templates,
    "audio_fingerprint": q_audio_fingerprint,
    "wat_roundtrip": q_wat_roundtrip,
    "strip_headers": q_strip_headers,
    "kcore": q_kcore,
    "minhash_canonical": q_minhash_canonical,
    "http_stats": q_http_stats,
    "snapshot_delta": q_snapshot_delta,
    "lang_spans": q_lang_spans,
    "redact_contaminated": q_redact_contaminated,
    "remove_dup_substrings": q_remove_dup_substrings,
    "politeness_schedule": q_politeness_schedule,
    "homoglyph_dedup": q_homoglyph_dedup,
    "mode_per_user": q_mode_per_user,
    "group_sample": q_group_sample,
    "percentile_rank": q_percentile_rank,
    "idn_hosts": q_idn_hosts,
    "jsonld_census": q_jsonld_census,
    "translation_sets": q_translation_sets,
    "meta_refresh_chains": q_meta_refresh_chains,
    "feed_items": q_feed_items,
    "crawl_budget": q_crawl_budget,
    "streaming_dedup": q_streaming_dedup,
    "incremental_admission": q_incremental_admission,
    "paragraph_dedup": q_paragraph_dedup,
    "domain_cap": q_domain_cap,
    "stratified_sample": q_stratified_sample,
    "mixture": q_mixture,
    "deterministic_shuffle": q_deterministic_shuffle,
    "fingerprint_dedup": q_fingerprint_dedup,
    "minhash_dedup": q_minhash_dedup,
    "ngram_jaccard_dedup": q_ngram_jaccard_dedup,
    "simhash": q_simhash,
    "embedding_dedup": q_embedding_dedup,
    "ann_topk": q_ann_topk,
    "ann_ivf": q_ann_ivf,
    "embedding_stats": q_embedding_stats,
    "embed_ann": q_embed_ann,
    "media_features": q_media_features,
    "media_resize": q_media_resize,
    "rasterize_pages": q_rasterize_pages,
    "audio_features": q_audio_features,
    "mp3_features": q_mp3_features,
    "vp8_census": q_vp8_census,
    "adpcm_features": q_adpcm_features,
    "g711_features": q_g711_features,
    "video_features": q_video_features,
    "mjpeg_video": q_mjpeg_video,
    "pack_sequences": q_pack_sequences,
    "quantiles": q_quantiles,
    "length_bins": q_length_bins,
    "distinct_sketch": q_distinct_sketch,
    "distinct_sketch_grouped": q_distinct_sketch_grouped,
    "word_topk": q_word_topk,
    "bpe_pair_counts": q_bpe_pair_counts,
    "inverted_index": q_inverted_index,
    "compress_postings": q_compress_postings,
    "linear_fit": q_linear_fit,
    "cocitation": q_cocitation,
    "fix_mojibake": q_fix_mojibake,
    "bm25_search": q_bm25_search,
    "kmeans_clusters": q_kmeans_clusters,
    "semdedup": q_semdedup,
    "prototype_prune": q_prototype_prune,
    "quality_tiers": q_quality_tiers,
    "cross_decontaminate": q_cross_decontaminate,
    "tier_extract": q_tier_extract,
    "exif_census": q_exif_census,
    "dhash_dedup": q_dhash_dedup,
    "shard_plan": q_shard_plan,
    "count_min": q_count_min,
    "group_quantiles": q_group_quantiles,
    "tfidf_terms": q_tfidf_terms,
    "lm_quality": q_lm_quality,
    "canonical_urls": q_canonical_urls,
    "substring_dup": q_substring_dup,
    "repetition_filter": q_repetition_filter,
    "c4_clean": q_c4_clean,
    "gopher_rules": q_gopher_rules,
    "winnow_fingerprints": q_winnow_fingerprints,
    "range_join": q_range_join,
    "extraction_metrics": q_extraction_metrics,
    "warc_roundtrip": q_warc_roundtrip,
    "extract_charset": q_extract_charset,
    "wild_pages": q_wild_pages,
    "wild_pdfs": q_wild_pdfs,
    "publish_dates": q_publish_dates,
    "charset_world": q_charset_world,
    "extract_spans": q_extract_spans,
    "wild_mixed": q_wild_mixed,
    "http_codings": q_http_codings,
    "warc_salvage": q_warc_salvage,
    "latest_snapshot": q_latest_snapshot,
    "snapshot_diff": q_snapshot_diff,
    "cdx_index": q_cdx_index,
    "host_components": q_host_components,
    "ngram_topk": q_ngram_topk,
    "html_metadata": q_html_metadata,
    "robots_admission": q_robots_admission,
    "anchor_texts": q_anchor_texts,
    "sitemap_entries": q_sitemap_entries,
    "template_clusters": q_template_clusters,
    "kn_stats": q_kn_stats,
    "passage_chunks": q_passage_chunks,
    "crawl_depth": q_crawl_depth,
    "fetch_schedule": q_fetch_schedule,
    "weighted_sample": q_weighted_sample,
    "oov_rate": q_oov_rate,
    "zipf_histogram": q_zipf_histogram,
    "wet_roundtrip": q_wet_roundtrip,
}

ORACLE_SQL["wet_roundtrip"] = """
SELECT doc_id,
       'doc://' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
       text
FROM documents ORDER BY doc_id
"""

ORACLE_SQL["zipf_histogram"] = r"""
WITH words AS (
    SELECT unnest(regexp_extract_all(lower(text), '\S+')) AS w FROM documents
),
counts AS (SELECT w, count(*) AS c FROM words GROUP BY 1)
SELECT CAST(floor(log2(c)) AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_types,
       CAST(sum(c) AS BIGINT) AS n_occurrences
FROM counts GROUP BY 1 ORDER BY 1
"""

ORACLE_SQL["weighted_sample"] = _splitmix_sql(
    "documents", "doc_id", 7, "doc_id, n_chars"
) + """
SELECT doc_id, n_chars FROM h
WHERE CAST(hv AS HUGEINT)
      < CAST(least(greatest(n_chars, 0), 512) AS HUGEINT) * 36028797018963968
ORDER BY doc_id
"""

ORACLE_SQL["oov_rate"] = r"""
WITH words AS (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '\S+')) AS w
    FROM documents
),
counts AS (SELECT w, count(*) AS c FROM words GROUP BY 1),
vocab AS (
    SELECT w FROM counts QUALIFY row_number() OVER (ORDER BY c DESC, w) <= 20
)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
       CAST(count(*) FILTER (WHERE words.w NOT IN (SELECT w FROM vocab))
            AS BIGINT) AS n_oov
FROM words GROUP BY doc_id ORDER BY doc_id
"""

ORACLE_SQL["fetch_schedule"] = """
WITH u AS (
    SELECT doc_id, 'h' || CAST(doc_id % 7 AS VARCHAR) AS host,
           TIMESTAMP '2026-01-01 00:00:00'
               + ((doc_id * 37) % 500) * INTERVAL 1 SECOND AS warc_ts
    FROM documents
),
r AS (
    SELECT doc_id, host,
           row_number() OVER (PARTITION BY host ORDER BY warc_ts, doc_id) AS rn
    FROM u
)
SELECT doc_id, host, CAST(rn AS BIGINT) AS rank,
       CAST((rn - 1) // 4 AS BIGINT) AS slot
FROM r ORDER BY doc_id
"""

ORACLE_SQL["crawl_depth"] = """
WITH nodes(node, depth) AS (VALUES
    ('s', 0),
    ('a0', 1), ('a1', 1), ('a2', 1), ('a3', 1),
    ('b0', 1), ('b1', 2), ('b2', 2), ('b3', 2), ('b4', 2), ('b5', 2),
    ('c0', 2), ('c1', 3), ('c2', 2), ('c3', 3),
    ('c4', 2), ('c5', 3), ('c6', 2), ('c7', 3)
)
SELECT node, CAST(depth AS BIGINT) AS depth FROM nodes ORDER BY node
"""

ORACLE_SQL["passage_chunks"] = r"""
WITH w AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS ws FROM documents),
p AS (SELECT doc_id, ws,
        CASE WHEN len(ws) = 0 THEN 0
             WHEN len(ws) <= 8 THEN 1
             ELSE CAST(ceil((len(ws) - 8) / 6.0) AS INTEGER) + 1 END AS np
      FROM w)
SELECT doc_id, CAST(k AS INTEGER) AS passage_idx,
       CAST(len(list_slice(ws, CAST(1 + 6 * k AS INTEGER),
                           CAST(6 * k + 8 AS INTEGER))) AS INTEGER) AS n_tokens,
       array_to_string(list_slice(ws, CAST(1 + 6 * k AS INTEGER),
                                  CAST(6 * k + 8 AS INTEGER)), ' ') AS passage
FROM p, LATERAL unnest(range(0, np)) t(k)
ORDER BY doc_id, passage_idx
"""

ORACLE_SQL["kn_stats"] = r"""
WITH ws AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS w FROM documents),
g1 AS (SELECT unnest(w) AS g FROM ws),
g2 AS (SELECT w[CAST(i AS INTEGER)] || ' ' || w[CAST(i AS INTEGER)+1] AS g
       FROM ws, LATERAL unnest(range(1, len(w))) t(i)),
g3 AS (SELECT w[CAST(i AS INTEGER)] || ' ' || w[CAST(i AS INTEGER)+1]
           || ' ' || w[CAST(i AS INTEGER)+2] AS g
       FROM ws, LATERAL unnest(range(1, len(w) - 1)) t(i)),
s1 AS (SELECT g, count(*) c FROM g1 GROUP BY 1),
s2 AS (SELECT g, count(*) c FROM g2 GROUP BY 1),
s3 AS (SELECT g, count(*) c FROM g3 GROUP BY 1),
stats AS (
    SELECT 1 AS n, sum(c) AS total, count(*) AS nt,
           count(*) FILTER (WHERE c = 1) AS n1,
           count(*) FILTER (WHERE c = 2) AS n2 FROM s1
    UNION ALL
    SELECT 2, sum(c), count(*), count(*) FILTER (WHERE c = 1),
           count(*) FILTER (WHERE c = 2) FROM s2
    UNION ALL
    SELECT 3, sum(c), count(*), count(*) FILTER (WHERE c = 1),
           count(*) FILTER (WHERE c = 2) FROM s3
)
SELECT CAST(n AS BIGINT) AS n, CAST(total AS BIGINT) AS total,
       CAST(nt AS BIGINT) AS distinct_ngrams,
       CAST(n1 AS BIGINT) AS n1, CAST(n2 AS BIGINT) AS n2,
       CAST(n1 AS BIGINT) AS d_num, CAST(n1 + 2 * n2 AS BIGINT) AS d_den
FROM stats ORDER BY n
"""

ORACLE_SQL["template_clusters"] = """
WITH c AS (
    SELECT doc_id % 3 AS m, count(*) AS n, min(doc_id) AS rep
    FROM documents GROUP BY 1
)
SELECT d.doc_id, c.rep AS cluster_rep, CAST(c.n AS BIGINT) AS cluster_size
FROM documents d JOIN c ON d.doc_id % 3 = c.m
ORDER BY d.doc_id
"""

ORACLE_SQL["sitemap_entries"] = """
SELECT doc_id,
       'https://ex.com/doc/' || CAST(doc_id AS VARCHAR)
           || CASE WHEN doc_id % 5 = 0 THEN '?a=1&b=2' ELSE '' END AS loc,
       '2026-01-' || lpad(CAST(doc_id % 28 + 1 AS VARCHAR), 2, '0') AS lastmod,
       CASE doc_id % 3 WHEN 0 THEN 'daily' WHEN 1 THEN 'weekly'
                       ELSE 'monthly' END AS changefreq,
       '0.' || CAST(doc_id % 10 AS VARCHAR) AS priority
FROM documents ORDER BY doc_id
"""

ORACLE_SQL["anchor_texts"] = """
WITH links AS (
    SELECT 'https://t' || CAST(doc_id % 7 AS VARCHAR) || '.example.com/x' AS dst_url,
           'anchor ' || CAST(doc_id % 3 AS VARCHAR) AS anchor
    FROM documents
    UNION ALL
    SELECT 'https://site' || CAST(doc_id % 10 AS VARCHAR) || '.example.com/page',
           'home ' || CAST(doc_id % 2 AS VARCHAR)
    FROM documents
),
counts AS (SELECT dst_url, anchor, count(*) AS cnt FROM links GROUP BY 1, 2),
ranked AS (
    SELECT dst_url, anchor, cnt,
           row_number() OVER (PARTITION BY dst_url ORDER BY cnt DESC, anchor) AS r
    FROM counts
)
SELECT dst_url, anchor, CAST(cnt AS BIGINT) AS cnt, CAST(r AS INTEGER) AS rank
FROM ranked WHERE r <= 3 ORDER BY dst_url, rank
"""

ORACLE_SQL["robots_admission"] = """
SELECT doc_id,
       'h' || CAST(doc_id % 5 AS VARCHAR) || '.example.com' AS host,
       CASE
           WHEN doc_id % 5 = 3 THEN FALSE
           WHEN doc_id % 5 = 0 AND doc_id % 4 = 0 THEN FALSE
           WHEN doc_id % 5 = 1 AND doc_id % 4 = 2 THEN FALSE
           ELSE TRUE END AS allowed
FROM documents ORDER BY doc_id
"""

ORACLE_SQL["html_metadata"] = r"""
WITH w AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents)
SELECT doc_id,
       array_to_string(list_slice(ws, 1, 5), ' ') AS title,
       array_to_string(list_slice(ws, 1, 12), ' ') AS description,
       'doc://' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS canonical
FROM w ORDER BY doc_id
"""

ORACLE_SQL["ngram_topk"] = r"""
WITH ws AS (
    SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS w FROM documents
),
bg AS (
    SELECT w[CAST(i AS INTEGER)] || ' ' || w[CAST(i AS INTEGER) + 1] AS ngram
    FROM ws, LATERAL unnest(range(1, len(w))) AS t(i)
),
counts AS (SELECT ngram, count(*) AS cnt FROM bg GROUP BY 1)
SELECT ngram, CAST(cnt AS BIGINT) AS cnt,
       CAST(row_number() OVER (ORDER BY cnt DESC, ngram) AS INTEGER) AS rank
FROM counts QUALIFY rank <= 20 ORDER BY rank
"""

ORACLE_SQL["host_components"] = """
WITH RECURSIVE e AS (
  SELECT 'c' || CAST(doc_id % 5 AS VARCHAR) || 'h0' AS u,
         'c' || CAST(doc_id % 5 AS VARCHAR) || 'n'
             || lpad(CAST(doc_id % 11 AS VARCHAR), 2, '0') AS v
  FROM documents
  UNION ALL
  SELECT 'c5m' || CAST(doc_id % 6 AS VARCHAR) AS u,
         'c5m' || CAST(doc_id % 6 + 1 AS VARCHAR) AS v
  FROM documents
),
bi AS (SELECT u, v FROM e UNION SELECT v AS u, u AS v FROM e),
reach(n, lab) AS (
  SELECT u, u FROM (SELECT DISTINCT u FROM bi) t
  UNION
  SELECT bi.v, reach.lab FROM bi JOIN reach ON bi.u = reach.n
)
SELECT n AS node, min(lab) AS label FROM reach GROUP BY n ORDER BY node
"""

ORACLE_SQL["cdx_index"] = """
WITH s AS (
    SELECT doc_id,
        CASE doc_id % 6
            WHEN 0 THEN 'com,example,site' || CAST(doc_id % 37 AS VARCHAR)
                 || ')/a/c/page' || CAST(doc_id % 5 AS VARCHAR)
                 || '?q=' || CAST(doc_id AS VARCHAR)
            WHEN 1 THEN 'uk,co,example,news)/world/' || CAST(doc_id AS VARCHAR)
            WHEN 2 THEN 'com,example:8443)/abc%2f' || CAST(doc_id AS VARCHAR)
            WHEN 3 THEN 'org,site' || CAST(doc_id % 7 AS VARCHAR) || ',sub,blog)/x'
            WHEN 4 THEN 'com,example)/'
            ELSE NULL END AS surt
    FROM documents
    WHERE doc_id % 6 <> 5
)
SELECT doc_id, surt,
       CAST(row_number() OVER (ORDER BY surt, doc_id) AS BIGINT) AS cdx_rank
FROM s ORDER BY doc_id
"""

ORACLE_SQL["latest_snapshot"] = """
SELECT doc_id,
       TIMESTAMP '2026-01-01 00:00:00' + doc_id * INTERVAL 1 SECOND
           + (doc_id % 3) * INTERVAL 1 DAY AS warc_ts,
       text || ' [v' || CAST(doc_id % 3 AS VARCHAR) || ']' AS text
FROM documents ORDER BY doc_id
"""

ORACLE_SQL["snapshot_diff"] = """
SELECT 'doc://' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
       CASE WHEN doc_id % 5 <> 0 AND doc_id % 7 = 0 THEN 'removed'
            WHEN doc_id % 5 = 0 AND doc_id % 7 <> 0 THEN 'added'
            WHEN doc_id % 3 = 0 THEN 'changed'
            ELSE 'same' END AS status
FROM documents
WHERE doc_id % 5 <> 0 OR doc_id % 7 <> 0
ORDER BY url
"""

# Same recursive ground-truth clustering as minhash_dedup, extended with
# the per-cluster argmax(score=length, ties min id) representative.
ORACLE_SQL["minhash_canonical"] = (
    ORACLE_SQL["minhash_dedup"].rsplit("SELECT doc_id, cluster_id", 1)[0]
    + """,
scored AS (
    SELECT lab.doc_id, lab.cluster_id, length(c.t) AS score
    FROM lab JOIN corpus c ON c.doc_id = lab.doc_id
)
SELECT cluster_id,
       doc_id AS rep,
       CAST(score AS BIGINT) AS rep_score,
       CAST(count(*) OVER (PARTITION BY cluster_id) AS BIGINT) AS n_members
FROM scored
QUALIFY row_number() OVER (PARTITION BY cluster_id
                           ORDER BY score DESC, doc_id) = 1
ORDER BY cluster_id
"""
)

ORACLE_SQL["kcore"] = """
SELECT 'c' || CAST(i AS VARCHAR) AS node, CAST(5 AS BIGINT) AS degree
FROM (SELECT unnest(range(6)) AS i) ORDER BY node
"""

ORACLE_SQL["strip_headers"] = """
SELECT doc_id,
       CAST(t.p AS BIGINT) AS page_no,
       'body ' || CAST(doc_id AS VARCHAR) || ' page '
           || CAST(t.p AS VARCHAR) AS cleaned_text,
       CAST(2 AS BIGINT) AS n_dropped
FROM documents, (SELECT unnest(range(4)) AS p) t
ORDER BY doc_id, page_no
"""

ORACLE_SQL["feed_items"] = """
WITH t AS (
    SELECT 'rss' AS kind,
           'Story ' || CAST(doc_id AS VARCHAR) || ' & more' AS title,
           'https://news/' || CAST(doc_id AS VARCHAR) || '/a' AS link,
           'day' || CAST(doc_id % 7 AS VARCHAR) AS published
    FROM documents WHERE doc_id % 2 = 0
    UNION ALL
    SELECT 'rss', 'Extra ' || CAST(doc_id AS VARCHAR),
           'https://news/' || CAST(doc_id AS VARCHAR) || '/b', NULL
    FROM documents WHERE doc_id % 2 = 0
    UNION ALL
    SELECT 'atom', 'Post ' || CAST(doc_id AS VARCHAR),
           'https://blog/' || CAST(doc_id AS VARCHAR) || '/a',
           't' || CAST(doc_id % 5 AS VARCHAR)
    FROM documents WHERE doc_id % 2 = 1
    UNION ALL
    SELECT 'atom', 'Note ' || CAST(doc_id AS VARCHAR),
           'https://blog/' || CAST(doc_id AS VARCHAR) || '/b', NULL
    FROM documents WHERE doc_id % 2 = 1
)
SELECT kind, title, link, published FROM t ORDER BY link
"""

ORACLE_SQL["meta_refresh_chains"] = """
SELECT 'doc://' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS src,
       'doc://' || lpad(CAST(doc_id - doc_id % 4 AS VARCHAR), 8, '0') AS final,
       CAST(doc_id % 4 AS BIGINT) AS hops
FROM documents
WHERE doc_id % 4 <> 0
ORDER BY src
"""

ORACLE_SQL["translation_sets"] = """
SELECT 'https://ex.com/s' || CAST(doc_id // 3 AS VARCHAR) || '/'
           || CASE doc_id % 3 WHEN 0 THEN 'de' WHEN 1 THEN 'en'
                              ELSE 'fr' END AS url,
       'https://ex.com/s' || CAST(doc_id // 3 AS VARCHAR) || '/de' AS set_id,
       CAST(3 AS BIGINT) AS n_variants,
       'de,en,fr' AS langs
FROM documents
WHERE doc_id % 11 <> 0
ORDER BY url
"""

ORACLE_SQL["jsonld_census"] = """
WITH t AS (
    SELECT doc_id, 'Article' AS schema_type,
           CAST(CASE WHEN doc_id % 2 = 0 THEN 1 ELSE 0 END
              + CASE WHEN doc_id % 5 = 0 THEN 1 ELSE 0 END AS BIGINT) AS n_blocks
    FROM documents
    UNION ALL
    SELECT doc_id, 'Product',
           CAST(CASE WHEN doc_id % 3 = 0 THEN 1 ELSE 0 END AS BIGINT)
    FROM documents
    UNION ALL
    SELECT doc_id, 'BreadcrumbList',
           CAST(CASE WHEN doc_id % 5 = 0 THEN 1 ELSE 0 END AS BIGINT)
    FROM documents
)
SELECT doc_id, schema_type, n_blocks FROM t
WHERE n_blocks > 0 ORDER BY doc_id, schema_type
"""

ORACLE_SQL["idn_hosts"] = """
SELECT doc_id,
       CASE doc_id % 5
           WHEN 0 THEN 'xn--mnchen-3ya.example.com'
           WHEN 1 THEN 'xn--bcher-kva.shop.de'
           WHEN 2 THEN 'plain.example.com'
           WHEN 3 THEN 'xn--pypl-53dc.com'
           ELSE 'paypal.com' END AS host,
       CASE doc_id % 5
           WHEN 0 THEN 'münchen.example.com'
           WHEN 1 THEN 'bücher.shop.de'
           WHEN 2 THEN 'plain.example.com'
           WHEN 3 THEN 'pаypаl.com'
           ELSE 'paypal.com' END AS decoded_host,
       CASE doc_id % 5
           WHEN 0 THEN 'münchen.example.com'
           WHEN 1 THEN 'bücher.shop.de'
           WHEN 2 THEN 'plain.example.com'
           ELSE 'paypal.com' END AS skeleton
FROM documents ORDER BY doc_id
"""

ORACLE_SQL["group_sample"] = _splitmix_sql(
    "documents", "doc_id", 41, "doc_id, lang"
) + """
SELECT lang, doc_id FROM (
    SELECT lang, doc_id,
           row_number() OVER (PARTITION BY lang ORDER BY hv, doc_id) AS rk
    FROM h
) WHERE rk <= 5 ORDER BY lang, doc_id
"""

ORACLE_SQL["percentile_rank"] = """
SELECT lang, doc_id, n_chars,
       CAST(row_number() OVER (PARTITION BY lang
                               ORDER BY n_chars, doc_id) AS BIGINT) AS rank,
       CAST(count(*) OVER (PARTITION BY lang) AS BIGINT) AS n_in_group
FROM documents ORDER BY lang, rank
"""

ORACLE_SQL["mode_per_user"] = """
WITH c AS (
    SELECT user_id, event_type, count(*) AS n
    FROM events GROUP BY 1, 2
)
SELECT user_id AS user_id,
       event_type AS mode,
       CAST(n AS BIGINT) AS mode_count
FROM c
QUALIFY row_number() OVER (PARTITION BY user_id
                           ORDER BY n DESC, event_type) = 1
ORDER BY user_id
"""

ORACLE_SQL["homoglyph_dedup"] = """
WITH h AS (
    SELECT DISTINCT
        CASE WHEN doc_id % 6 = 0
             THEN replace(replace('site' || CAST(doc_id % 20 AS VARCHAR)
                  || '.example.com', 'e', 'е'), 'o', 'о')
             ELSE 'site' || CAST(doc_id % 20 AS VARCHAR) || '.example.com'
        END AS host
    FROM documents
),
s AS (
    SELECT host,
           replace(replace(lower(host), 'е', 'e'), 'о', 'o') AS skeleton
    FROM h
),
g AS (
    SELECT skeleton, count(DISTINCT host) AS nv, min(host) AS rep
    FROM s GROUP BY 1
)
SELECT s.host, s.skeleton, g.rep,
       CAST(g.nv AS BIGINT) AS n_variants,
       g.nv > 1 AS is_spoofed
FROM s JOIN g USING (skeleton)
ORDER BY s.skeleton, s.host
"""

ORACLE_SQL["politeness_schedule"] = """
WITH u AS (
    SELECT 'site' || CAST(doc_id % 10 AS VARCHAR) AS host,
           'https://site' || CAST(doc_id % 10 AS VARCHAR) || '/p/'
               || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
           CASE WHEN (doc_id % 10) % 3 <> 0
                THEN 1 + (doc_id % 10) % 4 ELSE 1 END AS delay
    FROM documents
),
r AS (
    SELECT host, url, delay,
           CAST(row_number() OVER (PARTITION BY host ORDER BY url) AS BIGINT)
               AS rank
    FROM u
)
SELECT host, url, rank, CAST((rank - 1) * delay AS BIGINT) AS slot_sec
FROM r ORDER BY host, rank
"""

ORACLE_SQL["remove_dup_substrings"] = """
WITH corpus AS (
    SELECT doc_id,
           CASE WHEN doc_id % 3 = 0
                THEN text || ' (c) 2026 example media group - all rights reserved. subscribe to our newsletter today for more stories.'
                ELSE text END AS text
    FROM documents
),
w AS (
    SELECT doc_id, CAST(i.i AS BIGINT) AS i,
           substring(text, CAST(i.i AS INT), 50) AS s
    FROM corpus, LATERAL (SELECT unnest(range(1, length(text) - 48)) AS i) i
),
dup AS (
    SELECT s FROM (SELECT s, count(*) AS n FROM w GROUP BY s) WHERE n >= 2
),
hits AS (SELECT w.doc_id, w.i FROM w JOIN dup USING (s)),
cov AS (
    SELECT DISTINCT h.doc_id, h.i + o.o AS k
    FROM hits h, (SELECT unnest(range(50)) AS o) o(o)
),
chars AS (
    SELECT doc_id, CAST(t.k AS BIGINT) AS k,
           substring(text, CAST(t.k AS INT), 1) AS ch
    FROM corpus, LATERAL unnest(range(1, length(text) + 1)) t(k)
),
kept AS (
    SELECT ch.doc_id, ch.k, ch.ch
    FROM chars ch LEFT JOIN cov ON cov.doc_id = ch.doc_id AND cov.k = ch.k
    WHERE cov.k IS NULL
)
SELECT c2.doc_id,
       coalesce((SELECT string_agg(ch, '' ORDER BY k)
                 FROM kept WHERE kept.doc_id = c2.doc_id), '') AS cleaned_text,
       CAST(length(c2.text) AS BIGINT) AS n_chars,
       CAST(coalesce((SELECT count(*) FROM cov
                      WHERE cov.doc_id = c2.doc_id), 0) AS BIGINT) AS n_removed
FROM corpus c2 ORDER BY doc_id
"""

ORACLE_SQL["redact_contaminated"] = r"""
WITH toks AS (
    SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS w FROM documents
),
bench AS (
    SELECT DISTINCT array_to_string(list_slice(w, 6, 13), ' ') AS g
    FROM toks WHERE doc_id % 10 = 0 AND len(w) >= 13
),
pos AS (
    SELECT doc_id, CAST(t.i AS BIGINT) AS i,
           array_to_string(list_slice(w, CAST(t.i AS INTEGER),
                                      CAST(t.i AS INTEGER) + 7), ' ') AS g
    FROM toks, LATERAL unnest(range(1, len(w) - 6)) t(i)
),
hits AS (SELECT pos.doc_id, pos.i FROM pos JOIN bench USING (g)),
bad AS (
    SELECT DISTINCT h.doc_id, h.i + o.o AS j
    FROM hits h, (SELECT unnest(range(8)) AS o) o(o)
),
tokpos AS (
    SELECT doc_id, CAST(t.k AS BIGINT) AS k, w[CAST(t.k AS INTEGER)] AS tok
    FROM toks, LATERAL unnest(range(1, len(w) + 1)) t(k)
),
kept AS (
    SELECT tp.doc_id, tp.k, tp.tok
    FROM tokpos tp LEFT JOIN bad b ON b.doc_id = tp.doc_id AND b.j = tp.k
    WHERE b.j IS NULL
)
SELECT t.doc_id,
       coalesce((SELECT string_agg(tok, ' ' ORDER BY k)
                 FROM kept WHERE kept.doc_id = t.doc_id), '') AS redacted_text,
       CAST(len(t.w) AS BIGINT) AS n_tokens,
       CAST(coalesce((SELECT count(*) FROM bad WHERE bad.doc_id = t.doc_id), 0)
            AS BIGINT) AS n_redacted
FROM toks t ORDER BY t.doc_id
"""

ORACLE_SQL["lang_spans"] = """
WITH spans(span_start, span_end, n_lines, pos) AS (
    VALUES (0, 1, 2, 1), (2, 3, 2, 2), (4, 5, 2, 3)
)
SELECT d.doc_id,
       CAST(s.span_start AS BIGINT) AS span_start,
       CAST(s.span_end AS BIGINT) AS span_end,
       CASE s.pos WHEN 1 THEN 'en' WHEN 2 THEN 'de'
            ELSE CASE WHEN d.doc_id % 2 = 0 THEN 'he' ELSE 'en' END
       END AS lang,
       CAST(s.n_lines AS BIGINT) AS n_lines
FROM documents d CROSS JOIN spans s
ORDER BY d.doc_id, span_start
"""

ORACLE_SQL["snapshot_delta"] = """
WITH base AS (
    SELECT doc_id,
           'doc://' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
           substring(coalesce(text, ''), 1, 1000) AS t
    FROM documents
),
o AS (SELECT url, t FROM base WHERE doc_id % 5 <> 0),
n AS (
    SELECT url,
           CASE WHEN doc_id % 3 = 0 THEN replace(t, 'a', '@') ELSE t END AS t
    FROM base WHERE doc_id % 7 <> 0
)
SELECT o.url,
       n.t AS reconstructed,
       CAST(strlen(n.t) AS BIGINT) AS bytes_new
FROM o JOIN n USING (url)
WHERE o.t <> n.t
ORDER BY o.url
"""

ORACLE_SQL["http_stats"] = """
SELECT CAST(CASE doc_id % 5 WHEN 2 THEN 301 WHEN 3 THEN 404
            WHEN 4 THEN 500 ELSE 200 END AS BIGINT) AS http_status,
       CASE doc_id % 3 WHEN 0 THEN 'text/html'
                       WHEN 1 THEN 'application/pdf'
                       ELSE 'text/plain' END AS mime,
       CAST(count(*) AS BIGINT) AS n
FROM documents GROUP BY 1, 2 ORDER BY 1, 2
"""

ORACLE_SQL["wat_roundtrip"] = """
SELECT 'doc://' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
       TIMESTAMP '2026-01-01 00:00:00' + doc_id * INTERVAL 1 SECOND AS warc_ts,
       'Doc ' || CAST(doc_id AS VARCHAR) || ' & Co' AS title,
       CAST(doc_id % 3 AS BIGINT) AS n_links
FROM documents ORDER BY url
"""

ORACLE_SQL["audio_fingerprint"] = """
WITH e AS (
    SELECT d.doc_id, CAST(t.t // 32 AS INTEGER) AS win,
           sum(abs(((d.doc_id % 50) * 37 + t.t * 13) % 2048 - 1024)) AS en
    FROM documents d
    CROSS JOIN (SELECT unnest(range(0, 1024)) AS t) t
    GROUP BY 1, 2
),
b AS (
    SELECT a.doc_id,
           CAST(sum(CASE WHEN a.en > p.en
                         THEN (CAST(1 AS BIGINT) << (a.win - 1))
                         ELSE 0 END) AS BIGINT) AS fp
    FROM e a JOIN e p ON p.doc_id = a.doc_id AND p.win = a.win - 1
    GROUP BY 1
)
SELECT doc_id AS media_id,
       fp AS fingerprint,
       min(doc_id) OVER (PARTITION BY fp) AS rep_id,
       CAST(count(*) OVER (PARTITION BY fp) AS BIGINT) AS cluster_size
FROM b ORDER BY media_id
"""

ORACLE_SQL["path_templates"] = r"""
WITH u AS (
    SELECT CASE doc_id % 4
        WHEN 0 THEN 'https://site' || CAST(doc_id % 10 AS VARCHAR)
                 || '.example.com/item/' || CAST(doc_id AS VARCHAR)
                 || '/review/' || CAST(doc_id % 7 AS VARCHAR)
        WHEN 1 THEN 'http://site' || CAST(doc_id % 10 AS VARCHAR)
                 || '.example.com/about'
        WHEN 2 THEN 'https://site' || CAST(doc_id % 10 AS VARCHAR)
                 || '.example.com/search?q=x' || CAST(doc_id AS VARCHAR)
                 || '&page=' || CAST(doc_id % 5 AS VARCHAR)
        ELSE 'https://site' || CAST(doc_id % 10 AS VARCHAR)
                 || '.example.com/p/' || CAST(doc_id AS VARCHAR)
                 || '#frag' || CAST(doc_id AS VARCHAR)
        END AS url
    FROM documents
),
t AS (
    SELECT regexp_replace(
               regexp_replace(
                   regexp_replace(url, '^[a-zA-Z][a-zA-Z0-9+.-]*://', ''),
                   '[?#].*$', ''),
               '[0-9]+', '<d>', 'g') AS template
    FROM u
),
c AS (SELECT template, count(*) AS cnt FROM t WHERE template <> '' GROUP BY 1)
SELECT template, CAST(cnt AS BIGINT) AS cnt,
       CAST(row_number() OVER (ORDER BY cnt DESC, template) AS INTEGER) AS rank
FROM c QUALIFY rank <= 20 ORDER BY rank
"""

ORACLE_SQL["group_winsorize"] = """
WITH base AS (
    SELECT lang AS g, n_chars AS v FROM documents
    WHERE lang IS NOT NULL AND n_chars IS NOT NULL
),
r AS (
    SELECT g, v,
           row_number() OVER (PARTITION BY g ORDER BY v) AS rk,
           count(*) OVER (PARTITION BY g) AS n
    FROM base
),
b AS (
    SELECT DISTINCT g, n,
           greatest(1, least(CAST(ceil(0.05 * n) AS BIGINT), n)) AS rlo,
           greatest(1, least(CAST(ceil(0.95 * n) AS BIGINT), n)) AS rhi
    FROM r
),
lh AS (
    SELECT r.g,
           min(CASE WHEN rk = rlo THEN v END) AS lo,
           min(CASE WHEN rk = rhi THEN v END) AS hi
    FROM r JOIN b USING (g) GROUP BY r.g
)
SELECT r.g AS lang,
       CAST(b.n AS BIGINT) AS n,
       CAST(lh.lo AS BIGINT) AS lo,
       CAST(lh.hi AS BIGINT) AS hi,
       CAST(sum(v) AS BIGINT) AS sum_raw,
       CAST(sum(CASE WHEN rk < rlo THEN lh.lo
                     WHEN rk > rhi THEN lh.hi ELSE v END) AS BIGINT)
           AS sum_clipped,
       CAST(sum(CASE WHEN rk < rlo OR rk > rhi THEN 1 ELSE 0 END) AS BIGINT)
           AS n_clipped
FROM r JOIN b USING (g) JOIN lh ON lh.g = r.g
GROUP BY r.g, b.n, lh.lo, lh.hi
ORDER BY lang
"""

ORACLE_SQL["profile_table"] = """
SELECT 'event_id' AS "column", CAST(count(*) AS BIGINT) AS n_rows,
       CAST(count(*) - count(event_id) AS BIGINT) AS n_nulls,
       CAST(count(DISTINCT event_id) AS BIGINT) AS n_distinct,
       CAST(min(event_id) AS VARCHAR) AS min_val,
       CAST(max(event_id) AS VARCHAR) AS max_val
FROM events
UNION ALL
SELECT 'event_type', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(event_type) AS BIGINT),
       CAST(count(DISTINCT event_type) AS BIGINT),
       min(event_type), max(event_type)
FROM events
UNION ALL
SELECT 'user_id', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(user_id) AS BIGINT),
       CAST(count(DISTINCT user_id) AS BIGINT),
       CAST(min(user_id) AS VARCHAR), CAST(max(user_id) AS VARCHAR)
FROM events
ORDER BY "column"
"""

ORACLE_SQL["dataset_split"] = _splitmix_sql(
    "documents", "doc_id", 0, "doc_id"
) + """
SELECT doc_id,
       CASE WHEN hv < CAST(14757395258967641292 AS UBIGINT) THEN 'train'
            WHEN hv < CAST(16602069666338596454 AS UBIGINT) THEN 'val'
            ELSE 'test' END AS split
FROM h ORDER BY doc_id
"""

ORACLE_SQL["crawl_budget"] = """
WITH t AS (
    SELECT 'site' || CAST(doc_id % 20 AS VARCHAR) AS host,
           count(*) AS n_pages
    FROM documents GROUP BY 1
),
s AS (SELECT sum(n_pages) AS tw FROM t),
a AS (
    SELECT host, n_pages,
           (137 * n_pages) // s.tw AS base,
           (137 * n_pages) % s.tw AS rem
    FROM t, s
),
e AS (
    SELECT host, n_pages, base,
           row_number() OVER (ORDER BY rem DESC, host) AS rk,
           137 - (SELECT sum(base) FROM a) AS n_extra
    FROM a
)
SELECT host,
       CAST(n_pages AS BIGINT) AS n_pages,
       CAST(base AS BIGINT) AS base,
       CAST(CASE WHEN rk <= n_extra THEN 1 ELSE 0 END AS BIGINT) AS extra,
       CAST(base + CASE WHEN rk <= n_extra THEN 1 ELSE 0 END AS BIGINT) AS alloc
FROM e ORDER BY host
"""

ORACLE_SQL["triangles"] = r"""
WITH base AS (SELECT doc_id AS i FROM documents),
raw AS (
    SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
           'site' || CAST((i * 7 + j) % 20 AS VARCHAR) || '.example.com' AS dst
    FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)
    UNION ALL
    SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com',
           'site' || CAST(i % 20 AS VARCHAR) || '.example.com'
    FROM base
),
e AS (
    SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
    FROM raw WHERE src <> dst
),
n AS (SELECT count(DISTINCT x) AS n_nodes
      FROM (SELECT u AS x FROM e UNION SELECT v FROM e)),
t AS (
    SELECT count(*) AS n_triangles
    FROM e e1 JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v
              JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v
)
SELECT CAST(n.n_nodes AS BIGINT) AS n_nodes,
       CAST((SELECT count(*) FROM e) AS BIGINT) AS n_edges,
       CAST(t.n_triangles AS BIGINT) AS n_triangles
FROM n, t
"""

ORACLE_SQL["dsir_select"] = r"""
WITH toks AS (
    SELECT doc_id, lang,
           unnest(regexp_extract_all(lower(text), '\S+')) AS tok
    FROM documents
),
tok_hash AS (
    SELECT tok, CAST(xor(m2, m2 >> 32) % 128 AS BIGINT) AS b
    FROM (
        SELECT tok,
               CAST((CAST(xor(raw, raw >> 29) AS HUGEINT) * 11400714819323198485)
                    % 18446744073709551616 AS UBIGINT) AS m2
        FROM (
            SELECT tok,
                   CAST(list_reduce(
                       list_prepend(CAST(0 AS HUGEINT),
                           list_transform(range(1, length(tok) + 1),
                               i -> CAST(unicode(substring(tok, i, 1)) AS HUGEINT))),
                       (a, b) -> (a * 31 + b) % 18446744073709551616) AS UBIGINT) AS raw
            FROM (SELECT DISTINCT tok FROM toks)
        )
    )
),
tb AS (
    SELECT th.b,
           count(*) FILTER (WHERE t.lang = 'en') AS tc,
           count(*) AS rc
    FROM toks t JOIN tok_hash th USING (tok)
    GROUP BY th.b
),
w AS (SELECT b, (tc + 1) * 1000000 // (rc + 1) AS w FROM tb),
sc AS (
    SELECT d.doc_id, CAST(coalesce(sum(w.w), 0) AS BIGINT) AS dsir_score
    FROM documents d
    LEFT JOIN toks tk ON tk.doc_id = d.doc_id
    LEFT JOIN tok_hash th ON th.tok = tk.tok
    LEFT JOIN w ON w.b = th.b
    GROUP BY d.doc_id
),
kk AS (SELECT CAST(ceil(0.1 * count(*)) AS BIGINT) AS k FROM documents),
ranked AS (
    SELECT doc_id, dsir_score,
           row_number() OVER (ORDER BY dsir_score DESC, doc_id) AS rn
    FROM sc
)
SELECT doc_id, dsir_score, rn <= (SELECT k FROM kk) AS selected
FROM ranked ORDER BY doc_id
"""

ORACLE_SQL["curate_corpus"] = r"""
WITH ws AS (
    SELECT doc_id, regexp_extract_all(text, '\S+') AS w FROM documents
),
lined AS (
    SELECT doc_id,
           array_to_string(
               list_transform(range(0, CAST(ceil(len(w) / 8.0) AS BIGINT)),
                   k -> array_to_string(
                            list_slice(w, k * 8 + 1, k * 8 + 8), ' ') || '.'),
               chr(10)) AS t2
    FROM ws
),
filt AS (
    SELECT doc_id, t2,
           list_filter(string_split(t2, chr(10)), l ->
               regexp_matches(l, '[.!?"]$')
               AND len(regexp_extract_all(l, '\S+')) >= 5
               AND NOT contains(lower(l), 'javascript')) AS kl
    FROM lined
),
c4 AS (
    SELECT doc_id, array_to_string(kl, chr(10)) AS ct
    FROM filt
    WHERE len(kl) >= 3
      AND NOT contains(lower(t2), 'lorem ipsum')
      AND NOT contains(t2, '{')
),
g AS (
    SELECT doc_id, ct, regexp_extract_all(ct, '\S+') AS gw FROM c4
),
q AS (
    SELECT doc_id, ct FROM (
        SELECT doc_id, ct,
               len(gw) AS nw,
               coalesce(list_sum(list_transform(gw, x -> length(x))), 0) AS wc,
               len(regexp_extract_all(ct, '#'))
                 + len(regexp_extract_all(ct, '\.\.\.'))
                 + len(regexp_extract_all(ct, '…')) AS ns,
               len(list_filter(gw, x -> regexp_matches(x, '[A-Za-z]'))) AS aw
        FROM g)
    WHERE nw >= 50 AND nw <= 100000
      AND 3 * nw <= wc AND wc <= 10 * nw
      AND 10 * ns <= nw AND 5 * aw >= 4 * nw
),
ded AS (SELECT ct, min(doc_id) AS doc_id FROM q GROUP BY ct),
o AS (
    SELECT doc_id, length(ct) AS nb,
           coalesce(sum(length(ct)) OVER (
               ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS off
    FROM ded
)
SELECT CAST(off // 20000 AS BIGINT) AS shard_id,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(nb) AS BIGINT) AS total_bytes,
       min(doc_id) AS first_doc
FROM o GROUP BY 1 ORDER BY 1
"""

ORACLE_SQL["pmi_bigrams"] = r"""
WITH ws AS (
    SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS w FROM documents
),
uni AS (
    SELECT tok, count(*) AS c
    FROM (SELECT unnest(w) AS tok FROM ws) GROUP BY 1
),
nt AS (SELECT sum(c) AS n FROM uni),
bg AS (
    SELECT w[CAST(i AS INTEGER)] AS x, w[CAST(i AS INTEGER) + 1] AS y
    FROM ws, LATERAL unnest(range(1, len(w))) AS t(i)
),
bgc AS (
    SELECT x, y, count(*) AS cxy FROM bg GROUP BY 1, 2 HAVING count(*) >= 5
),
scored AS (
    SELECT bgc.x || ' ' || bgc.y AS bigram,
           CAST(bgc.cxy AS BIGINT) AS cnt,
           CAST((1000000 * CAST(bgc.cxy AS HUGEINT) * nt.n)
                // (CAST(ux.c AS HUGEINT) * uy.c) AS BIGINT) AS pmi_scaled
    FROM bgc
    JOIN uni ux ON ux.tok = bgc.x
    JOIN uni uy ON uy.tok = bgc.y
    CROSS JOIN nt
)
SELECT bigram, cnt, pmi_scaled,
       CAST(row_number() OVER (ORDER BY pmi_scaled DESC, bigram) AS INTEGER) AS rank
FROM scored QUALIFY rank <= 20 ORDER BY rank
"""

ORACLE_SQL["snapshot_edit_distance"] = """
WITH base AS (
    SELECT doc_id,
           'doc://' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
           substring(coalesce(text, ''), 1, 1000) AS t
    FROM documents
),
o AS (SELECT url, t FROM base WHERE doc_id % 5 <> 0),
n AS (
    SELECT url,
           CASE WHEN doc_id % 3 = 0 THEN replace(t, 'a', '@') ELSE t END AS t
    FROM base WHERE doc_id % 7 <> 0
)
SELECT o.url,
       CAST(levenshtein(o.t, n.t) AS BIGINT) AS edit_distance,
       CAST(strlen(o.t) AS BIGINT) AS bytes_old,
       CAST(strlen(n.t) AS BIGINT) AS bytes_new
FROM o JOIN n USING (url)
WHERE o.t <> n.t
ORDER BY o.url
"""

ORACLE_SQL["extract_charset"] = """
SELECT doc_id,
       CASE doc_id % 5 WHEN 0 THEN 'utf-8'
                       WHEN 1 THEN 'utf-16-le'
                       WHEN 2 THEN 'utf-16-be'
                       ELSE 'windows-1252' END AS charset,
       text || ' — résumé €' AS extracted_text
FROM documents ORDER BY doc_id
"""

ORACLE_SQL["wild_pages"] = """
SELECT doc_id,
       CASE doc_id % 14
            WHEN 0 THEN 'comments'      WHEN 1 THEN 'scripts'
            WHEN 2 THEN 'markedsec'     WHEN 3 THEN 'misnest'
            WHEN 4 THEN 'entities'      WHEN 5 THEN 'attrs'
            WHEN 6 THEN 'controls'      WHEN 7 THEN 'charset_lie'
            WHEN 8 THEN 'deep_nest'     WHEN 9 THEN 'layout_tables'
            WHEN 10 THEN 'double_doc'   WHEN 11 THEN 'rawtext_traps'
            WHEN 12 THEN 'truncated'    ELSE 'bom_controls' END AS trait,
       text AS extracted_text
FROM documents ORDER BY doc_id
"""

ORACLE_SQL["warc_salvage"] = """
SELECT doc_id,
       CAST(CASE WHEN doc_id % 4 = 0 THEN 8 ELSE 7 END AS BIGINT) AS n_ok,
       CAST(CASE WHEN doc_id % 4 = 0 THEN 0 ELSE 1 END AS BIGINT) AS n_lost,
       CAST((CASE WHEN doc_id % 4 = 0 THEN 8 ELSE 7 END)
            * length(text) AS BIGINT) AS recovered_chars
FROM documents ORDER BY doc_id
"""

ORACLE_SQL["http_codings"] = """
SELECT doc_id,
       CASE doc_id % 5
            WHEN 0 THEN 'identity' WHEN 1 THEN 'chunked'
            WHEN 2 THEN 'gzip'     WHEN 3 THEN 'deflate'
            ELSE 'gzip+chunked' END AS coding,
       text AS body
FROM documents ORDER BY doc_id
"""

ORACLE_SQL["wild_mixed"] = """
SELECT doc_id,
       CASE doc_id % 3 WHEN 0 THEN 'html' WHEN 1 THEN 'pdf'
            ELSE 'charset' END AS family,
       text || CASE WHEN doc_id % 3 <> 2 THEN ''
            ELSE CASE doc_id % 10
                 WHEN 0 THEN ' 日本語のテキスト' WHEN 1 THEN ' 日本語'
                 WHEN 2 THEN ' 中文网页'        WHEN 3 THEN ' 中文字'
                 WHEN 4 THEN ' 한국어 텍스트'    WHEN 5 THEN ' Русский текст'
                 WHEN 6 THEN ' Русский'        WHEN 7 THEN ' Ελληνικά'
                 WHEN 8 THEN ' Türkçe sayfa ğış' ELSE ' نص عربي' END END
           AS extracted_text
FROM documents ORDER BY doc_id
"""

ORACLE_SQL["extract_spans"] = r"""
WITH w AS (
    SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents
), h AS (
    SELECT doc_id,
           array_to_string(list_slice(ws, 1, (len(ws) + 1) // 2), ' ') AS h1,
           array_to_string(
               list_slice(ws, (len(ws) + 1) // 2 + 1, len(ws)), ' ') AS h2
    FROM w
), rows AS (
    SELECT doc_id, 0 AS block_idx,
           {P} + 3 AS span_start,
           {P} + 3 + length(h1) AS span_end,
           h1 AS content
    FROM h WHERE length(h1) >= 8
    UNION ALL
    SELECT doc_id, CASE WHEN length(h1) >= 8 THEN 1 ELSE 0 END,
           {P} + 3 + length(h1) + 7,
           {P} + 3 + length(h1) + 7 + length(h2),
           h2
    FROM h WHERE length(h2) >= 8
)
SELECT doc_id, block_idx, span_start, span_end, content
FROM rows ORDER BY doc_id, block_idx
""".replace("{P}", str(len(_SPAN_PRE)))

ORACLE_SQL["charset_world"] = """
SELECT doc_id,
       CASE doc_id % 10
            WHEN 0 THEN 'shift_jis'    WHEN 1 THEN 'euc_jp'
            WHEN 2 THEN 'gbk'          WHEN 3 THEN 'big5'
            WHEN 4 THEN 'euc_kr'       WHEN 5 THEN 'windows-1251'
            WHEN 6 THEN 'koi8-r'       WHEN 7 THEN 'iso-8859-7'
            WHEN 8 THEN 'windows-1254' ELSE 'windows-1256' END AS charset,
       text || CASE doc_id % 10
            WHEN 0 THEN ' 日本語のテキスト' WHEN 1 THEN ' 日本語'
            WHEN 2 THEN ' 中文网页'        WHEN 3 THEN ' 中文字'
            WHEN 4 THEN ' 한국어 텍스트'    WHEN 5 THEN ' Русский текст'
            WHEN 6 THEN ' Русский'        WHEN 7 THEN ' Ελληνικά'
            WHEN 8 THEN ' Türkçe sayfa ğış' ELSE ' نص عربي' END
           AS extracted_text
FROM documents ORDER BY doc_id
"""

ORACLE_SQL["wild_pdfs"] = """
SELECT doc_id,
       CASE doc_id % 8
            WHEN 0 THEN 'clean'            WHEN 1 THEN 'trailing_garbage'
            WHEN 2 THEN 'leading_junk'     WHEN 3 THEN 'comments'
            WHEN 4 THEN 'nul_padding'      WHEN 5 THEN 'truncated_xref'
            WHEN 6 THEN 'bad_startxref'    ELSE 'incremental' END AS trait,
       text AS extracted_text
FROM documents ORDER BY doc_id
"""

ORACLE_SQL["publish_dates"] = """
SELECT doc_id,
       CASE doc_id % 6
            WHEN 0 THEN 'meta'   WHEN 1 THEN 'jsonld'
            WHEN 2 THEN 'time'   WHEN 3 THEN 'url'
            WHEN 4 THEN 'none'   ELSE 'time' END AS date_source,
       CASE WHEN doc_id % 6 = 4 THEN ''
            WHEN doc_id % 6 = 3 THEN printf('%04d-%02d-01',
                 1995 + doc_id % 30, 1 + doc_id % 12)
            ELSE printf('%04d-%02d-%02d', 1995 + doc_id % 30,
                 1 + doc_id % 12, 1 + doc_id % 28) END AS pub_date
FROM documents ORDER BY doc_id
"""

ORACLE_SQL["warc_roundtrip"] = """
SELECT doc_id,
       'doc://' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
       TIMESTAMP '2026-01-01 00:00:00' + doc_id * INTERVAL 1 SECOND AS warc_ts,
       text AS extracted_text
FROM documents ORDER BY doc_id
"""


def q_redirect_chains(sf_dir: str) -> pd.DataFrame:
    """Resolve synthetic HTTP-redirect chains to their terminal urls:
    doc i (i%5 != 0) redirects to doc i-1, so chains are up to 4 hops
    and terminate at the i%5 == 0 docs.  The op is size-gated pointer
    resolution — (src, dst) string pairs only, never payloads — with a
    pointer-DOUBLING distributed regime above the gate
    (:func:`ops.links.resolve_redirects`).  Oracle: an independent
    DuckDB RECURSIVE-CTE walk of the same edge table."""
    from .ops.links import resolve_redirects

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        ids = ids[ids % 5 != 0]
        src = [f"doc://{i:08d}" for i in ids]
        dst = [f"doc://{i - 1:08d}" for i in ids]
        return pa.Table.from_arrays(
            [pa.array(src, pa.string()), pa.array(dst, pa.string())],
            names=["src", "dst"],
        )

    edges = ds.map_batches(to_edges, batch_format="pyarrow")
    df = resolve_redirects(edges).to_pandas()
    return df.sort_values("src").reset_index(drop=True)


QUERIES["redirect_chains"] = q_redirect_chains

ORACLE_SQL["redirect_chains"] = """
WITH RECURSIVE e AS (
    SELECT 'doc://' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS src,
           'doc://' || lpad(CAST(doc_id - 1 AS VARCHAR), 8, '0') AS dst
    FROM documents WHERE doc_id % 5 <> 0
),
walk(src, cur, hops) AS (
    SELECT src, dst, 1 FROM e
    UNION ALL
    SELECT w.src, e2.dst, w.hops + 1 FROM walk w JOIN e e2 ON w.cur = e2.src
)
SELECT src, cur AS final, CAST(hops AS BIGINT) AS hops
FROM walk w
WHERE NOT EXISTS (SELECT 1 FROM e WHERE e.src = w.cur)
ORDER BY src
"""


def q_nfc_normalize(sf_dir: str) -> pd.DataFrame:
    """Unicode NFC normalization over the corpus with synthesized
    decomposed suffixes (combining acute, Angstrom sign — the canonical
    composition cases), returning the composed text, a changed flag, and
    the post-NFC code-point length.  Shuffle-free single stage
    (:func:`ops.text.nfc_batch`); oracle: DuckDB ``nfc_normalize`` (an
    independent utf8proc implementation of UAX #15)."""
    from .ops.text import nfc_normalize

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def decorate(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        texts = batch["text"].to_pylist()
        suffixes = [" cafe" + chr(0x0301), " plain", " " + chr(0x212B)]
        out = [t + suffixes[int(i) % 3] for i, t in zip(ids, texts)]
        return pa.Table.from_arrays(
            [batch["doc_id"], pa.array(out, pa.string())],
            names=["doc_id", "text"],
        )

    out = nfc_normalize(ds.map_batches(decorate, batch_format="pyarrow"))
    df = (
        out.map_batches(
            lambda b: pa.Table.from_arrays(
                [
                    b["doc_id"],
                    b["text"],
                    b["changed"],
                    pa.array(
                        [len(t) for t in b["text"].to_pylist()], pa.int64()
                    ),
                ],
                names=["doc_id", "text_nfc", "changed", "n_chars_nfc"],
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    return df.sort_values("doc_id").reset_index(drop=True)


QUERIES["nfc_normalize"] = q_nfc_normalize

ORACLE_SQL["nfc_normalize"] = """
WITH raw AS (
    SELECT doc_id,
           text || CASE doc_id % 3
                       WHEN 0 THEN ' cafe' || chr(769)
                       WHEN 1 THEN ' plain'
                       ELSE ' ' || chr(8491)
                   END AS t
    FROM documents
)
SELECT doc_id,
       nfc_normalize(t) AS text_nfc,
       nfc_normalize(t) <> t AS changed,
       CAST(length(nfc_normalize(t)) AS BIGINT) AS n_chars_nfc
FROM raw ORDER BY doc_id
"""

ORACLE_SQL["bm25_search"] = r"""
WITH toks AS (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '\S+')) AS term
    FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
stats AS (
    SELECT (SELECT count(*) FROM documents) AS n,
           (SELECT count(*) FROM toks) // (SELECT count(*) FROM documents) AS a
),
q(query_id, term) AS (VALUES
    ('q1', 'hash'), ('q1', 'join'),
    ('q2', 'window'), ('q2', 'sort'), ('q2', 'stream'),
    ('q3', 'spark'), ('q3', 'dup')),
tf AS (
    SELECT doc_id, term, count(*) AS tf FROM toks
    WHERE term IN (SELECT term FROM q) GROUP BY 1, 2
),
dfv AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
w AS (
    SELECT q.query_id, tf.doc_id,
           10000 * (2 * s.n - 2 * dfv.df + 1) * (20 * s.a) * tf.tf
           // ((2 * dfv.df + 1) * (8 * s.a * tf.tf + 3 * s.a + 9 * dl.dl)) AS w
    FROM q JOIN tf USING (term) JOIN dfv USING (term)
         JOIN dl USING (doc_id) CROSS JOIN stats s
),
sc AS (
    SELECT query_id, doc_id, CAST(sum(w) AS BIGINT) AS score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY sum(w) DESC, doc_id
           ) AS r
    FROM w GROUP BY 1, 2
)
SELECT query_id, doc_id, score, CAST(r AS INTEGER) AS rank
FROM sc WHERE r <= 10 ORDER BY query_id, rank
"""

# k-means oracle: one CTE pair (assign aN, update cN) per unrolled Lloyd
# iteration, every step exact integer math (see ops/cluster.py docstring).
_KM_ASSIGN = """
a{i} AS (
    SELECT q.vec_id, q.v, c.cid,
           row_number() OVER (
               PARTITION BY q.vec_id
               ORDER BY list_sum(list_transform(list_zip(q.v, c.v),
                                 p -> (p[1] - p[2]) * (p[1] - p[2]))), c.cid
           ) AS rn
    FROM q CROSS JOIN c{j} c
),
u{i} AS (
    SELECT cid, unnest(v) AS x, generate_subscripts(v, 1) AS d
    FROM a{i} WHERE rn = 1
),
m{i} AS (
    SELECT cid, list(sx // cnt ORDER BY d) AS v
    FROM (SELECT cid, d, sum(x) AS sx, count(*) AS cnt FROM u{i} GROUP BY 1, 2)
    GROUP BY cid
),
c{i} AS (
    SELECT c{j}.cid, coalesce(m{i}.v, c{j}.v) AS v
    FROM c{j} LEFT JOIN m{i} USING (cid)
)"""

ORACLE_SQL["kmeans_clusters"] = (
    r"""
WITH q AS (
    SELECT vec_id,
           list_transform(embedding,
               e -> CAST(floor((CAST(e AS DOUBLE) + 2) * 1000000) AS BIGINT)) AS v
    FROM embeddings
),
c0 AS (
    SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid, v
    FROM q ORDER BY vec_id LIMIT 5
),"""
    + ",".join(_KM_ASSIGN.format(i=i, j=i - 1) for i in (1, 2, 3))
    + r""",
af AS (
    SELECT vec_id, cid, dist,
           row_number() OVER (PARTITION BY vec_id ORDER BY dist, cid) AS rn
    FROM (
        SELECT q.vec_id, c.cid,
               list_sum(list_transform(list_zip(q.v, c.v),
                        p -> (p[1] - p[2]) * (p[1] - p[2]))) AS dist
        FROM q CROSS JOIN c3 c
    )
)
SELECT cid AS cluster_id,
       CAST(count(*) AS BIGINT) AS n_members,
       min(vec_id) AS min_vec_id,
       CAST(sum(dist // 1000000) AS BIGINT) AS checksum
FROM af WHERE rn = 1 GROUP BY 1 ORDER BY 1
"""
)

# SemDeDup: the kmeans assignment chain over the union corpus (2
# unrolled Lloyd iterations), then within-cluster pairs decided by the
# same exact integer cosine inequality the Ray kernel uses
# (dot ≥ 0 ∧ dot²·den² ≥ num²·|a|²·|b|², HUGEINT), min-id reachability.
ORACLE_SQL["semdedup"] = (
    r"""
WITH RECURSIVE corpus AS (
    SELECT vec_id, embedding FROM embeddings
    UNION ALL
    SELECT vec_id + 100000, embedding FROM embeddings
),
q AS (
    SELECT vec_id,
           list_transform(embedding,
               e -> CAST(floor((CAST(e AS DOUBLE) + 2) * 1000000) AS BIGINT)) AS v
    FROM corpus
),
c0 AS (
    SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid, v
    FROM q ORDER BY vec_id LIMIT 5
),"""
    + ",".join(_KM_ASSIGN.format(i=i, j=i - 1) for i in (1, 2))
    + r""",
af AS (
    SELECT vec_id, cid,
           row_number() OVER (PARTITION BY vec_id ORDER BY dist, cid) AS rn
    FROM (
        SELECT q.vec_id, c.cid,
               list_sum(list_transform(list_zip(q.v, c.v),
                        p -> (p[1] - p[2]) * (p[1] - p[2]))) AS dist
        FROM q CROSS JOIN c2 c
    )
),
asg AS (SELECT vec_id, cid FROM af WHERE rn = 1),
qs AS (
    SELECT vec_id,
           list_transform(embedding,
               e -> CAST(floor(CAST(e AS DOUBLE) * 1000000) AS HUGEINT)) AS sv
    FROM corpus
),
cand AS (
    SELECT a.vec_id AS ia, b.vec_id AS ib, qa.sv AS va, qb.sv AS vb
    FROM asg a
    JOIN asg b ON a.cid = b.cid AND a.vec_id < b.vec_id
    JOIN corpus ca ON ca.vec_id = a.vec_id
    JOIN corpus cb ON cb.vec_id = b.vec_id
    JOIN qs qa ON qa.vec_id = a.vec_id
    JOIN qs qb ON qb.vec_id = b.vec_id
    WHERE list_cosine_similarity(ca.embedding, cb.embedding) >= 0.9989
),
pairs AS (
    SELECT ia, ib
    FROM (
        SELECT ia, ib,
               list_sum(list_transform(list_zip(va, vb),
                        p -> p[1] * p[2])) AS dot,
               list_sum(list_transform(va, x -> x * x)) AS na2,
               list_sum(list_transform(vb, x -> x * x)) AS nb2
        FROM cand
    )
    WHERE dot >= 0 AND na2 > 0 AND nb2 > 0
      AND dot * dot * 1000000 >= 998001 * na2 * nb2
),
edges AS (SELECT ia, ib FROM pairs UNION SELECT ib AS ia, ia AS ib FROM pairs),
reach(src, dst) AS (
    SELECT vec_id, vec_id FROM corpus
    UNION
    SELECT r.src, e.ib FROM reach r JOIN edges e ON r.dst = e.ia
),
lab AS (SELECT src AS vec_id, min(dst) AS rep_id FROM reach GROUP BY src)
SELECT l.vec_id, a.cid AS cluster_id, l.rep_id,
       l.vec_id <> l.rep_id AS is_duplicate
FROM lab l JOIN asg a ON a.vec_id = l.vec_id
ORDER BY l.vec_id
"""
)

# D4 prototype pruning: the same unrolled-Lloyd assignment chain, then a
# within-cluster (dist DESC, vec_id) window rank with an integer ceil keep
# count — every compared value is exact int64.
ORACLE_SQL["prototype_prune"] = (
    r"""
WITH q AS (
    SELECT vec_id,
           list_transform(embedding,
               e -> CAST(floor((CAST(e AS DOUBLE) + 2) * 1000000) AS BIGINT)) AS v
    FROM embeddings
),
c0 AS (
    SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid, v
    FROM q ORDER BY vec_id LIMIT 5
),"""
    + ",".join(_KM_ASSIGN.format(i=i, j=i - 1) for i in (1, 2))
    + r""",
af AS (
    SELECT vec_id, cid, dist,
           row_number() OVER (PARTITION BY vec_id ORDER BY dist, cid) AS rn
    FROM (
        SELECT q.vec_id, c.cid,
               list_sum(list_transform(list_zip(q.v, c.v),
                        p -> (p[1] - p[2]) * (p[1] - p[2]))) AS dist
        FROM q CROSS JOIN c2 c
    )
),
asg AS (SELECT vec_id, cid, dist FROM af WHERE rn = 1),
ranked AS (
    SELECT vec_id, cid, dist,
           row_number() OVER (PARTITION BY cid
                              ORDER BY dist DESC, vec_id) AS rank,
           count(*) OVER (PARTITION BY cid) AS n
    FROM asg
)
SELECT vec_id, cid AS cluster_id, CAST(dist AS BIGINT) AS dist,
       CAST(rank AS BIGINT) AS rank,
       rank <= (n * 1 + 2 - 1) // 2 AS kept
FROM ranked ORDER BY vec_id
"""
)

ORACLE_SQL["cross_decontaminate"] = r"""
WITH corpus AS (SELECT doc_id, lower(coalesce(text, '')) AS t FROM documents),
sh AS (
    SELECT doc_id,
           list_distinct(list_transform(range(1, length(t) - 3),
                                        i -> substring(t, i, 5))) AS s
    FROM corpus
),
lens AS (SELECT doc_id, len(s) AS l FROM sh),
ex AS (SELECT doc_id, unnest(s) AS g FROM sh),
exb AS (SELECT doc_id, g FROM ex WHERE doc_id % 25 = 0),
inter AS (
    SELECT a.doc_id AS ia, b.doc_id AS ib, count(*) AS i
    FROM ex a JOIN exb b ON a.g = b.g
    GROUP BY 1, 2
),
hits AS (
    SELECT DISTINCT ia AS doc_id FROM inter
    JOIN lens la ON la.doc_id = ia
    JOIN lens lb ON lb.doc_id = ib
    WHERE CAST(i AS DOUBLE) / (la.l + lb.l - i) >= 0.8
)
SELECT c.doc_id, c.doc_id IN (SELECT doc_id FROM hits) AS contaminated
FROM corpus c ORDER BY c.doc_id
"""

ORACLE_SQL["exif_census"] = r"""
SELECT doc_id,
       CASE WHEN doc_id % 7 = 0 THEN NULL ELSE doc_id % 8 + 1 END AS orientation,
       CASE WHEN doc_id % 7 = 0 THEN NULL
            ELSE 'cam' || CAST(doc_id % 3 AS VARCHAR) END AS make,
       CASE WHEN doc_id % 7 = 0 THEN NULL ELSE 16 + doc_id % 5 END AS pixel_x,
       CASE WHEN doc_id % 7 = 0 THEN NULL ELSE 100 * (doc_id % 4 + 1) END AS iso,
       doc_id % 7 <> 0 AS has_exif
FROM documents ORDER BY doc_id
"""

ORACLE_SQL["tier_extract"] = r"""
WITH s AS (
    SELECT doc_id,
           1000 * length(regexp_replace(coalesce(text, ''), '[^a-zA-Z0-9]', '', 'g'))
               // greatest(length(coalesce(text, '')), 1) AS score
    FROM documents
),
r AS (
    SELECT doc_id, score,
           row_number() OVER (ORDER BY score, doc_id) AS rank,
           count(*) OVER () AS n
    FROM s
)
SELECT CAST((rank - 1) * 4 // n AS BIGINT) AS tier,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(min(score) AS BIGINT) AS min_score,
       CAST(max(score) AS BIGINT) AS max_score,
       CAST(sum(score) AS BIGINT) AS sum_score
FROM r GROUP BY 1 ORDER BY 1
"""

ORACLE_SQL["quality_tiers"] = r"""
WITH s AS (
    SELECT doc_id,
           1000 * length(regexp_replace(coalesce(text, ''), '[^a-zA-Z0-9]', '', 'g'))
               // greatest(length(coalesce(text, '')), 1) AS score
    FROM documents
),
r AS (
    SELECT doc_id, score,
           row_number() OVER (ORDER BY score, doc_id) AS rank,
           count(*) OVER () AS n
    FROM s
)
SELECT doc_id, CAST(score AS BIGINT) AS score, CAST(rank AS BIGINT) AS rank,
       CAST((rank - 1) * 4 // n AS BIGINT) AS tier
FROM r ORDER BY doc_id
"""

ORACLE_SQL["dhash_dedup"] = r"""
WITH ids AS (SELECT doc_id, doc_id % 7 AS g FROM documents),
grid AS (
    SELECT doc_id, g, dy.k AS dy, dx.k AS dx
    FROM ids,
         (SELECT unnest(range(8)) AS k) dy,
         (SELECT unnest(range(8)) AS k) dx
),
-- dHash bit: compare the two nearest-sampled pixels of the closed-form
-- image. The odd-doc +1 retouch sits at (y=1, x=2), never on the sample
-- grid (ys = 2*dy, xs = 16*dx // 9), so the hash ignores it.
bits AS (
    SELECT doc_id, dy * 8 + dx AS k,
           CASE WHEN (g * 37 + (dy * 2) * 17 + ((dx * 16) // 9) * 29) % 256
                   > (g * 37 + (dy * 2) * 17 + (((dx + 1) * 16) // 9) * 29) % 256
                THEN 1 ELSE 0 END AS b
    FROM grid
),
h AS (
    SELECT doc_id,
           printf('%08x%08x',
               CAST(sum(CASE WHEN k < 32
                        THEN b * (1::BIGINT << (31 - k)) ELSE 0 END) AS BIGINT),
               CAST(sum(CASE WHEN k >= 32
                        THEN b * (1::BIGINT << (63 - k)) ELSE 0 END) AS BIGINT)
           ) AS dhash
    FROM bits GROUP BY 1
)
SELECT h.dhash,
       CAST(count(*) AS BIGINT) AS n_docs,
       min(h.doc_id) AS min_doc_id,
       CAST(count(DISTINCT (h.doc_id % 7) * 2 + h.doc_id % 2) AS BIGINT)
           AS n_distinct_payloads
FROM h GROUP BY 1 ORDER BY 1
"""

ORACLE_SQL["shard_plan"] = """
WITH o AS (
    SELECT doc_id, n_chars,
           coalesce(sum(n_chars) OVER (
               ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
           ), 0) AS off
    FROM documents
)
SELECT CAST(off // 100000 AS BIGINT) AS shard_id,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS total_bytes,
       min(doc_id) AS first_doc
FROM o GROUP BY 1 ORDER BY 1
"""

ORACLE_SQL["count_min"] = r"""
WITH toks AS (
    SELECT unnest(regexp_extract_all(lower(text), '\S+')) AS tok FROM documents
),
tc AS (SELECT tok, count(*) AS cnt FROM toks WHERE tok <> '' GROUP BY 1),
probes(token) AS (VALUES
    ('hash'), ('join'), ('spark'), ('window'), ('zzzunseen')),
vocab AS (SELECT tok FROM tc UNION SELECT token FROM probes),
tok_hash AS (
    SELECT tok, xor(m2, m2 >> 32) AS h
    FROM (
        SELECT tok,
               CAST((CAST(xor(raw, raw >> 29) AS HUGEINT) * 11400714819323198485)
                    % 18446744073709551616 AS UBIGINT) AS m2
        FROM (
            SELECT tok,
                   CAST(list_reduce(
                       list_prepend(CAST(0 AS HUGEINT),
                           list_transform(range(1, length(tok) + 1),
                               i -> CAST(unicode(substring(tok, i, 1)) AS HUGEINT))),
                       (a, b) -> (a * 31 + b) % 18446744073709551616) AS UBIGINT) AS raw
            FROM vocab
        )
    )
),
rows4 AS (SELECT unnest(range(4)) AS r),
counters AS (
    SELECT rows4.r, CAST((th.h >> (10 * rows4.r)) & 1023 AS BIGINT) AS c,
           sum(tc.cnt) AS total
    FROM tc JOIN tok_hash th USING (tok) CROSS JOIN rows4
    GROUP BY 1, 2
),
est AS (
    SELECT p.token,
           min(coalesce(co.total, 0)) AS cm_estimate
    FROM probes p
    JOIN tok_hash th ON th.tok = p.token
    CROSS JOIN rows4
    LEFT JOIN counters co
        ON co.r = rows4.r
       AND co.c = CAST((th.h >> (10 * rows4.r)) & 1023 AS BIGINT)
    GROUP BY 1
)
SELECT e.token,
       CAST(e.cm_estimate AS BIGINT) AS cm_estimate,
       CAST(coalesce(tc.cnt, 0) AS BIGINT) AS exact_count,
       CAST(e.cm_estimate - coalesce(tc.cnt, 0) AS BIGINT) AS overestimate
FROM est e LEFT JOIN tc ON tc.tok = e.token
ORDER BY e.token
"""


# ---------------------------------------------------------------------------
# Distributed BPE tokenizer training — the full merge loop, oracle-checked.
# ---------------------------------------------------------------------------

_BPE_TRAIN_ROUNDS = 8


def _bpe_round_ctes(n_rounds: int, min_count: int = 2) -> str:
    """Shared CTE chain replicating :func:`ops.bpe.bpe_train` round by round
    in pure SQL: per-round pair counts over the word-TYPE table, best-pair
    selection (count DESC, then (left, right) codepoint-ascending — DuckDB's
    binary UTF-8 collation equals Python's codepoint order), and greedy
    left-to-right merge application via run-parity window functions (within
    each maximal run of consecutive pair hits, keep the 1st, 3rd, … — the
    exact left-to-right pairing `merge_word` performs; for left ≠ right all
    runs have length 1).  ``MATERIALIZED`` on the per-round tables is load-
    bearing: each round references its predecessor twice, and DuckDB's
    default CTE inlining would otherwise duplicate the whole upstream chain
    2^rounds times."""
    parts = [
        r"""toks AS (
    SELECT unnest(regexp_extract_all(lower(text), '\S+')) AS word FROM documents
),
wf AS (SELECT word, CAST(count(*) AS BIGINT) AS cnt FROM toks GROUP BY 1),
syms_0 AS MATERIALIZED (
    SELECT word, cnt, list_append(regexp_extract_all(word, '.'), chr(31)) AS syms
    FROM wf
)"""
    ]
    for r in range(1, n_rounds + 1):
        p = r - 1
        parts.append(
            f"""pairs_{r} AS (
    SELECT syms[i] AS l, syms[i + 1] AS r2, sum(cnt) AS pcnt
    FROM (SELECT cnt, syms, unnest(range(1, len(syms))) AS i FROM syms_{p})
    GROUP BY 1, 2
),
best_{r} AS MATERIALIZED (
    SELECT l, r2, pcnt FROM pairs_{r}
    WHERE pcnt >= {min_count}
    ORDER BY pcnt DESC, l, r2 LIMIT 1
),
pos_{r} AS (
    SELECT word, cnt,
           unnest(syms) AS sym,
           unnest(range(1, len(syms) + 1)) AS i
    FROM syms_{p}
),
mk_{r} AS (
    SELECT word, cnt, i, sym,
           coalesce(sym = (SELECT l FROM best_{r})
                    AND lead(sym) OVER (PARTITION BY word ORDER BY i)
                        = (SELECT r2 FROM best_{r}), FALSE) AS hit
    FROM pos_{r}
),
rn_{r} AS (
    SELECT word, cnt, i, sym, hit,
           i - row_number() OVER (PARTITION BY word, hit ORDER BY i) AS grp
    FROM mk_{r}
),
gr_{r} AS (
    SELECT word, cnt, i, sym, hit,
           CASE WHEN hit THEN
               row_number() OVER (PARTITION BY word, hit, grp ORDER BY i) % 2 = 1
           ELSE FALSE END AS keep
    FROM rn_{r}
),
ab_{r} AS (
    SELECT word, cnt, i, sym, keep,
           coalesce(lag(keep) OVER (PARTITION BY word ORDER BY i), FALSE)
               AS absorbed
    FROM gr_{r}
),
syms_{r} AS MATERIALIZED (
    SELECT word, any_value(cnt) AS cnt,
           list(CASE WHEN keep THEN sym || (SELECT r2 FROM best_{r})
                     ELSE sym END ORDER BY i) AS syms
    FROM ab_{r} WHERE NOT absorbed
    GROUP BY word
)"""
        )
    return ",\n".join(parts)


def _gen_bpe_train_sql(n_rounds: int = _BPE_TRAIN_ROUNDS) -> str:
    union = "\nUNION ALL\n".join(
        f"SELECT {r} AS rank, l, r2, pcnt FROM best_{r}"
        for r in range(1, n_rounds + 1)
    )
    return f"""WITH {_bpe_round_ctes(n_rounds)},
merged AS (
{union}
)
SELECT CAST(rank AS INTEGER) AS rank, l AS "left", r2 AS "right",
       CAST(pcnt AS BIGINT) AS pair_count
FROM merged ORDER BY rank"""


def _gen_bpe_tokenize_sql(n_rounds: int = _BPE_TRAIN_ROUNDS) -> str:
    return f"""WITH {_bpe_round_ctes(n_rounds)},
lens AS (SELECT word, len(syms) AS wlen FROM syms_{n_rounds}),
doctoks AS (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '\\S+')) AS word
    FROM documents
),
per_doc AS (
    SELECT t.doc_id, sum(l.wlen) AS n
    FROM doctoks t JOIN lens l USING (word) GROUP BY 1
)
SELECT d.doc_id, CAST(coalesce(p.n, 0) AS INTEGER) AS n_bpe_tokens
FROM documents d LEFT JOIN per_doc p USING (doc_id)
ORDER BY d.doc_id"""


def q_bpe_train(sf_dir: str) -> pd.DataFrame:
    """The FULL distributed BPE merge loop (Sennrich et al. 2016), not just
    iteration zero: corpus word-type frequencies via one vocabulary-sized
    exchange, then 8 driver-side merge rounds over the word-TYPE table
    (vocabulary-bounded, never corpus-bounded — see ops/bpe.py docstring for
    the 100-TB decomposition). Oracled by an unrolled 8-round SQL replica of
    the trainer: per-round pair counts, deterministic best-pair selection,
    and greedy left-to-right merge application via run-parity windows."""
    from .ops.bpe import bpe_train

    ds = _read(sf_dir, "documents", columns=["text"])
    return bpe_train(ds, num_merges=_BPE_TRAIN_ROUNDS, min_count=2)


def q_bpe_tokenize(sf_dir: str) -> pd.DataFrame:
    """Train 8 merges on the corpus, then ENCODE the corpus with them
    (:class:`ops.bpe.BpeEncoder` — merge ranks compiled once per worker,
    per-worker word-type memo): per-document subword counts. Encoder ≡
    trainer evolution for in-vocabulary words (new symbols only ever form
    higher-rank pairs, and leftmost-first single merges equal left-to-right
    greedy within equal-symbol runs), which the shared SQL chain verifies
    end-to-end."""
    from .ops.bpe import bpe_apply, bpe_train

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    merges = bpe_train(ds, num_merges=_BPE_TRAIN_ROUNDS, min_count=2)
    out = bpe_apply(ds, merges).select_columns(["doc_id", "n_bpe_tokens"])
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


QUERIES["bpe_train"] = q_bpe_train
QUERIES["bpe_tokenize"] = q_bpe_tokenize
ORACLE_SQL["bpe_train"] = _gen_bpe_train_sql()
ORACLE_SQL["bpe_tokenize"] = _gen_bpe_tokenize_sql()


# ---------------------------------------------------------------------------
# Hybrid search: reciprocal-rank fusion of the BM25 and dense-ANN arms.
# ---------------------------------------------------------------------------

HYBRID_DEPTH = 20


def q_hybrid_search(sf_dir: str) -> pd.DataFrame:
    """Hybrid retrieval (:mod:`ops.fuse`): the SAME query strings run
    through BOTH ranked arms — integer-exact BM25 (:mod:`ops.search`) and
    dense cosine ANN over hashed-trigram embeddings (:mod:`ops.ann` /
    :mod:`ops.embed`, 6-decimal score quantization for float-order-free
    ranks) — each arm returning its per-query top-20, fused with
    integer-exact reciprocal-rank fusion (``Σ 1_000_000 // (60 + rank)``,
    Cormack et al. 2009) into a top-10. Both arms are distributed corpus
    scans; the fusion sees only O(queries × depth) rows."""
    from .ops.ann import brute_force_topk
    from .ops.embed import HashedNgramEmbedder, embed_documents
    from .ops.fuse import rrf_fuse
    from .ops.search import bm25_topk

    qids = sorted(BM25_QUERIES)
    lex = bm25_topk(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        BM25_QUERIES,
        k=HYBRID_DEPTH,
    ).to_pandas()

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["vec_id", "text"])

    embedded = embed_documents(
        _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
            rename, batch_format="pyarrow"
        ),
        dim=64,
        projection="identity",
    )
    embedder = HashedNgramEmbedder(dim=64, projection="identity")
    queries = np.stack([embedder.embed_one(BM25_QUERIES[q]) for q in qids])
    dense = brute_force_topk(
        embedded, queries, k=HYBRID_DEPTH, query_ids=qids, round_decimals=6
    ).rename(columns={"vec_id": "doc_id"})
    return rrf_fuse({"lex": lex, "dense": dense}, k=10)


def _gen_hybrid_sql() -> str:
    qvals = ",\n    ".join(
        f"('{q}', '{BM25_QUERIES[q]}')" for q in sorted(BM25_QUERIES)
    )
    qterm_vals = ",\n    ".join(
        f"('{q}', '{t}')"
        for q in sorted(BM25_QUERIES)
        for t in dict.fromkeys(BM25_QUERIES[q].lower().split())
    )
    return rf"""
WITH toks AS (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '\S+')) AS term
    FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
stats AS (
    SELECT (SELECT count(*) FROM documents) AS n,
           (SELECT count(*) FROM toks) // (SELECT count(*) FROM documents) AS a
),
q(query_id, term) AS (VALUES
    {qterm_vals}),
tf AS (
    SELECT doc_id, term, count(*) AS tf FROM toks
    WHERE term IN (SELECT term FROM q) GROUP BY 1, 2
),
dfv AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
w AS (
    SELECT q.query_id, tf.doc_id,
           10000 * (2 * s.n - 2 * dfv.df + 1) * (20 * s.a) * tf.tf
           // ((2 * dfv.df + 1) * (8 * s.a * tf.tf + 3 * s.a + 9 * dl.dl)) AS w
    FROM q JOIN tf USING (term) JOIN dfv USING (term)
         JOIN dl USING (doc_id) CROSS JOIN stats s
),
lrank AS (
    SELECT query_id, doc_id,
           row_number() OVER (
               PARTITION BY query_id ORDER BY sum(w) DESC, doc_id) AS r
    FROM w GROUP BY 1, 2
),
lex AS (SELECT query_id, doc_id, r FROM lrank WHERE r <= {HYBRID_DEPTH}),
corpus AS (SELECT doc_id, lower(text) AS t FROM documents),
grams AS (
    SELECT doc_id,
           unnest(list_transform(range(1, length(t) - 1),
                                 i -> substring(t, i, 3))) AS g
    FROM corpus
),
qs(query_id, t) AS (VALUES
    {qvals}),
qgrams AS (
    SELECT query_id,
           unnest(list_transform(range(1, length(t) - 1),
                                 i -> substring(t, i, 3))) AS g
    FROM qs
),
gh AS (
    SELECT g,
           CAST(list_reduce(
               list_prepend(CAST(14695981039346656037 AS HUGEINT),
                   list_transform(range(1, length(g) + 1),
                       i -> CAST(unicode(substring(g, i, 1)) AS HUGEINT))),
               (a, b) -> (CAST(xor(CAST(a AS UBIGINT), CAST(b AS UBIGINT)) AS HUGEINT)
                          * 1099511628211) % 18446744073709551616) AS UBIGINT)
           % 64 AS dim
    FROM (SELECT DISTINCT g FROM (SELECT g FROM grams UNION SELECT g FROM qgrams))
),
dims AS (
    SELECT doc_id, dim, CAST(count(*) AS DOUBLE) AS c
    FROM grams JOIN gh USING (g) GROUP BY 1, 2
),
qdims AS (
    SELECT query_id, dim, CAST(count(*) AS DOUBLE) AS c
    FROM qgrams JOIN gh USING (g) GROUP BY 1, 2
),
norms AS (SELECT doc_id, sqrt(sum(c * c)) AS nrm FROM dims GROUP BY 1),
qnorms AS (SELECT query_id, sqrt(sum(c * c)) AS nrm FROM qdims GROUP BY 1),
dots AS (
    SELECT q.query_id, d.doc_id, sum(q.c * d.c) AS dot
    FROM qdims q JOIN dims d ON q.dim = d.dim
    GROUP BY 1, 2
),
dscored AS (
    SELECT query_id, doc_id, dot / (nq.nrm * nd.nrm) AS score
    FROM dots JOIN qnorms nq USING (query_id) JOIN norms nd USING (doc_id)
),
drank AS (
    SELECT query_id, doc_id,
           row_number() OVER (
               PARTITION BY query_id ORDER BY round(score, 6) DESC, doc_id) AS r
    FROM dscored
),
dense AS (SELECT query_id, doc_id, r FROM drank WHERE r <= {HYBRID_DEPTH}),
fused AS (
    SELECT query_id, doc_id,
           coalesce(1000000 // (60 + l.r), 0)
           + coalesce(1000000 // (60 + d.r), 0) AS s
    FROM lex l FULL OUTER JOIN dense d USING (query_id, doc_id)
),
final AS (
    SELECT query_id, doc_id, s,
           row_number() OVER (
               PARTITION BY query_id ORDER BY s DESC, doc_id) AS r
    FROM fused
)
SELECT query_id, doc_id, CAST(s AS BIGINT) AS rrf_score, CAST(r AS INTEGER) AS rank
FROM final WHERE r <= 10 ORDER BY query_id, rank
"""


QUERIES["hybrid_search"] = q_hybrid_search
ORACLE_SQL["hybrid_search"] = _gen_hybrid_sql()


# ---------------------------------------------------------------------------
# Distributed suffix array (prefix doubling) — global suffix ranks.
# ---------------------------------------------------------------------------


def q_suffix_array(sf_dir: str) -> pd.DataFrame:
    """Global suffix-array ranks via distributed Manber–Myers prefix
    doubling (:mod:`ops.suffix`): every ``(doc, pos)`` suffix ranked in
    one corpus-wide lexicographic order (ties across documents broken by
    ``(doc_id, pos)``), built in ⌈log₂ max-doc-len⌉ rounds each moving
    only 24-byte integer rows — the structure exact-substring dedup (Lee
    et al. 2022) is defined over. Output restricted to the first three
    documents' positions; the RANKS remain global. Oracle: DuckDB sorts
    the actual suffix strings."""
    from .ops.suffix import suffix_ranks

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ranks = suffix_ranks(ds)

    def head_docs(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch["doc_id"], 3))

    out = ranks.map_batches(head_docs, batch_format="pyarrow").to_pandas()
    return out.sort_values(["doc_id", "pos"]).reset_index(drop=True)


QUERIES["suffix_array"] = q_suffix_array
ORACLE_SQL["suffix_array"] = """
WITH pos AS (
    SELECT doc_id, unnest(range(0, length(text))) AS p, text FROM documents
),
r AS (
    SELECT doc_id, p,
           row_number() OVER (
               ORDER BY substring(text, CAST(p AS INTEGER) + 1), doc_id, p
           ) AS srank
    FROM pos
)
SELECT doc_id, CAST(p AS BIGINT) AS pos, CAST(srank AS BIGINT) AS srank
FROM r WHERE doc_id < 3 ORDER BY doc_id, pos
"""


def q_longest_repeats(sf_dir: str) -> pd.DataFrame:
    """Top-20 longest repeated substrings in the corpus — the maximum-LCP
    adjacent pairs of the distributed suffix array (:mod:`ops.suffix`),
    with LCPs computed by binary lifting over the doubling ladder the
    sort already built (two 24-byte-row hash joins per level, exact
    end-capping by suffix lengths). Overlapping and cross-document
    repeats included — this is the exact question Lee et al.'s
    ExactSubstr dedup asks with its 50-token threshold. Oracle: DuckDB
    ranks the real suffix strings and scans each adjacent pair for its
    first mismatch."""
    from .ops.suffix import longest_repeats

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return longest_repeats(ds, k=20).to_pandas()


QUERIES["longest_repeats"] = q_longest_repeats
ORACLE_SQL["longest_repeats"] = """
WITH pos AS (
    SELECT doc_id, unnest(range(0, length(text))) AS p, text FROM documents
),
sfx AS (
    SELECT doc_id, p, substring(text, CAST(p AS INTEGER) + 1) AS s FROM pos
),
ord AS (
    SELECT doc_id, p, s,
           row_number() OVER (ORDER BY s, doc_id, p) AS rn
    FROM sfx
),
pairs AS (
    SELECT o1.doc_id AS d1, o1.p AS p1, o2.doc_id AS d2, o2.p AS p2,
           o1.s AS s1, o2.s AS s2
    FROM ord o1 JOIN ord o2 ON o2.rn = o1.rn + 1
),
lcps AS (
    SELECT d1, p1, d2, p2,
           coalesce(
               (SELECT min(i) FROM
                    unnest(range(1, least(length(s1), length(s2)) + 1)) AS t(i)
                WHERE substring(s1, CAST(i AS INTEGER), 1)
                      <> substring(s2, CAST(i AS INTEGER), 1)),
               least(length(s1), length(s2)) + 1) - 1 AS lcp
    FROM pairs
)
SELECT CAST(lcp AS BIGINT) AS lcp,
       d1 AS doc_id, CAST(p1 AS BIGINT) AS pos,
       d2 AS doc_id2, CAST(p2 AS BIGINT) AS pos2
FROM lcps ORDER BY lcp DESC, doc_id, pos LIMIT 20
"""


# ---------------------------------------------------------------------------
# Content-defined chunking (gear CDC) — storage-level dedup.
# ---------------------------------------------------------------------------


def q_cdc_chunks(sf_dir: str) -> pd.DataFrame:
    """Gear content-defined chunking (:mod:`ops.cdc`, FastCDC's
    position-local core): every document split at window-hash zero-bit
    boundaries, chunk identity = (length, polynomial fingerprint).
    Output: the first three documents' chunk records with each chunk's
    GLOBAL copy count (the one groupby exchange). Oracle: DuckDB replays
    the splitmix gear, the 16-char window sum, every cut, and the
    per-chunk fold."""
    from .ops.cdc import cdc_chunks

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    chunks = cdc_chunks(ds).materialize()
    counts = chunks.groupby(["length", "chunk_hash"]).count()

    def head_docs(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch["doc_id"], 3))

    rows = chunks.map_batches(head_docs, batch_format="pyarrow").to_pandas()
    wanted = pa.array(np.unique(rows["chunk_hash"].to_numpy()))

    def only_wanted(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch["chunk_hash"], value_set=wanted))

    cnt = counts.map_batches(only_wanted, batch_format="pyarrow").to_pandas()
    out = rows.merge(
        cnt.rename(columns={"count()": "n_copies"}),
        on=["length", "chunk_hash"],
        how="left",
    )
    out["n_copies"] = out["n_copies"].astype("int64")
    return (
        out[["doc_id", "start", "length", "chunk_hash", "n_copies"]]
        .sort_values(["doc_id", "start"])
        .reset_index(drop=True)
    )


def q_cdc_dedup(sf_dir: str) -> pd.DataFrame:
    """Corpus chunk-store dedup summary over the same gear chunking:
    total vs distinct chunk counts and character volumes — the dedup
    ratio a content-addressed 100 TB archive would realize."""
    from .ops.cdc import cdc_dedup_stats

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return cdc_dedup_stats(ds).to_pandas()


_CDC_CHAIN = r"""
WITH d AS (
    SELECT doc_id, text, length(text) AS n FROM documents WHERE length(text) > 0
),
p AS (SELECT doc_id, unnest(range(0, n)) AS i, text FROM d),
cpt AS (
    SELECT doc_id, i,
           unicode(substring(text, CAST(i + 1 AS INTEGER), 1)) AS c
    FROM p
),
m1 AS (
    SELECT doc_id, i,
           CAST((CAST(c AS HUGEINT) + 11400714819323198485)
                % 18446744073709551616 AS UBIGINT) AS x
    FROM cpt
),
m1x AS (SELECT doc_id, i, xor(x, x >> 30) AS a FROM m1),
m2 AS (
    SELECT doc_id, i,
           CAST((CAST(a % 4294967296 AS HUGEINT) * 13787848793156543929
              + CAST(((a >> 32) * 484763065) % 4294967296 AS HUGEINT)
                * 4294967296) % 18446744073709551616 AS UBIGINT) AS x
    FROM m1x
),
m2x AS (SELECT doc_id, i, xor(x, x >> 27) AS a FROM m2),
m3 AS (
    SELECT doc_id, i,
           CAST((CAST(a % 4294967296 AS HUGEINT) * 10723151780598845931
              + CAST(((a >> 32) * 321982955) % 4294967296 AS HUGEINT)
                * 4294967296) % 18446744073709551616 AS UBIGINT) AS x
    FROM m2x
),
gear AS (SELECT doc_id, i, xor(x, x >> 31) AS hv FROM m3),
pw(j, wt) AS (VALUES
    (0, 1), (1, 2), (2, 4), (3, 8), (4, 16), (5, 32), (6, 64), (7, 128),
    (8, 256), (9, 512), (10, 1024), (11, 2048), (12, 4096), (13, 8192),
    (14, 16384), (15, 32768)),
win AS (
    SELECT a.doc_id, a.i,
           CAST(sum(CAST(g.hv AS HUGEINT) * pw.wt)
                % 18446744073709551616 AS UBIGINT) AS h
    FROM gear a
    JOIN pw ON TRUE
    JOIN gear g ON g.doc_id = a.doc_id AND g.i = a.i - pw.j
    WHERE a.i >= 15
    GROUP BY 1, 2
),
cuts AS (
    SELECT w.doc_id, w.i
    FROM win w JOIN d USING (doc_id)
    WHERE w.i < d.n - 1 AND w.h % 32 = 0
),
starts AS (
    SELECT doc_id, 0 AS s FROM d
    UNION ALL
    SELECT doc_id, i + 1 AS s FROM cuts
),
chk AS (
    SELECT st.doc_id, st.s,
           coalesce(lead(st.s) OVER (PARTITION BY st.doc_id ORDER BY st.s),
                    d.n) AS e,
           d.text
    FROM starts st JOIN d USING (doc_id)
),
fold AS (
    SELECT doc_id, s, e - s AS length,
           CAST(list_reduce(
               list_prepend(CAST(0 AS HUGEINT),
                   list_transform(range(1, e - s + 1),
                       k -> CAST(unicode(substring(
                           text, CAST(s + k AS INTEGER), 1)) AS HUGEINT))),
               (acc, b) -> (acc * 1099511628211 + b)
                           % 18446744073709551616) AS UBIGINT) AS hv
    FROM chk
),
counts AS (SELECT length, hv, count(*) AS n_copies FROM fold GROUP BY 1, 2)
"""

QUERIES["cdc_chunks"] = q_cdc_chunks
QUERIES["cdc_dedup"] = q_cdc_dedup
ORACLE_SQL["cdc_chunks"] = _CDC_CHAIN + """
SELECT f.doc_id, CAST(f.s AS BIGINT) AS start,
       CAST(f.length AS BIGINT) AS length,
       CAST(CAST(f.hv AS HUGEINT)
            - CASE WHEN f.hv >= 9223372036854775808
                   THEN CAST(18446744073709551616 AS HUGEINT) ELSE 0 END
            AS BIGINT) AS chunk_hash,
       CAST(c.n_copies AS BIGINT) AS n_copies
FROM fold f JOIN counts c USING (length, hv)
WHERE f.doc_id < 3 ORDER BY f.doc_id, f.s
"""
ORACLE_SQL["cdc_dedup"] = _CDC_CHAIN + """
SELECT (SELECT CAST(count(*) AS BIGINT) FROM fold) AS total_chunks,
       (SELECT CAST(count(*) AS BIGINT) FROM counts) AS distinct_chunks,
       (SELECT CAST(sum(length) AS BIGINT) FROM fold) AS total_chars,
       (SELECT CAST(sum(length) AS BIGINT) FROM counts) AS distinct_chars
"""


# ---------------------------------------------------------------------------
# Elias-Fano posting-list encoding.
# ---------------------------------------------------------------------------


def q_ef_postings(sf_dir: str) -> pd.DataFrame:
    """Elias-Fano posting lists (:func:`ops.index.ef_postings`, the
    quasi-succinct inverted-index layout): per token with df ≥ 3, the
    split parameter ``low_width``, the exact ``encoded_bits`` size, and —
    verified END TO END — aggregates of the ids DECODED back out of the
    two encoded bit streams (``dec_first``/``dec_last``/``dec_sum``), so
    the encode/decode chain is checked against ids the oracle recomputes
    from raw text, not against itself. Same single (token, doc_id)
    exchange as `compress_postings`; the decode pass is per-list numpy on
    the vocabulary-sized result (verification path, not the hot path)."""
    from .ops.index import ef_decode, ef_postings

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def verify(batch: pa.Table) -> pa.Table:
        lows = batch["low"].to_pylist()
        highs = batch["high"].to_pylist()
        dfs = batch["df"].to_numpy(zero_copy_only=False)
        ls = batch["low_width"].to_numpy(zero_copy_only=False)
        first = np.empty(len(lows), np.int64)
        last = np.empty(len(lows), np.int64)
        tot = np.empty(len(lows), np.int64)
        for i, (lo, hi) in enumerate(zip(lows, highs)):
            ids = ef_decode(lo, hi, int(dfs[i]), int(ls[i]))
            first[i], last[i], tot[i] = ids[0], ids[-1], int(ids.sum())
        return pa.table(
            {
                "token": batch["token"],
                "df": batch["df"],
                "low_width": batch["low_width"],
                "encoded_bits": batch["encoded_bits"],
                "dec_first": pa.array(first, pa.int64()),
                "dec_last": pa.array(last, pa.int64()),
                "dec_sum": pa.array(tot, pa.int64()),
            }
        )

    out = (
        ef_postings(ds, min_df=3)
        .map_batches(verify, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("token").reset_index(drop=True)


QUERIES["ef_postings"] = q_ef_postings
ORACLE_SQL["ef_postings"] = r"""
WITH pairs AS (
    SELECT DISTINCT token, doc_id FROM (
        SELECT doc_id, unnest(regexp_extract_all(lower(text), '\S+')) AS token
        FROM documents
    )
),
g AS (
    SELECT token, count(*) AS df, min(doc_id) AS f, max(doc_id) AS la,
           sum(doc_id) AS s
    FROM pairs GROUP BY token HAVING count(*) >= 3
),
-- l = floor(log2(u/n)) with u = la+1; equals bit_length(u // n) - 1
-- because no power of two lies in (floor(u/n), u/n]
lv AS (SELECT *, length(bin((la + 1) // df)) - 1 AS l FROM g)
SELECT token,
       CAST(df AS BIGINT) AS df,
       CAST(l AS BIGINT) AS low_width,
       CAST(df * l + (la >> l) + df AS BIGINT) AS encoded_bits,
       CAST(f AS BIGINT) AS dec_first,
       CAST(la AS BIGINT) AS dec_last,
       CAST(s AS BIGINT) AS dec_sum
FROM lv ORDER BY token
"""


def q_phrase_search(sf_dir: str) -> pd.DataFrame:
    """Positional phrase search (:func:`ops.search.phrase_search`): exact
    token-adjacency matching via positional postings intersection — slot j
    of the phrase votes for start p-j at each hit position p, a start with
    all m slots is a match. The default regime intersects block-locally
    (documents are row-resident: zero exchange); the ``positions`` regime
    routes votes through the distributed groupby intersect and is
    equivalence-tested in tests/test_search.py. Occurrences are planted:
    every doc carries ``doc_id % 4`` trailing copies of the phrase."""
    from .ops.search import phrase_search

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out = [
            (t or "") + " needle in haystack" * (i % 4)
            for i, t in zip(ids, texts)
        ]
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(out, pa.string())],
            names=["doc_id", "text"],
        )

    pages = ds.map_batches(plant, batch_format="pyarrow")
    return phrase_search(pages, "needle in haystack").to_pandas()


QUERIES["phrase_search"] = q_phrase_search
ORACLE_SQL["phrase_search"] = r"""
WITH d AS (
    SELECT doc_id,
           coalesce(text, '') || repeat(' needle in haystack', doc_id % 4)
               AS text
    FROM documents
),
toks AS (
    SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS l FROM d
),
t AS (
    SELECT doc_id, CAST(i AS BIGINT) - 1 AS p, l[CAST(i AS INT)] AS tok
    FROM (SELECT doc_id, l, unnest(range(1, len(l) + 1)) AS i FROM toks)
),
m AS (
    SELECT a.doc_id, a.p AS start
    FROM t a
    JOIN t b ON b.doc_id = a.doc_id AND b.p = a.p + 1
    JOIN t c ON c.doc_id = a.doc_id AND c.p = a.p + 2
    WHERE a.tok = 'needle' AND b.tok = 'in' AND c.tok = 'haystack'
)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_matches,
       CAST(min(start) AS BIGINT) AS first_pos
FROM m GROUP BY doc_id ORDER BY doc_id
"""


def q_containment_dedup(sf_dir: str) -> pd.DataFrame:
    """Asymmetric set-containment dedup (:func:`ops.dedup.containment_dedup`):
    |A∩B| >= t*min(|A|,|B|) over word-3-gram shingles — catches small docs
    mostly contained in larger ones (quotes, partial scrapes) that Jaccard
    dilutes away. Fixture plants a word-prefix child (containment 1.0,
    must cluster) for every doc_id % 5 == 0 and an every-other-word decoy
    (disjoint shingle windows, must NOT cluster) for doc_id % 5 == 2; the
    oracle recomputes exact all-pairs containment + reachability in SQL."""
    from .ops.dedup import containment_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out_i, out_t = [], []
        for i, t in zip(ids, texts):
            out_i.append(i)
            out_t.append(t or "")
            w = [x for x in re.split(r"\s+", t or "") if x]
            if i % 5 == 0:
                k = max(4, (len(w) * 3) // 5)
                out_i.append(i + 300000)
                out_t.append(" ".join(w[:k]))
            elif i % 5 == 2:
                out_i.append(i + 600000)
                out_t.append(" ".join(w[::2]))
        return pa.Table.from_arrays(
            [pa.array(out_i, pa.int64()), pa.array(out_t, pa.string())],
            names=["doc_id", "text"],
        )

    corpus = ds.map_batches(plant, batch_format="pyarrow")
    out = containment_dedup(corpus, threshold=0.8, n=3)
    return (
        out.to_pandas()[["doc_id", "cluster_id", "is_duplicate"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


QUERIES["containment_dedup"] = q_containment_dedup
ORACLE_SQL["containment_dedup"] = r"""
WITH RECURSIVE corpus AS (
    SELECT doc_id, lower(coalesce(text, '')) AS t FROM documents
    UNION ALL
    SELECT doc_id + 300000,
           lower(array_to_string(list_slice(regexp_extract_all(text, '\S+'), 1,
                 greatest(4, (len(regexp_extract_all(text, '\S+')) * 3) // 5)),
                 ' '))
    FROM documents WHERE doc_id % 5 = 0
    UNION ALL
    SELECT doc_id + 600000,
           lower(array_to_string(
                 list_transform(
                     range(1, len(regexp_extract_all(text, '\S+')) + 1, 2),
                     i -> regexp_extract_all(text, '\S+')[CAST(i AS INT)]),
                 ' '))
    FROM documents WHERE doc_id % 5 = 2
),
toks AS (SELECT doc_id, regexp_extract_all(t, '\S+') AS w FROM corpus),
sh AS (
    SELECT doc_id,
           list_distinct(list_transform(range(1, len(w) - 1),
                 i -> array_to_string(list_slice(w, i, i + 2), ' '))) AS s
    FROM toks
),
lens AS (SELECT doc_id, len(s) AS l FROM sh),
ex AS (SELECT doc_id, unnest(s) AS g FROM sh),
inter AS (
    SELECT a.doc_id AS ia, b.doc_id AS ib, count(*) AS i
    FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
    GROUP BY 1, 2
),
cand AS (
    SELECT ia, ib FROM inter
    JOIN lens la ON la.doc_id = ia
    JOIN lens lb ON lb.doc_id = ib
    WHERE CAST(i AS DOUBLE) >= 0.8 * least(la.l, lb.l) - 1e-9
),
edges AS (SELECT ia, ib FROM cand UNION SELECT ib, ia FROM cand),
reach(src, dst) AS (
    SELECT doc_id, doc_id FROM corpus
    UNION
    SELECT r.src, e.ib FROM reach r JOIN edges e ON r.dst = e.ia
),
lab AS (SELECT src AS doc_id, min(dst) AS cluster_id FROM reach GROUP BY src)
SELECT doc_id, cluster_id, doc_id <> cluster_id AS is_duplicate
FROM lab ORDER BY doc_id
"""


def q_change_rate(sf_dir: str) -> pd.DataFrame:
    """Recrawl change-rate estimation (:func:`ops.snapshots.change_rate`):
    per-url capture history → n_changes / span / staleness priority
    (Cho & Garcia-Molina recrawl scheduling). Fixture: 2 + doc_id % 4
    captures a day apart; content changes every capture (mode 0), every
    second capture (mode 1), or never (mode 2) by doc_id % 3. Content
    reduces to 8-byte hashes in-block; the one exchange is the
    (url, ts, hash) sort under the shared sorted-segment scaffold."""
    from .ops.snapshots import change_rate

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    BASE = 1_700_000_000_000_000
    DAY = 86_400_000_000

    def versions(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        url, ts, txt = [], [], []
        for i, t in zip(ids, texts):
            base = t or ""
            for v in range(2 + i % 4):
                url.append(f"doc://{i:08d}")
                ts.append(BASE + i * 1_000_000 + v * DAY)
                if i % 3 == 0:
                    txt.append(f"{base} v{v}")
                elif i % 3 == 1:
                    txt.append(f"{base} v{v // 2}")
                else:
                    txt.append(base)
        return pa.Table.from_arrays(
            [
                pa.array(url, pa.string()),
                pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
                pa.array(txt, pa.string()),
            ],
            names=["url", "warc_ts", "text"],
        )

    caps = ds.map_batches(versions, batch_format="pyarrow")
    out = change_rate(caps, now_us=BASE + 30 * DAY)
    return out.to_pandas().sort_values("url").reset_index(drop=True)


QUERIES["change_rate"] = q_change_rate
ORACLE_SQL["change_rate"] = r"""
WITH caps AS (
    SELECT 'doc://' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
           1700000000000000 + doc_id * 1000000 + v * 86400000000 AS ts,
           CASE doc_id % 3
               WHEN 0 THEN coalesce(text, '') || ' v' || CAST(v AS VARCHAR)
               WHEN 1 THEN coalesce(text, '') || ' v' || CAST(v // 2 AS VARCHAR)
               ELSE coalesce(text, '')
           END AS content
    FROM (SELECT doc_id, text, unnest(range(2 + doc_id % 4)) AS v
          FROM documents)
),
d AS (
    SELECT url, ts, content,
           lag(content) OVER (PARTITION BY url ORDER BY ts) AS prev
    FROM caps
),
agg AS (
    SELECT url, count(*) AS n_caps,
           sum(CASE WHEN prev IS NOT NULL AND content <> prev
                    THEN 1 ELSE 0 END) AS n_changes,
           max(ts) - min(ts) AS span_us,
           (1700000000000000 + 30 * 86400000000) - max(ts) AS age_us
    FROM d GROUP BY url
)
SELECT url,
       CAST(n_caps AS BIGINT) AS n_caps,
       CAST(n_changes AS BIGINT) AS n_changes,
       CAST(span_us AS BIGINT) AS span_us,
       CAST(age_us AS BIGINT) AS age_us,
       CAST(CASE WHEN span_us > 0 AND n_changes > 0
                 THEN (n_changes * age_us * 1000) // span_us
                 ELSE 0 END AS BIGINT) AS priority_milli
FROM agg ORDER BY url
"""


def q_term_drift(sf_dir: str) -> pd.DataFrame:
    """Corpus term drift (:func:`ops.text.term_drift`): top tokens by the
    integer-exact cross-multiplied rate delta |c_old*N_new - c_new*N_old|
    between two snapshots of the corpus. Fixture plants drift: the new
    side appends ' trending topic now' to even doc_ids, the old side
    appends ' legacy term' to odd ones; the oracle replays counts and the
    HUGEINT score with a row_number rank."""
    from .ops.text import term_drift

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def side(new: bool):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_pylist()
            texts = batch["text"].to_pylist()
            out = []
            for i, t in zip(ids, texts):
                base = t or ""
                if new and i % 2 == 0:
                    out.append(base + " trending topic now")
                elif not new and i % 2 == 1:
                    out.append(base + " legacy term")
                else:
                    out.append(base)
            return pa.Table.from_arrays(
                [pa.array(out, pa.string())], names=["text"]
            )

        return f

    old_ds = ds.map_batches(side(False), batch_format="pyarrow")
    new_ds = ds.map_batches(side(True), batch_format="pyarrow")
    return term_drift(old_ds, new_ds, k=25)


QUERIES["term_drift"] = q_term_drift
ORACLE_SQL["term_drift"] = r"""
WITH old_side AS (
    SELECT CASE WHEN doc_id % 2 = 1
                THEN coalesce(text, '') || ' legacy term'
                ELSE coalesce(text, '') END AS t
    FROM documents
),
new_side AS (
    SELECT CASE WHEN doc_id % 2 = 0
                THEN coalesce(text, '') || ' trending topic now'
                ELSE coalesce(text, '') END AS t
    FROM documents
),
ota AS (SELECT unnest(regexp_extract_all(lower(t), '\S+')) AS token
        FROM old_side),
nta AS (SELECT unnest(regexp_extract_all(lower(t), '\S+')) AS token
        FROM new_side),
oc AS (SELECT token, count(*) AS a FROM ota GROUP BY 1),
nc AS (SELECT token, count(*) AS b FROM nta GROUP BY 1),
tot AS (SELECT (SELECT count(*) FROM ota) AS n_old,
               (SELECT count(*) FROM nta) AS n_new),
j AS (
    SELECT coalesce(oc.token, nc.token) AS token,
           coalesce(a, 0) AS a, coalesce(b, 0) AS b
    FROM oc FULL OUTER JOIN nc ON oc.token = nc.token
),
s AS (
    SELECT token, a, b, abs(a * n_new - b * n_old) AS score
    FROM j, tot
)
SELECT token,
       CAST(a AS BIGINT) AS c_old,
       CAST(b AS BIGINT) AS c_new,
       CAST(score AS BIGINT) AS score,
       CAST(row_number() OVER (ORDER BY score DESC, token) AS INTEGER) AS rank
FROM s
QUALIFY rank <= 25
ORDER BY rank
"""


def q_readability(sf_dir: str) -> pd.DataFrame:
    """Flesch reading-ease quality scoring
    (:func:`ops.text.readability_batch`): integer-exact clamped
    milli-score from RE2-vectorized word / sentence / vowel-group counts,
    one shuffle-free pass. Fixture appends two plain sentences to every
    third doc so both the sentence count and the readable flag vary."""
    from .ops.text import readability_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out = [
            (t or "")
            + (" The cat sat on the mat. It was flat." if i % 3 == 0 else "")
            for i, t in zip(ids, texts)
        ]
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(out, pa.string())],
            names=["doc_id", "text"],
        )

    out = ds.map_batches(plant, batch_format="pyarrow").map_batches(
        readability_batch, batch_format="pyarrow"
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


QUERIES["readability"] = q_readability
ORACLE_SQL["readability"] = r"""
WITH d AS (
    SELECT doc_id,
           coalesce(text, '') || CASE WHEN doc_id % 3 = 0
               THEN ' The cat sat on the mat. It was flat.' ELSE '' END AS t
    FROM documents
),
c AS (
    SELECT doc_id,
           CAST(len(regexp_extract_all(t, '[A-Za-z]+')) AS BIGINT) AS w,
           greatest(CAST(len(regexp_extract_all(t, '[.!?]+')) AS BIGINT),
                    1) AS s,
           CAST(len(regexp_extract_all(lower(t), '[aeiouy]+')) AS BIGINT)
               AS y
    FROM d
),
f AS (
    SELECT doc_id, w, s, y,
           CASE WHEN w > 0
                THEN greatest(206835 * s * w - 1015 * w * w - 84600 * y * s,
                              0) // (s * w)
                ELSE 0 END AS flesch_milli
    FROM c
)
SELECT doc_id, w AS n_words, s AS n_sents, y AS n_syll,
       CAST(flesch_milli AS BIGINT) AS flesch_milli,
       flesch_milli >= 30000 AS readable
FROM f ORDER BY doc_id
"""


def q_frequent_pairs(sf_dir: str) -> pd.DataFrame:
    """A-Priori frequent token pairs (:func:`ops.itemsets.frequent_pairs`):
    pairs of tokens co-occurring in >= support documents, two passes with
    the frequent-item broadcast between them. Fixture plants co-members:
    ' kiwi mango' / ' kiwi papaya' / ' mango papaya guava' on doc_id % 5
    in {0,1,2}; the oracle replays both passes with distinct-doc joins."""
    from .ops.itemsets import frequent_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        tails = {0: " kiwi mango", 1: " kiwi papaya", 2: " mango papaya guava"}
        out = [
            (t or "") + tails.get(i % 5, "") for i, t in zip(ids, texts)
        ]
        return pa.Table.from_arrays(
            [pa.array(out, pa.string())], names=["text"]
        )

    corpus = ds.map_batches(plant, batch_format="pyarrow")
    return frequent_pairs(corpus, support=50, k=20)


QUERIES["frequent_pairs"] = q_frequent_pairs
ORACLE_SQL["frequent_pairs"] = r"""
WITH d AS (
    SELECT doc_id,
           coalesce(text, '') || CASE doc_id % 5
               WHEN 0 THEN ' kiwi mango'
               WHEN 1 THEN ' kiwi papaya'
               WHEN 2 THEN ' mango papaya guava'
               ELSE '' END AS t
    FROM documents
),
pairs AS (
    SELECT DISTINCT doc_id, token FROM (
        SELECT doc_id, unnest(regexp_extract_all(lower(t), '\S+')) AS token
        FROM d
    )
),
freq AS (
    SELECT token FROM pairs GROUP BY token HAVING count(*) >= 50
),
fp AS (SELECT p.doc_id, p.token FROM pairs p JOIN freq USING (token)),
pp AS (
    SELECT a.token AS t1, b.token AS t2, count(*) AS cnt
    FROM fp a JOIN fp b ON a.doc_id = b.doc_id AND a.token < b.token
    GROUP BY 1, 2
    HAVING count(*) >= 50
)
SELECT t1, t2, CAST(cnt AS BIGINT) AS cnt,
       CAST(row_number() OVER (ORDER BY cnt DESC, t1 || ' ' || t2)
            AS INTEGER) AS rank
FROM pp
QUALIFY rank <= 20
ORDER BY rank
"""


def q_page_transitions(sf_dir: str) -> pd.DataFrame:
    """Clickstream transition heavy hitters
    (:func:`ops.funnel.transition_counts`): the most frequent adjacent
    (src, dst) event-type pairs across per-user ordered streams — the
    first-order Markov transition matrix head. One (user, ts, state) sort
    under the sorted-segment scaffold, per-block pre-combined pair counts,
    one pair-vocabulary groupby, partial top-k."""
    from .ops.funnel import transition_counts

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    return transition_counts(ds, k=25)


QUERIES["page_transitions"] = q_page_transitions
ORACLE_SQL["page_transitions"] = r"""
WITH e AS (
    SELECT user_id, ts, event_type,
           lag(event_type) OVER (
               PARTITION BY user_id ORDER BY ts, event_type
           ) AS prev
    FROM events
),
p AS (
    SELECT prev AS src, event_type AS dst, count(*) AS cnt
    FROM e WHERE prev IS NOT NULL GROUP BY 1, 2
)
SELECT src, dst, CAST(cnt AS BIGINT) AS cnt,
       CAST(row_number() OVER (ORDER BY cnt DESC, src || chr(31) || dst)
            AS INTEGER) AS rank
FROM p
QUALIFY rank <= 25
ORDER BY rank
"""


def q_reciprocity(sf_dir: str) -> pd.DataFrame:
    """Link reciprocity of the synthesized host graph
    (:func:`ops.links.reciprocity`): fraction of distinct non-self
    directed edges whose reverse exists, in integer milli-units; one
    unordered-key groupby over the distinct edge list."""
    from .ops.links import link_graph, reciprocity

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    return reciprocity(link_graph(pages))


QUERIES["reciprocity"] = q_reciprocity
ORACLE_SQL["reciprocity"] = r"""
WITH base AS (SELECT doc_id AS i FROM documents),
raw AS (
    SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
           'site' || CAST((i * 7 + j) % 20 AS VARCHAR) || '.example.com' AS dst
    FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)
    UNION ALL
    SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com',
           'site' || CAST(i % 20 AS VARCHAR) || '.example.com'
    FROM base
),
e AS (SELECT DISTINCT src, dst FROM raw WHERE src <> dst),
r AS (
    SELECT count(*) AS n FROM e a
    JOIN e b ON a.src = b.dst AND a.dst = b.src
)
SELECT CAST((SELECT count(*) FROM e) AS BIGINT) AS n_edges,
       CAST(r.n AS BIGINT) AS n_reciprocal,
       CAST(1000 * r.n // (SELECT count(*) FROM e) AS BIGINT)
           AS reciprocity_milli
FROM r
"""


def q_microdata_census(sf_dir: str) -> pd.DataFrame:
    """Microdata (itemscope/itemtype/itemprop) census
    (:func:`functions.metadata.microdata_batch`): schema.org's second
    carrier next to JSON-LD (Q `jsonld_census`). Fixture plants Product /
    Offer / Review scopes — including an uppercase ITEMSCOPE and a
    reversed-attribute-order tag — on doc_id % 4 in {0,1,2}; one
    stateless shuffle-free pass."""
    from .functions.metadata import microdata_batch

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        htmls = []
        for i in ids:
            if i % 4 == 0:
                body = (
                    '<div itemscope itemtype="https://schema.org/Product">'
                    '<span itemprop="name">x</span>'
                    "<span itemprop='price'>1</span></div>"
                )
            elif i % 4 == 1:
                body = (
                    '<div itemscope itemtype="https://schema.org/Product">'
                    '<b itemprop="sku">a</b></div>'
                    "<div itemscope itemtype='https://schema.org/Product/'>"
                    '<b itemprop="sku">b</b></div>'
                    '<div itemscope itemtype="https://schema.org/Offer">'
                    '<i itemprop="price">2</i></div>'
                )
            elif i % 4 == 2:
                body = (
                    '<div itemtype="https://schema.org/Review" ITEMSCOPE>'
                    '<span itemprop="author">c</span></div>'
                )
            else:
                body = "<p>plain</p>"
            htmls.append(f"<html><body>{body}</body></html>".encode())
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(htmls, pa.binary())],
            names=["doc_id", "html"],
        )

    pages = ds.map_batches(plant, batch_format="pyarrow")
    out = pages.map_batches(microdata_batch, batch_format="pyarrow")
    return (
        out.to_pandas()
        .sort_values(["doc_id", "item_type"])
        .reset_index(drop=True)
    )


QUERIES["microdata_census"] = q_microdata_census
ORACLE_SQL["microdata_census"] = """
WITH rows_out AS (
    SELECT doc_id, 'Product' AS item_type, 1 AS n_items, 2 AS n_props
    FROM documents WHERE doc_id % 4 = 0
    UNION ALL
    SELECT doc_id, 'Offer', 1, 3 FROM documents WHERE doc_id % 4 = 1
    UNION ALL
    SELECT doc_id, 'Product', 2, 3 FROM documents WHERE doc_id % 4 = 1
    UNION ALL
    SELECT doc_id, 'Review', 1, 1 FROM documents WHERE doc_id % 4 = 2
)
SELECT doc_id, item_type,
       CAST(n_items AS BIGINT) AS n_items,
       CAST(n_props AS BIGINT) AS n_props
FROM rows_out ORDER BY doc_id, item_type
"""


def q_bipartite_check(sf_dir: str) -> pd.DataFrame:
    """Per-component bipartiteness
    (:func:`ops.links.bipartite_components`): odd-cycle detection via the
    bipartite-double-cover reduction — both component computations run
    through the engine's enforced connected-components regimes. Fixture:
    blocks of 10 consecutive doc_ids form 10-rings (even → bipartite);
    every third block gains a (0,2) chord closing a triangle (odd →
    non-bipartite). Oracle: recursive parity reachability in SQL."""
    from .ops.links import bipartite_components

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        a, b = [], []
        for i in ids:
            if i % 10 < 9:
                a.append(i)
                b.append(i + 1)
            else:
                a.append(i)
                b.append(i - 9)
            if i % 10 == 0 and (i // 10) % 3 == 0:
                a.append(i)
                b.append(i + 2)
        return pa.Table.from_arrays(
            [pa.array(a, pa.int64()), pa.array(b, pa.int64())],
            names=["src_host", "dst_host"],
        )

    e = ds.map_batches(edges, batch_format="pyarrow")
    return bipartite_components(e)


QUERIES["bipartite_check"] = q_bipartite_check
ORACLE_SQL["bipartite_check"] = """
WITH RECURSIVE base AS (SELECT doc_id AS i FROM documents),
raw AS (
    SELECT i AS a, i + 1 AS b FROM base WHERE i % 10 < 9
    UNION ALL
    SELECT i, i - 9 FROM base WHERE i % 10 = 9
    UNION ALL
    SELECT i, i + 2 FROM base WHERE i % 10 = 0 AND (i // 10) % 3 = 0
),
e AS (SELECT a, b FROM raw UNION SELECT b, a FROM raw),
nodes AS (SELECT DISTINCT a AS v FROM e),
reach(src, dst, par) AS (
    SELECT v, v, 0 FROM nodes
    UNION
    SELECT r.src, e.b, 1 - r.par FROM reach r JOIN e ON r.dst = e.a
),
comp AS (SELECT src AS v, min(dst) AS component FROM reach GROUP BY src),
odd AS (SELECT DISTINCT src AS v FROM reach WHERE src = dst AND par = 1)
SELECT component, CAST(count(*) AS BIGINT) AS n_nodes,
       bool_and(odd.v IS NULL) AS is_bipartite
FROM comp LEFT JOIN odd USING (v)
GROUP BY component ORDER BY component
"""


def q_script_mix(sf_dir: str) -> pd.DataFrame:
    """Unicode script census (:func:`ops.text.script_mix_batch`):
    per-script char counts via RE2 \\p{Script} classes (bit-identical in
    DuckDB's RE2), dominant script with alphabetical ties, integer-exact
    >=10% mixed flag. Fixture plants Cyrillic / Han / Arabic tails on
    doc_id % 4 in {1,2,3}."""
    from .ops.text import script_mix_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    tails = {1: " Привет мир", 2: " 世界和平", 3: " مرحبا بالعالم"}

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out = [
            (t or "") + tails.get(i % 4, "") for i, t in zip(ids, texts)
        ]
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(out, pa.string())],
            names=["doc_id", "text"],
        )

    out = ds.map_batches(plant, batch_format="pyarrow").map_batches(
        script_mix_batch, batch_format="pyarrow"
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


QUERIES["script_mix"] = q_script_mix
ORACLE_SQL["script_mix"] = r"""
WITH d AS (
    SELECT doc_id,
           coalesce(text, '') || CASE doc_id % 4
               WHEN 1 THEN ' Привет мир'
               WHEN 2 THEN ' 世界和平'
               WHEN 3 THEN ' مرحبا بالعالم'
               ELSE '' END AS t
    FROM documents
),
c AS (
    SELECT doc_id,
           CAST(len(regexp_extract_all(t, '\p{Arabic}')) AS BIGINT)
               AS n_arabic,
           CAST(len(regexp_extract_all(t, '\p{Han}')) AS BIGINT) AS n_cjk,
           CAST(len(regexp_extract_all(t, '\p{Cyrillic}')) AS BIGINT)
               AS n_cyrillic,
           CAST(len(regexp_extract_all(t, '\p{Latin}')) AS BIGINT)
               AS n_latin
    FROM d
),
f AS (
    SELECT *,
           n_arabic + n_cjk + n_cyrillic + n_latin AS n_script_chars,
           greatest(n_arabic, n_cjk, n_cyrillic, n_latin) AS mx
    FROM c
)
SELECT doc_id, n_arabic, n_cjk, n_cyrillic, n_latin,
       CAST(n_script_chars AS BIGINT) AS n_script_chars,
       CASE WHEN n_script_chars = 0 THEN 'none'
            WHEN n_arabic = mx THEN 'arabic'
            WHEN n_cjk = mx THEN 'cjk'
            WHEN n_cyrillic = mx THEN 'cyrillic'
            ELSE 'latin' END AS dominant_script,
       n_script_chars > 0
           AND (n_script_chars - mx) * 10 >= n_script_chars AS is_mixed
FROM f ORDER BY doc_id
"""


def q_markup_density(sf_dir: str) -> pd.DataFrame:
    """Markup-density census (:func:`ops.text.markup_density_batch`):
    tag count, char counts before/after one tag-strip pass, integer
    visible-text fraction. Fixture wraps each doc in boilerplate whose
    tag weight varies with doc_id % 3 (nav-heavy / plain / bare)."""
    from .ops.text import markup_density_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out = []
        for i, t in zip(ids, texts):
            body = t or ""
            if i % 3 == 0:
                h = (
                    "<html><head><title>t</title></head><body>"
                    "<nav><ul><li><a href='/a'>A</a></li>"
                    "<li><a href='/b'>B</a></li></ul></nav>"
                    f"<main><p>{body}</p></main>"
                    "<footer><span>c</span></footer></body></html>"
                )
            elif i % 3 == 1:
                h = f"<html><body><p>{body}</p></body></html>"
            else:
                h = body
            out.append(h)
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(out, pa.string())],
            names=["doc_id", "html"],
        )

    out = ds.map_batches(plant, batch_format="pyarrow").map_batches(
        markup_density_batch, batch_format="pyarrow"
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


QUERIES["markup_density"] = q_markup_density
ORACLE_SQL["markup_density"] = r"""
WITH d AS (
    SELECT doc_id,
           CASE doc_id % 3
               WHEN 0 THEN '<html><head><title>t</title></head><body>'
                   || '<nav><ul><li><a href=''/a''>A</a></li>'
                   || '<li><a href=''/b''>B</a></li></ul></nav>'
                   || '<main><p>' || coalesce(text, '') || '</p></main>'
                   || '<footer><span>c</span></footer></body></html>'
               WHEN 1 THEN '<html><body><p>' || coalesce(text, '')
                   || '</p></body></html>'
               ELSE coalesce(text, '') END AS h
    FROM documents
),
c AS (
    SELECT doc_id,
           CAST(len(regexp_extract_all(h, '<[^>]*>')) AS BIGINT) AS n_tags,
           CAST(length(h) AS BIGINT) AS html_chars,
           CAST(length(regexp_replace(h, '<[^>]*>', '', 'g')) AS BIGINT)
               AS text_chars
    FROM d
)
SELECT doc_id, n_tags, html_chars, text_chars,
       CAST(CASE WHEN html_chars > 0
                 THEN 1000 * text_chars // html_chars
                 ELSE 0 END AS BIGINT) AS text_ratio_milli
FROM c ORDER BY doc_id
"""


def q_trustrank(sf_dir: str) -> pd.DataFrame:
    """TrustRank (Gyöngyi et al. 2004) over the shared host link fixture
    (:func:`ops.links.pagerank` with ``seeds``): teleport mass and the
    initial rank concentrate on a 4-host whitelist, trust flows along
    links in the same integer fixed-point arithmetic as Q `pagerank` —
    bit-exactly SQL-oracled by unrolling the two rounds."""
    from .ops.links import link_graph, pagerank

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    seeds = [f"site{i}.example.com" for i in (0, 5, 10, 15)]
    out = pagerank(link_graph(pages), num_iters=2, seeds=seeds)
    return out.to_pandas().sort_values("host").reset_index(drop=True)


QUERIES["trustrank"] = q_trustrank
ORACLE_SQL["trustrank"] = """
WITH base AS (SELECT doc_id AS i FROM documents),
rel AS (
    SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
           'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS dst
    FROM base),
ext AS (
    SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
           'site' || CAST((i * 7 + j) % 20 AS VARCHAR)
               || '.example.com' AS dst
    FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)),
edges_all AS (SELECT * FROM rel UNION ALL SELECT * FROM ext),
edges AS (SELECT src, dst, count(*) AS w FROM edges_all GROUP BY 1, 2),
nodes AS (SELECT src AS host FROM edges UNION SELECT dst FROM edges),
seeds AS (
    SELECT 'site' || CAST(s AS VARCHAR) || '.example.com' AS host
    FROM (SELECT unnest([0, 5, 10, 15]) AS s)
),
outdeg AS (SELECT src AS host, sum(w) AS od FROM edges GROUP BY 1),
r0 AS (
    SELECT n.host,
           CASE WHEN s.host IS NOT NULL
                THEN CAST(1000000000000 AS HUGEINT) // 4
                ELSE CAST(0 AS HUGEINT) END AS r
    FROM nodes n LEFT JOIN seeds s ON n.host = s.host),
it1 AS (
    SELECT n.host,
        CASE WHEN n.host IN (SELECT host FROM seeds)
             THEN CAST(15 * 1000000000000 AS HUGEINT) // (100 * 4)
             ELSE CAST(0 AS HUGEINT) END
        + coalesce(
            (SELECT sum((85 * p.r * e.w) // (100 * o.od))
               FROM edges e
               JOIN r0 p ON e.src = p.host
               JOIN outdeg o ON o.host = e.src
              WHERE e.dst = n.host), 0) AS r
    FROM nodes n),
it2 AS (
    SELECT n.host,
        CASE WHEN n.host IN (SELECT host FROM seeds)
             THEN CAST(15 * 1000000000000 AS HUGEINT) // (100 * 4)
             ELSE CAST(0 AS HUGEINT) END
        + coalesce(
            (SELECT sum((85 * p.r * e.w) // (100 * o.od))
               FROM edges e
               JOIN it1 p ON e.src = p.host
               JOIN outdeg o ON o.host = e.src
              WHERE e.dst = n.host), 0) AS r
    FROM nodes n)
SELECT host, CAST(r AS BIGINT) AS rank FROM it2 ORDER BY host
"""


def q_local_clustering(sf_dir: str) -> pd.DataFrame:
    """Per-node local clustering coefficient (Watts–Strogatz) over the
    synthesized host link graph of Q ``link_graph``
    (:func:`ops.links.local_clustering`): triangles through each host
    found once as degree-oriented closed wedges crediting all three
    endpoints, coefficient in integer-exact milli-units — link-farm
    rings score near 1000, hub-and-spoke navigation near 0."""
    from .ops.links import link_graph, local_clustering

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    return local_clustering(link_graph(pages))


QUERIES["local_clustering"] = q_local_clustering
ORACLE_SQL["local_clustering"] = r"""
WITH base AS (SELECT doc_id AS i FROM documents),
raw AS (
    SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
           'site' || CAST((i * 7 + j) % 20 AS VARCHAR) || '.example.com' AS dst
    FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)
),
ue AS (
    SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
    FROM raw WHERE src <> dst
),
deg AS (
    SELECT node, CAST(count(*) AS BIGINT) AS d
    FROM (SELECT a AS node FROM ue UNION ALL SELECT b FROM ue)
    GROUP BY 1
),
tris AS (
    SELECT e1.a AS x, e1.b AS y, e2.b AS z
    FROM ue e1
    JOIN ue e2 ON e2.a = e1.b
    JOIN ue e3 ON e3.a = e1.a AND e3.b = e2.b
),
cred AS (
    SELECT node, count(*) AS t
    FROM (SELECT x AS node FROM tris
          UNION ALL SELECT y FROM tris
          UNION ALL SELECT z FROM tris)
    GROUP BY 1
)
SELECT deg.node AS host, deg.d AS deg,
       CAST(coalesce(cred.t, 0) AS BIGINT) AS tri,
       CAST(CASE WHEN deg.d >= 2
                 THEN 2000 * coalesce(cred.t, 0) // (deg.d * (deg.d - 1))
                 ELSE 0 END AS BIGINT) AS lcc_milli
FROM deg LEFT JOIN cred ON cred.node = deg.node
ORDER BY host
"""


def q_harmonic(sf_dir: str) -> pd.DataFrame:
    """Exact radius-3 harmonic centrality over the synthesized host link
    graph of Q ``link_graph`` (:func:`ops.links.harmonic_centrality`):
    per-host ball size and Σ 1000//d(v,u) in integer milli-units — the
    truncated-closeness statistic HyperBall approximates at web scale,
    here exact via two unrolled frontier-expansion rounds (sorted-block
    cross products + groupby-min), bit-exact in SQL."""
    from .ops.links import harmonic_centrality, link_graph

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    return harmonic_centrality(link_graph(pages), radius=3)


QUERIES["harmonic"] = q_harmonic
ORACLE_SQL["harmonic"] = r"""
WITH base AS (SELECT doc_id AS i FROM documents),
raw AS (
    SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
           'site' || CAST((i * 7 + j) % 20 AS VARCHAR) || '.example.com' AS dst
    FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)
),
sym AS (
    SELECT DISTINCT a, b FROM (
        SELECT src AS a, dst AS b FROM raw
        UNION ALL
        SELECT dst AS a, src AS b FROM raw
    ) WHERE a <> b
),
d1 AS (SELECT a AS v, b AS u, 1 AS d FROM sym),
p2 AS (
    SELECT d1.v AS v, s.b AS u, 2 AS d
    FROM d1 JOIN sym s ON s.a = d1.u
    WHERE s.b <> d1.v
),
a2 AS (
    SELECT v, u, min(d) AS d
    FROM (SELECT * FROM d1 UNION ALL SELECT * FROM p2) GROUP BY v, u
),
p3 AS (
    SELECT a2.v AS v, s.b AS u, 3 AS d
    FROM a2 JOIN sym s ON s.a = a2.u
    WHERE a2.d = 2 AND s.b <> a2.v
),
a3 AS (
    SELECT v, u, min(d) AS d
    FROM (SELECT * FROM a2 UNION ALL SELECT * FROM p3) GROUP BY v, u
)
SELECT v AS host, CAST(count(*) AS BIGINT) AS n_reached,
       CAST(sum(1000 // d) AS BIGINT) AS harmonic_milli
FROM a3 GROUP BY v ORDER BY host
"""


def q_link_prediction(sf_dir: str) -> pd.DataFrame:
    """Resource-Allocation link prediction (Zhou–Lü–Zhang 2009) over the
    synthesized host link graph of Q ``link_graph``
    (:func:`ops.links.ra_link_prediction`): top-20 non-adjacent host
    pairs by Σ 10^6 // deg(common neighbor), integer micro-units —
    crawl-frontier seeding / mirror discovery. Degrees are never
    broadcast (deg(z) is the segment length in the one adjacency sort);
    existing edges drop via the sorted-lookup anti-join."""
    from .ops.links import link_graph, ra_link_prediction

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    return ra_link_prediction(link_graph(pages), k=20, hub_cap=10_000)


QUERIES["link_prediction"] = q_link_prediction
ORACLE_SQL["link_prediction"] = r"""
WITH base AS (SELECT doc_id AS i FROM documents),
raw AS (
    SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
           'site' || CAST((i * 7 + j) % 20 AS VARCHAR) || '.example.com' AS dst
    FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)
),
ue AS (
    SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
    FROM raw WHERE src <> dst
),
deg AS (
    SELECT node, CAST(count(*) AS BIGINT) AS d
    FROM (SELECT a AS node FROM ue UNION ALL SELECT b FROM ue)
    GROUP BY 1
),
adj AS (
    SELECT a AS z, b AS x FROM ue UNION ALL SELECT b AS z, a AS x FROM ue
),
wp AS (
    SELECT a1.x AS a, a2.x AS b, a1.z AS z
    FROM adj a1 JOIN adj a2 ON a1.z = a2.z AND a1.x < a2.x
    JOIN deg dz ON dz.node = a1.z
    WHERE dz.d <= 10000
),
sc AS (
    SELECT wp.a, wp.b,
           CAST(count(*) AS BIGINT) AS cn,
           CAST(sum(1000000 // dz.d) AS BIGINT) AS ra_micro
    FROM wp JOIN deg dz ON dz.node = wp.z
    GROUP BY wp.a, wp.b
),
miss AS (
    SELECT sc.* FROM sc
    LEFT JOIN ue ON ue.a = sc.a AND ue.b = sc.b
    WHERE ue.a IS NULL
)
SELECT a AS host_a, b AS host_b, cn, ra_micro,
       CAST(row_number() OVER (
            ORDER BY ra_micro DESC, a || chr(31) || b) AS BIGINT) AS rank
FROM miss QUALIFY rank <= 20 ORDER BY rank
"""


def q_sorted_neighborhood(sf_dir: str) -> pd.DataFrame:
    """Sorted-Neighborhood fuzzy URL dedup (Hernández–Stolfo blocking,
    :func:`ops.dedup.sorted_neighborhood_pairs`): one global sort on the
    URL key, each row compared only to its 4 successors, pairs kept at
    capped-banded Levenshtein ≤ 2 — the typo-class near-dup regime LSH
    shingling misses on short keys. Candidates are exactly n·window;
    the oracle is a rank self-join with DuckDB's native levenshtein."""
    from .ops.dedup import sorted_neighborhood_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_urls(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        urls = [
            f"https://www.example.com/article/{i // 3}/v{i % 3}"
            for i in ids
        ]
        return pa.Table.from_arrays(
            [batch["doc_id"].combine_chunks(),
             pa.array(urls, pa.string())],
            names=["doc_id", "url"],
        )

    pairs = sorted_neighborhood_pairs(
        ds.map_batches(to_urls, batch_format="pyarrow"),
        key_col="url", window=4, max_dist=2,
    )
    df = pairs.to_pandas()
    return df.sort_values(["id_a", "id_b"]).reset_index(drop=True)


QUERIES["sorted_neighborhood"] = q_sorted_neighborhood
ORACLE_SQL["sorted_neighborhood"] = r"""
WITH u AS (
    SELECT doc_id,
           'https://www.example.com/article/'
               || CAST(doc_id // 3 AS VARCHAR)
               || '/v' || CAST(doc_id % 3 AS VARCHAR) AS url
    FROM documents
),
r AS (
    SELECT doc_id, url,
           row_number() OVER (ORDER BY url, doc_id) AS rk
    FROM u
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       a.url AS key_a, b.url AS key_b,
       CAST(levenshtein(a.url, b.url) AS BIGINT) AS dist
FROM r a JOIN r b ON b.rk > a.rk AND b.rk <= a.rk + 4
WHERE levenshtein(a.url, b.url) <= 2
ORDER BY id_a, id_b
"""


def q_rendezvous(sf_dir: str) -> pd.DataFrame:
    """Rendezvous (highest-random-weight) consistent-hash sharding of
    doc ids over 8 shards, plus the movement census when growing to 9
    (:func:`ops.shard.rendezvous_shards`): shuffle-free vectorized
    weight argmax per batch, fixed-size partial counts. HRW's minimal-
    movement property is visible in the result — every moved key lands
    on the new shard (moved_in = 0 for shards 0–7), ~1/9 of keys move
    versus mod-hashing's 8/9. Bit-exact splitmix64 SQL oracle."""
    from .ops.shard import rendezvous_shards

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    return rendezvous_shards(ds, id_col="doc_id", n_shards=8,
                             n_shards_new=9)


QUERIES["rendezvous"] = q_rendezvous
ORACLE_SQL["rendezvous"] = _splitmix_sql(
    "(SELECT doc_id, unnest(range(9)) AS s FROM documents) rz",
    "doc_id * 64 + s", 0, "doc_id, s"
) + r""",
old AS (
    SELECT doc_id, s FROM (
        SELECT doc_id, s,
               row_number() OVER (
                   PARTITION BY doc_id ORDER BY hv DESC, s) AS r
        FROM h WHERE s < 8
    ) WHERE r = 1
),
new AS (
    SELECT doc_id, s FROM (
        SELECT doc_id, s,
               row_number() OVER (
                   PARTITION BY doc_id ORDER BY hv DESC, s) AS r
        FROM h
    ) WHERE r = 1
),
mv AS (
    SELECT old.s AS s_old, new.s AS s_new
    FROM old JOIN new ON old.doc_id = new.doc_id
    WHERE old.s <> new.s
),
spine AS (SELECT unnest(range(9)) AS shard)
SELECT CAST(shard AS BIGINT) AS shard,
       CAST(coalesce(o.c, 0) AS BIGINT) AS n_old,
       CAST(coalesce(n.c, 0) AS BIGINT) AS n_new,
       CAST(coalesce(mi.c, 0) AS BIGINT) AS moved_in,
       CAST(coalesce(mo.c, 0) AS BIGINT) AS moved_out
FROM spine
LEFT JOIN (SELECT s, count(*) AS c FROM old GROUP BY s) o ON o.s = shard
LEFT JOIN (SELECT s, count(*) AS c FROM new GROUP BY s) n ON n.s = shard
LEFT JOIN (SELECT s_new AS s, count(*) AS c FROM mv GROUP BY 1) mi
       ON mi.s = shard
LEFT JOIN (SELECT s_old AS s, count(*) AS c FROM mv GROUP BY 1) mo
       ON mo.s = shard
ORDER BY shard
"""


def q_soft404(sf_dir: str) -> pd.DataFrame:
    """Soft-404 detection (:func:`ops.text.soft404_batch`) over fetches
    whose status follows ``i % 5`` (200/200/301/404/500) and whose markup
    plants an error title (``i % 7 == 0``), an error-body phrase
    (``i % 7 == 1``), or a lowercase error title (``i % 7 == 2``) — a
    page is a soft 404 only when the status says 200 but the markup says
    "not found". Two vectorized Arrow regex passes, shuffle-free;
    oracle is the closed form from doc_id arithmetic."""
    from .ops.text import soft404_batch

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    STATUSES = [200, 200, 301, 404, 500]

    def fixture(batch: pa.Table) -> pa.Table:
        ids = [int(i) for i in batch["doc_id"].to_pylist()]
        htmls, sts = [], []
        for i in ids:
            v = i % 7
            if v == 0:
                body = ("<title>404 - Page Not Found</title>"
                        "<p>We are sorry.</p>")
            elif v == 1:
                body = (f"<title>Document #{i:06d}</title>"
                        "<p>The page you requested could not be found.</p>")
            elif v == 2:
                body = ("<TITLE>Sorry, page not found</TITLE>"
                        "<p>try the homepage</p>")
            else:
                body = (f"<title>Document #{i:06d}</title>"
                        f"<p>welcome to page {i}</p>")
            htmls.append(f"<html>{body}</html>")
            sts.append(STATUSES[i % 5])
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(sts, pa.int64()),
             pa.array(htmls, pa.string())],
            names=["doc_id", "status", "html"],
        )

    out = (
        ds.map_batches(fixture, batch_format="pyarrow")
        .map_batches(soft404_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "status", "soft404", "reason"])
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


QUERIES["soft404"] = q_soft404
ORACLE_SQL["soft404"] = r"""
SELECT doc_id,
       CAST([200, 200, 301, 404, 500][CAST(doc_id % 5 AS INTEGER) + 1]
            AS BIGINT) AS status,
       CAST(CASE WHEN doc_id % 5 < 2 AND doc_id % 7 < 3
                 THEN 1 ELSE 0 END AS BIGINT) AS soft404,
       CAST(CASE WHEN doc_id % 5 >= 2 THEN 0
                 WHEN doc_id % 7 IN (0, 2) THEN 1
                 WHEN doc_id % 7 = 1 THEN 2
                 ELSE 0 END AS BIGINT) AS reason
FROM documents ORDER BY doc_id
"""


def q_proximity_search(sf_dir: str) -> pd.DataFrame:
    """Minimal-window proximity ranking
    (:func:`ops.search.proximity_topk`) for the 3-term query
    ``qqalpha qqbeta qqgamma`` over docs with planted occurrences at
    doc_id-derived gaps (docs with ``i % 11 == 0`` miss the third term
    and must be excluded; ``i % 6 == 0`` plants a tight reversed cover
    of window 3). Exact two-pointer cover scan over the matched
    minority; oracle is a per-doc positions cross-join min."""
    from .ops.search import proximity_topk

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = [int(i) for i in batch["doc_id"].to_pylist()]
        texts = batch["text"].to_pylist()
        out = []
        for i, t in zip(ids, texts):
            base = t or ""
            if i % 11 == 0:
                suffix = " qqalpha qqbeta"
            else:
                suffix = (
                    " qqalpha" + " pad" * (i % 5)
                    + " qqbeta" + " pad" * (i % 3)
                    + " qqgamma"
                )
                if i % 6 == 0:
                    suffix += " qqgamma qqbeta qqalpha"
            out.append(base + suffix)
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(out, pa.string())],
            names=["doc_id", "text"],
        )

    return proximity_topk(
        ds.map_batches(plant, batch_format="pyarrow"),
        terms=["qqalpha", "qqbeta", "qqgamma"],
        k=25,
    )


QUERIES["proximity_search"] = q_proximity_search
ORACLE_SQL["proximity_search"] = r"""
WITH d AS (
    SELECT doc_id,
           coalesce(text, '')
           || CASE WHEN doc_id % 11 = 0 THEN ' qqalpha qqbeta'
                   ELSE ' qqalpha' || repeat(' pad', CAST(doc_id % 5 AS INT))
                        || ' qqbeta' || repeat(' pad', CAST(doc_id % 3 AS INT))
                        || ' qqgamma'
                        || CASE WHEN doc_id % 6 = 0
                                THEN ' qqgamma qqbeta qqalpha' ELSE '' END
              END AS text
    FROM documents
),
toks AS (
    SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS l FROM d
),
t AS (
    SELECT doc_id, CAST(i AS BIGINT) - 1 AS p, l[CAST(i AS INT)] AS tok
    FROM (SELECT doc_id, l, unnest(range(1, len(l) + 1)) AS i FROM toks)
),
win AS (
    SELECT a.doc_id,
           min(greatest(a.p, b.p, c.p) - least(a.p, b.p, c.p) + 1) AS w
    FROM t a
    JOIN t b ON b.doc_id = a.doc_id AND b.tok = 'qqbeta'
    JOIN t c ON c.doc_id = a.doc_id AND c.tok = 'qqgamma'
    WHERE a.tok = 'qqalpha'
    GROUP BY a.doc_id
)
SELECT doc_id, CAST(w AS BIGINT) AS window,
       CAST(row_number() OVER (ORDER BY w, doc_id) AS BIGINT) AS rank
FROM win QUALIFY rank <= 25 ORDER BY rank
"""


def q_salsa(sf_dir: str) -> pd.DataFrame:
    """Fixed-point SALSA hub/authority scores (2 iterations, scale
    10^12) over the synthesized host link graph of Q ``link_graph``
    (:func:`ops.links.salsa_scores`): degree-normalized random-walk
    chains, per-edge floor contributions — bit-exact at any layout and
    in SQL via unrolled CTE rounds. One scale-safe regime: static
    degrees attach to edges once, each half-step is one sorted-lookup
    attach + one groupby-sum."""
    from .ops.links import link_graph, salsa_scores

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    df = salsa_scores(link_graph(pages), num_iters=2).to_pandas()
    return df.sort_values("host").reset_index(drop=True)


QUERIES["salsa"] = q_salsa
ORACLE_SQL["salsa"] = r"""
WITH base AS (SELECT doc_id AS i FROM documents),
raw AS (
    SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
           'site' || CAST((i * 7 + j) % 20 AS VARCHAR) || '.example.com' AS dst
    FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)
),
e AS (SELECT DISTINCT src, dst FROM raw WHERE src <> dst),
od AS (SELECT src, CAST(count(*) AS BIGINT) AS d FROM e GROUP BY 1),
idg AS (SELECT dst, CAST(count(*) AS BIGINT) AS d FROM e GROUP BY 1),
na AS (SELECT count(*) AS n FROM idg),
a0 AS (
    SELECT dst AS host, CAST(1000000000000 // n AS BIGINT) AS a
    FROM idg, na
),
h1 AS (
    SELECT e.src AS host, sum(a0.a // idg.d) AS h
    FROM e JOIN a0 ON a0.host = e.dst JOIN idg ON idg.dst = e.dst
    GROUP BY e.src
),
a1 AS (
    SELECT e.dst AS host, sum(h1.h // od.d) AS a
    FROM e JOIN h1 ON h1.host = e.src JOIN od ON od.src = e.src
    GROUP BY e.dst
),
h2 AS (
    SELECT e.src AS host, sum(a1.a // idg.d) AS h
    FROM e JOIN a1 ON a1.host = e.dst JOIN idg ON idg.dst = e.dst
    GROUP BY e.src
),
a2 AS (
    SELECT e.dst AS host, sum(h2.h // od.d) AS a
    FROM e JOIN h2 ON h2.host = e.src JOIN od ON od.src = e.src
    GROUP BY e.dst
),
nodes AS (
    SELECT DISTINCT host FROM (
        SELECT src AS host FROM e UNION ALL SELECT dst FROM e)
)
SELECT n.host,
       CAST(coalesce(h2.h, 0) AS BIGINT) AS hub,
       CAST(coalesce(a2.a, 0) AS BIGINT) AS auth
FROM nodes n
LEFT JOIN h2 ON h2.host = n.host
LEFT JOIN a2 ON a2.host = n.host
ORDER BY n.host
"""


_HB_EDGES_SQL = (
    "(SELECT doc_id % 50 AS src, (doc_id * 7 + j) % 50 AS dst "
    "FROM (SELECT doc_id, unnest(range(doc_id % 4)) AS j FROM documents))"
)


def q_hyperball(sf_dir: str) -> pd.DataFrame:
    """HyperBall radius-2 out-ball sketches (Boldi–Rosa–Vigna 2011,
    :func:`ops.sketch.hyperball`, p=4) over a numeric 50-node graph
    synthesized from doc_id arithmetic: per-node sparse HLL register
    rows, each round ONE sorted-block cross product merging successor
    registers + one groupby-max. The returned artifact is the exact
    integer register table, so the oracle replays both merge rounds in
    SQL bit-for-bit (same splitmix64 + leading-zero formulas as Q
    ``distinct_sketch``)."""
    from .ops.sketch import hyperball

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        deg = ids % 4
        src = np.repeat(ids % 50, deg)
        offs = np.concatenate([np.arange(d) for d in deg]) if len(ids) \
            else np.array([], dtype=np.int64)
        dst = (np.repeat(ids * 7, deg) + offs) % 50
        return pa.Table.from_arrays(
            [pa.array(src.astype(np.int64)),
             pa.array(dst.astype(np.int64))],
            names=["src", "dst"],
        )

    out = hyperball(
        ds.map_batches(to_edges, batch_format="pyarrow"),
        radius=2, p=4,
    ).to_pandas()
    return out.sort_values(["node", "reg"]).reset_index(drop=True)


QUERIES["hyperball"] = q_hyperball
ORACLE_SQL["hyperball"] = _splitmix_sql(
    "(SELECT DISTINCT node FROM ("
    "  SELECT src AS node FROM " + _HB_EDGES_SQL + " WHERE src <> dst"
    "  UNION ALL"
    "  SELECT dst FROM " + _HB_EDGES_SQL + " WHERE src <> dst)) nd",
    "node", 0, "node"
) + r""",
e AS (
    SELECT DISTINCT src, dst FROM """ + _HB_EDGES_SQL + r""" WHERE src <> dst
),
s0 AS (
    SELECT node,
           CAST(hv >> 60 AS BIGINT) AS reg,
           CAST(coalesce(list_min(list_filter(range(1, 61),
               i -> (((hv % 1152921504606846976) >> (60 - i)) & 1) = 1)),
               61) AS BIGINT) AS val
    FROM h
),
s1 AS (
    SELECT node, reg, max(val) AS val FROM (
        SELECT * FROM s0
        UNION ALL
        SELECT e.src AS node, s.reg, s.val
        FROM e JOIN s0 s ON s.node = e.dst
    ) GROUP BY node, reg
),
s2 AS (
    SELECT node, reg, max(val) AS val FROM (
        SELECT * FROM s1
        UNION ALL
        SELECT e.src AS node, s.reg, s.val
        FROM e JOIN s1 s ON s.node = e.dst
    ) GROUP BY node, reg
)
SELECT CAST(node AS BIGINT) AS node, reg, val
FROM s2 ORDER BY node, reg
"""


def q_ktruss(sf_dir: str) -> pd.DataFrame:
    """3-truss edges after 3 synchronous peel rounds
    (:func:`ops.links.ktruss_edges`) over the synthesized host link
    graph of Q ``link_graph`` — the dense-core detector for link farms:
    an edge survives only while it sits in ≥ 1 triangle among
    survivors (k−2 = 1; the fixture graph holds no 4-truss, so k=3
    keeps the oracle evidence non-empty). Each round re-runs the
    degree-oriented closed-wedge enumeration crediting all three
    triangle edges; the oracle unrolls the three rounds as chained
    3-way-join CTEs."""
    from .ops.links import ktruss_edges, link_graph

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    return ktruss_edges(link_graph(pages), k=3, rounds=3)


QUERIES["ktruss"] = q_ktruss
ORACLE_SQL["ktruss"] = r"""
WITH base AS (SELECT doc_id AS i FROM documents),
raw AS (
    SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
           'site' || CAST((i * 7 + j) % 20 AS VARCHAR) || '.example.com' AS dst
    FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)
),
e0 AS (
    SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
    FROM raw WHERE src <> dst
),
t1 AS (
    SELECT e1.a AS x, e1.b AS y, e2.b AS z
    FROM e0 e1 JOIN e0 e2 ON e2.a = e1.b
    JOIN e0 e3 ON e3.a = e1.a AND e3.b = e2.b
),
s1 AS (
    SELECT a, b, count(*) AS s FROM (
        SELECT x AS a, y AS b FROM t1
        UNION ALL SELECT x, z FROM t1
        UNION ALL SELECT y, z FROM t1) GROUP BY a, b
),
e1 AS (
    SELECT e.a, e.b FROM e0 e
    JOIN s1 ON s1.a = e.a AND s1.b = e.b WHERE s1.s >= 1
),
t2 AS (
    SELECT e1.a AS x, e1.b AS y, e2.b AS z
    FROM e1 JOIN e1 e2 ON e2.a = e1.b
    JOIN e1 e3 ON e3.a = e1.a AND e3.b = e2.b
),
s2 AS (
    SELECT a, b, count(*) AS s FROM (
        SELECT x AS a, y AS b FROM t2
        UNION ALL SELECT x, z FROM t2
        UNION ALL SELECT y, z FROM t2) GROUP BY a, b
),
e2r AS (
    SELECT e.a, e.b FROM e1 e
    JOIN s2 ON s2.a = e.a AND s2.b = e.b WHERE s2.s >= 1
),
t3 AS (
    SELECT e1.a AS x, e1.b AS y, e2.b AS z
    FROM e2r e1 JOIN e2r e2 ON e2.a = e1.b
    JOIN e2r e3 ON e3.a = e1.a AND e3.b = e2.b
),
s3 AS (
    SELECT a, b, count(*) AS s FROM (
        SELECT x AS a, y AS b FROM t3
        UNION ALL SELECT x, z FROM t3
        UNION ALL SELECT y, z FROM t3) GROUP BY a, b
),
e3r AS (
    SELECT e.a, e.b FROM e2r e
    JOIN s3 ON s3.a = e.a AND s3.b = e.b WHERE s3.s >= 1
)
SELECT a AS host_a, b AS host_b FROM e3r ORDER BY 1, 2
"""


_ZEXPR = " + ".join(
    f"(((x >> {i}) & 1) * {1 << (2 * i)}) + "
    f"(((y >> {i}) & 1) * {1 << (2 * i + 1)})"
    for i in range(7)
)


def q_zorder(sf_dir: str) -> pd.DataFrame:
    """Z-order (Morton) layout clustering with per-bucket pruning stats
    (:func:`ops.shard.zorder_bucket_stats`, 8 buckets, 7 bits/dim) over
    two doc_id-derived dimensions — the lakehouse OPTIMIZE ZORDER
    primitive: bit-interleaved sort keys give every bucket tight min/max
    spans on BOTH columns, which is exactly what the oracle recomputes
    (same interleave expression, same exact NTILE with id ties)."""
    from .ops.shard import zorder_bucket_stats

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def dims(batch: pa.Table) -> pa.Table:
        i = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(i), pa.array(i % 97), pa.array((i * 31) % 89)],
            names=["doc_id", "x", "y"],
        )

    return zorder_bucket_stats(
        ds.map_batches(dims, batch_format="pyarrow"),
        x_col="x", y_col="y", n_buckets=8, bits=7,
    )


QUERIES["zorder"] = q_zorder
ORACLE_SQL["zorder"] = r"""
WITH d AS (
    SELECT doc_id, doc_id % 97 AS x, (doc_id * 31) % 89 AS y
    FROM documents
),
z AS (SELECT doc_id, x, y, """ + _ZEXPR + r""" AS z FROM d),
r AS (
    SELECT doc_id, x, y, z,
           row_number() OVER (ORDER BY z, doc_id) AS rk,
           count(*) OVER () AS n
    FROM z
),
b AS (SELECT *, (rk - 1) * 8 // n AS bucket FROM r)
SELECT CAST(bucket AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(min(x) AS BIGINT) AS x_min, CAST(max(x) AS BIGINT) AS x_max,
       CAST(min(y) AS BIGINT) AS y_min, CAST(max(y) AS BIGINT) AS y_max
FROM b GROUP BY bucket ORDER BY bucket
"""


def q_hard_negatives(sf_dir: str) -> pd.DataFrame:
    """Hard-negative mining for contrastive training
    (:func:`ops.bitext.hard_negatives`): per embedding, the most-similar
    embedding with a DIFFERENT label — cosine rounded to 6 decimals,
    min-id ties, reference matrix broadcast once, one shuffle-free
    matmul pass with same-label columns masked. Oracle is the
    DOUBLE-cast label-mismatch join with a QUALIFY argmax."""
    from .ops.bitext import hard_negatives

    ds = _read(sf_dir, "embeddings",
               columns=["vec_id", "embedding", "label"])
    df = hard_negatives(ds).to_pandas()
    return df.sort_values("vec_id").reset_index(drop=True)


QUERIES["hard_negatives"] = q_hard_negatives
ORACLE_SQL["hard_negatives"] = r"""
WITH e AS (
    SELECT vec_id, label,
           list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
    FROM embeddings
),
s AS (
    SELECT a.vec_id AS ai, a.label AS la, b.vec_id AS bi, b.label AS lb,
           round(list_cosine_similarity(a.v, b.v), 6) AS sc
    FROM e a JOIN e b ON a.label <> b.label
)
SELECT ai AS vec_id, CAST(la AS BIGINT) AS label,
       bi AS neg_id, CAST(lb AS BIGINT) AS neg_label
FROM s
QUALIFY row_number() OVER (PARTITION BY ai ORDER BY sc DESC, bi) = 1
ORDER BY vec_id
"""


def q_assortativity(sf_dir: str) -> pd.DataFrame:
    """Exact degree assortativity (Newman 2002) of the synthesized host
    link graph (:func:`ops.links.degree_assortativity`): over the
    symmetric edge closure Pearson's r is the exact rational num/den —
    no square root — so the milli-unit statistic is integer-exact
    (truncating division matches SQL ``//``). Web graphs run
    disassortative; spam farms skew positive."""
    from .ops.links import degree_assortativity, link_graph

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    return degree_assortativity(link_graph(pages))


QUERIES["assortativity"] = q_assortativity
ORACLE_SQL["assortativity"] = r"""
WITH base AS (SELECT doc_id AS i FROM documents),
raw AS (
    SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
           'site' || CAST((i * 7 + j) % 20 AS VARCHAR) || '.example.com' AS dst
    FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)
),
ue AS (
    SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
    FROM raw WHERE src <> dst
),
deg AS (
    SELECT node, CAST(count(*) AS BIGINT) AS d
    FROM (SELECT a AS node FROM ue UNION ALL SELECT b FROM ue)
    GROUP BY 1
),
sym AS (SELECT a AS u, b AS v FROM ue UNION ALL SELECT b, a FROM ue),
j AS (
    SELECT da.d AS x, db.d AS y
    FROM sym JOIN deg da ON da.node = sym.u JOIN deg db ON db.node = sym.v
),
m AS (
    SELECT CAST(count(*) AS HUGEINT) AS n,
           CAST(sum(x) AS HUGEINT) AS sx,
           CAST(sum(x * y) AS HUGEINT) AS sxy,
           CAST(sum(x * x) AS HUGEINT) AS sxx
    FROM j
)
SELECT CAST(n AS BIGINT) AS n_pairs, CAST(sx AS BIGINT) AS sx,
       CAST(sxx AS BIGINT) AS sxx, CAST(sxy AS BIGINT) AS sxy,
       CAST(n * sxy - sx * sx AS BIGINT) AS num,
       CAST(n * sxx - sx * sx AS BIGINT) AS den,
       CAST(CASE WHEN n * sxx - sx * sx = 0 THEN 0
                 ELSE (1000 * (n * sxy - sx * sx))
                      // (n * sxx - sx * sx) END AS BIGINT) AS r_milli
FROM m
"""


def q_revisit_savings(sf_dir: str) -> pd.DataFrame:
    """WARC revisit-dedup storage accounting
    (:func:`ops.snapshots.revisit_savings`) over a synthesized capture
    history — url ``u(i%80)`` captured at ts=i with payload
    ``content (i // 160)`` (so roughly every other capture of a url is
    an unchanged revisit): bytes stored under the
    revisit-record convention vs raw bytes, per url. Payloads reduce to
    hashes in-block; the oracle replays the lag-window comparison on
    the content strings themselves."""
    from .ops.snapshots import revisit_savings

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def captures(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        urls = [f"u{i % 80}" for i in ids]
        texts = [f"content {i // 160}" for i in ids]
        return pa.Table.from_arrays(
            [pa.array(urls, pa.string()),
             pa.array(ids, pa.int64()),
             pa.array(texts, pa.string())],
            names=["url", "warc_ts", "text"],
        )

    out = revisit_savings(
        ds.map_batches(captures, batch_format="pyarrow")
    ).to_pandas()
    return out.sort_values("url").reset_index(drop=True)


QUERIES["revisit_savings"] = q_revisit_savings
ORACLE_SQL["revisit_savings"] = r"""
WITH c AS (
    SELECT 'u' || CAST(doc_id % 80 AS VARCHAR) AS url,
           doc_id AS ts,
           'content ' || CAST(doc_id // 160 AS VARCHAR) AS content
    FROM documents
),
lagged AS (
    SELECT url, ts, content,
           length(content) AS nb,
           lag(content) OVER (PARTITION BY url ORDER BY ts) AS prev
    FROM c
)
SELECT url,
       CAST(count(*) AS BIGINT) AS n_caps,
       CAST(sum(nb) AS BIGINT) AS total_bytes,
       CAST(sum(CASE WHEN prev IS NULL OR prev <> content
                     THEN nb ELSE 0 END) AS BIGINT) AS stored_bytes,
       CAST(sum(CASE WHEN prev IS NOT NULL AND prev = content
                     THEN nb ELSE 0 END) AS BIGINT) AS saved_bytes
FROM lagged GROUP BY url ORDER BY url
"""


def _sm_step_sql(t: int) -> str:
    """Inline splitmix64 chain for random-walk step ``t`` (uniquely
    prefixed CTEs so several steps coexist in one query): hashes
    ``walk_id·1024 + t`` and picks the hv-indexed neighbor from the
    id-sorted adjacency list — the same mix constants as
    :func:`_splitmix_sql`."""
    p = f"s{t}"
    return f"""
{p}a AS (
    SELECT walk_id,
           CAST((CAST(walk_id * 1024 + {t} AS HUGEINT)
                 + 11400714819323198485)
                % 18446744073709551616 AS UBIGINT) AS x
    FROM w{t - 1}
),
{p}b AS (SELECT walk_id, xor(x, x >> 30) AS a FROM {p}a),
{p}c AS (
    SELECT walk_id,
           CAST((CAST(a % 4294967296 AS HUGEINT) * 13787848793156543929
                 + CAST(((a >> 32) * 484763065) % 4294967296 AS HUGEINT)
                   * 4294967296)
                % 18446744073709551616 AS UBIGINT) AS x
    FROM {p}b
),
{p}d AS (SELECT walk_id, xor(x, x >> 27) AS a FROM {p}c),
{p}e AS (
    SELECT walk_id,
           CAST((CAST(a % 4294967296 AS HUGEINT) * 10723151780598845931
                 + CAST(((a >> 32) * 321982955) % 4294967296 AS HUGEINT)
                   * 4294967296)
                % 18446744073709551616 AS UBIGINT) AS x
    FROM {p}d
),
{p}f AS (SELECT walk_id, xor(x, x >> 31) AS hv FROM {p}e),
w{t} AS (
    SELECT p.walk_id,
           adj.l[CAST(s.hv % len(adj.l) AS INT) + 1] AS node
    FROM {p}f s
    JOIN w{t - 1} p ON p.walk_id = s.walk_id
    JOIN adj ON adj.node = p.node
)"""


def q_random_walks(sf_dir: str) -> pd.DataFrame:
    """Deterministic DeepWalk corpus (:func:`ops.links.random_walks`,
    walk_len 3, 2 walks/node) over the numeric 50-node doc-derived
    graph of Q ``hyperball``: step t of walk w picks
    ``neighbors[splitmix64(walk_id·1024+t) mod deg]`` on the id-sorted
    adjacency — bit-reproducible at any layout and replayed pick-by-pick
    in SQL via inlined HUGEINT splitmix chains."""
    from .ops.links import random_walks

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        deg = ids % 4
        src = np.repeat(ids % 50, deg)
        offs = np.concatenate([np.arange(d) for d in deg]) if len(ids) \
            else np.array([], dtype=np.int64)
        dst = (np.repeat(ids * 7, deg) + offs) % 50
        return pa.Table.from_arrays(
            [pa.array(src.astype(np.int64)),
             pa.array(dst.astype(np.int64))],
            names=["src", "dst"],
        )

    out = random_walks(
        ds.map_batches(to_edges, batch_format="pyarrow"),
        walk_len=3, walks_per_node=2,
    ).to_pandas()
    return (
        out.sort_values(["walk_id", "step"]).reset_index(drop=True)
        .astype("int64")
    )


QUERIES["random_walks"] = q_random_walks
ORACLE_SQL["random_walks"] = r"""
WITH e AS (
    SELECT DISTINCT src, dst FROM """ + _HB_EDGES_SQL + r""" WHERE src <> dst
),
sym AS (
    SELECT DISTINCT a, b FROM (
        SELECT src AS a, dst AS b FROM e
        UNION ALL SELECT dst AS a, src AS b FROM e
    )
),
adj AS (
    SELECT a AS node, list(b ORDER BY b) AS l FROM sym GROUP BY a
),
w0 AS (
    SELECT node * 1024 + w AS walk_id, node
    FROM adj, unnest(range(2)) AS t(w)
),""" + _sm_step_sql(1) + "," + _sm_step_sql(2) + r"""
SELECT walk_id, CAST(0 AS BIGINT) AS step, CAST(node AS BIGINT) AS node
FROM w0
UNION ALL
SELECT walk_id, 1, CAST(node AS BIGINT) FROM w1
UNION ALL
SELECT walk_id, 2, CAST(node AS BIGINT) FROM w2
ORDER BY walk_id, step
"""


def q_quantization_recall(sf_dir: str) -> pd.DataFrame:
    """Int8 quantization-distortion eval
    (:func:`ops.embed.quantization_recall`): overlap@10 between exact
    fixed-point inner-product top-10 and int8-quantized top-10 for the
    ten lowest-id embeddings — both rankings integer-exact (score desc,
    id asc), self excluded, so the oracle replays every dot product
    with BIGINT list arithmetic."""
    from .ops.embed import quantization_recall

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return quantization_recall(ds, n_queries=10, k=10)


QUERIES["quantization_recall"] = q_quantization_recall
ORACLE_SQL["quantization_recall"] = r"""
WITH e AS (
    SELECT vec_id,
           list_transform(embedding, x ->
               CAST(floor((CAST(x AS DOUBLE) + 2.0) * 1000000) AS BIGINT)
               - 2000000) AS c
    FROM embeddings
),
mx AS (
    SELECT vec_id, c,
           list_max(list_transform(c, y -> abs(y))) AS m
    FROM e
),
qt AS (
    SELECT vec_id, c,
           CASE WHEN m = 0
                THEN list_transform(c, y -> CAST(0 AS BIGINT))
                ELSE list_transform(c, y ->
                     CASE WHEN y < 0 THEN -((127 * (-y)) // m)
                          ELSE (127 * y) // m END)
           END AS q
    FROM mx
),
qs AS (SELECT vec_id, c, q FROM qt ORDER BY vec_id LIMIT 10),
se AS (
    SELECT qs.vec_id AS qid, t.vec_id AS cid,
           CAST(list_dot_product(qs.c, t.c) AS BIGINT) AS sc
    FROM qs JOIN qt t ON t.vec_id <> qs.vec_id
),
te AS (
    SELECT qid, cid FROM se
    QUALIFY row_number() OVER (
        PARTITION BY qid ORDER BY sc DESC, cid) <= 10
),
sq AS (
    SELECT qs.vec_id AS qid, t.vec_id AS cid,
           CAST(list_dot_product(qs.q, t.q) AS BIGINT) AS sc
    FROM qs JOIN qt t ON t.vec_id <> qs.vec_id
),
tq AS (
    SELECT qid, cid FROM sq
    QUALIFY row_number() OVER (
        PARTITION BY qid ORDER BY sc DESC, cid) <= 10
),
ov AS (
    SELECT te.qid, count(*) AS n
    FROM te JOIN tq ON tq.qid = te.qid AND tq.cid = te.cid
    GROUP BY te.qid
)
SELECT qs.vec_id, CAST(coalesce(ov.n, 0) AS BIGINT) AS overlap
FROM qs LEFT JOIN ov ON ov.qid = qs.vec_id
ORDER BY qs.vec_id
"""


def q_opengraph_census(sf_dir: str) -> pd.DataFrame:
    """OpenGraph / Twitter-card census
    (:func:`functions.metadata.opengraph_batch`): per page the distinct
    og:* property count, twitter:* name count, and whether the
    protocol's four required og tags are all present — planted by
    ``doc_id % 5`` across quote/case/duplicate variants (duplicates are
    first-wins, matching the head parser). One stateless shuffle-free
    pass; oracle is the closed form."""
    from .functions.metadata import opengraph_batch

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = [int(i) for i in batch["doc_id"].to_pylist()]
        htmls = []
        for i in ids:
            v = i % 5
            if v == 0:
                head = (
                    '<meta property="og:title" content="t">'
                    '<meta property="og:type" content="article">'
                    '<meta property="og:image" content="i.png">'
                    '<meta property="og:url" content="u">'
                    '<meta name="twitter:card" content="summary">'
                )
            elif v == 1:
                head = (
                    '<meta PROPERTY="og:title" content="t">'
                    "<meta property='og:image' content='i'/>"
                )
            elif v == 2:
                head = (
                    "<meta name='twitter:card' content='summary'>"
                    '<meta name="twitter:title" content="tt">'
                )
            elif v == 3:
                head = (
                    '<meta property="og:title" content="a">'
                    '<meta property="og:title" content="b">'
                    '<meta property="og:url" content="u">'
                )
            else:
                head = "<meta name='viewport' content='x'>"
            htmls.append(
                f"<html><head><title>d{i}</title>{head}</head>"
                f"<body><p>p</p></body></html>"
            )
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(htmls, pa.string())],
            names=["doc_id", "html"],
        )

    from .functions.metadata import opengraph_batch as _ogb

    out = (
        ds.map_batches(plant, batch_format="pyarrow")
        .map_batches(_ogb, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


QUERIES["opengraph_census"] = q_opengraph_census
ORACLE_SQL["opengraph_census"] = r"""
SELECT doc_id,
       CAST(CASE doc_id % 5 WHEN 0 THEN 4 WHEN 1 THEN 2
                            WHEN 3 THEN 2 ELSE 0 END AS BIGINT) AS n_og,
       CAST(CASE doc_id % 5 WHEN 0 THEN 1 WHEN 2 THEN 2
                            ELSE 0 END AS BIGINT) AS n_twitter,
       CAST(CASE WHEN doc_id % 5 = 0 THEN 1 ELSE 0 END AS BIGINT)
           AS og_complete
FROM documents ORDER BY doc_id
"""


def q_scc(sf_dir: str) -> pd.DataFrame:
    """Strongly connected components of a synthesized bow-tie host graph
    (:func:`ops.links.strongly_connected_components`) — the primitive
    behind Broder et al.'s web-census (giant CORE SCC vs IN/OUT
    tendrils). Fixture plants a 10-cycle core (one SCC), a second
    10-cycle bridged ONE-WAY into the core (a distinct SCC — the IN
    side), and 10 OUT tendril singletons; component label is the
    lexicographically smallest member, bit-exact against the
    recursive-CTE mutual-reachability oracle."""
    from .ops.links import strongly_connected_components

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        src, dst = [], []
        for i in ids:
            v = int(i) % 30
            if v < 10:
                src.append(f"c{v}")
                dst.append(f"c{(v + 1) % 10}")
            elif v < 20:
                k = v - 10
                src.append(f"b{k}")
                dst.append(f"b{(k + 1) % 10}")
                src.append(f"b{k}")
                dst.append(f"c{k}")
            else:
                k = v - 20
                src.append(f"c{k}")
                dst.append(f"t{k}")
        return pa.Table.from_arrays(
            [pa.array(src, pa.string()), pa.array(dst, pa.string())],
            names=["src_host", "dst_host"],
        )

    return strongly_connected_components(
        ds.map_batches(edges, batch_format="pyarrow"))


QUERIES["scc"] = q_scc
ORACLE_SQL["scc"] = r"""
WITH RECURSIVE base AS (SELECT doc_id % 30 AS v FROM documents),
raw AS (
    SELECT CASE WHEN v < 10 THEN 'c' || CAST(v AS VARCHAR)
                WHEN v < 20 THEN 'b' || CAST(v - 10 AS VARCHAR)
                ELSE 'c' || CAST(v - 20 AS VARCHAR) END AS src,
           CASE WHEN v < 10 THEN 'c' || CAST((v + 1) % 10 AS VARCHAR)
                WHEN v < 20 THEN 'b' || CAST((v - 9) % 10 AS VARCHAR)
                ELSE 't' || CAST(v - 20 AS VARCHAR) END AS dst
    FROM base
    UNION ALL
    SELECT 'b' || CAST(v - 10 AS VARCHAR), 'c' || CAST(v - 10 AS VARCHAR)
    FROM base WHERE v >= 10 AND v < 20
),
e AS (SELECT DISTINCT src, dst FROM raw WHERE src <> dst),
nodes AS (SELECT src AS v FROM e UNION SELECT dst FROM e),
reach(a, b) AS (
    SELECT src, dst FROM e
    UNION
    SELECT r.a, e2.dst FROM reach r JOIN e e2 ON e2.src = r.b
),
mutual AS (
    SELECT r1.a AS node, r1.b AS w
    FROM reach r1 JOIN reach r2 ON r2.a = r1.b AND r2.b = r1.a
    UNION
    SELECT v, v FROM nodes
)
SELECT node, min(w) AS scc FROM mutual GROUP BY node ORDER BY node
"""


def q_k_anonymity(sf_dir: str) -> pd.DataFrame:
    """k-anonymity census (:func:`ops.curate.k_anonymity`) over the
    quasi-identifier tuple (lang, source, n_chars // 100): per-doc
    equivalence-class size and the >=k release flag, per-block
    pre-combined (key, cnt) partials through one groupby + one
    sorted-lookup attach."""
    from .ops.curate import k_anonymity

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "lang", "source", "n_chars"])

    def quasi(batch: pa.Table) -> pa.Table:
        nb = batch["n_chars"].to_numpy(zero_copy_only=False) // 100
        return pa.Table.from_arrays(
            [batch["doc_id"].combine_chunks(),
             batch["lang"].combine_chunks(),
             batch["source"].combine_chunks(),
             pa.array(nb.astype(np.int64))],
            names=["doc_id", "lang", "source", "len_bucket"],
        )

    out = k_anonymity(
        ds.map_batches(quasi, batch_format="pyarrow"),
        quasi_cols=["lang", "source", "len_bucket"],
        k=5,
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


QUERIES["k_anonymity"] = q_k_anonymity
ORACLE_SQL["k_anonymity"] = r"""
SELECT doc_id,
       COUNT(*) OVER (PARTITION BY lang, source, n_chars // 100)
           AS group_size,
       CASE WHEN COUNT(*) OVER (PARTITION BY lang, source, n_chars // 100)
                 >= 5 THEN 1 ELSE 0 END AS k_anonymous
FROM documents
ORDER BY doc_id
"""


def q_diameter(sf_dir: str) -> pd.DataFrame:
    """Double-sweep diameter lower bound
    (:func:`ops.links.diameter_bound`) on a synthesized host graph: a
    10-node path p0–p9 with a 3-node branch q0–q2 hanging off p3.
    Start = lexicographic min p0 (ecc 9 at p9); second sweep from p9
    re-reaches depth 9 → diameter_lb 9 (exact: the path IS the
    diameter). Closed-form oracle."""
    from .ops.links import diameter_bound

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def edges(batch: pa.Table) -> pa.Table:
        src, dst = [], []
        for i in batch["doc_id"].to_pylist():
            v = int(i) % 9
            src.append(f"p{v}")
            dst.append(f"p{v + 1}")
            w = int(i) % 3
            src.append("p3" if w == 0 else f"q{w - 1}")
            dst.append(f"q{w}")
        return pa.Table.from_arrays(
            [pa.array(src, pa.string()), pa.array(dst, pa.string())],
            names=["src_host", "dst_host"],
        )

    return diameter_bound(ds.map_batches(edges, batch_format="pyarrow"))


QUERIES["diameter"] = q_diameter
ORACLE_SQL["diameter"] = """
SELECT 'p0' AS start, CAST(9 AS BIGINT) AS ecc_start,
       'p9' AS far_node, CAST(9 AS BIGINT) AS diameter_lb
"""


def q_char_entropy(sf_dir: str) -> pd.DataFrame:
    """Per-doc character-entropy quality signal
    (:func:`ops.text.char_entropy_batch`): Shannon bits/char in rounded
    micro-units over codepoint frequencies, one vectorized shuffle-free
    map stage. Oracle recomputes H = log2(n) - sum(c*log2 c)/n from
    string_split character counts."""
    from .ops.text import char_entropy_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(char_entropy_batch, batch_format="pyarrow")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


QUERIES["char_entropy"] = q_char_entropy
ORACLE_SQL["char_entropy"] = r"""
WITH chars AS (
    SELECT doc_id, unnest(string_split(text, '')) AS ch
    FROM documents WHERE text IS NOT NULL AND text <> ''
),
cnt AS (
    SELECT doc_id, ch, CAST(COUNT(*) AS DOUBLE) AS c
    FROM chars GROUP BY doc_id, ch
),
h AS (
    SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_chars,
           log2(SUM(c)) - SUM(c * log2(c)) / SUM(c) AS ent
    FROM cnt GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(h.n_chars, 0) AS n_chars,
       CAST(COALESCE(round(h.ent * 1000000), 0) AS BIGINT)
           AS entropy_micro
FROM documents d LEFT JOIN h ON h.doc_id = d.doc_id
ORDER BY d.doc_id
"""


def q_kcenter_coreset(sf_dir: str) -> pd.DataFrame:
    """Greedy k-center coreset selection
    (:func:`ops.cluster.kcenter_coreset`, k=4) over the embeddings
    table on the exact integer quantization grid — bit-exact selection
    order, farthest distances, and lowest-id tie-breaks vs the
    unrolled SQL replay."""
    from .ops.cluster import kcenter_coreset

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return kcenter_coreset(ds, k=4)


QUERIES["kcenter_coreset"] = q_kcenter_coreset

_KC_STEP = r"""
d{i} AS (
    SELECT p.vec_id, p.v,
           LEAST(p.d, (SELECT list_sum(list_transform(list_zip(p.v, s.v),
                       x -> (x[1] - x[2]) * (x[1] - x[2])))
                       FROM s{j} s)) AS d
    FROM d{j} p
    WHERE p.vec_id <> (SELECT vec_id FROM s{j})
),
s{i} AS (SELECT vec_id, v, d FROM d{i} ORDER BY d DESC, vec_id LIMIT 1)"""

ORACLE_SQL["kcenter_coreset"] = (
    r"""
WITH q AS (
    SELECT vec_id,
           list_transform(embedding,
               e -> CAST(floor((CAST(e AS DOUBLE) + 2) * 1000000) AS BIGINT)) AS v
    FROM embeddings
),
s0 AS (SELECT vec_id, v FROM q ORDER BY vec_id LIMIT 1),
d0 AS (
    SELECT q.vec_id, q.v,
           CAST(9223372036854775807 AS BIGINT) AS d
    FROM q
),"""
    + ",".join(_KC_STEP.format(i=i, j=i - 1) for i in (1, 2, 3))
    + r"""
SELECT CAST(0 AS BIGINT) AS sel_order,
       CAST((SELECT vec_id FROM s0) AS BIGINT) AS vec_id,
       CAST(0 AS BIGINT) AS dist
UNION ALL SELECT CAST(1 AS BIGINT), CAST(vec_id AS BIGINT),
       CAST(d AS BIGINT) FROM s1
UNION ALL SELECT CAST(2 AS BIGINT), CAST(vec_id AS BIGINT),
       CAST(d AS BIGINT) FROM s2
UNION ALL SELECT CAST(3 AS BIGINT), CAST(vec_id AS BIGINT),
       CAST(d AS BIGINT) FROM s3
ORDER BY sel_order
"""
)


def q_attack_robustness(sf_dir: str) -> pd.DataFrame:
    """Targeted-attack robustness census
    (:func:`ops.links.attack_robustness`): hub h with 10 spokes plus a
    6-node chain hanging off the hub. Removing the top 10% (the hub)
    collapses the giant component 17 → 6; at 30% the chain's head
    nodes go too (degree-2, host-asc tiebreak) leaving the c4–c5 pair.
    Closed-form oracle."""
    from .ops.links import attack_robustness

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def edges(batch: pa.Table) -> pa.Table:
        src, dst = [], []
        for i in batch["doc_id"].to_pylist():
            src += ["h", f"c{int(i) % 5}", "h"]
            dst += [f"s{int(i) % 10}", f"c{int(i) % 5 + 1}", "c0"]
        return pa.Table.from_arrays(
            [pa.array(src, pa.string()), pa.array(dst, pa.string())],
            names=["src_host", "dst_host"],
        )

    return attack_robustness(
        ds.map_batches(edges, batch_format="pyarrow"), pcts=(0, 10, 30))


QUERIES["attack_robustness"] = q_attack_robustness
ORACLE_SQL["attack_robustness"] = """
WITH rows_(pct_removed, n_nodes, n_removed, giant_size, giant_milli)
  AS (VALUES (0, 17, 0, 17, 1000),
             (10, 17, 1, 6, 375),
             (30, 17, 5, 2, 166))
SELECT CAST(pct_removed AS BIGINT) AS pct_removed,
       CAST(n_nodes AS BIGINT) AS n_nodes,
       CAST(n_removed AS BIGINT) AS n_removed,
       CAST(giant_size AS BIGINT) AS giant_size,
       CAST(giant_milli AS BIGINT) AS giant_milli
FROM rows_ ORDER BY pct_removed
"""


def q_lsh_recall(sf_dir: str) -> pd.DataFrame:
    """MinHash-LSH candidate recall/precision eval
    (:func:`ops.dedup.minhash_lsh_recall`, n_perm=8 / bands=4 /
    t=0.7) over documents ∪ perturbed copies — the full signature →
    band → bucket chain replayed in HUGEINT SQL against the exact
    hashed-shingle Jaccard ground truth (splitmix64-derived perm
    constants inlined into the oracle)."""
    from .ops.dedup import minhash_lsh_recall

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def perturb(batch: pa.Table) -> pa.Table:
        ids = [i for i in batch["doc_id"].to_pylist() if i % 5 == 0]
        texts = [
            " ".join(t.split()[:-1])
            for i, t in zip(batch["doc_id"].to_pylist(),
                            batch["text"].to_pylist())
            if i % 5 == 0
        ]
        return pa.Table.from_arrays(
            [pa.array([i + 100_000 for i in ids], pa.int64()),
             pa.array(texts, pa.string())],
            names=["doc_id", "text"],
        )

    both = ds.union(ds.map_batches(perturb, batch_format="pyarrow"))
    return minhash_lsh_recall(both, n_perm=8, bands=4, threshold=0.7)


QUERIES["lsh_recall"] = q_lsh_recall


def _lsh_recall_oracle() -> str:
    from .ops.dedup import _MIX, lsh_eval_perms

    a, b = lsh_eval_perms(8, 7)
    perm_vals = ", ".join(
        f"({i}, {int(a[i])}, {int(b[i])})" for i in range(8))
    salt_vals = ", ".join(
        f"({bi}, {int(((bi + 1) * _MIX) % (1 << 64))})" for bi in range(4))
    FNV = ("(CAST(xor(CAST(acc AS UBIGINT), CAST({x} AS UBIGINT)) AS HUGEINT)"
           " * 1099511628211) % 18446744073709551616")
    return f"""
WITH corpus AS (
    SELECT doc_id, lower(text) AS t FROM documents
    UNION ALL
    SELECT doc_id + 100000,
           lower(array_to_string(list_slice(regexp_extract_all(text, '\\S+'),
                 1, len(regexp_extract_all(text, '\\S+')) - 1), ' '))
    FROM documents WHERE doc_id % 5 = 0
),
win AS (
    SELECT doc_id,
           unnest(list_distinct(list_transform(range(1, length(t) - 3),
                  i -> substring(t, i, 5)))) AS g
    FROM corpus
),
hh AS (
    SELECT DISTINCT doc_id,
        CAST(list_reduce(
            list_prepend(CAST(14695981039346656037 AS HUGEINT),
                list_transform(range(1, length(g) + 1),
                    i -> CAST(unicode(substring(g, i, 1)) AS HUGEINT))),
            (acc, c) -> {FNV.format(x='c')}) AS UBIGINT) AS h
    FROM win
),
perm(i, a, b) AS (VALUES {perm_vals}),
salt(bi, s) AS (VALUES {salt_vals}),
mh AS (
    -- (a*h) mod 2^64 via 32-bit limb split: a = hi*2^32 + lo keeps every
    -- intermediate under 2^97, inside INT128 range
    SELECT doc_id, p.i,
           min(CAST((((CAST(p.a AS HUGEINT) % 4294967296)
                          * CAST(h AS HUGEINT)
                      + ((CAST(p.a AS HUGEINT) // 4294967296)
                             * CAST(h AS HUGEINT) % 4294967296)
                          * 4294967296)
                     % 18446744073709551616 + p.b)
                    % 18446744073709551616
                    % 2305843009213693951 AS UBIGINT)) AS v
    FROM hh CROSS JOIN perm p GROUP BY doc_id, p.i
),
band AS (
    SELECT doc_id, i // 2 AS bi, list(v ORDER BY i) AS vs
    FROM mh GROUP BY doc_id, i // 2
),
bh AS (
    SELECT doc_id, bi,
        CAST(list_reduce(
            list_prepend(CAST(14695981039346656037 AS HUGEINT),
                list_transform(vs, x -> CAST(x AS HUGEINT))),
            (acc, c) -> {FNV.format(x='c')}) AS UBIGINT) AS f
    FROM band
),
bk AS (SELECT doc_id, xor(bh.f, CAST(s.s AS UBIGINT)) AS k
       FROM bh JOIN salt s ON s.bi = bh.bi),
cpairs AS (
    SELECT DISTINCT x.doc_id AS ia, y.doc_id AS ib
    FROM bk x JOIN bk y ON x.k = y.k AND x.doc_id < y.doc_id
),
lens AS (SELECT doc_id, count(*) AS l FROM hh GROUP BY doc_id),
inter AS (
    SELECT x.doc_id AS ia, y.doc_id AS ib, count(*) AS i
    FROM hh x JOIN hh y ON x.h = y.h AND x.doc_id < y.doc_id
    GROUP BY 1, 2
),
truth AS (
    SELECT ia, ib FROM inter
    JOIN lens la ON la.doc_id = ia
    JOIN lens lb ON lb.doc_id = ib
    WHERE CAST(i AS DOUBLE) / (la.l + lb.l - i) >= 0.7
),
hit AS (SELECT * FROM truth INTERSECT SELECT * FROM cpairs),
agg AS (
    SELECT (SELECT count(*) FROM truth) AS n_true,
           (SELECT count(*) FROM cpairs) AS n_candidates,
           (SELECT count(*) FROM hit) AS n_hit
)
SELECT CAST(n_true AS BIGINT) AS n_true,
       CAST(n_candidates AS BIGINT) AS n_candidates,
       CAST(n_hit AS BIGINT) AS n_hit,
       CAST(CASE WHEN n_true > 0 THEN (1000 * n_hit) // n_true
                 ELSE 0 END AS BIGINT) AS recall_milli,
       CAST(CASE WHEN n_candidates > 0 THEN (1000 * n_hit) // n_candidates
                 ELSE 0 END AS BIGINT) AS precision_milli
FROM agg
"""


ORACLE_SQL["lsh_recall"] = _lsh_recall_oracle()


def q_grouped_split(sf_dir: str) -> pd.DataFrame:
    """Leakage-controlled train/val/test split
    (:func:`ops.text.grouped_split`): every document of a source group
    lands in the same split via splitmix64(FNV-1a(source)) against
    exact rational thresholds — near-dups within a group can never
    straddle train and val. Bit-exact SQL replay of both hashes."""
    from .ops.text import grouped_split

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])
    out = grouped_split(ds, group_col="source")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


QUERIES["grouped_split"] = q_grouped_split
ORACLE_SQL["grouped_split"] = _splitmix_sql(
    """(SELECT doc_id, source,
        CAST(list_reduce(
            list_prepend(CAST(14695981039346656037 AS HUGEINT),
                list_transform(range(1, length(source) + 1),
                    i -> CAST(unicode(substring(source, i, 1)) AS HUGEINT))),
            (acc, c) -> (CAST(xor(CAST(acc AS UBIGINT), CAST(c AS UBIGINT))
                         AS HUGEINT) * 1099511628211)
                        % 18446744073709551616) AS UBIGINT) AS fk
        FROM documents) f""",
    "fk", 0, "doc_id, source",
) + """
SELECT doc_id, source,
       CASE WHEN hv < CAST(14757395258967641292 AS UBIGINT) THEN 'train'
            WHEN hv < CAST(16602069666338596454 AS UBIGINT) THEN 'val'
            ELSE 'test' END AS split
FROM h ORDER BY doc_id
"""


def q_bowtie(sf_dir: str) -> pd.DataFrame:
    """Bow-tie census (:func:`ops.links.bowtie_census`) on a planted
    Broder graph: a 12-cycle CORE, a 6-cycle IN ring bridged one-way
    into the core, 6 OUT tendrils, and a disconnected pair (OTHER).
    Closed-form oracle: (26, 12, 6, 6, 2, 461)."""
    from .ops.links import bowtie_census

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def edges(batch: pa.Table) -> pa.Table:
        src, dst = [], []
        for i in batch["doc_id"].to_pylist():
            v = int(i) % 30
            if v < 12:
                src.append(f"c{v:02d}")
                dst.append(f"c{(v + 1) % 12:02d}")
            elif v < 18:
                k = v - 12
                src += [f"b{k}", f"b{k}"]
                dst += [f"b{(k + 1) % 6}", f"c{k:02d}"]
            elif v < 24:
                k = v - 18
                src.append(f"c{k:02d}")
                dst.append(f"t{k}")
            elif v < 26:
                src.append("d0")
                dst.append("d1")
            else:
                k = v - 26
                src.append(f"c{k:02d}")
                dst.append(f"c{(k + 1) % 12:02d}")
        return pa.Table.from_arrays(
            [pa.array(src, pa.string()), pa.array(dst, pa.string())],
            names=["src_host", "dst_host"],
        )

    return bowtie_census(ds.map_batches(edges, batch_format="pyarrow"))


QUERIES["bowtie"] = q_bowtie
ORACLE_SQL["bowtie"] = """
SELECT CAST(26 AS BIGINT) AS n_nodes, CAST(12 AS BIGINT) AS n_core,
       CAST(6 AS BIGINT) AS n_in, CAST(6 AS BIGINT) AS n_out,
       CAST(2 AS BIGINT) AS n_other, CAST(461 AS BIGINT) AS core_milli
"""


def q_community_modularity(sf_dir: str) -> pd.DataFrame:
    """Newman modularity of the 2-round label-propagation partition over
    the synthesized host link graph (:func:`ops.links.modularity` on
    Q ``communities``' own output) — exact rational
    ``(4m·intra − Σd_c²)/(4m²)`` in magnitude-truncating milli-units,
    degree moment carried as a string (it outgrows int64 at corpus
    scale). The oracle replays both LP rounds AND the modularity math
    in HUGEINT."""
    from .ops.links import label_propagation, link_graph, modularity

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    edges = link_graph(pages).materialize()
    labels = label_propagation(edges, num_iters=2)
    return modularity(edges, labels)


QUERIES["community_modularity"] = q_community_modularity
ORACLE_SQL["community_modularity"] = """
WITH base AS (SELECT doc_id AS i FROM documents),
rel AS (
    SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
           'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS dst
    FROM base),
ext AS (
    SELECT 'site' || CAST(i % 20 AS VARCHAR) || '.example.com' AS src,
           'site' || CAST((i * 7 + j) % 20 AS VARCHAR)
               || '.example.com' AS dst
    FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)),
edges_all AS (SELECT * FROM rel UNION ALL SELECT * FROM ext),
edges AS (SELECT src, dst, count(*) AS w FROM edges_all GROUP BY 1, 2),
nodes AS (SELECT src AS host FROM edges UNION SELECT dst FROM edges),
adj AS (SELECT src AS u, dst AS v, w FROM edges WHERE src <> dst
        UNION ALL
        SELECT dst AS u, src AS v, w FROM edges WHERE src <> dst),
l0 AS (SELECT host AS node, host AS lab FROM nodes),
v1 AS (SELECT a.u AS node, p.lab AS lab, CAST(a.w AS BIGINT) AS s
       FROM adj a JOIN l0 p ON p.node = a.v
       UNION ALL SELECT node, lab, 0 FROM l0),
s1 AS (SELECT node, lab, sum(s) AS s FROM v1 GROUP BY 1, 2),
l1 AS (SELECT node, lab FROM s1
       QUALIFY row_number()
           OVER (PARTITION BY node ORDER BY s DESC, lab) = 1),
v2 AS (SELECT a.u AS node, p.lab AS lab, CAST(a.w AS BIGINT) AS s
       FROM adj a JOIN l1 p ON p.node = a.v
       UNION ALL SELECT node, lab, 0 FROM l1),
s2_ AS (SELECT node, lab, sum(s) AS s FROM v2 GROUP BY 1, 2),
l2 AS (SELECT node, lab FROM s2_
       QUALIFY row_number()
           OVER (PARTITION BY node ORDER BY s DESC, lab) = 1),
can AS (SELECT DISTINCT least(src, dst) AS lo, greatest(src, dst) AS hi
        FROM edges WHERE src <> dst),
mm AS (SELECT count(*) AS m FROM can),
ii AS (SELECT count(*) AS c FROM can
       JOIN l2 a ON a.node = can.lo JOIN l2 b ON b.node = can.hi
       WHERE a.lab = b.lab),
dg AS (SELECT node, count(*) AS d FROM
        (SELECT lo AS node FROM can UNION ALL SELECT hi FROM can)
       GROUP BY node),
cd AS (SELECT l2.lab, CAST(SUM(d) AS HUGEINT) AS dc
       FROM dg JOIN l2 ON l2.node = dg.node GROUP BY 1),
sq AS (SELECT SUM(dc * dc) AS s FROM cd)
SELECT CAST(mm.m AS BIGINT) AS n_edges,
       CAST(ii.c AS BIGINT) AS n_intra,
       CAST(sq.s AS VARCHAR) AS sum_deg_sq_str,
       CAST(CASE WHEN 4 * CAST(mm.m AS HUGEINT) * ii.c - sq.s >= 0
            THEN (1000 * (4 * CAST(mm.m AS HUGEINT) * ii.c - sq.s))
                 // (4 * CAST(mm.m AS HUGEINT) * mm.m)
            ELSE -((1000 * (sq.s - 4 * CAST(mm.m AS HUGEINT) * ii.c))
                 // (4 * CAST(mm.m AS HUGEINT) * mm.m))
            END AS BIGINT) AS q_milli
FROM mm, ii, sq
"""


# --- Luby MIS / greedy matching (round 4, this session) -------------------
# Round-synchronous symmetry breaking over the 20-host link graph with
# deterministic per-round splitmix64 priorities; the oracle unrolls the
# rounds as chained CTEs around the shared HUGEINT splitmix chain.

_GRAPH_EDGES_SQL = """
base AS (SELECT doc_id AS i FROM documents),
ext AS (
    SELECT i % 20 AS s, (i * 7 + j) % 20 AS d
    FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)),
edges AS MATERIALIZED (SELECT DISTINCT least(s, d) AS u, greatest(s, d) AS v
          FROM ext WHERE s <> d),
gnodes AS MATERIALIZED (SELECT DISTINCT u AS node FROM edges
           UNION SELECT DISTINCT v FROM edges)"""


def _sm_cte(prefix: str, src: str, key: str, carry: str, out: str) -> str:
    """splitmix64 finalizer as five chained CTEs (same HUGEINT
    decomposition as :func:`_splitmix_sql`, but embeddable mid-query
    with a name prefix): ``{out}`` exposes ``{carry}, hv``."""
    c = f"{carry}, " if carry else ""
    p = prefix
    return f"""
{p}m1 AS (
    SELECT {c}CAST((CAST({key} AS HUGEINT) + 11400714819323198485)
         % 18446744073709551616 AS UBIGINT) AS x
    FROM {src}),
{p}m1x AS (SELECT {c}xor(x, x >> 30) AS a FROM {p}m1),
{p}m2 AS (
    SELECT {c}CAST((CAST(a % 4294967296 AS HUGEINT) * 13787848793156543929
          + CAST(((a >> 32) * 484763065) % 4294967296 AS HUGEINT) * 4294967296)
         % 18446744073709551616 AS UBIGINT) AS x
    FROM {p}m1x),
{p}m2x AS (SELECT {c}xor(x, x >> 27) AS a FROM {p}m2),
{p}m3 AS (
    SELECT {c}CAST((CAST(a % 4294967296 AS HUGEINT) * 10723151780598845931
          + CAST(((a >> 32) * 321982955) % 4294967296 AS HUGEINT) * 4294967296)
         % 18446744073709551616 AS UBIGINT) AS x
    FROM {p}m2x),
{out} AS MATERIALIZED (SELECT {c}xor(x, x >> 31) AS hv FROM {p}m3)"""


def _luby_mis_sql(rounds: int = 8) -> str:
    parts = ["WITH" + _GRAPH_EDGES_SQL + ","]
    parts.append(
        _sm_cte(
            "p",
            f"(SELECT node, t.r FROM gnodes, range({rounds}) t(r))",
            "node + 1000003 * r",
            "node, r",
            "pr",
        )
        + ","
    )
    parts.append("u0 AS MATERIALIZED (SELECT node FROM gnodes), e0 AS MATERIALIZED (SELECT u, v FROM edges)")
    for r in range(rounds):
        parts.append(f""",
b{r} AS MATERIALIZED (SELECT DISTINCT CASE WHEN p1.hv > p2.hv
                              OR (p1.hv = p2.hv AND e.u > e.v)
                         THEN e.u ELSE e.v END AS node
         FROM e{r} e JOIN pr p1 ON p1.node = e.u AND p1.r = {r}
                     JOIN pr p2 ON p2.node = e.v AND p2.r = {r}),
w{r} AS MATERIALIZED (SELECT node FROM u{r} WHERE node NOT IN (SELECT node FROM b{r})),
rm{r} AS MATERIALIZED (SELECT node FROM w{r}
          UNION SELECT e.v FROM e{r} e JOIN w{r} w ON e.u = w.node
          UNION SELECT e.u FROM e{r} e JOIN w{r} w ON e.v = w.node),
u{r + 1} AS MATERIALIZED (SELECT node FROM u{r}
             WHERE node NOT IN (SELECT node FROM rm{r})),
e{r + 1} AS MATERIALIZED (SELECT u, v FROM e{r}
             WHERE u NOT IN (SELECT node FROM rm{r})
               AND v NOT IN (SELECT node FROM rm{r}))""")
    sel = "\nUNION ALL ".join(
        f"SELECT node, {r} AS mis_round FROM w{r}" for r in range(rounds)
    )
    parts.append(f"\n{sel}\nORDER BY node")
    return "".join(parts)


def _greedy_matching_sql(rounds: int = 8) -> str:
    parts = ["WITH" + _GRAPH_EDGES_SQL + ","]
    parts.append(
        _sm_cte(
            "q1",
            f"(SELECT u, v, t.r FROM edges, range({rounds}) t(r))",
            "u + 1000003 * r",
            "u, v, r",
            "q1h",
        )
        + ",\nq1r AS (SELECT u, v, r, hv AS hv1 FROM q1h),"
    )
    parts.append(
        _sm_cte("q2", "q1r", "hv1 + v", "u, v, r", "pe") + ","
    )
    parts.append("me0 AS MATERIALIZED (SELECT u, v FROM edges)")
    for r in range(rounds):
        parts.append(f""",
n{r} AS MATERIALIZED (SELECT node, u, v FROM (
            SELECT e.u AS node, e.u AS u, e.v AS v, p.hv AS hv
            FROM me{r} e JOIN pe p ON p.u = e.u AND p.v = e.v AND p.r = {r}
            UNION ALL
            SELECT e.v, e.u, e.v, p.hv
            FROM me{r} e JOIN pe p ON p.u = e.u AND p.v = e.v AND p.r = {r})
         QUALIFY row_number() OVER (PARTITION BY node ORDER BY hv, u, v) = 1),
m{r} AS MATERIALIZED (SELECT u, v FROM n{r} GROUP BY u, v HAVING count(*) = 2),
mrm{r} AS MATERIALIZED (SELECT u AS node FROM m{r} UNION SELECT v FROM m{r}),
me{r + 1} AS MATERIALIZED (SELECT u, v FROM me{r}
              WHERE u NOT IN (SELECT node FROM mrm{r})
                AND v NOT IN (SELECT node FROM mrm{r}))""")
    sel = "\nUNION ALL ".join(
        f"SELECT u, v, {r} AS match_round FROM m{r}" for r in range(rounds)
    )
    parts.append(f"\n{sel}\nORDER BY u, v")
    return "".join(parts)


def _host_int_edges(sf_dir: str):
    """The Q ``link_graph`` host graph with hosts mapped to their site
    index (``siteK.example.com`` → K, int64) — the integer node ids the
    symmetry-breaking primitives operate on."""
    from .ops.links import link_graph

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    edges = link_graph(pages)

    def to_int(b: pa.Table) -> pa.Table:
        u = pc.cast(
            pc.struct_field(
                pc.extract_regex(b["src_host"], r"site(?P<k>\d+)\."), "k"
            ),
            pa.int64(),
        )
        v = pc.cast(
            pc.struct_field(
                pc.extract_regex(b["dst_host"], r"site(?P<k>\d+)\."), "k"
            ),
            pa.int64(),
        )
        return pa.Table.from_arrays([u, v], names=["u", "v"])

    return edges.map_batches(to_int, batch_format="pyarrow")


def q_luby_mis(sf_dir: str) -> pd.DataFrame:
    """Maximal independent set over the synthesized host graph via
    Luby's algorithm with deterministic per-round splitmix64 node
    priorities (:func:`ops.mis.luby_mis`): per round every live edge
    emits its higher-priority-loser locally (zero joins — priorities
    are hashes of the ids the edge row carries), winners fall out of a
    sentinel groupby-max, and the removal wave is one semi-join + two
    anti-joins, all over bare int64 node ids. Fixed hashed rounds make
    the result bit-exact at any block layout and in SQL (the oracle
    unrolls 8 rounds as chained CTEs around the shared HUGEINT
    splitmix64 chain)."""
    from .ops.mis import luby_mis

    df = luby_mis(_host_int_edges(sf_dir), num_rounds=8).to_pandas()
    return df.sort_values("node").reset_index(drop=True)


def q_greedy_matching(sf_dir: str) -> pd.DataFrame:
    """Maximal matching over the synthesized host graph via
    round-synchronous local-minimum edge selection (Israeli & Itai;
    :func:`ops.mis.greedy_matching`): an edge joins when its two-stage
    splitmix64 priority is the minimum at BOTH endpoints — one
    ``sorted_segment_apply`` argmin over two (node, priority) rows per
    live edge, a both-heads groupby, and the same anti-join removal
    wave as Q ``luby_mis``. Bit-exact in SQL by unrolling the rounds."""
    from .ops.mis import greedy_matching

    df = greedy_matching(_host_int_edges(sf_dir), num_rounds=8).to_pandas()
    return df.sort_values(["u", "v"]).reset_index(drop=True)


QUERIES["luby_mis"] = q_luby_mis
QUERIES["greedy_matching"] = q_greedy_matching
ORACLE_SQL["luby_mis"] = _luby_mis_sql()
ORACLE_SQL["greedy_matching"] = _greedy_matching_sql()


def q_edit_join(sf_dir: str) -> pd.DataFrame:
    """Exact edit-distance similarity join (Ed-Join prefix filtering,
    banded-DP verify — :func:`ops.editjoin.edit_distance_join`) over
    synthesized entity keys: doc i gets key ``md5(i//3)[:8] + '-' +
    (i//3)`` with i%3 ∈ {as-is, last-char substituted, last-char
    dropped}, so every planted triple is pairwise distance 1 while
    distinct hash prefixes keep cross-triple pairs out. FULL recall at
    k=1 is guaranteed by the count/prefix filter (one edit rewrites ≤ q
    positional grams); the oracle is the brute-force DuckDB
    ``levenshtein`` cross join — any hash-prefix near-collision both
    engines find identically."""
    from .ops.editjoin import edit_distance_join

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_keys(batch: pa.Table) -> pa.Table:
        import hashlib

        ids = batch["doc_id"].to_pylist()
        keys = []
        for i in ids:
            g = i // 3
            base = hashlib.md5(str(g).encode()).hexdigest()[:8] + "-" + str(g)
            if i % 3 == 1:
                base = base[:-1] + "x"
            elif i % 3 == 2:
                base = base[:-1]
            keys.append(base)
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(keys, pa.string())],
            names=["doc_id", "key"],
        )

    pairs = edit_distance_join(
        ds.map_batches(to_keys, batch_format="pyarrow"), "key", k=1
    )
    df = pairs.to_pandas()
    return df.sort_values(["id_a", "id_b"]).reset_index(drop=True)


QUERIES["edit_join"] = q_edit_join
ORACLE_SQL["edit_join"] = """
WITH names AS MATERIALIZED (
    SELECT doc_id,
           CASE doc_id % 3
               WHEN 1 THEN substr(base, 1, length(base) - 1) || 'x'
               WHEN 2 THEN substr(base, 1, length(base) - 1)
               ELSE base END AS key
    FROM (SELECT doc_id,
                 substr(md5(CAST(doc_id // 3 AS VARCHAR)), 1, 8)
                     || '-' || CAST(doc_id // 3 AS VARCHAR) AS base
          FROM documents))
SELECT a.doc_id AS id_a, b.doc_id AS id_b, a.key AS key_a, b.key AS key_b,
       CAST(levenshtein(a.key, b.key) AS BIGINT) AS dist
FROM names a JOIN names b
  ON a.doc_id < b.doc_id AND abs(length(a.key) - length(b.key)) <= 1
WHERE levenshtein(a.key, b.key) <= 1
ORDER BY id_a, id_b
"""


def q_scene_cuts(sf_dir: str) -> pd.DataFrame:
    """Shot-boundary detection over real Y4M video payloads
    (:class:`ops.multimodal.SceneCutDetector` actor pool): doc i
    becomes a 6-frame 8×8 video whose frames are constant
    ``(i*17 + (f//2)*53) % 256`` — the scene changes every 2 frames,
    so per-pair SAD has the closed form ``64·|v_f − v_{f-1}|`` and the
    integer cut rule (mean per-pixel diff > 8) is replayed exactly in
    SQL. Odd frame pairs are in-scene (SAD 0), even pairs are
    candidate cuts of data-dependent strength."""
    from .ops.multimodal import scene_cut_pipeline
    from .ops.video import encode_y4m

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_video(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        payloads = []
        for i in ids:
            frames = [
                np.full((8, 8), (i * 17 + (f // 2) * 53) % 256, np.uint8)
                for f in range(6)
            ]
            payloads.append(encode_y4m(frames))
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(payloads, pa.binary())],
            names=["media_id", "payload"],
        )

    out = scene_cut_pipeline(ds.map_batches(to_video, batch_format="pyarrow"))
    df = out.to_pandas()
    return df.sort_values(["media_id", "frame_no"]).reset_index(drop=True)


QUERIES["scene_cuts"] = q_scene_cuts
ORACLE_SQL["scene_cuts"] = """
WITH f AS (
    SELECT doc_id, unnest(range(1, 6)) AS frame_no FROM documents),
v AS (
    SELECT doc_id, frame_no,
           (doc_id * 17 + (frame_no // 2) * 53) % 256 AS cur,
           (doc_id * 17 + ((frame_no - 1) // 2) * 53) % 256 AS prev
    FROM f)
SELECT doc_id AS media_id,
       CAST(frame_no AS INTEGER) AS frame_no,
       CAST(64 * abs(cur - prev) AS BIGINT) AS sad,
       64 * abs(cur - prev) > 8 * 64 AS is_cut
FROM v ORDER BY media_id, frame_no
"""


def q_spectral_probes(sf_dir: str) -> pd.DataFrame:
    """Integer spectral-probe bank over real audio codecs
    (:class:`ops.multimodal.SpectralProbeExtractor`): doc i is the
    1024-sample signal ``(i*37 + t*13) % 2048 − 1024`` as PCM WAV
    (even docs) or FLAC (odd docs — lossless, so both decode to the
    same samples), 8 windows of 128. The three probe bins (DC, N/4,
    Nyquist) have integer basis functions, so window energies are
    exact int64 and the oracle recomputes them straight from the
    closed form."""
    from .ops.flac import encode_flac
    from .ops.multimodal import encode_wav, spectral_pipeline

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_audio(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        payloads = []
        for i in ids:
            sig = ((i * 37 + np.arange(1024) * 13) % 2048 - 1024).astype(np.int16)
            payloads.append(
                encode_wav(sig) if i % 2 == 0 else encode_flac(sig, blocksize=256)
            )
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(payloads, pa.binary())],
            names=["media_id", "payload"],
        )

    out = spectral_pipeline(ds.map_batches(to_audio, batch_format="pyarrow"))
    df = out.to_pandas()
    return df.sort_values(["media_id", "win"]).reset_index(drop=True)


QUERIES["spectral_probes"] = q_spectral_probes
ORACLE_SQL["spectral_probes"] = """
WITH wins AS (SELECT doc_id, unnest(range(8)) AS win FROM documents),
t AS (SELECT doc_id, win, unnest(range(128)) AS j FROM wins),
s AS (SELECT doc_id, win, j,
             (doc_id * 37 + (win * 128 + j) * 13) % 2048 - 1024 AS v
      FROM t),
agg AS (SELECT doc_id, win,
               SUM(v) AS s0,
               SUM(CASE WHEN j % 2 = 0 THEN v ELSE -v END) AS sn2,
               SUM(CASE WHEN j % 4 = 0 THEN v
                        WHEN j % 4 = 2 THEN -v ELSE 0 END) AS c4,
               SUM(CASE WHEN j % 4 = 1 THEN v
                        WHEN j % 4 = 3 THEN -v ELSE 0 END) AS s4
        FROM s GROUP BY 1, 2)
SELECT doc_id AS media_id, CAST(win AS INTEGER) AS win,
       CAST(s0 * s0 AS BIGINT) AS e_dc,
       CAST(c4 * c4 + s4 * s4 AS BIGINT) AS e_q,
       CAST(sn2 * sn2 AS BIGINT) AS e_ny
FROM agg ORDER BY media_id, win
"""


def q_association_rules(sf_dir: str) -> pd.DataFrame:
    """Directed association rules (A-Priori step 2,
    :func:`ops.itemsets.association_rules`) over the same planted
    co-member corpus as Q ``frequent_pairs``: exact integer confidence
    and lift in milli-units with floor division on both engines, rules
    kept at conf >= 300‰. The oracle replays both passes with
    distinct-doc joins and states the same milli arithmetic."""
    from .ops.itemsets import association_rules

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        tails = {0: " kiwi mango", 1: " kiwi papaya", 2: " mango papaya guava"}
        out = [(t or "") + tails.get(i % 5, "") for i, t in zip(ids, texts)]
        return pa.Table.from_arrays([pa.array(out, pa.string())], names=["text"])

    corpus = ds.map_batches(plant, batch_format="pyarrow")
    return association_rules(corpus, support=50, min_conf_milli=300)


QUERIES["association_rules"] = q_association_rules
ORACLE_SQL["association_rules"] = r"""
WITH d AS (
    SELECT doc_id,
           coalesce(text, '') || CASE doc_id % 5
               WHEN 0 THEN ' kiwi mango'
               WHEN 1 THEN ' kiwi papaya'
               WHEN 2 THEN ' mango papaya guava'
               ELSE '' END AS t
    FROM documents
),
n AS (SELECT count(*) AS n FROM d),
toks AS (
    SELECT DISTINCT doc_id, token FROM (
        SELECT doc_id, unnest(regexp_extract_all(lower(t), '\S+')) AS token
        FROM d
    )
),
fcnt AS (
    SELECT token, count(*) AS cnt FROM toks GROUP BY token
    HAVING count(*) >= 50
),
fp AS (SELECT p.doc_id, p.token FROM toks p JOIN fcnt USING (token)),
pp AS (
    SELECT a.token AS t1, b.token AS t2, count(*) AS cnt
    FROM fp a JOIN fp b ON a.doc_id = b.doc_id AND a.token < b.token
    GROUP BY 1, 2
    HAVING count(*) >= 50
),
dirs AS (
    SELECT t1 AS a, t2 AS c, cnt FROM pp
    UNION ALL
    SELECT t2, t1, cnt FROM pp
)
SELECT a AS antecedent, c AS consequent,
       CAST(d2.cnt AS BIGINT) AS pair_cnt,
       CAST(fa.cnt AS BIGINT) AS ante_cnt,
       CAST(fc.cnt AS BIGINT) AS cons_cnt,
       CAST(1000 * d2.cnt // fa.cnt AS BIGINT) AS conf_milli,
       CAST(1000 * d2.cnt * n.n // (fa.cnt * fc.cnt) AS BIGINT) AS lift_milli
FROM dirs d2
JOIN fcnt fa ON fa.token = d2.a
JOIN fcnt fc ON fc.token = d2.c, n
WHERE 1000 * d2.cnt // fa.cnt >= 300
ORDER BY antecedent, consequent
"""


def q_out_of_order(sf_dir: str) -> pd.DataFrame:
    """Per-user late-event census (:func:`ops.windows.out_of_order_stats`)
    — the watermark-sizing statistic: events process in ingest order
    (event_id) while event time is a deterministically perturbed
    ``ts + (event_id % 5) minutes``, so some streams run ahead and the
    following events arrive late. Integer-µs runner maxima make the
    window-function oracle bit-exact."""
    from .ops.windows import out_of_order_stats

    ds = _read(sf_dir, "events", columns=["user_id", "event_id", "ts"])

    def perturb(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].combine_chunks().cast(pa.int64()).to_numpy()
        eid = batch["event_id"].combine_chunks().cast(pa.int64()).to_numpy()
        skewed = pa.array(ts + (eid % 5) * 60_000_000, pa.int64())
        eid = pa.array(eid, pa.int64())
        return pa.Table.from_arrays(
            [batch["user_id"], eid, skewed], names=["user_id", "event_id", "ts"]
        )

    out = out_of_order_stats(ds.map_batches(perturb, batch_format="pyarrow"))
    df = out.to_pandas()
    return df.sort_values("user_id").reset_index(drop=True)


QUERIES["out_of_order"] = q_out_of_order
ORACLE_SQL["out_of_order"] = """
WITH e AS (
    SELECT user_id, event_id,
           epoch_us(ts) + (event_id % 5) * 60000000 AS ts_us
    FROM events),
w AS (
    SELECT user_id, ts_us,
           max(ts_us) OVER (PARTITION BY user_id ORDER BY event_id
                            ROWS BETWEEN UNBOUNDED PRECEDING
                            AND 1 PRECEDING) AS prev_max
    FROM e)
SELECT user_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN ts_us < prev_max THEN 1 ELSE 0 END) AS BIGINT)
           AS n_late,
       CAST(coalesce(max(CASE WHEN ts_us < prev_max
                          THEN prev_max - ts_us END), 0) AS BIGINT)
           AS max_skew_us
FROM w GROUP BY user_id ORDER BY user_id
"""


def q_substring_census(sf_dir: str) -> pd.DataFrame:
    """Per-document substring complexity over the first 64 characters
    (:func:`ops.substr.distinct_substring_census`): distinct-substring
    count and longest repeated substring via one suffix automaton per
    doc — memorization/boilerplate signals. The oracle explodes every
    (start, length) substring of the truncated text in SQL and counts
    distinct / repeated directly."""
    from .ops.substr import distinct_substring_census

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    df = distinct_substring_census(ds, max_chars=64).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


QUERIES["substring_census"] = q_substring_census
ORACLE_SQL["substring_census"] = """
WITH d AS MATERIALIZED (
    SELECT doc_id, substr(coalesce(text, ''), 1, 64) AS t FROM documents),
x AS MATERIALIZED (
    SELECT doc_id, t, unnest(range(1, length(t) + 1)) AS i FROM d),
y AS MATERIALIZED (
    SELECT x.doc_id, substr(x.t, x.i, j.l) AS s
    FROM x, LATERAL (SELECT unnest(range(1, length(x.t) - x.i + 2)) AS l) j),
per AS (
    SELECT doc_id, count(DISTINCT s) AS n_distinct FROM y GROUP BY doc_id),
reps AS (
    SELECT doc_id, coalesce(max(length(s)), 0) AS max_repeat_len
    FROM (SELECT doc_id, s FROM y GROUP BY doc_id, s HAVING count(*) >= 2)
    GROUP BY doc_id)
SELECT d.doc_id,
       CAST(length(d.t) AS BIGINT) AS n_chars,
       CAST(coalesce(per.n_distinct, 0) AS BIGINT) AS n_distinct,
       CAST(coalesce(reps.max_repeat_len, 0) AS BIGINT) AS max_repeat_len
FROM d LEFT JOIN per USING (doc_id) LEFT JOIN reps USING (doc_id)
ORDER BY doc_id
"""


def q_boruvka_msf(sf_dir: str) -> pd.DataFrame:
    """Minimum spanning forest of the weighted host graph via Borůvka
    rounds (:func:`ops.mst.boruvka_msf`): every component picks its
    minimum (w, u, v)-ordered outgoing edge per round, the chosen
    component graph merges through the engine's connected-components
    regimes, and the total edge order makes the forest UNIQUE — so the
    oracle replays KRUSKAL instead (a sequential recursive CTE adding
    one edge per rank with a CASE label merge): two genuinely
    different algorithms agreeing on the same unique object."""
    from .ops.links import link_graph
    from .ops.mst import boruvka_msf

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    edges = link_graph(pages)

    def to_int(b: pa.Table) -> pa.Table:
        u = pc.cast(
            pc.struct_field(
                pc.extract_regex(b["src_host"], r"site(?P<k>\d+)\."), "k"
            ),
            pa.int64(),
        )
        v = pc.cast(
            pc.struct_field(
                pc.extract_regex(b["dst_host"], r"site(?P<k>\d+)\."), "k"
            ),
            pa.int64(),
        )
        return pa.Table.from_arrays(
            [u, v, b["n_links"].combine_chunks().cast(pa.int64())],
            names=["u", "v", "w"],
        )

    msf = boruvka_msf(edges.map_batches(to_int, batch_format="pyarrow"))
    df = msf.to_pandas()[["u", "v", "w"]]
    return df.sort_values(["u", "v"]).reset_index(drop=True)


QUERIES["boruvka_msf"] = q_boruvka_msf
ORACLE_SQL["boruvka_msf"] = """
WITH RECURSIVE base AS (SELECT doc_id AS i FROM documents),
ext AS (
    SELECT i % 20 AS s, (i * 7 + j) % 20 AS d
    FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)),
wedges AS MATERIALIZED (
    SELECT least(s, d) AS u, greatest(s, d) AS v, count(*) AS w
    FROM ext WHERE s <> d GROUP BY 1, 2),
ranked AS MATERIALIZED (
    SELECT u, v, w, row_number() OVER (ORDER BY w, u, v) AS r FROM wedges),
gnodes AS MATERIALIZED (
    -- DISTINCT over UNION ALL, not UNION of two DISTINCTs: DuckDB 1.0
    -- fails to dedup the latter when inlined into a recursive anchor
    SELECT DISTINCT node FROM (
        SELECT u AS node FROM wedges UNION ALL SELECT v FROM wedges)),
m AS (SELECT count(*) AS m FROM ranked),
steps AS (
    SELECT 1 AS r, node, node AS lab FROM gnodes
    UNION ALL
    SELECT r + 1, node,
           CASE WHEN lab = lu OR lab = lv THEN least(lu, lv) ELSE lab END
    FROM (
        SELECT s.r, s.node, s.lab,
               max(CASE WHEN s.node = e.u THEN s.lab END) OVER () AS lu,
               max(CASE WHEN s.node = e.v THEN s.lab END) OVER () AS lv
        FROM steps s JOIN ranked e ON e.r = s.r
    )
    WHERE r <= (SELECT m FROM m)
)
SELECT e.u, e.v, CAST(e.w AS BIGINT) AS w
FROM ranked e
JOIN steps su ON su.r = e.r AND su.node = e.u
JOIN steps sv ON sv.r = e.r AND sv.node = e.v
WHERE su.lab <> sv.lab
ORDER BY u, v
"""


def q_single_linkage(sf_dir: str) -> pd.DataFrame:
    """Single-linkage clustering of the weighted host graph at a
    corpus-scaled threshold ``3·n_docs // 100``
    (:func:`ops.mst.single_linkage_clusters`): the engine cuts the
    Borůvka forest at the threshold and runs connected components over
    the n−1 forest edges; the oracle computes components of the FULL
    thresholded subgraph with a reachability closure — the classic
    MST/single-linkage equivalence checked across two derivations."""
    from .ops.links import link_graph
    from .ops.mst import single_linkage_clusters

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    n_docs = ds.count()
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    edges = link_graph(pages)

    def to_int(b: pa.Table) -> pa.Table:
        u = pc.cast(
            pc.struct_field(
                pc.extract_regex(b["src_host"], r"site(?P<k>\d+)\."), "k"
            ),
            pa.int64(),
        )
        v = pc.cast(
            pc.struct_field(
                pc.extract_regex(b["dst_host"], r"site(?P<k>\d+)\."), "k"
            ),
            pa.int64(),
        )
        return pa.Table.from_arrays(
            [u, v, b["n_links"].combine_chunks().cast(pa.int64())],
            names=["u", "v", "w"],
        )

    out = single_linkage_clusters(
        edges.map_batches(to_int, batch_format="pyarrow"),
        threshold=3 * n_docs // 100,
    )
    df = out.to_pandas()
    return df.sort_values("node").reset_index(drop=True)


QUERIES["single_linkage"] = q_single_linkage
ORACLE_SQL["single_linkage"] = """
WITH RECURSIVE base AS (SELECT doc_id AS i FROM documents),
ext AS (
    SELECT i % 20 AS s, (i * 7 + j) % 20 AS d
    FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)),
wedges AS MATERIALIZED (
    SELECT least(s, d) AS u, greatest(s, d) AS v, count(*) AS w
    FROM ext WHERE s <> d GROUP BY 1, 2),
tau AS (SELECT 3 * count(*) // 100 AS t FROM documents),
keep AS MATERIALIZED (
    SELECT u, v FROM wedges, tau WHERE w <= t),
gnodes AS MATERIALIZED (
    SELECT DISTINCT node FROM (
        SELECT u AS node FROM wedges UNION ALL SELECT v FROM wedges)),
sym AS MATERIALIZED (
    SELECT u, v FROM keep UNION SELECT v, u FROM keep),
reach(src, dst) AS (
    SELECT node, node FROM gnodes
    UNION
    SELECT r.src, e.v FROM reach r JOIN sym e ON r.dst = e.u
)
SELECT src AS node, CAST(min(dst) AS BIGINT) AS cluster
FROM reach GROUP BY src ORDER BY node
"""


def q_lz_census(sf_dir: str) -> pd.DataFrame:
    """Per-document LZ77 phrase count over the first 64 characters
    (:func:`ops.substr.lz_census`) — greedy factorization with
    overlap-allowed earlier sources, the compressibility twin of Q
    ``substring_census``. The oracle precomputes, per position, the
    longest prefix occurring earlier (window over the exploded
    substring table) and replays the greedy walk as a recursive CTE."""
    from .ops.substr import lz_census

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    df = lz_census(ds, max_chars=64).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


QUERIES["lz_census"] = q_lz_census
ORACLE_SQL["lz_census"] = """
WITH RECURSIVE d AS MATERIALIZED (
    SELECT doc_id, substr(coalesce(text, ''), 1, 64) AS t FROM documents),
x AS MATERIALIZED (
    SELECT doc_id, t, unnest(range(1, length(t) + 1)) AS i FROM d),
y AS MATERIALIZED (
    SELECT x.doc_id, x.i, j.l, substr(x.t, x.i, j.l) AS s
    FROM x, LATERAL (SELECT unnest(range(1, length(x.t) - x.i + 2)) AS l) j),
mt AS MATERIALIZED (
    SELECT doc_id, i AS pos, l,
           min(i) OVER (PARTITION BY doc_id, l, s) AS first_i
    FROM y),
lm AS MATERIALIZED (
    SELECT doc_id, pos, max(l) AS lmax FROM mt
    WHERE first_i < pos GROUP BY 1, 2),
walk(doc_id, pos, nph) AS (
    SELECT doc_id, 1, 0 FROM d WHERE length(t) > 0
    UNION ALL
    SELECT w.doc_id,
           w.pos + greatest(coalesce(lm.lmax, 1), 1),
           w.nph + 1
    FROM walk w
    JOIN d ON d.doc_id = w.doc_id
    LEFT JOIN lm ON lm.doc_id = w.doc_id AND lm.pos = w.pos
    WHERE w.pos <= length(d.t)
)
SELECT d.doc_id,
       CAST(length(d.t) AS BIGINT) AS n_chars,
       CAST(coalesce(mx.nph, 0) AS BIGINT) AS n_phrases
FROM d LEFT JOIN (SELECT doc_id, max(nph) AS nph FROM walk GROUP BY doc_id) mx
    USING (doc_id)
ORDER BY doc_id
"""


def q_sssp(sf_dir: str) -> pd.DataFrame:
    """Single-source shortest paths from host 1 over the weighted host
    graph (:func:`ops.mst.bellman_ford`): 6 synchronous Bellman–Ford
    relaxation rounds, integer link-count weights, frontier-
    proportional attach per round. Fixed rounds + integer min make the
    distances bit-exact and the oracle a 6-round unrolled-CTE
    relaxation."""
    from .ops.links import link_graph
    from .ops.mst import bellman_ford

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    pages = ds.map_batches(_linkgraph_pages, batch_format="pyarrow")
    edges = link_graph(pages)

    def to_int(b: pa.Table) -> pa.Table:
        u = pc.cast(
            pc.struct_field(
                pc.extract_regex(b["src_host"], r"site(?P<k>\d+)\."), "k"
            ),
            pa.int64(),
        )
        v = pc.cast(
            pc.struct_field(
                pc.extract_regex(b["dst_host"], r"site(?P<k>\d+)\."), "k"
            ),
            pa.int64(),
        )
        return pa.Table.from_arrays(
            [u, v, b["n_links"].combine_chunks().cast(pa.int64())],
            names=["u", "v", "w"],
        )

    out = bellman_ford(
        edges.map_batches(to_int, batch_format="pyarrow"), source=1
    )
    df = out.to_pandas()
    return df.sort_values("node").reset_index(drop=True)


QUERIES["sssp"] = q_sssp


def _sssp_sql(rounds: int = 6) -> str:
    parts = ["""
WITH base AS (SELECT doc_id AS i FROM documents),
ext AS (
    SELECT i % 20 AS s, (i * 7 + j) % 20 AS d
    FROM (SELECT i, unnest(range(i % 4)) AS j FROM base)),
wedges AS MATERIALIZED (
    SELECT least(s, d) AS u, greatest(s, d) AS v, count(*) AS w
    FROM ext WHERE s <> d GROUP BY 1, 2),
adj AS MATERIALIZED (
    SELECT u AS src, v AS dst, w FROM wedges
    UNION ALL SELECT v, u, w FROM wedges),
d0 AS MATERIALIZED (SELECT 1 AS node, 0 AS dist)"""]
    for r in range(rounds):
        parts.append(f""",
d{r + 1} AS MATERIALIZED (
    SELECT node, min(dist) AS dist FROM (
        SELECT node, dist FROM d{r}
        UNION ALL
        SELECT a.dst AS node, p.dist + a.w AS dist
        FROM adj a JOIN d{r} p ON p.node = a.src
    ) GROUP BY node)""")
    parts.append(f"""
SELECT node, CAST(dist AS BIGINT) AS dist FROM d{rounds} ORDER BY node""")
    return "".join(parts)


ORACLE_SQL["sssp"] = _sssp_sql()


def q_vocab_overlap(sf_dir: str) -> pd.DataFrame:
    """Exact vocabulary Jaccard between the English partition and the
    rest of the corpus (:func:`ops.text.vocab_overlap`) — the cheap
    drift screen before n-gram decontamination. Single-sourced
    tokenization, one (token, side) groupby, O(blocks) integer
    partials; milli Jaccard with floor division on both engines."""
    from .ops.text import vocab_overlap

    ds = _read(sf_dir, "documents", columns=["text", "lang"])
    side_a = ds.filter(expr="lang == 'en'").select_columns(["text"])
    side_b = ds.filter(expr="lang != 'en'").select_columns(["text"])
    return vocab_overlap(side_a, side_b)


QUERIES["vocab_overlap"] = q_vocab_overlap
ORACLE_SQL["vocab_overlap"] = r"""
WITH a AS (
    SELECT DISTINCT token FROM (
        SELECT unnest(regexp_extract_all(lower(coalesce(text, '')), '\S+'))
            AS token
        FROM documents WHERE lang = 'en') WHERE token <> ''),
b AS (
    SELECT DISTINCT token FROM (
        SELECT unnest(regexp_extract_all(lower(coalesce(text, '')), '\S+'))
            AS token
        FROM documents WHERE lang <> 'en') WHERE token <> ''),
i AS (SELECT count(*) AS n FROM a JOIN b USING (token)),
na AS (SELECT count(*) AS n FROM a),
nb AS (SELECT count(*) AS n FROM b)
SELECT CAST(na.n AS BIGINT) AS n_a, CAST(nb.n AS BIGINT) AS n_b,
       CAST(i.n AS BIGINT) AS n_both,
       CAST(CASE WHEN na.n + nb.n - i.n > 0
            THEN 1000 * i.n // (na.n + nb.n - i.n) ELSE 0 END AS BIGINT)
           AS jaccard_milli
FROM na, nb, i
"""


def q_pivot_events(sf_dir: str) -> pd.DataFrame:
    """Long → wide pivot (:func:`ops.pivot.pivot_counts`): per-user
    counts of every event type as one wide row — per-block (user,
    type) partials, one pair groupby, vectorized scatter into the
    fixed sorted-category schema. The oracle is the classic CASE-sum
    pivot."""
    from .ops.pivot import pivot_counts

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    df = pivot_counts(ds, "user_id", "event_type").to_pandas()
    return df.sort_values("user_id").reset_index(drop=True)


QUERIES["pivot_events"] = q_pivot_events
ORACLE_SQL["pivot_events"] = """
SELECT user_id,
       CAST(sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT)
           AS n_click,
       CAST(sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT)
           AS n_error,
       CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT)
           AS n_purchase,
       CAST(sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT)
           AS n_signup,
       CAST(sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT)
           AS n_view
FROM events GROUP BY user_id ORDER BY user_id
"""


def q_burstiness(sf_dir: str) -> pd.DataFrame:
    """Per-user traffic burstiness (:func:`ops.windows.burstiness_stats`):
    exact rational Fano factor of hourly event counts in floor milli —
    steady traffic ≈ 1000, bursty scrapers ≫ 1000. One (user, hour)
    pair groupby over pre-combined partials, prefix-sum moment
    reduction; bit-exact in SQL."""
    from .ops.windows import burstiness_stats

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    df = burstiness_stats(ds).to_pandas()
    return df.sort_values("user_id").reset_index(drop=True)


QUERIES["burstiness"] = q_burstiness
ORACLE_SQL["burstiness"] = """
WITH b AS (
    SELECT user_id, epoch_us(ts) // 3600000000 AS bucket, count(*) AS n
    FROM events GROUP BY 1, 2),
a AS (
    SELECT user_id, count(*) AS nb, sum(n) AS tot, sum(n * n) AS tot2
    FROM b GROUP BY 1)
SELECT user_id,
       CAST(nb AS BIGINT) AS n_buckets,
       CAST(tot AS BIGINT) AS n_events,
       CAST((1000 * (nb * tot2 - tot * tot)) // (nb * tot) AS BIGINT)
           AS fano_milli
FROM a ORDER BY user_id
"""


def q_hapax_stats(sf_dir: str) -> pd.DataFrame:
    """Per-language hapax-legomena census (:func:`ops.text.hapax_stats`):
    type/token/hapax counts and the hapax TYPE share in floor milli —
    corpus-health fingerprinting per slice. One (lang, token) groupby
    over pre-combined occurrence partials, prefix-sum reductions."""
    from .ops.text import hapax_stats

    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    df = hapax_stats(ds).to_pandas()
    return df.sort_values("group").reset_index(drop=True)


QUERIES["hapax_stats"] = q_hapax_stats
ORACLE_SQL["hapax_stats"] = r"""
WITH toks AS (
    SELECT lang AS grp,
           unnest(regexp_extract_all(lower(coalesce(text, '')), '\S+'))
               AS token
    FROM documents),
cnt AS (
    SELECT grp, token, count(*) AS n FROM toks WHERE token <> ''
    GROUP BY 1, 2),
a AS (
    SELECT grp, count(*) AS types, sum(n) AS toks,
           sum(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS hapax
    FROM cnt GROUP BY 1)
SELECT grp AS "group",
       CAST(types AS BIGINT) AS n_types,
       CAST(toks AS BIGINT) AS n_tokens,
       CAST(hapax AS BIGINT) AS n_hapax,
       CAST(1000 * hapax // types AS BIGINT) AS hapax_milli
FROM a ORDER BY "group"
"""


def q_rank_overlap(sf_dir: str) -> pd.DataFrame:
    """Rank-biased overlap (Webber et al. 2010, p = 9/10, k = 10)
    between the corpus's occurrence-weighted and document-frequency-
    weighted term-head rankings (:func:`ops.search.ranking_overlap`) —
    the eval-harness statistic for "how different are two retrieval
    weightings really". RBO is computed in exact integer arithmetic
    over the common denominator 10^10·lcm(1..10), so the oracle
    replays it with a literal coefficient table."""
    from .ops.search import ranking_overlap

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ranking_overlap(ds, k=10)


def _rbo_coef_values() -> str:
    rows = []
    for d in range(1, 11):
        coef = (9 ** (d - 1)) * (10 ** (10 - d)) * (2520 // d)
        rows.append(f"({d}, {coef})")
    return ", ".join(rows)


QUERIES["rank_overlap"] = q_rank_overlap
ORACLE_SQL["rank_overlap"] = rf"""
WITH words AS (
    SELECT doc_id,
           unnest(regexp_extract_all(lower(coalesce(text, '')), '\S+')) AS w
    FROM documents),
occ AS (SELECT w, count(*) AS c FROM words WHERE w <> '' GROUP BY w),
docf AS (SELECT w, count(DISTINCT doc_id) AS c FROM words WHERE w <> ''
         GROUP BY w),
ra AS (SELECT w, row_number() OVER (ORDER BY c DESC, w) AS r FROM occ
       QUALIFY r <= 10),
rb AS (SELECT w, row_number() OVER (ORDER BY c DESC, w) AS r FROM docf
       QUALIFY r <= 10),
coef(d, cf) AS (VALUES {_rbo_coef_values()}),
xd AS (
    SELECT coef.d,
           (SELECT count(*) FROM ra JOIN rb USING (w)
            WHERE ra.r <= coef.d AND rb.r <= coef.d) AS x
    FROM coef),
agg AS (SELECT CAST(sum(CAST(x AS HUGEINT) * cf) AS HUGEINT) AS num FROM xd
        JOIN coef USING (d)),
ov AS (SELECT count(*) AS o FROM ra JOIN rb USING (w))
SELECT 10 AS k,
       CAST(ov.o AS BIGINT) AS overlap_at_k,
       CAST(1000 * agg.num // (CAST(10000000000 AS HUGEINT) * 2520)
            AS BIGINT) AS rbo_milli
FROM agg, ov
"""


def q_outlier_census(sf_dir: str) -> pd.DataFrame:
    """Per-event-type Tukey-fence outlier census over transaction
    values in integer cents (:func:`ops.quantiles.outlier_census`):
    exact rank-quartiles, doubled-integer 1.5·IQR fences (no float
    1.5 anywhere), one counting pass. Cents via
    ``floor(value·100 + 0.5)`` — the identical IEEE expression on
    both engines."""
    from .ops.quantiles import outlier_census

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def to_cents(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        return pa.Table.from_arrays(
            [batch["event_type"], pa.array(cents, pa.int64())],
            names=["event_type", "cents"],
        )

    out = outlier_census(
        ds.map_batches(to_cents, batch_format="pyarrow"), "event_type", "cents"
    )
    df = out.to_pandas()
    return df.sort_values("group").reset_index(drop=True)


QUERIES["outlier_census"] = q_outlier_census
ORACLE_SQL["outlier_census"] = """
WITH c AS (
    SELECT event_type,
           CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
    FROM events WHERE event_type IS NOT NULL AND value IS NOT NULL),
ranked AS (
    SELECT event_type, cents,
           row_number() OVER (PARTITION BY event_type ORDER BY cents) AS rn,
           count(*) OVER (PARTITION BY event_type) AS n
    FROM c),
q AS (
    SELECT event_type,
           max(CASE WHEN rn = CAST(ceil(0.25 * n) AS BIGINT)
               THEN cents END) AS q1,
           max(CASE WHEN rn = CAST(ceil(0.75 * n) AS BIGINT)
               THEN cents END) AS q3
    FROM ranked GROUP BY event_type)
SELECT c.event_type AS "group",
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CASE WHEN 2 * cents < 2 * q1 - 3 * (q3 - q1)
                THEN 1 ELSE 0 END) AS BIGINT) AS n_low,
       CAST(sum(CASE WHEN 2 * cents > 2 * q3 + 3 * (q3 - q1)
                THEN 1 ELSE 0 END) AS BIGINT) AS n_high
FROM c JOIN q USING (event_type)
GROUP BY 1 ORDER BY 1
"""


def q_chi_square(sf_dir: str) -> pd.DataFrame:
    """Chi-square independence census between event type and the
    value's sign-of-deviation tercile (closed-form category from
    cents % 3 — enum × enum by construction) via
    :func:`ops.profile.chi_square_census`: per-cell floor-milli
    (O·N − R·C)²/(N·R·C) terms summed as exact integers on both
    engines. One pair groupby; the contingency table is the only
    driver state."""
    from .ops.profile import chi_square_census

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def cat(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        tercile = np.abs(cents) % 3
        return pa.Table.from_arrays(
            [
                batch["event_type"],
                pa.array([f"t{t}" for t in tercile], pa.string()),
            ],
            names=["event_type", "tercile"],
        )

    return chi_square_census(
        ds.map_batches(cat, batch_format="pyarrow"), "event_type", "tercile"
    )


QUERIES["chi_square"] = q_chi_square
ORACLE_SQL["chi_square"] = """
WITH c AS (
    SELECT event_type AS a,
           't' || CAST(abs(CAST(floor(value * 100 + 0.5) AS BIGINT)) % 3
                       AS VARCHAR) AS b
    FROM events WHERE event_type IS NOT NULL AND value IS NOT NULL),
cells AS (SELECT a, b, count(*) AS o FROM c GROUP BY 1, 2),
rs AS (SELECT a, sum(o) AS r FROM cells GROUP BY 1),
cs AS (SELECT b, sum(o) AS cc FROM cells GROUP BY 1),
n AS (SELECT sum(o) AS n FROM cells),
grid AS (
    SELECT rs.a, cs.b, rs.r, cs.cc, coalesce(cells.o, 0) AS o
    FROM rs CROSS JOIN cs
    LEFT JOIN cells ON cells.a = rs.a AND cells.b = cs.b),
terms AS (
    SELECT (1000 * CAST(o * n.n - r * cc AS HUGEINT)
                 * CAST(o * n.n - r * cc AS HUGEINT))
           // (CAST(n.n AS HUGEINT) * r * cc) AS t
    FROM grid, n)
SELECT CAST(n.n AS BIGINT) AS n,
       CAST((SELECT count(*) FROM rs) AS BIGINT) AS n_rows_cat,
       CAST((SELECT count(*) FROM cs) AS BIGINT) AS n_cols_cat,
       CAST(((SELECT count(*) FROM rs) - 1)
            * ((SELECT count(*) FROM cs) - 1) AS BIGINT) AS dof,
       CAST((SELECT sum(t) FROM terms) AS BIGINT) AS chi2_milli
FROM n
"""


def q_blocking_recall(sf_dir: str) -> pd.DataFrame:
    """Sorted-Neighborhood blocking recall vs the exact Ed-Join ground
    truth (:func:`ops.editjoin.blocking_recall`) over the Q
    ``edit_join`` fixture keys (window 4, k = 1) — the eval every
    entity-resolution pipeline publishes before trusting a blocking
    strategy. The oracle replays BOTH operators: a brute-force
    levenshtein cross join for truth and a row_number rank-band
    replay of the sorted-neighborhood candidate set."""
    from .ops.editjoin import blocking_recall

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def to_keys(batch: pa.Table) -> pa.Table:
        import hashlib

        ids = batch["doc_id"].to_pylist()
        keys = []
        for i in ids:
            g = i // 3
            base = hashlib.md5(str(g).encode()).hexdigest()[:8] + "-" + str(g)
            if i % 3 == 1:
                base = base[:-1] + "x"
            elif i % 3 == 2:
                base = base[:-1]
            keys.append(base)
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(keys, pa.string())],
            names=["doc_id", "key"],
        )

    return blocking_recall(
        ds.map_batches(to_keys, batch_format="pyarrow"), "key", k=1, window=4
    )


QUERIES["blocking_recall"] = q_blocking_recall
ORACLE_SQL["blocking_recall"] = """
WITH names AS MATERIALIZED (
    SELECT doc_id,
           CASE doc_id % 3
               WHEN 1 THEN substr(base, 1, length(base) - 1) || 'x'
               WHEN 2 THEN substr(base, 1, length(base) - 1)
               ELSE base END AS key
    FROM (SELECT doc_id,
                 substr(md5(CAST(doc_id // 3 AS VARCHAR)), 1, 8)
                     || '-' || CAST(doc_id // 3 AS VARCHAR) AS base
          FROM documents)),
truth AS MATERIALIZED (
    SELECT least(a.doc_id, b.doc_id) AS ia,
           greatest(a.doc_id, b.doc_id) AS ib
    FROM names a JOIN names b
      ON a.doc_id < b.doc_id
     AND abs(length(a.key) - length(b.key)) <= 1
     AND levenshtein(a.key, b.key) <= 1),
ranked AS MATERIALIZED (
    SELECT doc_id, key,
           row_number() OVER (ORDER BY key, doc_id) AS rn
    FROM names),
sn AS MATERIALIZED (
    SELECT least(a.doc_id, b.doc_id) AS ia,
           greatest(a.doc_id, b.doc_id) AS ib
    FROM ranked a JOIN ranked b
      ON b.rn > a.rn AND b.rn <= a.rn + 4
     AND abs(length(a.key) - length(b.key)) <= 1
     AND levenshtein(a.key, b.key) <= 1),
nt AS (SELECT count(*) AS n FROM truth),
nf AS (SELECT count(*) AS n FROM truth JOIN sn USING (ia, ib))
SELECT CAST(nt.n AS BIGINT) AS n_truth,
       CAST(nf.n AS BIGINT) AS n_found,
       CAST(CASE WHEN nt.n > 0 THEN 1000 * nf.n // nt.n
            ELSE 1000 END AS BIGINT) AS recall_milli
FROM nt, nf
"""


def q_autocorrelation(sf_dir: str) -> pd.DataFrame:
    """Per-event-type hourly-series autocorrelation at lags 1/2/3/24
    (:func:`ops.windows.autocorrelation_stats`): raw integer
    lag-products over occupied hours in floor milli — the periodicity
    screen for scheduled bots. One (type, hour) pair groupby; the
    series is time-range-bounded driver state (gated)."""
    from .ops.windows import autocorrelation_stats

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])
    df = autocorrelation_stats(ds)
    return df.sort_values(["group", "lag"]).reset_index(drop=True)


QUERIES["autocorrelation"] = q_autocorrelation
ORACLE_SQL["autocorrelation"] = """
WITH b AS (
    SELECT event_type AS grp, epoch_us(ts) // 3600000000 AS bucket,
           count(*) AS n
    FROM events GROUP BY 1, 2),
den AS (SELECT grp, sum(n * n) AS den FROM b GROUP BY 1),
lags(lag) AS (VALUES (1), (2), (3), (24)),
num AS (
    SELECT a.grp, lags.lag, coalesce(sum(a.n * c.n), 0) AS num
    FROM b a CROSS JOIN lags
    LEFT JOIN b c ON c.grp = a.grp AND c.bucket = a.bucket + lags.lag
    GROUP BY 1, 2)
SELECT num.grp AS "group", CAST(num.lag AS BIGINT) AS lag,
       CAST(num.num AS BIGINT) AS num,
       CAST(den.den AS BIGINT) AS den,
       CAST(CASE WHEN den.den > 0 THEN 1000 * num.num // den.den
            ELSE 0 END AS BIGINT) AS autocorr_milli
FROM num JOIN den USING (grp)
ORDER BY "group", lag
"""


def q_benford(sf_dir: str) -> pd.DataFrame:
    """Per-event-type Benford first-digit census over transaction
    cents (:func:`ops.profile.benford_census`): counts of leading
    significant digits 1–9 (zero cents excluded) plus the digit-1
    share in floor milli. One (type, digit) groupby, vectorized
    scatter into the fixed 9-digit schema."""
    from .ops.profile import benford_census

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def to_cents(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        return pa.Table.from_arrays(
            [batch["event_type"], pa.array(cents, pa.int64())],
            names=["event_type", "cents"],
        )

    out = benford_census(
        ds.map_batches(to_cents, batch_format="pyarrow"), "event_type", "cents"
    )
    df = out.to_pandas()
    return df.sort_values("group").reset_index(drop=True)


QUERIES["benford"] = q_benford
ORACLE_SQL["benford"] = """
WITH c AS (
    SELECT event_type AS grp,
           abs(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS v
    FROM events WHERE event_type IS NOT NULL AND value IS NOT NULL),
d AS (
    SELECT grp, CAST(substr(CAST(v AS VARCHAR), 1, 1) AS BIGINT) AS digit
    FROM c WHERE v > 0),
cnt AS (SELECT grp, digit, count(*) AS n FROM d GROUP BY 1, 2),
wide AS (
    SELECT grp,
           sum(CASE WHEN digit = 1 THEN n ELSE 0 END) AS d1,
           sum(CASE WHEN digit = 2 THEN n ELSE 0 END) AS d2,
           sum(CASE WHEN digit = 3 THEN n ELSE 0 END) AS d3,
           sum(CASE WHEN digit = 4 THEN n ELSE 0 END) AS d4,
           sum(CASE WHEN digit = 5 THEN n ELSE 0 END) AS d5,
           sum(CASE WHEN digit = 6 THEN n ELSE 0 END) AS d6,
           sum(CASE WHEN digit = 7 THEN n ELSE 0 END) AS d7,
           sum(CASE WHEN digit = 8 THEN n ELSE 0 END) AS d8,
           sum(CASE WHEN digit = 9 THEN n ELSE 0 END) AS d9
    FROM cnt GROUP BY 1)
SELECT grp AS "group",
       CAST(d1 AS BIGINT) AS d1, CAST(d2 AS BIGINT) AS d2,
       CAST(d3 AS BIGINT) AS d3, CAST(d4 AS BIGINT) AS d4,
       CAST(d5 AS BIGINT) AS d5, CAST(d6 AS BIGINT) AS d6,
       CAST(d7 AS BIGINT) AS d7, CAST(d8 AS BIGINT) AS d8,
       CAST(d9 AS BIGINT) AS d9,
       CAST(1000 * d1 // (d1+d2+d3+d4+d5+d6+d7+d8+d9) AS BIGINT)
           AS digit1_milli
FROM wide ORDER BY "group"
"""


def q_cusum_alerts(sf_dir: str) -> pd.DataFrame:
    """Per-event-type CUSUM surge alarm over hourly counts
    (:func:`ops.windows.cusum_alerts`): the recursive Page statistic
    rewritten as cumsum − running-min (two prefix scans, no loop),
    drift 0, alarm when S_t exceeds 3/2 of the mean hourly count —
    cross-multiplied exact integers. The oracle states the same
    prefix-scan identity with window functions."""
    from .ops.windows import cusum_alerts

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])
    df = cusum_alerts(ds)
    return df.sort_values("group").reset_index(drop=True)


QUERIES["cusum_alerts"] = q_cusum_alerts
ORACLE_SQL["cusum_alerts"] = """
WITH b AS (
    SELECT event_type AS grp, epoch_us(ts) // 3600000000 AS bucket,
           count(*) AS n
    FROM events GROUP BY 1, 2),
rng AS (SELECT grp, min(bucket) AS lo, max(bucket) AS hi FROM b GROUP BY 1),
grid AS (
    SELECT grp, unnest(range(lo, hi + 1)) AS bucket FROM rng),
dense AS (
    SELECT grid.grp, grid.bucket, coalesce(b.n, 0) AS n
    FROM grid LEFT JOIN b ON b.grp = grid.grp AND b.bucket = grid.bucket),
cums AS (
    SELECT grp, bucket, n,
           sum(n) OVER (PARTITION BY grp ORDER BY bucket
                        ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
               AS cum
    FROM dense),
scan AS (
    SELECT grp, bucket, n, cum,
           least(0, min(cum) OVER (PARTITION BY grp ORDER BY bucket
                                   ROWS BETWEEN UNBOUNDED PRECEDING
                                   AND CURRENT ROW)) AS run_min
    FROM cums),
tot AS (SELECT grp, count(*) AS n_hours, sum(n) AS total FROM dense
        GROUP BY 1),
stat AS (
    SELECT scan.grp, scan.cum - scan.run_min AS s, tot.n_hours, tot.total
    FROM scan JOIN tot USING (grp))
SELECT grp AS "group",
       CAST(max(n_hours) AS BIGINT) AS n_hours,
       CAST(sum(CASE WHEN s * 2 * n_hours > 3 * total THEN 1 ELSE 0 END)
            AS BIGINT) AS n_alert_hours,
       CAST(max(s) AS BIGINT) AS max_stat
FROM stat GROUP BY 1 ORDER BY 1
"""


def q_group_mad(sf_dir: str) -> pd.DataFrame:
    """Per-event-type median absolute deviation of transaction cents
    (:func:`ops.quantiles.group_mad`): two exact order statistics
    (rank-ceil(n/2) median, same rank over |v − median|), the robust
    spread every anomaly pipeline wants next to quantiles."""
    from .ops.quantiles import group_mad

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def to_cents(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        return pa.Table.from_arrays(
            [batch["event_type"], pa.array(cents, pa.int64())],
            names=["event_type", "cents"],
        )

    out = group_mad(
        ds.map_batches(to_cents, batch_format="pyarrow"), "event_type", "cents"
    )
    df = out.to_pandas()
    return df.sort_values("group").reset_index(drop=True)


QUERIES["group_mad"] = q_group_mad
ORACLE_SQL["group_mad"] = """
WITH c AS (
    SELECT event_type, CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
    FROM events WHERE event_type IS NOT NULL AND value IS NOT NULL),
r1 AS (
    SELECT event_type, cents,
           row_number() OVER (PARTITION BY event_type ORDER BY cents) AS rn,
           count(*) OVER (PARTITION BY event_type) AS n
    FROM c),
med AS (
    SELECT event_type, cents AS m FROM r1
    WHERE rn = CAST(ceil(0.5 * n) AS BIGINT)),
d AS (
    SELECT c.event_type, abs(c.cents - med.m) AS dev, med.m
    FROM c JOIN med USING (event_type)),
r2 AS (
    SELECT event_type, dev, m,
           row_number() OVER (PARTITION BY event_type ORDER BY dev) AS rn,
           count(*) OVER (PARTITION BY event_type) AS n
    FROM d)
SELECT event_type AS "group",
       CAST(m AS BIGINT) AS median,
       CAST(dev AS BIGINT) AS mad
FROM r2 WHERE rn = CAST(ceil(0.5 * n) AS BIGINT)
ORDER BY "group"
"""


def q_heavy_hitters(sf_dir: str) -> pd.DataFrame:
    """Deterministic 1%-heavy hitters over the corpus tokens
    (:func:`ops.sketch.misra_gries_heavy_hitters`, k=100): per-block
    Misra–Gries-style top-k candidates (blocks·k exchange, never the
    vocabulary), one broadcast, one exact recount — pigeonhole
    no-false-negatives, recount no-false-positives. The oracle is the
    plain exact count + threshold."""
    from .ops.sketch import misra_gries_heavy_hitters

    ds = _read(sf_dir, "documents", columns=["text"])
    return misra_gries_heavy_hitters(ds, k=100)


QUERIES["heavy_hitters"] = q_heavy_hitters
ORACLE_SQL["heavy_hitters"] = r"""
WITH toks AS (
    SELECT unnest(regexp_extract_all(lower(coalesce(text, '')), '\S+')) AS t
    FROM documents),
t2 AS (SELECT t FROM toks WHERE t <> ''),
n AS (SELECT count(*) AS n FROM t2),
c AS (SELECT t AS token, count(*) AS cnt FROM t2 GROUP BY t)
SELECT token, CAST(cnt AS BIGINT) AS cnt, CAST(n.n AS BIGINT) AS n_total
FROM c, n WHERE cnt * 100 > n.n
ORDER BY cnt DESC, token
"""


def q_kendall_tau(sf_dir: str) -> pd.DataFrame:
    """Kendall tau-a between the occurrence- and doc-frequency-weighted
    term-head rankings (:func:`ops.search.kendall_tau_milli` over
    :func:`ops.search.term_head_rankings`) — the pairwise-order
    companion to Q ``rank_overlap``, restricted to the common items,
    exact integer milli with magnitude truncation."""
    from .ops.search import kendall_tau_milli, term_head_rankings

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    rank_a, rank_b = term_head_rankings(ds, k=10)
    n, pairs, tau = kendall_tau_milli(rank_a, rank_b)
    return pd.DataFrame(
        {"n_common": [n], "n_pairs": [pairs], "tau_milli": [tau]}
    )


QUERIES["kendall_tau"] = q_kendall_tau
ORACLE_SQL["kendall_tau"] = r"""
WITH words AS (
    SELECT doc_id,
           unnest(regexp_extract_all(lower(coalesce(text, '')), '\S+')) AS w
    FROM documents),
occ AS (SELECT w, count(*) AS c FROM words WHERE w <> '' GROUP BY w),
docf AS (SELECT w, count(DISTINCT doc_id) AS c FROM words WHERE w <> ''
         GROUP BY w),
ra AS (SELECT w, row_number() OVER (ORDER BY c DESC, w) AS r FROM occ
       QUALIFY r <= 10),
rb AS (SELECT w, row_number() OVER (ORDER BY c DESC, w) AS r FROM docf
       QUALIFY r <= 10),
common AS (SELECT ra.w, ra.r AS r_a, rb.r AS r_b FROM ra JOIN rb USING (w)),
pairs AS (
    SELECT CASE WHEN (x.r_a < y.r_a) = (x.r_b < y.r_b)
           THEN 1 ELSE -1 END AS s
    FROM common x JOIN common y ON x.w < y.w),
agg AS (
    SELECT count(*) AS np,
           coalesce(sum(CASE WHEN s = 1 THEN 1 ELSE 0 END), 0)
               - coalesce(sum(CASE WHEN s = -1 THEN 1 ELSE 0 END), 0) AS num
    FROM pairs),
nc AS (SELECT count(*) AS n FROM common)
SELECT CAST(nc.n AS BIGINT) AS n_common,
       CAST(agg.np AS BIGINT) AS n_pairs,
       CAST(CASE WHEN agg.np = 0 THEN 0
                 WHEN agg.num >= 0 THEN 1000 * agg.num // agg.np
                 ELSE -(1000 * (-agg.num) // agg.np) END AS BIGINT)
           AS tau_milli
FROM agg, nc
"""


def q_source_rollup(sf_dir: str) -> pd.DataFrame:
    """Per-source curation dashboard (:func:`ops.profile.source_rollup`):
    doc/char totals, floor mean, exact distinct languages, majority
    language (ties → smallest) and its milli share — one (source,
    lang) groupby over pre-combined partials plus a segment rollup."""
    from .ops.profile import source_rollup

    ds = _read(sf_dir, "documents", columns=["source", "lang", "n_chars"])
    df = source_rollup(ds).to_pandas()
    return df.sort_values("source").reset_index(drop=True)


QUERIES["source_rollup"] = q_source_rollup
ORACLE_SQL["source_rollup"] = """
WITH base AS (
    SELECT source, lang, n_chars FROM documents
    WHERE source IS NOT NULL AND lang IS NOT NULL),
pairs AS (
    SELECT source, lang, count(*) AS n, sum(n_chars) AS chars
    FROM base GROUP BY 1, 2),
major AS (
    SELECT source, lang AS major_lang, n AS major_n FROM pairs
    QUALIFY row_number() OVER (PARTITION BY source
                               ORDER BY n DESC, lang) = 1),
tot AS (
    SELECT source, sum(n) AS n_docs, sum(chars) AS total_chars,
           count(*) AS n_langs
    FROM pairs GROUP BY 1)
SELECT tot.source,
       CAST(n_docs AS BIGINT) AS n_docs,
       CAST(total_chars AS BIGINT) AS total_chars,
       CAST(total_chars // n_docs AS BIGINT) AS mean_chars,
       CAST(n_langs AS BIGINT) AS n_langs,
       major.major_lang,
       CAST(1000 * major.major_n // n_docs AS BIGINT) AS major_milli
FROM tot JOIN major USING (source)
ORDER BY source
"""


def q_dup_size_histogram(sf_dir: str) -> pd.DataFrame:
    """Exact-duplicate cluster-size histogram over a corpus with
    planted duplicates (every doc_id % 4 == 0 doc re-appears with id
    +300000): :func:`ops.dedup.dup_size_histogram` — (hash, cnt) then
    (size, cnt) exchanges only, never text. The oracle groups by the
    text itself (hash ↔ text classes coincide)."""
    from .ops.dedup import dup_size_histogram

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = batch["doc_id"].combine_chunks()
        texts = batch["text"].combine_chunks()
        dup_mask = pc.equal(
            pc.bit_wise_and(ids, pa.scalar(3, pa.int64())),
            pa.scalar(0, pa.int64()),
        )
        dup_texts = texts.filter(dup_mask)
        return pa.Table.from_arrays(
            [pa.concat_arrays([texts, dup_texts])], names=["text"]
        )

    df = dup_size_histogram(
        ds.map_batches(plant, batch_format="pyarrow")
    ).to_pandas()
    return df.sort_values("cluster_size").reset_index(drop=True)


QUERIES["dup_size_histogram"] = q_dup_size_histogram
ORACLE_SQL["dup_size_histogram"] = """
WITH corpus AS (
    SELECT text FROM documents
    UNION ALL
    SELECT text FROM documents WHERE doc_id % 4 = 0),
cl AS (SELECT text, count(*) AS size FROM corpus GROUP BY text),
h AS (SELECT size AS cluster_size, count(*) AS n_clusters FROM cl
      GROUP BY size)
SELECT CAST(cluster_size AS BIGINT) AS cluster_size,
       CAST(n_clusters AS BIGINT) AS n_clusters,
       CAST(cluster_size * n_clusters AS BIGINT) AS n_docs
FROM h ORDER BY cluster_size
"""


def q_dup_rate_by_source(sf_dir: str) -> pd.DataFrame:
    """Per-source duplication rate over a planted-duplicate corpus
    (every doc_id % 4 == 0 doc re-appears under its own source):
    :func:`ops.dedup.dup_rate_by_source` — (source, hash) and
    (source) exchanges only, never text; floor-milli duplicate
    share."""
    from .ops.dedup import dup_rate_by_source

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].combine_chunks()
        src = batch["source"].combine_chunks()
        texts = batch["text"].combine_chunks()
        dup_mask = pc.equal(
            pc.bit_wise_and(ids, pa.scalar(3, pa.int64())),
            pa.scalar(0, pa.int64()),
        )
        return pa.Table.from_arrays(
            [
                pa.concat_arrays([src, src.filter(dup_mask)]),
                pa.concat_arrays([texts, texts.filter(dup_mask)]),
            ],
            names=["source", "text"],
        )

    df = dup_rate_by_source(
        ds.map_batches(plant, batch_format="pyarrow")
    ).to_pandas()
    return df.sort_values("source").reset_index(drop=True)


QUERIES["dup_rate_by_source"] = q_dup_rate_by_source
ORACLE_SQL["dup_rate_by_source"] = """
WITH corpus AS (
    SELECT source, text FROM documents
    UNION ALL
    SELECT source, text FROM documents WHERE doc_id % 4 = 0),
a AS (
    SELECT source, count(*) AS n_docs, count(DISTINCT text) AS n_unique
    FROM corpus WHERE source IS NOT NULL GROUP BY 1)
SELECT source,
       CAST(n_docs AS BIGINT) AS n_docs,
       CAST(n_unique AS BIGINT) AS n_unique,
       CAST(1000 * (n_docs - n_unique) // n_docs AS BIGINT) AS dup_milli
FROM a ORDER BY source
"""
