"""Host link-graph extraction from raw HTML payloads.

The link graph is a core product of any web-scale crawl pipeline
(PageRank-style quality priors, seed discovery, spam clustering). The
shape here is extraction-heavy and exchange-light: per-document href
scanning is a compiled-regex ``map_batches`` stage (HTML parsing is
inherently per-document, like the extract stage), edges pre-combine per
block via ``np.unique`` on composite keys, and the only exchange is one
``groupby(src_host, dst_host).sum`` over host-pair rows — host-pair
cardinality, never link cardinality.

Resolution rules (documented, deterministic):

- ``http://``/``https://`` hrefs → target host via
  :func:`..ops.urls.host_of` (lowercased, default ports stripped).
- scheme-relative ``//host/...`` → that host.
- every other non-skipped href (rooted or relative path) → the SOURCE
  page's host.
- ``mailto:``/``javascript:``/``tel:``/``data:`` and pure-fragment
  (``#...``) hrefs are skipped.

``domain_level="registered"`` collapses hosts to registered domains
(:func:`..ops.urls.registered_domain`) for the domain-level graph.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from .urls import host_of, registered_domain

_HREF_RE = re.compile(r"""href\s*=\s*["']([^"'<>]+)["']""", re.IGNORECASE)
_SKIP = ("mailto:", "javascript:", "tel:", "data:")


def _resolve_host(href: str, src_host: str) -> str | None:
    href = href.strip()
    if not href or href.startswith("#"):
        return None
    low = href.lower()
    if low.startswith(_SKIP):
        return None
    if low.startswith(("http://", "https://")):
        return host_of(href)
    if href.startswith("//"):
        return host_of("http:" + href)
    return src_host  # rooted or relative path: same host


def extract_edges_batch(
    batch: pa.Table,
    html_col: str = "html",
    url_col: str = "url",
    domain_level: str = "host",
) -> pa.Table:
    """Per-block ``(src_host, dst_host, cnt)`` partials (pre-combined)."""
    htmls = batch[html_col]
    urls = batch[url_col].to_pylist()
    keys: list[str] = []
    for i in range(len(batch)):
        payload = htmls[i].as_py()
        src = host_of(urls[i] or "")
        if payload is None or not src:
            continue
        text = (
            payload.decode("utf-8", errors="replace")
            if isinstance(payload, (bytes, bytearray))
            else str(payload)
        )
        for href in _HREF_RE.findall(text):
            dst = _resolve_host(href, src)
            if not dst:
                continue
            if domain_level == "registered":
                s, d = registered_domain(src), registered_domain(dst)
            else:
                s, d = src, dst
            keys.append(f"{s}\x00{d}")
    if not keys:
        return pa.Table.from_arrays(
            [
                pa.array([], pa.string()),
                pa.array([], pa.string()),
                pa.array([], pa.int64()),
            ],
            names=["src_host", "dst_host", "cnt"],
        )
    u, c = np.unique(np.array(keys, dtype=object), return_counts=True)
    pairs = [k.split("\x00", 1) for k in u]
    return pa.Table.from_arrays(
        [
            pa.array([p[0] for p in pairs], pa.string()),
            pa.array([p[1] for p in pairs], pa.string()),
            pa.array(c, pa.int64()),
        ],
        names=["src_host", "dst_host", "cnt"],
    )


def link_graph(
    ds,
    html_col: str = "html",
    url_col: str = "url",
    domain_level: str = "host",
):
    """Dataset of ``(src_host, dst_host, n_links)`` edges over the corpus."""
    import functools

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(
            functools.partial(
                extract_edges_batch,
                html_col=html_col,
                url_col=url_col,
                domain_level=domain_level,
            ),
            batch_format="pyarrow",
        )
        .groupby(["src_host", "dst_host"])
        .aggregate(Sum("cnt", alias_name="n_links"))
    )


def pagerank(
    edges,
    num_iters: int = 3,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    weight_col: str = "n_links",
    scale: int = 10**12,
    damping_pct: int = 85,
    node_broadcast_cap: int = 100_000,
    seeds: list[str] | None = None,
):
    """Fixed-point PageRank over a weighted edge Dataset — the classic
    iterative link-quality prior, expressed as ``num_iters`` rounds of
    the SAME exchange shape (one sorted-lookup join + one groupby-sum),
    with nodes and edges never landing on the driver.

    Arithmetic is INTEGER fixed-point at ``scale`` (rank mass ``R``,
    damping as a percentage): per round every edge contributes
    ``(damping_pct · R(src) · w) // (100 · outdeg(src))`` (floor), and
    ``R'(node) = (100−damping_pct)·scale // (100·N) + Σ contrib``.
    Integer sums are order-independent, so the result is bit-exact at
    every block layout AND bit-exactly replicable in SQL (``//`` floor
    division) — no float summation-order hazard. Dangling mass
    evaporates (no redistribution) — the documented, SQL-mirrored
    variant; rank totals then sum below ``scale``.

    Returns a Dataset of ``(host, rank)`` (int64 fixed-point).

    Regimes (size-gated like every op here): at ``n_nodes ≤
    node_broadcast_cap`` the rank/outdeg tables broadcast into one
    ``map_batches`` pass over the edges per iteration (per-block contrib
    partials, driver merge bounded by nodes × blocks — zero exchanges);
    above the cap each iteration is one sorted-lookup join + one
    groupby-sum, nothing node- or edge-sized on the driver. Both regimes
    are bit-identical (integer arithmetic; equivalence-tested).

    ``seeds`` turns the computation into TRUSTRANK (Gyöngyi et al.
    2004): teleport mass and the initial rank concentrate uniformly on
    the seed set (``(100−d)·scale // (100·|S|)`` / ``scale // |S|`` for
    seed nodes, 0 elsewhere) instead of spreading over all nodes —
    trust flows out from the whitelist along links. The seed list is a
    whitelist (small by construction) and broadcasts into both regimes;
    seeds absent from the graph waste their mass (documented, mirrored
    by the SQL oracle). Default ``None`` is classic PageRank.
    """
    import functools

    from ray.data.aggregate import Sum

    from .segments import attach_lookup, sever_lineage

    def emit_nodes(batch: pa.Table) -> pa.Table:
        hs = np.concatenate(
            [
                batch[src_col].to_numpy(zero_copy_only=False),
                batch[dst_col].to_numpy(zero_copy_only=False),
            ]
        )
        return pa.Table.from_arrays(
            [pa.array(np.unique(hs.astype(str)).astype(object), pa.string())],
            names=["host"],
        )

    from ray.data.aggregate import Count

    nodes = (
        edges.map_batches(emit_nodes, batch_format="pyarrow")
        .groupby("host")
        .aggregate(Count(alias_name="_c"))
        .map_batches(lambda b: b.select(["host"]), batch_format="pyarrow")
    )
    n_nodes = nodes.count()
    if n_nodes == 0:
        return nodes.map_batches(
            lambda b: b.append_column("rank", pa.array([], pa.int64())),
            batch_format="pyarrow",
        )
    seed_set = sorted(set(seeds)) if seeds else None
    if seed_set:
        teleport = ((100 - damping_pct) * scale) // (100 * len(seed_set))
        r0 = scale // len(seed_set)
    else:
        teleport = ((100 - damping_pct) * scale) // (100 * n_nodes)
        r0 = scale // n_nodes

    if n_nodes <= node_broadcast_cap:
        return _pagerank_broadcast(
            edges, num_iters, src_col, dst_col, weight_col,
            r0, teleport, damping_pct, n_nodes, seed_set,
        )

    outdeg = (
        edges.groupby(src_col)
        .aggregate(Sum(weight_col, alias_name="outdeg"))
        .map_batches(
            lambda b: b.rename_columns(["host", "outdeg"]), batch_format="pyarrow"
        )
    )

    # ranks: (host, rank); uniform, or seed-concentrated for TrustRank.
    seed_np = (
        np.asarray(seed_set, dtype=object) if seed_set is not None else None
    )

    def _per_node(b: pa.Table, amount: int) -> np.ndarray:
        if seed_np is None:
            return np.full(len(b), amount, np.int64)
        hs = np.asarray(b["host"].to_pylist(), dtype=object)
        return np.where(np.isin(hs, seed_np), amount, 0).astype(np.int64)

    ranks = nodes.map_batches(
        lambda b: b.append_column(
            "rank", pa.array(_per_node(b, r0), pa.int64())
        ),
        batch_format="pyarrow",
    )

    def edge_contrib(batch: pa.Table, dp: int) -> pa.Table:
        # (dst, contrib) rows; Python ints avoid int64 overflow in
        # dp·R·w (≤ 85 · 10^12 · w — may exceed 2^63 for hot edges).
        r = batch["rank"].to_numpy(zero_copy_only=False)
        w = batch[weight_col].to_numpy(zero_copy_only=False)
        od = batch["outdeg"].to_numpy(zero_copy_only=False)
        contrib = [
            (dp * int(ri) * int(wi)) // (100 * int(oi))
            for ri, wi, oi in zip(r, w, od)
        ]
        return pa.Table.from_arrays(
            [batch[dst_col], pa.array(contrib, pa.int64())],
            names=["host", "contrib"],
        )

    for _ in range(num_iters):
        # rank + outdeg attach onto edges by src: ONE sorted-lookup
        # exchange (keys unique per table by construction).
        state = attach_lookup(
            ranks, outdeg, key_col="host", val_cols=["outdeg"], carry_cols=["rank"]
        )
        carrying = attach_lookup(
            edges.map_batches(
                lambda b: b.select([src_col, dst_col, weight_col]),
                batch_format="pyarrow",
            ),
            state.map_batches(
                lambda b: b.rename_columns([src_col, "rank", "outdeg"]),
                batch_format="pyarrow",
            ),
            key_col=src_col,
            val_cols=["rank", "outdeg"],
            carry_cols=[dst_col, weight_col],
        )
        contribs = carrying.map_batches(
            functools.partial(edge_contrib, dp=damping_pct),
            batch_format="pyarrow",
        )
        # Σ contrib per node over the FULL node table: union zero rows so
        # in-link-less nodes keep their teleport mass.
        zeros = nodes.map_batches(
            lambda b: b.append_column(
                "contrib", pa.array(np.zeros(len(b), np.int64), pa.int64())
            ),
            batch_format="pyarrow",
        )
        ranks = (
            contribs.union(zeros)
            .groupby("host")
            .aggregate(Sum("contrib", alias_name="inflow"))
            .map_batches(
                lambda b: pa.Table.from_arrays(
                    [
                        b["host"],
                        pa.array(
                            b["inflow"].to_numpy(zero_copy_only=False)
                            + _per_node(b, teleport),
                            pa.int64(),
                        ),
                    ],
                    names=["host", "rank"],
                ),
                batch_format="pyarrow",
            )
        )
        # Single-ref per iteration (linear plan growth) but long
        # num_iters runs still accrete: sever keeps each pass O(1).
        ranks = sever_lineage(ranks)
    return ranks


_I64_MAX = np.iinfo(np.int64).max


def _fold_partials(batches, nodes_sorted: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """Fold ``(host, <int64>)`` partial batches into ``acc`` (aligned to
    ``nodes_sorted``) via searchsorted + ``np.add.at`` — the vectorized
    replacement for the per-row dict fold. Overflow-sound: per-cell sums
    are bounded by Σ_b max(batch_b) + max(init), tracked as exact Python
    ints; if that bound threatens int64 the fold redoes itself in object
    dtype (exact big ints) so behavior matches the old Python-int path —
    a later ``pa.array(..., int64)`` raises instead of silently wrapping."""
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    bound = int(acc.max()) if acc.size else 0
    for b in batches:
        h = b.column(0).to_numpy(zero_copy_only=False).astype(str)
        c = b.column(1).to_numpy(zero_copy_only=False)
        if not len(h):
            continue
        kept.append((h, c))
        bound += max(0, int(c.max()))
    if bound <= _I64_MAX:
        for h, c in kept:
            np.add.at(acc, np.searchsorted(nodes_sorted, h), c)
        return acc
    big = acc.astype(object)
    for h, c in kept:
        np.add.at(big, np.searchsorted(nodes_sorted, h), c.astype(object))
    return big


def _sum_by_index(idx: np.ndarray, contrib: np.ndarray, size: int) -> np.ndarray:
    """``np.add.at`` of ``contrib`` into ``size`` cells with no int64 wrap.
    The int64 path runs only when ``len × max|contrib|`` bounds every cell
    sum within int64; otherwise the sums are exact Python ints (object
    dtype), so a later ``pa.array(..., int64)`` raises instead of wrapping."""
    if contrib.dtype != object and (
        not len(contrib)
        or len(contrib) * max(int(contrib.max()), -int(contrib.min())) <= _I64_MAX
    ):
        sums = np.zeros(size, np.int64)
    else:
        sums = np.zeros(size, object)
        contrib = contrib.astype(object)
    np.add.at(sums, idx, contrib)
    return sums


def _pagerank_broadcast(
    edges, num_iters, src_col, dst_col, weight_col,
    r0, teleport, dp, n_nodes, seed_set=None,
):
    """Small-node-table PageRank regime: outdeg and ranks broadcast via
    ``ray.put`` once per iteration as sorted numpy arrays; each pass
    emits PER-BLOCK contrib partials (pre-combined per dst via
    ``np.unique`` + ``np.add.at``), so driver traffic per iteration is
    O(blocks × nodes) pre-aggregated rows and the edges only stream.
    Fully vectorized: per-edge string work is eliminated by Arrow
    ``dictionary_encode`` (hash kernel at per-batch-unique-host
    cardinality, measured ~12× over the old per-edge dict loop), rank /
    outdeg gather is a searchsorted on the small dictionary; the
    exact-big-int loop survives only as the guarded overflow fallback,
    keeping results bit-identical to the exchange regime."""
    import pyarrow.compute as pc
    import ray

    def outdeg_partial(batch: pa.Table) -> pa.Table:
        w = batch[weight_col].to_numpy(zero_copy_only=False)
        enc = pc.dictionary_encode(batch[src_col].combine_chunks())
        idx = enc.indices.to_numpy(zero_copy_only=False)
        sums = np.zeros(len(enc.dictionary), np.int64)
        np.add.at(sums, idx, w)
        return pa.Table.from_arrays(
            [enc.dictionary, pa.array(sums, pa.int64())],
            names=["host", "od"],
        )

    od_hosts_parts: list[np.ndarray] = []
    od_vals_parts: list[np.ndarray] = []
    for b in edges.map_batches(outdeg_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        od_hosts_parts.append(b["host"].to_numpy(zero_copy_only=False).astype(str))
        od_vals_parts.append(b["od"].to_numpy(zero_copy_only=False))
    # dst-only nodes: one pruned pass over the dst column.
    dst_parts: list[np.ndarray] = []
    for b in edges.map_batches(
        lambda t: pa.Table.from_arrays(
            [pc.unique(t[dst_col].combine_chunks())], names=["host"]
        ),
        batch_format="pyarrow",
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        dst_parts.append(b["host"].to_numpy(zero_copy_only=False).astype(str))

    hcat = (
        np.concatenate(od_hosts_parts)
        if od_hosts_parts
        else np.array([], dtype=str)
    )
    nodes_sorted = np.unique(np.concatenate([hcat] + dst_parts)) if (
        len(hcat) or dst_parts
    ) else np.array([], dtype=str)
    # outdeg aligned to nodes_sorted (0 for dst-only nodes; never read
    # for them — every gathered src appeared in outdeg_partial).
    od_full = np.zeros(len(nodes_sorted), np.int64)
    if len(hcat):
        oh, inv = np.unique(hcat, return_inverse=True)
        ov = np.zeros(len(oh), np.int64)
        np.add.at(ov, inv, np.concatenate(od_vals_parts))
        od_full[np.searchsorted(nodes_sorted, oh)] = ov

    if seed_set is not None:
        in_seed = np.isin(
            nodes_sorted, np.asarray(sorted(seed_set), dtype=str)
        )
    else:
        in_seed = np.ones(len(nodes_sorted), bool)

    ranks = np.where(in_seed, r0, 0).astype(np.int64)
    for _ in range(num_iters):
        state_ref = ray.put((nodes_sorted, ranks, od_full))

        def contrib_partial(batch: pa.Table, ref=state_ref) -> pa.Table:
            hosts, rk, od = ray.get(ref)
            n = batch.num_rows
            w = batch[weight_col].to_numpy(zero_copy_only=False)
            senc = pc.dictionary_encode(batch[src_col].combine_chunks())
            s_pos = np.searchsorted(
                hosts,
                senc.dictionary.to_numpy(zero_copy_only=False).astype(str),
            )
            s_idx = senc.indices.to_numpy(zero_copy_only=False)
            rs = rk[s_pos][s_idx] if n else np.zeros(0, np.int64)
            os_ = od[s_pos][s_idx] if n else np.ones(0, np.int64)
            if n and (
                dp * int(rs.max()) * int(w.max()) <= _I64_MAX
                and 100 * int(os_.max()) <= _I64_MAX
            ):
                contrib = (dp * rs * w) // (100 * os_)
            else:  # exact big-int fallback (hot-edge overflow guard)
                contrib = np.fromiter(
                    (
                        (dp * int(a) * int(b)) // (100 * int(c))
                        for a, b, c in zip(rs, w, os_)
                    ),
                    np.int64,
                    n,
                )
            denc = pc.dictionary_encode(batch[dst_col].combine_chunks())
            sums = _sum_by_index(
                denc.indices.to_numpy(zero_copy_only=False),
                contrib,
                len(denc.dictionary),
            )
            return pa.Table.from_arrays(
                [denc.dictionary, pa.array(sums, pa.int64())],
                names=["host", "contrib"],
            )

        nxt = np.where(in_seed, teleport, 0).astype(np.int64)
        ranks = _fold_partials(
            edges.map_batches(
                contrib_partial, batch_format="pyarrow"
            ).iter_batches(batch_format="pyarrow", batch_size=None),
            nodes_sorted,
            nxt,
        )

    import ray.data as rd

    return rd.from_arrow(
        pa.Table.from_arrays(
            [
                pa.array(nodes_sorted.astype(object), pa.string()),
                pa.array(ranks, pa.int64()),
            ],
            names=["host", "rank"],
        )
    )


def hits_scores(
    edges,
    num_iters: int = 2,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    weight_col: str = "n_links",
    node_broadcast_cap: int = 100_000,
):
    """Integer HITS (Kleinberg's hubs-and-authorities) over a weighted
    edge Dataset, as exact weighted PATH COUNTS: every node starts with
    hub ``h₀ = 1``; each round computes ``auth(v) = Σ_{(u,v)∈E} w·h(u)``
    then ``hub(u) = Σ_{(u,v)∈E} w·auth(v)``. The classic algorithm's
    per-round L2 normalization is a positive scalar, so dropping it
    preserves all rankings while making every score an exact integer —
    order-independent sums → bit-exact at any block layout AND bit-exact
    in SQL (the oracle unrolls the rounds as chained CTEs), the same
    fixed-point discipline as :func:`pagerank`.

    Regimes (size-gated): at ``n_nodes ≤ node_broadcast_cap`` the hub /
    authority vectors broadcast via ``ray.put`` once per half-round and
    each pass emits per-block pre-combined partials (edges only stream;
    driver traffic is O(blocks × nodes) aggregated rows). Above the cap
    each half-round is one sorted-lookup attach + one groupby-sum —
    exactly PageRank's exchange shape, nothing node- or edge-sized on
    the driver. Both regimes are bit-identical (equivalence-tested).

    Overflow bound: scores grow like (max weighted degree)^(2·iters);
    with the default ``num_iters=2`` int64 holds for weighted degrees up
    to ~55k. Callers with hotter graphs lower ``num_iters`` or pre-cap
    weights.

    Returns a Dataset of ``(host, authority, hub)`` (int64).
    """
    import functools

    from ray.data.aggregate import Count, Sum

    from .segments import attach_lookup, sever_lineage

    def emit_nodes(batch: pa.Table) -> pa.Table:
        hs = np.concatenate(
            [
                batch[src_col].to_numpy(zero_copy_only=False),
                batch[dst_col].to_numpy(zero_copy_only=False),
            ]
        )
        return pa.Table.from_arrays(
            [pa.array(np.unique(hs.astype(str)).astype(object), pa.string())],
            names=["host"],
        )

    nodes = (
        edges.map_batches(emit_nodes, batch_format="pyarrow")
        .groupby("host")
        .aggregate(Count(alias_name="_c"))
        .map_batches(lambda b: b.select(["host"]), batch_format="pyarrow")
    )
    n_nodes = nodes.count()
    if n_nodes == 0:
        return nodes.map_batches(
            lambda b: b.append_column(
                "authority", pa.array([], pa.int64())
            ).append_column("hub", pa.array([], pa.int64())),
            batch_format="pyarrow",
        )

    if n_nodes <= node_broadcast_cap:
        return _hits_broadcast(
            edges, num_iters, src_col, dst_col, weight_col
        )

    # Exchange regime: per half-round, attach the current vector onto the
    # edges by its endpoint (sorted-lookup join), multiply by the edge
    # weight, and groupby-sum onto the other endpoint. Zero rows union in
    # so isolated-side nodes keep score 0.
    hub = nodes.map_batches(
        lambda b: b.append_column(
            "score", pa.array(np.ones(len(b), np.int64), pa.int64())
        ),
        batch_format="pyarrow",
    )
    auth = None

    def edge_mul(batch: pa.Table, out_key: str) -> pa.Table:
        w = batch[weight_col].to_numpy(zero_copy_only=False)
        s = batch["score"].to_numpy(zero_copy_only=False)
        contrib = [int(wi) * int(si) for wi, si in zip(w, s)]
        return pa.Table.from_arrays(
            [batch[out_key], pa.array(contrib, pa.int64())],
            names=["host", "contrib"],
        )

    zeros = nodes.map_batches(
        lambda b: b.append_column(
            "contrib", pa.array(np.zeros(len(b), np.int64), pa.int64())
        ),
        batch_format="pyarrow",
    )

    def half_round(vec, attach_key, emit_key):
        carrying = attach_lookup(
            edges.map_batches(
                lambda b: b.select([src_col, dst_col, weight_col]),
                batch_format="pyarrow",
            ),
            vec.map_batches(
                lambda b, k=attach_key: b.rename_columns([k, "score"]),
                batch_format="pyarrow",
            ),
            key_col=attach_key,
            val_cols=["score"],
            carry_cols=[emit_key, weight_col],
        )
        return (
            carrying.map_batches(
                functools.partial(edge_mul, out_key=emit_key),
                batch_format="pyarrow",
            )
            .union(zeros)
            .groupby("host")
            .aggregate(Sum("contrib", alias_name="score"))
        )

    for _ in range(num_iters):
        auth = sever_lineage(half_round(hub, src_col, dst_col))
        hub = sever_lineage(half_round(auth, dst_col, src_col))

    merged = attach_lookup(
        auth.map_batches(
            lambda b: b.rename_columns(["host", "authority"]),
            batch_format="pyarrow",
        ),
        hub.map_batches(
            lambda b: b.rename_columns(["host", "hub"]), batch_format="pyarrow"
        ),
        key_col="host",
        val_cols=["hub"],
        carry_cols=["authority"],
    )
    return merged


def _hits_broadcast(edges, num_iters, src_col, dst_col, weight_col):
    """Small-node-table HITS regime: the hub/auth vector broadcasts via
    ``ray.put`` per half-round as (sorted hosts, scores) arrays;
    per-block pre-combined contrib partials stream back (same
    vectorized discipline as :func:`_pagerank_broadcast` — searchsorted
    gather, ``np.unique`` + ``np.add.at`` combine, guarded big-int
    fallback so declared int64 overflow still raises instead of
    wrapping)."""
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    node_parts: list[np.ndarray] = []
    for b in edges.map_batches(
        lambda t: pa.Table.from_arrays(
            [
                pc.unique(
                    pa.chunked_array(
                        [t[src_col].combine_chunks(), t[dst_col].combine_chunks()]
                    )
                )
            ],
            names=["host"],
        ),
        batch_format="pyarrow",
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        node_parts.append(b["host"].to_numpy(zero_copy_only=False).astype(str))
    nodes_sorted = (
        np.unique(np.concatenate(node_parts))
        if node_parts
        else np.array([], dtype=str)
    )

    def propagate(vec: np.ndarray, in_key: str, out_key: str) -> np.ndarray:
        ref = ray.put((nodes_sorted, vec))

        def contrib_partial(batch: pa.Table, ref=ref) -> pa.Table:
            hosts, v = ray.get(ref)
            n = batch.num_rows
            w = batch[weight_col].to_numpy(zero_copy_only=False)
            senc = pc.dictionary_encode(batch[in_key].combine_chunks())
            s_pos = np.searchsorted(
                hosts,
                senc.dictionary.to_numpy(zero_copy_only=False).astype(str),
            )
            s_idx = senc.indices.to_numpy(zero_copy_only=False)
            vs = v[s_pos][s_idx] if n else np.zeros(0, np.int64)
            if n and int(vs.max()) * int(w.max()) <= _I64_MAX:
                contrib = w * vs
            else:  # exact big-int fallback (hot-edge overflow guard)
                contrib = np.array(
                    [int(a) * int(b) for a, b in zip(w, vs)], dtype=object
                )
            denc = pc.dictionary_encode(batch[out_key].combine_chunks())
            sums = _sum_by_index(
                denc.indices.to_numpy(zero_copy_only=False),
                contrib,
                len(denc.dictionary),
            )
            return pa.Table.from_arrays(
                [denc.dictionary, pa.array(sums, pa.int64())],
                names=["host", "contrib"],
            )

        return _fold_partials(
            edges.map_batches(
                contrib_partial, batch_format="pyarrow"
            ).iter_batches(batch_format="pyarrow", batch_size=None),
            nodes_sorted,
            np.zeros(len(nodes_sorted), np.int64),
        )

    hub = np.ones(len(nodes_sorted), np.int64)
    auth = np.zeros(len(nodes_sorted), np.int64)
    for _ in range(num_iters):
        auth = propagate(hub, src_col, dst_col)
        hub = propagate(auth, dst_col, src_col)

    return rd.from_arrow(
        pa.Table.from_arrays(
            [
                pa.array(nodes_sorted.astype(object), pa.string()),
                pa.array(auth, pa.int64()),
                pa.array(hub, pa.int64()),
            ],
            names=["host", "authority", "hub"],
        )
    )


# ---------------------------------------------------------------------------
# Anchor-text index (inbound link text per target url)
# ---------------------------------------------------------------------------

_ANCHOR_RE = re.compile(
    r"""<a\s[^>]*?href\s*=\s*["']([^"'<>]+)["'][^>]*>(.*?)</a>""",
    re.IGNORECASE | re.DOTALL,
)
_TAG_RE = re.compile(r"<[^>]+>")


def _resolve_url(href: str, src_host: str) -> str | None:
    """Full-url anchor-target resolution (host rules as _resolve_host;
    rooted/relative paths resolve under https on the source host)."""
    href = href.strip()
    if not href or href.startswith("#"):
        return None
    low = href.lower()
    if low.startswith(_SKIP):
        return None
    if low.startswith(("http://", "https://")):
        return href
    if href.startswith("//"):
        return "https:" + href
    if href.startswith("/"):
        return f"https://{src_host}{href}"
    return f"https://{src_host}/{href}"


def extract_anchors_batch(
    batch: pa.Table, html_col: str = "html", url_col: str = "url"
) -> pa.Table:
    """Per-block ``(dst_url, anchor, cnt)`` partials: anchor text with
    inner tags stripped and whitespace collapsed, pre-combined via
    ``np.unique`` on composite keys (same shape as extract_edges_batch)."""
    htmls = batch[html_col]
    urls = batch[url_col].to_pylist()
    keys: list[str] = []
    for i in range(len(batch)):
        payload = htmls[i].as_py()
        src = host_of(urls[i] or "")
        if payload is None or not src:
            continue
        text = (
            payload.decode("utf-8", errors="replace")
            if isinstance(payload, (bytes, bytearray))
            else str(payload)
        )
        for href, inner in _ANCHOR_RE.findall(text):
            dst = _resolve_url(href, src)
            if not dst:
                continue
            anchor = " ".join(_TAG_RE.sub(" ", inner).split())
            if anchor:
                keys.append(f"{dst}\x00{anchor}")
    empty = pa.Table.from_arrays(
        [pa.array([], pa.string()), pa.array([], pa.string()),
         pa.array([], pa.int64())],
        names=["dst_url", "anchor", "cnt"],
    )
    if not keys:
        return empty
    u, c = np.unique(np.array(keys, dtype=object), return_counts=True)
    pairs = [k.split("\x00", 1) for k in u]
    return pa.Table.from_arrays(
        [
            pa.array([p[0] for p in pairs], pa.string()),
            pa.array([p[1] for p in pairs], pa.string()),
            pa.array(c, pa.int64()),
        ],
        names=["dst_url", "anchor", "cnt"],
    )


def anchor_topk(ds, k: int = 3, html_col: str = "html", url_col: str = "url"):
    """Per-target inbound anchor-text top-k: for every linked url, the
    ``k`` most frequent anchor strings (tiebreak anchor asc) with counts
    and ranks.

    Exchange shape: anchors pre-combine per block (extract stage), one
    ``groupby(dst_url, anchor).sum`` over distinct-pair rows, then ONE
    sort with a vectorized per-segment head-gather
    (:func:`..ops.segments.sorted_segment_apply`) — target cardinality is
    unbounded, so the finish must be segment-local, never a driver merge
    keyed by target."""
    from .segments import sorted_segment_apply

    counts = (
        ds.map_batches(
            lambda b: extract_anchors_batch(b, html_col, url_col),
            batch_format="pyarrow",
        )
        .groupby(["dst_url", "anchor"])
        .sum("cnt")
    )

    def head_kernel(batch: pa.Table, starts: np.ndarray, ends: np.ndarray) -> pa.Table:
        if len(starts) == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.string()),
                 pa.array([], pa.int64()), pa.array([], pa.int32())],
                names=["dst_url", "anchor", "cnt", "rank"],
            )
        starts = starts.astype(np.int64)
        take = np.minimum(ends.astype(np.int64) - starts, k)
        gstarts = np.cumsum(take) - take
        total = int(take.sum())
        within = np.arange(total, dtype=np.int64) - np.repeat(gstarts, take)
        idx = np.repeat(starts, take) + within
        return pa.Table.from_arrays(
            [
                batch["dst_url"].take(pa.array(idx)),
                batch["anchor"].take(pa.array(idx)),
                batch["sum(cnt)"].take(pa.array(idx)).cast(pa.int64()),
                pa.array((within + 1).astype(np.int32)),
            ],
            names=["dst_url", "anchor", "cnt", "rank"],
        )

    return sorted_segment_apply(
        counts,
        "dst_url",
        head_kernel,
        within_cols=["sum(cnt)", "anchor"],
        descending=[True, False],
    )


def bfs_depth(edges_ds, seeds: list, max_rounds: int = 8,
              src_col: str = "src_host", dst_col: str = "dst_host",
              rounds: int | None = None):
    """Crawl-depth BFS from seed hosts over a DIRECTED edge Dataset:
    → Dataset of ``(node, depth)`` for every reachable node (unreached
    nodes emit nothing).

    Each round is the distributed relaxation ``depth(dst) =
    min(depth(dst), depth(src) + 1)`` expressed as one
    :func:`..ops.segments.attach_lookup` (edges keyed by src gather the
    current src depths — edges whose src is still unreached drop, which
    IS the frontier) + one ``groupby(node).min``. Convergence = the
    (count, sum) fixpoint of the depth table, checked from per-block
    partials (O(blocks) driver rows/round). Rounds cost fixed Ray-job
    latency, so diameter-D graphs pay D+1 rounds — at web diameters
    (~20 for host graphs) this is the honest cost; pointer-jumping
    doesn't apply because depths are path lengths, not labels. Pass
    ``rounds`` to run exactly that many relaxations with NO convergence
    probes (correct when rounds ≥ graph depth; saves one tiny job per
    round of fixed latency)."""
    import ray.data as rd
    from ray.data.aggregate import Min

    from .segments import attach_lookup, sever_lineage

    dist = rd.from_arrow(
        pa.Table.from_arrays(
            [
                pa.array([str(s) for s in seeds], pa.string()),
                pa.array(np.zeros(len(seeds), np.int64)),
            ],
            names=["node", "depth"],
        )
    ).materialize()

    edges_keyed = edges_ds.map_batches(
        lambda b: pa.Table.from_arrays(
            [b[src_col], b[dst_col]], names=["node", "dst"]
        ),
        batch_format="pyarrow",
    ).materialize()

    def table_stats(ds) -> tuple[int, int]:
        def partial(t: pa.Table) -> pa.Table:
            d = t["depth"].to_numpy(zero_copy_only=False)
            return pa.Table.from_arrays(
                [pa.array([len(d)], pa.int64()), pa.array([int(d.sum())], pa.int64())],
                names=["n", "s"],
            )

        parts = ds.map_batches(
            partial, batch_format="pyarrow", batch_size=None
        ).take_all()
        return sum(r["n"] for r in parts), sum(r["s"] for r in parts)

    prev = table_stats(dist) if rounds is None else None
    for _ in range(rounds if rounds is not None else max_rounds):
        msgs = attach_lookup(
            edges_keyed, dist, key_col="node", val_cols=["depth"],
            carry_cols=["dst"],
        ).map_batches(
            lambda t: pa.Table.from_arrays(
                [
                    t["dst"],
                    pa.compute.add(t["depth"], pa.scalar(1, pa.int64())),
                ],
                names=["node", "depth"],
            ),
            batch_format="pyarrow",
        )
        # Loop-carried: cap blocks + drop plan history (see sever_lineage).
        dist = sever_lineage(
            dist.union(msgs)
            .groupby("node")
            .aggregate(Min("depth", alias_name="depth")),
            num_blocks=edges_keyed.num_blocks(),
        )
        if rounds is None:
            cur = table_stats(dist)
            if cur == prev:
                break
            prev = cur
    return dist


def resolve_redirects(
    edges_ds,
    src_col: str = "src",
    dst_col: str = "dst",
    max_rounds: int = 16,
    driver_edge_cap: int = 2_000_000,
):
    """Resolve HTTP-redirect chains to their terminal targets: an edge
    Dataset of ``(src, dst)`` single-hop redirects → Dataset of
    ``(src, final, hops)`` for every source url, where ``final`` is the
    first node with no outgoing redirect and ``hops`` the chain length.

    Assumption (asserted by construction, like any crawl frontier): each
    ``src`` has at most ONE outgoing redirect — the relation is a
    functional pointer table, which is what makes pointer DOUBLING
    applicable (unlike :func:`bfs_depth`, whose depths are path minima).

    Regimes, size-gated like the connected-components driver gate
    (``ops/dedup.py``):

    - ``count ≤ driver_edge_cap``: collect the (src, dst) pairs — 2
      string columns, never payloads — and walk the pointer dict on the
      driver.  Redirect tables are a small fraction of a crawl (every
      row is one 3xx response), so this is the common case.
    - above the cap: distributed pointer doubling.  State ``P(node) =
      (cur, hops)`` starts as the edge table with ``hops=1``; each round
      rebuilds the lookup side ``L = P ∪ {terminal → itself, +0}`` and
      advances ``P(node) → (L[cur].next, hops + L[cur].add)`` via ONE
      :func:`..ops.segments.attach_lookup` sort join.  After r rounds
      every chain of length ≤ 2^r is resolved, so a max-length-M chain
      costs ceil(log2 M)+1 exchanges over 3-column rows.  Convergence is
      the (count, sum(hops)) fixpoint from per-block partials.

    Cycles (redirect loops) never reach a terminal: the driver walk
    detects them exactly; the distributed regime raises after
    ``max_rounds`` non-converged rounds.  Both raise ``ValueError`` —
    a crawler treats a redirect loop as a fetch error, not data.
    """
    import ray.data as rd

    from .segments import attach_lookup, sever_lineage

    n_edges = edges_ds.count()
    if n_edges <= driver_edge_cap:
        pairs = edges_ds.select_columns([src_col, dst_col]).take_all()
        nxt = {}
        for r in pairs:
            s = r[src_col]
            if s in nxt:
                raise ValueError(f"duplicate redirect source: {s!r}")
            nxt[s] = r[dst_col]
        # memoized walk: resolved[x] = (final, hops from x)
        resolved: dict = {}
        for start in nxt:
            path = []
            onpath = set()
            x = start
            while x in nxt and x not in resolved:
                if x in onpath:
                    raise ValueError(f"redirect cycle through {x!r}")
                path.append(x)
                onpath.add(x)
                x = nxt[x]
            base_final, base_hops = resolved.get(x, (x, 0))
            for i, p in enumerate(reversed(path), start=1):
                resolved[p] = (base_final, base_hops + i)
        srcs = sorted(nxt)
        return rd.from_arrow(
            pa.Table.from_arrays(
                [
                    pa.array(srcs, pa.string()),
                    pa.array([resolved[s][0] for s in srcs], pa.string()),
                    pa.array(
                        [resolved[s][1] for s in srcs], pa.int64()
                    ),
                ],
                names=["src", "final", "hops"],
            )
        )

    # --- distributed pointer doubling ---
    P = edges_ds.map_batches(
        lambda b: pa.Table.from_arrays(
            [
                b[src_col].cast(pa.string()),
                b[dst_col].cast(pa.string()),
                pa.array(np.ones(b.num_rows, np.int64)),
            ],
            names=["node", "cur", "hops"],
        ),
        batch_format="pyarrow",
    ).materialize()

    # terminals: distinct dst values with no outgoing edge — one
    # (value)-only exchange + an anti sort-join against the sources.
    distinct_cur = (
        P.map_batches(
            lambda t: pa.Table.from_arrays(
                [pa.compute.unique(t["cur"])], names=["cur"]
            ),
            batch_format="pyarrow",
        )
        .groupby("cur")
        .count()
        .select_columns(["cur"])
    )
    terminals = attach_lookup(
        distinct_cur,
        P.map_batches(
            lambda t: pa.Table.from_arrays([t["node"]], names=["cur"]),
            batch_format="pyarrow",
        ),
        key_col="cur",
        val_cols=[],
        carry_cols=[],
        anti=True,
    ).map_batches(
        lambda t: pa.Table.from_arrays(
            [
                t["cur"],
                t["cur"],
                pa.array(np.zeros(t.num_rows, np.int64)),
            ],
            names=["cur", "nxt", "add"],
        ),
        batch_format="pyarrow",
    ).materialize()

    def probe(ds) -> tuple:
        def partial(t: pa.Table) -> pa.Table:
            h = t["hops"].to_numpy(zero_copy_only=False)
            return pa.Table.from_arrays(
                [
                    pa.array([len(h)], pa.int64()),
                    pa.array([int(h.sum())], pa.int64()),
                ],
                names=["n", "s"],
            )

        parts = ds.map_batches(
            partial, batch_format="pyarrow", batch_size=None
        ).take_all()
        return sum(r["n"] for r in parts), sum(r["s"] for r in parts)

    prev = probe(P)
    for _ in range(max_rounds):
        lookup = P.map_batches(
            lambda t: pa.Table.from_arrays(
                [t["node"], t["cur"], t["hops"]],
                names=["cur", "nxt", "add"],
            ),
            batch_format="pyarrow",
        ).union(terminals)
        # Loop-carried: cap blocks + drop plan history (see sever_lineage).
        P = sever_lineage(
            attach_lookup(
                P,
                lookup,
                key_col="cur",
                val_cols=["nxt", "add"],
                carry_cols=["node", "hops"],
            )
            .map_batches(
                lambda t: pa.Table.from_arrays(
                    [
                        t["node"],
                        t["nxt"],
                        pa.compute.add(t["hops"], t["add"]),
                    ],
                    names=["node", "cur", "hops"],
                ),
                batch_format="pyarrow",
            ),
            num_blocks=P.num_blocks(),
        )
        cur = probe(P)
        if cur == prev:
            break
        prev = cur
    else:
        raise ValueError(
            f"redirect chains not resolved after {max_rounds} doubling "
            "rounds: cycle, or chains longer than 2^max_rounds"
        )
    return P.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["node"], t["cur"], t["hops"]], names=["src", "final", "hops"]
        ),
        batch_format="pyarrow",
    )


def triangle_count(
    edges_ds,
    u_col: str = "src_host",
    v_col: str = "dst_host",
    node_broadcast_cap: int = 5_000_000,
) -> pa.Table:
    """Exact triangle count of the undirected simple graph under the edge
    list → one row ``(n_nodes, n_edges, n_triangles)``.

    The standard degree-orientation construction (Chiba–Nishizeki /
    Schank–Wagner): orient every canonical edge from its (degree, id)-
    smaller endpoint to the larger, which bounds every out-degree by
    O(sqrt(m)) so the wedge set is O(m^1.5) ROWS IN THE DATASET (never
    driver state); each triangle is counted exactly once as a wedge
    (v, w) out of u whose closing edge v→w exists.

    Exchanges: canonical-edge dedup groupby, degree groupby, ONE sort
    grouping oriented edges by source (vectorized per-segment pair
    emission — the sketch-dedup kernel's shape), and a semi-join of
    wedges against the oriented edge set (broadcast ``is_in`` under
    ``node_broadcast_cap`` edges, sorted-lookup above). Payload-free
    throughout: only node strings and counts move.
    """
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Sum

    from .segments import attach_lookup, sorted_segment_apply

    SEP = "\x1f"

    def canon(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch[u_col].to_pylist(), dtype=object).astype(str)
        v = np.asarray(batch[v_col].to_pylist(), dtype=object).astype(str)
        keep = u != v
        u, v = u[keep], v[keep]
        fwd = u < v
        lo = np.where(fwd, u, v)
        hi = np.where(fwd, v, u)
        pairs = np.unique(np.char.add(np.char.add(lo, SEP), hi))
        return pa.Table.from_arrays(
            [pa.array(pairs.astype(object), pa.string()),
             pa.array(np.ones(len(pairs), np.int64))],
            names=["e", "one"],
        )

    edges = (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby("e")
        .sum("one")
        .map_batches(
            lambda t: pa.Table.from_arrays([t["e"].combine_chunks()], names=["e"]),
            batch_format="pyarrow",
        )
        .materialize()  # consumed for degrees, orientation, and the probe
    )
    n_edges = edges.count()

    def degree_partial(batch: pa.Table) -> pa.Table:
        parts = np.char.partition(
            np.asarray(batch["e"].to_pylist(), dtype=object).astype(str), SEP
        )
        nodes = np.concatenate([parts[:, 0], parts[:, 2]])
        un, cn = np.unique(nodes, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(un.astype(object), pa.string()), pa.array(cn, pa.int64())],
            names=["node", "d"],
        )

    degs = (
        edges.map_batches(degree_partial, batch_format="pyarrow", batch_size=None)
        .groupby("node")
        .sum("d")
    ).materialize()
    n_nodes = degs.count()
    if n_nodes > node_broadcast_cap:
        return _triangles_attached(edges, degs, n_edges, n_nodes, SEP,
                                   node_broadcast_cap)
    deg_rows = pa.concat_tables(list(degs.iter_batches(batch_format="pyarrow")))
    nodes_sorted = deg_rows["node"].to_numpy(zero_copy_only=False).astype(str)
    degs_np = deg_rows["sum(d)"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(nodes_sorted)
    nodes_sorted, degs_np = nodes_sorted[order], degs_np[order]
    deg_ref = ray.put((nodes_sorted, degs_np))

    def orient(batch: pa.Table) -> pa.Table:
        ns, dg = ray.get(deg_ref)
        parts = np.char.partition(
            np.asarray(batch["e"].to_pylist(), dtype=object).astype(str), SEP
        )
        a, b = parts[:, 0], parts[:, 2]
        da = dg[np.searchsorted(ns, a)]
        db = dg[np.searchsorted(ns, b)]
        # orient from (deg, id)-smaller to larger
        fwd = (da < db) | ((da == db) & (a < b))
        src = np.where(fwd, a, b)
        dst = np.where(fwd, b, a)
        return pa.Table.from_arrays(
            [pa.array(src.astype(object), pa.string()),
             pa.array(dst.astype(object), pa.string())],
            names=["src", "dst"],
        )

    oriented = edges.map_batches(orient, batch_format="pyarrow").materialize()

    def wedge_block(batch: pa.Table, starts: np.ndarray, ends: np.ndarray) -> pa.Table:
        ns, dg = ray.get(deg_ref)
        dst = np.asarray(batch["dst"].to_pylist(), dtype=object).astype(str)
        out = []
        for s, e in zip(starts, ends):
            seg = dst[s:e]
            if len(seg) < 2:
                continue
            # order out-neighbors by the SAME (deg, id) total order so the
            # wedge key matches the closing edge's orientation
            dseg = dg[np.searchsorted(ns, seg)]
            o = np.lexsort((seg, dseg))
            seg = seg[o]
            i, j = np.triu_indices(len(seg), k=1)
            out.append(np.char.add(np.char.add(seg[i], SEP), seg[j]))
        keys = np.concatenate(out) if out else np.array([], dtype=object)
        return pa.Table.from_arrays(
            [pa.array(keys.astype(object), pa.string())], names=["k"]
        )

    wedges = sorted_segment_apply(
        oriented, key_col="src", block_fn=wedge_block, within_cols=["dst"]
    )

    def probe_key(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch["src"].to_pylist(), dtype=object).astype(str)
        dst = np.asarray(batch["dst"].to_pylist(), dtype=object).astype(str)
        return pa.Table.from_arrays(
            [pa.array(np.char.add(np.char.add(src, SEP), dst).astype(object),
                      pa.string())],
            names=["k"],
        )

    if n_edges <= node_broadcast_cap:
        ekeys = pa.concat_arrays(
            [
                c
                for b in oriented.map_batches(
                    probe_key, batch_format="pyarrow"
                ).iter_batches(batch_format="pyarrow")
                for c in b.column("k").chunks
                if len(c)
            ]
        )
        eref = ray.put(ekeys)

        def count_closed(batch: pa.Table) -> pa.Table:
            mask = pc.is_in(batch["k"], value_set=ray.get(eref))
            return pa.Table.from_arrays(
                [pa.array([int(pc.sum(mask.cast(pa.int64())).as_py() or 0)],
                          pa.int64())],
                names=["t"],
            )

        tri_parts = wedges.map_batches(count_closed, batch_format="pyarrow")
        n_triangles = sum(r["t"] for r in tri_parts.take_all())
    else:
        closed = attach_lookup(
            wedges,
            oriented.map_batches(probe_key, batch_format="pyarrow"),
            key_col="k",
            val_cols=[],
            carry_cols=[],
        )
        n_triangles = closed.count()

    return pa.Table.from_arrays(
        [
            pa.array([n_nodes], pa.int64()),
            pa.array([n_edges], pa.int64()),
            pa.array([int(n_triangles)], pa.int64()),
        ],
        names=["n_nodes", "n_edges", "n_triangles"],
    )


def kcore(
    edges_ds,
    k: int,
    rounds: int,
    u_col: str = "src_host",
    v_col: str = "dst_host",
    node_broadcast_cap: int = 5_000_000,
) -> pa.Table:
    """K-core decomposition by iterative pruning: repeatedly delete nodes
    of degree < ``k`` (and their edges) for exactly ``rounds`` rounds —
    idempotent once converged, so with enough rounds this IS the k-core.
    The graph-curation primitive for link-spam farms: low-degree fringe
    peels away, the dense core remains. Returns one row per surviving
    node: ``(node, degree)`` (degree within the core).

    Each round is ONE degree ``groupby`` over canonical edges plus a
    vectorized keep-filter with the (node, degree) table broadcast under
    ``node_broadcast_cap`` (the same dual-regime contract as pagerank/
    HITS — above the cap each round becomes two sorted-lookup joins).
    Fixed-round semantics keep the SQL oracle expressible as ``rounds``
    chained CTEs. If the SURVIVING CORE itself exceeds the cap, the
    result comes back as a Dataset of the same ``(node, degree)`` rows
    instead of a driver table — sink it with ``write_parquet``.
    """
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Sum

    from .segments import sever_lineage

    SEP = "\x1f"

    def canon(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch[u_col].to_pylist(), dtype=object).astype(str)
        v = np.asarray(batch[v_col].to_pylist(), dtype=object).astype(str)
        keep = u != v
        u, v = u[keep], v[keep]
        fwd = u < v
        lo = np.where(fwd, u, v)
        hi = np.where(fwd, v, u)
        pairs = np.unique(np.char.add(np.char.add(lo, SEP), hi))
        return pa.Table.from_arrays(
            [pa.array(pairs.astype(object), pa.string())], names=["e"]
        )

    edges = (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby("e")
        .count()
        .map_batches(
            lambda t: pa.Table.from_arrays([t["e"].combine_chunks()], names=["e"]),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def degree_partial(batch: pa.Table) -> pa.Table:
        parts = np.char.partition(
            np.asarray(batch["e"].to_pylist(), dtype=object).astype(str), SEP
        )
        nodes = np.concatenate([parts[:, 0], parts[:, 2]])
        un, cn = np.unique(nodes, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(un.astype(object), pa.string()), pa.array(cn, pa.int64())],
            names=["node", "d"],
        )

    def degrees_ds(e_ds):
        return (
            e_ds.map_batches(
                degree_partial, batch_format="pyarrow", batch_size=None
            )
            .groupby("node")
            .sum("d")
        )

    def collect_degrees(d_ds):
        parts = list(d_ds.iter_batches(batch_format="pyarrow"))
        if not parts:
            return np.array([], dtype=str), np.array([], dtype=np.int64)
        rows = pa.concat_tables(parts)
        ns = rows["node"].to_numpy(zero_copy_only=False).astype(str)
        dg = rows["sum(d)"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(ns)
        return ns[o], dg[o]

    def split_endpoints(batch: pa.Table) -> pa.Table:
        parts = np.char.partition(
            np.asarray(batch["e"].to_pylist(), dtype=object).astype(str), SEP
        )
        return pa.Table.from_arrays(
            [
                batch["e"].combine_chunks(),
                pa.array(parts[:, 0].astype(object), pa.string()),
                pa.array(parts[:, 2].astype(object), pa.string()),
            ],
            names=["e", "lo", "hi"],
        )

    for _ in range(rounds):
        d_ds = degrees_ds(edges).materialize()
        n_nodes = d_ds.count()
        if n_nodes <= node_broadcast_cap:
            ns, dg = collect_degrees(d_ds)
            alive = ns[dg >= k]
            if len(alive) == len(ns):
                break  # converged: further rounds are identity
            aref = ray.put(alive)

            def keep_edges(batch: pa.Table) -> pa.Table:
                al = ray.get(aref)
                parts = np.char.partition(
                    np.asarray(batch["e"].to_pylist(), dtype=object).astype(str),
                    SEP,
                )
                li = np.searchsorted(al, parts[:, 0])
                ri = np.searchsorted(al, parts[:, 2])
                ok = (li < len(al)) & (ri < len(al))
                ok[ok] &= (al[li[ok]] == parts[:, 0][ok]) & (
                    al[ri[ok]] == parts[:, 2][ok]
                )
                return batch.filter(pa.array(ok))

            edges = sever_lineage(
                edges.map_batches(keep_edges, batch_format="pyarrow"),
                num_blocks=edges.num_blocks(),
            )
        else:
            # over-cap round: nothing node-sized on the driver — the
            # alive-node table filters edges through TWO sorted-lookup
            # existence joins (one per endpoint), the same attach_lookup
            # contract as pagerank's over-cap regime.
            from .segments import attach_lookup

            alive_ds = d_ds.map_batches(
                lambda t: pa.Table.from_arrays(
                    [
                        t["node"].combine_chunks().filter(
                            pa.compute.greater_equal(
                                t["sum(d)"].combine_chunks(), k
                            )
                        )
                    ],
                    names=["lo"],
                ),
                batch_format="pyarrow",
            ).materialize()
            n_alive = alive_ds.count()
            if n_alive == n_nodes:
                break
            kept_lo = attach_lookup(
                edges.map_batches(split_endpoints, batch_format="pyarrow"),
                alive_ds,
                key_col="lo",
                val_cols=[],
                carry_cols=["e", "hi"],
            )
            kept = attach_lookup(
                kept_lo.map_batches(
                    lambda t: pa.Table.from_arrays(
                        [t["hi"].combine_chunks(), t["e"].combine_chunks()],
                        names=["lo", "e"],
                    ),
                    batch_format="pyarrow",
                ),
                alive_ds,
                key_col="lo",
                val_cols=[],
                carry_cols=["e"],
            )
            edges = sever_lineage(
                kept.map_batches(
                    lambda t: pa.Table.from_arrays(
                        [t["e"].combine_chunks()], names=["e"]
                    ),
                    batch_format="pyarrow",
                ),
                num_blocks=edges.num_blocks(),
            )

    final = degrees_ds(edges).materialize()
    if final.count() > node_broadcast_cap:
        # The surviving core itself exceeds the driver gate: return it as
        # a Dataset (one filtered streaming pass over the degree table) —
        # callers sink it with write_parquet; nothing node-sized ever
        # lands on the driver.
        def core_rows(t: pa.Table) -> pa.Table:
            keep = pa.compute.greater_equal(t["sum(d)"].combine_chunks(), k)
            kept = t.filter(keep)
            return pa.Table.from_arrays(
                [
                    kept["node"].combine_chunks(),
                    kept["sum(d)"].combine_chunks().cast(pa.int64()),
                ],
                names=["node", "degree"],
            )

        return final.map_batches(core_rows, batch_format="pyarrow")
    ns, dg = collect_degrees(final)
    keep = dg >= k
    return pa.Table.from_arrays(
        [
            pa.array(ns[keep].astype(object), pa.string()),
            pa.array(dg[keep].astype(np.int64)),
        ],
        names=["node", "degree"],
    )


def _triangles_attached(edges, degs, n_edges: int, n_nodes: int, SEP: str,
                        node_broadcast_cap: int) -> pa.Table:
    """Over-cap regime of :func:`triangle_count`: degrees never land on
    the driver. Both endpoints' degrees attach to each canonical edge via
    two sorted-lookup joins (the pagerank over-cap contract); orientation
    and the wedge ordering then read the ATTACHED columns — the oriented
    edge table carries ``deg_dst`` so the (src)-keyed wedge sort orders
    out-neighborhoods by (deg, id) without any lookup. The wedge→edge
    closure check is the attach_lookup semi-join the under-cap path
    already uses past its edge gate."""
    from .segments import attach_lookup, sorted_segment_apply

    def split(batch: pa.Table) -> pa.Table:
        parts = np.char.partition(
            np.asarray(batch["e"].to_pylist(), dtype=object).astype(str), SEP
        )
        return pa.Table.from_arrays(
            [
                pa.array(parts[:, 0].astype(object), pa.string()),
                pa.array(parts[:, 2].astype(object), pa.string()),
            ],
            names=["a", "b"],
        )

    deg_tbl = degs.map_batches(
        lambda t: t.rename_columns(["node", "deg"]), batch_format="pyarrow"
    )
    with_da = attach_lookup(
        edges.map_batches(split, batch_format="pyarrow").map_batches(
            lambda t: t.rename_columns(["node", "b"]), batch_format="pyarrow"
        ),
        deg_tbl,
        key_col="node",
        val_cols=["deg"],
        carry_cols=["b"],
    ).map_batches(
        lambda t: pa.Table.from_arrays(
            [t["node"], t["b"], t["deg"]], names=["a", "node", "da"]
        ),
        batch_format="pyarrow",
    )
    both = attach_lookup(
        with_da,
        deg_tbl,
        key_col="node",
        val_cols=["deg"],
        carry_cols=["a", "da"],
    )

    def orient(batch: pa.Table) -> pa.Table:
        b = np.asarray(batch["node"].to_pylist(), dtype=object).astype(str)
        a = np.asarray(batch["a"].to_pylist(), dtype=object).astype(str)
        da = batch["da"].to_numpy(zero_copy_only=False)
        db = batch["deg"].to_numpy(zero_copy_only=False)
        fwd = (da < db) | ((da == db) & (a < b))
        src = np.where(fwd, a, b)
        dst = np.where(fwd, b, a)
        deg_dst = np.where(fwd, db, da)
        return pa.Table.from_arrays(
            [
                pa.array(src.astype(object), pa.string()),
                pa.array(dst.astype(object), pa.string()),
                pa.array(deg_dst.astype(np.int64)),
            ],
            names=["src", "dst", "deg_dst"],
        )

    oriented = both.map_batches(orient, batch_format="pyarrow").materialize()

    def wedge_block(batch: pa.Table, starts: np.ndarray, ends: np.ndarray) -> pa.Table:
        dst = np.asarray(batch["dst"].to_pylist(), dtype=object).astype(str)
        out = []
        for s, e in zip(starts, ends):
            seg = dst[s:e]  # already (deg_dst, dst)-ordered by the sort
            if len(seg) < 2:
                continue
            i, j = np.triu_indices(len(seg), k=1)
            out.append(np.char.add(np.char.add(seg[i], SEP), seg[j]))
        keys = np.concatenate(out) if out else np.array([], dtype=object)
        return pa.Table.from_arrays(
            [pa.array(keys.astype(object), pa.string())], names=["k"]
        )

    wedges = sorted_segment_apply(
        oriented, key_col="src", block_fn=wedge_block,
        within_cols=["deg_dst", "dst"],
    )

    def probe_key(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch["src"].to_pylist(), dtype=object).astype(str)
        dst = np.asarray(batch["dst"].to_pylist(), dtype=object).astype(str)
        return pa.Table.from_arrays(
            [pa.array(np.char.add(np.char.add(src, SEP), dst).astype(object),
                      pa.string())],
            names=["k"],
        )

    closed = attach_lookup(
        wedges,
        oriented.map_batches(probe_key, batch_format="pyarrow"),
        key_col="k",
        val_cols=[],
        carry_cols=[],
    )
    n_triangles = closed.count()
    return pa.Table.from_arrays(
        [
            pa.array([n_nodes], pa.int64()),
            pa.array([n_edges], pa.int64()),
            pa.array([int(n_triangles)], pa.int64()),
        ],
        names=["n_nodes", "n_edges", "n_triangles"],
    )


def cocitation_topk(
    edges_ds,
    k: int = 20,
    min_count: int = 2,
    src_out_cap: int = 1024,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
):
    """Co-citation analysis (Small 1973, "Co-citation in the scientific
    literature" — public paper; the link-graph similarity signal behind
    related-page discovery): for every unordered pair of targets, the
    number of DISTINCT sources linking to both. Returns the top ``k``
    pairs with count ≥ ``min_count`` as ``(d1, d2, cnt)``, ``d1 < d2``,
    ordered by (cnt desc, d1, d2).

    Shape: ONE sort groups each source's out-neighborhood contiguously
    (:func:`..ops.segments.sorted_segment_apply` handles block-edge
    straddles); pair emission dedupes the neighborhood and walks only
    multi-target segments (the triangles precedent — Python touches
    O(link-bearing sources), the triu emission is vectorized), with a
    per-block ``np.unique`` pre-combine before the pair-key groupby, so
    the exchange carries combined (pair, cnt) rows. Sources with more
    than ``src_out_cap`` DISTINCT targets are skipped — the exact,
    documented hub gate (a 10⁶-out-degree portal page would alone emit
    5·10¹¹ pairs; the gate bounds wedges at O(sources · cap²) and is
    mirrored by the SQL oracle).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .segments import sorted_segment_apply

    SEP = "\x1f"

    def pair_block(batch: pa.Table, starts: np.ndarray, ends: np.ndarray) -> pa.Table:
        dst = np.asarray(batch[dst_col].to_pylist(), dtype=object).astype(str)
        keys = []
        for s, e in zip(starts.tolist(), ends.tolist()):
            seg = np.unique(dst[s:e])  # distinct targets of ONE source
            if len(seg) < 2 or len(seg) > src_out_cap:
                continue
            i, j = np.triu_indices(len(seg), 1)
            keys.append(np.char.add(np.char.add(seg[i], SEP), seg[j]))
        if keys:
            u, c = np.unique(np.concatenate(keys), return_counts=True)
        else:
            u, c = np.array([], dtype=object), np.array([], np.int64)
        return pa.Table.from_arrays(
            [pa.array(u.astype(object), pa.string()), pa.array(c, pa.int64())],
            names=["pk", "cnt"],
        )

    pairs = sorted_segment_apply(
        edges_ds.map_batches(
            lambda t: t.select([src_col, dst_col]), batch_format="pyarrow"
        ),
        key_col=src_col,
        block_fn=pair_block,
        within_cols=[dst_col],
    )
    agg = (
        pairs.groupby("pk")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t["cnt"], min_count)),
            batch_format="pyarrow",
        )
    )
    top = agg.sort(["cnt", "pk"], descending=[True, False]).limit(k)

    def split(batch: pa.Table) -> pa.Table:
        pk = np.asarray(batch["pk"].to_pylist(), dtype=object).astype(str)
        parts = np.char.partition(pk, SEP)
        return pa.Table.from_arrays(
            [
                pa.array(parts[:, 0].astype(object), pa.string()),
                pa.array(parts[:, 2].astype(object), pa.string()),
                batch["cnt"].combine_chunks().cast(pa.int64()),
            ],
            names=["d1", "d2", "cnt"],
        )

    return top.map_batches(split, batch_format="pyarrow")


def label_propagation(
    edges,
    num_iters: int = 2,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    weight_col: str = "n_links",
):
    """Synchronous weighted label propagation (Raghavan et al. 2007) —
    community detection over the host link graph (mirror farms, spam
    rings, topical clusters), the standard cheap alternative to
    modularity optimization at crawl scale.

    Semantics (deterministic, SQL-mirrored):

    - the graph is UNDIRECTED: every edge votes in both directions with
      its integer weight; self loops are ignored.
    - labels start as the node's own id (string hosts).
    - each round, synchronously: ``label'(v) = argmax_lab Σ w(v,u) over
      neighbors u with label(u)=lab``; ties break to the MINIMUM label
      (bytewise); a node with no non-self neighbors keeps its label.
    - exactly ``num_iters`` rounds run (no convergence test), so the
      result is bit-exact at any block layout AND replicable in SQL by
      unrolling the rounds as chained CTEs (the same contract as
      :func:`pagerank` / :func:`hits_scores`). Synchronous updates with
      a fixed round count also sidestep classic LPA's bipartite
      oscillation nondeterminism.

    Exchange shape per round: one :func:`..ops.segments.attach_lookup`
    sort (labels onto vote rows, keyed by neighbor), one
    ``groupby(node, lab).sum`` over per-block pre-combined vote partials
    (distinct (node, lab) pairs per block — community-pair cardinality,
    never edge cardinality), and one (node, score desc, lab) sort with a
    segment-head gather for the argmax. Nothing node- or edge-sized
    lands on the driver.

    Keep-own-label fallback rides INSIDE the vote stream as a
    zero-weight sentinel row per node (real weights are >=1, so the
    sentinel only wins when a node has no neighbor votes) — no outer
    join needed.

    Returns a Dataset of ``(host, community)`` (both strings).
    """
    import pyarrow.compute as pc

    from .segments import attach_lookup, sever_lineage, sorted_segment_apply

    def both_dirs(batch: pa.Table) -> pa.Table:
        s = batch[src_col].combine_chunks().cast(pa.string())
        d = batch[dst_col].combine_chunks().cast(pa.string())
        w = batch[weight_col].combine_chunks().cast(pa.int64())
        keep = pc.not_equal(s, d)
        s, d, w = s.filter(keep), d.filter(keep), w.filter(keep)
        return pa.Table.from_arrays(
            [
                pa.concat_arrays(s.chunks + d.chunks) if isinstance(s, pa.ChunkedArray)
                else pa.concat_arrays([s, d]),
                pa.concat_arrays(d.chunks + s.chunks) if isinstance(d, pa.ChunkedArray)
                else pa.concat_arrays([d, s]),
                pa.concat_arrays([w, w]),
            ],
            names=["u", "v", "w"],
        )

    adj = edges.map_batches(both_dirs, batch_format="pyarrow").materialize()

    def emit_nodes(batch: pa.Table) -> pa.Table:
        hs = np.concatenate(
            [
                batch[src_col].to_numpy(zero_copy_only=False),
                batch[dst_col].to_numpy(zero_copy_only=False),
            ]
        )
        return pa.Table.from_arrays(
            [pa.array(np.unique(hs.astype(str)).astype(object), pa.string())],
            names=["host"],
        )

    from ray.data.aggregate import Count, Sum

    nodes = (
        edges.map_batches(emit_nodes, batch_format="pyarrow")
        .groupby("host")
        .aggregate(Count(alias_name="_c"))
        .map_batches(lambda b: b.select(["host"]), batch_format="pyarrow")
    )

    # labels: (node, lab); initialized to self.
    labels = nodes.map_batches(
        lambda b: pa.Table.from_arrays([b["host"], b["host"]], names=["node", "lab"]),
        batch_format="pyarrow",
    )

    def vote_partial(batch: pa.Table) -> pa.Table:
        # per-block pre-combine: Σw per distinct (node, lab) pair.
        u = np.asarray(batch["u"].to_pylist(), dtype=object).astype(str)
        lab = np.asarray(batch["lab"].to_pylist(), dtype=object).astype(str)
        w = batch["w"].to_numpy(zero_copy_only=False)
        comp = np.char.add(np.char.add(u, "\x1f"), lab)
        uniq, inv = np.unique(comp, return_inverse=True)
        sums = np.bincount(inv, weights=w.astype(np.float64)).astype(np.int64)
        parts = np.char.partition(uniq.astype(str), "\x1f")
        return pa.Table.from_arrays(
            [
                pa.array(parts[:, 0].astype(object), pa.string()),
                pa.array(parts[:, 2].astype(object), pa.string()),
                pa.array(sums, pa.int64()),
            ],
            names=["node", "lab", "s"],
        )

    def head(batch: pa.Table, starts: np.ndarray, ends: np.ndarray) -> pa.Table:
        names = ["node", "lab"]
        if len(starts) == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.string())], names=names
            )
        take = pa.array(starts)
        return pa.Table.from_arrays(
            [batch["node"].take(take), batch["lab"].take(take)], names=names
        )

    for _ in range(num_iters):
        votes = attach_lookup(
            adj,
            labels.map_batches(
                lambda b: b.rename_columns(["v", "lab"]), batch_format="pyarrow"
            ),
            key_col="v",
            val_cols=["lab"],
            carry_cols=["u", "w"],
        ).map_batches(
            lambda b: pa.Table.from_arrays(
                [b["u"], b["lab"], b["w"]], names=["u", "lab", "w"]
            ),
            batch_format="pyarrow",
        )
        sentinel = labels.map_batches(
            lambda b: pa.Table.from_arrays(
                [b["node"], b["lab"], pa.array(np.zeros(len(b), np.int64))],
                names=["u", "lab", "w"],
            ),
            batch_format="pyarrow",
        )
        totals = (
            votes.union(sentinel)
            .map_batches(vote_partial, batch_format="pyarrow")
            .groupby(["node", "lab"])
            .aggregate(Sum("s", alias_name="s"))
            .map_batches(
                lambda t: t.rename_columns(["node", "lab", "s"]),
                batch_format="pyarrow",
            )
        )
        # labels is referenced twice per round (votes + sentinel):
        # sever or the plan graph doubles per round (see sever_lineage).
        labels = sever_lineage(
            sorted_segment_apply(
                totals,
                key_col="node",
                block_fn=head,
                within_cols=["s", "lab"],
                descending=[True, False],
            ),
            num_blocks=adj.num_blocks(),
        )

    return labels.map_batches(
        lambda b: b.rename_columns(["host", "community"]), batch_format="pyarrow"
    )


def reciprocity(edges, src_col: str = "src_host", dst_col: str = "dst_host"):
    """Global link reciprocity of the directed host graph: the fraction of
    (distinct, non-self) directed edges whose reverse edge also exists —
    a standard web-graph health statistic (spam farms and scraper rings
    show abnormal reciprocity). Returns a one-row pandas DataFrame
    ``(n_edges, n_reciprocal, reciprocity_milli)`` with the ratio in
    integer-exact milli-units (``1000 * n_reciprocal // n_edges``).

    Shape: edges arrive distinct from :func:`link_graph`'s groupby;
    self-loops drop in-block; each directed edge maps to its unordered
    key and ONE ``groupby(ukey).count()`` finds pairs present in both
    directions (count == 2 — duplicates are impossible on distinct
    input); per-block partial sums reduce to a single driver row."""
    import pandas as pd
    from ray.data.aggregate import Count

    def ukeys(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch[src_col].to_pylist(), dtype=object)
        dst = np.asarray(batch[dst_col].to_pylist(), dtype=object)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        s, d = src.astype(str), dst.astype(str)
        swap = s > d  # np.minimum lacks a unicode loop; select instead
        lo = np.where(swap, d, s)
        hi = np.where(swap, s, d)
        key = np.char.add(np.char.add(lo, "\x1f"), hi)
        return pa.Table.from_arrays(
            [pa.array(key.astype(object), pa.string())], names=["ukey"]
        )

    grouped = (
        edges.map_batches(ukeys, batch_format="pyarrow", batch_size=None)
        .groupby("ukey")
        .aggregate(Count())
    )

    def partial(batch: pa.Table) -> pa.Table:
        c = batch["count()"].to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [
                pa.array([int(c.sum())], pa.int64()),
                pa.array([2 * int((c == 2).sum())], pa.int64()),
            ],
            names=["n_edges", "n_reciprocal"],
        )

    rows = grouped.map_batches(
        partial, batch_format="pyarrow", batch_size=None
    ).take_all()  # one tiny row per block
    n_edges = sum(r["n_edges"] for r in rows)
    n_rec = sum(r["n_reciprocal"] for r in rows)
    milli = (1000 * n_rec) // n_edges if n_edges else 0
    return pd.DataFrame(
        {
            "n_edges": [n_edges],
            "n_reciprocal": [n_rec],
            "reciprocity_milli": [milli],
        }
    ).astype("int64")


def bipartite_components(
    edges,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    driver_edge_cap: int = 2_000_000,
):
    """Per-component bipartiteness of the undirected(ized) graph — odd-cycle
    detection, the classic two-sidedness test (host↔resource graphs,
    suspected mirror pairs, crawler trap rings).

    Reduction, not a new traversal: a component is bipartite iff in the
    DOUBLE COVER graph (v → v⁰/v¹; edge (u,v) → (u⁰,v¹) and (u¹,v⁰)) no
    node's two copies land in the same component — the standard
    bipartite-double-cover characterization. Both component computations
    run through :func:`..dedup.connected_components`, inheriting its
    enforced regimes unchanged (driver union-find ≤ ``driver_edge_cap``
    edges, sorted-lookup min-label propagation with pointer jumping
    above; string ids via the dense-rank mapping stage). Self-loops are
    odd cycles by definition and handled by the same reduction
    (v⁰—v¹ connects the copies directly).

    Returns a pandas DataFrame ``(component, n_nodes, is_bipartite)``,
    component = min node id, sorted by component. Driver state is the
    CC label frames — O(nodes incident to edges), the same bound every
    CC consumer in the engine already accepts."""
    import pandas as pd

    from .dedup import connected_components

    def to_pairs(batch: pa.Table) -> pa.Table:
        a = batch[src_col].combine_chunks()
        b = batch[dst_col].combine_chunks()
        return pa.Table.from_arrays(
            [a, b], names=["id_a", "id_b"]
        )

    pairs = edges.map_batches(to_pairs, batch_format="pyarrow",
                              batch_size=None)
    base = connected_components(pairs, driver_edge_cap=driver_edge_cap)
    if len(base) == 0:
        return pd.DataFrame(
            {"component": [], "n_nodes": [], "is_bipartite": []}
        )

    int_ids = pa.types.is_integer(pairs.schema().types[0])

    def cover(batch: pa.Table) -> pa.Table:
        if int_ids:
            a = batch["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
            b = batch["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
            id_a = pa.array(np.concatenate([2 * a, 2 * a + 1]))
            id_b = pa.array(np.concatenate([2 * b + 1, 2 * b]))
        else:
            a = np.asarray(batch["id_a"].to_pylist(), dtype=object)
            b = np.asarray(batch["id_b"].to_pylist(), dtype=object)
            a0 = np.char.add(a.astype(str), "\x1f0").astype(object)
            a1 = np.char.add(a.astype(str), "\x1f1").astype(object)
            b0 = np.char.add(b.astype(str), "\x1f0").astype(object)
            b1 = np.char.add(b.astype(str), "\x1f1").astype(object)
            id_a = pa.array(np.concatenate([a0, a1]), pa.string())
            id_b = pa.array(np.concatenate([b1, b0]), pa.string())
        return pa.Table.from_arrays([id_a, id_b], names=["id_a", "id_b"])

    cov = connected_components(
        pairs.map_batches(cover, batch_format="pyarrow", batch_size=None),
        driver_edge_cap=driver_edge_cap,
    )
    lab = dict(zip(cov["node"], cov["label"]))
    if int_ids:
        same = {
            v: lab.get(2 * int(v)) == lab.get(2 * int(v) + 1)
            for v in base["node"]
        }
    else:
        same = {
            v: lab.get(f"{v}\x1f0") == lab.get(f"{v}\x1f1")
            for v in base["node"]
        }
    df = base.copy()
    df["odd"] = df["node"].map(same)
    agg = (
        df.groupby("label")
        .agg(n_nodes=("node", "size"), any_odd=("odd", "any"))
        .reset_index()
        .rename(columns={"label": "component"})
    )
    agg["is_bipartite"] = ~agg["any_odd"]
    agg = agg.drop(columns=["any_odd"]).sort_values("component")
    return agg.reset_index(drop=True).astype({"n_nodes": "int64"})


def local_clustering(
    edges_ds,
    u_col: str = "src_host",
    v_col: str = "dst_host",
    node_broadcast_cap: int = 5_000_000,
):
    """Per-node local clustering coefficient of the undirected simple
    graph under the directed edge list — the Watts–Strogatz statistic
    (link-farm rings cluster near 1.0, hub-and-spoke navigation near 0).
    Returns ``(host, deg, tri, lcc_milli)`` sorted by host: ``tri`` =
    triangles through the node, ``lcc_milli = 2000 * tri // (deg *
    (deg - 1))`` (integer-exact milli-units of ``2·tri/(deg·(deg−1))``;
    0 when ``deg < 2``). A pandas DataFrame under
    ``node_broadcast_cap`` nodes, a Ray Dataset (same columns) above.

    Same degree-orientation construction as :func:`triangle_count`
    (each triangle found exactly once as a closed wedge) but every wedge
    CARRIES its apex so a closed triangle credits all three endpoints,
    and the out-neighbor (deg, id) ordering the wedge keys need comes
    from the segment sort itself (``within_cols=[d_dst, dst]``), not a
    per-block broadcast gather. Exchanges: canonical-edge dedup groupby,
    degree groupby, ONE sort grouping oriented edges by source, the
    closing-edge check (broadcast ``is_in`` under the cap, sorted-lookup
    :func:`..ops.segments.attach_lookup` semi-join above), one
    ``groupby(node).sum`` over credit partials. Over the cap NOTHING is
    driver-side: orientation degrees attach via two sorted-lookup joins
    and the final deg⋈tri attach is a third — the output stays a
    streaming Dataset because a per-node frame would itself be
    O(nodes) driver state. Payload-free: host strings and small ints.
    """
    import pandas as pd
    import pyarrow.compute as pc
    import ray

    from .segments import attach_lookup, sorted_segment_apply

    SEP = "\x1f"

    def canon(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch[u_col].to_pylist(), dtype=object).astype(str)
        v = np.asarray(batch[v_col].to_pylist(), dtype=object).astype(str)
        keep = u != v
        u, v = u[keep], v[keep]
        fwd = u < v
        lo = np.where(fwd, u, v)
        hi = np.where(fwd, v, u)
        pairs = np.unique(np.char.add(np.char.add(lo, SEP), hi))
        return pa.Table.from_arrays(
            [pa.array(pairs.astype(object), pa.string()),
             pa.array(np.ones(len(pairs), np.int64))],
            names=["e", "one"],
        )

    edges = (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby("e")
        .sum("one")
        .map_batches(
            lambda t: pa.Table.from_arrays([t["e"].combine_chunks()],
                                           names=["e"]),
            batch_format="pyarrow",
        )
        .materialize()
    )
    n_edges = edges.count()

    def degree_partial(batch: pa.Table) -> pa.Table:
        parts = np.char.partition(
            np.asarray(batch["e"].to_pylist(), dtype=object).astype(str), SEP
        )
        nodes = np.concatenate([parts[:, 0], parts[:, 2]])
        un, cn = np.unique(nodes, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(un.astype(object), pa.string()),
             pa.array(cn, pa.int64())],
            names=["node", "d"],
        )

    degs = (
        edges.map_batches(degree_partial, batch_format="pyarrow",
                          batch_size=None)
        .groupby("node")
        .sum("d")
    ).materialize()
    n_nodes = degs.count()
    small = n_nodes <= node_broadcast_cap

    def split_pairs(batch: pa.Table) -> pa.Table:
        parts = np.char.partition(
            np.asarray(batch["e"].to_pylist(), dtype=object).astype(str), SEP
        )
        return pa.Table.from_arrays(
            [pa.array(parts[:, 0].astype(object), pa.string()),
             pa.array(parts[:, 2].astype(object), pa.string())],
            names=["a", "b"],
        )

    if small:
        deg_rows = pa.concat_tables(
            list(degs.iter_batches(batch_format="pyarrow")))
        nodes_sorted = (
            deg_rows["node"].to_numpy(zero_copy_only=False).astype(str))
        degs_np = (
            deg_rows["sum(d)"].to_numpy(zero_copy_only=False)
            .astype(np.int64))
        order = np.argsort(nodes_sorted)
        nodes_sorted, degs_np = nodes_sorted[order], degs_np[order]
        deg_ref = ray.put((nodes_sorted, degs_np))

        def orient_b(batch: pa.Table) -> pa.Table:
            ns, dg = ray.get(deg_ref)
            t = split_pairs(batch)
            a = t["a"].to_numpy(zero_copy_only=False).astype(str)
            b = t["b"].to_numpy(zero_copy_only=False).astype(str)
            da = dg[np.searchsorted(ns, a)]
            db = dg[np.searchsorted(ns, b)]
            fwd = (da < db) | ((da == db) & (a < b))
            src = np.where(fwd, a, b)
            dst = np.where(fwd, b, a)
            dd = np.where(fwd, db, da)
            return pa.Table.from_arrays(
                [pa.array(src.astype(object), pa.string()),
                 pa.array(dst.astype(object), pa.string()),
                 pa.array(dd, pa.int64())],
                names=["src", "dst", "d_dst"],
            )

        oriented = edges.map_batches(
            orient_b, batch_format="pyarrow").materialize()
    else:
        pairs = edges.map_batches(split_pairs, batch_format="pyarrow")
        with_da = attach_lookup(
            pairs,
            degs.map_batches(
                lambda t: t.rename_columns(["a", "d_a"]),
                batch_format="pyarrow"),
            key_col="a", val_cols=["d_a"], carry_cols=["b"],
        ).map_batches(
            lambda t: pa.Table.from_arrays(
                [t["b"].combine_chunks(), t["a"].combine_chunks(),
                 t["d_a"].combine_chunks()],
                names=["b", "a", "d_a"]),
            batch_format="pyarrow",
        )
        with_both = attach_lookup(
            with_da, degs.map_batches(
                lambda t: t.rename_columns(["b", "d"]),
                batch_format="pyarrow"),
            key_col="b", val_cols=["d"], carry_cols=["a", "d_a"],
        )

        def orient_a(batch: pa.Table) -> pa.Table:
            a = batch["a"].to_numpy(zero_copy_only=False).astype(str)
            b = batch["b"].to_numpy(zero_copy_only=False).astype(str)
            da = batch["d_a"].to_numpy(zero_copy_only=False)
            db = batch["d"].to_numpy(zero_copy_only=False)
            fwd = (da < db) | ((da == db) & (a < b))
            src = np.where(fwd, a, b)
            dst = np.where(fwd, b, a)
            dd = np.where(fwd, db, da)
            return pa.Table.from_arrays(
                [pa.array(src.astype(object), pa.string()),
                 pa.array(dst.astype(object), pa.string()),
                 pa.array(dd.astype(np.int64), pa.int64())],
                names=["src", "dst", "d_dst"],
            )

        oriented = with_both.map_batches(
            orient_a, batch_format="pyarrow").materialize()

    def wedge_block(batch: pa.Table, starts: np.ndarray,
                    ends: np.ndarray) -> pa.Table:
        src = np.asarray(batch["src"].to_pylist(), dtype=object).astype(str)
        dst = np.asarray(batch["dst"].to_pylist(), dtype=object).astype(str)
        keys, apex = [], []
        for s, e in zip(starts, ends):
            seg = dst[s:e]  # already (d_dst, dst)-ordered by the sort
            if len(seg) < 2:
                continue
            i, j = np.triu_indices(len(seg), k=1)
            keys.append(np.char.add(np.char.add(seg[i], SEP), seg[j]))
            apex.append(np.repeat(src[s], len(i)))
        k = np.concatenate(keys) if keys else np.array([], dtype=object)
        u = np.concatenate(apex) if apex else np.array([], dtype=object)
        return pa.Table.from_arrays(
            [pa.array(k.astype(object), pa.string()),
             pa.array(u.astype(object), pa.string())],
            names=["k", "u"],
        )

    wedges = sorted_segment_apply(
        oriented, key_col="src", block_fn=wedge_block,
        within_cols=["d_dst", "dst"],
    )

    def probe_key(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch["src"].to_pylist(), dtype=object).astype(str)
        dst = np.asarray(batch["dst"].to_pylist(), dtype=object).astype(str)
        return pa.Table.from_arrays(
            [pa.array(np.char.add(np.char.add(src, SEP), dst).astype(object),
                      pa.string())],
            names=["k"],
        )

    if n_edges <= node_broadcast_cap:
        ekeys = pa.concat_arrays(
            [
                c
                for b in oriented.map_batches(
                    probe_key, batch_format="pyarrow"
                ).iter_batches(batch_format="pyarrow")
                for c in b.column("k").chunks
                if len(c)
            ]
        )
        eref = ray.put(ekeys)

        def closed_only(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_in(batch["k"],
                                         value_set=ray.get(eref)))

        closed = wedges.map_batches(closed_only, batch_format="pyarrow")
    else:
        closed = attach_lookup(
            wedges,
            oriented.map_batches(probe_key, batch_format="pyarrow"),
            key_col="k",
            val_cols=[],
            carry_cols=["u"],
        )

    def credit_partial(batch: pa.Table) -> pa.Table:
        parts = np.char.partition(
            np.asarray(batch["k"].to_pylist(), dtype=object).astype(str), SEP
        )
        u = np.asarray(batch["u"].to_pylist(), dtype=object).astype(str)
        nodes = np.concatenate([u, parts[:, 0], parts[:, 2]])
        un, cn = np.unique(nodes, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(un.astype(object), pa.string()),
             pa.array(cn, pa.int64())],
            names=["node", "t"],
        )

    credits = (
        closed.map_batches(credit_partial, batch_format="pyarrow",
                           batch_size=None)
        .groupby("node")
        .sum("t")
    )

    if small:
        tri_map = {
            r["node"]: int(r["sum(t)"])
            for b in credits.iter_batches(batch_format="pyarrow")
            for r in b.to_pylist()
        }
        tri = np.array([tri_map.get(n, 0) for n in nodes_sorted],
                       dtype=np.int64)
        denom = degs_np * (degs_np - 1)
        lcc = np.where(denom > 0, (2000 * tri) // np.maximum(denom, 1), 0)
        return pd.DataFrame(
            {
                "host": nodes_sorted,
                "deg": degs_np,
                "tri": tri,
                "lcc_milli": lcc.astype(np.int64),
            }
        ).reset_index(drop=True)

    # over-cap regime: zero-credit rows union in so every node appears,
    # then one attach of deg and an in-block finalize — fully streaming
    zero = degs.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["node"].combine_chunks(),
             pa.array(np.zeros(t.num_rows, np.int64))],
            names=["node", "t"]),
        batch_format="pyarrow",
    )
    tri_all = (
        credits.map_batches(
            lambda t: t.rename_columns(["node", "t"]),
            batch_format="pyarrow")
        .union(zero)
        .groupby("node")
        .sum("t")
    )
    joined = attach_lookup(
        tri_all.map_batches(
            lambda t: t.rename_columns(["node", "tri"]),
            batch_format="pyarrow"),
        degs.map_batches(
            lambda t: t.rename_columns(["node", "d"]),
            batch_format="pyarrow"),
        key_col="node", val_cols=["d"], carry_cols=["tri"],
    )

    def finalize(batch: pa.Table) -> pa.Table:
        d = batch["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        tri = batch["tri"].to_numpy(zero_copy_only=False).astype(np.int64)
        denom = d * (d - 1)
        lcc = np.where(denom > 0, (2000 * tri) // np.maximum(denom, 1), 0)
        return pa.Table.from_arrays(
            [batch["node"].combine_chunks(), pa.array(d),
             pa.array(tri), pa.array(lcc.astype(np.int64))],
            names=["host", "deg", "tri", "lcc_milli"],
        )

    return joined.map_batches(finalize, batch_format="pyarrow").sort("host")


def harmonic_centrality(
    edges_ds,
    radius: int = 3,
    u_col: str = "src_host",
    v_col: str = "dst_host",
):
    """Exact radius-bounded harmonic centrality of the undirected(ized)
    host graph: ``H_R(v) = Σ_{u≠v, d(v,u) ≤ R} 1000 // d(v,u)`` in
    integer-exact milli-units, plus the ball size ``n_reached``. The
    radius-R truncation is the standard scale regime for web graphs
    (full closeness needs all-pairs BFS; HyperBall et al. approximate
    exactly this truncated sum) — pair cardinality is Σ_v |ball_R(v)|
    rows IN THE DATASET, never driver state.

    Rounds are pure Dataset algebra, each: one sort co-locating the
    distance-(k−1) frontier with the adjacency lists on the middle node
    (a sorted-block cross-product kernel — the only join shape that
    handles the many-to-many middle), then one ``groupby(pair).min(d)``
    keeping shortest distances. The SQL oracle UNROLLS the rounds as
    chained CTEs, so every distance — and thus every milli score — is
    bit-exact. Returns a pandas DataFrame ``(host, n_reached,
    harmonic_milli)`` sorted by host.
    """
    import pandas as pd

    from .segments import sever_lineage, sorted_segment_apply

    SEP = "\x1f"

    def sym(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch[u_col].to_pylist(), dtype=object).astype(str)
        v = np.asarray(batch[v_col].to_pylist(), dtype=object).astype(str)
        keep = u != v
        u, v = u[keep], v[keep]
        a = np.concatenate([u, v])
        b = np.concatenate([v, u])
        keys = np.unique(np.char.add(np.char.add(a, SEP), b))
        return pa.Table.from_arrays(
            [pa.array(keys.astype(object), pa.string()),
             pa.array(np.ones(len(keys), np.int64))],
            names=["k", "one"],
        )

    adj = (
        edges_ds.map_batches(sym, batch_format="pyarrow")
        .groupby("k")
        .sum("one")
        .map_batches(
            lambda t: pa.Table.from_arrays(
                [t["k"].combine_chunks()], names=["k"]),
            batch_format="pyarrow",
        )
        .materialize()
    )  # distinct directed closure of the undirected edge set

    def seed(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch["k"].combine_chunks(),
             pa.array(np.ones(batch.num_rows, np.int64))],
            names=["k", "d"],
        )

    pairs = adj.map_batches(seed, batch_format="pyarrow")

    def adj_rows(batch: pa.Table) -> pa.Table:
        parts = np.char.partition(
            np.asarray(batch["k"].to_pylist(), dtype=object).astype(str), SEP
        )
        return pa.Table.from_arrays(
            [pa.array(parts[:, 0].astype(object), pa.string()),
             pa.array(parts[:, 2].astype(object), pa.string()),
             pa.array(np.zeros(len(parts), np.int64))],
            names=["mid", "other", "d"],
        )

    adj_tagged = adj.map_batches(
        adj_rows, batch_format="pyarrow").materialize()

    for k in range(2, radius + 1):
        kk = k

        def front_rows(batch: pa.Table, kk=kk) -> pa.Table:
            d = batch["d"].to_numpy(zero_copy_only=False)
            t = batch.filter(pa.array(d == kk - 1))
            if t.num_rows == 0:
                return pa.Table.from_arrays(
                    [pa.array([], pa.string()), pa.array([], pa.string()),
                     pa.array([], pa.int64())],
                    names=["mid", "other", "d"],
                )
            parts = np.char.partition(
                np.asarray(t["k"].to_pylist(), dtype=object).astype(str), SEP
            )
            # frontier (v, u, d): co-locate on the middle node u
            return pa.Table.from_arrays(
                [pa.array(parts[:, 2].astype(object), pa.string()),
                 pa.array(parts[:, 0].astype(object), pa.string()),
                 pa.array(np.full(t.num_rows, kk - 1, np.int64))],
                names=["mid", "other", "d"],
            )

        unioned = adj_tagged.union(
            pairs.map_batches(front_rows, batch_format="pyarrow")
        )

        def cross_block(batch: pa.Table, starts: np.ndarray,
                        ends: np.ndarray, kk=kk) -> pa.Table:
            other = np.asarray(
                batch["other"].to_pylist(), dtype=object).astype(str)
            d = batch["d"].to_numpy(zero_copy_only=False)
            keys = []
            for s, e in zip(starts, ends):
                seg_o, seg_d = other[s:e], d[s:e]
                w = seg_o[seg_d == 0]          # adjacency of mid
                v = seg_o[seg_d == kk - 1]     # frontier sources
                if len(w) == 0 or len(v) == 0:
                    continue
                vv = np.repeat(v, len(w))
                ww = np.tile(w, len(v))
                m = vv != ww
                keys.append(np.char.add(np.char.add(vv[m], SEP), ww[m]))
            ks = np.concatenate(keys) if keys else np.array([], dtype=object)
            return pa.Table.from_arrays(
                [pa.array(ks.astype(object), pa.string()),
                 pa.array(np.full(len(ks), kk, np.int64))],
                names=["k", "d"],
            )

        expanded = sorted_segment_apply(
            unioned, key_col="mid", block_fn=cross_block,
            within_cols=["d", "other"],
        )
        # Loop-carried: cap blocks + drop plan history (see sever_lineage).
        pairs = sever_lineage(
            pairs.union(expanded).groupby("k").min("d").map_batches(
                lambda t: t.rename_columns(["k", "d"]),
                batch_format="pyarrow",
            ),
            num_blocks=adj_tagged.num_blocks(),
        )

    def score_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.int64()),
                 pa.array([], pa.int64())],
                names=["host", "n_reached", "harmonic_milli"],
            )
        parts = np.char.partition(
            np.asarray(batch["k"].to_pylist(), dtype=object).astype(str), SEP
        )
        d = batch["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = parts[:, 0]
        un, inv = np.unique(v, return_inverse=True)
        milli = np.zeros(len(un), np.int64)
        cnt = np.zeros(len(un), np.int64)
        np.add.at(milli, inv, 1000 // d)
        np.add.at(cnt, inv, 1)
        return pa.Table.from_arrays(
            [pa.array(un.astype(object), pa.string()),
             pa.array(cnt), pa.array(milli)],
            names=["host", "n_reached", "harmonic_milli"],
        )

    out = (
        pairs.map_batches(score_partial, batch_format="pyarrow",
                          batch_size=None)
        .groupby("host")
        .sum(["n_reached", "harmonic_milli"])
    )
    df = out.to_pandas().rename(
        columns={"sum(n_reached)": "n_reached",
                 "sum(harmonic_milli)": "harmonic_milli"}
    )
    return (
        df.sort_values("host")
        .reset_index(drop=True)
        .astype({"n_reached": "int64", "harmonic_milli": "int64"})
    )


def ra_link_prediction(
    edges_ds,
    k: int = 20,
    hub_cap: int = 10_000,
    u_col: str = "src_host",
    v_col: str = "dst_host",
):
    """Resource-Allocation link prediction (Zhou–Lü–Zhang 2009) over the
    undirected(ized) host graph: for every NON-adjacent unordered pair
    (a, b) sharing a common neighbor, ``ra_micro = Σ_{z ∈ N(a)∩N(b)}
    10^6 // deg(z)`` — integer-exact micro-units — plus the common-
    neighbor count; top-k pairs by (ra_micro desc, pair). The classic
    "which links are missing" primitive for crawl frontier seeding and
    mirror discovery.

    Shape: degrees never broadcast — ``deg(z)`` IS the segment length in
    the ONE sort grouping the symmetric adjacency by z, where a
    vectorized triu kernel emits each z's neighbor pairs with their
    credit. Wedge cardinality is Σ deg(z)², so nodes with ``deg(z) >
    hub_cap`` are skipped — the standard LP truncation (each such z
    contributes ≤ 10^6/hub_cap per pair); the cap is replicated in the
    SQL oracle, not silent. Then one ``groupby(pair).sum``, a
    sorted-lookup ANTI-join dropping existing edges
    (:func:`..ops.segments.attach_lookup`), and a top-k sort. Returns a
    pandas DataFrame ``(host_a, host_b, cn, ra_micro, rank)``.
    """
    import pandas as pd

    from .segments import attach_lookup, sorted_segment_apply

    SEP = "\x1f"

    def canon(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch[u_col].to_pylist(), dtype=object).astype(str)
        v = np.asarray(batch[v_col].to_pylist(), dtype=object).astype(str)
        keep = u != v
        u, v = u[keep], v[keep]
        fwd = u < v
        lo = np.where(fwd, u, v)
        hi = np.where(fwd, v, u)
        pairs = np.unique(np.char.add(np.char.add(lo, SEP), hi))
        return pa.Table.from_arrays(
            [pa.array(pairs.astype(object), pa.string()),
             pa.array(np.ones(len(pairs), np.int64))],
            names=["e", "one"],
        )

    edges = (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby("e")
        .sum("one")
        .map_batches(
            lambda t: pa.Table.from_arrays(
                [t["e"].combine_chunks()], names=["e"]),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def adj_rows(batch: pa.Table) -> pa.Table:
        parts = np.char.partition(
            np.asarray(batch["e"].to_pylist(), dtype=object).astype(str), SEP
        )
        z = np.concatenate([parts[:, 0], parts[:, 2]])
        x = np.concatenate([parts[:, 2], parts[:, 0]])
        return pa.Table.from_arrays(
            [pa.array(z.astype(object), pa.string()),
             pa.array(x.astype(object), pa.string())],
            names=["z", "x"],
        )

    adj = edges.map_batches(adj_rows, batch_format="pyarrow")

    def pair_block(batch: pa.Table, starts: np.ndarray,
                   ends: np.ndarray) -> pa.Table:
        x = np.asarray(batch["x"].to_pylist(), dtype=object).astype(str)
        keys, cred = [], []
        for s, e in zip(starts, ends):
            d = e - s
            if d < 2 or d > hub_cap:
                continue
            seg = x[s:e]  # sorted by the within_cols sort: seg[i] < seg[j]
            i, j = np.triu_indices(d, k=1)
            keys.append(np.char.add(np.char.add(seg[i], SEP), seg[j]))
            cred.append(np.full(len(i), 10**6 // d, np.int64))
        ks = np.concatenate(keys) if keys else np.array([], dtype=object)
        cs = (np.concatenate(cred) if cred
              else np.array([], dtype=np.int64))
        return pa.Table.from_arrays(
            [pa.array(ks.astype(object), pa.string()),
             pa.array(cs, pa.int64()),
             pa.array(np.ones(len(ks), np.int64))],
            names=["p", "ra", "one"],
        )

    wedges = sorted_segment_apply(
        adj, key_col="z", block_fn=pair_block, within_cols=["x"]
    )
    scored = (
        wedges.groupby("p")
        .sum(["ra", "one"])
        .map_batches(
            lambda t: t.rename_columns(["p", "ra_micro", "cn"]),
            batch_format="pyarrow",
        )
    )
    scored = scored.materialize()
    if scored.schema() is None or scored.count() == 0:
        return pd.DataFrame(
            {
                "host_a": pd.array([], dtype="object"),
                "host_b": pd.array([], dtype="object"),
                "cn": pd.array([], dtype="int64"),
                "ra_micro": pd.array([], dtype="int64"),
                "rank": pd.array([], dtype="int64"),
            }
        )
    missing = attach_lookup(
        scored,
        edges.map_batches(
            lambda t: t.rename_columns(["p"]), batch_format="pyarrow"),
        key_col="p", val_cols=[], carry_cols=["ra_micro", "cn"],
        anti=True,
    )
    top = missing.sort(["ra_micro", "p"], descending=[True, False]).limit(k)
    rows = top.take_all()
    hosts_a, hosts_b, cns, ras = [], [], [], []
    for r in rows:
        a, _, b = r["p"].partition(SEP)
        hosts_a.append(a)
        hosts_b.append(b)
        cns.append(int(r["cn"]))
        ras.append(int(r["ra_micro"]))
    return pd.DataFrame(
        {
            "host_a": hosts_a,
            "host_b": hosts_b,
            "cn": pd.array(cns, dtype="int64"),
            "ra_micro": pd.array(ras, dtype="int64"),
            "rank": pd.array(range(1, len(rows) + 1), dtype="int64"),
        }
    )


def salsa_scores(
    edges,
    num_iters: int = 2,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    scale: int = 10**12,
):
    """Fixed-point SALSA (Lempel–Moran 2000) over the distinct directed
    edge set — the degree-normalized cousin of HITS whose hub/authority
    chains are random walks on the bipartite support graph, famously
    robust to the tightly-knit-community effect that inflates HITS.

    Integer fixed-point at ``scale``: authorities start uniform
    (``scale // n_auth`` on nodes with indegree), then each iteration is
    two half-steps of per-edge floor contributions —
    ``h(j) = Σ_{(j,i)∈E} a(i) // indeg(i)`` and
    ``a'(i) = Σ_{(j,i)∈E} h(j) // outdeg(j)`` — order-independent
    integer sums, bit-exact at any layout and in SQL (the oracle
    unrolls the rounds as chained CTEs with the same ``//``).

    ONE regime, scale-safe at every size: the static degree columns
    attach onto the edge list once (two sorted-lookup joins,
    :func:`..ops.segments.attach_lookup`), then each half-step is one
    score attach + one groupby-sum — nodes and edges never land on the
    driver. Returns a Dataset ``(host, hub, auth)`` over all endpoint
    nodes (0 where a side doesn't apply).
    """
    from .segments import attach_lookup, sever_lineage

    def distinct_edges(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch[src_col].to_pylist(), dtype=object).astype(str)
        d = np.asarray(batch[dst_col].to_pylist(), dtype=object).astype(str)
        keep = s != d
        s, d = s[keep], d[keep]
        k = np.unique(np.char.add(np.char.add(s, "\x1f"), d))
        return pa.Table.from_arrays(
            [pa.array(k.astype(object), pa.string()),
             pa.array(np.ones(len(k), np.int64))],
            names=["k", "one"],
        )

    def split_k(batch: pa.Table) -> pa.Table:
        parts = np.char.partition(
            np.asarray(batch["k"].to_pylist(), dtype=object).astype(str),
            "\x1f",
        )
        return pa.Table.from_arrays(
            [pa.array(parts[:, 0].astype(object), pa.string()),
             pa.array(parts[:, 2].astype(object), pa.string())],
            names=["src", "dst"],
        )

    e = (
        edges.map_batches(distinct_edges, batch_format="pyarrow")
        .groupby("k")
        .sum("one")
        .map_batches(split_k, batch_format="pyarrow")
        .materialize()
    )
    outdeg = (
        e.groupby("src")
        .count()
        .map_batches(lambda t: t.rename_columns(["src", "od"]),
                     batch_format="pyarrow")
        .materialize()
    )
    indeg = (
        e.groupby("dst")
        .count()
        .map_batches(lambda t: t.rename_columns(["dst", "idg"]),
                     batch_format="pyarrow")
        .materialize()
    )
    n_auth = indeg.count()
    if n_auth == 0:
        import ray.data as rd

        return rd.from_items([])

    # static degree attach, once: (src, dst, od, idg)
    e_od = attach_lookup(e, outdeg, key_col="src", val_cols=["od"],
                         carry_cols=["dst"])
    e_full = attach_lookup(
        e_od, indeg, key_col="dst", val_cols=["idg"],
        carry_cols=["src", "od"],
    ).materialize()

    a = indeg.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["dst"].combine_chunks(),
             pa.array(np.full(t.num_rows, scale // n_auth, np.int64))],
            names=["dst", "a"]),
        batch_format="pyarrow",
    ).materialize()

    h = None
    for _ in range(num_iters):
        withs = attach_lookup(
            e_full, a, key_col="dst", val_cols=["a"],
            carry_cols=["src", "od", "idg"],
        )

        def h_contrib(batch: pa.Table) -> pa.Table:
            av = batch["a"].to_numpy(zero_copy_only=False)
            dg = batch["idg"].to_numpy(zero_copy_only=False)
            return pa.Table.from_arrays(
                [batch["src"].combine_chunks(),
                 pa.array(av // dg, pa.int64())],
                names=["src", "c"],
            )

        h = sever_lineage(
            withs.map_batches(h_contrib, batch_format="pyarrow")
            .groupby("src")
            .sum("c")
            .map_batches(lambda t: t.rename_columns(["src", "h"]),
                         batch_format="pyarrow")
        )
        withh = attach_lookup(
            e_full, h, key_col="src", val_cols=["h"],
            carry_cols=["dst", "od", "idg"],
        )

        def a_contrib(batch: pa.Table) -> pa.Table:
            hv = batch["h"].to_numpy(zero_copy_only=False)
            od = batch["od"].to_numpy(zero_copy_only=False)
            return pa.Table.from_arrays(
                [batch["dst"].combine_chunks(),
                 pa.array(hv // od, pa.int64())],
                names=["dst", "c"],
            )

        a = sever_lineage(
            withh.map_batches(a_contrib, batch_format="pyarrow")
            .groupby("dst")
            .sum("c")
            .map_batches(lambda t: t.rename_columns(["dst", "a"]),
                         batch_format="pyarrow")
        )

    def endpoints(batch: pa.Table) -> pa.Table:
        hs = np.concatenate([
            np.asarray(batch["src"].to_pylist(), dtype=object),
            np.asarray(batch["dst"].to_pylist(), dtype=object),
        ])
        return pa.Table.from_arrays(
            [pa.array(np.unique(hs.astype(str)).astype(object),
                      pa.string())],
            names=["host"],
        )

    nodes = (
        e.map_batches(endpoints, batch_format="pyarrow")
        .groupby("host")
        .count()
        .map_batches(
            lambda t: pa.Table.from_arrays(
                [t["host"].combine_chunks()], names=["host"]),
            batch_format="pyarrow",
        )
    )

    def zeros2(t: pa.Table) -> pa.Table:
        z = pa.array(np.zeros(t.num_rows, np.int64))
        return pa.Table.from_arrays(
            [t["host"].combine_chunks(), z, z],
            names=["host", "hub", "auth"],
        )

    h_rows = h.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["src"].combine_chunks(),
             t["h"].combine_chunks(),
             pa.array(np.zeros(t.num_rows, np.int64))],
            names=["host", "hub", "auth"]),
        batch_format="pyarrow",
    )
    a_rows = a.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["dst"].combine_chunks(),
             pa.array(np.zeros(t.num_rows, np.int64)),
             t["a"].combine_chunks()],
            names=["host", "hub", "auth"]),
        batch_format="pyarrow",
    )
    return (
        nodes.map_batches(zeros2, batch_format="pyarrow")
        .union(h_rows)
        .union(a_rows)
        .groupby("host")
        .sum(["hub", "auth"])
        .map_batches(
            lambda t: t.rename_columns(["host", "hub", "auth"]),
            batch_format="pyarrow",
        )
    )


def _ktruss_driver(edge_keys, k: int, rounds: int, sep: str):
    """Driver-regime synchronous truss peel (numpy, exact): the same
    degree-orientation wedge enumeration as the distributed rounds, on
    a collected canonical edge list — the under-cap fast path mirroring
    ``connected_components``' driver union-find regime."""
    parts = np.char.partition(
        np.asarray(edge_keys, dtype=object).astype(str), sep)
    a, b = parts[:, 0], parts[:, 2]
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ia, ib = inv[: len(a)], inv[len(a):]
    n = len(nodes)
    for _ in range(rounds):
        if len(ia) == 0:
            break
        deg = np.bincount(np.concatenate([ia, ib]), minlength=n)
        key = deg * np.int64(n) + np.arange(n)  # (deg, id) total order
        fwd = key[ia] < key[ib]
        src = np.where(fwd, ia, ib)
        dst = np.where(fwd, ib, ia)
        order = np.lexsort((key[dst], src))
        src, dst = src[order], dst[order]
        starts = np.searchsorted(src, np.unique(src))
        ends = np.append(starts[1:], len(src))
        wk, wu = [], []
        for s, e in zip(starts, ends):
            seg = dst[s:e]
            if len(seg) < 2:
                continue
            i, j = np.triu_indices(len(seg), k=1)
            wk.append(seg[i] * np.int64(n) + seg[j])
            wu.append(np.full(len(i), src[s], np.int64))
        if not wk:
            ia = ib = np.array([], dtype=np.int64)
            break
        wkv = np.concatenate(wk)
        wuv = np.concatenate(wu)
        ekeys = src * np.int64(n) + dst
        closed = np.isin(wkv, ekeys)
        wkv, wuv = wkv[closed], wuv[closed]
        v, w = wkv // n, wkv % n
        u = wuv

        def canon_pack(x, y):
            lo = np.minimum(x, y)
            hi = np.maximum(x, y)
            return lo * np.int64(n) + hi

        allk = np.concatenate(
            [canon_pack(u, v), canon_pack(u, w), canon_pack(v, w)])
        un, cn = np.unique(allk, return_counts=True)
        keep = un[cn >= k - 2]
        cp = canon_pack(ia, ib)
        m = np.isin(cp, keep)
        ia, ib = ia[m], ib[m]
    lo = np.minimum(ia, ib)
    hi = np.maximum(ia, ib)
    rows = sorted(zip(nodes[lo], nodes[hi]))
    return rows


def ktruss_edges(
    edges_ds,
    k: int = 4,
    rounds: int = 3,
    u_col: str = "src_host",
    v_col: str = "dst_host",
    driver_edge_cap: int = 500_000,
):
    """Fixed-round k-truss peel (Cohen 2008) of the undirected simple
    graph: ``rounds`` synchronous rounds each dropping every edge in
    fewer than ``k−2`` triangles — the standard dense-core detector for
    link farms and mirror rings, strictly stronger than k-core. A fixed
    round count (like the repo's PageRank/label-propagation) keeps the
    result bit-exact and lets the SQL oracle UNROLL the peels as
    chained CTEs; full convergence is the ``rounds → ∞`` limit and the
    synchronous rounds are monotone (each is a superset of the fixed
    point).

    Per round the triangle enumeration is the same degree-orientation
    construction as :func:`triangle_count` — each surviving triangle
    found once as a closed wedge, then credited to ALL THREE of its
    edges — one ``groupby(edge).sum`` scores support, and edges below
    ``k−2`` drop in-block. Exchanges per round: degree groupby, one
    orientation sort, the closing-edge sorted-lookup semi-join
    (:func:`..ops.segments.attach_lookup`), one support groupby.

    Regimes (size-gated like ``connected_components``): at ≤
    ``driver_edge_cap`` canonical edges the peel runs as one vectorized
    numpy pass on the driver (same algorithm, equivalence-tested);
    above it every round is the distributed exchange set over the
    monotonically shrinking survivor edge list. Returns a pandas
    DataFrame ``(host_a, host_b)`` of surviving edges, sorted.
    """
    import pandas as pd

    from .segments import attach_lookup, sever_lineage, sorted_segment_apply

    if k < 3:
        raise ValueError("ktruss_edges: k must be >= 3")

    SEP = "\x1f"

    def canon(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch[u_col].to_pylist(), dtype=object).astype(str)
        v = np.asarray(batch[v_col].to_pylist(), dtype=object).astype(str)
        keep = u != v
        u, v = u[keep], v[keep]
        fwd = u < v
        lo = np.where(fwd, u, v)
        hi = np.where(fwd, v, u)
        pairs = np.unique(np.char.add(np.char.add(lo, SEP), hi))
        return pa.Table.from_arrays(
            [pa.array(pairs.astype(object), pa.string()),
             pa.array(np.ones(len(pairs), np.int64))],
            names=["e", "one"],
        )

    edges = (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby("e")
        .sum("one")
        .map_batches(
            lambda t: pa.Table.from_arrays(
                [t["e"].combine_chunks()], names=["e"]),
            batch_format="pyarrow",
        )
        .materialize()
    )

    if edges.count() <= driver_edge_cap:
        keys = [
            x
            for bt in edges.iter_batches(batch_format="pyarrow")
            for x in bt["e"].to_pylist()
        ]
        if not keys:
            return pd.DataFrame({"host_a": [], "host_b": []})
        rows = _ktruss_driver(keys, k, rounds, SEP)
        return pd.DataFrame(
            {
                "host_a": [r[0] for r in rows],
                "host_b": [r[1] for r in rows],
            }
        )

    def degree_partial(batch: pa.Table) -> pa.Table:
        parts = np.char.partition(
            np.asarray(batch["e"].to_pylist(), dtype=object).astype(str),
            SEP,
        )
        nodes = np.concatenate([parts[:, 0], parts[:, 2]])
        un, cn = np.unique(nodes, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(un.astype(object), pa.string()),
             pa.array(cn, pa.int64())],
            names=["node", "d"],
        )

    def split_pairs(batch: pa.Table) -> pa.Table:
        parts = np.char.partition(
            np.asarray(batch["e"].to_pylist(), dtype=object).astype(str),
            SEP,
        )
        return pa.Table.from_arrays(
            [pa.array(parts[:, 0].astype(object), pa.string()),
             pa.array(parts[:, 2].astype(object), pa.string())],
            names=["a", "b"],
        )

    for _ in range(rounds):
        if edges.count() == 0:
            break
        degs = (
            edges.map_batches(degree_partial, batch_format="pyarrow",
                              batch_size=None)
            .groupby("node")
            .sum("d")
            .map_batches(lambda t: t.rename_columns(["node", "d"]),
                         batch_format="pyarrow")
        )
        pairs = edges.map_batches(split_pairs, batch_format="pyarrow")
        with_da = attach_lookup(
            pairs,
            degs.map_batches(
                lambda t: t.rename_columns(["a", "d_a"]),
                batch_format="pyarrow"),
            key_col="a", val_cols=["d_a"], carry_cols=["b"],
        ).map_batches(
            lambda t: pa.Table.from_arrays(
                [t["b"].combine_chunks(), t["a"].combine_chunks(),
                 t["d_a"].combine_chunks()],
                names=["b", "a", "d_a"]),
            batch_format="pyarrow",
        )
        with_both = attach_lookup(
            with_da,
            degs.map_batches(
                lambda t: t.rename_columns(["b", "d_b"]),
                batch_format="pyarrow"),
            key_col="b", val_cols=["d_b"], carry_cols=["a", "d_a"],
        )

        def orient(batch: pa.Table) -> pa.Table:
            a = batch["a"].to_numpy(zero_copy_only=False).astype(str)
            b = batch["b"].to_numpy(zero_copy_only=False).astype(str)
            da = batch["d_a"].to_numpy(zero_copy_only=False)
            db = batch["d_b"].to_numpy(zero_copy_only=False)
            fwd = (da < db) | ((da == db) & (a < b))
            src = np.where(fwd, a, b)
            dst = np.where(fwd, b, a)
            dd = np.where(fwd, db, da)
            return pa.Table.from_arrays(
                [pa.array(src.astype(object), pa.string()),
                 pa.array(dst.astype(object), pa.string()),
                 pa.array(dd.astype(np.int64), pa.int64())],
                names=["src", "dst", "d_dst"],
            )

        oriented = with_both.map_batches(
            orient, batch_format="pyarrow").materialize()

        def wedge_block(batch: pa.Table, starts: np.ndarray,
                        ends: np.ndarray) -> pa.Table:
            src = np.asarray(
                batch["src"].to_pylist(), dtype=object).astype(str)
            dst = np.asarray(
                batch["dst"].to_pylist(), dtype=object).astype(str)
            keys, apex = [], []
            for s, e_ in zip(starts, ends):
                seg = dst[s:e_]
                if len(seg) < 2:
                    continue
                i, j = np.triu_indices(len(seg), k=1)
                keys.append(np.char.add(np.char.add(seg[i], SEP), seg[j]))
                apex.append(np.repeat(src[s], len(i)))
            ks = (np.concatenate(keys) if keys
                  else np.array([], dtype=object))
            us = (np.concatenate(apex) if apex
                  else np.array([], dtype=object))
            return pa.Table.from_arrays(
                [pa.array(ks.astype(object), pa.string()),
                 pa.array(us.astype(object), pa.string())],
                names=["w", "u"],
            )

        wedges = sorted_segment_apply(
            oriented, key_col="src", block_fn=wedge_block,
            within_cols=["d_dst", "dst"],
        )

        def probe_key(batch: pa.Table) -> pa.Table:
            src = np.asarray(
                batch["src"].to_pylist(), dtype=object).astype(str)
            dst = np.asarray(
                batch["dst"].to_pylist(), dtype=object).astype(str)
            return pa.Table.from_arrays(
                [pa.array(
                    np.char.add(np.char.add(src, SEP), dst).astype(object),
                    pa.string())],
                names=["w"],
            )

        closed = attach_lookup(
            wedges,
            oriented.map_batches(probe_key, batch_format="pyarrow"),
            key_col="w", val_cols=[], carry_cols=["u"],
        )

        def edge_credits(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return pa.Table.from_arrays(
                    [pa.array([], pa.string()),
                     pa.array([], pa.int64())],
                    names=["e", "s"],
                )
            parts = np.char.partition(
                np.asarray(batch["w"].to_pylist(),
                           dtype=object).astype(str), SEP)
            u = np.asarray(batch["u"].to_pylist(), dtype=object).astype(str)
            v, w = parts[:, 0], parts[:, 2]

            def ckey(x, y):
                # np.minimum lacks a unicode loop; select instead
                swap = x > y
                lo = np.where(swap, y, x)
                hi = np.where(swap, x, y)
                return np.char.add(np.char.add(lo, SEP), hi)

            # canonical keys of the three edges of each triangle (wedge
            # pairs are (degree, id)-ordered, not lexicographic)
            e1 = ckey(u, v)
            e2 = ckey(u, w)
            e3 = ckey(v, w)
            allk = np.concatenate([e1, e2, e3])
            un, cn = np.unique(allk, return_counts=True)
            return pa.Table.from_arrays(
                [pa.array(un.astype(object), pa.string()),
                 pa.array(cn, pa.int64())],
                names=["e", "s"],
            )

        support = (
            closed.map_batches(edge_credits, batch_format="pyarrow",
                               batch_size=None)
            .groupby("e")
            .sum("s")
        )

        def keep(batch: pa.Table) -> pa.Table:
            s = batch["sum(s)"].to_numpy(zero_copy_only=False)
            t = batch.filter(pa.array(s >= k - 2))
            return pa.Table.from_arrays(
                [t["e"].combine_chunks()], names=["e"])

        # edges is referenced three times per round (degrees, pairs,
        # probe): sever or the plan graph grows 3x per round.
        edges = sever_lineage(
            support.map_batches(keep, batch_format="pyarrow"),
            num_blocks=edges.num_blocks(),
        )

    parts_rows = []
    for b in edges.iter_batches(batch_format="pyarrow"):
        for e_ in b["e"].to_pylist():
            a, _, c = e_.partition(SEP)
            parts_rows.append((a, c))
    parts_rows.sort()
    return pd.DataFrame(
        {
            "host_a": [r[0] for r in parts_rows],
            "host_b": [r[1] for r in parts_rows],
        }
    )


def degree_assortativity(
    edges_ds,
    u_col: str = "src_host",
    v_col: str = "dst_host",
):
    """Exact degree assortativity (Newman 2002) of the undirected simple
    graph — do hubs link to hubs? Web graphs are famously
    DISassortative (r < 0); spam farms skew positive. Over the
    symmetric closure (each undirected edge counted in both directions)
    the endpoint-degree distributions are identical, so Pearson's r is
    the EXACT RATIONAL ``num/den`` with ``num = n·Σxy − (Σx)²`` and
    ``den = n·Σx² − (Σx)²`` — no square root, hence integer-exact:
    ``r_milli = sign · (1000·|num|) // |den|`` (magnitude-truncating
    division, matching SQL's ``//``).

    Shape: canonical-edge dedup groupby, degree groupby, two
    sorted-lookup attaches (:func:`..ops.segments.attach_lookup`)
    putting both endpoint degrees on each edge, per-block moment
    partials (guarded int64 fast path, Python-int fallback past the
    overflow bound) reduced on the driver — one row per block. Returns
    a one-row pandas DataFrame
    ``(n_pairs, sx, sxx, sxy, num, den, r_milli)``.
    """
    import pandas as pd

    from .segments import attach_lookup

    SEP = "\x1f"

    def canon(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch[u_col].to_pylist(), dtype=object).astype(str)
        v = np.asarray(batch[v_col].to_pylist(), dtype=object).astype(str)
        keep = u != v
        u, v = u[keep], v[keep]
        fwd = u < v
        lo = np.where(fwd, u, v)
        hi = np.where(fwd, v, u)
        pairs = np.unique(np.char.add(np.char.add(lo, SEP), hi))
        return pa.Table.from_arrays(
            [pa.array(pairs.astype(object), pa.string()),
             pa.array(np.ones(len(pairs), np.int64))],
            names=["e", "one"],
        )

    edges = (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby("e")
        .sum("one")
        .map_batches(
            lambda t: pa.Table.from_arrays(
                [t["e"].combine_chunks()], names=["e"]),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def degree_partial(batch: pa.Table) -> pa.Table:
        parts = np.char.partition(
            np.asarray(batch["e"].to_pylist(), dtype=object).astype(str),
            SEP,
        )
        nodes = np.concatenate([parts[:, 0], parts[:, 2]])
        un, cn = np.unique(nodes, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(un.astype(object), pa.string()),
             pa.array(cn, pa.int64())],
            names=["node", "d"],
        )

    degs = (
        edges.map_batches(degree_partial, batch_format="pyarrow",
                          batch_size=None)
        .groupby("node")
        .sum("d")
    )

    def sym_rows(batch: pa.Table) -> pa.Table:
        parts = np.char.partition(
            np.asarray(batch["e"].to_pylist(), dtype=object).astype(str),
            SEP,
        )
        a = np.concatenate([parts[:, 0], parts[:, 2]])
        b = np.concatenate([parts[:, 2], parts[:, 0]])
        return pa.Table.from_arrays(
            [pa.array(a.astype(object), pa.string()),
             pa.array(b.astype(object), pa.string())],
            names=["u", "v"],
        )

    sym = edges.map_batches(sym_rows, batch_format="pyarrow")
    with_x = attach_lookup(
        sym,
        degs.map_batches(lambda t: t.rename_columns(["u", "x"]),
                         batch_format="pyarrow"),
        key_col="u", val_cols=["x"], carry_cols=["v"],
    )
    with_xy = attach_lookup(
        with_x,
        degs.map_batches(lambda t: t.rename_columns(["v", "y"]),
                         batch_format="pyarrow"),
        key_col="v", val_cols=["y"], carry_cols=["u", "x"],
    )

    def moments(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch["y"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(x)
        # int64 fast path is safe while n·max_deg² < 2^62 per block
        if n and int(x.max()) ** 2 * n < (1 << 62):
            sx = int(x.sum())
            sxy = int((x * y).sum())
            sxx = int((x * x).sum())
        else:
            sx = sum(int(v) for v in x)
            sxy = sum(int(a) * int(b) for a, b in zip(x, y))
            sxx = sum(int(v) ** 2 for v in x)
        return pa.Table.from_arrays(
            [pa.array([n], pa.int64()), pa.array([sx], pa.int64()),
             pa.array([sxy], pa.int64()), pa.array([sxx], pa.int64())],
            names=["n", "sx", "sxy", "sxx"],
        )

    rows = with_xy.map_batches(
        moments, batch_format="pyarrow", batch_size=None
    ).take_all()
    n = sum(r["n"] for r in rows)
    sx = sum(int(r["sx"]) for r in rows)
    sxy = sum(int(r["sxy"]) for r in rows)
    sxx = sum(int(r["sxx"]) for r in rows)
    num = n * sxy - sx * sx
    den = n * sxx - sx * sx
    if den == 0:
        r_milli = 0
    else:
        sign = -1 if (num < 0) != (den < 0) else 1
        r_milli = sign * ((1000 * abs(num)) // abs(den))
    return pd.DataFrame(
        {
            "n_pairs": [n], "sx": [sx], "sxx": [sxx], "sxy": [sxy],
            "num": [num], "den": [den], "r_milli": [r_milli],
        }
    ).astype("int64")


def random_walks(
    edges_ds,
    walk_len: int = 4,
    walks_per_node: int = 2,
    src_col: str = "src",
    dst_col: str = "dst",
):
    """Deterministic DeepWalk-style random-walk corpus over the
    undirected(ized) graph — the input stage of graph-embedding
    training (DeepWalk/node2vec): ``walks_per_node`` walks start at
    every node and take ``walk_len − 1`` steps, step ``t`` of walk
    ``w`` choosing ``neighbors[splitmix64(walk_id·1024 + t) mod deg]``
    over the id-sorted neighbor list. splitmix64 replaces the RNG, so
    the corpus is bit-reproducible at any layout AND in SQL (the
    oracle replays every pick with the repo's HUGEINT splitmix chain).

    Node ids must be int64 (dense-rank mapping for strings);
    ``walks_per_node ≤ 1024`` keeps walk ids unique under the packing.
    Shape: adjacency lists build with ONE sort (sorted-segment kernel →
    Arrow list column, unique per node); each step is one sorted-lookup
    attach of the list onto the walker frontier
    (:func:`..ops.segments.attach_lookup`) + a vectorized modular
    gather — walkers are n·walks_per_node rows, never driver-side.
    Returns a Dataset ``(walk_id, step, node)``.
    """
    from .segments import attach_lookup, sever_lineage, sorted_segment_apply
    from .text import splitmix64_np

    if not 1 <= walks_per_node <= 1024:
        raise ValueError("random_walks: walks_per_node must be in [1,1024]")

    def sym(batch: pa.Table) -> pa.Table:
        s = batch[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        if len(s) and (int(max(s.max(), d.max())) >= 1 << 32
                       or int(min(s.min(), d.min())) < 0):
            raise ValueError("random_walks: node ids must be in [0, 2^32)")
        a = np.concatenate([s, d])
        b = np.concatenate([d, s])
        k = np.unique((a.astype(np.uint64) << np.uint64(32))
                      | b.astype(np.uint64))
        return pa.Table.from_arrays(
            [pa.array(k.astype(np.int64)),
             pa.array(np.ones(len(k), np.int64))],
            names=["k", "one"],
        )

    e = (
        edges_ds.map_batches(sym, batch_format="pyarrow")
        .groupby("k")
        .sum("one")
        .map_batches(
            lambda t: pa.Table.from_arrays(
                [t["k"].combine_chunks()], names=["k"]),
            batch_format="pyarrow",
        )
    )

    def unpack(batch: pa.Table) -> pa.Table:
        k = batch["k"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.Table.from_arrays(
            [pa.array((k >> np.uint64(32)).astype(np.int64)),
             pa.array((k & np.uint64(0xFFFFFFFF)).astype(np.int64))],
            names=["node", "nbr"],
        )

    def list_block(batch: pa.Table, starts: np.ndarray,
                   ends: np.ndarray) -> pa.Table:
        nodes = batch["node"].to_numpy(zero_copy_only=False)
        nbrs = batch["nbr"].to_numpy(zero_copy_only=False)
        if len(starts) == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()),
                 pa.array([], pa.list_(pa.int64()))],
                names=["node", "adj"],
            )
        heads = nodes[starts].astype(np.int64)
        if np.all(ends[:-1] == starts[1:]):
            # segments contiguous: one zero-copy slice builds the lists;
            # fragment rows past ends[-1] are excluded by the offsets
            offsets = np.concatenate((starts, [ends[-1]]))
            adj = pa.ListArray.from_arrays(
                pa.array((offsets - starts[0]).astype(np.int32)),
                pa.array(nbrs[starts[0]:ends[-1]].astype(np.int64)),
            )
        else:  # defensive: gather per segment
            flat = np.concatenate(
                [nbrs[s:e] for s, e in zip(starts, ends)])
            lens = (ends - starts).astype(np.int32)
            offsets = np.concatenate(([0], np.cumsum(lens)))
            adj = pa.ListArray.from_arrays(
                pa.array(offsets.astype(np.int32)),
                pa.array(flat.astype(np.int64)),
            )
        return pa.Table.from_arrays(
            [pa.array(heads), adj], names=["node", "adj"],
        )

    adj_ds = sorted_segment_apply(
        e.map_batches(unpack, batch_format="pyarrow"),
        key_col="node", block_fn=list_block, within_cols=["nbr"],
    ).materialize()

    def start_walkers(batch: pa.Table) -> pa.Table:
        nodes = batch["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        # walk_id = node·1024 + w (w < walks_per_node ≤ 1024)
        wids = (np.repeat(nodes, walks_per_node).astype(np.int64) * 1024
                + np.tile(np.arange(walks_per_node, dtype=np.int64),
                          len(nodes)))
        cur = np.repeat(nodes, walks_per_node).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(wids), pa.array(cur)],
            names=["walk_id", "node"],
        )

    walkers = adj_ds.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["node"].combine_chunks()], names=["node"]),
        batch_format="pyarrow",
    ).map_batches(start_walkers, batch_format="pyarrow").materialize()

    def emit_step(step: int):
        def f(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.Table.from_arrays(
                [batch["walk_id"].combine_chunks(),
                 pa.array(np.full(n, step, np.int64)),
                 batch["node"].combine_chunks()],
                names=["walk_id", "step", "node"],
            )
        return f

    out = walkers.map_batches(emit_step(0), batch_format="pyarrow")

    for t in range(1, walk_len):
        attached = attach_lookup(
            walkers, adj_ds, key_col="node", val_cols=["adj"],
            carry_cols=["walk_id"],
        )

        def step_pick(batch: pa.Table, t=t) -> pa.Table:
            wid = batch["walk_id"].to_numpy(
                zero_copy_only=False).astype(np.int64)
            adj = batch["adj"].combine_chunks()
            offs = adj.offsets.to_numpy(zero_copy_only=False)
            flat = adj.flatten().to_numpy(zero_copy_only=False)
            deg = (offs[1:] - offs[:-1]).astype(np.int64)
            hv = splitmix64_np(
                wid.astype(np.uint64) * np.uint64(1024) + np.uint64(t))
            # NOTE: key packs walk_id·1024 + t; t < 1024 by walk_len cap
            idx = (hv % deg.astype(np.uint64)).astype(np.int64)
            nxt = flat[offs[:-1] + idx].astype(np.int64)
            return pa.Table.from_arrays(
                [pa.array(wid), pa.array(nxt)],
                names=["walk_id", "node"],
            )

        # walkers is referenced twice per step (next attach + out):
        # sever or the plan graph doubles per step (see sever_lineage).
        walkers = sever_lineage(
            attached.map_batches(step_pick, batch_format="pyarrow"),
            num_blocks=walkers.num_blocks(),
        )
        out = out.union(
            walkers.map_batches(emit_step(t), batch_format="pyarrow"))

    return out


def _tarjan_scc(src: np.ndarray, dst: np.ndarray):
    """Driver-regime SCC: iterative Tarjan over integer-indexed edges.
    Returns the lowlink-independent component label array (min member
    index per SCC is applied by the caller)."""
    n = int(max(src.max(), dst.max())) + 1 if len(src) else 0
    order = np.argsort(src, kind="stable")
    s, d = src[order], dst[order]
    starts = np.searchsorted(s, np.arange(n))
    ends = np.searchsorted(s, np.arange(n), side="right")
    index = np.full(n, -1, np.int64)
    low = np.zeros(n, np.int64)
    comp = np.full(n, -1, np.int64)
    on_stack = np.zeros(n, dtype=bool)
    stack: list[int] = []
    counter = 0
    n_comp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, starts[root])]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, ei = work[-1]
            if ei < ends[v]:
                work[-1] = (v, ei + 1)
                w = int(d[ei])
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, starts[w]))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = n_comp
                        if w == v:
                            break
                    n_comp += 1
    return comp


def strongly_connected_components(
    edges_ds,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    driver_edge_cap: int = 2_000_000,
    max_rounds: int = 64,
    max_peels: int = 64,
):
    """Strongly connected components of the directed host graph — the
    primitive behind Broder et al.'s bow-tie web census (the giant CORE
    SCC vs IN/OUT tendrils). Component label = lexicographically
    smallest member, so the labeling is layout-independent and
    SQL-checkable (the oracle grows the transitive closure with a
    recursive CTE and groups mutual-reachability pairs).

    Regimes (size-gated like ``connected_components``): at ≤
    ``driver_edge_cap`` distinct edges an iterative Tarjan runs on the
    driver over integer-indexed edges. Above the cap the distributed
    FW-BW / coloring loop (Fleischer et al.; Orzan) runs: per peel, (1)
    trim — edge-free nodes finalize as singleton SCCs, (2) forward
    min-label propagation to fixpoint colors each node with the
    smallest node reaching it (per round ONE sorted-segment lookup +
    ONE groupby-min with pointer jumping — the connected-components
    exchange shape of ``ops/dedup.py``, directed), (3) the same kernel
    runs backward on the intra-color subgraph, and nodes whose forward
    and backward labels agree are exactly the color roots' SCCs — they
    finalize and drop with their incident edges. Every peel finalizes
    at least the global-minimum live node's SCC; a condensation CHAIN
    of K SCCs needs K peels (``max_peels`` guards the known FW-BW
    worst case; ``max_rounds`` bounds each fixpoint, which pointer
    jumping keeps at O(log diameter)). Every exchange is edges-sized;
    string hosts ride the order-preserving dense-rank mapping so the
    min rank is the lexicographically smallest host, making both
    regimes bit-identical. Returns a pandas DataFrame ``(node, scc)``
    sorted by node.
    """
    import pandas as pd

    from .segments import attach_lookup

    SEP = "\x1f"

    def canon(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch[src_col].to_pylist(), dtype=object).astype(str)
        v = np.asarray(batch[dst_col].to_pylist(), dtype=object).astype(str)
        keep = u != v
        u, v = u[keep], v[keep]
        k = np.unique(np.char.add(np.char.add(u, SEP), v))
        return pa.Table.from_arrays(
            [pa.array(k.astype(object), pa.string()),
             pa.array(np.ones(len(k), np.int64))],
            names=["k", "one"],
        )

    edges = (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby("k")
        .sum("one")
        .map_batches(
            lambda t: pa.Table.from_arrays(
                [t["k"].combine_chunks()], names=["k"]),
            batch_format="pyarrow",
        )
        .materialize()
    )
    n_edges = edges.count()

    if n_edges <= driver_edge_cap:
        keys = [
            x
            for bt in edges.iter_batches(batch_format="pyarrow")
            for x in bt["k"].to_pylist()
        ]
        if not keys:
            return pd.DataFrame({"node": [], "scc": []})
        parts = np.char.partition(
            np.asarray(keys, dtype=object).astype(str), SEP)
        a, b = parts[:, 0], parts[:, 2]
        nodes, inv = np.unique(np.concatenate([a, b]),
                               return_inverse=True)
        comp = _tarjan_scc(inv[: len(a)], inv[len(a):])
        lab = {}
        for i, c in enumerate(comp):
            cur = lab.get(int(c))
            nm = nodes[i]
            if cur is None or nm < cur:
                lab[int(c)] = nm
        return (
            pd.DataFrame(
                {"node": nodes, "scc": [lab[int(c)] for c in comp]})
            .sort_values("node")
            .reset_index(drop=True)
        )

    # ---- distributed FW-BW / Orzan-coloring regime ----
    # Orzan coloring: forward min-label propagation to fixpoint colors
    # each node with the SMALLEST node that can reach it; a node owning
    # its own color is that class's root, and SCC(root) is exactly the
    # members of its class that can reach the root WITHIN the class (the
    # FW ∩ BW intersection of Fleischer et al.). Finalized SCCs drop
    # with their incident edges and the loop repeats; the global minimum
    # live node always roots its class, so every peel finalizes >= 1
    # SCC, and edge-free survivors finalize immediately as singletons
    # (the trim step), which collapses tendrils without a peel each.
    #
    # Each min-label fixpoint round reuses the connected-components
    # exchange shape (ops/dedup.py, round 3): keep / edge / pointer-jump
    # messages fold into ONE sorted-segment lookup
    # (:func:`..segments.sorted_segment_apply`) + ONE ``groupby.min``,
    # so chains contract in O(log diameter) rounds; convergence is the
    # exact label-sum fixpoint from per-block string partials (labels
    # are monotone non-increasing under min), never a node-sized driver
    # pull. String hosts pass through the same order-preserving
    # dense-rank mapping as ``_cc_distributed_mapped`` so the propagated
    # min rank ≡ the lexicographically smallest host.
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Count, Min

    from .segments import sever_lineage, sorted_segment_apply

    def split(batch: pa.Table) -> pa.Table:
        parts = np.char.partition(
            np.asarray(batch["k"].to_pylist(), dtype=object).astype(str),
            SEP,
        )
        return pa.Table.from_arrays(
            [pa.array(parts[:, 0].astype(object), pa.string()),
             pa.array(parts[:, 2].astype(object), pa.string())],
            names=["src", "dst"],
        )

    edges_s = edges.map_batches(split, batch_format="pyarrow")

    def endpoints(batch: pa.Table) -> pa.Table:
        hs = np.concatenate([
            np.asarray(batch["src"].to_pylist(), dtype=object),
            np.asarray(batch["dst"].to_pylist(), dtype=object),
        ])
        return pa.Table.from_arrays(
            [pa.array(np.unique(hs.astype(str)).astype(object),
                      pa.string())],
            names=["node"],
        )

    nodes_sorted = (
        edges_s.map_batches(endpoints, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Count())
        .select_columns(["node"])
        .sort("node")
        .materialize()
    )

    # Dense ranks: per-block (first_key, n) metadata -> cumulative
    # offsets (O(blocks) on the driver, not O(nodes)).
    def block_meta(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.int64())],
                names=["first", "n"],
            )
        return pa.Table.from_arrays(
            [t["node"].slice(0, 1).combine_chunks(),
             pa.array([t.num_rows])],
            names=["first", "n"],
        )

    metas = sorted(
        nodes_sorted.map_batches(
            block_meta, batch_size=None, batch_format="pyarrow"
        ).take_all(),
        key=lambda r: r["first"],
    )
    offsets: dict = {}
    acc = 0
    for r in metas:
        offsets[r["first"]] = acc
        acc += r["n"]
    n_nodes = acc
    oref = ray.put(offsets)

    def add_rank(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("nid", pa.array([], pa.int64()))
        off = ray.get(oref)[t["node"][0].as_py()]
        return t.append_column(
            "nid", pa.array(off + np.arange(t.num_rows, dtype=np.int64))
        )

    node_index = nodes_sorted.map_batches(
        add_rank, batch_size=None, batch_format="pyarrow"
    ).materialize()

    def rekey(*names):
        def f(t: pa.Table) -> pa.Table:
            return t.rename_columns(list(names))

        return f

    e1 = attach_lookup(
        edges_s,
        node_index.map_batches(rekey("src", "nid_s"),
                               batch_format="pyarrow"),
        key_col="src", val_cols=["nid_s"], carry_cols=["dst"],
    )
    e2 = attach_lookup(
        e1,
        node_index.map_batches(rekey("dst", "nid_d"),
                               batch_format="pyarrow"),
        key_col="dst", val_cols=["nid_d"], carry_cols=["nid_s"],
    )
    int_edges = e2.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["nid_s"].combine_chunks(), t["nid_d"].combine_chunks()],
            names=["src", "dst"]),
        batch_format="pyarrow",
    ).materialize()

    # rank -> host translation array; same driver bound as the returned
    # frame (the function's contract is a driver-resident result).
    rank_ids = np.empty(n_nodes, dtype=object)
    for bt in node_index.iter_batches(batch_format="pyarrow"):
        rank_ids[bt["nid"].to_numpy()] = np.asarray(
            bt["node"].to_pylist(), dtype=object)

    SENT = np.iinfo(np.int64).max
    # Per-round block-count cap: groupby/sort output blocks scale with
    # INPUT blocks, and each round unions two label-derived row sets, so
    # without a coalesce the block count doubles per round (measured:
    # 17 -> 41 -> 89 -> ... on a 5-node fixture, round time tripling).
    # repartition here is the cheap streaming split/merge, not a shuffle.
    part_cap = max(
        int_edges.num_blocks(),
        int(ray.cluster_resources().get("CPU", 8)),
    )

    def sever(ds):
        # Loop-carried datasets drop their lazy-plan history each round
        # (see :func:`..segments.sever_lineage` for the measurement).
        return sever_lineage(ds)

    def label_sum(lab_ds) -> int:
        # Exact per-block partial sums riding as strings (ops/dedup.py
        # _label_sum): one tiny row per block, O(blocks) take_all.
        def block_sum(t: pa.Table) -> pa.Table:
            arr = t["label"].to_numpy(zero_copy_only=False)
            s = int(arr.sum(dtype=object)) if len(arr) else 0
            return pa.Table.from_arrays([pa.array([str(s)])], names=["s"])

        parts = lab_ds.map_batches(
            block_sum, batch_size=None, batch_format="pyarrow"
        ).take_all()
        return sum(int(r["s"]) for r in parts)

    def lookup_kernel(
        batch: pa.Table, starts: np.ndarray, ends: np.ndarray
    ) -> pa.Table:
        # Identical shape to the CC kernel (ops/dedup.py lookup_kernel):
        # per complete key segment, the table row's label (query rows
        # carry the SENT sentinel, so min picks the table row) is
        # emitted once as the keep message and once per query row to
        # its dst — pure reduceat/gather arithmetic, no per-group loop.
        lab = batch["lab"].to_numpy(zero_copy_only=False)
        dst = batch["dst"].to_numpy(zero_copy_only=False)
        has = batch["has_dst"].to_numpy(zero_copy_only=False).astype(bool)
        keys = batch["key"].to_numpy(zero_copy_only=False)
        lens = (ends - starts).astype(np.int64)
        total = int(lens.sum())
        if total == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=["node", "cand"],
            )
        gstarts = np.cumsum(lens) - lens
        within = np.arange(total, dtype=np.int64) - np.repeat(gstarts, lens)
        abs_idx = np.repeat(starts.astype(np.int64), lens) + within
        seg_lab = np.minimum.reduceat(lab[abs_idx], gstarts)
        seg_lab = np.minimum(seg_lab, keys[starts.astype(np.int64)])
        q = has[abs_idx]
        seg_of_row = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        node_out = np.concatenate(
            [keys[starts.astype(np.int64)], dst[abs_idx][q]])
        cand_out = np.concatenate([seg_lab, seg_lab[seg_of_row[q]]])
        return pa.Table.from_arrays(
            [pa.array(node_out.astype(np.int64)),
             pa.array(cand_out.astype(np.int64))],
            names=["node", "cand"],
        )

    def tab_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.Table.from_arrays(
            [t["node"].combine_chunks(),
             pa.array(np.zeros(n, np.int64)),
             pa.array(np.zeros(n, np.int8)),
             t["label"].combine_chunks()],
            names=["key", "dst", "has_dst", "lab"],
        )

    def jump_q(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.Table.from_arrays(
            [t["label"].combine_chunks(),
             t["node"].combine_chunks(),
             pa.array(np.ones(n, np.int8)),
             pa.array(np.full(n, SENT, np.int64))],
            names=["key", "dst", "has_dst", "lab"],
        )

    def minlab_fixpoint(nodes_ds, edges_int, src_name, dst_name):
        """Directed min-label propagation along ``src_name -> dst_name``
        to fixpoint: label(v) = the smallest node with a path to v (the
        identity-seeded transitive min). Sound with pointer jumping —
        label(v) reaches v and label(label(v)) reaches label(v)."""

        def edge_rows(t: pa.Table) -> pa.Table:
            n = t.num_rows
            return pa.Table.from_arrays(
                [t[src_name].combine_chunks(),
                 t[dst_name].combine_chunks(),
                 pa.array(np.ones(n, np.int8)),
                 pa.array(np.full(n, SENT, np.int64))],
                names=["key", "dst", "has_dst", "lab"],
            )

        edge_q = edges_int.map_batches(
            edge_rows, batch_format="pyarrow").materialize()
        labels = nodes_ds.map_batches(
            lambda t: pa.Table.from_arrays(
                [t["node"].combine_chunks(), t["node"].combine_chunks()],
                names=["node", "label"]),
            batch_format="pyarrow",
        ).materialize()
        prev = label_sum(labels)
        for _ in range(max_rounds):
            tab = labels.map_batches(tab_rows, batch_format="pyarrow")
            jq = labels.map_batches(jump_q, batch_format="pyarrow")
            msgs = sorted_segment_apply(
                tab.union(edge_q, jq), "key", lookup_kernel)
            labels = sever(
                msgs.groupby("node")
                .aggregate(Min("cand", alias_name="label"))
                .repartition(part_cap)
            )
            tot = label_sum(labels)
            if tot == prev:
                return labels
            prev = tot
        raise RuntimeError(
            "strongly_connected_components: min-label fixpoint did not "
            f"converge within max_rounds={max_rounds}"
        )

    live_nodes = node_index.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["nid"].combine_chunks()], names=["node"]),
        batch_format="pyarrow",
    ).materialize()
    live_edges = int_edges
    out_nodes: list = []
    out_sccs: list = []

    for _peel in range(max_peels):
        if live_nodes.count() == 0:
            break
        if live_edges.count() == 0:
            # Every survivor is edge-free: all singleton SCCs.
            for bt in live_nodes.iter_batches(batch_format="pyarrow"):
                ids = bt["node"].to_numpy(zero_copy_only=False)
                out_nodes.append(ids)
                out_sccs.append(ids)
            break
        # Trim: live nodes with no incident live edge are singleton SCCs.
        with_edge = (
            live_edges.map_batches(
                lambda t: pa.Table.from_arrays(
                    [pa.concat_arrays([
                        t["src"].combine_chunks(),
                        t["dst"].combine_chunks()])],
                    names=["node"]),
                batch_format="pyarrow",
            )
            .groupby("node")
            .aggregate(Count())
            .select_columns(["node"])
            .materialize()
        )
        isolated = attach_lookup(
            live_nodes, with_edge, key_col="node",
            val_cols=[], carry_cols=[], anti=True,
        )
        for bt in isolated.iter_batches(batch_format="pyarrow"):
            ids = bt["node"].to_numpy(zero_copy_only=False)
            out_nodes.append(ids)
            out_sccs.append(ids)
        live_nodes = sever(attach_lookup(
            live_nodes, with_edge, key_col="node",
            val_cols=[], carry_cols=[],
        ).repartition(part_cap))
        if live_nodes.count() == 0:
            break

        colors = minlab_fixpoint(live_nodes, live_edges, "src", "dst")
        # Intra-color subgraph: attach each endpoint's color, keep
        # color-equal edges (two sorted-lookup exchanges per peel).
        c1 = attach_lookup(
            live_edges.map_batches(rekey("node", "dst"),
                                   batch_format="pyarrow"),
            colors.map_batches(rekey("node", "f"),
                               batch_format="pyarrow"),
            key_col="node", val_cols=["f"], carry_cols=["dst"],
        )
        c2 = attach_lookup(
            c1.map_batches(
                lambda t: pa.Table.from_arrays(
                    [t["dst"].combine_chunks(),
                     t["node"].combine_chunks(),
                     t["f"].combine_chunks()],
                    names=["node", "src", "f_src"]),
                batch_format="pyarrow",
            ),
            colors.map_batches(rekey("node", "f_dst"),
                               batch_format="pyarrow"),
            key_col="node", val_cols=["f_dst"],
            carry_cols=["src", "f_src"],
        )
        intra = sever(c2.map_batches(
            lambda t: (lambda m: pa.Table.from_arrays(
                [t["src"].combine_chunks().filter(m),
                 t["node"].combine_chunks().filter(m)],
                names=["src", "dst"]))(
                pc.equal(t["f_src"].combine_chunks(),
                         t["f_dst"].combine_chunks())),
            batch_format="pyarrow",
        ).repartition(part_cap))

        back = minlab_fixpoint(live_nodes, intra, "dst", "src")
        fb = attach_lookup(
            colors.map_batches(rekey("node", "f"),
                               batch_format="pyarrow"),
            back.map_batches(rekey("node", "b"),
                             batch_format="pyarrow"),
            key_col="node", val_cols=["b"], carry_cols=["f"],
        )
        done = fb.map_batches(
            lambda t: (lambda m: pa.Table.from_arrays(
                [t["node"].combine_chunks().filter(m),
                 t["f"].combine_chunks().filter(m)],
                names=["node", "scc"]))(
                pc.equal(t["f"].combine_chunks(),
                         t["b"].combine_chunks())),
            batch_format="pyarrow",
        ).materialize()
        for bt in done.iter_batches(batch_format="pyarrow"):
            out_nodes.append(bt["node"].to_numpy(zero_copy_only=False))
            out_sccs.append(bt["scc"].to_numpy(zero_copy_only=False))

        done_nodes = done.map_batches(
            lambda t: pa.Table.from_arrays(
                [t["node"].combine_chunks()], names=["node"]),
            batch_format="pyarrow",
        )
        live_nodes = sever(attach_lookup(
            live_nodes, done_nodes, key_col="node",
            val_cols=[], carry_cols=[], anti=True,
        ).repartition(part_cap))
        if live_nodes.count() == 0:
            break
        k1 = attach_lookup(
            live_edges.map_batches(rekey("node", "dst"),
                                   batch_format="pyarrow"),
            live_nodes, key_col="node", val_cols=[], carry_cols=["dst"],
        ).materialize()
        if k1.count() == 0:
            live_edges = ray.data.from_arrow([pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=["src", "dst"])])
            continue
        live_edges = sever(attach_lookup(
            k1.map_batches(
                lambda t: pa.Table.from_arrays(
                    [t["dst"].combine_chunks(),
                     t["node"].combine_chunks()],
                    names=["node", "src"]),
                batch_format="pyarrow",
            ),
            live_nodes, key_col="node", val_cols=[], carry_cols=["src"],
        ).map_batches(
            lambda t: pa.Table.from_arrays(
                [t["src"].combine_chunks(), t["node"].combine_chunks()],
                names=["src", "dst"]),
            batch_format="pyarrow",
        ).repartition(part_cap))
    else:
        raise RuntimeError(
            "strongly_connected_components: peel loop did not finish "
            f"within max_peels={max_peels} (a chain of K condensation "
            "SCCs needs K peels — raise max_peels)"
        )

    if not out_nodes:
        return pd.DataFrame({"node": [], "scc": []})
    node_r = np.concatenate(out_nodes).astype(np.int64)
    scc_r = np.concatenate(out_sccs).astype(np.int64)
    return (
        pd.DataFrame({"node": rank_ids[node_r], "scc": rank_ids[scc_r]})
        .sort_values("node")
        .reset_index(drop=True)
    )


def diameter_bound(
    edges_ds,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    max_rounds: int = 16,
):
    """Double-sweep BFS lower bound on the diameter of the UNDIRECTED
    host graph (Magnien-Latapy-Habib 2009): BFS from the
    lexicographically smallest host gives its eccentricity; a second
    BFS from the farthest node found (max depth, min-host tiebreak)
    gives a diameter lower bound — exact on trees, empirically tight
    on web graphs, at 2 BFS costs instead of n.

    Shape: one symmetric-closure dedup groupby; two
    :func:`bfs_depth` runs (per round one sorted-lookup gather + one
    groupby-min); start node and both extremes reduce from per-block
    ``(max_depth, min_node_at_max)`` partials — O(blocks) driver rows,
    never node-sized. Nodes outside the start's component don't bound
    the sweep (BFS emits reachable nodes only) — the bound is for the
    start's component, the giant one on real host graphs. Returns a
    one-row pandas DataFrame
    ``(start, ecc_start, far_node, diameter_lb)``.
    """
    import pandas as pd

    SEP = "\x1f"

    def sym(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch[src_col].to_pylist(), dtype=object).astype(str)
        v = np.asarray(batch[dst_col].to_pylist(), dtype=object).astype(str)
        keep = u != v
        u, v = u[keep], v[keep]
        a = np.concatenate([u, v])
        b = np.concatenate([v, u])
        keys = np.unique(np.char.add(np.char.add(a, SEP), b))
        return pa.Table.from_arrays(
            [pa.array(keys.astype(object), pa.string()),
             pa.array(np.ones(len(keys), np.int64))],
            names=["k", "one"],
        )

    closure = (
        edges_ds.map_batches(sym, batch_format="pyarrow")
        .groupby("k")
        .sum("one")
        .map_batches(
            lambda t: (lambda parts: pa.Table.from_arrays(
                [pa.array(parts[:, 0].astype(object), pa.string()),
                 pa.array(parts[:, 2].astype(object), pa.string())],
                names=["src", "dst"]))(
                np.char.partition(
                    np.asarray(t["k"].to_pylist(),
                               dtype=object).astype(str), SEP)),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def min_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.Table.from_arrays([pa.array([], pa.string())],
                                        names=["m"])
        u = np.asarray(t["src"].to_pylist(), dtype=object).astype(str)
        return pa.Table.from_arrays(
            [pa.array([str(np.sort(u)[0])], pa.string())], names=["m"])

    mins = [r["m"] for r in closure.map_batches(
        min_partial, batch_size=None, batch_format="pyarrow").take_all()]
    if not mins:
        return pd.DataFrame(
            {"start": [], "ecc_start": [], "far_node": [],
             "diameter_lb": []})
    start = min(mins)

    def extreme(depth_ds) -> tuple:
        # per-block (max depth, min node at that depth) partials
        def part(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.Table.from_arrays(
                    [pa.array([], pa.int64()), pa.array([], pa.string())],
                    names=["d", "n"],
                )
            d = t["depth"].to_numpy(zero_copy_only=False)
            n = np.asarray(t["node"].to_pylist(), dtype=object).astype(str)
            dm = int(d.max())
            return pa.Table.from_arrays(
                [pa.array([dm], pa.int64()),
                 pa.array([str(np.sort(n[d == dm])[0])], pa.string())],
                names=["d", "n"],
            )

        best_d, best_n = -1, None
        for r in depth_ds.map_batches(
            part, batch_size=None, batch_format="pyarrow"
        ).take_all():
            if r["d"] > best_d or (r["d"] == best_d and r["n"] < best_n):
                best_d, best_n = r["d"], r["n"]
        return best_d, best_n

    d1 = bfs_depth(closure, seeds=[start], max_rounds=max_rounds,
                   src_col="src", dst_col="dst")
    ecc1, far = extreme(d1)
    d2 = bfs_depth(closure, seeds=[far], max_rounds=max_rounds,
                   src_col="src", dst_col="dst")
    ecc2, _ = extreme(d2)
    return pd.DataFrame(
        {"start": [start], "ecc_start": [int(ecc1)],
         "far_node": [far], "diameter_lb": [int(ecc2)]})


def attack_robustness(
    edges_ds,
    pcts: tuple = (0, 10, 30),
    src_col: str = "src_host",
    dst_col: str = "dst_host",
):
    """Targeted-attack robustness census (Albert-Jeong-Barabási 2000):
    remove the top p% highest-degree hosts (degree DESC, host ASC
    tiebreak) and measure the giant connected component of what
    remains — scale-free web graphs survive random failure but
    collapse under targeted hub removal; the census quantifies how
    hub-dependent a crawl frontier is.

    Shape: symmetric-closure dedup groupby once; ONE degree groupby +
    ONE (degree desc, host) sort of the nodes-sized degree table,
    reused across fractions via ``limit(k)``; per fraction the removal
    set drops incident edges through two anti semi-lookups
    (:func:`..ops.segments.attach_lookup`) and components come from
    :func:`..ops.dedup.connected_components` (bounded driver
    union-find under its cap, distributed min-label rounds above).
    Returns a pandas DataFrame ``(pct_removed, n_nodes, n_removed,
    giant_size, giant_milli)`` with ``giant_milli = 1000·giant //
    surviving nodes``.
    """
    import pandas as pd

    from .dedup import connected_components
    from .segments import attach_lookup

    SEP = "\x1f"

    def sym(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch[src_col].to_pylist(), dtype=object).astype(str)
        v = np.asarray(batch[dst_col].to_pylist(), dtype=object).astype(str)
        keep = u != v
        u, v = u[keep], v[keep]
        a = np.concatenate([u, v])
        b = np.concatenate([v, u])
        keys = np.unique(np.char.add(np.char.add(a, SEP), b))
        return pa.Table.from_arrays(
            [pa.array(keys.astype(object), pa.string()),
             pa.array(np.ones(len(keys), np.int64))],
            names=["k", "one"],
        )

    closure = (
        edges_ds.map_batches(sym, batch_format="pyarrow")
        .groupby("k")
        .sum("one")
        .map_batches(
            lambda t: (lambda parts: pa.Table.from_arrays(
                [pa.array(parts[:, 0].astype(object), pa.string()),
                 pa.array(parts[:, 2].astype(object), pa.string())],
                names=["src", "dst"]))(
                np.char.partition(
                    np.asarray(t["k"].to_pylist(),
                               dtype=object).astype(str), SEP)),
            batch_format="pyarrow",
        )
        .materialize()
    )

    degrees = (
        closure.map_batches(
            lambda t: pa.Table.from_arrays(
                [t["src"].combine_chunks(),
                 pa.array(np.ones(t.num_rows, np.int64))],
                names=["node", "d"]),
            batch_format="pyarrow",
        )
        .groupby("node")
        .sum("d")
        .map_batches(lambda t: t.rename_columns(["node", "d"]),
                     batch_format="pyarrow")
        .materialize()
    )
    n_nodes = degrees.count()
    if n_nodes == 0:
        return pd.DataFrame(
            {"pct_removed": [], "n_nodes": [], "n_removed": [],
             "giant_size": [], "giant_milli": []})
    ranked = degrees.sort(["d", "node"], descending=[True, False]
                          ).materialize()

    rows = []
    for pct in pcts:
        k = (n_nodes * int(pct)) // 100
        n_rem = n_nodes - k
        if k == 0:
            kept = closure
        else:
            removal = ranked.limit(k).select_columns(["node"])
            e1 = attach_lookup(
                closure.map_batches(
                    lambda t: t.rename_columns(["node", "dst"]),
                    batch_format="pyarrow"),
                removal, key_col="node", val_cols=[], carry_cols=["dst"],
                anti=True,
            )
            kept = attach_lookup(
                e1.map_batches(
                    lambda t: pa.Table.from_arrays(
                        [t["dst"].combine_chunks(),
                         t["node"].combine_chunks()],
                        names=["node", "src"]),
                    batch_format="pyarrow"),
                removal, key_col="node", val_cols=[], carry_cols=["src"],
                anti=True,
            ).map_batches(
                lambda t: pa.Table.from_arrays(
                    [t["src"].combine_chunks(),
                     t["node"].combine_chunks()],
                    names=["src", "dst"]),
                batch_format="pyarrow",
            )
        pairs = kept.map_batches(
            lambda t: t.rename_columns(["id_a", "id_b"]),
            batch_format="pyarrow",
        )
        labels = connected_components(pairs)
        if len(labels):
            giant = int(labels.groupby("label").size().max())
        else:
            giant = 1 if n_rem > 0 else 0
        rows.append((int(pct), int(n_nodes), int(k), giant,
                     (1000 * giant) // n_rem if n_rem else 0))
    return pd.DataFrame(
        rows, columns=["pct_removed", "n_nodes", "n_removed",
                       "giant_size", "giant_milli"])


def bowtie_census(
    edges_ds,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    max_rounds: int = 32,
):
    """Broder et al.'s bow-tie census of the directed host graph: the
    giant strongly connected component is the CORE; IN = nodes that
    reach the CORE but aren't in it; OUT = nodes the CORE reaches;
    OTHER = tendrils/tubes/disconnected. The 2000 web census made this
    the canonical large-scale picture of the web — the census tells a
    crawler operator how much of the frontier is upstream (IN feeds
    discovery) vs downstream (OUT is reachable anyway).

    Shape: :func:`strongly_connected_components` labels SCCs (its dual
    regime, driver-frame contract); the giant SCC's members seed one
    forward and one reversed :func:`bfs_depth` (per round one
    sorted-lookup gather + one groupby-min); category counts reduce
    from the reachable-set frames. Ties for the giant SCC break by
    lexicographically smallest label. Returns one row ``(n_nodes,
    n_core, n_in, n_out, n_other, core_milli)``.
    """
    import pandas as pd

    scc_df = strongly_connected_components(
        edges_ds, src_col=src_col, dst_col=dst_col)
    if not len(scc_df):
        return pd.DataFrame(
            {"n_nodes": [0], "n_core": [0], "n_in": [0], "n_out": [0],
             "n_other": [0], "core_milli": [0]})
    sizes = scc_df.groupby("scc").size()
    top = sizes.max()
    core_label = min(sizes[sizes == top].index)
    core = set(scc_df.node[scc_df.scc == core_label])
    n_nodes = len(scc_df)

    seeds = sorted(core)
    fwd = bfs_depth(edges_ds, seeds=seeds, max_rounds=max_rounds,
                    src_col=src_col, dst_col=dst_col)
    rev = bfs_depth(edges_ds, seeds=seeds, max_rounds=max_rounds,
                    src_col=dst_col, dst_col=src_col)
    reach_out = {r["node"] for b in fwd.iter_batches(batch_format="pyarrow")
                 for r in b.to_pylist()}
    reach_in = {r["node"] for b in rev.iter_batches(batch_format="pyarrow")
                for r in b.to_pylist()}
    n_core = len(core)
    n_out = len(reach_out - core)
    n_in = len(reach_in - core)
    n_other = n_nodes - n_core - n_out - n_in
    return pd.DataFrame({
        "n_nodes": [n_nodes], "n_core": [n_core], "n_in": [n_in],
        "n_out": [n_out], "n_other": [n_other],
        "core_milli": [(1000 * n_core) // n_nodes],
    })


def modularity(
    edges_ds,
    labels_ds,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    node_col: str = "host",
    label_col: str = "community",
):
    """Newman modularity Q of a community partition over the undirected
    simple graph — the standard quality score for
    :func:`label_propagation` output (Q > 0.3 is conventionally "has
    community structure"; spam rings score near the random baseline).

    Exact rational arithmetic: ``Q = (4m·intra − Σ d_c²) / (4m²)``
    with integer m (edges), intra (within-community edges) and d_c
    (community degree sums), reported as magnitude-truncating
    milli-units (the assortativity convention, matching SQL ``//``).
    Shape: canonical-edge dedup groupby; two sorted-lookup label
    attaches; degree groupby + community groupby; per-block partial
    sums accumulate as exact Python ints on the driver (O(blocks)
    rows) — Σ d_c² exceeds int64 long before 10^12 edges. Returns one
    row ``(n_edges, n_intra, sum_deg_sq_str, q_milli)`` (the degree
    moment rides as a string for the same reason).
    """
    import pandas as pd
    import pyarrow.compute as pc

    from .segments import attach_lookup

    SEP = "\x1f"

    def canon(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch[src_col].to_pylist(), dtype=object).astype(str)
        v = np.asarray(batch[dst_col].to_pylist(), dtype=object).astype(str)
        keep = u != v
        u, v = u[keep], v[keep]
        lo = np.where(u < v, u, v)
        hi = np.where(u < v, v, u)
        k = np.unique(np.char.add(np.char.add(lo, SEP), hi))
        return pa.Table.from_arrays(
            [pa.array(k.astype(object), pa.string()),
             pa.array(np.ones(len(k), np.int64))],
            names=["k", "one"],
        )

    canon_edges = (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby("k")
        .sum("one")
        .map_batches(
            lambda t: (lambda p: pa.Table.from_arrays(
                [pa.array(p[:, 0].astype(object), pa.string()),
                 pa.array(p[:, 2].astype(object), pa.string())],
                names=["lo", "hi"]))(
                np.char.partition(
                    np.asarray(t["k"].to_pylist(),
                               dtype=object).astype(str), SEP)),
            batch_format="pyarrow",
        )
        .materialize()
    )

    labels_keyed = labels_ds.map_batches(
        lambda t: pa.Table.from_arrays(
            [t[node_col].combine_chunks().cast(pa.string()),
             t[label_col].combine_chunks().cast(pa.string())],
            names=["node", "lab"]),
        batch_format="pyarrow",
    ).materialize()

    e1 = attach_lookup(
        canon_edges.map_batches(
            lambda t: t.rename_columns(["node", "hi"]),
            batch_format="pyarrow"),
        labels_keyed.map_batches(
            lambda t: t.rename_columns(["node", "lab_lo"]),
            batch_format="pyarrow"),
        key_col="node", val_cols=["lab_lo"], carry_cols=["hi"],
    )
    e2 = attach_lookup(
        e1.map_batches(
            lambda t: pa.Table.from_arrays(
                [t["hi"].combine_chunks(), t["lab_lo"].combine_chunks()],
                names=["node", "lab_lo"]),
            batch_format="pyarrow"),
        labels_keyed.map_batches(
            lambda t: t.rename_columns(["node", "lab_hi"]),
            batch_format="pyarrow"),
        key_col="node", val_cols=["lab_hi"], carry_cols=["lab_lo"],
    )

    def edge_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=["m", "intra"])
        eq = pc.equal(t["lab_lo"].combine_chunks(),
                      t["lab_hi"].combine_chunks())
        return pa.Table.from_arrays(
            [pa.array([t.num_rows], pa.int64()),
             pa.array([int(pc.sum(pc.cast(eq, pa.int64())).as_py() or 0)],
                      pa.int64())],
            names=["m", "intra"])

    m = intra = 0
    for r in e2.map_batches(
        edge_partial, batch_size=None, batch_format="pyarrow"
    ).take_all():
        m += r["m"]
        intra += r["intra"]

    degrees = (
        canon_edges.map_batches(
            lambda t: pa.Table.from_arrays(
                [pa.concat_arrays([t["lo"].combine_chunks(),
                                   t["hi"].combine_chunks()]),
                 pa.array(np.ones(2 * t.num_rows, np.int64))],
                names=["node", "d"]),
            batch_format="pyarrow",
        )
        .groupby("node")
        .sum("d")
        .map_batches(lambda t: t.rename_columns(["node", "d"]),
                     batch_format="pyarrow")
    )
    com_deg = (
        attach_lookup(degrees, labels_keyed.map_batches(
            lambda t: t.rename_columns(["node", "lab"]),
            batch_format="pyarrow"),
            key_col="node", val_cols=["lab"], carry_cols=["d"])
        .groupby("lab")
        .sum("d")
    )

    def sq_partial(t: pa.Table) -> pa.Table:
        d = t["sum(d)"].to_numpy(zero_copy_only=False).astype(object)
        s = int(sum(int(x) * int(x) for x in d))
        return pa.Table.from_arrays([pa.array([str(s)])], names=["s"])

    s2 = sum(int(r["s"]) for r in com_deg.map_batches(
        sq_partial, batch_size=None, batch_format="pyarrow").take_all())

    if m == 0:
        q_milli = 0
    else:
        num = 4 * m * intra - s2
        den = 4 * m * m
        q_milli = ((1000 * num) // den if num >= 0
                   else -((1000 * (-num)) // den))
    return pd.DataFrame({
        "n_edges": [int(m)], "n_intra": [int(intra)],
        "sum_deg_sq_str": [str(s2)], "q_milli": [int(q_milli)]})
