"""Per-partition lineage and extraction metrics.

The engine's analogue of the reference's validation-report aggregation
(reference: src/services/workflows/default_handler.py:199-238 and
src/services/validation/problem_detector.py:488-523), lifted from
per-document dicts to a per-partition metrics table: pre-aggregated inside
``map_batches`` (one partial row per partition per batch — the
combiner-before-shuffle pattern), then reduced by a tiny
``groupby(partition_id)`` so the all-to-all exchange moves kilobytes, not
the corpus.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

METRIC_FIELDS = (
    "docs",
    "bytes_in",
    "bytes_out",
    "n_problem_docs",
    "n_replaced",
    "n_failed_validation",
    "n_validated",
)


def partial_metrics(batch: pa.Table) -> pa.Table:
    """Per-batch partial aggregate: one row per partition_id present, sorted
    by partition_id; columns ``partition_id`` + ``METRIC_FIELDS``, all int64.
    The commit sink takes a partition's metrics row from here too."""
    validated = pc.is_valid(batch["similarity"])
    per_row = pa.table(
        {
            "partition_id": batch["partition_id"].cast(pa.int64()),
            "bytes_in": batch["payload_bytes"].cast(pa.int64()),
            "bytes_out": pc.utf8_length(batch["extracted_text"]).cast(pa.int64()),
            "n_problem_docs": batch["has_problem"].cast(pa.int64()),
            "n_replaced": pc.equal(batch["source"], "provided").cast(pa.int64()),
            "n_failed_validation": pc.and_(validated, pc.invert(batch["passed"])).cast(
                pa.int64()
            ),
            "n_validated": validated.cast(pa.int64()),
        }
    )
    summed = METRIC_FIELDS[1:]
    grouped = per_row.group_by("partition_id").aggregate(
        [([], "count_all")] + [(f, "sum") for f in summed]
    )
    return pa.table(
        {
            "partition_id": grouped["partition_id"],
            "docs": grouped["count_all"],
            **{f: grouped[f"{f}_sum"] for f in summed},
        }
    ).sort_by("partition_id")


def partition_metrics(ds):
    """Dataset of final per-partition metrics (tiny groupby over partials)."""
    from ray.data.aggregate import Sum

    partials = ds.map_batches(partial_metrics, batch_format="pyarrow")
    aggs = [Sum(f, alias_name=f) for f in METRIC_FIELDS]
    return partials.groupby("partition_id").aggregate(*aggs)


def overall_status(metrics_df: pd.DataFrame) -> str:
    """Document-level rollup of validation status, mirroring the reference's
    precedence problems_fixed > warnings > passed
    (reference: default_handler.py:199-238)."""
    if metrics_df.empty:
        return "passed"
    if metrics_df["n_replaced"].sum() > 0:
        return "problems_fixed"
    if metrics_df["n_failed_validation"].sum() > 0:
        return "warnings"
    return "passed"
