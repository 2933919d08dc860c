"""Validation stage: per-page problem detection, similarity, repair.

Thin ``map_batches`` wrapper over the pure per-page validator
(..functions.validate — reference semantics citations there). Adds the
validation columns and applies the repair policy to ``extracted_text``.
"""

from __future__ import annotations

import pyarrow as pa

from ..config import EngineConfig
from ..functions.validate import DocValidation, validate_document

VALIDATE_COLUMNS = (
    "problems", "has_problem", "similarity", "passed", "source",
    "n_pages_validated", "n_pages_replaced",
)


def validate_batch(batch: pa.Table, config: EngineConfig | None = None) -> pa.Table:
    """Stateless ``map_batches`` UDF: validate each document at page
    granularity and emit the repaired text + validation columns."""
    config = config or EngineConfig()
    urls = batch["url"].to_pylist()
    extracted = batch["extracted_text"].to_pylist()
    provided = batch["text"].to_pylist()

    results: list[DocValidation] = []
    for url, content, alternative in zip(urls, extracted, provided):
        if not config.validation_enabled:
            results.append(DocValidation(text=content or ""))
            continue
        results.append(
            validate_document(
                content,
                alternative,
                url,
                config.problems_enabled,
                similarity_method=config.validation_similarity_method,
            )
        )

    out = batch.drop_columns(["extracted_text"])
    return (
        out.append_column("extracted_text", pa.array([r.text for r in results], pa.string()))
        .append_column("problems", pa.array([r.problems for r in results], pa.list_(pa.string())))
        .append_column("has_problem", pa.array([r.has_problem for r in results], pa.bool_()))
        .append_column("similarity", pa.array([r.similarity for r in results], pa.float64()))
        .append_column("passed", pa.array([r.passed for r in results], pa.bool_()))
        .append_column("source", pa.array([r.source for r in results], pa.string()))
        .append_column(
            "n_pages_validated",
            pa.array([r.n_pages_validated for r in results], pa.int32()),
        )
        .append_column(
            "n_pages_replaced",
            pa.array([r.n_pages_replaced for r in results], pa.int32()),
        )
    )

