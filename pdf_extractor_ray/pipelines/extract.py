"""The flagship extract → merge → validate pipeline (SURVEY.md §7.1).

Re-expresses the reference's per-request extract→merge→validate flow
(reference: src/api/routes/extraction.py:23-90 traced in SURVEY.md §3.1) as
a streaming Ray Data DAG:

    read_parquet(pages)                      # url, warc_ts, html, text, lang
      → map_batches(normalize_route)         # stateless: sniff, route, partition_id
      → map_batches(extract_batch)           # stateless tasks; oversized rows
                                             #   chunked + merged in the UDF
      → map_batches(validate_batch)          # one-pass page profile detectors
                                             #   + similarity + repair
      → [run_with_checkpoints]               # groupby(partition_id) → commit
                                             #   (checkpoint.py)

The three map stages are per-row and fuse into one task, so extract and
validate need no exchange: the N→4N scaling efficiency ≥0.8 criterion
(BASELINE.json north_rule) rests on that. The consumer adds the only
all-to-all step: ``run_with_checkpoints``, the engine's one sink, groups by
``partition_id``, which moves every output row (extracted text, not
payloads) once.
"""

from __future__ import annotations

import functools

from ..config import EngineConfig
from ..stages.extract import extract_batch
from ..stages.normalize import normalize_route
from ..stages.validate import validate_batch


def extraction_pipeline(
    ds,
    config: EngineConfig | None = None,
    query: str | None = None,
):
    """Attach the flagship stages to a pages Dataset; returns the lazy
    result Dataset (commit it with ``run_with_checkpoints``, or iterate it).

    The extract stage runs as stateless tasks: Ray reuses worker processes,
    so module-level parser state stays warm while tasks schedule
    elastically (measured 2-3× faster end-to-end than a fixed actor pool on
    this engine). Oversized rows are cut into page-range chunks and merged
    back in page order inside the extract task. ``query`` picks the
    extraction flavor (see :class:`..stages.extract.DocumentExtractor`).
    """
    config = config or EngineConfig()
    ds = ds.map_batches(
        functools.partial(normalize_route, config=config),
        batch_format="pyarrow",
        batch_size=config.html_batch_size,
    )
    ds = ds.map_batches(
        functools.partial(extract_batch, config=config, query=query),
        batch_format="pyarrow",
        batch_size=config.html_batch_size,
    )
    ds = ds.map_batches(
        functools.partial(validate_batch, config=config),
        batch_format="pyarrow",
        batch_size=config.html_batch_size,
    )
    return ds

