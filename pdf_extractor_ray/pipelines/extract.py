"""The flagship extract → merge → validate pipeline (SURVEY.md §7.1).

Re-expresses the reference's per-request extract→merge→validate flow
(reference: src/api/routes/extraction.py:23-90 traced in SURVEY.md §3.1) as
a streaming Ray Data DAG:

    read_parquet(pages)                      # url, warc_ts, html, text, lang
      → map_batches(normalize_route)         # stateless: sniff, route, partition_id
      → map_batches(extract_batch)           # stateless tasks; in-UDF skew
                                             #   split + reassemble
      → map_batches(validate_batch)          # one-pass page profile detectors
                                             #   + similarity + repair
      → [write_parquet partitioned by partition_id]  (checkpoint.py)

Shuffles on the hot path: none. The only all-to-all operations are the tiny
per-partition metrics groupby (over pre-aggregated partials) and — in the
explicit-split variant — the reassembly groupby over the oversized-row
minority. This is what makes the N→4N scaling efficiency ≥0.8 criterion
credible (BASELINE.json north_rule): extract+validate are per-row and scale
embarrassingly.
"""

from __future__ import annotations

import functools

from ..config import EngineConfig
from ..stages.extract import extract_batch
from ..stages.normalize import normalize_route
from ..stages.split import extract_chunks, reassemble_chunks, split_oversized
from ..stages.validate import validate_batch


def extraction_pipeline(
    ds,
    config: EngineConfig | None = None,
    query: str | None = None,
):
    """Attach the flagship stages to a pages Dataset; returns the lazy
    result Dataset (consume with write_parquet / iter_batches).

    The extract stage runs as stateless tasks: Ray reuses worker processes,
    so module-level parser state stays warm while tasks schedule
    elastically (measured 2-3× faster end-to-end than a fixed actor pool on
    this engine). ``query`` picks the extraction flavor (see
    :class:`..stages.extract.DocumentExtractor`).
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


def extraction_pipeline_explicit_split(
    ds,
    config: EngineConfig | None = None,
):
    """Variant with dataflow-level skew handling: flat-map style chunk
    explode → per-chunk extract → ``groupby(url)`` reassembly → validate.
    Byte-identical output to :func:`extraction_pipeline` (tested); used when
    individual documents exceed single-task memory."""
    config = config or EngineConfig()
    ds = ds.map_batches(
        functools.partial(normalize_route, config=config),
        batch_format="pyarrow",
        batch_size=config.html_batch_size,
    )
    ds = ds.map_batches(
        functools.partial(split_oversized, config=config),
        batch_format="pyarrow",
        batch_size=config.pdf_batch_size,
    )
    ds = ds.map_batches(
        functools.partial(extract_chunks, config=config),
        batch_format="pyarrow",
        batch_size=config.pdf_batch_size,
    )
    ds = reassemble_chunks(ds, config)
    ds = ds.map_batches(
        functools.partial(validate_batch, config=config),
        batch_format="pyarrow",
        batch_size=config.html_batch_size,
    )
    return ds
