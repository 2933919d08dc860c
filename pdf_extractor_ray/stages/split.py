"""Explicit dataflow operators for skew splitting and chunk reassembly.

The scale path for documents too large for one task (SURVEY.md §7.1
``[skew]`` branch; reference semantics: src/services/pdf_processor.py:29-68):

``split_oversized``  — ``map_batches`` UDF exploding each oversized row into
``(url, chunk_idx, n_chunks, html, ...)`` chunk rows (a flat_map expressed
as a batch transform so it stays vectorized and schema-stable).

``extract_chunks``   — per-chunk extraction producing ``page_markdowns``
(list<string>) instead of combined text (the single-pass stage's
``chunk_pages``), and the chunk's ``extract_error``.

``reassemble_chunks`` — ``groupby("url").map_groups``: in-group sort by
``chunk_idx``, concatenate page lists, apply the canonical page combine
(reference: src/core/utils.py:112-161). Only chunk rows ever enter this
groupby, so the shuffle moves extracted text for the oversized minority,
never raw payloads.

The single-pass path in ``..stages.extract`` is byte-identical (tested);
this pair exists for corpora where individual documents exceed task memory
and for demonstrating the partitioning contract explicitly.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..config import EngineConfig
from ..functions.assemble import combine_pages
from ..functions.split import split_payload
from .extract import chunk_pages, error_text, row_passwords


def split_oversized(batch: pa.Table, config: EngineConfig | None = None) -> pa.Table:
    """Explode oversized rows into chunk rows; small rows pass through as
    single-chunk rows. Output adds ``chunk_idx``/``n_chunks``. Encrypted
    PDFs decrypt at the split (corpus-wide or per-row password — the same
    config contract as the single-pass extract stage); the re-emitted
    record chunks are plaintext."""
    config = config or EngineConfig()
    payloads = batch["html"]
    routes = batch["route"].to_pylist()
    needs_split = batch["needs_split"].to_pylist()
    row_pws = row_passwords(batch, config)
    indices: list[int] = []
    chunk_payloads: list[bytes] = []
    chunk_idx: list[int] = []
    n_chunks_col: list[int] = []
    for i in range(len(batch)):
        payload = payloads[i].as_py()
        if needs_split[i] and payload is not None:
            try:
                chunks = split_payload(
                    payload, routes[i], config.max_pages_per_chunk, password=row_pws[i]
                )
            except Exception:  # malformed payload: pass through whole
                chunks = [payload]
        else:
            chunks = [payload]
        for j, chunk in enumerate(chunks):
            indices.append(i)
            chunk_payloads.append(chunk)
            chunk_idx.append(j)
            n_chunks_col.append(len(chunks))
    out = batch.drop_columns(["html"]).take(pa.array(indices, pa.int64()))
    return (
        out.append_column("html", pa.array(chunk_payloads, pa.binary()))
        .append_column("chunk_idx", pa.array(chunk_idx, pa.int32()))
        .append_column("n_chunks", pa.array(n_chunks_col, pa.int32()))
    )


def extract_chunks(batch: pa.Table, config: EngineConfig | None = None) -> pa.Table:
    """Per-chunk extraction → ``page_markdowns`` list column and the
    chunk's ``extract_error`` (payload and any password sidecar dropped
    before the reassembly shuffle)."""
    config = config or EngineConfig()
    payloads = batch["html"]
    routes = batch["route"].to_pylist()
    row_pws = row_passwords(batch, config)
    pages_col: list[list[str]] = []
    errors: list[str | None] = []
    for i in range(len(batch)):
        payload = payloads[i].as_py()
        pages: list[str] = []
        error = None
        if payload is not None:
            try:
                pages, _ = chunk_pages(payload, routes[i], config, row_pws[i])
            except Exception as exc:  # per-document containment (see stages/extract.py)
                error = error_text(exc)
        pages_col.append(pages)
        errors.append(error)
    drop = ["html", "needs_split"]
    if config.pdf_password_col in batch.column_names:
        drop.append(config.pdf_password_col)  # credentials never flow downstream
    return (
        batch.drop_columns(drop)
        .append_column("page_markdowns", pa.array(pages_col, pa.list_(pa.string())))
        .append_column("extract_error", pa.array(errors, pa.string()))
    )


def reassemble_group(group: pd.DataFrame) -> pd.DataFrame:
    """Per-url ordered reduce: sort chunks, concatenate page lists, combine
    (the in-group sort is the only ordering the engine ever needs —
    SURVEY.md §2.9). All non-chunk columns pass through from the first
    chunk row, so extra caller columns (ids, routing metadata) survive;
    ``extract_error`` is the first chunk error."""
    group = group.sort_values("chunk_idx")
    all_pages: list[str] = []
    for pages in group["page_markdowns"]:
        all_pages.extend(list(pages))
    errors = group["extract_error"].dropna()
    out = group.iloc[[0]].drop(columns=["chunk_idx", "page_markdowns"]).copy()
    out["extracted_text"] = [combine_pages(all_pages)]
    out["n_pages"] = [len(all_pages)]
    out["extract_error"] = [errors.iloc[0] if len(errors) else None]
    return out


def reassemble_chunks(ds, config: EngineConfig | None = None):
    """``groupby(url).map_groups`` reassembly of chunk rows (Dataset-level
    helper; the shuffle key is ``url`` so group boundaries can never split a
    document)."""
    return ds.groupby("url").map_groups(reassemble_group, batch_format="pandas")
