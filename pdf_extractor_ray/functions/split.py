"""Skew-aware splitting of oversized payloads into page-range chunks.

The engine's analogue of the reference's outline/count-based chunker
(reference: src/services/pdf_processor.py:29-68, 223-311 — documents are cut
into ≤ ``MAX_PAGES_PER_CHUNK`` page chunks before extraction). HTML splits
at ``<div class="page">`` boundaries; toy-PDF payloads split by page-id
ranges of the record array. Both are pure byte-level operations — each chunk
is independently extractable, and concatenating the chunks' per-page
markdowns in chunk order then applying
:func:`..functions.assemble.combine_pages` is byte-identical to
whole-document extraction (tested by
``tests/test_pipeline.py::TestFlagshipPipeline::test_oversized_rows_chunked``).
"""

from __future__ import annotations

import re

import numpy as np

from .pdf_extract import MAGIC, decode_records

# Pages per chunk (reference: src/core/config.py:36, MAX_PAGES_PER_CHUNK).
MAX_PAGES_PER_CHUNK = 15

_PAGE_DIV_RE = re.compile(rb'<div\s+class="[^"]*\bpage\b[^"]*"', re.IGNORECASE)


def split_html_payload(payload: bytes) -> list[bytes]:
    """Split an HTML payload into chunks of ≤ ``MAX_PAGES_PER_CHUNK`` page
    divs. Content before the first page div (the shell preamble) rides with
    the first chunk; the tail after the last page div (footer) with the last.
    Documents without page structure are returned whole."""
    starts = [m.start() for m in _PAGE_DIV_RE.finditer(payload)]
    if len(starts) <= MAX_PAGES_PER_CHUNK:
        return [payload]
    chunks: list[bytes] = []
    for i in range(0, len(starts), MAX_PAGES_PER_CHUNK):
        lo = 0 if i == 0 else starts[i]
        hi = len(payload) if i + MAX_PAGES_PER_CHUNK >= len(starts) else starts[i + MAX_PAGES_PER_CHUNK]
        chunks.append(payload[lo:hi])
    return chunks


def split_pdf_payload(payload: bytes, password: bytes = b"") -> list[bytes]:
    """Split a PDF payload by page-id ranges. The payload (toy or real
    ``%PDF-1.x``) is decoded ONCE here by :func:`decode_records` and its
    chunks are re-emitted in the (internal) record format — each chunk is
    independently extractable by the same layout kernel, and the decode cost
    moves to the split stage instead of being paid per chunk."""
    try:
        arr = decode_records(payload, password=password)
    except Exception:
        return [payload]  # undecodable: error containment downstream
    if len(arr) == 0:
        return [payload]
    pages = np.unique(arr["page"])
    if len(pages) <= MAX_PAGES_PER_CHUNK:
        return [payload]
    order = np.argsort(arr["page"], kind="stable")
    arr = arr[order]
    chunks: list[bytes] = []
    for i in range(0, len(pages), MAX_PAGES_PER_CHUNK):
        page_set = pages[i : i + MAX_PAGES_PER_CHUNK]
        mask = (arr["page"] >= page_set[0]) & (arr["page"] <= page_set[-1])
        chunks.append(MAGIC + arr[mask].tobytes())
    return chunks


def split_payload(payload: bytes, route: str, password: bytes = b"") -> list[bytes]:
    """Route-aware split; non-splittable routes return the payload whole.
    ``password`` opens encrypted PDFs for the decode-once split (the
    re-emitted record chunks are plaintext — the decrypt cost is paid
    exactly once, at the split)."""
    if route == "pdf":
        return split_pdf_payload(payload, password=password)
    if route == "html":
        return split_html_payload(payload)
    return [payload]
