"""Section building: document markdown → per-section rows.

Re-expresses the reference's outline→section flow
(reference: src/services/workflows/default_handler.py:104-111,150-197 and
the ZIP-of-sections sink, src/services/response_builder.py:143-189): instead
of a ZIP of per-section files, sections become extra ROWS
``(url, section_idx, title, content, filename)`` — the columnar equivalent
of the multi-file download, written as ordinary Parquet.

Section boundaries are top-level markdown headings (``# `` / ``## ``); the
preamble before the first heading is section 0 with an empty title. The
query filter applies the reference's outline-filter semantics including the
return-all-on-no-match fallback (reference: src/core/utils.py:11-32).
"""

from __future__ import annotations

import re

import pyarrow as pa

from ..functions.assemble import filter_outlines_by_query
from ..functions.normalize import safe_filename

_HEADING_RE = re.compile(r"^(#{1,2})\s+(.*)$")
_MAX_SECTIONS = 4  # top-level outline cap (reference: pdf_processor.py:56-59)


def build_sections(markdown: str, max_sections: int = _MAX_SECTIONS) -> list[dict]:
    """Split document markdown into top-level sections.

    Returns ``[{title, content}]`` in document order. At most
    ``max_sections`` heading-delimited sections are kept distinct (the
    reference caps top-level outlines at 4); further headings stay inside
    the last section's content.
    """
    lines = markdown.split("\n")
    sections: list[dict] = []
    current_title = ""
    current_lines: list[str] = []

    def flush() -> None:
        content = "\n".join(current_lines).strip()
        if content or current_title:
            sections.append({"title": current_title, "content": content})

    for line in lines:
        match = _HEADING_RE.match(line)
        # The final flush adds one more section, so stop splitting once
        # max_sections - 1 are already flushed.
        if match and len(sections) < max_sections - 1:
            flush()
            current_title = match.group(2).strip()
            current_lines = []
        else:
            current_lines.append(line)
    flush()
    return sections


def sections_rows(ds, query: str | None = None):
    """Dataset stage: explode extracted documents into section rows, with
    the query filter (and its return-all fallback) applied per document."""

    def explode(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        texts = batch["extracted_text"].to_pylist()
        out_url, out_idx, out_title, out_content, out_fname = [], [], [], [], []
        for url, text in zip(urls, texts):
            sections = build_sections(text or "")
            outline = [
                {"title": s["title"], "index": i} for i, s in enumerate(sections)
            ]
            kept = filter_outlines_by_query(outline, query or "")
            kept_indices = {o["index"] for o in kept}
            base = url.rsplit("/", 1)[-1] or "doc"
            for i, section in enumerate(sections):
                if i not in kept_indices:
                    continue
                out_url.append(url)
                out_idx.append(i)
                out_title.append(section["title"])
                out_content.append(section["content"])
                out_fname.append(safe_filename(section["title"] or f"section{i}", base))
        return pa.Table.from_arrays(
            [
                pa.array(out_url, pa.string()),
                pa.array(out_idx, pa.int32()),
                pa.array(out_title, pa.string()),
                pa.array(out_content, pa.string()),
                pa.array(out_fname, pa.string()),
            ],
            names=["url", "section_idx", "title", "content", "filename"],
        )

    return ds.map_batches(explode, batch_format="pyarrow")


def build_pdf_outline_sections(
    payload: bytes, query: str | None = None, max_sections: int = _MAX_SECTIONS
) -> list[dict]:
    """Sections of one real PDF from its outline tree.

    Mirrors the reference's outline splitter: top-level bookmarks delimit
    page ranges, capped at ``max_sections`` (the 5th+ bookmark's pages fold
    into the last kept section — reference: src/services/pdf_processor.py:
    56-59,105-221), the query filter keeps matching titles with the
    return-all fallback (reference: src/core/utils.py:11-32). Section
    content is the layout-extracted markdown of the section's page range.
    """
    import numpy as np

    from ..functions.assemble import combine_pages
    from ..functions.pdf_extract import decode_records, records_to_markdown

    records = decode_records(payload)
    from ..functions.pdf_codec import PdfError, parse_pdf_outline

    try:
        outline = parse_pdf_outline(payload)
    except (PdfError, ValueError):  # toy records / outline-less PDFs
        outline = []

    # Page markdowns indexed by ACTUAL page id — a glyph-less page (e.g. an
    # empty section) must keep its slot or every later outline index would
    # shift onto the wrong content.
    # records_to_markdown emits one markdown per unique page id, ascending.
    per_page = dict(zip(np.unique(records["page"]).tolist(), records_to_markdown(records)[0]))
    n_pages = max(
        [int(records["page"].max()) + 1 if len(records) else 0]
        + [idx + 1 for _, idx in outline]
    )
    page_markdowns = [per_page.get(i, "") for i in range(n_pages)]

    if not outline:
        content = combine_pages([m for m in page_markdowns if m])
        return [{"title": "", "index": 0, "content": content}]
    kept_outline = outline[:max_sections]
    sections = []
    for i, (title, start) in enumerate(kept_outline):
        end = (
            outline[i + 1][1] if i + 1 < len(kept_outline) else len(page_markdowns)
        )
        span = [m for m in page_markdowns[start:end] if m]
        sections.append(
            {
                "title": title,
                "index": i,
                "content": combine_pages(span) if span else "",
            }
        )
    filtered = filter_outlines_by_query(
        [{"title": s["title"], "index": s["index"]} for s in sections], query or ""
    )
    kept = {o["index"] for o in filtered}
    return [s for s in sections if s["index"] in kept]


def pdf_sections_rows(ds, query: str | None = None):
    """Dataset stage: real-PDF pages → outline-delimited section rows (the
    PDF-branch counterpart of :func:`sections_rows`; same output schema)."""

    def explode(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        payloads = batch["html"].to_pylist()
        out_url, out_idx, out_title, out_content, out_fname = [], [], [], [], []
        for url, payload in zip(urls, payloads):
            base = url.rsplit("/", 1)[-1] or "doc"
            try:
                sections = build_pdf_outline_sections(bytes(payload or b""), query)
            except Exception:  # noqa: BLE001 — containment boundary: one
                # corrupt/truncated payload (PdfError, zlib.error, slicing
                # errors from hostile bytes) must degrade to a single empty
                # error section, not abort the corpus-scale job — mirroring
                # the extract stage's per-row `extract_error` containment.
                sections = [{"title": "extract_error", "index": 0, "content": ""}]
            for s in sections:
                out_url.append(url)
                out_idx.append(s["index"])
                out_title.append(s["title"])
                out_content.append(s["content"])
                out_fname.append(safe_filename(s["title"] or f"section{s['index']}", base))
        return pa.Table.from_arrays(
            [
                pa.array(out_url, pa.string()),
                pa.array(out_idx, pa.int32()),
                pa.array(out_title, pa.string()),
                pa.array(out_content, pa.string()),
                pa.array(out_fname, pa.string()),
            ],
            names=["url", "section_idx", "title", "content", "filename"],
        )

    return ds.map_batches(explode, batch_format="pyarrow")
