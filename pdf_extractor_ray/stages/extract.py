"""Document extraction stage: stateless ``map_batches`` tasks over Arrow batches.

One callable class handles both payload branches per row (HTML boilerplate
strip / toy-PDF layout analysis) so the stream never splits (a Ray Data
``filter`` branch would re-execute the upstream DAG). ``extract_batch``
builds a :class:`DocumentExtractor` per batch: its state is the config, the
query's extraction flavor and the corpus-wide password, so construction is
cheap; the compiled patterns live at module level and stay warm in the
reused worker processes (the Ray analogue of the reference's process-wide
singleton clients, reference: src/services/client_factory.py:19-135).

Skew handling: rows flagged ``needs_split`` are cut into page-range chunks
(reference: src/services/pdf_processor.py:29-68 semantics) and the chunks'
per-page markdowns are reassembled *inside the UDF* — all chunks of a
document originate from one input row, so they are already co-located and
no shuffle is needed. This is the engine's only skew path: a separate
split → extract → ``groupby(url)`` reassembly would run in the same fused
task that holds the payload, so it saves no memory, and its exchange would
move every row.
"""

from __future__ import annotations

import pyarrow as pa

from ..config import EngineConfig
from ..functions.assemble import combine_pages
from ..functions.html_extract import extract_html, extract_html_pages
from ..functions.pdf_extract import extract_pdf_pages
from ..functions.routing import ROUTE_PDF, ROUTE_HTML, get_workflow_for_query
from ..functions.split import split_payload


def row_passwords(batch: pa.Table, config: EngineConfig) -> list[bytes]:
    """One PDF password per row: the row's ``config.pdf_password_col`` value
    (string or binary) where the batch has that column and the row a value,
    else the corpus-wide ``config.pdf_password``."""
    default = (config.pdf_password or "").encode("utf-8")
    pw_col = config.pdf_password_col
    if not (pw_col and pw_col in batch.column_names):
        return [default] * len(batch)
    return [
        default
        if v is None
        else (bytes(v) if isinstance(v, (bytes, bytearray)) else str(v).encode("utf-8"))
        for v in batch[pw_col].to_pylist()
    ]


def chunk_pages(
    chunk: bytes, route: str, config: EngineConfig, password: bytes
) -> tuple[list[str], dict]:
    """Per-page markdowns and stats of one chunk (or one whole payload):
    PDF routes go to the layout kernel, everything else to the HTML
    extractor."""
    if route == ROUTE_PDF:
        # Split chunks arrive in the plaintext internal record format; the
        # password only matters for un-split payloads and for undecodable
        # ones that fell through the split whole.
        return extract_pdf_pages(chunk, password=password)
    return extract_html_pages(
        chunk.decode("utf-8", errors="replace"),
        config.min_block_text_len,
        config.max_link_density,
    )


class DocumentExtractor:
    """Batch callable: ``(html, route, needs_split, ...)`` rows →
    ``extracted_text`` + extraction metrics columns, payload column dropped
    (the shuffle-heavy downstream stages must never carry raw payload
    bytes)."""

    def __init__(self, config: EngineConfig | None = None, query: str | None = None):
        self.config = config or EngineConfig()
        # Query → workflow routing decides the extraction flavor, mirroring
        # the reference's handler dispatch (reference: workflow_router.py:15-46).
        workflow = get_workflow_for_query(query)
        if workflow == "azure_document_intelligence":
            self.flavor = "table_merge"
        elif workflow == "text_extraction":
            self.flavor = "text_extraction"  # article + per-cell bidi fix
        else:
            self.flavor = "article"
        # Corpus-wide encrypted-PDF credential, for calls that pass no
        # per-row password.
        self._pw = (self.config.pdf_password or "").encode("utf-8")

    def _extract_one(
        self,
        payload: bytes | None,
        route: str,
        needs_split: bool,
        password: bytes | None = None,
    ):
        if payload is None or route not in (ROUTE_PDF, ROUTE_HTML):
            return "", 0, 0, 0, 0
        pw = self._pw if password is None else password
        cfg = self.config
        if needs_split and self.flavor == "article":
            chunks = split_payload(payload, route, cfg.max_pages_per_chunk, password=pw)
            all_pages: list[str] = []
            n_pages = n_blocks = n_tables = 0
            for chunk in chunks:
                pages, stats = chunk_pages(chunk, route, cfg, pw)
                all_pages.extend(pages)
                n_pages += stats["n_pages"]
                n_blocks += stats.get("n_blocks_kept", stats.get("n_blocks", 0))
                n_tables += stats.get("n_tables", 0)
            if route == ROUTE_HTML:
                # As whole-document extract_html: a page with no kept
                # block still counts as one page.
                n_pages = n_pages or 1
            text = combine_pages(all_pages)
            return text, n_pages, n_blocks, n_tables, len(chunks)
        if route == ROUTE_PDF:
            if self.flavor == "text_extraction":
                # table-aware PDF layout analysis + per-cell BiDi — the
                # pdfplumber bank-statement path
                # (reference: extraction_service.py:26-114)
                from ..functions.pdf_extract import extract_pdf_pages_tables

                pages, stats = extract_pdf_pages_tables(payload, password=pw)
                return (
                    combine_pages(pages),
                    stats["n_pages"],
                    stats["n_blocks"],
                    stats["n_tables"],
                    1,
                )
            pages, stats = extract_pdf_pages(payload, password=pw)
            return (
                combine_pages(pages),
                stats["n_pages"],
                stats["n_blocks"],
                0,
                1,
            )
        text, stats = extract_html(
            payload.decode("utf-8", errors="replace"),
            self.flavor,
            cfg.min_block_text_len,
            cfg.max_link_density,
        )
        return text, stats["n_pages"], stats["n_blocks_kept"], stats["n_tables"], 1

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["html"]
        routes = batch["route"].to_pylist()
        needs_split = batch["needs_split"].to_pylist()
        row_pws = row_passwords(batch, self.config)
        texts, n_pages, n_blocks, n_tables, n_chunks = [], [], [], [], []
        errors: list[str | None] = []
        for i in range(len(batch)):
            # Per-document error containment: a malformed payload yields an
            # empty extraction (repaired downstream by the validate stage's
            # substitution policy) — one bad document must never abort a
            # corpus-scale job (the reference's per-request error taxonomy,
            # reference: src/core/error_handling.py:31-59, becomes a
            # per-row error column).
            try:
                text, pages, blocks, tables, chunks = self._extract_one(
                    payloads[i].as_py(),
                    routes[i],
                    bool(needs_split[i]),
                    password=row_pws[i],
                )
                errors.append(None)
            except Exception as exc:  # noqa: BLE001 — containment boundary
                text, pages, blocks, tables, chunks = "", 0, 0, 0, 0
                errors.append(f"{type(exc).__name__}: {exc}"[:200])
            texts.append(text)
            n_pages.append(pages)
            n_blocks.append(blocks)
            n_tables.append(tables)
            n_chunks.append(chunks)
        drop = ["html", "needs_split"]
        if self.config.pdf_password_col in batch.column_names:
            drop.append(self.config.pdf_password_col)  # credentials never flow downstream
        out = batch.drop_columns(drop)
        return (
            out.append_column("extracted_text", pa.array(texts, pa.string()))
            .append_column("n_pages", pa.array(n_pages, pa.int32()))
            .append_column("n_blocks", pa.array(n_blocks, pa.int32()))
            .append_column("n_tables", pa.array(n_tables, pa.int32()))
            .append_column("n_chunks", pa.array(n_chunks, pa.int32()))
            .append_column("extract_error", pa.array(errors, pa.string()))
        )


def extract_batch(
    batch: pa.Table, config: EngineConfig | None = None, query: str | None = None
) -> pa.Table:
    """Task form of :class:`DocumentExtractor` (the pipeline's extract stage)."""
    return DocumentExtractor(config, query)(batch)
