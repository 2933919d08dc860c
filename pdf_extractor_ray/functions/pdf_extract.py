"""Synthetic-PDF layout parsing: char → line → block clustering.

The real container has no PDF rendering library, so the PDF branch operates
on a deterministic toy layout stream (FIXTURES.md §1 bucket 8): a payload
beginning with the ``%PDF`` magic (so routing matches the reference's magic
check, reference: src/services/pdf_input_handler.py:88-92) followed by a
fixed-width binary array of per-character boxes. The PARSER is the real
thing — pdfminer-style layout analysis (char clustering into lines by
baseline, word-gap detection, line clustering into blocks by leading,
reading-order sort), fully vectorized with numpy — only the *decode* of a
real PDF byte stream is replaced by the toy format.

Format
------
``b"%PDF-GRAFT1\\n"`` then a little-endian record array:
``(page:int32, x0:f32, y0:f32, x1:f32, y1:f32, cp:int32)``, one record per
character; y grows upward (PDF convention), origin bottom-left.
"""

from __future__ import annotations

import numpy as np

from .assemble import combine_pages
from .tables import PageTable

MAGIC = b"%PDF-GRAFT1\n"

# Pages per chunk (reference: src/core/config.py:36, MAX_PAGES_PER_CHUNK).
MAX_PAGES_PER_CHUNK = 15

RECORD_DTYPE = np.dtype(
    [
        ("page", "<i4"),
        ("x0", "<f4"),
        ("y0", "<f4"),
        ("x1", "<f4"),
        ("y1", "<f4"),
        ("cp", "<i4"),
    ]
)

CHAR_W = 6.0
LINE_H = 12.0
PAGE_W = 612.0
PAGE_H = 792.0
CHARS_PER_LINE = 80
LINES_PER_PAGE = 40


def wrap_text_rows(
    text: str, chars_per_line: int = CHARS_PER_LINE, lines_per_page: int = LINES_PER_PAGE
) -> list[list[str | None]]:
    """Word-wrap ``text`` into pages of rows (None = blank separator row):
    the one wrap contract of every fixture writer, so toy and real-PDF
    payloads of the same text produce identical layout records.

    Paragraphs (``\\n\\n``-separated) wrap at word boundaries to
    ``chars_per_line`` columns; a blank row separates paragraphs; pages
    break every ``lines_per_page`` rows."""
    rows: list[str | None] = []
    for para in text.split("\n\n"):
        words = para.split()
        if not words:
            continue
        if rows:
            rows.append(None)
        line = ""
        for word in words:
            if not line:
                line = word
            elif len(line) + 1 + len(word) <= chars_per_line:
                line += " " + word
            else:
                rows.append(line)
                line = word
        if line:
            rows.append(line)

    pages: list[list[str | None]] = []
    current: list[str | None] = []
    for row in rows:
        if len(current) >= lines_per_page:
            pages.append(current)
            current = []
        current.append(row)
    if current:
        pages.append(current)
    return pages


def _row_records(rows: list[str | None], page: int, x_offset: float = 0.0) -> list[tuple]:
    """Char records of one page's wrapped rows: row i sits i line-heights
    below the page top, one fixed-width cell per character."""
    records = []
    for row_idx, row in enumerate(rows):
        if row is None:
            continue
        y1 = PAGE_H - row_idx * LINE_H
        for col, ch in enumerate(row):
            if ch != " ":
                x0 = x_offset + col * CHAR_W
                records.append((page, x0, y1 - LINE_H, x0 + CHAR_W, y1, ord(ch)))
    return records


def layout_text(text: str, chars_per_line: int = CHARS_PER_LINE,
                lines_per_page: int = LINES_PER_PAGE) -> bytes:
    """Lay text out as a toy-PDF payload (the fixture generator's inverse of
    :func:`extract_pdf`), wrapped by :func:`wrap_text_rows`. Round-trips
    exactly through :func:`extract_pdf` for single-space-separated word
    text."""
    records = [
        rec
        for page, rows in enumerate(wrap_text_rows(text, chars_per_line, lines_per_page))
        for rec in _row_records(rows, page)
    ]
    return MAGIC + np.array(records, dtype=RECORD_DTYPE).tobytes()


def layout_text_two_column(left_text: str, right_text: str,
                           chars_per_line: int = 38) -> bytes:
    """Lay two texts out as the columns of a single two-column page (left
    column x ∈ [0, ~280], right column offset past the gutter at
    ``PAGE_W/2``). :func:`extract_pdf` must read left column fully, then
    right (column-major reading order)."""
    records = [
        rec
        for text, x_offset in ((left_text, 0.0), (right_text, PAGE_W / 2 + 2 * CHAR_W))
        for rows in wrap_text_rows(text, chars_per_line, 10**9)
        for rec in _row_records(rows, 0, x_offset)
    ]
    return MAGIC + np.array(records, dtype=RECORD_DTYPE).tobytes()


def _line_to_text(cps: np.ndarray, x0s: np.ndarray, x1s: np.ndarray) -> str:
    """Chars of one line (already x-sorted) → string, inserting a space at
    gaps wider than half a character cell (word-gap detection)."""
    if len(cps) == 0:
        return ""
    gaps = x0s[1:] - x1s[:-1]
    spaced = gaps > CHAR_W * 0.5
    # Interleave: char, [space], char, ...
    out_cps = np.empty(len(cps) + int(spaced.sum()), dtype="<u4")
    positions = np.arange(len(cps)) + np.concatenate(([0], np.cumsum(spaced)))
    out_cps[:] = ord(" ")
    out_cps[positions] = cps.astype("<u4")
    return out_cps.tobytes().decode("utf-32-le")


def extract_pdf_pages(payload: bytes, password: bytes = b"") -> tuple[list[str], dict]:
    """Layout analysis returning per-page markdowns (pages with no glyphs are
    omitted); see :func:`extract_pdf` for the algorithm. This is the unit of
    chunk reassembly for skew-split oversized PDFs. ``password`` opens
    standard-handler-encrypted files (user or owner)."""
    return records_to_markdown(decode_records(payload, password=password))


def extract_pdf(payload: bytes, password: bytes = b"") -> tuple[str, dict]:
    """Whole-document extraction: per-page layout analysis + the canonical
    page combine (reference: src/core/utils.py:112-161). ``password``
    opens standard-handler-encrypted files (user or owner, round 4)."""
    markdown_pages, stats = extract_pdf_pages(payload, password=password)
    return combine_pages(markdown_pages), stats


def _page_lines(sub: np.ndarray) -> list[tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
    """Group one page's (or column's) chars into lines: after a (-y, x)
    sort, a line runs while the baseline (y0) stays within half a
    line-height. Returns ``(baseline, cps, x0s, x1s)`` per line, top to
    bottom, chars x-sorted."""
    sub = sub[np.lexsort((sub["x0"], -sub["y0"]))]
    y0s, cps, x0s, x1s = sub["y0"], sub["cp"], sub["x0"], sub["x1"]
    bounds = np.append(
        np.flatnonzero(np.concatenate(([True], np.abs(np.diff(y0s)) > LINE_H * 0.5))),
        len(sub),
    )
    return [
        (float(y0s[lo]), cps[lo:hi], x0s[lo:hi], x1s[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def _cluster_blocks(sub: np.ndarray) -> list[list[str]]:
    """Cluster one page-column's chars into blocks of line texts: lines by
    :func:`_page_lines`, words at horizontal gaps inside a line, a new
    block at a vertical gap > 1.5 × line-height between consecutive lines
    (paragraph leading)."""
    blocks: list[list[str]] = []
    prev_y = None
    for y, cps, x0s, x1s in _page_lines(sub):
        if prev_y is None or prev_y - y > LINE_H * 1.5:
            blocks.append([])
        blocks[-1].append(_line_to_text(cps, x0s, x1s))
        prev_y = y
    return blocks


def _detect_columns(sub: np.ndarray) -> list[np.ndarray]:
    """Column detection for one page: find a vertical gutter (a ≥3-char-wide
    x-gap in the union of char intervals, within the middle half of the
    page) that no character crosses; if found, return [left, right] char
    subsets, else [whole page]. Deterministic; single-column pages are
    untouched."""
    if len(sub) < 4:
        return [sub]
    order = np.argsort(sub["x0"], kind="stable")
    x0s = sub["x0"][order]
    x1s = sub["x1"][order]
    running_max = np.maximum.accumulate(x1s)
    gaps = x0s[1:] - running_max[:-1]
    lo_bound, hi_bound = PAGE_W * 0.25, PAGE_W * 0.75
    candidates = np.flatnonzero(
        (gaps >= CHAR_W * 3)
        & (running_max[:-1] >= lo_bound)
        & (x0s[1:] <= hi_bound)
    )
    if len(candidates) == 0:
        return [sub]
    # Widest qualifying gutter wins (ties: leftmost — argmax is first max).
    best = candidates[np.argmax(gaps[candidates])]
    gutter = (float(running_max[best]) + float(x0s[best + 1])) / 2
    left = sub[sub["x1"] <= gutter]
    right = sub[sub["x0"] >= gutter]
    if len(left) == 0 or len(right) == 0 or len(left) + len(right) != len(sub):
        return [sub]
    return [left, right]


def records_to_markdown(arr: np.ndarray) -> tuple[list[str], dict]:
    """The decoder-agnostic layout-analysis kernel: char records → per-page
    markdown.

    Pipeline (the pdfminer-style semantics from the north star):
    1. per page: detect columns (gutter that no char crosses —
       :func:`_detect_columns`); reading order is column-major (left column
       top-to-bottom, then right)
    2. per column: cluster chars into lines by baseline, split words at
       horizontal gaps, cluster lines into blocks by paragraph leading
       (:func:`_cluster_blocks`)
    3. blocks join lines with spaces; blocks join with blank lines; pages
       combine with the canonical page layout
       (reference: src/core/utils.py:112-161).

    Both decode frontends feed this: the toy ``%PDF-GRAFT1`` record array
    and the real ``%PDF-1.x`` content-stream interpreter
    (:mod:`.pdf_codec`).
    """
    if len(arr) == 0:
        return [], {"n_pages": 0, "n_blocks": 0, "n_chars": 0}
    page_markdowns = []
    n_blocks = 0
    n_pages = 0
    for page in np.unique(arr["page"]):
        sub = arr[arr["page"] == page]
        block_texts: list[str] = []
        for column in _detect_columns(sub):
            for lines in _cluster_blocks(column):
                block_texts.append(" ".join(lines))
        n_blocks += len(block_texts)
        n_pages += 1
        page_markdowns.append("\n\n".join(block_texts))
    stats = {"n_pages": n_pages, "n_blocks": n_blocks, "n_chars": int(len(arr))}
    return page_markdowns, stats


def decode_records(payload: bytes, password: bytes = b"") -> np.ndarray:
    """Decode a PDF payload to char records: toy ``%PDF-GRAFT1`` arrays via
    ``np.frombuffer``; genuine ``%PDF-1.x`` files via the from-scratch
    structure parser + content-stream interpreter (:mod:`.pdf_codec` —
    replaces the reference's pdfplumber frontend,
    reference: src/services/extraction_service.py:26-114)."""
    if payload.startswith(MAGIC):
        body = payload[len(MAGIC):]
        usable = len(body) - len(body) % RECORD_DTYPE.itemsize
        return np.frombuffer(body[:usable], dtype=RECORD_DTYPE)
    if b"%PDF-" in payload[:1024]:  # leading-junk tolerance (Adobe note)
        from .pdf_codec import parse_pdf_records

        return parse_pdf_records(payload, password=password)
    raise ValueError("not a PDF payload")


def split_pdf_payload(payload: bytes, password: bytes = b"") -> list[bytes]:
    """Cut a PDF payload into chunks of ≤ ``MAX_PAGES_PER_CHUNK`` pages
    (reference: src/services/pdf_processor.py:29-68). The payload (toy or
    real ``%PDF-1.x``) is decoded ONCE by :func:`decode_records` and its
    page ranges are re-emitted as plaintext toy-format payloads, so each
    chunk is extractable by the same layout kernel without another decode or
    decrypt. Concatenating the chunks' per-page markdowns in chunk order
    and applying :func:`..functions.assemble.combine_pages` is byte-identical
    to whole-document extraction. Undecodable and short payloads come back
    whole."""
    try:
        arr = decode_records(payload, password=password)
    except Exception:
        return [payload]  # undecodable: error containment downstream
    pages = np.unique(arr["page"])
    if len(pages) <= MAX_PAGES_PER_CHUNK:
        return [payload]
    arr = arr[np.argsort(arr["page"], kind="stable")]
    chunks: list[bytes] = []
    for i in range(0, len(pages), MAX_PAGES_PER_CHUNK):
        page_set = pages[i : i + MAX_PAGES_PER_CHUNK]
        mask = (arr["page"] >= page_set[0]) & (arr["page"] <= page_set[-1])
        chunks.append(MAGIC + arr[mask].tobytes())
    return chunks


# ---------------------------------------------------------------------------
# Table-aware PDF extraction (the text_extraction / bank-statement flavor)
# ---------------------------------------------------------------------------

_CELL_GAP = CHAR_W * 3  # ≥3 char-cells of whitespace separates table columns


def _line_cells(cps: np.ndarray, x0s: np.ndarray, x1s: np.ndarray) -> list[tuple[float, str]]:
    """One x-sorted line's chars → ``(start_x, text)`` cell segments, split
    at gaps ≥ 3 character cells (the column separator); within a cell,
    ordinary word-gap detection applies."""
    if len(cps) == 0:
        return []
    gaps = x0s[1:] - x1s[:-1]
    breaks = np.flatnonzero(gaps >= _CELL_GAP) + 1
    cells = []
    for lo, hi in zip(np.concatenate(([0], breaks)), np.concatenate((breaks, [len(cps)]))):
        cells.append((float(x0s[lo]), _line_to_text(cps[lo:hi], x0s[lo:hi], x1s[lo:hi])))
    return cells


def _map_to_columns(
    ref_starts: list[float], cells: list[tuple[float, str]]
) -> list[str] | None:
    """Place a line's cells into the reference column slots by x position
    (±1 char tolerance). Sparse rows — EMPTY interior cells — map their
    present cells and leave the rest blank; any cell that matches no
    column (or doubles up) disqualifies the line from the table run."""
    out = [""] * len(ref_starts)
    for x, text in cells:
        col = None
        for j, rx in enumerate(ref_starts):
            if abs(x - rx) <= CHAR_W:
                col = j
                break
        if col is None or out[col]:
            return None
        out[col] = text
    return out


def extract_pdf_pages_tables(
    payload: bytes, password: bytes = b""
) -> tuple[list[str], dict]:
    """Table-aware layout analysis — the PDF counterpart of the reference's
    pdfplumber ``extract_table`` path used by the text_extraction
    (bank-statement) workflow (reference: src/services/
    extraction_service.py:26-114 + per-cell ``fix_bidi_text`` :49-57).

    Per page: lines whose cells (≥2, split at 3-char column gaps) start at
    matching x positions across consecutive lines form a TABLE (first line
    = headers, rendered as a markdown pipe table with the per-cell BiDi
    fix); remaining lines are paragraph text, clustered by leading as in
    :func:`records_to_markdown`. Column (gutter) detection is intentionally
    OFF here — a table's column gaps ARE gutters.
    """
    arr = decode_records(payload, password=password)
    if len(arr) == 0:
        return [], {"n_pages": 0, "n_blocks": 0, "n_chars": 0, "n_tables": 0}

    page_markdowns = []
    n_blocks = n_tables = 0
    for page in np.unique(arr["page"]):
        lines = [
            (y, _line_cells(cps, x0s, x1s))
            for y, cps, x0s, x1s in _page_lines(arr[arr["page"] == page])
        ]

        blocks: list[str] = []
        text_run: list[str] = []
        prev_text_y: float | None = None
        i = 0

        def flush_text():
            nonlocal text_run
            if text_run:
                blocks.append(" ".join(text_run))
                text_run = []

        while i < len(lines):
            y, cells = lines[i]
            starts = [c[0] for c in cells]
            if len(cells) >= 2:
                # grow a table run: the first line's starts define the
                # column grid; later lines may be SPARSE (empty interior
                # cells) as long as every present cell sits on the grid
                rows_mapped = []
                j = i + 1
                while j < len(lines):
                    nxt = lines[j][1]
                    mapped = _map_to_columns(starts, nxt) if len(nxt) >= 2 else None
                    if mapped is not None:
                        rows_mapped.append(mapped)
                        j += 1
                    else:
                        break
                if rows_mapped:
                    flush_text()
                    table = PageTable([c[1] for c in cells], rows_mapped, int(page))
                    blocks.append(table.to_markdown(bidi_cells=True))
                    n_tables += 1
                    prev_text_y = None
                    i = j
                    continue
            # plain text line: paragraph-leading clustering
            line_text = " ".join(c[1] for c in cells)
            if prev_text_y is not None and prev_text_y - y > LINE_H * 1.5:
                flush_text()
            text_run.append(line_text)
            prev_text_y = y
            i += 1
        flush_text()
        n_blocks += len(blocks)
        page_markdowns.append("\n\n".join(blocks))
    stats = {
        "n_pages": len(page_markdowns),
        "n_blocks": n_blocks,
        "n_chars": int(len(arr)),
        "n_tables": n_tables,
    }
    return page_markdowns, stats
