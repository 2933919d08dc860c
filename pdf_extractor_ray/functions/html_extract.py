"""Deterministic HTML main-content extraction (boilerplate removal).

This is the engine's analogue of the reference's OCR extraction step
(reference: src/services/extraction_service.py:26-114 — per-page markdown with
tables rendered as pipe tables): a single-pass tokenizer (one regex scanner
that builds the blocks as it goes, differential-tested against stdlib
``html.parser``) producing a block-feature stream, followed by
Boilerpipe/trafilatura-style text-density / link-density block scoring. Pure
and wall-clock-free so the same bytes produce byte-identical markdown at any
parallelism level.

Block model
-----------
- Text accumulates between block-level tag boundaries; whitespace runs
  collapse to single spaces.
- Blocks inside ``nav/header/footer/aside/form/button`` (or elements whose
  class/id tokens look like navigation chrome) are boilerplate.
- A block whose linked-character density exceeds ``max_link_density`` is
  boilerplate (link lists, menus).
- Short non-heading blocks (< ``min_block_text_len`` chars) are dropped.
- ``<table>`` elements parse into :class:`..functions.tables.PageTable`;
  header row = a leading ``<th>`` row.
- ``<div class="page">`` marks a page boundary (the fixture analogue of a
  PDF page); per-page markdowns are combined by
  :func:`..functions.assemble.combine_pages` (page headers only for
  multi-page documents, reference: src/core/utils.py:112-161).

Two flavors mirror the reference's workflow routes
(reference: src/workflows/workflow_router.py:15-46):
- ``article`` (default / "mistral" analogue): headings + paragraphs +
  inline tables.
- ``table_merge`` ("azure_document_intelligence" analogue): tables only,
  merged across pages with the header-match / continuation /
  balance-continuity rules (reference: table_merger.py:102-186), rendered
  with page-range captions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html import unescape as _unescape
import re

from .assemble import EMPTY_CONTENT_MESSAGE, combine_pages
from .normalize import fix_bidi_text
from .tables import MergedTable, PageTable, merge_tables_across_pages

IGNORED_TAGS = frozenset({"script", "style", "noscript", "template", "svg", "head", "iframe"})
BOILERPLATE_TAGS = frozenset({"nav", "header", "footer", "aside", "form", "button"})
BOILERPLATE_CLASS_TOKENS = frozenset(
    {
        "nav", "navbar", "menu", "sidebar", "footer", "header", "banner",
        "cookie", "consent", "ad", "ads", "advert", "breadcrumb", "comment",
        "share", "social", "related", "widget", "promo", "subscribe",
    }
)
BLOCK_TAGS = frozenset(
    {
        "p", "div", "section", "article", "main", "body", "li", "ul", "ol",
        "h1", "h2", "h3", "h4", "h5", "h6", "pre", "blockquote", "tr",
        "table", "figcaption", "dt", "dd",
    }
)
HEADING_TAGS = frozenset({"h1", "h2", "h3", "h4", "h5", "h6"})


@dataclass
class Block:
    """One candidate content block with its scoring features."""

    kind: str  # 'text' | 'heading' | 'table'
    page: int
    text: str = ""
    text_len: int = 0
    link_len: int = 0
    boilerplate: bool = False
    heading_level: int = 0
    table: PageTable | None = None
    # Raw-source char span [span_start, span_end) covering the block's
    # text runs — provenance for span-level training-data alignment.
    # Table blocks and synthetic runs carry -1 (SURVEY north star:
    # "reconciles extracted spans against the provided text column").
    span_start: int = field(default=-1, compare=False)
    span_end: int = field(default=-1, compare=False)

    @property
    def link_density(self) -> float:
        return self.link_len / self.text_len if self.text_len else 0.0


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------
# One regex scanner walks the page and builds the block stream in the same
# loop, its state in local variables. tests/test_html_fast.py checks it block
# for block against reference tokenizers driven by stdlib html.parser and by
# the regex frontend it replaced (tests/html_oracle.py). Only the tags in
# _ACTIVE_TAGS change the state; attributes are parsed only where they are
# read (block and boilerplate start tags outside tables), <script>/<style>
# raw content is skipped with a single find, and entities are unescaped only
# in runs that contain '&'.

_TOKEN_RE = re.compile(
    r"<!--.*?-->"                        # comments
    r"|<!\[[A-Za-z]*\[.*?\]\]>"          # marked sections: CDATA/INCLUDE/…
    r"|<![^>]*>"                          # doctype / declarations
    r"|<\?[^>]*>"                         # processing instructions
    r"|</(?:[^a-zA-Z>][^>]*)?>"          # bogus end tag (</ p>, </>): drop
    r"|<(/?)([a-zA-Z][a-zA-Z0-9:-]*)"    # tag open: slash + name
    # Attributes: quoted strings may contain '>', otherwise any non-'>'
    # char (lenient like html.parser — unpaired quotes are plain chars).
    r"((?:\"[^\"]*\"|'[^']*'|[^>])*)"
    r">"
    r"|[^<]+"                             # text
    r"|<",                                # stray '<' → literal text
    re.DOTALL,
)
_ATTR_RE = re.compile(
    r"([a-zA-Z][a-zA-Z0-9_:-]*)\s*(?:=\s*(\"[^\"]*\"|'[^']*'|[^\s>]*))?"
)
_CLASS_SPLIT_RE = re.compile(r"[\s_\-]+")
_RAW_TEXT_TAGS = ("script", "style")  # html.parser CDATA_CONTENT_ELEMENTS
_BLOCK_OR_BOILER = BLOCK_TAGS | BOILERPLATE_TAGS
# Every other tag leaves the block state unchanged, so it is skipped unseen.
_ACTIVE_TAGS = IGNORED_TAGS | _BLOCK_OR_BOILER | {"a", "table", "tr", "td", "th", "br"}
# Tag events per token, as `closing` flags: a self-closing start tag is a
# start tag followed by its end tag.
_OPEN, _CLOSE, _OPEN_CLOSE = (False,), (True,), (False, True)


def _classify_attrs(tag: str, raw: str) -> tuple[bool, bool]:
    """``(is_page_div, has_boilerplate_attr)`` for a start tag's raw
    attribute text: a ``div`` whose class has a ``page`` token marks a page
    boundary; a class/id/role token in BOILERPLATE_CLASS_TOKENS marks
    navigation chrome."""
    is_page = is_boiler = False
    for match in _ATTR_RE.finditer(raw):
        key = match.group(1).lower()
        value = match.group(2)
        if not value or key not in ("class", "id", "role"):
            continue
        if value[0] in "\"'":
            value = value[1:-1]
        if "&" in value:
            value = _unescape(value)
        if not value:
            continue
        tokens = _CLASS_SPLIT_RE.split(value.lower())
        if key == "class" and tag == "div" and "page" in tokens:
            is_page = True
        if not is_boiler:
            is_boiler = any(tok in BOILERPLATE_CLASS_TOKENS for tok in tokens)
    return is_page, is_boiler


def _text_block(
    parts: list[str],
    page: int,
    heading: str | None,
    pre_depth: int,
    li_depth: int,
    quote_depth: int,
    boilerplate: bool,
    link_chars: int,
    span_start: int,
    span_end: int,
) -> Block | None:
    """The block for the text pending at a block boundary (None when it is
    all whitespace). Whitespace runs collapse to one space, except inside
    ``<pre>``, whose content is kept verbatim (a fenced code block)."""
    if pre_depth:
        text = "".join(parts).strip("\n")
    else:
        text = " ".join("".join(parts).split())
    if not text:
        return None
    if heading:
        kind = "heading"
    elif pre_depth:
        kind = "pre"
    elif li_depth:
        kind = "list_item"
    elif quote_depth:
        kind = "blockquote"
    else:
        kind = "text"
    return Block(
        kind=kind,
        page=page,
        text=text,
        text_len=len(text),
        link_len=min(link_chars, len(text)),
        boilerplate=boilerplate,
        heading_level=int(heading[1]) if heading else 0,
        span_start=span_start,
        span_end=span_end,
    )


def tokenize_blocks(html: str) -> list[Block]:
    """Tokenize HTML into the raw block-feature stream (pre-scoring).

    Text accumulates between block-level tag boundaries, tracking the
    linked characters and the raw-source span of its non-blank runs.
    Block elements nest on a stack of ``(tag, is_boilerplate)``; an end tag
    pops to its nearest open match (implicit end tags in messy HTML).
    Tables collect rows of cells; a nested table flattens into the open
    cell, and a table still open at the end of input is dropped.
    """
    blocks: list[Block] = []
    page = 0
    ignore_depth = boiler_depth = link_depth = li_depth = pre_depth = quote_depth = 0
    heading: str | None = None
    stack: list[tuple[str, bool]] = []
    # pending text
    parts: list[str] = []
    link_chars = 0
    span_start = span_end = -1
    # open table (table_depth > 0); nested tables only count depth
    table_depth = 0
    rows: list[list[str]] = []
    row: list[str] | None = None
    cell: list[str] | None = None
    row_has_th = first_row_th = False

    match_token = _TOKEN_RE.match
    lower = None  # lazily lowered copy for the raw-content close-tag search
    pos, n = 0, len(html)
    while pos < n:
        match = match_token(html, pos)  # never None: the alternation is total
        start, pos = pos, match.end()
        slash, name, raw = match.groups()
        if name is None:
            if html[start] != "<":
                if ignore_depth:
                    continue
                data = html[start:pos]
                if "&" in data:
                    data = _unescape(data)
                    if not data:
                        continue
            elif pos - start == 1:  # stray '<'
                if (
                    pos < n
                    and (html[pos].isalpha() or html[pos] in "/!?")
                    and html.find(">", pos) < 0
                ):
                    # Truncated tag at EOF (crawl cut mid-payload): drop the
                    # unterminated tail, per browser EOF-in-tag handling,
                    # instead of leaking it as text.
                    break
                if ignore_depth:
                    continue
                data = "<"
            else:
                continue  # comment, declaration, processing instruction
            if cell is not None:
                cell.append(data)
            elif not table_depth:  # stray text between table cells is layout noise
                parts.append(data)
                if not data.isspace():
                    if span_start < 0:
                        span_start = start
                    span_end = pos
                if link_depth:
                    link_chars += len(" ".join(data.split()))
            continue

        tag = name.lower()
        if tag not in _ACTIVE_TAGS:
            continue
        if slash:
            events = _CLOSE
        else:
            events = _OPEN
            if raw:
                # Self-closing only when the trailing '/' is NOT part of an
                # unquoted attribute value: html.parser's attribute value
                # pattern ([^>\s]*) swallows a '/' glued to an unquoted value
                # (<div data-x=foo/> keeps the element open with value
                # "foo/"), so the '/' counts only after whitespace, a quote,
                # or the bare tag name.
                stripped = raw.rstrip()
                if stripped[-1:] == "/" and (
                    len(stripped) == 1 or stripped[-2] in " \t\n\r\f\"'"
                ):
                    events = _OPEN_CLOSE
        for closing in events:
            if tag in IGNORED_TAGS:
                if not closing:
                    ignore_depth += 1
                elif ignore_depth:
                    ignore_depth -= 1
                continue
            if ignore_depth:
                continue
            if tag == "a":
                if not closing:
                    link_depth += 1
                elif link_depth:
                    link_depth -= 1
                continue
            if table_depth:
                if tag == "table":
                    if not closing:
                        table_depth += 1
                        continue
                    table_depth -= 1
                    if table_depth:
                        continue
                elif table_depth > 1 or tag not in ("tr", "td", "th"):
                    continue  # nested table: structure flattens into the open cell
                # A cell, row or table boundary of the open table.
                if cell is not None:
                    if row is not None:
                        row.append(" ".join("".join(cell).split()))
                    cell = None
                if tag != "tr" and tag != "table":
                    if not closing:
                        cell = []
                        if tag == "th":
                            row_has_th = True
                    continue
                if row:
                    if not rows:
                        first_row_th = row_has_th
                    rows.append(row)
                row = None
                if tag == "tr":
                    if not closing:
                        row = []
                        row_has_th = False
                    continue
                # </table>: the table block
                if not rows:
                    continue
                boilerplate = boiler_depth > 0
                if not first_row_th and len(rows) == 1 and len(rows[0]) == 1:
                    # Layout table (single headerless cell — the classic
                    # old-web centering shell): unwrap to a plain text block.
                    text = rows[0][0]
                    if text:
                        blocks.append(
                            Block(
                                kind="text",
                                page=page,
                                text=text,
                                text_len=len(text),
                                boilerplate=boilerplate,
                            )
                        )
                    continue
                table = PageTable(
                    rows[0] if first_row_th else [],
                    rows[1:] if first_row_th else rows,
                    page,
                    has_headers=first_row_th,
                )
                blocks.append(
                    Block(
                        kind="table",
                        page=page,
                        text_len=sum(len(c) for r in rows for c in r),
                        boilerplate=boilerplate,
                        table=table,
                    )
                )
                continue
            if tag in _BLOCK_OR_BOILER:
                if closing and tag == "table":
                    continue  # stray </table>
                if parts:
                    block = _text_block(
                        parts, page, heading, pre_depth, li_depth, quote_depth,
                        boiler_depth > 0, link_chars, span_start, span_end,
                    )
                    if block is not None:
                        blocks.append(block)
                    parts = []
                    link_chars = 0
                    span_start = span_end = -1
                if tag == "table":
                    table_depth = 1
                    rows = []
                elif closing:
                    if heading == tag:
                        heading = None
                    # Pop to the nearest matching open element.
                    if (tag, False) in stack or (tag, True) in stack:
                        while stack:
                            popped, popped_boiler = stack.pop()
                            if popped_boiler:
                                boiler_depth -= 1
                            if popped == "li":
                                li_depth -= 1
                            elif popped == "pre":
                                pre_depth -= 1
                            elif popped == "blockquote":
                                quote_depth -= 1
                            if popped == tag:
                                break
                else:
                    is_page, is_boiler = _classify_attrs(tag, raw) if raw else (False, False)
                    if is_page:
                        page += 1
                    if tag in HEADING_TAGS:
                        heading = tag
                    elif tag == "li":
                        li_depth += 1
                    elif tag == "pre":
                        pre_depth += 1
                    elif tag == "blockquote":
                        quote_depth += 1
                    is_boiler = is_boiler or tag in BOILERPLATE_TAGS
                    if is_boiler:
                        boiler_depth += 1
                    stack.append((tag, is_boiler))
            elif tag == "br" and not closing:
                parts.append(" ")
        if events is _OPEN and tag in _RAW_TEXT_TAGS:
            # Raw-content element: skip to its close tag in one find (the
            # content is ignored anyway).
            if lower is None:
                lower = html.lower()
                if len(lower) != len(html):
                    # 'İ' (U+0130) is the one code point whose lower case is
                    # two code points. Keep it as is, so that an index into
                    # ``lower`` is an index into ``html``; like html.parser,
                    # a close tag spelled with it then ends no raw text.
                    lower = "\u0130".join(part.lower() for part in html.split("\u0130"))
            close = lower.find(f"</{tag}", pos)
            pos = n if close < 0 else close
    if parts:
        block = _text_block(
            parts, page, heading, pre_depth, li_depth, quote_depth,
            boiler_depth > 0, link_chars, span_start, span_end,
        )
        if block is not None:
            blocks.append(block)
    return blocks


def score_blocks(
    blocks: list[Block],
    min_block_text_len: int = 8,
    max_link_density: float = 0.35,
) -> list[Block]:
    """Keep content blocks, drop boilerplate.

    Rules: ancestor-boilerplate blocks drop; blocks with link density above
    the threshold drop; short non-heading, non-table blocks drop. Headings
    with no following kept text block within the same page still survive —
    section structure is part of main content.
    """
    kept: list[Block] = []
    for block in blocks:
        if block.boilerplate:
            continue
        if block.kind == "table":
            kept.append(block)
            continue
        if block.link_density > max_link_density:
            continue
        if block.kind != "heading" and block.text_len < min_block_text_len:
            continue
        kept.append(block)
    return kept


def _render_inline_table(table: PageTable, bidi_cells: bool = False) -> str:
    """Inline (article-flavor) pipe-table rendering: header + separator +
    rows when the table has headers, bare pipe rows otherwise.

    ``bidi_cells`` applies the RTL display-order fix per cell — the
    text_extraction workflow's behavior (reference:
    src/services/extraction_service.py:50-57 runs fix_bidi_text on every
    pdfplumber cell)."""
    fix = fix_bidi_text if bidi_cells else (lambda s: s)
    lines: list[str] = []
    if table.has_headers and table.headers:
        width = len(table.headers)
        lines.append("| " + " | ".join(fix(h) for h in table.headers) + " |")
        lines.append("| " + " | ".join(["---"] * width) + " |")
        for row in table.data_rows:
            padded = (row + [""] * (width - len(row)))[:width]
            lines.append("| " + " | ".join(fix(c) for c in padded) + " |")
    else:
        for row in table.data_rows:
            lines.append("| " + " | ".join(fix(c) for c in row) + " |")
    return "\n".join(lines)


def article_pages(blocks: list[Block], bidi_cells: bool = False) -> list[str]:
    """Article flavor as per-page markdowns (non-empty pages only, in page
    order). The chunked path concatenates these across chunks before the
    final :func:`..functions.assemble.combine_pages`."""
    pages: dict[int, list[str]] = {}
    for block in blocks:
        if block.kind == "heading":
            md = "#" * block.heading_level + " " + block.text
        elif block.kind == "table":
            md = _render_inline_table(block.table, bidi_cells)
        elif block.kind == "list_item":
            md = "- " + block.text
        elif block.kind == "pre":
            md = f"```\n{block.text}\n```"
        elif block.kind == "blockquote":
            md = "> " + block.text
        else:
            md = block.text
        if md:
            pages.setdefault(block.page, []).append(md)
    return ["\n\n".join(pages[p]) for p in sorted(pages)]


def render_article(blocks: list[Block]) -> str:
    """Article flavor: headings/paragraphs/inline tables, per page, combined
    with the canonical page layout."""
    return combine_pages(article_pages(blocks))


def render_merged_tables(blocks: list[Block]) -> str:
    """Table-merge flavor: cross-page merged tables with captions
    (reference: table_merger.py:102-186, 38-92), joined with blank lines."""
    tables = [b.table for b in blocks if b.kind == "table" and b.table is not None]
    if not tables:
        return EMPTY_CONTENT_MESSAGE
    merged: list[MergedTable] = merge_tables_across_pages(tables)
    return "\n\n".join(t.to_markdown() for t in merged if t.to_markdown())


def extract_html(
    html: str,
    flavor: str = "article",
    min_block_text_len: int = 8,
    max_link_density: float = 0.35,
) -> tuple[str, dict]:
    """Extract main content markdown from an HTML string.

    Returns ``(markdown, stats)`` where stats carries per-document extraction
    metrics (kept/dropped blocks, tables, pages) for the lineage aggregate.
    """
    blocks = tokenize_blocks(html)
    kept = score_blocks(blocks, min_block_text_len, max_link_density)
    if flavor == "table_merge":
        text = render_merged_tables(kept)
    elif flavor == "text_extraction":
        # pdfplumber-analogue route: article layout + per-cell bidi fix
        # (reference: extraction_service.py:26-114).
        text = combine_pages(article_pages(kept, bidi_cells=True))
    else:
        text = render_article(kept)
    stats = {
        "n_blocks_raw": len(blocks),
        "n_blocks_kept": len(kept),
        "n_tables": sum(1 for b in kept if b.kind == "table"),
        "n_pages": len({b.page for b in kept}) or 1,
    }
    return text, stats


def extract_html_spans(
    html: str,
    min_block_text_len: int = 8,
    max_link_density: float = 0.35,
) -> list[tuple[str, int, int, str]]:
    """Kept-block PROVENANCE SPANS over the raw source: one
    ``(kind, span_start, span_end, text)`` tuple per kept block, where
    ``html[span_start:span_end]`` covers the block's raw text runs —
    the span-level alignment a training-data pipeline reconciles
    against the provided text column (SURVEY north star). Table blocks
    carry (-1, -1)."""
    kept = score_blocks(
        tokenize_blocks(html), min_block_text_len, max_link_density
    )
    return [(b.kind, b.span_start, b.span_end, b.text) for b in kept]


def extract_html_pages(
    html: str,
    min_block_text_len: int = 8,
    max_link_density: float = 0.35,
) -> tuple[list[str], dict]:
    """Article-flavor extraction returning per-page markdowns (the unit the
    chunked skew path reassembles; ``combine_pages`` over the concatenation
    across chunks is byte-identical to whole-document extraction)."""
    blocks = tokenize_blocks(html)
    kept = score_blocks(blocks, min_block_text_len, max_link_density)
    pages = article_pages(kept)
    stats = {
        "n_blocks_raw": len(blocks),
        "n_blocks_kept": len(kept),
        "n_tables": sum(1 for b in kept if b.kind == "table"),
        # Pages with a kept block, as extract_html counts them (without
        # its floor of one, which the chunk merge applies once).
        "n_pages": len({b.page for b in kept}),
    }
    return pages, stats
