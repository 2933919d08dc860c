"""The reference HTML tokenizers the package's scanner is tested against.

``_Tokenizer`` is the block builder driven by either frontend: stdlib
``html.parser`` (``engine="stdlib"``, which handles every corner of
real-world HTML) or the regex scanner ``_fast_feed`` (``engine="fast"``).
Both were the package's tokenizers before the one-function scanner in
``pdf_extractor_ray.functions.html_extract`` replaced them; they are kept
here unchanged as the differential oracle: the fast frontend must equal
the scanner block for block, spans included, and the stdlib frontend must
equal both on blocks (it reports no spans).
"""

from __future__ import annotations

from html import unescape as _unescape
from html.parser import HTMLParser
import re

from pdf_extractor_ray.functions.html_extract import (
    BLOCK_TAGS,
    BOILERPLATE_CLASS_TOKENS,
    BOILERPLATE_TAGS,
    HEADING_TAGS,
    IGNORED_TAGS,
    Block,
)
from pdf_extractor_ray.functions.tables import PageTable

_WS_RE = re.compile(r"\s+")


class _Tokenizer(HTMLParser):
    """Single-pass DOM walk producing the block stream."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.blocks: list[Block] = []
        self.page = 0
        self.n_page_divs = 0
        self._ignore_depth = 0
        self._boiler_depth = 0
        self._link_depth = 0
        self._li_depth = 0
        self._pre_depth = 0
        self._quote_depth = 0
        self._heading: str | None = None
        self._parts: list[str] = []
        self._link_chars = 0
        # table state
        self._table: PageTable | None = None
        self._table_depth = 0
        self._rows: list[list[str]] = []
        self._row: list[str] | None = None
        self._cell: list[str] | None = None
        self._row_has_th = False
        self._first_row_th = False
        # Open block-element stack: (tag, is_boilerplate). Implicit end tags
        # (messy HTML) are handled by popping to the nearest matching tag.
        self._stack: list[tuple[str, bool]] = []
        # Source-position tracking (fast engine sets these around
        # handle_data; -1 = position unknown/synthetic).
        self._cur_pos = -1
        self._cur_end = -1
        self._span_start = -1
        self._span_end = -1

    # -- block accumulation -------------------------------------------------
    def _flush(self) -> None:
        if self._pre_depth:
            # Preformatted content keeps its whitespace verbatim
            # (rendered as a fenced code block).
            raw = "".join(self._parts).strip("\n")
        else:
            raw = _WS_RE.sub(" ", "".join(self._parts)).strip()
        if raw:
            if self._heading:
                kind = "heading"
            elif self._pre_depth:
                kind = "pre"
            elif self._li_depth:
                kind = "list_item"
            elif self._quote_depth:
                kind = "blockquote"
            else:
                kind = "text"
            level = int(self._heading[1]) if self._heading else 0
            self.blocks.append(
                Block(
                    kind=kind,
                    page=self.page,
                    text=raw,
                    text_len=len(raw),
                    link_len=min(self._link_chars, len(raw)),
                    boilerplate=self._boiler_depth > 0,
                    heading_level=level,
                    span_start=self._span_start,
                    span_end=self._span_end,
                )
            )
        self._parts = []
        self._link_chars = 0
        self._span_start = -1
        self._span_end = -1

    @staticmethod
    def _is_boiler_attrs(attrs: list[tuple[str, str | None]]) -> bool:
        for key, value in attrs:
            if key in ("class", "id", "role") and value:
                tokens = re.split(r"[\s_\-]+", value.lower())
                if any(tok in BOILERPLATE_CLASS_TOKENS for tok in tokens):
                    return True
        return False

    @staticmethod
    def _is_page_div(tag: str, attrs: list[tuple[str, str | None]]) -> bool:
        if tag != "div":
            return False
        for key, value in attrs:
            if key == "class" and value:
                if "page" in re.split(r"[\s_\-]+", value.lower()):
                    return True
        return False

    # -- HTMLParser hooks ---------------------------------------------------
    def handle_starttag(self, tag, attrs):
        if tag in IGNORED_TAGS:
            self._ignore_depth += 1
            return
        if self._ignore_depth:
            return
        if tag == "a":
            self._link_depth += 1
            return
        if tag == "table":
            self._table_depth += 1
            if self._table_depth == 1:
                self._flush()
                self._table = PageTable([], [], self.page)
                self._rows = []
                self._first_row_th = False
            return
        if self._table is not None:
            if self._table_depth > 1:
                return  # nested table: structure flattens into the open cell
            if tag == "tr":
                self._end_row()
                self._row = []
                self._row_has_th = False
            elif tag in ("td", "th"):
                self._end_cell()
                self._cell = []
                if tag == "th":
                    self._row_has_th = True
            return
        if tag in BLOCK_TAGS or tag in BOILERPLATE_TAGS:
            self._flush()
            if self._is_page_div(tag, attrs):
                self.n_page_divs += 1
                self.page = self.n_page_divs
            if tag in HEADING_TAGS:
                self._heading = tag
            if tag == "li":
                self._li_depth += 1
            elif tag == "pre":
                self._pre_depth += 1
            elif tag == "blockquote":
                self._quote_depth += 1
            is_boiler = tag in BOILERPLATE_TAGS or self._is_boiler_attrs(attrs)
            if is_boiler:
                self._boiler_depth += 1
            self._stack.append((tag, is_boiler))
        elif tag == "br":
            self._parts.append(" ")

    def handle_endtag(self, tag):
        if tag in IGNORED_TAGS:
            self._ignore_depth = max(0, self._ignore_depth - 1)
            return
        if self._ignore_depth:
            return
        if tag == "a":
            self._link_depth = max(0, self._link_depth - 1)
            return
        if tag == "table":
            if self._table_depth == 1 and self._table is not None:
                self._end_row()
                self._finish_table()
            self._table_depth = max(0, self._table_depth - 1)
            return
        if self._table is not None:
            if self._table_depth > 1:
                return  # nested table: see handle_starttag
            if tag == "tr":
                self._end_row()
            elif tag in ("td", "th"):
                self._end_cell()
            return
        if tag in BLOCK_TAGS or tag in BOILERPLATE_TAGS:
            self._flush()
            if tag in HEADING_TAGS and self._heading == tag:
                self._heading = None
            # Pop to the nearest matching open element (implicit end tags).
            if any(t == tag for t, _ in self._stack):
                while self._stack:
                    popped_tag, popped_boiler = self._stack.pop()
                    if popped_boiler:
                        self._boiler_depth = max(0, self._boiler_depth - 1)
                    if popped_tag == "li":
                        self._li_depth = max(0, self._li_depth - 1)
                    elif popped_tag == "pre":
                        self._pre_depth = max(0, self._pre_depth - 1)
                    elif popped_tag == "blockquote":
                        self._quote_depth = max(0, self._quote_depth - 1)
                    if popped_tag == tag:
                        break

    def handle_data(self, data):
        if self._ignore_depth or not data:
            return
        if self._cell is not None:
            self._cell.append(data)
            return
        if self._table is not None:
            return  # stray text between table cells is layout noise
        self._parts.append(data)
        if self._cur_pos >= 0 and data.strip():
            if self._span_start < 0:
                self._span_start = self._cur_pos
            self._span_end = self._cur_end
        if self._link_depth:
            self._link_chars += len(_WS_RE.sub(" ", data).strip())

    # -- table helpers ------------------------------------------------------
    def _end_cell(self) -> None:
        if self._cell is not None and self._row is not None:
            self._row.append(_WS_RE.sub(" ", "".join(self._cell)).strip())
        self._cell = None

    def _end_row(self) -> None:
        self._end_cell()
        if self._row is not None and self._row:
            if not self._rows:
                self._first_row_th = self._row_has_th
            self._rows.append(self._row)
        self._row = None

    def _finish_table(self) -> None:
        table = self._table
        self._table = None
        if table is None or not self._rows:
            return
        if (
            not self._first_row_th
            and len(self._rows) == 1
            and len(self._rows[0]) == 1
        ):
            # Layout table (single headerless cell — the classic old-web
            # centering shell): unwrap to a plain text block.
            text = self._rows[0][0]
            self._rows = []
            if text:
                self.blocks.append(
                    Block(
                        kind="text",
                        page=table.page,
                        text=text,
                        text_len=len(text),
                        boilerplate=self._boiler_depth > 0,
                    )
                )
            return
        if self._first_row_th:
            table.headers = self._rows[0]
            table.data_rows = self._rows[1:]
            table.has_headers = True
        else:
            table.headers = []
            table.data_rows = self._rows
            table.has_headers = False
        self.blocks.append(
            Block(
                kind="table",
                page=table.page,
                text_len=sum(len(c) for r in self._rows for c in r),
                boilerplate=self._boiler_depth > 0,
                table=table,
            )
        )
        self._rows = []


# ---------------------------------------------------------------------------
# Fast regex-based frontend
# ---------------------------------------------------------------------------
# The block-builder state machine above is frontend-agnostic: its handle_*
# methods can be driven by stdlib html.parser (reference implementation —
# handles every corner of real-world HTML) or by this regex scanner, which
# produces an identical block stream ~3× faster on typical pages
# (differential-tested in tests/test_html_fast.py). The scanner only parses
# attributes for tags whose attributes matter (page divs, boilerplate
# classes), skips <script>/<style> raw content with a single find, and
# unescapes entities lazily.

_FAST_TOKEN_RE = re.compile(
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
_FAST_ATTR_RE = re.compile(
    r"([a-zA-Z][a-zA-Z0-9_:-]*)\s*(?:=\s*(\"[^\"]*\"|'[^']*'|[^\s>]*))?"
)
# Tags whose attributes the block builder inspects (page divs, boilerplate
# class/id/role); all others get an empty attr list — parsing skipped.
_ATTR_TAGS = BLOCK_TAGS | BOILERPLATE_TAGS
_RAW_TEXT_TAGS = ("script", "style")  # html.parser CDATA_CONTENT_ELEMENTS


def _fast_parse_attrs(raw: str) -> list[tuple[str, str | None]]:
    attrs: list[tuple[str, str | None]] = []
    for match in _FAST_ATTR_RE.finditer(raw):
        name = match.group(1).lower()
        value = match.group(2)
        if value:
            if value[:1] in ("\"", "'"):
                value = value[1:-1]
            if "&" in value:
                value = _unescape(value)
        attrs.append((name, value))
    return attrs


def _fast_feed(html: str, builder: "_Tokenizer") -> None:
    pos = 0
    n = len(html)
    lower = None  # lazily lowered copy for raw-content close-tag search
    while pos < n:
        match = _FAST_TOKEN_RE.match(html, pos)
        if match is None:  # defensive; the alternation is total
            builder.handle_data(html[pos])
            pos += 1
            continue
        pos = match.end()
        name = match.group(2)
        if name is None:
            text = match.group(0)
            if text[0] != "<":
                if "&" in text:
                    text = _unescape(text)
                builder._cur_pos = match.start()
                builder._cur_end = match.end()
                builder.handle_data(text)
                builder._cur_pos = builder._cur_end = -1
            elif text == "<":
                nxt = html[pos : pos + 1]
                if nxt and (nxt.isalpha() or nxt in "/!?") and ">" not in html[pos:]:
                    # Truncated tag at EOF (crawl cut mid-payload): drop
                    # the unterminated tail, per browser EOF-in-tag
                    # handling, instead of leaking it as text.
                    break
                builder._cur_pos = match.start()
                builder._cur_end = match.end()
                builder.handle_data("<")
                builder._cur_pos = builder._cur_end = -1
            # comments/doctype/PI: dropped, same as the builder's stdlib path
            continue
        tag = name.lower()
        if match.group(1):  # closing tag
            builder.handle_endtag(tag)
            continue
        raw_attrs = match.group(3)
        attrs = (
            _fast_parse_attrs(raw_attrs)
            if raw_attrs and tag in _ATTR_TAGS
            else []
        )
        # Self-closing only when the trailing '/' is NOT part of an unquoted
        # attribute value: html.parser's attrfind value pattern ([^>\s]*)
        # swallows a '/' glued to an unquoted value (<div data-x=foo/> keeps
        # the element open with value "foo/"), so the fast path must too —
        # the '/' counts only after whitespace, a quote, or the bare tag name.
        stripped = raw_attrs.rstrip() if raw_attrs else ""
        self_closing = stripped.endswith("/") and (
            len(stripped) == 1 or stripped[-2] in " \t\n\r\f\"'"
        )
        builder.handle_starttag(tag, attrs)
        if self_closing:
            builder.handle_endtag(tag)
        elif tag in _RAW_TEXT_TAGS:
            # Raw-content element: skip to its close tag in one find.
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
            # (content dropped — the builder ignores it anyway)
    # no trailing buffer: the regex consumes the input fully


def tokenize_blocks(html: str, engine: str = "fast") -> list[Block]:
    """Tokenize HTML into the raw block-feature stream (pre-scoring).

    ``engine="fast"`` (default): regex scanner; ``engine="stdlib"``: the
    html.parser frontend (reference implementation for the differential
    test, and the fallback for HTML the scanner mishandles).
    """
    parser = _Tokenizer()
    if engine == "stdlib":
        parser.feed(html)
        parser.close()
    else:
        _fast_feed(html, parser)
    parser._flush()
    return parser.blocks
