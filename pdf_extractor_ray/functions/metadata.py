"""HTML head-metadata extraction: title, meta description, canonical link,
Open Graph properties.

Crawl pipelines key search/dedup/display logic off head metadata long
before body extraction runs; the reference has no equivalent (it consumes
PDFs), so this is engine-native surface. Single pass, stops at the end of
``<head>`` (or the first body-content tag in head-less soup) — the parser
never walks a page's body, which at crawl scale is most of the bytes.
"""

from __future__ import annotations

from html.parser import HTMLParser


class _HeadParser(HTMLParser):
    """Tolerant of attribute order, quoting style, self-closing slashes,
    uppercase tag/attr names, and missing </head>."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.title_parts: list[str] = []
        self.description: str | None = None
        self.canonical: str | None = None
        self.og: dict[str, str] = {}
        self.tw: dict[str, str] = {}
        self._in_title = False
        self.done = False

    def handle_starttag(self, tag, attrs):
        if self.done:
            return
        if tag == "title":
            self._in_title = True
            return
        a = {k.lower(): (v or "") for k, v in attrs}
        if tag == "meta":
            name = a.get("name", "").lower()
            prop = a.get("property", "").lower()
            content = a.get("content", "")
            if name == "description" and self.description is None:
                self.description = content
            elif prop.startswith("og:"):
                self.og.setdefault(prop[3:], content)
            elif name.startswith("twitter:"):
                self.tw.setdefault(name[8:], content)
        elif tag == "link":
            rels = a.get("rel", "").lower().split()
            if "canonical" in rels and self.canonical is None:
                self.canonical = a.get("href") or None
        elif tag == "body":
            self.done = True

    def handle_endtag(self, tag):
        if tag == "title":
            self._in_title = False
        elif tag == "head":
            self.done = True

    def handle_data(self, data):
        if self._in_title and not self.done:
            self.title_parts.append(data)


def parse_head_meta(html: str) -> dict:
    """→ ``{title, description, canonical, og}`` (None / {} when absent).
    Whitespace inside the title collapses to single spaces (what a crawler
    indexes), entity references are resolved by the tokenizer."""
    p = _HeadParser()
    try:
        p.feed(html)
        p.close()
    except Exception:  # noqa: BLE001 — soup must never kill a batch
        pass
    title = " ".join("".join(p.title_parts).split()) or None
    return {
        "title": title,
        "description": p.description,
        "canonical": p.canonical,
        "og": p.og,
        "twitter": p.tw,
    }


_JSONLD_RE = None


def extract_jsonld(html: str) -> list[dict]:
    """Parse every ``<script type="application/ld+json">`` block —
    schema.org structured data, the machine-readable layer crawlers
    index (products, articles, breadcrumbs). Tolerant: attribute order/
    quoting varies, malformed JSON blocks are skipped (a bad block never
    kills the page), a top-level JSON array contributes each element.
    Returns the parsed dicts in document order."""
    global _JSONLD_RE
    import json
    import re

    if _JSONLD_RE is None:
        _JSONLD_RE = re.compile(
            r"<script[^>]*type\s*=\s*[\"']application/ld\+json[\"'][^>]*>"
            r"(.*?)</script>",
            re.IGNORECASE | re.DOTALL,
        )
    out: list[dict] = []
    for block in _JSONLD_RE.findall(html or ""):
        try:
            data = json.loads(block)
        except ValueError:
            continue
        if isinstance(data, list):
            out.extend(d for d in data if isinstance(d, dict))
        elif isinstance(data, dict):
            out.append(data)
    return out


def jsonld_batch(batch, html_col: str = "html", id_col: str = "doc_id"):
    """Per-page JSON-LD summary rows: one row per (page, @type) with the
    count of blocks of that type — the schema.org census a crawl product
    ships. Pages without valid JSON-LD emit nothing."""
    import pyarrow as pa

    ids, types, counts = [], [], []
    for i, payload in zip(batch[id_col].to_pylist(), batch[html_col].to_pylist()):
        text = (
            payload.decode("utf-8", errors="replace")
            if isinstance(payload, (bytes, bytearray))
            else (payload or "")
        )
        tally: dict[str, int] = {}
        for d in extract_jsonld(text):
            t = d.get("@type")
            if isinstance(t, str):
                tally[t] = tally.get(t, 0) + 1
        for t in sorted(tally):
            ids.append(i)
            types.append(t)
            counts.append(tally[t])
    return pa.Table.from_arrays(
        [
            pa.array(ids, pa.int64()),
            pa.array(types, pa.string()),
            pa.array(counts, pa.int64()),
        ],
        names=[id_col, "schema_type", "n_blocks"],
    )


_HREFLANG_RE = None


def extract_hreflang(html: str) -> list[tuple[str, str]]:
    """``<link rel="alternate" hreflang="..." href="...">`` pairs in
    document order — the multilingual-variant declaration used to align
    translated page sets (the parallel-corpus discovery signal). Tolerant
    of attribute order and quoting; entries missing either attribute are
    skipped."""
    global _HREFLANG_RE
    import re

    if _HREFLANG_RE is None:
        _HREFLANG_RE = re.compile(r"<link\b[^>]*>", re.IGNORECASE)
    out: list[tuple[str, str]] = []
    attr = re.compile(
        r"""(rel|hreflang|href)\s*=\s*["']([^"']*)["']""", re.IGNORECASE
    )
    for tag in _HREFLANG_RE.findall(html or ""):
        attrs = {k.lower(): v for k, v in attr.findall(tag)}
        if attrs.get("rel", "").lower() == "alternate" and \
                "hreflang" in attrs and "href" in attrs:
            out.append((attrs["hreflang"], attrs["href"]))
    return out


def translation_sets_batch(batch, html_col: str = "html", url_col: str = "url"):
    """Per-page translation-set rows: the set id is the MIN url of the
    sorted variant set (self ∪ declared alternates) — pages declaring the
    same variant set share an id, grouping mutually translated pages
    WITHOUT a graph exchange (the declaration is the co-location).
    → ``(url, set_id, n_variants, langs)`` with langs comma-joined
    sorted."""
    import pyarrow as pa

    urls_out, sids, nvars, langs_out = [], [], [], []
    for url, payload in zip(
        batch[url_col].to_pylist(), batch[html_col].to_pylist()
    ):
        text = (
            payload.decode("utf-8", errors="replace")
            if isinstance(payload, (bytes, bytearray))
            else (payload or "")
        )
        pairs = extract_hreflang(text)
        if not pairs:
            continue
        variants = sorted({url} | {href for _, href in pairs})
        urls_out.append(url)
        sids.append(variants[0])
        nvars.append(len(variants))
        langs_out.append(",".join(sorted({lg for lg, _ in pairs})))
    return pa.Table.from_arrays(
        [
            pa.array(urls_out, pa.string()),
            pa.array(sids, pa.string()),
            pa.array(nvars, pa.int64()),
            pa.array(langs_out, pa.string()),
        ],
        names=[url_col, "set_id", "n_variants", "langs"],
    )


_META_REFRESH_RE = None


def extract_meta_refresh(html: str) -> str | None:
    """The client-side redirect target of a ``<meta http-equiv="refresh"
    content="N;url=...">`` tag, or None. Tolerant of attribute order,
    case, whitespace around the semicolon, and 'URL='/'url=' casing —
    the second redirect channel a crawler must follow besides HTTP 3xx."""
    global _META_REFRESH_RE
    import re

    if _META_REFRESH_RE is None:
        _META_REFRESH_RE = re.compile(r"<meta\b[^>]*>", re.IGNORECASE)
    attr = re.compile(
        r"""(http-equiv|content)\s*=\s*["']([^"']*)["']""", re.IGNORECASE
    )
    for tag in _META_REFRESH_RE.findall(html or ""):
        attrs = {k.lower(): v for k, v in attr.findall(tag)}
        if attrs.get("http-equiv", "").lower() != "refresh":
            continue
        content = attrs.get("content", "")
        m = re.search(r";\s*url\s*=\s*(\S+)", content, re.IGNORECASE)
        if m:
            return m.group(1).strip("'\"")
    return None


def meta_refresh_edges_batch(batch, html_col: str = "html", url_col: str = "url"):
    """Pages → ``(src, dst)`` single-hop redirect edges from meta-refresh
    tags (pages without one emit nothing) — feed
    :func:`..ops.links.resolve_redirects` alongside HTTP 3xx edges."""
    import pyarrow as pa

    srcs, dsts = [], []
    for url, payload in zip(
        batch[url_col].to_pylist(), batch[html_col].to_pylist()
    ):
        text = (
            payload.decode("utf-8", errors="replace")
            if isinstance(payload, (bytes, bytearray))
            else (payload or "")
        )
        target = extract_meta_refresh(text)
        if target:
            srcs.append(url)
            dsts.append(target)
    return pa.Table.from_arrays(
        [pa.array(srcs, pa.string()), pa.array(dsts, pa.string())],
        names=["src", "dst"],
    )


_ITEMSCOPE_RE = None
_ITEMTYPE_RE = None
_ITEMPROP_RE = None


def extract_microdata(html: str) -> tuple[list[str], int]:
    """Microdata census for one page: the itemtype values of every
    ``itemscope`` declaration (schema.org URL tail, e.g. ``Product``)
    plus the page's total ``itemprop`` attribute count.

    Microdata is the second of schema.org's three carriers (JSON-LD and
    RDFa are the others; :func:`extract_jsonld` covers the first) and
    still the majority carrier on commerce pages. Attribute-order and
    quote tolerant, same scanning contract as the sibling extractors:
    compiled regex over the raw markup, no DOM build."""
    global _ITEMSCOPE_RE, _ITEMPROP_RE, _ITEMTYPE_RE
    import re

    if _ITEMSCOPE_RE is None:
        _ITEMSCOPE_RE = re.compile(
            r"<[a-zA-Z][^>]*\bitemscope\b[^>]*>", re.IGNORECASE
        )
        _ITEMTYPE_RE = re.compile(
            r"""\bitemtype\s*=\s*["']([^"'<>]+)["']""", re.IGNORECASE
        )
        _ITEMPROP_RE = re.compile(
            r"""\bitemprop\s*=\s*["'][^"'<>]+["']""", re.IGNORECASE
        )
    types = []
    for tag in _ITEMSCOPE_RE.findall(html):
        m = _ITEMTYPE_RE.search(tag)
        if not m:
            continue
        tail = m.group(1).rstrip("/").rsplit("/", 1)[-1].strip()
        if tail:
            types.append(tail)
    return types, len(_ITEMPROP_RE.findall(html))


def microdata_batch(batch, html_col: str = "html", id_col: str = "doc_id"):
    """Per-page microdata summary rows: one row per (page, itemtype) with
    the count of itemscope declarations of that type and the page's total
    itemprop count carried on each row. Pages without microdata emit
    nothing. One stateless shuffle-free pass."""
    import pyarrow as pa

    ids, types, counts, props = [], [], [], []
    for i, payload in zip(batch[id_col].to_pylist(), batch[html_col].to_pylist()):
        text = (
            payload.decode("utf-8", errors="replace")
            if isinstance(payload, (bytes, bytearray))
            else (payload or "")
        )
        tlist, n_props = extract_microdata(text)
        tally: dict[str, int] = {}
        for t in tlist:
            tally[t] = tally.get(t, 0) + 1
        for t in sorted(tally):
            ids.append(i)
            types.append(t)
            counts.append(tally[t])
            props.append(n_props)
    return pa.Table.from_arrays(
        [
            pa.array(ids, pa.int64()),
            pa.array(types, pa.string()),
            pa.array(counts, pa.int64()),
            pa.array(props, pa.int64()),
        ],
        names=[id_col, "item_type", "n_items", "n_props"],
    )


def opengraph_batch(batch, html_col: str = "html", id_col: str = "doc_id"):
    """OpenGraph / Twitter-card census — the social-metadata carrier next
    to JSON-LD (Q jsonld_census) and microdata (Q microdata_census): per
    page the count of distinct ``og:*`` properties, distinct
    ``twitter:*`` names, and whether the page carries a COMPLETE og card
    (title + type + image + url — the og protocol's required four).
    First-wins duplicate semantics match the head parser. One stateless
    shuffle-free pass."""
    import pyarrow as pa

    ids = batch[id_col].to_pylist()
    htmls = batch[html_col].to_pylist()
    n_og, n_tw, complete = [], [], []
    required = ("title", "type", "image", "url")
    for h in htmls:
        if isinstance(h, bytes):
            h = h.decode("utf-8", "replace")
        meta = parse_head_meta(h or "")
        og, tw = meta["og"], meta["twitter"]
        n_og.append(len(og))
        n_tw.append(len(tw))
        complete.append(int(all(r in og for r in required)))
    return pa.Table.from_arrays(
        [
            pa.array(ids, pa.int64()),
            pa.array(n_og, pa.int64()),
            pa.array(n_tw, pa.int64()),
            pa.array(complete, pa.int64()),
        ],
        names=[id_col, "n_og", "n_twitter", "og_complete"],
    )


# ---------------------------------------------------------------------------
# Publish-date extraction (round 5 — htmldate/trafilatura-style precedence)
# ---------------------------------------------------------------------------

_PUB_META_RE = None
_PUB_JSONLD_RE = None
_PUB_TIME_RE = None
_PUB_URL_RE = None


def _norm_date(raw: str) -> str | None:
    """ISO-ish date string → normalized ``YYYY-MM-DD`` (zero-padded), or
    None when implausible (year outside 1990–2035, bad month/day)."""
    import re

    m = re.match(r"\s*(\d{4})-(\d{1,2})-(\d{1,2})", raw or "")
    if not m:
        return None
    y, mo, d = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if not (1990 <= y <= 2035 and 1 <= mo <= 12 and 1 <= d <= 31):
        return None
    return f"{y:04d}-{mo:02d}-{d:02d}"


def extract_publish_date(html: str, url: str = "") -> tuple[str, str]:
    """Best-effort publication date with a DETERMINISTIC precedence
    ladder (the htmldate/trafilatura shape, restated as an exact rule):

    1. ``<meta property="article:published_time" content=...>`` (also
       ``name=`` and the ``datePublished``/``date`` meta names);
    2. JSON-LD ``"datePublished"`` (first block carrying one);
    3. first ``<time datetime=...>`` element;
    4. a ``/YYYY/MM/`` (or ``/YYYY-MM-DD``) path segment in the URL
       (day defaults to 01);
    5. none.

    Returns ``(source, date)`` where source ∈ {meta, jsonld, time, url,
    none} and date is ``YYYY-MM-DD`` or ``""``. Implausible candidates
    (year outside 1990–2035, bad month/day) fall through to the next
    rung rather than winning with garbage."""
    global _PUB_META_RE, _PUB_JSONLD_RE, _PUB_TIME_RE, _PUB_URL_RE
    import re

    if _PUB_META_RE is None:
        _PUB_META_RE = re.compile(
            r"""<meta[^>]+(?:property|name)\s*=\s*["']?"""
            # the name ends at a quote, whitespace or `>`: ``dateModified``
            # is not ``date``
            r"""(?:article:published_time|datePublished|date)(?=["'\s>])["']?[^>]*"""
            r"""content\s*=\s*["']([^"'<>]+)""",
            re.IGNORECASE,
        )
        _PUB_JSONLD_RE = re.compile(
            r'"datePublished"\s*:\s*"([^"]+)"', re.IGNORECASE
        )
        _PUB_TIME_RE = re.compile(
            r"""<time[^>]+datetime\s*=\s*["']([^"'<>]+)""", re.IGNORECASE
        )
        _PUB_URL_RE = re.compile(
            r"/((?:19|20)\d{2})[/-](\d{1,2})(?:[/-](\d{1,2}))?(?=[/-]|$)"
        )
    html = html or ""
    for source, rx in (
        ("meta", _PUB_META_RE), ("jsonld", _PUB_JSONLD_RE),
        ("time", _PUB_TIME_RE),
    ):
        for raw in rx.findall(html):
            norm = _norm_date(raw)
            if norm:
                return source, norm
    m = _PUB_URL_RE.search(url or "")
    if m:
        y, mo = int(m.group(1)), int(m.group(2))
        d = int(m.group(3)) if m.group(3) else 1
        if 1990 <= y <= 2035 and 1 <= mo <= 12 and 1 <= d <= 31:
            return "url", f"{y:04d}-{mo:02d}-{d:02d}"
    return "none", ""


def publish_date_batch(batch, html_col: str = "html", url_col: str = "url",
                       id_col: str = "doc_id"):
    """Per-page publish-date rows ``(doc_id, date_source, pub_date)``."""
    import pyarrow as pa

    ids, sources, dates = [], [], []
    for i, payload, url in zip(
        batch[id_col].to_pylist(),
        batch[html_col].to_pylist(),
        batch[url_col].to_pylist(),
    ):
        text = (
            payload.decode("utf-8", errors="replace")
            if isinstance(payload, (bytes, bytearray))
            else (payload or "")
        )
        src, date = extract_publish_date(text, url or "")
        ids.append(i)
        sources.append(src)
        dates.append(date)
    return pa.Table.from_arrays(
        [
            pa.array(ids, pa.int64()),
            pa.array(sources, pa.string()),
            pa.array(dates, pa.string()),
        ],
        names=[id_col, "date_source", "pub_date"],
    )
