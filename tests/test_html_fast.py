"""Differential test: the package's HTML scanner must produce the block
stream of the reference tokenizers in ``html_oracle`` over the fixture
corpus, the perfbench corpora and a set of adversarial HTML fragments:
equal to the regex frontend block for block, spans included, and equal
to the stdlib html.parser frontend on blocks."""

import html_oracle
import pytest

from pdf_extractor_ray.functions.html_extract import tokenize_blocks


def _spans(blocks):
    return [(b.span_start, b.span_end) for b in blocks]


def assert_matches_fast_oracle(html):
    """Blocks and spans equal the regex frontend's (``span_start`` and
    ``span_end`` are ``compare=False``, so they are compared explicitly)."""
    got = tokenize_blocks(html)
    want = html_oracle.tokenize_blocks(html, "fast")
    assert got == want
    assert _spans(got) == _spans(want)
    return got


def assert_matches_oracles(html):
    """As above, and the blocks equal the stdlib frontend's."""
    got = assert_matches_fast_oracle(html)
    assert got == html_oracle.tokenize_blocks(html, "stdlib")

EDGE_CASES = [
    "<p>a &amp; b &#65; &lt;tag&gt;</p>",
    '<DIV CLASS="Page"><P>Upper tags</P></DIV>',
    "<p>bare < sign and <b>inline</b> markup</p>",
    '<script>var x = "<p>not a para</p>";</script><p>real content here</p>',
    "<style>p{color:red}</style><p>styled content text</p>",
    "<br/><p/>text<div class=unquoted-nav>nav text</div>",
    "<p title='it&amp;s'>quoted attr</p>",
    "<!-- comment <p>no</p> --><p>yes content</p>",
    "<table><tr><th>H</th></tr><tr><td>1</td></tr></table>",
    "<ul><li><a href='/x'>link one</a></li><li>plain item text</li></ul>",
    "",
    "just plain text with no markup at all",
    "<p>unclosed paragraph <div>then a div</div>",
    # Trailing '/' glued to an unquoted attribute value is part of the VALUE
    # (element stays open), not a self-closing marker — html.parser keeps
    # nav state alive here and the fast path must match (ADVICE r1).
    "<div class=nav data-x=foo/>menu text</div><p>real body content</p>",
    "<div class=nav/>menu link list</div><p>article text body</p>",
    "<div class='nav'/>closed by slash</div><p>kept content</p>",
    "<div class=nav />space before slash</div><p>kept too</p>",
    "<p foo=/>value is just a slash</p>",
    # Unicode whitespace the collapse must treat like ASCII whitespace.
    "<p>a\x1cb\x85c\xa0d\u2028e\u3000f</p><p>\xa0\u3000</p>",
    "<p><a href='/x'>\u2028linked\x85 text</a> rest</p>",
    # A charref that unescapes to nothing.
    "<p>&#1;</p><p>x&#1;y text</p><td>&#1;</td>",
    "<p>a<a/>b<A>upper link</A> text</p>",
    "</table><p>after a stray table end</p>",
    "<table><tr><td>a</td><td><table><tr><td>in</td></tr></table>b</td></tr>"
    "<tr><td>c</td><td>d</td></tr></table>",
    "<pre>  keep\n   this  </pre><pre>\n\n</pre>",
    "<table/><p>self-closed table</p><td/><tr/>",
    "<h2>one<h3/>two</h2><br / >tail",
    "<table><tr><td>left cell</td><td>right cell</td></tr></table>",
    # An end tag pops through a nested boilerplate element to its match.
    "<ul><li><nav>menu text</li><p>paragraph after the list</p></ul>",
    "<p>a</br>b and<br>c</p>",
    "</noscript><p>after a stray ignored-element end</p>",
    "<script/><p>after a self-closed script</p></script><p>tail text</p>",
    '<div role="banner">site banner words</div><p>body text here</p>',
    '<div class="main&#32;nav">menu words here</div><p>body text here</p>',
    # 'İ' lowers to two code points: the raw-text skip must not shift.
    "<p>İİİİ title</p><script>var a=1;</script><p>after the script text</p>",
    "<p>title text</p><script>var a=1;</scrİpt><p>after the script text</p>"
    "</script><p>tail text here</p>",
    "<p>title text</p><script>a=1;</scrİpt><script>b</script><p>tail text here</p>",
]


class TestFastTokenizer:
    @pytest.mark.parametrize("html", EDGE_CASES)
    def test_edge_cases_match_stdlib(self, html):
        assert_matches_oracles(html)

    @pytest.mark.parametrize("corpus", ["small", "crawl_mix", "short_html"])
    def test_full_corpus_matches_stdlib(self, small_pages, corpus):
        """Every HTML page of the test fixture corpus and of the perfbench
        corpora (seed 7; crawl_mix includes the 1 MB oversized row)."""
        if corpus == "small":
            pages = small_pages
        else:
            from pdf_extractor_ray.fixtures import pages_batch
            from perfbench.workloads import WORKLOADS

            workload = WORKLOADS[corpus]
            pages = pages_batch(workload.doc_ids(workload.docs), seed=7)
        mismatches = []
        for url, payload in zip(pages["url"].to_pylist(), pages["html"].to_pylist()):
            if not payload or payload[:4] == b"%PDF":
                continue
            html = payload.decode("utf-8", errors="replace")
            try:
                assert_matches_oracles(html)
            except AssertionError:
                mismatches.append(url)
        assert not mismatches, mismatches[:5]


from hypothesis import given, settings, strategies as st

# Raw character soup: the extractor must never crash on it (frontend
# AGREEMENT is only guaranteed for well-formed-ish HTML — html.parser's
# recovery behavior on pathological soup is intricate and bug-for-bug
# parity there is a non-goal; the engine's own semantics stay
# deterministic either way).
HTML_SOUP = st.lists(
    st.sampled_from(
        [*"<>/ab c=\"'&;!-p#123\näצİ=\x1c\x85\xa0\u2028\u3000",
         "&#1;", "<a/>", "<A>", "</table>", "<table>", "<tr>", "<td>", "<pre>",
         "<script>", "</script>"]
    ),
    max_size=120,
).map("".join)

_WORDS = st.text(alphabet="abc אcdİ 123\x1c\x85\xa0\u2028\u3000", min_size=0, max_size=30)
# Fragments between elements: a charref that unescapes to "", a
# self-closed and an upper-case link, a stray table end, a script whose
# raw-text skip lands after any 'İ' in the words before it.
_FRAGMENT = st.sampled_from(
    ["", "", "&#1;", "<a/>", "<A>", "</A>", "</table>", "&amp;", "<script>x<p>y</script>"]
)
_ATTR = st.sampled_from(
    ['', ' class="page"', ' class="nav"', " id='sidebar'", ' data-x="a&amp;b"', " role=main",
     ' role="banner"', ' class="x&#32;menu"']
)
_TAG = st.sampled_from(
    ["p", "div", "span", "li", "h2", "em", "section", "pre", "a", "table", "tr", "td"]
)


@st.composite
def well_formed_html(draw, depth=0):
    n = draw(st.integers(0, 3 if depth < 2 else 0))
    parts = [draw(_WORDS)]
    for _ in range(n):
        tag = draw(_TAG)
        attr = draw(_ATTR)
        inner = draw(well_formed_html(depth=depth + 1))  # type: ignore[call-arg]
        parts.append(f"<{tag}{attr}>{inner}</{tag}>")
        parts.append(draw(_FRAGMENT) + draw(_WORDS))
    return "".join(parts)


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(HTML_SOUP)
    def test_arbitrary_soup_no_crash(self, html):
        from pdf_extractor_ray.functions.html_extract import extract_html

        fast, _ = extract_html(html)
        assert isinstance(fast, str)
        # and deterministic
        assert extract_html(html)[0] == fast
        assert_matches_fast_oracle(html)

    @settings(max_examples=150, deadline=None)
    @given(well_formed_html())
    def test_engines_agree_on_well_formed(self, html):
        assert_matches_oracles(html)


class TestMarkdownStructure:
    def test_list_items_and_pre_blocks(self):
        from pdf_extractor_ray.functions.html_extract import extract_html

        html = (
            "<article><p>Intro paragraph with enough words here.</p>"
            "<ul><li>first item with words</li><li>second item with words</li></ul>"
            "<pre>def f(x):\n    return x * 2</pre>"
            "</article>"
        )
        text, _ = extract_html(html)
        assert "- first item with words" in text
        assert "- second item with words" in text
        assert "```\ndef f(x):\n    return x * 2\n```" in text

    def test_linkheavy_list_still_dropped(self):
        from pdf_extractor_ray.functions.html_extract import extract_html

        nav_list = "<ul>" + "".join(
            f'<li><a href="/{i}">navigation link {i}</a></li>' for i in range(6)
        ) + "</ul>"
        html = f"<article>{nav_list}<p>Real content paragraph with words.</p></article>"
        text, _ = extract_html(html)
        assert text == "Real content paragraph with words."

    def test_blockquote_rendering(self):
        from pdf_extractor_ray.functions.html_extract import extract_html

        html = (
            "<article><p>Intro paragraph with many words.</p>"
            "<blockquote>a quoted passage with enough words</blockquote></article>"
        )
        text, _ = extract_html(html)
        assert "> a quoted passage with enough words" in text


class TestSoft404:
    """ops/text.py soft404_batch: status gating, title-over-body
    precedence, binary html, null tolerance."""

    def test_rules(self, ray_session):
        import pyarrow as pa

        from pdf_extractor_ray.ops.text import soft404_batch

        rows = [
            (1, 200, "<title>404 - Not Found</title>x"),          # title
            (2, 200, "<title>ok</title>page was not found here"),  # body
            (3, 404, "<title>404 - Not Found</title>x"),          # real 404
            (4, 200, "<title>Document 404123</title>fine"),       # clean
            (5, 200, None),                                        # null
            (6, 200, "<title>it does not exist</title>"
                     "page you requested was not found"),          # both→1
        ]
        t = pa.Table.from_arrays(
            [pa.array([r[0] for r in rows], pa.int64()),
             pa.array([r[1] for r in rows], pa.int64()),
             pa.array([r[2] for r in rows], pa.string())],
            names=["doc_id", "status", "html"],
        )
        out = soft404_batch(t).to_pylist()
        got = {r["doc_id"]: (r["soft404"], r["reason"]) for r in out}
        assert got == {1: (1, 1), 2: (1, 2), 3: (0, 0), 4: (0, 0),
                       5: (0, 0), 6: (1, 1)}

    def test_binary_column(self, ray_session):
        import pyarrow as pa

        from pdf_extractor_ray.ops.text import soft404_batch

        t = pa.Table.from_arrays(
            [pa.array([9], pa.int64()), pa.array([200], pa.int64()),
             pa.array([b"<title>gone: no longer available</title>"],
                      pa.binary())],
            names=["doc_id", "status", "html"],
        )
        assert soft404_batch(t).to_pylist()[0]["soft404"] == 1
