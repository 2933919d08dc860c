"""Tests for the from-scratch real-PDF codec: structure round-trips,
operator styles, FlateDecode, escapes, outline tree, damaged-xref recovery,
hostile inputs, and the page-range splitter on real payloads."""

import numpy as np
import pytest

from pdf_extractor_ray.functions.pdf_codec import (
    PdfDocument,
    PdfError,
    build_pdf,
    build_sectioned_pdf,
    parse_pdf_outline,
    parse_pdf_records,
)
from pdf_extractor_ray.functions.pdf_extract import (
    MAX_PAGES_PER_CHUNK,
    decode_records,
    extract_pdf,
    layout_text,
    split_pdf_payload,
    wrap_text_rows,
)
from pdf_extractor_ray.stages.sections import build_pdf_outline_sections

SIMPLE = "hello world this is a simple test document with some words"
MULTIPAGE = " ".join(f"word{i}" for i in range(600))
PARAS = "para one with several words here.\n\npara two follows with more text."
SPECIAL = "special (parens) and back\\slash chars % percent [brackets] <angle>"


class TestRoundTrip:
    @pytest.mark.parametrize("style", ["tm", "td", "tstar"])
    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize("text", [SIMPLE, MULTIPAGE, PARAS, SPECIAL])
    def test_matches_toy_extraction(self, text, style, compress):
        """A real PDF of the same text must extract byte-identically to the
        toy record format — both feed the shared layout kernel."""
        toy_md, _ = extract_pdf(layout_text(text))
        real_md, _ = extract_pdf(build_pdf(text, compress=compress, style=style))
        assert real_md == toy_md

    def test_record_parity_with_toy(self):
        r_toy = decode_records(layout_text(SIMPLE))
        r_real = decode_records(build_pdf(SIMPLE))
        assert len(r_toy) == len(r_real)
        assert (r_toy["cp"] == r_real["cp"]).all()
        assert np.allclose(r_toy["x0"], r_real["x0"])
        assert np.allclose(r_toy["y0"], r_real["y0"])

    def test_header_version(self):
        assert build_pdf(SIMPLE).startswith(b"%PDF-1.4")

    def test_multipage_page_count(self):
        n_pages = len(wrap_text_rows(MULTIPAGE))
        assert n_pages > 1
        recs = parse_pdf_records(build_pdf(MULTIPAGE))
        assert len(np.unique(recs["page"])) == n_pages


class TestStructureParser:
    def test_object_graph(self):
        doc = PdfDocument(build_pdf(SIMPLE))
        root = doc.resolve(doc.trailer["Root"])
        assert str(root["Type"]) == "Catalog"
        assert len(doc.pages()) == 1
        assert doc.pages()[0]["Resources"]["Font"]["F1"]

    def test_damaged_xref_scan_fallback(self):
        pdf = build_pdf(SIMPLE)
        broken = pdf.replace(b"xref\n", b"xrEF\n", 1)
        assert extract_pdf(broken)[0] == extract_pdf(pdf)[0]

    def test_truncated_xref_offset(self):
        pdf = build_pdf(SIMPLE)
        # corrupt startxref to point into the void; scan fallback must save it
        import re

        broken = re.sub(rb"startxref\s+\d+", b"startxref\n999999999", pdf)
        assert extract_pdf(broken)[0] == extract_pdf(pdf)[0]

    @pytest.mark.parametrize(
        "payload",
        [
            b"%PDF-1.4\ngarbage",
            b"%PDF-",
            b"%PDF-1.7\n" + b"\x00" * 64,
            b"%PDF-1.4\n1 0 obj\n<< /Type /Catalog >>\nendobj",  # no pages
        ],
    )
    def test_hostile_inputs_contained(self, payload):
        """Malformed PDFs either raise a clean error (caught by the
        pipeline's containment boundary) or degrade to empty text — never
        hang or crash the interpreter."""
        from pdf_extractor_ray.functions.assemble import EMPTY_CONTENT_MESSAGE

        try:
            md, _ = extract_pdf(payload)
        except (PdfError, ValueError, KeyError, TypeError, AttributeError):
            return
        assert md in ("", EMPTY_CONTENT_MESSAGE)

    def test_literal_string_escapes(self):
        md, _ = extract_pdf(build_pdf(SPECIAL))
        toy_md, _ = extract_pdf(layout_text(SPECIAL))
        assert md == toy_md


class TestStreamFilters:
    """LZW / RunLength filters (round-3 verdict item 5) — the first
    real-corpus failure modes beyond FlateDecode."""

    def test_lzw_spec_example_vector(self):
        # ISO 32000 §7.4.4.2 published example (decimal byte values):
        # encoded 80 0B 60 50 22 0C 0C 85 01 → 45×5, 65, 45×3, 66.
        from pdf_extractor_ray.functions.pdf_codec import _lzw_decode

        assert _lzw_decode(bytes.fromhex("800B6050220C0C8501")) == bytes(
            [45] * 5 + [65] + [45] * 3 + [66]
        )

    def test_lzw_rle_round_trip(self):
        import os

        from pdf_extractor_ray.functions.pdf_codec import (
            _lzw_decode,
            _lzw_encode,
            _rle_decode,
            _rle_encode,
        )

        rng = np.random.default_rng(4)
        big = rng.integers(0, 256, size=8000, dtype=np.uint8).tobytes()
        for data in (b"", b"a", b"ab" * 3000, big, bytes(range(256)) * 16):
            assert _lzw_decode(_lzw_encode(data)) == data
            assert _rle_decode(_rle_encode(data)) == data

    def test_extract_parity_across_filters(self):
        """The same text through Flate/LZW/RunLength content streams must
        extract byte-identically (filters are transport, not semantics)."""
        text = " ".join(f"word{i}" for i in range(600))
        base = extract_pdf(build_pdf(text))
        for f in ("lzw", "rle", True):
            assert extract_pdf(build_pdf(text, compress=f)) == base

    def test_truncated_lzw_contained(self):
        from pdf_extractor_ray.functions.pdf_codec import PdfError, _lzw_decode

        # mid-stream garbage code (out-of-range) must be a typed PdfError
        with pytest.raises(PdfError):
            _lzw_decode(b"\x80\x5f\xff\xff\xff\xff")


class TestFontEncodings:
    """Simple-font /Encoding /Differences and /ToUnicode CMap decode
    (round 3): codes are shifted by one in the content stream and mapped
    back by the font — extraction must be byte-identical to the plain
    builtin-encoding PDF, across all xref forms."""

    TEXT = " ".join(f"word{i}" for i in range(250)) + " punct: a,b.c-d (e) [f]"

    def test_differences_and_tounicode_parity(self):
        base = extract_pdf(build_pdf(self.TEXT))
        for xk in ("table", "stream", "objstm"):
            for enc in ("differences", "tounicode"):
                got = extract_pdf(
                    build_pdf(
                        self.TEXT, xref_kind=xk, font_encoding=enc, compress=True
                    )
                )
                assert got == base, (xk, enc)

    def test_maps_do_real_work(self):
        """Interpreting the shifted content WITHOUT font maps must yield
        garbled text — proves the fixture actually exercises the mapping."""
        import pdf_extractor_ray.functions.pdf_codec as C

        pdf = build_pdf("hello world", font_encoding="differences")
        doc = C.PdfDocument(pdf)
        page = list(doc.pages())[0]
        recs: list = []
        C._interpret_text(doc.page_content(page), 0, recs, None)
        assert "".join(chr(r[5]) for r in recs[:5]) == "ifmmp"

    def test_tounicode_bfchar_and_agl_names(self):
        from pdf_extractor_ray.functions.pdf_codec import (
            _glyph_to_cp,
            _parse_tounicode,
        )

        m = _parse_tounicode(
            b"2 beginbfchar <41> <0061> <42> <0062> endbfchar\n"
            b"1 beginbfrange <50> <52> <0070> endbfrange"
        )
        assert m == {0x41: 0x61, 0x42: 0x62, 0x50: 0x70, 0x51: 0x71, 0x52: 0x72}
        assert _glyph_to_cp("comma") == 0x2C
        assert _glyph_to_cp("uni00E9") == 0xE9
        assert _glyph_to_cp("A") == 0x41
        assert _glyph_to_cp("nosuchglyphname") is None


class TestCidFonts:
    """Composite (Type0/Identity-H) font decode (round 3): show strings
    are big-endian 2-byte hex codes (code = codepoint + 0x0100) mapped
    back by a 2-byte-source /ToUnicode bfrange — extraction must be
    byte-identical to the plain builtin-encoding PDF."""

    TEXT = " ".join(f"word{i}" for i in range(250)) + " punct: a,b.c-d (e) [f]"

    def test_cid_parity_across_xref_forms(self):
        base = extract_pdf(build_pdf(self.TEXT))
        for xk in ("table", "stream", "objstm"):
            for compress in (False, "lzw", True):
                got = extract_pdf(
                    build_pdf(
                        self.TEXT,
                        xref_kind=xk,
                        font_encoding="cid",
                        compress=compress,
                    )
                )
                assert got == base, (xk, compress)

    def test_two_byte_codes_do_real_work(self):
        """Interpreting the 2-byte show strings WITHOUT the font map (so
        codes read 1 byte at a time) must garble the text — proves the
        fixture exercises the composite-font width switch."""
        import pdf_extractor_ray.functions.pdf_codec as C

        pdf = build_pdf("hi", font_encoding="cid")
        doc = C.PdfDocument(pdf)
        page = list(doc.pages())[0]
        recs: list = []
        C._interpret_text(doc.page_content(page), 0, recs, None)
        # 'h'=0x68 -> code 0x0168 -> bytes 01 68: read as two 1-byte codes
        assert [r[5] for r in recs[:2]] == [0x01, 0x68]

    def test_two_byte_bfrange_parse(self):
        from pdf_extractor_ray.functions.pdf_codec import _parse_tounicode

        m = _parse_tounicode(
            b"1 begincodespacerange <0000> <FFFF> endcodespacerange\n"
            b"1 beginbfrange <0120> <0122> <0020> endbfrange\n"
            b"1 beginbfchar <4E2D> <4E2D> endbfchar"
        )
        assert m == {0x120: 0x20, 0x121: 0x21, 0x122: 0x22, 0x4E2D: 0x4E2D}

    def test_hostile_bfrange_capped(self):
        """A bfrange spanning the whole 2^16+ space must stop at 2^16
        entries instead of allocating unboundedly."""
        from pdf_extractor_ray.functions.pdf_codec import _parse_tounicode

        m = _parse_tounicode(b"1 beginbfrange <0000> <FFFFFF> <0041> endbfrange")
        assert len(m) == 0x10000

    def test_identity_fallback_without_tounicode(self):
        """A Type0 font with no /ToUnicode reads each CID as its own
        codepoint (the pdfminer-style Identity fallback)."""
        import pdf_extractor_ray.functions.pdf_codec as C

        pdf = build_pdf("AB", font_encoding="cid")
        # strip the /ToUnicode entry from the Type0 font dict
        patched = pdf.replace(b"/ToUnicode", b"/IgnoredXX", 1)
        assert patched != pdf
        doc = C.PdfDocument(patched)
        page = list(doc.pages())[0]
        recs: list = []
        C._interpret_text(
            doc.page_content(page), 0, recs, doc.page_font_maps(page)
        )
        # codes are cp+0x0100 and pass through unmapped
        assert [r[5] for r in recs] == [ord("A") + 0x100, ord("B") + 0x100]

    def test_odd_tail_tolerated(self):
        """A malformed odd-length 2-byte show string reads its last byte
        as a 1-byte code instead of raising."""
        import pdf_extractor_ray.functions.pdf_codec as C

        content = b"BT /F1 10 Tf 1 0 0 1 0 700 Tm <016801> Tj ET"
        recs: list = []
        C._interpret_text(content, 0, recs, {"F1": (2, {0x168: ord("h")})})
        assert [r[5] for r in recs] == [ord("h"), 0x01]

    def test_record_chunks_and_outline_survive_cid(self):
        """The record-chunk splitter and outline walk are font-agnostic —
        a CID-font sectioned PDF still splits and extracts correctly."""
        pdf = build_sectioned_pdf(
            [("Intro", "alpha beta gamma"), ("Body", "delta epsilon")],
            font_encoding="cid",
        )
        titles = [t for t, _ in parse_pdf_outline(pdf)]
        assert titles == ["Intro", "Body"]
        base = build_sectioned_pdf(
            [("Intro", "alpha beta gamma"), ("Body", "delta epsilon")]
        )
        assert extract_pdf(pdf) == extract_pdf(base)


class TestEncryptionDeclared:
    def test_encrypted_pdf_typed_error(self):
        from pdf_extractor_ray.functions.pdf_codec import PdfDocument, PdfError

        pdf = build_pdf("some secret words here")
        # splice an /Encrypt entry into the classic trailer dict
        patched = pdf.replace(b"trailer\n<<", b"trailer\n<< /Encrypt 99 0 R ", 1)
        assert patched != pdf
        with pytest.raises(PdfError, match="encrypted"):
            PdfDocument(patched)

    def test_encrypted_pdf_contained_in_sections_stage(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from pdf_extractor_ray.stages.sections import pdf_sections_rows

        pdf = build_pdf("visible words", outline=[("A", 0)])
        patched = pdf.replace(b"trailer\n<<", b"trailer\n<< /Encrypt 99 0 R ", 1)
        out = pa.concat_tables(
            pdf_sections_rows(
                rd.from_items([{"url": "https://x/enc.pdf", "html": patched}])
            ).iter_batches(batch_format="pyarrow")
        )
        assert out["title"].to_pylist() == ["extract_error"]


class TestOutline:
    def test_bookmarks_round_trip(self):
        text = " ".join(f"w{i}" for i in range(2000))
        pdf = build_pdf(text, outline=[("Intro", 0), ("Body", 1), ("End", 2)])
        assert parse_pdf_outline(pdf) == [("Intro", 0), ("Body", 1), ("End", 2)]

    def test_sectioned_pdf_sections(self):
        pdf = build_sectioned_pdf([("Alpha", "one two three"), ("Beta", "four five")])
        sections = build_pdf_outline_sections(pdf)
        assert [(s["title"], s["content"]) for s in sections] == [
            ("Alpha", "one two three"),
            ("Beta", "four five"),
        ]

    def test_top4_cap_folds_tail_sections(self):
        """The 5th+ bookmark's pages fold into the 4th section (reference
        caps top-level outlines at 4, pdf_processor.py:56-59)."""
        parts = [(f"S{k}", f"text of part {k}") for k in range(6)]
        pdf = build_sectioned_pdf(parts)
        sections = build_pdf_outline_sections(pdf)
        assert len(sections) == 4
        assert sections[3]["title"] == "S3"
        # S3's content includes the folded S4 and S5 pages
        assert "text of part 4" in sections[3]["content"]
        assert "text of part 5" in sections[3]["content"]

    def test_next_cycle_terminates_without_duplicates(self):
        """A malformed /Next self-loop in the outline chain must yield each
        bookmark once (cycle break on the first revisited node ref), not
        256 duplicate entries (round-2 advice)."""
        from pdf_extractor_ray.functions.pdf_codec import PdfDocument, _Ref

        pdf = build_pdf(
            " ".join(f"w{i}" for i in range(2000)),
            outline=[("Intro", 0), ("Body", 1), ("End", 2)],
        )
        doc = PdfDocument(pdf)
        root = doc.resolve(doc.trailer["Root"])
        ol = doc.resolve(root["Outlines"])
        first_ref = ol["First"]
        # walk to the last item and point its /Next back at the first
        ref = first_ref
        while True:
            item = doc.resolve(ref)
            nxt = item.get("Next")
            if nxt is None:
                break
            ref = nxt
        doc.resolve(ref)["Next"] = _Ref(first_ref)
        out = doc.outline()
        assert [t for t, _ in out] == ["Intro", "Body", "End"]

    def test_no_outline_single_section(self):
        sections = build_pdf_outline_sections(build_pdf(SIMPLE))
        assert len(sections) == 1 and sections[0]["title"] == ""
        assert sections[0]["content"] == extract_pdf(build_pdf(SIMPLE))[0]

    def test_query_filter_with_fallback(self):
        pdf = build_sectioned_pdf([("Revenue", "aa bb"), ("Costs", "cc dd")])
        kept = build_pdf_outline_sections(pdf, query="revenue")
        assert [s["title"] for s in kept] == ["Revenue"]
        # no match → return all (reference: utils.py:11-32)
        kept = build_pdf_outline_sections(pdf, query="zzz")
        assert [s["title"] for s in kept] == ["Revenue", "Costs"]


class TestXrefStreamForms:
    @pytest.mark.parametrize("kind", ["stream", "objstm"])
    @pytest.mark.parametrize("compress", [False, True])
    def test_pdf15_round_trip(self, kind, compress):
        """PDF 1.5 cross-reference streams (PNG up-predictor) and compressed
        object streams must extract identically to the classic-table form."""
        classic, _ = extract_pdf(build_pdf(MULTIPAGE, compress=compress))
        pdf15 = build_pdf(MULTIPAGE, compress=compress, xref_kind=kind)
        assert pdf15.startswith(b"%PDF-1.5")
        got, _ = extract_pdf(pdf15)
        assert got == classic

    def test_objstm_outline(self):
        text = " ".join(f"w{i}" for i in range(2000))
        pdf = build_pdf(text, outline=[("A", 0), ("B", 1)], xref_kind="objstm")
        assert parse_pdf_outline(pdf) == [("A", 0), ("B", 1)]

    def test_png_predictors(self):
        from pdf_extractor_ray.functions.pdf_codec import _png_unpredict

        cols = 4
        rows = [bytes([10, 20, 30, 40]), bytes([12, 22, 32, 42])]
        # tag 2 (up): second row stored as delta from first
        enc = bytes([0]) + rows[0] + bytes([2]) + bytes(
            (rows[1][i] - rows[0][i]) & 0xFF for i in range(cols)
        )
        assert _png_unpredict(enc, cols) == rows[0] + rows[1]
        # tag 1 (sub): horizontal deltas
        enc = bytes([1]) + bytes([10, 10, 10, 10])
        assert _png_unpredict(enc, cols) == bytes([10, 20, 30, 40])


class TestTwoColumn:
    @pytest.mark.parametrize("compress", [False, True])
    def test_matches_toy_two_column(self, compress):
        """Real two-column PDFs must read column-major via gutter detection,
        identically to the toy two-column records."""
        from pdf_extractor_ray.functions.pdf_codec import build_two_column_pdf
        from pdf_extractor_ray.functions.pdf_extract import layout_text_two_column

        left = "left column words flow here with several more tokens to wrap lines"
        right = "right column has different content entirely with its own words"
        toy, _ = extract_pdf(layout_text_two_column(left, right))
        real, _ = extract_pdf(build_two_column_pdf(left, right, compress=compress))
        assert real == toy
        assert real.index("left column") < real.index("right column")


class TestTablePdf:
    HEADERS = ["Description", "Amount", "Balance"]
    ROWS = [
        ["opening deposit", "1,234.56", "11,234.56"],
        ["wire fee", "-25.00", "11,209.56"],
    ]

    def test_grid_table_round_trip(self):
        from pdf_extractor_ray.functions.pdf_codec import build_table_pdf
        from pdf_extractor_ray.functions.pdf_extract import extract_pdf_pages_tables

        pdf = build_table_pdf(self.HEADERS, self.ROWS, title="Statement March")
        pages, stats = extract_pdf_pages_tables(pdf)
        assert stats["n_tables"] == 1
        md = pages[0]
        assert md.startswith("Statement March\n\n| Description | Amount | Balance |")
        assert "| wire fee | -25.00 | 11,209.56 |" in md

    def test_parse_back_and_cells_exact(self):
        from pdf_extractor_ray.functions.pdf_codec import build_table_pdf
        from pdf_extractor_ray.functions.pdf_extract import extract_pdf_pages_tables
        from pdf_extractor_ray.functions.tables import parse_markdown_tables

        pdf = build_table_pdf(self.HEADERS, self.ROWS, compress=True)
        pages, _ = extract_pdf_pages_tables(pdf)
        parsed = parse_markdown_tables(pages[0])[0]
        assert parsed["headers"] == self.HEADERS
        assert parsed["rows"] == self.ROWS

    def test_bidi_cells(self):
        """Hebrew cells get the per-cell BiDi display fix, digits intact —
        the reference's per-cell fix_bidi_text behavior
        (extraction_service.py:49-57)."""
        from pdf_extractor_ray.functions.pdf_codec import build_table_pdf
        from pdf_extractor_ray.functions.pdf_extract import (
            decode_records,
            extract_pdf_pages_tables,
        )
        from pdf_extractor_ray.functions.pdf_extract import RECORD_DTYPE, MAGIC
        import numpy as np

        # Build via the toy record format (the PDF writer is ASCII-only);
        # the table path is decoder-agnostic.
        cells = [["תאור", "סכום"], ["שלום 1,234.56", "42.00"]]
        widths = [max(len(row[j]) for row in cells) for j in range(2)]
        records = []
        for r, row in enumerate(cells):
            x = 0.0
            for j, cell in enumerate(row):
                for k, ch in enumerate(cell):
                    if ch != " ":
                        records.append(
                            (0, x + k * 6.0, 780 - r * 12, x + (k + 1) * 6.0, 792 - r * 12, ord(ch))
                        )
                x += (widths[j] + 3) * 6.0
        payload = MAGIC + np.array(records, dtype=RECORD_DTYPE).tobytes()
        pages, stats = extract_pdf_pages_tables(payload)
        assert stats["n_tables"] == 1
        # cell 'שלום 1,234.56' displays as '1,234.56 םולש' — digits unreversed
        assert "1,234.56 םולש" in pages[0]

    def test_text_only_page_has_no_table(self):
        from pdf_extractor_ray.functions.pdf_extract import (
            extract_pdf_pages_tables,
            layout_text,
        )

        pages, stats = extract_pdf_pages_tables(layout_text(SIMPLE))
        assert stats["n_tables"] == 0
        assert pages[0] == SIMPLE


from hypothesis import given, settings, strategies as st

_WORD = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789().,-\\%$", min_size=1, max_size=12)


class TestPropertyRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        words=st.lists(_WORD, min_size=1, max_size=120),
        style=st.sampled_from(["tm", "td", "tstar"]),
        compress=st.booleans(),
        xref=st.sampled_from(["table", "stream", "objstm"]),
    )
    def test_any_word_text_round_trips(self, words, style, compress, xref):
        """Random word soup through every writer configuration must extract
        byte-identically to the toy-record path."""
        text = " ".join(words)
        toy, _ = extract_pdf(layout_text(text))
        real, _ = extract_pdf(
            build_pdf(text, compress=compress, style=style, xref_kind=xref)
        )
        assert real == toy

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_pdfs_never_hang_or_crash(self, data):
        """Byte-level mutations of a valid PDF must either parse to SOME
        result or raise a contained error — never hang, never escape the
        error-containment exception set."""
        pdf = bytearray(build_pdf(SIMPLE, compress=True))
        n_mut = data.draw(st.integers(1, 8))
        for _ in range(n_mut):
            pos = data.draw(st.integers(0, len(pdf) - 1))
            pdf[pos] = data.draw(st.integers(0, 255))
        try:
            extract_pdf(bytes(pdf))
        except Exception as exc:
            # zlib errors surface for corrupted streams; everything must be
            # an ordinary exception the pipeline's containment catches
            assert not isinstance(exc, (SystemExit, KeyboardInterrupt, MemoryError))


class TestRealPdfSplit:
    def test_split_real_pdf_into_record_chunks(self):
        text = " ".join(f"w{i}" for i in range(20000))  # many pages
        pdf = build_pdf(text)
        n_pages = len(wrap_text_rows(text))
        assert n_pages > MAX_PAGES_PER_CHUNK
        chunks = split_pdf_payload(pdf)
        assert len(chunks) > 1
        # chunk-wise extraction concatenates to whole-doc extraction
        from pdf_extractor_ray.functions.assemble import combine_pages
        from pdf_extractor_ray.functions.pdf_extract import extract_pdf_pages

        pages: list[str] = []
        for chunk in chunks:
            ps, _ = extract_pdf_pages(chunk)
            pages.extend(ps)
        assert combine_pages(pages) == extract_pdf(pdf)[0]


_CELL = st.from_regex(r"[a-z0-9][a-z0-9 .,%-]{0,14}[a-z0-9]", fullmatch=True).filter(
    lambda c: "  " not in c  # a 3-char gap is the column separator
)


class TestTablePdfProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(st.lists(_CELL, min_size=2, max_size=4), min_size=2, max_size=10),
        compress=st.booleans(),
    )
    def test_random_grid_tables_round_trip(self, rows, compress):
        """Random cell grids (uniform width per table) must come back
        cell-exact through build → layout analysis → markdown parse."""
        from pdf_extractor_ray.functions.pdf_codec import build_table_pdf
        from pdf_extractor_ray.functions.pdf_extract import extract_pdf_pages_tables
        from pdf_extractor_ray.functions.tables import parse_markdown_tables

        width = len(rows[0])
        rows = [((r + [""] * width)[:width]) for r in rows]
        # empty trailing cells are indistinguishable from absent ones;
        # normalize: final column must be non-empty for exact compare
        rows = [r[:-1] + [r[-1] or "x"] for r in rows]
        headers = [f"h{j}" for j in range(width)]
        pdf = build_table_pdf(headers, rows, compress=compress)
        pages, stats = extract_pdf_pages_tables(pdf)
        assert stats["n_tables"] == 1
        parsed = parse_markdown_tables(pages[0])[0]
        assert parsed["headers"] == headers
        assert parsed["rows"] == rows


class TestSectionEdgeCases:
    def test_empty_middle_section_keeps_alignment(self):
        """A glyph-less page (empty section) must not shift later outline
        indices onto the wrong content."""
        from pdf_extractor_ray.functions.pdf_codec import build_sectioned_pdf

        pdf = build_sectioned_pdf(
            [("A", "first part text"), ("B", ""), ("C", "third part text")]
        )
        sections = build_pdf_outline_sections(pdf)
        by_title = {s["title"]: s["content"] for s in sections}
        assert by_title["A"] == "first part text"
        assert by_title["B"] == ""
        assert by_title["C"] == "third part text"

    def test_toy_payload_contained(self):
        """Toy record payloads (no PDF object structure) degrade to a single
        untitled section instead of raising."""
        sections = build_pdf_outline_sections(layout_text(SIMPLE))
        assert len(sections) == 1 and sections[0]["title"] == ""
        assert sections[0]["content"] == SIMPLE


class TestEncryption:
    """Standard security handler (RC4, empty user password): R2 and R3."""

    @pytest.mark.parametrize("rev", [2, 3, 4, 5, 6])
    def test_roundtrip_all_variants(self, rev):
        text = "encrypted corpus text " * 50
        plain = extract_pdf(build_pdf(text))[0]
        for comp in (False, True, "lzw", "rle"):
            for fe in ("builtin", "differences", "tounicode", "cid"):
                enc = build_pdf(
                    text, compress=comp, font_encoding=fe,
                    encrypt=True, encrypt_rev=rev,
                )
                assert extract_pdf(enc)[0] == plain, (rev, comp, fe)

    def test_strings_encrypted_in_file(self):
        enc = build_pdf("body", outline=[("Hidden Title", 0)], encrypt=True)
        assert b"Hidden Title" not in enc
        doc = PdfDocument(enc)
        assert doc.outline() == [("Hidden Title", 0)]

    @pytest.mark.parametrize("rev", [2, 3, 4, 5, 6])
    def test_nonempty_password_typed_error(self, rev):
        enc = build_pdf("x", encrypt=True, encrypt_user_pw=b"s3cret",
                        encrypt_rev=rev)
        with pytest.raises(PdfError, match="password required"):
            PdfDocument(enc)

    @pytest.mark.parametrize("rev", [2, 3, 4, 5, 6])
    def test_nonempty_user_password_opens(self, rev):
        """Round 4: a supplied user password opens the file (byte-identical
        extraction to the plain build)."""
        text = "password protected body " * 30
        plain = extract_pdf(build_pdf(text))[0]
        enc = build_pdf(text, encrypt=True, encrypt_rev=rev,
                        encrypt_user_pw=b"usrpw")
        assert extract_pdf(enc, password=b"usrpw")[0] == plain

    @pytest.mark.parametrize("rev", [2, 3, 4, 5, 6])
    def test_distinct_owner_password_opens(self, rev):
        """Algorithm 7 owner recovery (R2-R4) / the R6 /O+/OE owner path:
        a DISTINCT owner password must open the file too, and a wrong
        password raises the typed error."""
        text = "owner password body " * 30
        plain = extract_pdf(build_pdf(text))[0]
        enc = build_pdf(text, encrypt=True, encrypt_rev=rev,
                        encrypt_user_pw=b"usrpw", encrypt_owner_pw=b"ownpw")
        assert extract_pdf(enc, password=b"usrpw")[0] == plain
        assert extract_pdf(enc, password=b"ownpw")[0] == plain
        with pytest.raises(PdfError, match="wrong password"):
            PdfDocument(enc, password=b"nope")

    def test_unknown_crypt_filter_declared(self):
        enc = bytearray(build_pdf("x", encrypt=True, encrypt_rev=4))
        i = enc.index(b"/CFM /AESV2")
        enc[i : i + 11] = b"/CFM /AESV3"  # AES-256 crypt filter name
        with pytest.raises(PdfError, match="unsupported"):
            PdfDocument(bytes(enc))

    def test_unknown_version_declared(self):
        enc = bytearray(build_pdf("x", encrypt=True))
        i = enc.index(b"/V 1 /R 2")
        enc[i : i + 9] = b"/V 7 /R 9"  # beyond any published handler
        with pytest.raises(PdfError, match="unsupported"):
            PdfDocument(bytes(enc))

    def test_v5_tampered_u_rejected(self):
        enc = bytearray(build_pdf("x", encrypt=True, encrypt_rev=6))
        i = enc.index(b"/U <") + 4
        enc[i] = ord("f") if enc[i] != ord("f") else ord("0")
        with pytest.raises(PdfError, match="password required"):
            PdfDocument(bytes(enc))

    def test_tampered_u_rejected(self):
        enc = bytearray(build_pdf("x", encrypt=True))
        i = enc.index(b"/U <") + 4
        enc[i] = ord("f") if enc[i] != ord("f") else ord("0")
        with pytest.raises(PdfError, match="password required"):
            PdfDocument(bytes(enc))

    def test_encrypt_requires_table_xref(self):
        with pytest.raises(ValueError, match="xref_kind"):
            build_pdf("x", xref_kind="stream", encrypt=True)


class TestInlineImages:
    def test_inline_image_skipped_text_survives(self):
        """BI <dict> ID <binary> EI between text runs must be skipped —
        the sample bytes deliberately contain '(', '<' and 'ET' to derail
        a naive tokenizer."""
        import zlib as _z

        text = "before image after image"
        base = build_pdf(text)
        doc = PdfDocument(base)
        # splice an inline image into the (uncompressed) content stream
        content = doc.page_content(doc.pages()[0])
        evil = b"\x28\x3c\x00ET(BT\xff\xfe\x01"
        inline = (
            b"\nBI /W 4 /H 2 /CS /G /BPC 8 ID " + evil + b" EI\n"
        )
        patched = content.replace(b"BT", inline + b"BT", 1)
        assert patched != content
        new_pdf = base.replace(
            b"<< /Length %d >>\nstream\n" % len(content) + content,
            b"<< /Length %d >>\nstream\n" % len(patched) + patched,
        )
        assert extract_pdf(new_pdf)[0] == extract_pdf(base)[0]

    def test_unterminated_inline_image_contained(self):
        text = "only text"
        base = build_pdf(text)
        doc = PdfDocument(base)
        content = doc.page_content(doc.pages()[0])
        patched = content + b"\nBI /W 1 ID \xff\xff"  # no EI
        new_pdf = base.replace(
            b"<< /Length %d >>\nstream\n" % len(content) + content,
            b"<< /Length %d >>\nstream\n" % len(patched) + patched,
        )
        # must not raise; text before the broken image still extracts
        assert extract_pdf(new_pdf)[0] == extract_pdf(base)[0]


class TestAesPrimitives:
    def test_fips197_vectors(self):
        from pdf_extractor_ray.functions.aes import (
            _decrypt_block,
            _encrypt_block,
            _expand_key,
            aes_cbc_decrypt,
            aes_cbc_encrypt,
        )

        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        for key_hex, ct_hex in [
            ("000102030405060708090a0b0c0d0e0f",
             "69c4e0d86a7b0430d8cdb78070b4c55a"),          # C.1 AES-128
            ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
             "8ea2b7ca516745bfeafc49904b496089"),          # C.3 AES-256
        ]:
            rk = _expand_key(bytes.fromhex(key_hex))
            assert _encrypt_block(rk, pt).hex() == ct_hex
            assert _decrypt_block(rk, bytes.fromhex(ct_hex)) == pt
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        for n in (0, 1, 15, 16, 17, 100):
            data = bytes(range(256))[:n]
            assert aes_cbc_decrypt(key, aes_cbc_encrypt(key, b"\x01" * 16, data)) == data


def _ref_lzw_decode(data: bytes, early_change: int = 1) -> bytes:
    """Independent textbook LZW decoder (ISO 32000 §7.4.4 / TIFF §13):
    list-based table, integer bit cursor, width grows when the next free
    code plus EarlyChange no longer fits the current width.  Written
    separately from the engine's dict-based decoder to cross-check the
    EarlyChange schedule at the 9→10/10→11-bit boundaries."""
    table: list[bytes] = [bytes([i]) for i in range(256)] + [b"", b""]
    width, pos, total = 9, 0, len(data) * 8
    out = bytearray()
    prev: bytes | None = None
    while pos + width <= total:
        # MSB-first bit read without a per-bit loop
        chunk = data[pos // 8 : (pos + width + 7) // 8]
        val = int.from_bytes(chunk, "big")
        code = (val >> (len(chunk) * 8 - (pos % 8) - width)) & ((1 << width) - 1)
        pos += width
        if code == 257:
            break
        if code == 256:
            table = table[:258]
            width, prev = 9, None
            continue
        if prev is None:
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            table.append(prev + entry[:1])
        else:
            entry = prev + prev[:1]
            table.append(entry)
        out += entry
        prev = entry
        if len(table) + early_change >= (1 << width) and width < 12:
            width += 1
    return bytes(out)


class TestLzwEarlyChange:
    """ADVICE round-3 (high): the decode widen condition must be
    next_code + EarlyChange >= 2^bits (ec=1, the PDF default, switches
    9→10 bits when code 511 would be assigned — one code EARLY), and the
    encoder's must be next_code + EarlyChange > 2^bits.  The off-by-one
    only shows on streams long enough to cross the 511-code boundary
    (~253 fresh dictionary entries), which the ISO example never does."""

    # ~6000 incompressible bytes: crosses the 511 AND 1023 boundaries.
    DATA = np.random.default_rng(511).integers(
        0, 256, size=6000, dtype=np.uint8
    ).tobytes()

    @pytest.mark.parametrize("ec", [0, 1])
    def test_boundary_round_trip(self, ec):
        from pdf_extractor_ray.functions.pdf_codec import _lzw_decode, _lzw_encode

        enc = _lzw_encode(self.DATA, early_change=ec)
        assert _lzw_decode(enc, early_change=ec) == self.DATA

    @pytest.mark.parametrize("ec", [0, 1])
    def test_cross_implementation(self, ec):
        """The engine's encoder output must decode under an independently
        written textbook decoder with the same EarlyChange — this is the
        check the matched-off-by-one pair used to sneak past."""
        from pdf_extractor_ray.functions.pdf_codec import _lzw_encode

        enc = _lzw_encode(self.DATA, early_change=ec)
        assert _ref_lzw_decode(enc, early_change=ec) == self.DATA

    def test_schedules_are_distinct(self):
        """ec=0 and ec=1 streams genuinely differ past the boundary, and
        decoding with the wrong schedule desyncs (typed error or wrong
        bytes) instead of silently agreeing."""
        from pdf_extractor_ray.functions.pdf_codec import _lzw_decode, _lzw_encode

        e0 = _lzw_encode(self.DATA, early_change=0)
        e1 = _lzw_encode(self.DATA, early_change=1)
        assert e0 != e1
        for enc, wrong in ((e0, 1), (e1, 0)):
            try:
                got = _lzw_decode(enc, early_change=wrong)
            except PdfError:
                continue
            assert got != self.DATA

    def test_spec_example_still_exact(self):
        from pdf_extractor_ray.functions.pdf_codec import _lzw_decode

        assert _lzw_decode(bytes.fromhex("800B6050220C0C8501")) == bytes(
            [45] * 5 + [65] + [45] * 3 + [66]
        )


class TestEncryptDictEdgeCases:
    """ADVICE round-3 (low): /EncryptMetadata false key derivation and
    unsigned /P values."""

    def test_r4_encrypt_metadata_false(self):
        text = "metadata-false corpus text " * 40
        plain = extract_pdf(build_pdf(text))[0]
        enc = build_pdf(text, encrypt=True, encrypt_rev=4,
                        encrypt_metadata=False)
        assert b"/EncryptMetadata false" in enc
        assert extract_pdf(enc)[0] == plain

    def test_r4_metadata_flag_changes_key(self):
        """A file written with EncryptMetadata=false but whose dict is
        stripped of the flag must fail the /U check — proves the reader
        actually feeds the flag into Algorithm 2 (rather than both sides
        ignoring it)."""
        enc = build_pdf("x", encrypt=True, encrypt_rev=4,
                        encrypt_metadata=False)
        stripped = enc.replace(b" /EncryptMetadata false", b" " * 23)
        with pytest.raises(PdfError, match="password required"):
            PdfDocument(stripped)

    def test_p_unsigned_and_signed_equivalent(self):
        """Producers emit /P signed (-3904) or unsigned (4294963392) —
        identical 32-bit LE bytes, so Algorithm 2 must yield the same key
        and must not raise OverflowError on the unsigned form."""
        from pdf_extractor_ray.functions.pdf_codec import _std_key

        o = bytes(range(32))
        id0 = b"\x01" * 16
        k_signed = _std_key(o, -3904, id0, 3, 16)
        k_unsigned = _std_key(o, 4294963392, id0, 3, 16)
        assert k_signed == k_unsigned
        # full-range unsigned permission word must not escape the typed API
        _std_key(o, 0xFFFFFFFF, id0, 3, 16)


class TestWildPdfShard:
    """Round 5: crawl-damaged-but-recoverable payloads (Q wild_pdfs) —
    every damage shape must extract byte-identically to the clean
    build, and leading-junk payloads must ROUTE to the pdf branch."""

    TEXT = " ".join(("the quick brown fox jumps over the lazy dog " * 9).split())

    @pytest.mark.parametrize("v", range(8))
    @pytest.mark.parametrize("seed", [0, 11])
    def test_damage_shapes_extract_identically(self, v, seed):
        from pdf_extractor_ray.functions.pdf_extract import extract_pdf
        from pdf_extractor_ray.queries import _wild_pdf_payload

        i = seed * 8 + v
        clean = _wild_pdf_payload((i // 8) * 8, self.TEXT)
        got = extract_pdf(_wild_pdf_payload(i, self.TEXT))
        assert got == extract_pdf(clean), v

    def test_leading_junk_routes_pdf(self):
        from pdf_extractor_ray.functions.pdf_codec import build_pdf
        from pdf_extractor_ray.functions.routing import sniff_payload_route

        junked = (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/pdf\r\n\r\n"
            + build_pdf(self.TEXT)
        )
        assert sniff_payload_route(junked) == "pdf"

    def test_html_mentioning_pdf_stays_html(self):
        from pdf_extractor_ray.functions.routing import sniff_payload_route

        assert (
            sniff_payload_route(
                b"<!DOCTYPE html><html><body>%PDF-1.4 is a format</body>"
            )
            == "html"
        )

    def test_junk_past_1024_bytes_not_rebased(self):
        from pdf_extractor_ray.functions.pdf_codec import build_pdf
        from pdf_extractor_ray.functions.pdf_extract import extract_pdf
        from pdf_extractor_ray.functions.routing import sniff_payload_route

        deep = b"\x00" * 1500 + build_pdf(self.TEXT)
        assert sniff_payload_route(deep) == "html"
        with pytest.raises(ValueError):
            extract_pdf(deep)
