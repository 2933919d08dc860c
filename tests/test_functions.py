"""Unit tests for the pure operator functions, with the reference's own
fixture values (FIXTURES.md §4; reference: tests/test_validation_service.py,
tests/test_query_filter.py, scripts/classify_debit_credit.py)."""

import pytest

from pdf_extractor_ray.functions.assemble import (
    combine_markdown_sections,
    combine_pages,
    filter_outlines_by_query,
    format_page_header,
)
from pdf_extractor_ray.functions.normalize import (
    extract_numbers,
    fix_bidi_text,
    normalize_for_comparison,
    safe_filename,
    sanitize_filename,
)
from pdf_extractor_ray.functions.numbers import (
    classify_transactions,
    find_balance_column,
    parse_number,
)
from pdf_extractor_ray.functions.problems import (
    PageProfile,
    detect_duplicate_content,
    detect_empty_tables,
    detect_garbled_text,
    detect_header_only_tables,
    detect_inconsistent_columns,
    detect_low_content_density,
    detect_markdown_images,
    detect_missing_keywords,
    detect_missing_numbers,
    detect_repeated_characters,
    detect_repetitive_numbers,
    detect_unknown_characters,
    detect_very_short_pages,
    has_any_problem,
)
from pdf_extractor_ray.functions.routing import (
    get_workflow_for_query,
    sniff_payload_route,
)
from pdf_extractor_ray.functions.similarity import (
    calculate_similarity,
    levenshtein_distance,
    quick_jaccard,
    similarity_levenshtein,
    similarity_number_frequency,
)
from pdf_extractor_ray.functions.tables import (
    PageTable,
    merge_tables_across_pages,
    parse_markdown_tables,
    validate_numerical_continuity,
)


# --- normalization (reference: content_normalizer.py) -----------------------
class TestNormalize:
    def test_alnum_only_lowercase(self):
        assert normalize_for_comparison("Hello, World! 123") == "helloworld123"

    def test_hebrew_preserved(self):
        assert normalize_for_comparison("שלום, עולם! 45") == "שלוםעולם45"

    def test_empty(self):
        assert normalize_for_comparison("") == ""


class TestExtractNumbers:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1,234,567", ["1234567"]),
            ("1.234.567,89", ["1234567.89"]),
            ("-1,234", ["-1234"]),
            ("15%", ["15"]),
            ("₪5,000", ["5000"]),
            ("123.45", ["123.45"]),
            ("123,45", ["123.45"]),  # European decimal comma
            ("no numbers here", []),
        ],
    )
    def test_formats(self, text, expected):
        assert extract_numbers(text) == expected

    def test_hebrew_sentence_embedding(self):
        assert extract_numbers("היתרה היא 1,234.56 שקלים") == ["1234.56"]


class TestParseNumber:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1,234.56", 1234.56),
            ("1.234,56", 1234.56),
            ("(123.45)", -123.45),
            ("₪1,234", 1234.0),
            ("", None),
            ("abc", None),
        ],
    )
    def test_formats(self, text, expected):
        assert parse_number(text) == expected


# --- similarity (reference: similarity_calculator.py) -----------------------
class TestSimilarity:
    def test_levenshtein_distance(self):
        assert levenshtein_distance("kitten", "sitting") == 3
        assert levenshtein_distance("", "abc") == 3
        assert levenshtein_distance("abc", "abc") == 0

    def test_levenshtein_format_agnostic(self):
        # Punctuation/whitespace-only differences → 1.0 on normalized text.
        assert similarity_levenshtein("Hello, World! 123", "hello world 123") == 1.0

    def test_both_empty(self):
        assert similarity_levenshtein("", "") == 1.0
        assert similarity_number_frequency("", "") == 1.0

    def test_one_empty(self):
        assert similarity_levenshtein("content", "") == 0.0

    def test_number_frequency_identical_distributions(self):
        a = "balance 1,234.56 and total 99"
        b = "totals: 99 — balance 1.234,56"  # European format, same numbers
        assert similarity_number_frequency(a, b) == pytest.approx(1.0)

    def test_ocr_error_in_number(self):
        # One digit OCR error → disjoint number sets → 0.0
        assert similarity_number_frequency("value 567", "value 557") == 0.0

    def test_quick_jaccard_early_exit(self):
        text = "the same words exactly " * 10
        assert quick_jaccard(text, text) == 1.0
        assert calculate_similarity(text, text) == 1.0

    def test_length_gate(self):
        assert quick_jaccard("short", "a much longer string of words") == 0.0


# --- problem detectors (reference: problem_detector.py) ---------------------
GOOD_PAGE = (
    "# Financial Report\n\nThe quarterly revenue statement shows a balance of "
    "1,234.56 with account totals and payment transactions recorded on each "
    "date line for the full period under review by the audit board."
    + " More narrative content follows with additional detail." * 2
)


class TestProblemDetectors:
    def test_empty_tables_positive(self):
        content = "| | |\n" * 5
        assert detect_empty_tables(PageProfile(content))

    def test_empty_tables_negative_three_rows(self):
        content = "| | |\n" * 3
        assert not detect_empty_tables(PageProfile(content))

    def test_low_content_density(self):
        assert detect_low_content_density(PageProfile("short"))
        assert not detect_low_content_density(PageProfile("x" * 150))

    def test_missing_numbers(self):
        rows = "\n".join("| a | b | c | d |" for _ in range(6))
        assert detect_missing_numbers(PageProfile(rows))
        assert not detect_missing_numbers(PageProfile(rows + "\n| 1 | 2 | 3 | 4 |"))

    def test_inconsistent_columns(self):
        content = "| a | b |\n| a | b | c |\n| a | b | c | d |\n| a |"
        assert detect_inconsistent_columns(PageProfile(content))
        consistent = "| a | b |\n| --- | --- |\n| 1 | 2 |\n| 3 | 4 |"
        assert not detect_inconsistent_columns(PageProfile(consistent))

    def test_repeated_characters(self):
        assert detect_repeated_characters(PageProfile("prefix " + "x" * 10))
        assert not detect_repeated_characters(PageProfile("prefix " + "-" * 20))  # rule line

    def test_garbled_text(self):
        assert detect_garbled_text(PageProfile("@#$%^&*~`" * 10 + "ab"))
        assert not detect_garbled_text(PageProfile(GOOD_PAGE))

    def test_header_only_tables(self):
        content = "| A | B |\n| --- | --- |\n| 1 | 2 |"
        assert detect_header_only_tables(PageProfile(content))
        full = content + "\n| 3 | 4 |\n| 5 | 6 |"
        assert not detect_header_only_tables(PageProfile(full))

    def test_very_short_pages(self):
        assert detect_very_short_pages(PageProfile("tiny"))
        assert not detect_very_short_pages(PageProfile("y" * 250))

    def test_missing_keywords(self):
        neutral = ("lorem ipsum dolor sit amet " * 25)[:600]
        assert detect_missing_keywords(PageProfile(neutral))
        assert not detect_missing_keywords(PageProfile(GOOD_PAGE * 2))
        assert not detect_missing_keywords(PageProfile("short page"))  # <500 chars skipped

    def test_duplicate_content(self):
        para = "a substantial paragraph with quite a lot of characters in it"
        assert detect_duplicate_content(PageProfile("\n\n".join([para] * 3)))
        assert not detect_duplicate_content(PageProfile("\n\n".join([para, "b", "c"])))

    def test_repetitive_numbers(self):
        assert detect_repetitive_numbers(PageProfile("| 1000 | 1000 | 1000 |"))
        assert detect_repetitive_numbers(PageProfile("1000 1000 1000 "))
        assert not detect_repetitive_numbers(PageProfile("| 1 | 2 | 3 |"))

    def test_unknown_characters(self):
        assert detect_unknown_characters(PageProfile("□�☐ " * 10 + "ab"))
        assert not detect_unknown_characters(PageProfile(GOOD_PAGE))

    def test_markdown_images(self):
        assert detect_markdown_images(PageProfile("![img-01.jpeg](img-01.jpeg)"))
        assert not detect_markdown_images(PageProfile("plain [link](x) no bang"))

    def test_has_any_problem_empty_content(self):
        assert has_any_problem("", ("empty_tables",)) == (True, ["empty_content"])

    def test_enable_list_respected(self):
        content = "| | |\n" * 6  # empty_tables positive
        has, detected = has_any_problem(content, ("markdown_images",))
        assert detected == []


# --- routing (reference: workflow_router.py, config.py:60-73) ---------------
class TestRouting:
    def test_pdf_magic(self):
        assert sniff_payload_route(b"%PDF-1.7 rest") == "pdf"
        assert sniff_payload_route(b"<html></html>") == "html"
        assert sniff_payload_route(b"") == "empty"
        assert sniff_payload_route(None) == "empty"

    def test_normalize_route_is_sniff_per_row(self):
        import pyarrow as pa

        from pdf_extractor_ray.stages.normalize import (
            SPLIT_THRESHOLD_BYTES,
            normalize_route,
        )

        payloads = [
            None,
            b"",
            b"%PDF",
            b"HTTP/1.1 200 OK\r\nContent-Type: application/pdf\r\n\r\n%PDF-1.4 x",
            b"\x00" * 1500 + b"%PDF-1.4 x",
            b"<!DOCTYPE html><html><body>%PDF-1.4 is a format</body>",
            b"<p>" + b"x" * SPLIT_THRESHOLD_BYTES + b"</p>",
            b"%PDF-1.4 " + b"x" * SPLIT_THRESHOLD_BYTES,
        ]
        batch = pa.table(
            {
                "url": [f"u://{i}" for i in range(len(payloads))],
                "html": pa.array(payloads, pa.binary()),
            }
        )
        out = normalize_route(batch)
        routes = out["route"].to_pylist()
        assert routes == [sniff_payload_route(p) for p in payloads]
        assert routes == ["empty", "empty", "pdf", "pdf", "html", "html", "html", "pdf"]
        assert out["payload_bytes"].to_pylist() == [len(p or b"") for p in payloads]
        # Only oversized PDF rows are cut; oversized HTML is read whole.
        assert out["needs_split"].to_pylist() == [False] * 7 + [True]

    @pytest.mark.parametrize(
        "query,workflow",
        [
            ("01_Fin_Reports annual", "mistral"),
            ("02_Trial_Balance", "azure_document_intelligence"),
            ("path/04_Bank_Statements/x", "text_extraction"),
            ("unknown query", "mistral"),
            (None, "mistral"),
            ("", "mistral"),
        ],
    )
    def test_query_routing(self, query, workflow):
        assert get_workflow_for_query(query) == workflow


# --- outline filter (reference: utils.py:11-32) -----------------------------
class TestOutlineFilter:
    OUTLINES = [
        {"title": "Balance Sheet", "page": 0},
        {"title": "דוח רווח והפסד", "page": 5},
        {"title": "Notes", "page": 9},
    ]

    def test_exact_and_partial(self):
        assert filter_outlines_by_query(self.OUTLINES, "balance") == [self.OUTLINES[0]]
        assert filter_outlines_by_query(self.OUTLINES, "רווח") == [self.OUTLINES[1]]

    def test_case_insensitive(self):
        assert filter_outlines_by_query(self.OUTLINES, "NOTES") == [self.OUTLINES[2]]

    def test_no_match_returns_all(self):
        assert filter_outlines_by_query(self.OUTLINES, "zzz") == self.OUTLINES

    def test_empty_query_returns_all(self):
        assert filter_outlines_by_query(self.OUTLINES, "") == self.OUTLINES


# --- assembly (reference: utils.py:112-161) ---------------------------------
class TestAssemble:
    def test_page_header(self):
        assert format_page_header(0) == "# Page 1\n\n"
        assert format_page_header(5, zero_based=False) == "# Page 5\n\n"

    def test_combine_empty(self):
        assert combine_markdown_sections([]) == "# No content extracted\n\n"

    def test_combine_single_verbatim(self):
        assert combine_markdown_sections(["  raw  "]) == "  raw  "

    def test_combine_multiple_strips_and_joins(self):
        out = combine_markdown_sections(["a ", "", " b"])
        assert out == "a\n\n---\n\nb"

    def test_combine_pages_single_no_header(self):
        assert combine_pages(["only page"]) == "only page"

    def test_combine_pages_multi_headers(self):
        out = combine_pages(["one", "two"])
        assert out == "# Page 1\n\none\n\n---\n\n# Page 2\n\ntwo"


# --- tables (reference: table_merger.py, table_validator.py) ----------------
class TestTableMerge:
    def test_same_headers_merge(self):
        t1 = PageTable(["Date", "Debit"], [["1/1", "100"]], 1)
        t2 = PageTable([" date ", "DEBIT"], [["2/1", "50"]], 2)
        merged = merge_tables_across_pages([t1, t2])
        assert len(merged) == 1
        assert merged[0].data_rows == [["1/1", "100"], ["2/1", "50"]]

    def test_headerless_continuation_merges_header_row_as_data(self):
        t1 = PageTable(["Date", "Debit"], [["1/1", "100"]], 1)
        t2 = PageTable([], [["2/1", "50"]], 2, has_headers=False)
        merged = merge_tables_across_pages([t1, t2])
        assert len(merged) == 1
        assert merged[0].data_rows == [["1/1", "100"], ["2/1", "50"]]

    def test_balance_continuity_merges_despite_headers(self):
        t1 = PageTable(["Date", "Amount", "Balance"], [["1/1", "100", "900.00"]], 1)
        t2 = PageTable(["X", "Y"], [["2/1", "850.00"]], 2)
        merged = merge_tables_across_pages([t1, t2])
        assert len(merged) == 1

    def test_distinct_headers_no_merge(self):
        t1 = PageTable(["Date", "Debit"], [["1/1", "abc"]], 1)
        t2 = PageTable(["Totally", "Different"], [["x", "y"]], 2)
        merged = merge_tables_across_pages([t1, t2])
        assert len(merged) == 2

    def test_numerical_validation_off(self):
        t1 = PageTable(["Date", "Amount", "Balance"], [["1/1", "100", "900.00"]], 1)
        t2 = PageTable(["X", "Y"], [["2/1", "850.00"]], 2)
        merged = merge_tables_across_pages([t1, t2], use_numerical_validation=False)
        assert len(merged) == 2

    def test_continuity_same_balance(self):
        assert validate_numerical_continuity(["a", "500.00"], ["b", "500.00"])

    def test_continuity_large_jump_rejected(self):
        assert not validate_numerical_continuity(["a", "100.00"], ["b", "9999.00"])

    def test_markdown_caption_range(self):
        t1 = PageTable(["A"], [["1"]], 2)
        t2 = PageTable(["A"], [["2"]], 3)
        merged = merge_tables_across_pages([t1, t2])
        assert merged[0].to_markdown().startswith("**Table from Pages 2-3**")

    def test_parse_markdown_tables_roundtrip(self):
        md = "| A | B |\n| --- | --- |\n| 1 | 2 |\n| 3 | 4 |"
        tables = parse_markdown_tables(md)
        assert len(tables) == 1
        assert tables[0]["headers"] == ["A", "B"]
        assert tables[0]["rows"] == [["1", "2"], ["3", "4"]]


# --- running balance classification (reference: classify_debit_credit.py) ---
class TestClassification:
    def test_classify_from_combined_amount(self):
        import pandas as pd

        df = pd.DataFrame(
            {
                "Description": ["opening", "rent", "salary"],
                "Amount": ["100.00", "100.00", "50.00"],
                "Balance": ["1000.00", "900.00", "950.00"],
            }
        )
        out = classify_transactions(df)
        assert out["transaction_type"].tolist() == ["", "DEBIT", "CREDIT"]

    def test_balance_column_by_keyword(self):
        import pandas as pd

        df = pd.DataFrame({"יתרה": ["1", "2"], "x": ["a", "b"]})
        assert find_balance_column(df) == "יתרה"


# --- misc scalar helpers -----------------------------------------------------
class TestMisc:
    def test_bidi_flip_hebrew_only(self):
        assert fix_bidi_text("שלום") == "םולש"
        assert fix_bidi_text("hello") == "hello"

    def test_bidi_mixed_runs_keep_numbers(self):
        # The UBA keeps digit/Latin runs in logical order inside RTL text —
        # a naive full reverse would turn 1,234.56 into 65.432,1
        # (reference: extraction_service.py:49-57 uses bidi.get_display).
        assert fix_bidi_text("שלום 1,234.56") == "1,234.56 םולש"
        assert fix_bidi_text("123 שלום") == "םולש 123"
        assert fix_bidi_text("שלום abc") == "abc םולש"
        assert fix_bidi_text("abc שלום") == "abc םולש"
        assert fix_bidi_text("א1ב") == "ב1א"

    def test_bidi_financial_cells(self):
        # Bank-statement-shaped cells: dates, currency, trailing minus.
        assert (
            fix_bidi_text("תאריך: 01/02/2026 יתרה 1,000.50-")
            == "-1,000.50 הרתי 01/02/2026 :ךיראת"
        )
        assert fix_bidi_text("₪5,000 שולם") == "םלוש ₪5,000"
        assert fix_bidi_text("50% הנחה") == "החנה 50%"

    def test_bidi_ltr_text_with_numbers_unchanged(self):
        from pdf_extractor_ray.functions.normalize import bidi_display

        assert bidi_display("abc 123") == "abc 123"
        assert bidi_display("1,234.56") == "1,234.56"
        assert bidi_display("") == ""

    def test_bidi_properties(self):
        """Property sweep: display is a character permutation (no bracket
        chars → L4 mirroring can't substitute), pure-LTR input is a fixed
        point, and number tokens survive intact."""
        import random

        from hypothesis import given, settings, strategies as st

        from pdf_extractor_ray.functions.normalize import bidi_display

        alphabet = "אבגדהוז abcdefg 0123456789.,-%"

        @settings(max_examples=200, deadline=None)
        @given(st.text(alphabet=alphabet, max_size=40))
        def check(s):
            out = bidi_display(s)
            assert sorted(out) == sorted(s)  # permutation
            if not any("֐" <= ch <= "׿" for ch in s):
                # no RTL chars → at most EN levels → identity
                assert out == s
            # a space-delimited numeric token (digits at both ends, every
            # separator SINGLE — UBA W4 only keeps a lone CS between two
            # digits at EN level; "0..1" legitimately reverses) stays
            # contiguous and unreversed
            for tok in s.split():
                if (
                    len(tok) >= 2
                    and tok[0].isdigit()
                    and tok[-1].isdigit()
                    and all(c.isdigit() or c in ".," for c in tok)
                    and not any(
                        a in ".," and b in ".," for a, b in zip(tok, tok[1:])
                    )
                ):
                    assert tok in out

        check()

        # deterministic spot checks with seeds (regression net)
        rng = random.Random(7)
        for _ in range(50):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(30)))
            out = bidi_display(s)
            assert sorted(out) == sorted(s)

    def test_sanitize_filename(self):
        assert sanitize_filename("../../etc/passwd") == "passwd"

    def test_safe_filename(self):
        assert safe_filename("My: Title!", "doc") == "My_Title_doc.md"


class TestCharEntropy:
    """ops/text.py char_entropy_batch: closed-form values, null/empty
    handling, vectorized-vs-brute parity."""

    def test_closed_forms(self):
        import pyarrow as pa

        from pdf_extractor_ray.ops.text import char_entropy_batch

        batch = pa.table({
            "doc_id": [1, 2, 3, 4, 5],
            "text": ["aaaa",          # H = 0
                     "abab",          # H = 1
                     "abcd",          # H = 2
                     "",              # empty -> 0
                     None],           # null -> 0
        })
        out = char_entropy_batch(batch).to_pylist()
        got = {r["doc_id"]: (r["n_chars"], r["entropy_micro"]) for r in out}
        assert got == {1: (4, 0), 2: (4, 1_000_000), 3: (4, 2_000_000),
                       4: (0, 0), 5: (0, 0)}

    def test_brute_parity(self):
        import math
        from collections import Counter

        import numpy as np
        import pyarrow as pa

        from pdf_extractor_ray.ops.text import char_entropy_batch

        rng = np.random.Generator(np.random.Philox(7))
        texts = [
            "".join(chr(97 + int(rng.integers(0, 6)))
                    for _ in range(int(rng.integers(1, 40))))
            for _ in range(20)
        ]
        batch = pa.table({"doc_id": list(range(20)), "text": texts})
        out = {r["doc_id"]: r["entropy_micro"]
               for r in char_entropy_batch(batch).to_pylist()}
        for i, t in enumerate(texts):
            n = len(t)
            s = sum(c * math.log2(c) for c in Counter(t).values())
            want = round((math.log2(n) - s / n) * 1e6)
            assert out[i] == want, i


class TestGroupedSplit:
    """ops/text.py grouped_split: group cohesion, threshold math,
    layout invariance."""

    def test_cohesion_and_layouts(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.text import grouped_split

        rows = [{"doc_id": i, "dom": f"d{i % 7}.com"} for i in range(50)]
        prev = None
        for parts in (1, 5):
            ds = rd.from_items(rows).repartition(parts)
            df = grouped_split(ds, group_col="dom").to_pandas()
            by_dom = df.groupby("dom")["split"].nunique()
            assert (by_dom == 1).all()        # one split per group
            got = dict(zip(df.doc_id, df.split))
            if prev is not None:
                assert got == prev            # layout invariant
            prev = got

    def test_matches_reference_hash(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.text import (
            _fnv1a, grouped_split, splitmix64_np,
        )
        import numpy as np

        rows = [{"doc_id": 0, "dom": "example.com"}]
        df = grouped_split(rd.from_items(rows), group_col="dom").to_pandas()
        hv = splitmix64_np(
            np.array([_fnv1a(b"example.com")], dtype=np.uint64))[0]
        want = ("train" if hv < (4 << 64) // 5
                else "val" if hv < (9 << 64) // 10 else "test")
        assert df.split[0] == want
