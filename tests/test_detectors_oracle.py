"""Differential test: the profile-based problem detectors against the
per-detector scans they replaced.

The oracle below is the earlier implementation of the fourteen detectors,
one rescan of the page per detector, kept verbatim. Both must agree on
every page for the default seven-detector set and for all fourteen.
"""

import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pdf_extractor_ray.config import ALL_PROBLEMS, DEFAULT_PROBLEMS_ENABLED
from pdf_extractor_ray.fixtures import golden_extract, pages_batch
from pdf_extractor_ray.functions import validate as fvalidate
from pdf_extractor_ray.functions.normalize import extract_numbers
from pdf_extractor_ray.functions.problems import (
    FINANCIAL_KEYWORDS,
    count_alnum,
    detect_all_problems,
    has_any_problem,
)
from pdf_extractor_ray.functions.validate import split_pages

# --- oracle: one scan per detector -------------------------------------------
_EMPTY_TABLE_RE = re.compile(r"(\|\s*\|\s*\|.*\n){5,}")
_REPEATED_CHAR_RE = re.compile(r"(.)\1{9,}", re.DOTALL)
_ALLOWED_REPEATS = {" ", "-", "_", "=", "*", "\n"}
_COMMON_CHARS = set(" \n\t.,;:!?-()[]{}\"'/\\|")
_TABLE_REPEAT_RE = re.compile(r"\|\s*(\d+(?:[.,]\d+)?)\s*\|(?:\s*\1\s*\|){2,}")
_TEXT_REPEAT_RE = re.compile(r"\b(\d+(?:[.,]\d+)?)\s+(?:\1\s+){2,}")
_UNKNOWN_CHARS = ("□", "�", "☐", "▯", "▢", "▣")
_STANDALONE_Q_RE = re.compile(r"\s\?\s")
_IMAGE_RE = re.compile(r"!\[([^\]]*)\]\(([^\)]+)\)")
_ALNUM_RUN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def oracle_count_alnum(text: str) -> int:
    return sum(map(len, _ALNUM_RUN_RE.findall(text)))


def detect_empty_tables(content: str) -> bool:
    return bool(content) and bool(_EMPTY_TABLE_RE.search(content))


def detect_low_content_density(content: str) -> bool:
    if not content:
        return True
    return oracle_count_alnum(content) < 100


def detect_missing_numbers(content: str) -> bool:
    if not content:
        return False
    table_rows = content.count("|") / 4
    return table_rows >= 5 and len(extract_numbers(content)) == 0


def detect_inconsistent_columns(content: str) -> bool:
    if not content:
        return False
    table_lines = [ln.strip() for ln in content.split("\n") if ln.strip().startswith("|")]
    if len(table_lines) < 3:
        return False
    column_counts = {ln.count("|") - 1 for ln in table_lines}
    return len(column_counts) > 2


def detect_repeated_characters(content: str) -> bool:
    if not content:
        return False
    return any(m not in _ALLOWED_REPEATS for m in _REPEATED_CHAR_RE.findall(content))


def detect_garbled_text(content: str) -> bool:
    if not content:
        return False
    alnum = oracle_count_alnum(content)
    if alnum == 0:
        return True
    n_common = sum(content.count(c) for c in _COMMON_CHARS)
    special = len(content) - alnum - n_common
    return special / alnum > 0.2


def detect_header_only_tables(content: str) -> bool:
    if not content:
        return False
    lines = [ln.strip() for ln in content.split("\n") if ln.strip().startswith("|")]
    if len(lines) < 2:
        return False
    separator_indices = [i for i, ln in enumerate(lines) if "---" in ln]
    if not separator_indices:
        return False
    return len(lines) - separator_indices[0] - 1 <= 1


def detect_very_short_pages(content: str) -> bool:
    if not content:
        return True
    return len(content.strip()) < 200


def detect_missing_keywords(content: str) -> bool:
    if not content or len(content) < 500:
        return False
    content_lower = content.lower()
    return not any(kw in content_lower for kw in FINANCIAL_KEYWORDS)


def detect_malformed_structure(content: str) -> bool:
    if not content:
        return False
    table_lines = [ln.strip() for ln in content.split("\n") if ln.strip().startswith("|")]
    if len(table_lines) < 2:
        return False
    for sep in (ln for ln in table_lines if "-" in ln):
        valid_parts = [
            set(p.strip()) <= {"-", " "} for p in sep.split("|") if p.strip()
        ]
        if valid_parts and sum(valid_parts) / len(valid_parts) < 0.7:
            return True
    return False


def detect_duplicate_content(content: str) -> bool:
    if not content:
        return False
    paragraphs = [p.strip() for p in content.split("\n\n") if p.strip()]
    if len(paragraphs) < 3:
        return False
    return any(
        count >= 3 and len(para) > 50 for para, count in Counter(paragraphs).items()
    )


def detect_repetitive_numbers(content: str) -> bool:
    if not content:
        return False
    return bool(_TABLE_REPEAT_RE.search(content)) or bool(_TEXT_REPEAT_RE.search(content))


def detect_unknown_characters(content: str) -> bool:
    if not content:
        return False
    total = len(content)
    unknown = sum(content.count(ch) for ch in _UNKNOWN_CHARS)
    unknown += len(_STANDALONE_Q_RE.findall(content))
    return total > 0 and unknown / total > 0.05


def detect_markdown_images(content: str) -> bool:
    if not content:
        return False
    return bool(_IMAGE_RE.search(content))


ORACLE = {
    "empty_tables": detect_empty_tables,
    "low_content_density": detect_low_content_density,
    "missing_numbers": detect_missing_numbers,
    "inconsistent_columns": detect_inconsistent_columns,
    "repeated_characters": detect_repeated_characters,
    "garbled_text": detect_garbled_text,
    "header_only_tables": detect_header_only_tables,
    "very_short_pages": detect_very_short_pages,
    "missing_keywords": detect_missing_keywords,
    "malformed_structure": detect_malformed_structure,
    "duplicate_content": detect_duplicate_content,
    "unknown_characters": detect_unknown_characters,
    "repetitive_numbers": detect_repetitive_numbers,
    "markdown_images": detect_markdown_images,
}


def assert_matches_oracle(content: str) -> None:
    for enabled in (DEFAULT_PROBLEMS_ENABLED, ALL_PROBLEMS):
        want = {name: ORACLE[name](content) for name in enabled}
        assert detect_all_problems(content, enabled) == want, content
        want_names = [name for name, hit in want.items() if hit]
        if content:
            assert has_any_problem(content, enabled) == (bool(want_names), want_names)


# --- page strategies ---------------------------------------------------------
ASCII_ALPHABET = "|-_ \n\t.,:;!?*=#()[]{}'\"/\\0123456789abcxyzABC"
# Hebrew, accented Latin, unknown glyphs, a currency sign, a no-break space
# (non-ASCII whitespace) and a lone surrogate.
NON_ASCII = "אבגשéüñ□�☐₪\xa0\ud800"
SNIPPETS = (
    "| | |\n",
    "| 1 | 1 | 1 |\n",
    "| --- | --- |\n",
    "| a | b | c |\n",
    "|-|x|y|\n",
    "1000 1000 1000 ",
    "2,5 2,5 2,5\n",
    " ? ",
    "![img](p.png)",
    "\n\n",
    "\n\nA paragraph of well over fifty characters, said three times.\n\n",
    "total revenue ",
)


def pages(alphabet: str):
    """Pages built from free text, 9–11 character runs and table/number
    snippets over ``alphabet``."""
    free = st.text(alphabet=alphabet, max_size=40)
    run = st.builds(lambda ch, n: ch * n, st.sampled_from(alphabet), st.integers(9, 11))
    return st.lists(st.one_of(free, run, st.sampled_from(SNIPPETS)), max_size=14).map("".join)


ASCII_PAGES = pages(ASCII_ALPHABET)
MIXED_PAGES = pages(ASCII_ALPHABET + NON_ASCII)


class TestDetectorsMatchOracle:
    @settings(max_examples=300, deadline=None)
    @given(ASCII_PAGES)
    def test_ascii_pages(self, content):
        assert content.isascii()
        assert_matches_oracle(content)

    @settings(max_examples=300, deadline=None)
    @given(MIXED_PAGES)
    def test_mixed_pages(self, content):
        assert_matches_oracle(content)

    @settings(max_examples=200, deadline=None)
    @given(ASCII_PAGES, st.sampled_from(NON_ASCII), st.booleans())
    def test_ascii_boundary(self, content, extra, at_end):
        """One non-ASCII character moves a page onto the fallback path; both
        paths must agree with the oracle."""
        assert_matches_oracle(content)
        assert_matches_oracle(content + extra if at_end else extra + content)

    @given(st.text(max_size=200))
    def test_count_alnum(self, text):
        assert count_alnum(text) == oracle_count_alnum(text)

    @pytest.mark.parametrize(
        "content",
        [
            "", "x" * 9, "x" * 10, "-" * 10 + "x" * 9, "é" + "x" * 10, "ab" * 10,
            "\x00" * 9, "a" + "\x00" * 9, "\x00" * 10,
            "| | |\n" * 5,                # exactly the 15 `|` empty_tables needs
            "| a | b | c | d |\n" * 4,    # exactly the 20 `|` missing_numbers needs
            "|7|7|7|",                    # exactly the 4 `|` of a table repeat
            " ?\n" * 10, "\t?\t" * 5,     # standalone `?` without a space after
        ],
    )
    def test_edges(self, content):
        """Each cheap gate at its threshold."""
        assert_matches_oracle(content)


def test_pages_batch_corpus_pages(monkeypatch):
    """Every page the validator sees on a generated corpus (each bucket,
    the oversized row and PDFs included), plus the provided text's pages."""
    table = pages_batch(list(range(120)), seed=5)
    seen: list[str] = []
    has_any = fvalidate.has_any_problem

    def recording(content, enabled):
        seen.append(content)
        return has_any(content, enabled)

    monkeypatch.setattr(fvalidate, "has_any_problem", recording)
    golden_extract(table)
    for text in table["text"].to_pylist():
        seen.extend(split_pages(text or "") or [text or ""])
    assert len(seen) > 500
    assert any(not page.isascii() for page in seen)
    for page in seen:
        assert_matches_oracle(page)
