"""The fourteen extraction-quality problem detectors, over a one-pass page profile.

Semantics mirrored one-for-one from the reference's ProblemDetector
(reference: src/services/validation/problem_detector.py:33-523): each detector
is a pure predicate over a page's markdown. The registry + enable-list
mechanism mirrors reference: problem_detector.py:424-452 with the default
seven-detector enable set from reference: src/core/config.py:100.

The reference rescans the page once per detector. Here a :class:`PageProfile`
is built once per page and every detector is a predicate over it. Each part
of the profile is computed on first use, at most once:

* the alphanumeric count — one ``bytes.translate`` pass on ASCII pages
  (``str.isascii``), the ``[^\\W_]`` regex otherwise;
* the common-punctuation count — one ``bytes.translate`` pass over the
  page's UTF-8 bytes (every common character is ASCII);
* the ``|`` count and the stripped length;
* the table lines (the page split into lines once), the index of the first
  table separator line, and the paragraphs.

A regex-only detector runs its regex only when the profile's counts say a
match is possible: ``empty_tables`` needs 15 ``|``, the table form of
``repetitive_numbers`` needs 4, a standalone ``?`` needs a ``?``; unknown
glyphs are not counted on ASCII pages. Repeated characters on ASCII pages
are found by comparing each byte with its successor in one big-integer
XOR. Every output is identical to the per-detector scans of the reference.
"""

from __future__ import annotations

import re
from collections import Counter

from .normalize import iter_numbers

# 5+ consecutive mostly-empty table lines `| | |`
# (reference: problem_detector.py:33).
_EMPTY_TABLE_RE = re.compile(r"(\|\s*\|\s*\|.*\n){5,}")
_REPEATED_CHAR_RE = re.compile(r"(.)\1{9,}", re.DOTALL)
_ALLOWED_REPEATS = {" ", "-", "_", "=", "*", "\n"}
_COMMON_CHARS = set(" \n\t.,;:!?-()[]{}\"'/\\|")
_TABLE_REPEAT_RE = re.compile(r"\|\s*(\d+(?:[.,]\d+)?)\s*\|(?:\s*\1\s*\|){2,}")
_TEXT_REPEAT_RE = re.compile(r"\b(\d+(?:[.,]\d+)?)\s+(?:\1\s+){2,}")
_UNKNOWN_CHARS = ("□", "�", "☐", "▯", "▢", "▣")
_STANDALONE_Q_RE = re.compile(r"\s\?\s")
_IMAGE_RE = re.compile(r"!\[([^\]]*)\]\(([^\)]+)\)")
# Alphanumeric runs ([^\W_] == unicode letters+digits, no underscore) — a
# C-level replacement for per-char str.isalnum() scans on non-ASCII text.
_ALNUM_RUN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# On ASCII text [^\W_] is exactly [0-9A-Za-z].
_ASCII_ALNUM = bytes(i for i in range(128) if chr(i).isalnum())
_ASCII_COMMON = "".join(sorted(_COMMON_CHARS)).encode("ascii")
# Byte maps for the repeated-character XOR: allowed repeats become 0x80 in
# one copy and 0x81 in the other, so only equal non-allowed neighbours
# XOR to zero.
_REPEAT_LEFT = bytes(0x80 if chr(i) in _ALLOWED_REPEATS else i for i in range(256))
_REPEAT_RIGHT = bytes(0x81 if chr(i) in _ALLOWED_REPEATS else i for i in range(256))
_NINE_EQUAL = b"\0" * 9


def count_alnum(text: str) -> int:
    """Number of alphanumeric characters (one C-level pass)."""
    if text.isascii():
        raw = text.encode("ascii")
        return len(raw) - len(raw.translate(None, _ASCII_ALNUM))
    return sum(map(len, _ALNUM_RUN_RE.findall(text)))

# Finance keywords, English + Hebrew (reference: problem_detector.py:240-250).
FINANCIAL_KEYWORDS = (
    "revenue", "expense", "balance", "asset", "liability", "equity",
    "income", "profit", "loss", "debit", "credit", "account",
    "total", "subtotal", "amount", "date", "transaction", "payment",
    "statement", "bank", "financial", "report", "summary",
    "הכנסות", "הוצאות", "יתרה", "חשבון", "סכום",
    'סה"כ', "זכות", "חובה", "תאריך", "עסקה",
    "תשלום", "דוח", "כספי", "מאזן", "רווח", "הפסד",
)


class _once:
    """Non-data descriptor: compute on first read, then keep the value on
    the instance. ``functools.cached_property`` without its lock, whose
    per-read cost was ~10% of the detectors' time on Python 3.11."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, owner=None):
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class PageProfile:
    """What the detectors read of one page; ``None`` counts as empty."""

    def __init__(self, content: str | None) -> None:
        self.content = content = content or ""
        self.length = len(content)
        self.is_ascii = content.isascii()  # O(1): a flag of the str object

    @_once
    def raw(self) -> bytes:
        """UTF-8 bytes; an ASCII byte in them is always an ASCII character."""
        return self.content.encode("utf-8", "surrogatepass")

    @_once
    def alnum(self) -> int:
        return count_alnum(self.content)

    @_once
    def common(self) -> int:
        """Count of common punctuation/whitespace (all ASCII, disjoint from
        alnum)."""
        return len(self.raw) - len(self.raw.translate(None, _ASCII_COMMON))

    @_once
    def pipes(self) -> int:
        return self.content.count("|")

    @_once
    def stripped_length(self) -> int:
        return len(self.content.strip())

    @_once
    def table_lines(self) -> list[str]:
        """Stripped lines that start with ``|``."""
        if not self.pipes:
            return []
        return [s for ln in self.content.split("\n") if (s := ln.strip()).startswith("|")]

    @_once
    def first_separator(self) -> int | None:
        """Index in :attr:`table_lines` of the first line holding ``---``."""
        return next((i for i, ln in enumerate(self.table_lines) if "---" in ln), None)

    @_once
    def paragraphs(self) -> list[str]:
        return [s for p in self.content.split("\n\n") if (s := p.strip())]


def detect_empty_tables(page: PageProfile) -> bool:
    """5+ consecutive mostly-empty `| | |` lines
    (reference: problem_detector.py:44-65)."""
    return page.pipes >= 15 and bool(_EMPTY_TABLE_RE.search(page.content))


def detect_low_content_density(page: PageProfile) -> bool:
    """<100 alphanumeric characters (empty content counts as a problem)
    (reference: problem_detector.py:67-82)."""
    return page.alnum < 100


def detect_missing_numbers(page: PageProfile) -> bool:
    """~5+ table rows (pipe count / 4) but zero extractable numbers
    (reference: problem_detector.py:84-107)."""
    return page.pipes >= 20 and next(iter_numbers(page.content), None) is None


def detect_inconsistent_columns(page: PageProfile) -> bool:
    """>2 distinct column counts across table rows (OCR misalignment)
    (reference: problem_detector.py:109-134)."""
    lines = page.table_lines
    return len(lines) >= 3 and len({ln.count("|") - 1 for ln in lines}) > 2


def detect_repeated_characters(page: PageProfile) -> bool:
    """Same character repeated 10+ times, excluding ``' -_=*\\n'``
    (reference: problem_detector.py:136-156)."""
    if page.length < 10:
        return False
    if not page.is_ascii:
        return any(m not in _ALLOWED_REPEATS for m in _REPEATED_CHAR_RE.findall(page.content))
    # Byte i of the XOR is zero iff raw[i] == raw[i + 1] and raw[i] is not an
    # allowed repeat (the last byte XORs with 0x82, never zero); nine zero
    # bytes in a row are ten equal characters.
    raw = page.raw
    left = int.from_bytes(raw.translate(_REPEAT_LEFT), "big")
    right = int.from_bytes(raw[1:].translate(_REPEAT_RIGHT) + b"\x82", "big")
    return _NINE_EQUAL in (left ^ right).to_bytes(page.length, "big")


def detect_garbled_text(page: PageProfile) -> bool:
    """special-char / alphanumeric ratio > 0.2 (common punctuation excluded);
    all-special content is garbled (reference: problem_detector.py:158-182)."""
    if not page.length:
        return False
    alnum = page.alnum
    if alnum == 0:
        return True
    # special = everything that is neither alnum nor common punctuation
    # (the two sets are disjoint, underscore counts as special).
    return (page.length - alnum - page.common) / alnum > 0.2


def detect_header_only_tables(page: PageProfile) -> bool:
    """Table has a header separator but <=1 data rows after it
    (reference: problem_detector.py:184-211)."""
    if len(page.table_lines) < 2 or page.first_separator is None:
        return False
    return len(page.table_lines) - page.first_separator - 1 <= 1


def detect_very_short_pages(page: PageProfile) -> bool:
    """<200 stripped characters (reference: problem_detector.py:213-228)."""
    return page.stripped_length < 200


def detect_missing_keywords(page: PageProfile) -> bool:
    """No finance keyword (EN/HE) in a substantial (>=500 chars) page
    (reference: problem_detector.py:230-259)."""
    if page.length < 500:
        return False
    content_lower = page.content.lower()
    return not any(kw in content_lower for kw in FINANCIAL_KEYWORDS)


def detect_malformed_structure(page: PageProfile) -> bool:
    """A table separator line where <70% of parts are dash/space-only
    (reference: problem_detector.py:261-296)."""
    if len(page.table_lines) < 2:
        return False
    for sep in (ln for ln in page.table_lines if "-" in ln):
        valid_parts = [
            set(p.strip()) <= {"-", " "} for p in sep.split("|") if p.strip()
        ]
        if valid_parts and sum(valid_parts) / len(valid_parts) < 0.7:
            return True
    return False


def detect_duplicate_content(page: PageProfile) -> bool:
    """A >50-char paragraph repeated 3+ times
    (reference: problem_detector.py:298-321)."""
    paragraphs = page.paragraphs
    if len(paragraphs) < 3:
        return False
    return any(
        count >= 3 and len(para) > 50 for para, count in Counter(paragraphs).items()
    )


def detect_repetitive_numbers(page: PageProfile) -> bool:
    """Same number repeated 3+ times in table cells or space-separated text
    (reference: problem_detector.py:323-355)."""
    content = page.content
    if page.pipes >= 4 and _TABLE_REPEAT_RE.search(content):
        return True
    return bool(_TEXT_REPEAT_RE.search(content))


def detect_unknown_characters(page: PageProfile) -> bool:
    """>5% unknown glyphs (□ � ☐ …) plus standalone question marks
    (reference: problem_detector.py:357-380)."""
    if not page.length:
        return False
    content = page.content
    unknown = 0 if page.is_ascii else sum(content.count(ch) for ch in _UNKNOWN_CHARS)
    if "?" in content:
        unknown += len(_STANDALONE_Q_RE.findall(content))
    return unknown / page.length > 0.05


def detect_markdown_images(page: PageProfile) -> bool:
    """Any markdown image reference ``![alt](path)``; the regex's literal
    ``![`` prefix already skips pages without one
    (reference: problem_detector.py:382-403)."""
    return bool(_IMAGE_RE.search(page.content))


PROBLEM_REGISTRY: dict[str, object] = {
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


def detect_all_problems(
    content: str, enabled: tuple[str, ...] | list[str]
) -> dict[str, bool]:
    """Run only the enabled detectors over one shared profile of ``content``
    (skipping disabled ones is the reference's 46% speedup;
    reference: problem_detector.py:405-452)."""
    page = PageProfile(content)
    return {
        name: PROBLEM_REGISTRY[name](page)
        for name in enabled
        if name in PROBLEM_REGISTRY
    }


def has_any_problem(
    content: str, enabled: tuple[str, ...] | list[str]
) -> tuple[bool, list[str]]:
    """(has_problem, detected_names); empty content → ``['empty_content']``
    (reference: problem_detector.py:454-486)."""
    if not content:
        return True, ["empty_content"]
    detected = [name for name, hit in detect_all_problems(content, enabled).items() if hit]
    return bool(detected), detected
