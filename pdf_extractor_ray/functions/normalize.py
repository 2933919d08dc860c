"""Text normalization and number extraction.

Semantics mirrored from the reference's ContentNormalizer
(reference: src/services/validation/content_normalizer.py:14-121) and the
filename/bidi helpers (reference: src/services/pdf_input_handler.py:130-136,
src/services/workflows/default_handler.py:176-182,
src/services/extraction_service.py:50-57).
"""

from __future__ import annotations

import re

_CURRENCY_RE = re.compile(r"[₪$€£¥₹₪]")
# Optional minus; digits; optional thousands groups split by , . or space;
# optional decimal part; optional trailing percent
# (reference: content_normalizer.py:56).
_NUMBER_RE = re.compile(r"-?\d+(?:[,\.\s]\d{3})*(?:[,\.]\d+)?%?")
_HEBREW_RE = re.compile(r"[֐-׿]")
# Strip everything that is not a Unicode alphanumeric ([\W_] = non-word or
# underscore; \w minus underscore == str.isalnum for practical purposes) —
# a C-level replacement for a per-char isalnum scan.
_NON_ALNUM_RE = re.compile(r"[\W_]+", re.UNICODE)


def normalize_for_comparison(text: str) -> str:
    """Keep only Unicode alphanumerics, lowercased.

    Filters formatting/punctuation/whitespace so comparisons are content-only
    (reference: content_normalizer.py:14-28). Works for Hebrew/Arabic/CJK.
    """
    if not text:
        return ""
    return _NON_ALNUM_RE.sub("", text).lower()


def _disambiguate_separators(num: str) -> str:
    """Resolve US (1,234.56) vs European (1.234,56) separator conventions.

    Decision rules mirrored from reference: content_normalizer.py:65-107 —
    when both separators appear the last one is the decimal point; a single
    comma followed by <=2 digits is a European decimal; multiple periods are
    thousands separators with the last kept as decimal iff <=2 trailing digits.
    """
    periods = num.count(".")
    commas = num.count(",")
    if commas and periods:
        if num.rfind(",") > num.rfind("."):
            num = num.replace(".", "").replace(",", ".")
        else:
            num = num.replace(",", "")
    elif commas:
        after = num[num.rfind(",") + 1 :]
        if commas == 1 and len(after) <= 2 and after.isdigit():
            num = num.replace(",", ".")
        else:
            num = num.replace(",", "")
    elif periods > 1:
        parts = num.split(".")
        if len(parts[-1]) <= 2:
            num = "".join(parts[:-1]) + "." + parts[-1]
        else:
            num = num.replace(".", "")
    return num


def extract_numbers(text: str) -> list[str]:
    """Extract all numbers from text as normalized canonical strings.

    ``"1,234,567" -> "1234567"``, ``"1.234.567,89" -> "1234567.89"``,
    ``"15%" -> "15"``, ``"₪5,000" -> "5000"``, ``"-1,234" -> "-1234"``
    (reference: content_normalizer.py:30-121).
    """
    return list(iter_numbers(text))


def iter_numbers(text: str):
    """Lazily yield the numbers of :func:`extract_numbers`, so a caller that
    only asks whether there is one stops at the first."""
    if not text:
        return
    for match in _NUMBER_RE.finditer(_CURRENCY_RE.sub("", text)):
        num = _disambiguate_separators(match.group().rstrip("%")).replace(" ", "")
        try:
            float(num)
        except ValueError:
            continue
        yield num


def _bidi_class(ch: str) -> str:
    """Bidirectional character class, restricted to the classes that occur in
    the engine's inputs (Hebrew + Latin + digits + punctuation). Hebrew is
    checked first — ``str.isalpha`` is true for it too."""
    o = ord(ch)
    if 0x0590 <= o <= 0x05FF or 0xFB1D <= o <= 0xFB4F:
        return "R"
    if ch.isalpha():
        return "L"
    if ch.isdigit():
        return "EN"
    if ch in "+-":
        return "ES"
    if ch in "#$%₪€£¥₹":
        return "ET"
    if ch in ",.:/":
        return "CS"
    if ch.isspace():
        return "WS"
    return "ON"


def bidi_display(text: str) -> str:
    """Logical → visual reordering per the Unicode BiDi algorithm (UAX #9),
    restricted to the L/R/EN/ES/ET/CS/WS/ON classes above (no explicit
    embedding codes, no Arabic classes). Matches ``bidi.get_display`` — the
    call the reference makes per extracted cell
    (reference: src/services/extraction_service.py:49-57) — on this class
    subset: W4/W5/W7 number shaping, N1/N2 neutral resolution, I1/I2
    implicit levels, L1 trailing-whitespace reset, L2 run reversal.
    """
    if not text:
        return text
    types = [_bidi_class(ch) for ch in text]
    n = len(types)
    # P2/P3: paragraph level from the first strong character.
    base = next((1 if t == "R" else 0 for t in types if t in ("L", "R")), 0)
    sor = "R" if base else "L"

    # W4: a single ES/CS between two ENs becomes EN.
    for i in range(1, n - 1):
        if types[i] in ("ES", "CS") and types[i - 1] == "EN" and types[i + 1] == "EN":
            types[i] = "EN"
    # W5: a sequence of ETs adjacent to an EN becomes EN (either side).
    i = 0
    while i < n:
        if types[i] == "ET":
            j = i
            while j < n and types[j] == "ET":
                j += 1
            if (j < n and types[j] == "EN") or (i > 0 and types[i - 1] == "EN"):
                for k in range(i, j):
                    types[k] = "EN"
            i = j
        else:
            i += 1
    # W6: remaining separators/terminators are neutral.
    types = ["ON" if t in ("ES", "ET", "CS") else t for t in types]
    # W7: EN with a preceding strong L (or L sor) becomes L.
    strong = sor
    for i in range(n):
        if types[i] in ("L", "R"):
            strong = types[i]
        elif types[i] == "EN" and strong == "L":
            types[i] = "L"

    # N1/N2: neutrals take the surrounding direction if both sides agree
    # (EN counts as R here), else the embedding direction.
    def _dir(t: str) -> str:
        return "R" if t in ("R", "EN") else "L"

    resolved = list(types)
    i = 0
    while i < n:
        if types[i] in ("WS", "ON"):
            j = i
            while j < n and types[j] in ("WS", "ON"):
                j += 1
            before = _dir(types[i - 1]) if i > 0 else sor
            after = _dir(types[j]) if j < n else sor
            fill = before if before == after else sor
            for k in range(i, j):
                resolved[k] = fill
            i = j
        else:
            i += 1

    # I1/I2: implicit levels from the base level.
    levels = []
    for t in resolved:
        if base == 0:
            levels.append(0 if t == "L" else (1 if t == "R" else 2))
        else:
            levels.append(1 if t == "R" else 2)
    # L1: trailing whitespace resets to the paragraph level.
    for i in range(n - 1, -1, -1):
        if types[i] != "WS":
            break
        levels[i] = base
    # L2: reverse contiguous runs at each level, from the highest level down
    # to the lowest ODD level (no odd level → nothing reverses: "abc 123" at
    # levels 0/2 stays put).
    chars = list(text)
    odd_levels = [lv for lv in levels if lv % 2]
    if not odd_levels:
        return text
    # L4: mirror paired brackets on RTL (odd) levels.
    _MIRROR = {"(": ")", ")": "(", "[": "]", "]": "[", "{": "}", "}": "{",
               "<": ">", ">": "<"}
    for i in range(n):
        if levels[i] % 2 and chars[i] in _MIRROR:
            chars[i] = _MIRROR[chars[i]]
    for level in range(max(levels), min(odd_levels) - 1, -1):
        i = 0
        while i < n:
            if levels[i] >= level:
                j = i
                while j < n and levels[j] >= level:
                    j += 1
                chars[i:j] = chars[i:j][::-1]
                i = j
            else:
                i += 1
    return "".join(chars)


def fix_bidi_text(text: str) -> str:
    """RTL display-order fix for extracted cell text.

    The reference runs the Unicode BiDi algorithm on cells containing
    Hebrew codepoints when the PDF layer stored them in visual order
    (``bidi.get_display``, reference: extraction_service.py:50-57). This
    applies the same reordering via :func:`bidi_display`; digit and Latin
    runs inside RTL text keep their logical order ("1,234.56" stays
    "1,234.56" — a naive full reverse would corrupt every number).
    Pure-LTR text is returned unchanged (fast path).
    """
    if text and _HEBREW_RE.search(text):
        return bidi_display(text)
    return text


def sanitize_filename(filename: str) -> str:
    """Strip path components and control characters from a filename
    (reference: pdf_input_handler.py:130-136)."""
    name = filename.replace("\\", "/").split("/")[-1]
    return "".join(ch for ch in name if ch.isprintable() and ch not in '<>:"|?*')


def safe_filename(title: str, base: str, max_len: int = 50) -> str:
    """Build ``{title}_{base}.md``-style safe section filename: keep
    alnum/space/dash/underscore, spaces→underscores, truncate to ``max_len``
    (reference: default_handler.py:176-182)."""
    safe = "".join(c for c in title if c.isalnum() or c in (" ", "-", "_"))
    safe = safe.strip().replace(" ", "_")[:max_len]
    return f"{safe}_{base}.md" if safe else f"{base}.md"
