"""Per-page validation and repair of an extracted document.

The reference validates page-by-page: detectors per page, substitution of
problem pages only, sampled similarity checks on clean pages
(reference: src/services/validation/validation_orchestrator.py:156-421 and
the per-page substitution in src/services/mistral_client.py:237-251). This
module applies the same granularity to the engine's combined-markdown
document: the canonical page layout is split back into pages, each page is
validated against the corresponding page of the provided reference text,
and repaired pages are recombined byte-exactly.

Pure and deterministic — shared by the Ray stage
(..stages.validate) and the single-process golden oracle (..fixtures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import re
import zlib

from .assemble import (
    MARKDOWN_SECTION_SEPARATOR,
    combine_pages,
)
from .problems import has_any_problem
from .similarity import calculate_similarity

# Validate every Nth page and flag sampled pages scoring below the
# threshold (reference: src/core/config.py:89-99, VALIDATION_SAMPLE_RATE
# and the similarity threshold).
VALIDATION_SAMPLE_RATE = 5
SIMILARITY_THRESHOLD = 0.95

_PAGE_HEADER_RE = re.compile(r"^# Page (\d+)\n\n", re.S)


def split_pages(markdown: str) -> list[str] | None:
    """Inverse of :func:`..functions.assemble.combine_pages`.

    Returns the page markdowns if the text has the multi-page layout
    (``# Page n`` headers joined by the canonical separator), else None
    (single-page document). Ambiguity caveat: a page whose *content*
    contains the exact separator sequence would over-split — the same
    ambiguity exists in the reference's combined output format
    (reference: src/core/utils.py:112-140).
    """
    if not markdown.startswith("# Page 1\n\n"):
        return None
    parts = markdown.split(MARKDOWN_SECTION_SEPARATOR)
    if len(parts) < 2:
        return None
    pages = []
    for i, part in enumerate(parts):
        match = _PAGE_HEADER_RE.match(part)
        if not match or int(match.group(1)) != i + 1:
            return None
        pages.append(part[match.end():])
    return pages


def should_validate_page(url: str, page_index: int, sample_rate: int) -> bool:
    """The reference's every-Nth-page sampling with its ``random.randint``
    offset replaced by a stable url-hash offset
    (reference: validation_orchestrator.py:156-180; determinism per
    SURVEY.md §7.3)."""
    if sample_rate <= 1:
        return True
    offset = zlib.crc32(url.encode()) % sample_rate
    return (page_index - offset) % sample_rate == 0


def align_pages(extracted: str, provided: str) -> tuple[list[str], list[str]]:
    """The (extracted, provided) page lists the validator walks in step:
    both split by :func:`split_pages`, or each whole document when either
    is single-page or their page counts differ."""
    ex_pages = split_pages(extracted)
    pv_pages = split_pages(provided) if provided else None
    if ex_pages is None or pv_pages is None or len(ex_pages) != len(pv_pages):
        return [extracted], ([provided] if provided else [""])
    return ex_pages, pv_pages


@dataclass
class DocValidation:
    """Validation outcome for one document."""

    text: str
    problems: list[str] = field(default_factory=list)
    has_problem: bool = False
    similarity: float | None = None  # min over sampled clean pages
    passed: bool = True
    source: str = "extracted"        # 'provided' iff any page was replaced
    n_pages_validated: int = 0
    n_pages_replaced: int = 0


def validate_document(
    extracted: str,
    provided: str,
    url: str,
    enabled_problems,
    sample_rate: int = VALIDATION_SAMPLE_RATE,
    similarity_method: str = "number_frequency",
) -> DocValidation:
    """Validate and repair one document at page granularity.

    Per page: detectors → problem pages are replaced by the corresponding
    provided page (similarity 0.0, failed); clean sampled pages get a
    similarity score vs a non-empty provided page, below-threshold pages
    are KEPT but flagged (reference keeps originals on low similarity).
    Page counts that cannot be aligned fall back to whole-document
    granularity.
    """
    extracted = extracted or ""
    provided = provided or ""
    ex_pages, pv_pages = align_pages(extracted, provided)

    out_pages: list[str] = []
    problems_union: list[str] = []
    min_similarity: float | None = None
    passed = True
    n_validated = 0
    n_replaced = 0

    for idx, (page, alt) in enumerate(zip(ex_pages, pv_pages)):
        page_has_problem, detected = has_any_problem(page, enabled_problems)
        for name in detected:
            if name not in problems_union:
                problems_union.append(name)
        if page_has_problem and alt:
            out_pages.append(alt)
            n_replaced += 1
            min_similarity = 0.0
            passed = False
            continue
        if should_validate_page(url, idx, sample_rate) and alt:
            score = calculate_similarity(page, alt, similarity_method)
            n_validated += 1
            if min_similarity is None or score < min_similarity:
                min_similarity = score
            if score < SIMILARITY_THRESHOLD:
                passed = False  # warn, keep original
        out_pages.append(page)

    if len(ex_pages) == 1:
        text = out_pages[0]
    else:
        text = combine_pages(out_pages)
    return DocValidation(
        text=text,
        problems=problems_union,
        has_problem=bool(problems_union) or n_replaced > 0,
        similarity=min_similarity,
        passed=passed,
        source="provided" if n_replaced else "extracted",
        n_pages_validated=n_validated,
        n_pages_replaced=n_replaced,
    )
