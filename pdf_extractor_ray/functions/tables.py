"""Table structures, markdown round-trip, and cross-page table merging.

Semantics mirrored from the reference's Azure-DI table pipeline:
- merge rules (same headers / headerless continuation / numerical balance
  continuity) from reference: src/services/azure_di/table_merger.py:102-206
- numerical continuity from reference: src/services/azure_di/table_validator.py:19-147
- markdown rendering (page-range caption, pad/trim to max column count) from
  reference: src/services/azure_di/table_merger.py:38-92
- markdown table scanning from reference: scripts/classify_debit_credit.py:261-310

All functions are pure; the pipeline calls them inside per-document UDFs
(both sides of the merge are small and co-located in one row/group).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import re

from .normalize import fix_bidi_text

_ROW_NUMBER_RE = re.compile(r"-?\d+(?:,\d{3})*(?:\.\d+)?")
# A separator line: pipes delimiting cells made only of dashes/colons/space,
# at least one dash. (The reference's single-cell regex
# `^\s*\|[\s\-:]+\|\s*$`, scripts/classify_debit_credit.py:286, misses
# multi-column separators; we implement the evident intent.)
_SEPARATOR_LINE_RE = re.compile(r"^\s*\|(?:[\s:]*-[\s\-:]*\|)+\s*$")

BALANCE_TOLERANCE = 0.01  # reference: src/core/config.py AZURE_DI_BALANCE_TOLERANCE


@dataclass
class PageTable:
    """A table as extracted from one page: header row + data rows."""

    headers: list[str]
    data_rows: list[list[str]]
    page: int
    has_headers: bool = True

    def to_markdown(self, bidi_cells: bool = False) -> str:
        """Inline pipe-table rendering, no caption: header + separator +
        rows padded or trimmed to the header width when the table has
        headers, bare pipe rows otherwise. The one renderer of HTML article
        tables and of the table-aware PDF reader.

        ``bidi_cells`` applies the RTL display-order fix per cell — the
        text_extraction workflow's behavior (reference:
        src/services/extraction_service.py:50-57 runs fix_bidi_text on every
        pdfplumber cell)."""
        fix = fix_bidi_text if bidi_cells else (lambda s: s)
        lines: list[str] = []
        if self.has_headers and self.headers:
            width = len(self.headers)
            lines.append("| " + " | ".join(fix(h) for h in self.headers) + " |")
            lines.append("| " + " | ".join(["---"] * width) + " |")
            for row in self.data_rows:
                padded = (row + [""] * (width - len(row)))[:width]
                lines.append("| " + " | ".join(fix(c) for c in padded) + " |")
        else:
            for row in self.data_rows:
                lines.append("| " + " | ".join(fix(c) for c in row) + " |")
        return "\n".join(lines)


@dataclass
class MergedTable:
    """A table merged across one or more pages
    (reference: table_merger.py:17-37)."""

    headers: list[str]
    start_page: int
    end_page: int
    data_rows: list[list[str]] = field(default_factory=list)

    def add_rows(self, rows: list[list[str]], page: int) -> None:
        self.data_rows.extend(rows)
        self.end_page = page

    def to_markdown(self) -> str:
        """Render with page-range caption; pad headers/rows to the max column
        count observed (reference: table_merger.py:38-92)."""
        if not self.headers and not self.data_rows:
            return ""
        max_cols = len(self.headers)
        for row in self.data_rows:
            max_cols = max(max_cols, len(row))
        headers = list(self.headers)
        while len(headers) < max_cols:
            headers.append(f"Col{len(headers) + 1}")
        if self.start_page == self.end_page:
            lines = [f"**Table from Page {self.start_page}**\n"]
        else:
            lines = [f"**Table from Pages {self.start_page}-{self.end_page}**\n"]
        lines.append("| " + " | ".join(headers) + " |")
        lines.append("| " + " | ".join(["---"] * len(headers)) + " |")
        for row in self.data_rows:
            padded = (row + [""] * (max_cols - len(row)))[:max_cols]
            lines.append("| " + " | ".join(padded) + " |")
        return "\n".join(lines)


def headers_match(headers1: list[str], headers2: list[str]) -> bool:
    """Case-insensitive, whitespace-normalized header equality
    (reference: table_merger.py:188-206)."""
    if len(headers1) != len(headers2):
        return False
    return [h.strip().lower() for h in headers1] == [h.strip().lower() for h in headers2]


def _extract_numeric_columns(row: list[str]) -> dict:
    """Numbers per cell with positions; last number is the balance
    (reference: table_validator.py:102-147)."""
    amounts: list[float] = []
    positions: list[tuple[int, float]] = []
    for idx, cell in enumerate(row):
        if not cell:
            continue
        for match in _ROW_NUMBER_RE.findall(str(cell).strip()):
            try:
                value = float(match.replace(",", ""))
            except ValueError:
                continue
            amounts.append(value)
            positions.append((idx, value))
    return {
        "amounts": amounts,
        "positions": positions,
        "balance": amounts[-1] if amounts else None,
        "has_numbers": bool(amounts),
    }


def validate_numerical_continuity(
    previous_row: list[str],
    current_row: list[str],
    tolerance: float = BALANCE_TOLERANCE,
) -> bool:
    """True when two rows look like a continuous running-balance sequence.

    Rules (reference: table_validator.py:19-100): same balance within
    tolerance → continuous; balance change <50% of previous → continuous;
    previous balance zero and |current| < 1e6 → continuous; fallback: ≥50%
    of numeric column positions overlap → continuous.
    """
    prev_nums = _extract_numeric_columns(previous_row)
    curr_nums = _extract_numeric_columns(current_row)
    if not prev_nums["has_numbers"] or not curr_nums["has_numbers"]:
        return False
    prev_balance, curr_balance = prev_nums["balance"], curr_nums["balance"]
    if prev_balance is not None and curr_balance is not None:
        diff = abs(curr_balance - prev_balance)
        if diff <= tolerance:
            return True
        if prev_balance != 0:
            return diff / abs(prev_balance) < 0.5
        if abs(curr_balance) < 1_000_000:
            return True
    prev_positions = {idx for idx, _ in prev_nums["positions"]}
    curr_positions = {idx for idx, _ in curr_nums["positions"]}
    if prev_positions and curr_positions:
        overlap = len(prev_positions & curr_positions)
        total = max(len(prev_positions), len(curr_positions))
        if overlap / total >= 0.5:
            return True
    return False


def merge_tables_across_pages(
    tables: list[PageTable], use_numerical_validation: bool = True
) -> list[MergedTable]:
    """Ordered sequential merge of per-page tables into cross-page tables.

    For each table in page order (reference: table_merger.py:102-186):
    1. no previous → start new
    2. same headers as previous → merge
    3. no headers (continuation) → merge, treating the would-be header row
       as data
    4. numerical balance continuity between previous's last row and current's
       first row → merge despite structure mismatch
    5. otherwise finalize previous, start new.

    The caller must pass tables sorted by (page, intra-page order); inside the
    engine this runs per document after an in-group sort, so no global order
    is required.
    """
    merged: list[MergedTable] = []
    previous: MergedTable | None = None
    for table in sorted(
        enumerate(tables), key=lambda it: (it[1].page, it[0])
    ):
        table = table[1]
        if previous is None:
            previous = MergedTable(table.headers, table.page, table.page)
            previous.add_rows(table.data_rows, table.page)
            continue
        if table.headers and table.has_headers and headers_match(previous.headers, table.headers):
            previous.add_rows(table.data_rows, table.page)
            continue
        if not table.has_headers:
            all_rows = ([table.headers] if table.headers else []) + table.data_rows
            previous.add_rows(all_rows, table.page)
            continue
        if (
            use_numerical_validation
            and previous.data_rows
            and table.data_rows
            and validate_numerical_continuity(previous.data_rows[-1], table.data_rows[0])
        ):
            previous.add_rows(table.data_rows, table.page)
            continue
        merged.append(previous)
        previous = MergedTable(table.headers, table.page, table.page)
        previous.add_rows(table.data_rows, table.page)
    if previous is not None:
        merged.append(previous)
    return merged


def parse_markdown_tables(markdown: str) -> list[dict]:
    """Scan markdown for pipe tables → list of
    ``{number, headers, rows, line_start, line_end}``
    (reference: scripts/classify_debit_credit.py:261-310). Separator lines
    are dropped; rows whose cell count differs from the header are skipped.
    """
    tables: list[dict] = []
    lines = markdown.split("\n")
    current: list[str] = []
    in_table = False
    table_num = 0

    def _flush(end_index: int) -> None:
        nonlocal current, in_table
        if in_table and current:
            table_lines = [l for l in current if not _SEPARATOR_LINE_RE.match(l)]
            if len(table_lines) > 1:
                headers = [c.strip() for c in table_lines[0].split("|")[1:-1]]
                rows = []
                for line in table_lines[1:]:
                    row = [c.strip() for c in line.split("|")[1:-1]]
                    if len(row) == len(headers):
                        rows.append(row)
                tables.append(
                    {
                        "number": table_num,
                        "headers": headers,
                        "rows": rows,
                        "line_start": end_index - len(current),
                        "line_end": end_index,
                    }
                )
        current = []
        in_table = False

    for i, line in enumerate(lines):
        if "|" in line and line.strip():
            if not in_table:
                in_table = True
                table_num += 1
                current = [line]
            else:
                current.append(line)
        else:
            _flush(i)
    _flush(len(lines))
    return tables


def render_table_markdown(headers: list[str], rows: list[list[str]], page: int) -> str:
    """Single-page table → markdown with page caption
    (reference: table_merger.py:236-272)."""
    table = MergedTable(headers, page, page)
    table.add_rows(rows, page)
    return table.to_markdown()
