"""Engine configuration.

Mirrors the settable part of the reference's pydantic-settings config
(reference: src/core/config.py:36-113) as a plain frozen dataclass that is
cheap to pickle into UDF closures (no globals, no env reads inside workers).
The reference's fixed thresholds, which no caller changes, are module
constants beside their only readers: ``MAX_PAGES_PER_CHUNK``
(functions/pdf_extract.py), ``SPLIT_THRESHOLD_BYTES`` (stages/normalize.py),
``VALIDATION_SAMPLE_RATE`` and ``SIMILARITY_THRESHOLD``
(functions/validate.py), ``MIN_BLOCK_TEXT_LEN`` and ``MAX_LINK_DENSITY``
(functions/html_extract.py).
"""

from __future__ import annotations

from dataclasses import dataclass


# Default-enabled problem detectors (reference: src/core/config.py:100-113 —
# seven of the fourteen registered detectors are enabled by default).
DEFAULT_PROBLEMS_ENABLED: tuple[str, ...] = (
    "empty_tables",
    "low_content_density",
    "missing_numbers",
    "inconsistent_columns",
    "repeated_characters",
    "garbled_text",
    "header_only_tables",
)

ALL_PROBLEMS: tuple[str, ...] = DEFAULT_PROBLEMS_ENABLED + (
    "very_short_pages",
    "missing_keywords",
    "malformed_structure",
    "duplicate_content",
    "repetitive_numbers",
    "unknown_characters",
    "markdown_images",
)


@dataclass(frozen=True)
class EngineConfig:
    # --- validation (reference: src/core/config.py:89-113); the CLI sets these
    validation_similarity_method: str = "number_frequency"  # | "levenshtein"
    problems_enabled: tuple[str, ...] = DEFAULT_PROBLEMS_ENABLED
    validation_enabled: bool = True

    # --- encrypted-PDF credentials (standard security handler; user or
    # owner password — functions/pdf_codec.py Algorithms 4/5/7 + R6).
    # ``pdf_password`` applies corpus-wide; ``pdf_password_col`` names a
    # sidecar string column carrying a per-document password (the shape a
    # real protected corpus arrives in). The column is consumed by the
    # extract stage and never flows downstream.
    pdf_password: str = ""
    pdf_password_col: str | None = None

    # --- partitioning / output
    num_partitions: int = 64               # partition_id = stable_hash(url) % num_partitions

    # --- Ray stage sizing (single-node defaults; scale with cluster)
    html_batch_size: int = 512             # ~8 MB/batch at the 16 KB/page corpus mix
