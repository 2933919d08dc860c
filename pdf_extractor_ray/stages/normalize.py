"""Normalize-and-route stage: payload sniffing, routing, partitioning.

The cheap stateless projection that runs first (SURVEY.md §7.1): sniffs the
payload magic (reference: src/services/pdf_input_handler.py:88-92), assigns
the workflow route (reference: src/workflows/workflow_router.py:15-46),
computes the explicit ``partition_id = stable_hash(url) % P`` used for
lineage metrics and the resumable output layout, and flags the oversized PDF
rows that the extract stage cuts into page ranges.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import EngineConfig
from ..functions.routing import ROUTE_PDF, sniff_payload_route

# PDF payloads above this many bytes are chunked inside the extract UDF
# (reference: src/services/pdf_processor.py:29-68 splits oversized PDFs
# before extraction).
SPLIT_THRESHOLD_BYTES = 256_000


def stable_hash_mod(values: list[str] | np.ndarray, modulus: int) -> np.ndarray:
    """Deterministic url hash → [0, modulus); crc32-based, stable across
    processes/nodes (never Python's salted ``hash``)."""
    return np.fromiter(
        (zlib.crc32(v.encode() if isinstance(v, str) else v) % modulus for v in values),
        dtype=np.int32,
        count=len(values),
    )


def normalize_route(batch: pa.Table, config: EngineConfig | None = None) -> pa.Table:
    """Add ``route``, ``partition_id``, ``payload_bytes``, ``needs_split``.

    Each row's route is :func:`..functions.routing.sniff_payload_route` of
    its first 1024 payload bytes (all the sniffer reads), the same call the
    golden oracle makes, so the route policy lives in one place. Sizes and
    the split flag are Arrow kernels; a null payload has size 0.
    ``needs_split`` marks the only rows the extract stage cuts into page
    ranges: PDF-routed and larger than ``SPLIT_THRESHOLD_BYTES``.
    """
    config = config or EngineConfig()
    payload = batch["html"]
    sizes = pc.fill_null(pc.binary_length(payload), 0)
    route = pa.array(
        [sniff_payload_route(h) for h in pc.binary_slice(payload, 0, 1024).to_pylist()],
        pa.string(),
    )
    partition_id = stable_hash_mod(
        batch["url"].to_pylist(), config.num_partitions
    )
    return (
        batch.append_column("route", route)
        .append_column("payload_bytes", pc.cast(sizes, pa.int64()))
        .append_column("partition_id", pa.array(partition_id, pa.int32()))
        .append_column(
            "needs_split",
            pc.and_(pc.equal(route, ROUTE_PDF), pc.greater(sizes, SPLIT_THRESHOLD_BYTES)),
        )
    )
