"""Byte-identity at scale: run the flagship pipeline over the same corpus
under three different block layouts (different task boundaries, different
batch compositions), commit each through the production sink
(``run_with_checkpoints``) into a temporary directory, and compare a content
hash of every committed (url, extracted_text) pair.

Usage: python scripts/determinism_check.py [corpus_dir] [n_pages]
Defaults to the cached bench corpus (/tmp/graft_bench/pages_100000_v6),
generating it if missing.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile


def committed_hash(out_dir: str) -> tuple[str, int]:
    """Hash of the committed (url, extracted_text) pairs, read one partition
    file at a time in partition order; rows within a file are in url
    order, so equal outputs hash equally whatever the block layout."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.checkpoint import completed_partitions

    h = hashlib.sha256()
    rows = 0
    for k in sorted(completed_partitions(out_dir)):
        part = pq.read_table(
            os.path.join(out_dir, f"part={k}", "data.parquet"),
            columns=["url", "extracted_text"],
        )
        for url, text in zip(part["url"].to_pylist(), part["extracted_text"].to_pylist()):
            h.update(url.encode())
            h.update(hashlib.sha1((text or "").encode()).hexdigest().encode())
        rows += len(part)
    return h.hexdigest(), rows


def main() -> int:
    import ray
    import ray.data as rd

    sys.path.insert(0, ".")
    from pdf_extractor_ray.pipelines import extraction_pipeline, run_with_checkpoints

    corpus = sys.argv[1] if len(sys.argv) > 1 else "/tmp/graft_bench/pages_100000_v6"
    n_pages = int(sys.argv[2]) if len(sys.argv) > 2 else 100_000

    ray.init(
        address="local", num_cpus=8, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    if not os.path.exists(corpus):
        from pdf_extractor_ray.sources.pages import synthesize_pages_dataset

        synthesize_pages_dataset(n_pages, seed=42, parallelism=64).write_parquet(corpus)

    layouts = {
        "as-read": rd.read_parquet(corpus),
        "repartition-17": rd.read_parquet(corpus).repartition(17),
        "repartition-333": rd.read_parquet(corpus).repartition(333),
    }
    results = {}
    for name, ds in layouts.items():
        out_dir = tempfile.mkdtemp(prefix=f"determinism-{name}-")
        try:
            run_with_checkpoints(extraction_pipeline(ds), out_dir)
            digest, rows = committed_hash(out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        results[name] = (digest, rows)
        print(f"{name}: {rows} rows, sha256 {digest[:16]}…")
    digests = {d for d, _ in results.values()}
    ray.shutdown()
    if len(digests) == 1:
        print(f"BYTE-IDENTICAL across {len(layouts)} block layouts ✓")
        return 0
    print("MISMATCH between layouts ✗")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
