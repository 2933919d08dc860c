"""Workload corpora and the correctness gate.

Each corpus is ``fixtures.pages_batch(doc_ids, seed)`` over the first
``docs`` doc_ids whose FIXTURES.md bucket (``doc_id % 10``) the workload
keeps. The doc_ids are the same for every seed, so the bucket shares and
special rows (the 1 MB oversized row, the real ``%PDF`` variants) stay
fixed while the seed varies their content. Why each workload exists is
recorded in BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    buckets: tuple[int, ...]
    docs: int         # timed corpus size: one pass is ~3 s on 2 Ray CPUs
    smoke_docs: int   # tiny corpus for the benchmark's own self-test

    def doc_ids(self, n: int) -> list[int]:
        ids, doc_id = [], 0
        while len(ids) < n:
            if doc_id % 10 in self.buckets:
                ids.append(doc_id)
            doc_id += 1
        return ids


WORKLOADS = {
    "crawl_mix": Workload(buckets=tuple(range(10)), docs=750, smoke_docs=30),
    "short_html": Workload(buckets=(0, 1, 2, 3, 4, 5, 6, 9), docs=3000, smoke_docs=30),
    "pdf_heavy": Workload(buckets=(8,), docs=700, smoke_docs=12),
}


def check_output(out_dir: str, golden: dict[str, str]) -> dict:
    """Compare a committed output directory against the golden texts.

    Every golden url must be committed exactly once with ``extracted_text``
    byte-identical to its golden text. ``failed_docs`` counts documents
    missing from the output or carrying a non-null ``extract_error``.
    """
    import pyarrow.parquet as pq

    paths = sorted(glob.glob(os.path.join(out_dir, "part=*", "data.parquet")))
    urls, texts, errors = [], [], []
    for path in paths:
        table = pq.read_table(path, columns=["url", "extracted_text", "extract_error"])
        urls += table["url"].to_pylist()
        texts += table["extracted_text"].to_pylist()
        errors += table["extract_error"].to_pylist()
    seen: set[str] = set()
    mismatched, unexpected = [], []
    for url, text in zip(urls, texts):
        if url in seen or url not in golden:
            unexpected.append(url)
            continue
        seen.add(url)
        want = golden[url].encode("utf-8", "surrogatepass")
        if text is None or text.encode("utf-8", "surrogatepass") != want:
            mismatched.append(url)
    missing = len(golden) - len(seen)
    return {
        "rows": len(urls),
        "mismatched": mismatched,
        "unexpected": unexpected,
        "missing": missing,
        "failed_docs": missing + sum(1 for e in errors if e is not None),
        "ok": not mismatched and not unexpected and missing == 0 and len(urls) == len(golden),
    }
