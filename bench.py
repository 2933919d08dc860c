"""Benchmark driver: headline extraction pipeline + representative queries.

Prints ONE JSON line:
``{"metric": ..., "value": sec, "unit": "sec", "queries": {...}, "sf": ...,
"num_cpus": N, ...}``

Env: ``GRAFT_SF_DIR`` (default /root/testdata/sf0.1), ``RAY_GRAFT_CPUS``
(default 32). ``--scaling`` runs the headline pipeline at 8 and 32 CPUs in
fresh processes on the same input and reports throughput + scaling
efficiency (the sandbox stand-in for N-node vs 4N-node clusters).

The synthetic pages corpus (FIXTURES.md mix, |documents|×20 rows) is
generated ONCE per scale as a distributed Ray Data job and cached in /tmp;
timed runs read the cached parquet so the measurement is
read → extract → validate → write, not fixture generation. A warm-up read
primes the page cache before timing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def steal_ticks() -> int:
    """Hypervisor steal time (USER_HZ ticks, all cpus) — this sandbox runs
    on a shared host and bursts of neighbor load show up as 2-5× query-time
    swings; reporting steal alongside each run makes the numbers
    interpretable (a high-steal run measures the host, not the engine)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except Exception:  # noqa: BLE001 — non-Linux fallback
        return 0


def steal_pct(dticks: int, elapsed: float) -> float:
    hz = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
    cpus = os.cpu_count() or 1
    return round(100.0 * (dticks / hz) / (elapsed * cpus), 1) if elapsed else 0.0


def ensure_corpus(sf_dir: str, n_pages: int, num_cpus: int) -> str:
    # v6: bucket-38 real PDFs switch to a composite Type0/Identity-H font
    # (2-byte CID codes, round 3)
    # v5: buckets 18/78 real PDFs use /Differences and /ToUnicode custom
    # font encodings (round 3)
    # v4: bucket-38 real PDFs switch to LZWDecode content streams (round 3)
    # v3: bucket-8 fixtures include genuine %PDF payloads across all three
    # xref forms (table / xref-stream / ObjStm) + a real two-column PDF
    corpus_dir = f"/tmp/graft_bench/pages_{n_pages}_v6"
    marker = os.path.join(corpus_dir, "_DONE")
    if os.path.exists(marker):
        return corpus_dir
    shutil.rmtree(corpus_dir, ignore_errors=True)
    log(f"generating bench corpus: {n_pages} pages -> {corpus_dir}")
    from pdf_extractor_ray.sources.pages import synthesize_pages_dataset

    ds = synthesize_pages_dataset(n_pages, seed=42, parallelism=num_cpus * 4)
    ds.write_parquet(corpus_dir)
    with open(marker, "w") as fh:
        fh.write("ok")
    return corpus_dir


def run_headline(corpus_dir: str, out_dir: str, num_cpus: int = 32,
                 stats_path: str | None = None):
    import ray.data as rd

    from pdf_extractor_ray.pipelines.extract import extraction_pipeline

    shutil.rmtree(out_dir, ignore_errors=True)
    # ~16 blocks per CPU: enough waves that per-block extract-time skew
    # (1-2x across the fixture mix) amortizes instead of stalling the tail.
    # Round 5 re-measure at 32 CPUs: ×8 ran the fused map stage as 4 waves
    # of 32 tasks with a 1.7-3.0 s task spread → ~13 s wall; ×16 → ~11.5 s,
    # which sits AT the host-capacity floor (307 s remote-wall / ~26
    # effective cores); ×32 regresses (per-task overhead + file count).
    ds = rd.read_parquet(corpus_dir, override_num_blocks=num_cpus * 16)
    result = extraction_pipeline(ds)
    result.write_parquet(out_dir)
    if stats_path:
        with open(stats_path, "w") as fh:
            fh.write(result.stats())


def corpus_stats(corpus_dir: str) -> tuple[int, int]:
    import pyarrow.dataset as pads

    dataset = pads.dataset(corpus_dir, format="parquet")
    n = dataset.count_rows()
    nbytes = sum(
        os.path.getsize(os.path.join(root, f))
        for root, _, files in os.walk(corpus_dir)
        for f in files
        if f.endswith(".parquet")
    )
    return n, nbytes


def main() -> None:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf = sf_dir.rstrip("/").rsplit("sf", 1)[-1]

    if "--scaling" in sys.argv:
        # CPU ladder in fresh processes on the same input — the sandbox
        # stand-in for N-node vs 4N-node clusters. Default ladder 2→8→32
        # (host capacity permitting — check per-leg steal before reading
        # the 8→32 rung on a noisy host); GRAFT_SCALE_LADDER="2,8" gives a
        # two-leg ladder, any comma-separated list of CPU counts works.
        ladder = [
            int(x) for x in os.environ.get("GRAFT_SCALE_LADDER", "2,8,32").split(",")
        ]
        results = {}
        for ncpu in ladder:
            env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_HEADLINE_ONLY="1")
            out = subprocess.run(
                [sys.executable, os.path.join(os.path.dirname(__file__), "bench.py")],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            results[ncpu] = json.loads(out.strip().splitlines()[-1])
        report: dict = {
            "metric": "scaling_" + "_".join(str(n) for n in ladder) + "_cpus",
            "sf": sf,
        }
        for ncpu in ladder:
            report[f"sec_{ncpu}"] = round(results[ncpu]["value"], 2)
            report[f"docs_per_sec_{ncpu}"] = results[ncpu]["docs_per_sec"]
            report[f"steal_pct_{ncpu}"] = results[ncpu].get(
                "headline_steal_pct", 0.0
            )
        for lo, hi in zip(ladder, ladder[1:]):
            t_lo, t_hi = results[lo]["value"], results[hi]["value"]
            report[f"efficiency_{lo}_to_{hi}"] = round(
                (t_lo / t_hi) / (hi / lo), 3
            )
        # round-4-compatible headline number: the first rung's efficiency
        report["scaling_efficiency"] = report[
            f"efficiency_{ladder[0]}_to_{ladder[1]}"
        ]
        print(json.dumps(report))
        return

    import ray

    ray.init(
        address="local", num_cpus=num_cpus, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import duckdb

    n_docs = duckdb.sql(
        f"select count(*) from read_parquet('{sf_dir}/documents.parquet')"
    ).fetchone()[0]
    n_pages = int(n_docs) * 20

    corpus_dir = ensure_corpus(sf_dir, n_pages, num_cpus)
    rows, in_bytes = corpus_stats(corpus_dir)

    # Warm the page cache so we time compute, not first-touch disk reads.
    import ray.data as rd

    rd.read_parquet(corpus_dir).count()

    log(f"headline: {rows} pages, {in_bytes/1e6:.0f} MB parquet, num_cpus={num_cpus}")
    s0 = steal_ticks()
    t0 = time.time()
    run_headline(corpus_dir, "/tmp/graft_bench/out", num_cpus,
                 stats_path=os.environ.get("GRAFT_STATS_PATH"))
    headline_sec = time.time() - t0
    headline_steal = steal_pct(steal_ticks() - s0, headline_sec)
    headline_retry = None
    if headline_steal > float(os.environ.get("GRAFT_STEAL_RETRY_PCT", "5")):
        s0 = steal_ticks()
        t0 = time.time()
        run_headline(corpus_dir, "/tmp/graft_bench/out", num_cpus)
        sec2 = time.time() - t0
        headline_retry = {
            "sec": round(sec2, 3),
            "steal_pct": steal_pct(steal_ticks() - s0, sec2),
        }

    # Representative queries over the sf dir (driver-style).
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from pdf_extractor_ray.queries import QUERIES

    query_times: dict[str, float] = {}
    query_names = () if os.environ.get("GRAFT_HEADLINE_ONLY") else (
        "tpch_q1", "events_hourly", "extract_html", "exact_dedup",
        "ann_topk", "token_stats", "minhash_dedup", "order_priority_revenue",
        "user_sessions", "paragraph_dedup", "media_features",
        "quantiles", "distinct_sketch", "substring_dup", "canonical_urls",
        "ngram_jaccard_dedup", "simhash", "bpe_pair_counts", "inverted_index",
        "group_quantiles", "funnel", "distinct_users", "mixture",
        "warc_roundtrip", "ngram_topk", "latest_snapshot", "cdx_index",
        "bm25_search", "kmeans_clusters", "dhash_dedup", "shard_plan",
        "curate_corpus", "pmi_bigrams", "snapshot_delta", "triangles",
        "http_stats", "cross_decontaminate", "quality_tiers", "semdedup",
        "sorted_neighborhood", "rendezvous", "zorder", "soft404",
        "proximity_search", "revisit_savings", "hard_negatives",
        "edit_join", "out_of_order", "substring_census", "lz_census",
        "association_rules", "scene_cuts", "spectral_probes",
        "burstiness", "outlier_census", "benford", "vocab_overlap",
        "hapax_stats", "cusum_alerts", "heavy_hitters", "source_rollup",
        "dup_size_histogram", "wild_pages", "mp3_features", "pagerank",
        "frequent_pairs", "wild_pdfs", "charset_world", "publish_dates",
        "vp8_census", "wild_mixed", "extract_spans", "http_codings",
        "warc_salvage",
    )
    query_steal: dict[str, float] = {}
    query_retry: dict[str, dict] = {}
    retry_threshold = float(os.environ.get("GRAFT_STEAL_RETRY_PCT", "5"))

    def timed_query(name: str) -> tuple[float, float]:
        s0 = steal_ticks()
        t0 = time.time()
        res = QUERIES[name](sf_dir)
        if hasattr(res, "to_pandas") and not hasattr(res, "columns"):
            res.to_pandas()
        sec = round(time.time() - t0, 3)
        return sec, steal_pct(steal_ticks() - s0, sec)

    for name in query_names:
        query_times[name], query_steal[name] = timed_query(name)
        if query_steal[name] > retry_threshold:
            # Steal-contaminated measurement (round-4 postmortem: every
            # apparent regression coincided with a steal spike): re-run
            # once and record BOTH, so the quiet number is on file even
            # when the host is noisy during the first pass.
            sec2, steal2 = timed_query(name)
            query_retry[name] = {"sec": sec2, "steal_pct": steal2}

    # Dedup-variant comparison at REAL payload size (the ~KB html column of
    # the bench corpus, string url ids): exact_dedup_large shuffles only
    # (hash, id); the grouped variant pushes every payload through the
    # groupby exchange — the gap is the point (VERDICT r1 item 6).
    if query_names:
        from pdf_extractor_ray.ops.dedup import exact_dedup, exact_dedup_large

        for label, fn in (
            ("dedup_pages_large", exact_dedup_large),
            ("dedup_pages_textshuffle", exact_dedup),
        ):
            pages_ds = rd.read_parquet(corpus_dir, columns=["url", "html"])
            t0 = time.time()
            n = fn(pages_ds, text_col="html", id_col="url").count()
            query_times[label] = round(time.time() - t0, 3)
            log(f"{label}: {n} survivors in {query_times[label]}s")

    ray.shutdown()

    print(
        json.dumps(
            {
                "metric": "flagship_extract_pipeline",
                "value": round(headline_sec, 3),
                "unit": "sec",
                "queries": query_times,
                "sf": sf,
                "num_cpus": num_cpus,
                "pages": rows,
                "docs_per_sec": round(rows / headline_sec, 1),
                "input_mb_per_sec": round(in_bytes / 1e6 / headline_sec, 1),
                "headline_steal_pct": headline_steal,
                "headline_retry": headline_retry,
                "query_steal_pct": query_steal,
                "query_retry": query_retry,
            }
        )
    )


if __name__ == "__main__":
    main()
