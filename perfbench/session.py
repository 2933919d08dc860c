"""One run of one workload in fresh Ray sessions (the benchmark's child).

Started by perfbench/run.py as ``python3 -m perfbench.session`` from the
checkout root, in its own process group, so a Ray abort here cannot take
the recorder down. Writes one JSON result to ``--result`` and exits 0; any
exception exits non-zero without a result.

Order of work:

1. Corpus and golden texts from the seed (untimed).
2. SETUPS Ray sessions, one after the other. In each: one ``setup_s``
   sample, ``ray.init`` + one warm-up pass over the corpus's first tenth;
   then timed passes over the whole corpus for ``--seconds / SETUPS``, at
   least one. Every pass goes through the public production path and is
   checked against the golden texts.
3. With ``--trace 1``, in the last session: the fused map stage's
   ``Dataset.stats()`` from one materialization and the sink alone over
   that materialized dataset; then, with the session gone, the traced
   single-threaded replay.
4. The effective-core probe, with no Ray session running.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

from perfbench import procfs
from perfbench.trace import Tracer, ledger, map_stage_stats, replay
from perfbench.workloads import WORKLOADS, check_output

ROOT = os.getcwd()
NUM_CPUS = 2
SETUPS = 3
# Fixed and small: the host's memory is shared, and the corpora are < 30 MB.
OBJECT_STORE_BYTES = 512 * 1024 * 1024
# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store.
_SOCKET_SUFFIX_LEN = len("/session_2026-01-01_00-00-00_000000_4194304/sockets/plasma_store")


def _ray_temp_dir() -> str | None:
    path = os.path.join(ROOT, ".rt")
    if len(path) + _SOCKET_SUFFIX_LEN > 107:
        print(f"perfbench: checkout path too long for Ray sockets under {path}; "
              "using Ray's default temp dir", file=sys.stderr)
        return None
    return path


def start_ray() -> None:
    import ray
    from ray.data import DataContext

    ray.init(
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=_ray_temp_dir(),
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def stop_ray() -> None:
    """Shut the session down and wait until every process it ran has ended."""
    import ray

    me = os.getpid()
    tree = procfs.descendants(me, procfs.snapshot())
    ray.shutdown()
    procfs.reap_tree({(pid, st[3]) for pid, st in tree.items() if pid != me})


def run_pass(corpus: str, out_dir: str) -> None:
    """The production path: read → extraction_pipeline → checkpointed commit."""
    import ray.data as rd

    from pdf_extractor_ray.pipelines import extraction_pipeline, run_with_checkpoints

    run_with_checkpoints(extraction_pipeline(rd.read_parquet(corpus)), out_dir)


def _first_commit(out_dir: str) -> float:
    manifest = os.path.join(out_dir, "_manifest")
    return min(
        os.stat(os.path.join(manifest, name)).st_mtime
        for name in os.listdir(manifest)
        if name.startswith("part=") and name.endswith(".json")
    )


def _gate_failure(where: str, gate: dict) -> dict:
    print(
        f"perfbench: CORRECTNESS GATE FAILED in {where}: rows={gate['rows']} "
        f"missing={gate['missing']} mismatched={gate['mismatched'][:5]} "
        f"unexpected={gate['unexpected'][:5]}",
        file=sys.stderr,
    )
    return {"where": where, **{k: gate[k] for k in ("rows", "missing")},
            "mismatched": gate["mismatched"][:20], "unexpected": gate["unexpected"][:20]}


def _dir_size(path: str) -> tuple[int, int]:
    files = size = 0
    for root, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(root, name))
    return files, size


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    import pyarrow.parquet as pq
    import ray

    from pdf_extractor_ray.fixtures import golden_extract, pages_batch

    workload = WORKLOADS[args.workload]
    work = args.work
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    # 1. Inputs from the seed; the program only ever sees the Parquet file.
    n_docs = workload.smoke_docs if args.smoke else workload.docs
    pages = pages_batch(workload.doc_ids(n_docs), seed=args.seed)
    corpus = os.path.join(work, "pages.parquet")
    pq.write_table(pages, corpus)
    # The warm-up slice is two files, so both Ray CPUs run the map stage and
    # every worker has imported and warmed the stages before timing.
    warm = os.path.join(work, "warm")
    os.makedirs(warm)
    head = max(2, n_docs // 10)
    pq.write_table(pages.slice(0, head // 2), os.path.join(warm, "0.parquet"))
    pq.write_table(pages.slice(head // 2, head - head // 2), os.path.join(warm, "1.parquet"))
    golden = golden_extract(pages)
    failures = []

    # 2+3. SETUPS sessions. Each one's set-up (ray.init + warm-up pass) is
    # one setup_s sample, and each then runs its share of the timed passes,
    # tracing off. Spreading the passes over the whole run keeps a burst of
    # neighbour load on a shared host from hitting all of them.
    sessions = 2 if args.smoke else SETUPS
    sampler = procfs.TreeSampler(os.getpid())
    setup_s, passes = [], []
    steal_ticks = [0] * 8
    for i in range(sessions):
        if i:
            stop_ray()
        t0 = time.perf_counter()
        start_ray()
        if os.environ.get("PERFBENCH_ABORT") == args.workload:
            os.abort()  # self-test hook: dies like a core-worker abort, session up
        run_pass(warm, os.path.join(work, f"warm-{i}"))
        setup_s.append(time.perf_counter() - t0)
        window, first = time.perf_counter(), len(passes)
        while len(passes) == first or time.perf_counter() - window < args.seconds / sessions:
            out_dir = os.path.join(work, f"out-{len(passes)}")
            host_before = procfs.cpu_times()
            sampler.start()
            wall0 = time.time()
            t0 = time.perf_counter()
            run_pass(corpus, out_dir)
            wall_s = time.perf_counter() - t0
            cpu_s, rss_mb = sampler.stop()
            steal_ticks = [a + c - b for a, b, c in zip(steal_ticks, host_before, procfs.cpu_times())]
            gate = check_output(out_dir, golden)
            if not gate["ok"]:
                failures.append(_gate_failure(f"timed pass {len(passes)}", gate))
            passes.append({
                "session": i,
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "peak_rss_mb": rss_mb,
                "first_commit_s": _first_commit(out_dir) - wall0,
                "docs": gate["rows"],
                "failed_docs": gate["failed_docs"],
            })
            shutil.rmtree(out_dir)
    steal = procfs.steal_pct([0] * 8, steal_ticks)

    docs_per_s = statistics.median(n_docs / p["wall_s"] for p in passes)
    metrics = {
        "docs_per_s": docs_per_s,
        "first_commit_s": statistics.median(p["first_commit_s"] for p in passes),
        "cpu_ms_per_doc": statistics.median(1e3 * p["cpu_s"] / n_docs for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup_s),
    }
    per_layer: dict = {}
    slowest: list = []

    # 3. Map-stage stats and the sink alone, in the last session.
    if args.trace:
        import ray.data as rd

        from pdf_extractor_ray.pipelines import extraction_pipeline, run_with_checkpoints

        materialized = extraction_pipeline(rd.read_parquet(corpus)).materialize()
        per_layer.update(map_stage_stats(materialized.stats()))
        sink_dir = os.path.join(work, "sink")
        t0 = time.perf_counter()
        committed = run_with_checkpoints(materialized, sink_dir)
        per_layer["commit.sink_s"] = time.perf_counter() - t0
        files, size = _dir_size(sink_dir)
        per_layer["commit.partitions"] = len(committed)
        per_layer["commit.files"] = files
        per_layer["commit.mb_written"] = size / 1e6
        gate = check_output(sink_dir, golden)
        if not gate["ok"]:
            failures.append(_gate_failure("sink over materialized dataset", gate))
        del materialized
    ray_version = ray.__version__
    stop_ray()
    temp_dir = _ray_temp_dir()
    if temp_dir is not None:  # this run's session logs; a crash keeps them
        for name in os.listdir(temp_dir):
            if name.startswith("session_2") and name.endswith(f"_{os.getpid()}"):
                shutil.rmtree(os.path.join(temp_dir, name), ignore_errors=True)

    # 3. Traced single-threaded replay, with no session running.
    if args.trace:
        # Like the session's warm-up pass: first calls compile patterns and
        # import lazily loaded codecs, which the Ray workers did before the
        # stats run.
        replay(pages.slice(0, max(1, n_docs // 10)), Tracer())
        tracer = Tracer()
        counters, validated = replay(pages, tracer)
        layer_metrics, replay_map_s, slowest = ledger(tracer, counters)
        per_layer.update(layer_metrics)
        per_layer["session.cores_used"] = statistics.median(p["cpu_s"] / p["wall_s"] for p in passes)
        per_layer["session.speedup"] = docs_per_s / (n_docs / replay_map_s)
        per_layer["trace.coverage"] = replay_map_s / per_layer["map_stage.udf_s"]
        replayed = {
            url: text
            for batch in validated
            for url, text in zip(batch["url"].to_pylist(), batch["extracted_text"].to_pylist())
        }
        bad = sorted(u for u in golden if replayed.get(u) != golden[u])
        if bad or len(replayed) != len(golden):
            failures.append({"where": "traced replay", "mismatched": bad[:20]})
            print(f"perfbench: CORRECTNESS GATE FAILED in traced replay: {bad[:5]}", file=sys.stderr)
        spans_dir = os.path.join(os.path.dirname(work), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
        tracer.write(spans_path)

    # 4. Host capacity, measured with the session gone.
    cores, delivered = procfs.effective_cores()

    result = {
        "correct": not failures,
        "attempted": n_docs * len(passes),
        "failed": sum(p["failed_docs"] for p in passes),
        "metrics": metrics,
        "per_layer": per_layer,
        "failures": failures,
        "passes": passes,
        "setup_runs_s": setup_s,
        "slowest_extract_docs": slowest,
        "stamp": {
            "ray_version": ray_version,
            "ray_num_cpus": NUM_CPUS,
            "seed": args.seed,
            "corpus_rows": n_docs,
            "corpus_mb": os.path.getsize(corpus) / 1e6,
            "steal_pct": steal,
            "probe_cores": cores,
            "probe_effective_cores": delivered,
            "python": platform.python_version(),
        },
    }
    if args.trace:
        result["stamp"]["spans_file"] = os.path.relpath(spans_path, ROOT)
    with open(args.result + ".tmp", "w") as fh:
        json.dump(result, fh)
    os.replace(args.result + ".tmp", args.result)
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
