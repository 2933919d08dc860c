"""Production-path benchmark of pdf_extractor_ray on a fixed 2-CPU Ray session.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload crawl_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

The workloads are those of perfbench/workloads.py: ``crawl_mix`` and
``short_html``, which BENCHMARK.json lists, and ``pdf_heavy``, which it
leaves out to keep the contract's runs within their time limit; ``all``
runs the three.

Each workload runs in a child process (perfbench/session.py) in its own
process group. The child's result, or a failure record when it crashed
twice or produced no result, is appended to ``.perfbench/results.jsonl``
as soon as it completes; what is printed is then built from the appended
records, so one workload's crash cannot lose another's result.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric of
BENCHMARK.json with ``--trace 0``, every per-layer metric with
``--trace 1``). Exit status is 0 only for a run that completed and passed
the correctness gate. ``--workload all`` first prints a table of every
workload's metrics, with units, and ``failed_frac``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import procfs  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench")
RESULTS = os.path.join(WORK, "results.jsonl")
# The caller allows 180 s per invocation; leave room to record and print.
DEADLINE_S = 170.0
# A retry only starts when this much of the deadline is left: a run at
# --seconds 20 takes 45-60 s on a 4-core host, the longer under neighbour load.
RETRY_MIN_S = 90.0


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_digest() -> str:
    """sha256 over the package's source files: identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "pdf_extractor_ray")
    for root, dirs, files in os.walk(pkg):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_child(args, workload: str, attempt: int, deadline: float) -> tuple[dict | None, str]:
    """One child run; returns (result or None, reason it failed)."""
    tag = f"{args.invocation}-{workload}-{attempt}"
    result_path = os.path.join(WORK, f"result-{tag}.json")
    log_path = os.path.join(WORK, f"child-{tag}.log")
    work = os.path.join(WORK, f"work-{tag}")
    cmd = [
        sys.executable, "-m", "perfbench.session",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", work, "--result", result_path,
    ]
    if args.smoke:
        cmd.append("--smoke")
    # Ray workers import the package by module path: put the checkout first.
    pythonpath = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, RAY_USAGE_STATS_ENABLED="0", PYTHONPATH=pythonpath)
    with open(log_path, "wb") as log_fh:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=log_fh, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            reason = f"exit code {rc}"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            rc, reason = None, "timed out"
        # Whatever of the child's session outlived it (a crash can orphan
        # Ray's processes) is stopped here, and waited for.
        procfs.reap_tree(procfs.group_members(proc.pid), timeout_s=5.0)
    with open(log_path, "rb") as fh:
        tail = fh.read()
    sys.stderr.write(tail.decode("utf-8", "replace"))
    os.remove(log_path)
    shutil.rmtree(work, ignore_errors=True)  # a crashed child leaves its corpus
    if rc == 0 and os.path.exists(result_path):
        with open(result_path) as fh:
            result = json.load(fh)
        os.remove(result_path)
        return result, ""
    return None, f"{reason}; log tail: {tail[-1500:].decode('utf-8', 'replace')}"


def run_workload(args, workload: str) -> dict:
    """Run one workload with one retry after a crash; returns its record."""
    deadline = time.monotonic() + DEADLINE_S
    crashes = []
    result = None
    for attempt in (1, 2):
        if attempt == 2 and deadline - time.monotonic() < RETRY_MIN_S:
            break
        result, reason = run_child(args, workload, attempt, deadline)
        if result is not None:
            break
        log(f"{workload}: attempt {attempt} produced no result ({reason.splitlines()[0]})")
        crashes.append(reason)
    record = {
        "invocation": args.invocation,
        "time_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "attempts": len(crashes) + (result is not None),
        "crashes": crashes,
    }
    if result is None:
        record["status"] = "crashed"
    else:
        record["status"] = "ok" if result["correct"] else "incorrect"
        record.update(result)
    return record


def append_record(record: dict) -> None:
    with open(RESULTS, "a") as fh:
        fh.write(json.dumps(record) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def read_records(invocation: str) -> list[dict]:
    with open(RESULTS) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if r["invocation"] == invocation]


def summary_line(record: dict, specs: list[dict], per_layer: bool) -> dict:
    """The contract line for one workload, from its appended record."""
    if record["status"] == "crashed":
        wl = WORKLOADS[record["workload"]]
        docs = wl.smoke_docs if record.get("smoke") else wl.docs
        return {"correct": False, "attempted": docs, "failed": docs, "metrics": {}}
    values = record["per_layer"] if per_layer else record["metrics"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }


def print_table(records: list[dict], spec: dict, per_layer: bool) -> None:
    specs = list(spec["end_to_end"]) + [{"name": "failed_frac", "unit": "ratio"}]
    if per_layer:
        specs += spec["per_layer"]
    names = [r["workload"] for r in records]
    print(f"{'metric':34} {'unit':7} " + " ".join(f"{n:>12}" for n in names))
    for s in specs:
        cells = []
        for r in records:
            if r["status"] == "crashed":
                cells.append("crashed")
            elif s["name"] == "failed_frac":
                cells.append(f"{r['failed'] / r['attempted']:.4g}")
            else:
                cells.append(f"{({**r['metrics'], **r['per_layer']})[s['name']]:.4g}")
        print(f"{s['name']:34} {s['unit']:7} " + " ".join(f"{c:>12}" for c in cells))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny corpora, for the self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "pdf_extractor_ray", "__init__.py")):
        log(f"no pdf_extractor_ray package under {ROOT}: run from a checkout of the repository")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    known = list(WORKLOADS)
    if args.workload != "all" and args.workload not in known:
        log(f"unknown workload {args.workload!r}; expected one of {known} or 'all'")
        return 2
    workloads = known if args.workload == "all" else [args.workload]

    os.makedirs(WORK, exist_ok=True)
    args.invocation = uuid.uuid4().hex[:12]
    for workload in workloads:
        record = run_workload(args, workload)
        record["smoke"] = args.smoke
        append_record(record)

    records = read_records(args.invocation)
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload == "all":
        print_table(records, spec, bool(args.trace))
        line = {r["workload"]: summary_line(r, specs, bool(args.trace)) for r in records}
    else:
        line = summary_line(records[0], specs, bool(args.trace))
    print(json.dumps(line))
    return 0 if all(r["status"] == "ok" for r in records) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
