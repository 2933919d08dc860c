"""Self-test of the benchmark itself, on tiny corpora (about 2 minutes).

    python3 perfbench/selftest.py

Checks, in order:

1. The correctness gate trips on a planted one-byte mismatch and on a
   missing row, and passes the unplanted output.
2. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
3. ``--workload all --smoke --trace 0`` with one workload made to abort
   after ``ray.init``: the aborted workload is recorded as crashed (after
   its retry) and the other two still print every end-to-end metric of
   BENCHMARK.json, with its unit.
4. ``--workload all --smoke --trace 1``: every workload prints every
   per-layer metric of BENCHMARK.json and leaves its span file.
5. A single-workload run prints exactly the contract's four keys.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.workloads import WORKLOADS, check_output  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench", f"selftest-{os.getpid()}")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")
    print(f"ok  {msg}", flush=True)


def bench(args: list[str], cwd: str = ROOT, env: dict | None = None) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env={**os.environ, **(env or {})},
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout


def check_line(line: dict, workload: str, specs: list[dict]) -> None:
    check(set(line) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result has exactly correct/attempted/failed/metrics")
    check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
          f"{workload}: correct, no failed docs")
    check(list(line["metrics"]) == [s["name"] for s in specs],
          f"{workload}: metric names match BENCHMARK.json ({len(specs)})")
    check(all(line["metrics"][s["name"]]["unit"] == s["unit"]
              and isinstance(line["metrics"][s["name"]]["value"], (int, float))
              for s in specs),
          f"{workload}: every metric has a numeric value and its unit")


def gate_trips() -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.fixtures import golden_extract, pages_batch

    golden = golden_extract(pages_batch(list(range(6)), seed=3))
    urls = sorted(golden)

    def commit(texts: dict[str, str]) -> str:
        out = os.path.join(WORK, "gate")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(os.path.join(out, "part=0"))
        table = pa.table({
            "url": list(texts),
            "extracted_text": list(texts.values()),
            "extract_error": pa.nulls(len(texts), pa.string()),
        })
        pq.write_table(table, os.path.join(out, "part=0", "data.parquet"))
        return out

    check(check_output(commit(dict(golden)), golden)["ok"], "gate passes the golden output")
    planted = dict(golden)
    raw = bytearray(planted[urls[2]].encode())
    raw[len(raw) // 2] ^= 0x01  # one bit of one ASCII byte: still valid UTF-8
    planted[urls[2]] = raw.decode()
    gate = check_output(commit(planted), golden)
    check(not gate["ok"] and gate["mismatched"] == [urls[2]], "gate trips on a one-byte mismatch")
    dropped = {u: t for u, t in golden.items() if u != urls[0]}
    gate = check_output(commit(dropped), golden)
    check(not gate["ok"] and gate["missing"] == 1 and gate["failed_docs"] == 1,
          "gate trips on a missing row and counts it as a failed doc")


def bare_dir_fails() -> None:
    bare = os.path.join(WORK, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, out = bench(["--workload", "crawl_mix", "--seed", "1", "--seconds", "1"], cwd=bare)
    check(rc != 0 and not out.strip(), "without the package: non-zero exit, no result printed")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    names = list(WORKLOADS)  # BENCHMARK.json's workloads and pdf_heavy
    try:
        gate_trips()
        bare_dir_fails()

        aborted = names[-1]
        rc, out = bench(["--workload", "all", "--smoke", "--seed", "5", "--seconds", "1",
                         "--trace", "0"], env={"PERFBENCH_ABORT": aborted})
        lines = json.loads(out.strip().splitlines()[-1])
        check(rc == 1 and set(lines) == set(names), "all-workload run exits 1 with every workload")
        check(lines[aborted]["correct"] is False and not lines[aborted]["metrics"],
              f"{aborted}: abort recorded as a failed run")
        with open(os.path.join(ROOT, ".perfbench", "results.jsonl")) as fh:
            last = [json.loads(line) for line in fh][-len(names):]
        crashed = [r for r in last if r["workload"] == aborted][0]
        check(crashed["status"] == "crashed" and crashed["attempts"] == 2,
              f"{aborted}: crashed record appended after one retry")
        for name in names[:-1]:
            check_line(lines[name], name, SPEC["end_to_end"])

        rc, out = bench(["--workload", "all", "--smoke", "--seed", "6", "--seconds", "1",
                         "--trace", "1"])
        lines = json.loads(out.strip().splitlines()[-1])
        check(rc == 0, "traced all-workload run exits 0")
        with open(os.path.join(ROOT, ".perfbench", "results.jsonl")) as fh:
            last = [json.loads(line) for line in fh][-len(names):]
        for name in names:
            check_line(lines[name], name, SPEC["per_layer"])
            record = [r for r in last if r["workload"] == name][0]
            check(os.path.getsize(os.path.join(ROOT, record["stamp"]["spans_file"])) > 0,
                  f"{name}: span file written")

        single = SPEC["workloads"][-1]["name"]
        rc, out = bench(["--workload", single, "--smoke", "--seed", "7", "--seconds", "1",
                         "--trace", "0"])
        check(rc == 0, "single-workload run exits 0")
        check_line(json.loads(out.strip().splitlines()[-1]), single, SPEC["end_to_end"])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
