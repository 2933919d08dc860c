"""Process-tree accounting from /proc: CPU, RSS, steal, host capacity.

The Ray session started by ``ray.init`` (GCS, raylet, workers) runs as
descendants of the process that called it, so the whole session's cost is
the sum over that process's tree. Everything here reads /proc directly; the
benchmark imports no third-party process library.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")
PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")


def _read_stat(pid: str) -> tuple | None:
    """(ppid, pgrp, state, starttime, cpu_ticks, rss_pages) or None."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    # comm may contain spaces and parentheses: split after the LAST ')'.
    rest = raw[raw.rindex(b")") + 2:].split()
    return (
        int(rest[1]),
        int(rest[2]),
        rest[0],
        int(rest[19]),
        int(rest[11]) + int(rest[12]),
        int(rest[21]),
    )


def snapshot() -> dict[int, tuple]:
    """pid -> stat tuple for every visible process."""
    out = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _read_stat(name)
            if st is not None:
                out[int(name)] = st
    return out


def descendants(root: int, snap: dict[int, tuple]) -> dict[int, tuple]:
    """``root`` and every process below it in ``snap``."""
    kids: dict[int, list[int]] = {}
    for pid, st in snap.items():
        kids.setdefault(st[0], []).append(pid)
    tree, todo = {}, [root]
    while todo:
        pid = todo.pop()
        if pid in snap and pid not in tree:
            tree[pid] = snap[pid]
            todo.extend(kids.get(pid, ()))
    return tree


class TreeSampler:
    """Samples CPU and summed RSS of a process tree on one thread.

    Processes are keyed by (pid, starttime) so a reused pid never merges
    two processes. CPU of a process that exits between samples is counted
    up to its last sample.
    """

    def __init__(self, root: int, interval_s: float = 0.1):
        self.root = root
        self.interval_s = interval_s
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._base: dict[tuple, int] = {}
        self._last: dict[tuple, int] = {}
        self._peak_rss_pages = 0

    def _sample(self) -> None:
        tree = descendants(self.root, snapshot())
        rss = sum(st[5] for st in tree.values())
        with self._lock:
            for pid, st in tree.items():
                self._last[(pid, st[3])] = st[4]
            self._peak_rss_pages = max(self._peak_rss_pages, rss)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def start(self) -> None:
        tree = descendants(self.root, snapshot())
        self._base = {(pid, st[3]): st[4] for pid, st in tree.items()}
        self._last = dict(self._base)
        self._peak_rss_pages = sum(st[5] for st in tree.values())
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self) -> tuple[float, float]:
        """(cpu seconds of the tree since start, peak summed RSS in MB)."""
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("process-tree sampler did not stop")
        self._sample()
        with self._lock:
            ticks = sum(v - self._base.get(k, 0) for k, v in self._last.items())
            peak = self._peak_rss_pages
        return ticks / CLK_TCK, peak * PAGE_SIZE / 1e6


def cpu_times() -> list[int]:
    """Aggregate ``cpu`` line of /proc/stat (user .. steal, in ticks)."""
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:9]]


def steal_pct(before: list[int], after: list[int]) -> float:
    """Share of all CPU time the hypervisor stole between two readings."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return 100.0 * delta[7] / total if total else 0.0


def wait_gone(keys: set[tuple[int, int]], timeout_s: float) -> set[tuple[int, int]]:
    """Wait until no process in ``keys`` (pid, starttime) is alive; returns
    the ones still alive at the deadline. Zombies count as ended."""
    deadline = time.monotonic() + timeout_s
    while True:
        alive = set()
        for pid, start in keys:
            st = _read_stat(str(pid))
            if st is not None and st[3] == start and st[2] != b"Z":
                alive.add((pid, start))
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)


def reap_tree(keys: set[tuple[int, int]], timeout_s: float = 15.0) -> None:
    """Wait for ``keys`` to end, SIGKILL what outlives ``timeout_s``, and
    wait again; raises if anything survives."""
    alive = wait_gone(keys, timeout_s)
    for pid, _ in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if wait_gone(alive, 10.0):
        raise RuntimeError(f"processes survived SIGKILL: {sorted(alive)}")


def group_members(pgrp: int) -> set[tuple[int, int]]:
    """(pid, starttime) of every live process in process group ``pgrp``."""
    return {
        (pid, st[3])
        for pid, st in snapshot().items()
        if st[1] == pgrp and st[2] != b"Z"
    }


_BURN = (
    "import sys,time\n"
    "t0=float(sys.argv[1]);d=float(sys.argv[2])\n"
    "while time.time()<t0:pass\n"
    "n=0;e=time.perf_counter()+d\n"
    "while time.perf_counter()<e:n+=1\n"
    "print(n/d)\n"
)


def _burn(n_procs: int, seconds: float) -> float:
    """Total loop iterations per second of ``n_procs`` synchronized burners."""
    start = time.time() + 0.2  # lets every interpreter finish starting
    procs = [
        subprocess.Popen(
            [sys.executable, "-I", "-c", _BURN, repr(start), repr(seconds)],
            stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(n_procs)
    ]
    total = 0.0
    for proc in procs:
        out, _ = proc.communicate(timeout=30)
        if proc.returncode != 0:
            raise RuntimeError(f"burn probe exited with {proc.returncode}")
        total += float(out)
    return total


def effective_cores(seconds: float = 0.25) -> tuple[int, float]:
    """(cores in the affinity mask, cores they deliver): the rate of one
    burner per allowed core divided by the rate of a lone burner, taken as
    the better of one run before and one after. A shared host can lose
    capacity without reporting steal; this shows it."""
    n = len(os.sched_getaffinity(0))
    before = _burn(1, seconds)
    parallel = _burn(n, seconds)
    return n, parallel / max(before, _burn(1, seconds))
