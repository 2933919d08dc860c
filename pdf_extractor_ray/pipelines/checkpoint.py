"""Resumable, checkpointed partitioned output: the engine's one sink.

The reference has no resume story (a failed request is retried whole,
reference: scripts/process_folder.py:74-76); at 100 TB a resumable layout is
mandatory (BASELINE.json north_rule: "resumable from checkpoint with
per-partition lineage + metrics"). Layout:

    out_dir/
      part=<k>/data.parquet        # all documents with partition_id == k
      _manifest/part=<k>.json      # commit marker + the partition's metrics
                                   #   row, written LAST

A partition is complete iff its manifest marker exists; the marker is
written atomically (temp file + rename) only after the data is on disk, so
a killed run can never leave a half-written partition that resume treats
as done. The marker is also the only copy of the partition's metrics.
``run_with_checkpoints`` filters already-committed partitions out of the
*input* (cheap: partition_id is derived from url at read time), so a rerun
recomputes only missing partitions and the final output is byte-identical
to an uninterrupted run (tested in tests/test_resume.py).

At cluster scale each partition group is written by whichever node holds its
blocks; the groupby here is the explicit hash exchange on the ONE
partitioning key the engine uses everywhere (partition_id = crc32(url) % P).

The sink runs with Ray Data's per-operator resource reservation off.
With it on, the partition writer keeps one task's CPU reserved for the whole
map phase, although it cannot start before the Sort barrier has all of its
input: on a 2-CPU session the fused map stage then runs one task at a time.
The Sort is a barrier, so the map phase and the commit phase never run
together and a reservation protects no concurrent operator; Ray already lifts
the object-store budget of an operator that feeds a materializing one, so no
memory backpressure on the map stage is lost. Only the consumed dataset's
own ``DataContext`` changes (it is shared with the datasets it was derived
from); the process-global ``DataContext.get_current()`` is never touched.

The groupby is a Sort exchange, so the object store must hold its working
set (the extracted text of every row, payloads already dropped): size the
store for one exchange, as for the engine's joins and dedup exchanges.

Every Ray Data execution sends a request to the session's autoscaling-
requester actor (zero-CPU, detached) when it shuts down. With reservation
on, a session's first execution stalls early and starts that actor while it
runs; with reservation off nothing stalls, so the actor is first created by
the final shutdown call, which does not wait: its process would still be
booting (about half a CPU-second) after ``run_with_checkpoints`` returned,
competing with whatever the caller runs next. ``run_with_checkpoints``
therefore starts the actor before it executes and waits for it before it
returns, so that start-up stays inside the call that caused it.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages.metrics import METRIC_FIELDS, partial_metrics


def _marker_path(out_dir: str, partition_id: int) -> str:
    return os.path.join(out_dir, "_manifest", f"part={partition_id}.json")


def completed_partitions(out_dir: str) -> set[int]:
    """Partitions with a commit marker."""
    manifest_dir = os.path.join(out_dir, "_manifest")
    if not os.path.isdir(manifest_dir):
        return set()
    done = set()
    for name in os.listdir(manifest_dir):
        if name.startswith("part=") and name.endswith(".json"):
            done.add(int(name[len("part="):-len(".json")]))
    return done


def _commit_partition(out_dir: str, partition_id: int, table: pa.Table) -> dict:
    """Write one partition's data, then atomically commit its marker, which
    holds the partition's metrics row."""
    part_dir = os.path.join(out_dir, f"part={partition_id}")
    for d in (part_dir, os.path.join(out_dir, "_manifest")):
        os.makedirs(d, exist_ok=True)

    data_tmp = os.path.join(part_dir, "data.parquet.tmp")
    data_path = os.path.join(part_dir, "data.parquet")
    pq.write_table(table, data_tmp)
    os.replace(data_tmp, data_path)

    metrics = partial_metrics(table).to_pylist()[0]
    # Reference cost model: ~500 tokens/page at $0.01/1K tokens per
    # validated page (reference: validation_orchestrator.py:52-53, 432).
    metrics["est_validation_cost_usd"] = round(
        metrics["n_pages_validated"] * 500 * 0.01 / 1000, 4
    )
    marker_path = _marker_path(out_dir, partition_id)
    marker_tmp = marker_path + ".tmp"
    with open(marker_tmp, "w") as fh:
        json.dump(metrics, fh, sort_keys=True)
    os.replace(marker_tmp, marker_path)
    return metrics


def _make_partition_writer(out_dir: str, fail_at_partition: int | None = None):
    """map_groups fn: commits one partition group and returns its metrics
    row (the Dataset result is the metrics table)."""

    def write_partition_group(group: pa.Table) -> pa.Table:
        partition_id = int(group["partition_id"][0].as_py())
        if partition_id == fail_at_partition:
            raise RuntimeError(f"injected failure at partition {partition_id}")
        # Deterministic intra-partition order (url is unique per corpus
        # row), so the committed file is byte-stable across runs.
        order = pc.sort_indices(group["url"])
        metrics = _commit_partition(out_dir, partition_id, group.take(order))
        return pa.Table.from_pylist([metrics])

    return write_partition_group


def run_with_checkpoints(
    ds,
    out_dir: str,
    fail_at_partition: int | None = None,
):
    """Consume a result Dataset into the checkpointed layout, skipping
    already-committed partitions. Returns every committed partition's
    metrics (pandas, as :func:`read_metrics` reads them): the rows the
    writer returns plus the marker rows of partitions committed before.

    ``fail_at_partition`` is a test hook: the writer raises instead of
    committing that partition, to exercise resume from a partial state.

    Per-operator resource reservation is switched off on ``ds.context``
    (never on ``DataContext.get_current()``): otherwise the idle writer
    behind the Sort barrier holds a CPU for the whole map phase and the
    map stage loses a task slot (see the module docstring).
    """
    done = completed_partitions(out_dir)
    if done:
        done_arr = list(done)
        ds = ds.map_batches(
            lambda t: t.filter(
                pc.invert(pc.is_in(t["partition_id"], value_set=pa.array(done_arr, pa.int32())))
            ),
            batch_format="pyarrow",
        )
    ds.context.op_resource_reservation_enabled = False
    writer = _make_partition_writer(out_dir, fail_at_partition)
    requester_ready = _autoscaling_requester_ready()
    result = ds.groupby("partition_id").map_groups(writer, batch_format="pyarrow")
    metrics = [_read_marker(out_dir, k) for k in done]
    for batch in result.iter_batches(batch_size=None, batch_format="pyarrow"):
        metrics.extend(batch.to_pylist())
    # Ray is up by now even when the execution itself started it.
    requester_ready = requester_ready or _autoscaling_requester_ready()
    if requester_ready is not None:
        import ray

        ray.get(requester_ready)
    return _metrics_frame(metrics)


def _autoscaling_requester_ready():
    """Get or start Ray Data's autoscaling-requester actor and return a ref
    that resolves once it is up (see the module docstring); None when Ray
    is not initialized or this Ray version has no such actor."""
    import ray

    try:
        from ray.data._internal.execution.autoscaling_requester import (
            get_or_create_autoscaling_requester_actor,
        )
    except ImportError:
        return None
    if not ray.is_initialized():
        return None
    return get_or_create_autoscaling_requester_actor().__ray_ready__.remote()


def _read_marker(out_dir: str, partition_id: int) -> dict:
    with open(_marker_path(out_dir, partition_id)) as fh:
        return json.load(fh)


def read_metrics(out_dir: str):
    """All committed partitions' metrics as a pandas DataFrame."""
    return _metrics_frame(
        [_read_marker(out_dir, k) for k in completed_partitions(out_dir)]
    )


def _metrics_frame(rows: list[dict]):
    """Metrics rows (dicts, in any key order) as one pandas DataFrame
    sorted by partition_id, with the same columns when there are none."""
    import pandas as pd

    columns = ["partition_id", *METRIC_FIELDS, "est_validation_cost_usd"]
    return (
        pd.DataFrame(rows, columns=columns)
        .sort_values("partition_id")
        .reset_index(drop=True)
    )


def read_output(out_dir: str) -> pa.Table:
    """All committed partitions' data as one Arrow table (test helper)."""
    import glob

    paths = sorted(glob.glob(os.path.join(out_dir, "part=*", "data.parquet")))
    return pa.concat_tables([pq.read_table(p) for p in paths])
