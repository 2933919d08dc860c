"""Checkpoint/resume: a partially-completed run resumes, recomputes only
missing partitions, and the final output is byte-identical to an
uninterrupted run (FIXTURES.md §5)."""

import os
import shutil

import pytest

from pdf_extractor_ray.pipelines.checkpoint import (
    completed_partitions,
    read_metrics,
    read_output,
    run_with_checkpoints,
)
from pdf_extractor_ray.pipelines.extract import extraction_pipeline
from pdf_extractor_ray.stages.metrics import overall_status


@pytest.fixture()
def pages_path(tmp_path, small_pages):
    import pyarrow.parquet as pq

    path = tmp_path / "pages.parquet"
    pq.write_table(small_pages, path)
    return str(path)


def _run(pages_path, out_dir):
    import ray.data as rd

    ds = extraction_pipeline(rd.read_parquet(pages_path))
    return run_with_checkpoints(ds, out_dir)


class TestResume:
    def test_resume_recomputes_only_missing(self, ray_session, pages_path, tmp_path):
        out_a = str(tmp_path / "full")
        out_b = str(tmp_path / "resumed")
        # The returned metrics are exactly what read_metrics reads back.
        assert _run(pages_path, out_a).equals(read_metrics(out_a))

        # Simulate a mid-run kill: complete run, then destroy a subset of
        # committed partitions (marker + data) — the on-disk state of a run
        # that died partway.
        _run(pages_path, out_b)
        all_parts = sorted(completed_partitions(out_b))
        killed = all_parts[::4]
        for k in killed:
            os.remove(os.path.join(out_b, "_manifest", f"part={k}.json"))
            shutil.rmtree(os.path.join(out_b, f"part={k}"))
        survivors = {
            k: os.path.getmtime(os.path.join(out_b, f"part={k}", "data.parquet"))
            for k in all_parts
            if k not in killed
        }

        resumed = _run(pages_path, out_b)
        assert resumed.equals(read_metrics(out_b))

        # (a) only missing partitions recomputed: survivors untouched
        for k, mtime in survivors.items():
            assert (
                os.path.getmtime(os.path.join(out_b, f"part={k}", "data.parquet"))
                == mtime
            ), f"partition {k} was rewritten on resume"
        # (b) final output byte-identical to the uninterrupted run
        a, b = read_output(out_a), read_output(out_b)
        da = dict(zip(a["url"].to_pylist(), a["extracted_text"].to_pylist()))
        db = dict(zip(b["url"].to_pylist(), b["extracted_text"].to_pylist()))
        assert da == db
        # (c) per-partition metrics identical
        ma = read_metrics(out_a).set_index("partition_id")
        mb = read_metrics(out_b).set_index("partition_id")
        assert ma.equals(mb)

    def test_injected_failure_then_resume(self, ray_session, pages_path, tmp_path):
        """A writer failure leaves some partitions committed; the resumed
        run writes only the others and ends where an uninterrupted run
        does."""
        import ray.data as rd

        out_full = str(tmp_path / "full")
        full = _run(pages_path, out_full)
        total = len(completed_partitions(out_full))
        # The last group of its block: the groups before it always commit.
        fail_at = max(completed_partitions(out_full))
        out = str(tmp_path / "failed")
        with pytest.raises(RuntimeError, match=f"injected failure at partition {fail_at}"):
            run_with_checkpoints(
                extraction_pipeline(rd.read_parquet(pages_path)),
                out,
                fail_at_partition=fail_at,
            )
        partial = completed_partitions(out)
        assert 0 < len(partial) < total
        survivors = {
            k: os.path.getmtime(os.path.join(out, f"part={k}", "data.parquet"))
            for k in partial
        }

        metrics = _run(pages_path, out)

        for k, mtime in survivors.items():
            assert (
                os.path.getmtime(os.path.join(out, f"part={k}", "data.parquet"))
                == mtime
            ), f"partition {k} was rewritten on resume"
        assert completed_partitions(out) == completed_partitions(out_full)
        assert read_output(out).equals(read_output(out_full))
        assert metrics.equals(full)
        assert metrics.equals(read_metrics(out))
        assert metrics["docs"].sum() == 200
        assert (metrics["bytes_in"] > 0).all()
        assert metrics["n_problem_docs"].sum() > 0  # degenerate fixture rows
        # Repairs happen on this corpus, and problems_fixed outranks warnings.
        assert overall_status(metrics) == "problems_fixed"
        # An output directory holds the data files and the commit markers,
        # which are the only copy of the metrics; no marker, no metrics rows.
        done = sorted(completed_partitions(out))
        files = sorted(
            os.path.relpath(os.path.join(d, f), out)
            for d, _, names in os.walk(out)
            for f in names
        )
        assert files == sorted(
            [f"part={k}/data.parquet" for k in done]
            + [f"_manifest/part={k}.json" for k in done]
        )
        empty = read_metrics(str(tmp_path / "never_written"))
        assert empty.empty and list(empty.columns) == list(metrics.columns)


def _validated_block(start: int, n_rows: int):
    """Rows shaped like the validate stage's output, as the sink reads it."""
    import pyarrow as pa

    ids = range(start, start + n_rows)
    return pa.table(
        {
            "url": [f"https://example.com/{i}" for i in ids],
            "partition_id": pa.array([i % 7 for i in ids], pa.int32()),
            "payload_bytes": pa.array([100 + i for i in ids], pa.int64()),
            "extracted_text": [f"text {i}" for i in ids],
            "has_problem": [False] * n_rows,
            "similarity": pa.array([None] * n_rows, pa.float64()),
            "passed": [True] * n_rows,
            "source": ["extracted"] * n_rows,
            "n_pages_validated": pa.array([0] * n_rows, pa.int32()),
        }
    )


class TestSinkConcurrency:
    def test_map_stage_runs_concurrently_through_sink(self, ray_session, tmp_path):
        """The map stage upstream of the grouped sink gets every CPU: one
        task per CPU must be running at once (a rendezvous), which fails
        when the writer behind the Sort barrier keeps a CPU reserved."""
        import time

        import ray
        import ray.data as rd
        from ray.data import DataContext

        n = int(ray.cluster_resources()["CPU"])
        rows_per_block = 5
        blocks = [_validated_block(i * rows_per_block, rows_per_block) for i in range(n)]
        meet_dir = tmp_path / "rendezvous"
        meet_dir.mkdir()

        def rendezvous(batch, meet_dir=str(meet_dir), n=n):
            first = batch["url"][0].as_py().rsplit("/", 1)[1]
            open(os.path.join(meet_dir, f"arrived-{first}"), "w").close()
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                arrived = [f for f in os.listdir(meet_dir) if f.startswith("arrived-")]
                if len(arrived) >= n:
                    open(os.path.join(meet_dir, f"met-{first}"), "w").close()
                    break
                time.sleep(0.05)
            return batch

        ds = rd.from_arrow(blocks).map_batches(
            rendezvous, batch_size=None, batch_format="pyarrow"
        )
        metrics = run_with_checkpoints(ds, str(tmp_path / "out"))

        met = [f for f in os.listdir(meet_dir) if f.startswith("met-")]
        assert len(met) == n, f"only {len(met)}/{n} map tasks ran concurrently"
        assert metrics["docs"].sum() == n * rows_per_block
        out = read_output(str(tmp_path / "out"))
        assert sorted(out["url"].to_pylist()) == sorted(
            u for b in blocks for u in b["url"].to_pylist()
        )
        assert DataContext.get_current().op_resource_reservation_enabled
