"""CLI smoke test through a real subprocess (its own Ray session)."""

import json
import subprocess
import sys
from pathlib import Path


def test_cli_extract_and_metrics(tmp_path, small_pages):
    import pyarrow.parquet as pq

    pages = tmp_path / "pages.parquet"
    pq.write_table(small_pages.slice(0, 60), pages)
    out_dir = tmp_path / "out"

    result = subprocess.run(
        [
            sys.executable, "-m", "pdf_extractor_ray", "extract",
            "--input", str(pages), "--output", str(out_dir), "--num-cpus", "2",
        ],
        capture_output=True, text=True, timeout=240, cwd="/root/repo",
    )
    assert result.returncode == 0, result.stderr[-2000:]
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["docs"] == 60

    metrics = subprocess.run(
        [sys.executable, "-m", "pdf_extractor_ray", "metrics", "--output", str(out_dir)],
        capture_output=True, text=True, timeout=120, cwd="/root/repo",
    )
    assert metrics.returncode == 0
    assert "overall_status" in metrics.stdout

    # A directory with no commit marker has no metrics to report.
    missing = subprocess.run(
        [sys.executable, "-m", "pdf_extractor_ray", "metrics",
         "--output", str(tmp_path / "never_written")],
        capture_output=True, text=True, timeout=120,
        cwd=str(Path(__file__).resolve().parent.parent),
    )
    assert missing.returncode != 0
    assert "overall_status" not in missing.stdout
    assert "no committed partition" in missing.stderr


def test_cli_dedup_drop(tmp_path):
    """dedup subcommand: minhash near-dup removal over a parquet corpus,
    survivors-only output."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pyarrow.dataset as pads

    rows = [
        {"doc_id": 0, "text": "the quick brown fox jumps over the lazy dog again today"},
        {"doc_id": 1, "text": "a completely different document about ray data pipelines"},
        {"doc_id": 2, "text": "the quick brown fox jumps over the lazy dog again today"},
    ]
    src = tmp_path / "docs.parquet"
    pq.write_table(pa.Table.from_pylist(rows), src)
    out = tmp_path / "out"
    result = subprocess.run(
        [
            sys.executable, "-m", "pdf_extractor_ray", "dedup",
            "--input", str(src), "--output", str(out),
            "--method", "minhash", "--threshold", "0.8", "--drop",
            "--num-cpus", "4",
        ],
        capture_output=True, text=True, cwd="/root/repo", timeout=300,
    )
    assert result.returncode == 0, result.stderr[-800:]
    tbl = pads.dataset(str(out)).to_table()
    assert sorted(tbl["doc_id"].to_pylist()) == [0, 1]


def test_cli_curate_pack(tmp_path):
    """curate subcommand: quality filter + scrub + sequence packing."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pyarrow.dataset as pads

    rows = [
        {"doc_id": i,
         "text": f"document {i} with mail u{i}@example.com and plenty of distinct words "
                 f"alpha beta gamma delta epsilon zeta eta theta"}
        for i in range(6)
    ]
    rows.append({"doc_id": 99, "text": "spam spam spam spam spam spam spam"})
    src = tmp_path / "docs.parquet"
    pq.write_table(pa.Table.from_pylist(rows), src)
    out = tmp_path / "out"
    result = subprocess.run(
        [
            sys.executable, "-m", "pdf_extractor_ray", "curate",
            "--input", str(src), "--output", str(out),
            "--scrub", "--pack", "--seq-len", "32", "--num-cpus", "4",
        ],
        capture_output=True, text=True, cwd="/root/repo", timeout=300,
    )
    assert result.returncode == 0, result.stderr[-800:]
    tbl = pads.dataset(str(out)).to_table()
    # the repetitive spam doc is filtered; remaining docs packed
    assert tbl.num_rows > 0
    assert set(tbl.schema.names) == {"shard", "seq_idx", "token_ids"}


def test_curate_para_dedup_and_domain_cap(tmp_path):
    import random
    import subprocess
    import sys

    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    rnd = random.Random(1)
    words = [f"w{j}" for j in range(200)]
    rows = []
    for i in range(40):
        body = " ".join(rnd.choices(words, k=60))
        rows.append(
            {
                "doc_id": i,
                "host": f"h{i % 4}",
                "text": f"{body}\n\ncookie banner accept all choices",
            }
        )
    src = tmp_path / "docs.parquet"
    pq.write_table(pa.Table.from_pylist(rows), src)
    out = tmp_path / "out"
    result = subprocess.run(
        [
            sys.executable, "-m", "pdf_extractor_ray", "curate",
            "--input", str(src), "--output", str(out),
            "--para-dedup", "2", "--domain-cap", "3", "--domain-col", "host",
            "--num-cpus", "4",
        ],
        capture_output=True, text=True, cwd="/root/repo", timeout=300,
    )
    assert result.returncode == 0, result.stderr[-800:]
    tbl = pads.dataset(str(out)).to_table()
    assert tbl.num_rows == 12  # 4 hosts x cap 3
    assert all("cookie banner" not in t for t in tbl["text"].to_pylist())


def test_stats_quantiles_distinct_topwords(tmp_path):
    import json
    import subprocess
    import sys

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    n = 1000
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "size": pa.array(np.arange(n, dtype=np.int64) * 3),
            "lang": pa.array(["en" if i % 2 else "de" for i in range(n)]),
            "text": pa.array(
                ["alpha beta alpha" if i % 2 else "gamma gamma delta" for i in range(n)]
            ),
        }
    )
    src = tmp_path / "docs.parquet"
    pq.write_table(tbl, src)
    result = subprocess.run(
        [
            sys.executable, "-m", "pdf_extractor_ray", "stats",
            "--input", str(src), "--quantiles", "size", "--q", "0.5,1.0",
            "--distinct", "doc_id", "--top-words", "lang", "--k", "1",
            "--num-cpus", "4",
        ],
        capture_output=True, text=True, cwd="/root/repo", timeout=300,
    )
    assert result.returncode == 0, result.stderr[-800:]
    report = json.loads(result.stdout.strip().splitlines()[-1])
    # rank ceil(0.5*1000)=500 -> value (500-1)*3; max = 999*3
    assert report["quantiles"]["size"] == {"0.5": 499 * 3.0, "1.0": 999 * 3.0}
    assert abs(report["distinct"]["doc_id"] - n) / n < 0.1
    assert report["top_words"]["en"] == [["alpha", 1000]]
    assert report["top_words"]["de"] == [["gamma", 1000]]


def test_written_rows_excludes_preexisting(tmp_path):
    """ADVICE round-3: a reused output directory must report only THIS
    run's rows, not leftovers from a previous run."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.__main__ import _parquet_files, _written_rows

    old = tmp_path / "sub" / "old.parquet"
    old.parent.mkdir()
    pq.write_table(pa.table({"a": [1, 2, 3]}), old)
    pre = _parquet_files(str(tmp_path))
    pq.write_table(pa.table({"a": [1, 2]}), tmp_path / "new.parquet")
    assert _written_rows(str(tmp_path), pre) == 2
    assert _written_rows(str(tmp_path)) == 5


def test_cli_extract_password(tmp_path):
    """--password opens an encrypted-PDF corpus; extraction matches the
    plaintext corpus byte-for-byte (checkpointed sink, validation off)."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from pdf_extractor_ray.functions.pdf_codec import build_pdf

    def pages(encrypt: bool) -> pa.Table:
        rows = []
        for i in range(8):
            text = f"Statement {i}.\nBalance line {i * 3}."
            payload = build_pdf(
                text, encrypt=encrypt, encrypt_user_pw=b"s3cret" if encrypt else b"",
                encrypt_rev=3,
            )
            rows.append(
                {"url": f"pdf://cli/{i}", "warc_ts": 0, "html": payload,
                 "text": "", "lang": "en"}
            )
        return pa.Table.from_pylist(
            rows,
            schema=pa.schema(
                [("url", pa.string()), ("warc_ts", pa.timestamp("us")),
                 ("html", pa.binary()), ("text", pa.string()), ("lang", pa.string())]
            ),
        )

    def run(table: pa.Table, out: str, extra: list[str]) -> None:
        src = tmp_path / f"{out}.parquet"
        pq.write_table(table, src)
        result = subprocess.run(
            [sys.executable, "-m", "pdf_extractor_ray", "extract",
             "--input", str(src), "--output", str(tmp_path / out),
             "--no-validation", "--num-cpus", "2", *extra],
            capture_output=True, text=True, timeout=240, cwd="/root/repo",
        )
        assert result.returncode == 0, result.stderr[-2000:]

    run(pages(encrypt=False), "plain", [])
    run(pages(encrypt=True), "enc", ["--password", "s3cret"])
    read = lambda d: dict(  # noqa: E731
        zip(*(pads.dataset(str(tmp_path / d)).to_table()[c].to_pylist()
              for c in ("url", "extracted_text")))
    )
    golden, got = read("plain"), read("enc")
    assert got == golden and all(golden.values())


def test_cli_bpe_train_and_apply(tmp_path):
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    rows = [
        {"doc_id": 0, "text": "low lower lowest low low"},
        {"doc_id": 1, "text": "new newer newest new"},
        {"doc_id": 2, "text": "the lower the newer the wider"},
    ]
    src = tmp_path / "docs.parquet"
    pq.write_table(pa.Table.from_pylist(rows), src)
    merges_out = tmp_path / "merges.parquet"
    applied = tmp_path / "encoded"
    result = subprocess.run(
        [sys.executable, "-m", "pdf_extractor_ray", "bpe",
         "--input", str(src), "--output", str(merges_out),
         "--merges", "8", "--apply", str(applied), "--num-cpus", "2"],
        capture_output=True, text=True, timeout=240, cwd="/root/repo",
    )
    assert result.returncode == 0, result.stderr[-2000:]
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    merges = pq.read_table(merges_out)
    assert summary["merges"] == len(merges) > 0
    assert set(merges.column_names) == {"rank", "left", "right", "pair_count"}
    enc = pads.dataset(str(applied)).to_table()
    assert summary["rows"] == 3
    assert all(n > 0 for n in enc["n_bpe_tokens"].to_pylist())


def test_cli_extract_password_col(tmp_path):
    """--password-col survives the pruned parquet read (regression: the
    sidecar column used to be dropped by read_pages' fixed column list)."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from pdf_extractor_ray.functions.pdf_codec import build_pdf

    rows = []
    for i in range(6):
        text = f"Doc {i}.\nPer-row secret line {i * 11}."
        rows.append(
            {"url": f"pdf://pwcol/{i}", "warc_ts": 0,
             "html": build_pdf(text, encrypt=True,
                               encrypt_user_pw=f"row-{i}".encode(),
                               encrypt_rev=3),
             "text": "", "lang": "en", "doc_pw": f"row-{i}"}
        )
    src = tmp_path / "prot.parquet"
    pq.write_table(pa.Table.from_pylist(rows), src)
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "pdf_extractor_ray", "extract",
         "--input", str(src), "--output", str(out),
         "--no-validation", "--password-col", "doc_pw", "--num-cpus", "2"],
        capture_output=True, text=True, timeout=240, cwd="/root/repo",
    )
    assert result.returncode == 0, result.stderr[-2000:]
    tbl = pads.dataset(str(out)).to_table()
    texts = dict(zip(tbl["url"].to_pylist(), tbl["extracted_text"].to_pylist()))
    assert len(texts) == 6 and all(texts.values())
    assert all("Per-row secret line" in t for t in texts.values())
    assert "doc_pw" not in tbl.column_names


def test_cli_query(ray_session, tmp_path):
    """`query` subcommand: run a registry query, write parquet, list names."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.__main__ import main

    out = str(tmp_path / "q.parquet")
    rc = main(
        ["query", "dataset_split", "--sf-dir", "/root/testdata/sf0.001",
         "--output", out]
    )
    assert rc == 0
    t = pq.read_table(out)
    assert t.num_rows == 500 and "split" in t.schema.names
    assert main(["query", "list"]) == 0
    assert main(["query", "no_such_query"]) == 2


def test_cli_card(ray_session, capsys):
    """`card` subcommand: one JSON corpus summary with size/lang/dup keys."""
    import json as _json

    from pdf_extractor_ray.__main__ import main

    rc = main(["card", "--input", "/root/testdata/sf0.001/documents.parquet"])
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    card = _json.loads(line)
    assert card["n_docs"] == 500
    assert set(card) >= {
        "chars_total", "chars_quantiles", "languages",
        "gopher_pass_rate", "exact_dup_rate",
    }
    assert sum(card["languages"].values()) == 500
