"""Driver-contract tests: entry() smoke, queries()/oracle_sql() consistency,
and a fast DuckDB cross-check of representative queries at sf0.001 (the full
gate runs via scripts/check_oracle.py at sf0.01)."""

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


@pytest.fixture(scope="module")
def entrymod(ray_session):
    import importlib
    import sys

    sys.path.insert(0, "/root/repo")
    return importlib.import_module("__ray_entry__")


@pytest.fixture(scope="module")
def oracle_con():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return con


def _canonical(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return (
        df.astype(str).sort_values(list(df.columns)).reset_index(drop=True)
    )


class TestEntry:
    def test_entry_runs_with_stable_schema(self, entrymod):
        ds = entrymod.entry()
        schema = ds.schema()
        assert {"url", "extracted_text", "similarity", "passed"} <= set(schema.names)
        assert ds.count() > 0

    def test_every_oracle_key_has_a_query(self, entrymod):
        qs, sqls = entrymod.queries(), entrymod.oracle_sql()
        assert set(sqls) <= set(qs)
        assert len(qs) >= 15

    @pytest.mark.parametrize(
        "name",
        [
            "problem_flags",
            "token_stats",
            "orders_topk",
            "exact_dedup",
            "bpe_train",
            "bpe_tokenize",
        ],
    )
    def test_query_matches_oracle_sf0001(self, entrymod, oracle_con, name):
        qs, sqls = entrymod.queries(), entrymod.oracle_sql()
        ours = qs[name](SF)
        if not isinstance(ours, pd.DataFrame):
            ours = ours.to_pandas()
        oracle = oracle_con.execute(sqls[name]).df()
        assert sorted(ours.columns) == sorted(oracle.columns)
        a, b = _canonical(ours), _canonical(oracle)
        pd.testing.assert_frame_equal(a, b)

    def test_minhash_expected_clusters(self, entrymod):
        out = entrymod.queries()["minhash_dedup"](SF)
        copies = out[out["doc_id"] >= 100_000]
        assert len(copies) > 0
        # Injected near-duplicates (last word dropped) must be flagged. Note
        # the word-soup corpus also contains genuine cross-document
        # near-dups (45-word vocabulary → heavy shingle overlap), so exact
        # cluster ids are asserted on a controlled corpus in test_ops.py,
        # not here.
        assert copies["is_duplicate"].mean() >= 0.9
        # Each flagged copy clusters with a lower id (deterministic winner).
        dup_copies = copies[copies["is_duplicate"]]
        assert (dup_copies["cluster_id"] < dup_copies["doc_id"]).all()


def test_extract_spans_oracle_numbers_kept_blocks(ray_session, tmp_path):
    """The engine numbers only the blocks it keeps (>= 8 chars), so a
    document whose first half is dropped has its second half at
    ``block_idx`` 0; the oracle must agree."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.queries import ORACLE_SQL, q_extract_spans

    texts = [
        "alpha beta gamma delta epsilon zeta",  # both halves kept
        "hi yo second-half-words kept",  # first half (5 chars) dropped
        "averylongfirstword x",  # second half (1 char) dropped
    ]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": texts}),
        tmp_path / "documents.parquet",
    )
    ours = q_extract_spans(str(tmp_path))
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path / 'documents.parquet'}')"
    )
    oracle = con.execute(ORACLE_SQL["extract_spans"]).df()
    assert sorted(ours.columns) == sorted(oracle.columns)
    pd.testing.assert_frame_equal(_canonical(ours), _canonical(oracle))
    second = ours[ours["doc_id"] == 1]
    assert second["block_idx"].tolist() == [0]
    assert second["content"].tolist() == ["second-half-words kept"]
