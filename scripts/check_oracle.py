"""Local replica of the driver's correctness gate: run every queries()
entry and its oracle_sql() side-by-side over an sf dir, compare row count,
column names, and order-insensitive values.

Usage: python scripts/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import sys

import duckdb
import pandas as pd

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def canonical(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for col in df.columns:
        if df[col].dtype == object:
            df[col] = df[col].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(name: str, ours: pd.DataFrame, oracle: pd.DataFrame) -> list[str]:
    issues = []
    if sorted(ours.columns) != sorted(oracle.columns):
        issues.append(f"columns {sorted(ours.columns)} != {sorted(oracle.columns)}")
        return issues
    if len(ours) != len(oracle):
        issues.append(f"rows {len(ours)} != {len(oracle)}")
    a, b = canonical(ours), canonical(oracle)
    if len(a) == len(b):
        neq = (a.astype(str).values != b.astype(str).values).any(axis=1)
        if neq.any():
            i = int(neq.argmax())
            issues.append(
                f"{int(neq.sum())} differing rows; first at {i}:\n  ours:   {a.iloc[i].to_dict()}\n  oracle: {b.iloc[i].to_dict()}"
            )
    return issues


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    # One result per line, each written out at once: a Ray abort of this
    # process must not drop the results printed before it.
    sys.stdout.reconfigure(line_buffering=True)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=8, include_dashboard=False,
            ignore_reinit_error=True, logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, ".")
    import __ray_entry__ as entrymod

    qs, sqls = entrymod.queries(), entrymod.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        import time

        t0 = time.time()
        try:
            ours = to_pandas(fn(sf_dir))
        except Exception as exc:
            print(f"✗ {name}: query raised {type(exc).__name__}: {exc}")
            failures += 1
            continue
        elapsed = time.time() - t0
        if name not in sqls:
            print(f"○ {name}: rows-only ({len(ours)} rows, {elapsed:.1f}s)")
            continue
        oracle = con.execute(sqls[name]).df()
        issues = compare(name, ours, oracle)
        if issues:
            failures += 1
            print(f"✗ {name} ({elapsed:.1f}s):")
            for issue in issues:
                print(f"    {issue}")
        else:
            print(f"✓ {name}: {len(ours)} rows match ({elapsed:.1f}s)")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
