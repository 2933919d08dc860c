"""CLI entry point — the engine's analogue of the reference's FastAPI
service + folder batch driver (reference: main.py, scripts/process_folder.py).

    python -m pdf_extractor_ray extract --input pages/*.parquet --output /out \
        [--query "04_Bank_Statements"] [--mode grouped|direct] [--num-cpus N]
    python -m pdf_extractor_ray sections --input ... --output ... [--query q]
    python -m pdf_extractor_ray metrics --output /out

The CLI owns the Ray session (guarded init; the library never calls
ray.init).
"""

from __future__ import annotations

import argparse
import glob
import json
import sys


def _init_ray(num_cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():
        kwargs = dict(
            address="local", include_dashboard=False,
            ignore_reinit_error=True, logging_level="ERROR",
        )
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _parquet_files(output_dir: str) -> set[str]:
    import os

    return set(
        glob.glob(os.path.join(output_dir, "**", "*.parquet"), recursive=True)
    )


def _written_rows(output_dir: str, pre_existing: set[str] = frozenset()) -> int:
    """Row count of a written parquet directory from file METADATA — the
    pipeline must not be re-executed just to print a count (a Ray Dataset
    is lazy; calling .count() after .write_parquet() would run the whole
    job twice).  Files captured in ``pre_existing`` (snapshotted before
    the write) are excluded, so a reused output directory reports only
    THIS run's rows."""
    import pyarrow.parquet as pq

    total = 0
    for f in _parquet_files(output_dir) - set(pre_existing):
        total += pq.ParquetFile(f).metadata.num_rows
    return total


def _read_input(patterns: list[str], extra_columns: list[str] | None = None):
    """``extra_columns`` widens the pruned parquet read beyond the standard
    pages schema (e.g. a per-document password sidecar column)."""
    from .sources.jsonl import read_pages_jsonl
    from .sources.pages import PAGES_COLUMNS, read_pages

    paths: list[str] = []
    for pattern in patterns:
        paths.extend(sorted(glob.glob(pattern)) or [pattern])
    if all(p.endswith((".jsonl", ".json")) for p in paths):
        return read_pages_jsonl(paths)
    columns = PAGES_COLUMNS + [
        c for c in (extra_columns or []) if c and c not in PAGES_COLUMNS
    ]
    return read_pages(paths, columns=columns)


def cmd_extract(args) -> int:
    _init_ray(args.num_cpus)
    from .config import EngineConfig
    from .pipelines.checkpoint import run_direct, run_with_checkpoints
    from .pipelines.extract import extraction_pipeline

    from .config import ALL_PROBLEMS, DEFAULT_PROBLEMS_ENABLED

    if args.problems == "all":
        problems = ALL_PROBLEMS
    elif args.problems:
        problems = tuple(p.strip() for p in args.problems.split(",") if p.strip())
    else:
        problems = DEFAULT_PROBLEMS_ENABLED
    config = EngineConfig(
        validation_enabled=not args.no_validation,
        problems_enabled=problems,
        validation_similarity_method=args.similarity,
        pdf_password=args.password or "",
        pdf_password_col=args.password_col,
    )
    ds = _read_input(args.input, extra_columns=[args.password_col])
    result = extraction_pipeline(ds, config=config, query=args.query)
    if args.mode == "direct":
        run_direct(result, args.output)
        print(json.dumps({"output": args.output, "mode": "direct"}))
    else:
        metrics = run_with_checkpoints(result, args.output)
        print(
            json.dumps(
                {
                    "output": args.output,
                    "mode": "grouped",
                    "partitions": len(metrics),
                    "docs": int(metrics["docs"].sum()),
                    "bytes_in": int(metrics["bytes_in"].sum()),
                    "bytes_out": int(metrics["bytes_out"].sum()),
                    "problem_docs": int(metrics["n_problem_docs"].sum()),
                    "replaced": int(metrics["n_replaced"].sum()),
                }
            )
        )
    return 0


def cmd_sections(args) -> int:
    _init_ray(args.num_cpus)
    from .config import EngineConfig
    from .pipelines.extract import extraction_pipeline
    from .stages.sections import sections_rows

    config = EngineConfig(
        pdf_password=args.password or "", pdf_password_col=args.password_col
    )
    ds = _read_input(args.input, extra_columns=[args.password_col])
    out = sections_rows(
        extraction_pipeline(ds, config=config, query=args.query), query=args.query
    )
    out.write_parquet(args.output)
    print(json.dumps({"output": args.output, "kind": "sections"}))
    return 0


def cmd_dedup(args) -> int:
    _init_ray(args.num_cpus)
    import pyarrow.compute as pc
    import ray.data as rd

    from .ops import dedup as D

    ds = rd.read_parquet(args.input)
    if args.method == "exact":
        out = D.exact_dedup_large(ds, text_col=args.text_col, id_col=args.id_col)
    elif args.method == "minhash":
        out = D.minhash_lsh_dedup(
            ds, text_col=args.text_col, id_col=args.id_col, threshold=args.threshold
        )
    elif args.method == "simhash":
        out = D.simhash_dedup(ds, text_col=args.text_col, id_col=args.id_col)
    elif args.method == "jaccard":
        out = D.ngram_jaccard_dedup(
            ds, text_col=args.text_col, id_col=args.id_col, threshold=args.threshold
        )
    else:  # embedding
        out = D.embedding_dedup(
            ds, vec_col=args.text_col, id_col=args.id_col, threshold=args.threshold
        )
    if args.drop and args.method != "exact":
        out = out.map_batches(
            lambda t: t.filter(pc.invert(t["is_duplicate"])), batch_format="pyarrow"
        )
    pre = _parquet_files(args.output)
    out.write_parquet(args.output)
    print(
        json.dumps(
            {
                "output": args.output,
                "method": args.method,
                "rows": _written_rows(args.output, pre),
            }
        )
    )
    return 0


def cmd_curate(args) -> int:
    """Training-data curation chain: [decontaminate] → [paragraph
    boilerplate dedup] → [per-domain cap] → [scrub] → quality/repetition
    filter → optional sequence packing."""
    _init_ray(args.num_cpus)
    import pyarrow.compute as pc
    import ray.data as rd

    from .ops.text import decontaminate, repetition_batch, scrub_batch

    ds = rd.read_parquet(args.input)
    if args.benchmark:
        import pyarrow.parquet as pq

        bench_texts = []
        for path in args.benchmark:
            bench_texts.extend(
                pq.read_table(path, columns=[args.text_col])[args.text_col].to_pylist()
            )
        ds = decontaminate(ds, bench_texts, n=args.ngram, text_col=args.text_col)
    if args.para_dedup:
        from .ops.text import paragraph_dedup

        ds = paragraph_dedup(
            ds, text_col=args.text_col, id_col=args.id_col,
            min_docs=args.para_dedup,
        )
    if args.domain_cap and args.domain_col:
        from .ops.segments import cap_per_key

        ds = cap_per_key(
            ds, key_col=args.domain_col, k=args.domain_cap,
            order_cols=[args.id_col],
        )
    if args.scrub:
        ds = ds.map_batches(
            lambda b: scrub_batch(b, text_col=args.text_col), batch_format="pyarrow"
        )
    ds = ds.map_batches(
        lambda b: repetition_batch(b, text_col=args.text_col), batch_format="pyarrow"
    ).map_batches(
        lambda b: b.filter(pc.invert(b["repetitive"])).drop_columns(
            ["top_bigram_count", "n_bigrams", "repetitive"]
        ),
        batch_format="pyarrow",
    )
    if args.pack:
        from .ops.pack import pack_tokens_sequences

        ds = pack_tokens_sequences(
            ds, seq_len=args.seq_len, text_col=args.text_col, id_col=args.id_col
        )
    pre = _parquet_files(args.output)
    ds.write_parquet(args.output)
    print(
        json.dumps(
            {
                "output": args.output,
                "rows": _written_rows(args.output, pre),
                "packed": bool(args.pack),
            }
        )
    )
    return 0


def cmd_bpe(args) -> int:
    """Train BPE merges over a corpus (Sennrich-style over the word-TYPE
    frequency table — ops/bpe.py) and write them as parquet; optionally
    re-encode the corpus with the learned merges (--apply)."""
    _init_ray(args.num_cpus)
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from .ops.bpe import bpe_apply, bpe_train

    # Train-only runs need just the text column; the id rides only into
    # the --apply output.
    cols = [args.text_col] + ([args.id_col] if args.apply else [])
    ds = rd.read_parquet(args.input, columns=cols)
    merges = bpe_train(
        ds, num_merges=args.merges, text_col=args.text_col,
        word_cap=args.word_cap, min_count=args.min_count,
    )
    pq.write_table(pa.Table.from_pandas(merges), args.output)
    report = {"output": args.output, "merges": len(merges)}
    if args.apply:
        pre = _parquet_files(args.apply)
        bpe_apply(ds, merges, text_col=args.text_col).write_parquet(args.apply)
        report["applied"] = args.apply
        report["rows"] = _written_rows(args.apply, pre)
    print(json.dumps(report))
    return 0


def cmd_query(args) -> int:
    """Run a registered analytics query from the library's QUERIES
    registry over an sf-style directory of parquet tables, writing the
    result as parquet (or printing a row-count/schema summary)."""
    _init_ray(args.num_cpus)
    import pandas as pd
    import pyarrow as pa

    from .queries import QUERIES

    if args.name == "list" or args.name not in QUERIES:
        names = "\n".join(sorted(QUERIES))
        if args.name == "list":
            print(names)
            return 0
        print(f"unknown query {args.name!r}; available:\n{names}", file=sys.stderr)
        return 2
    res = QUERIES[args.name](args.sf_dir)
    if isinstance(res, pd.DataFrame):
        tbl = pa.Table.from_pandas(res, preserve_index=False)
    elif isinstance(res, pa.Table):
        tbl = res
    else:  # ray Dataset
        import ray

        tbl = pa.concat_tables(list(res.iter_batches(batch_format="pyarrow")))
    if args.output:
        import pyarrow.parquet as pq

        pq.write_table(tbl, args.output)
    print(json.dumps({
        "query": args.name,
        "rows": tbl.num_rows,
        "columns": tbl.schema.names,
        "output": args.output,
    }))
    return 0


def cmd_card(args) -> int:
    """Dataset card: one JSON summary of a document corpus — size, token
    stats, language mix, quality pass rate, exact-dup rate — composed
    from the engine's own operators (each individually oracled)."""
    _init_ray(args.num_cpus)
    import pyarrow.compute as pc
    import ray.data as rd

    from .ops.dedup import exact_dedup_large
    from .ops.quantiles import exact_quantiles
    from .ops.text import gopher_rules_batch, langid_batch

    ds = rd.read_parquet(args.input, columns=[args.id_col, args.text_col])
    n_docs = ds.count()
    card: dict = {"input": args.input, "n_docs": n_docs}
    if n_docs == 0:
        print(json.dumps(card))
        return 0

    def lens(batch):
        import pyarrow as pa

        return pa.Table.from_arrays(
            [pc.utf8_length(pc.fill_null(batch[args.text_col], "")).cast("int64")],
            names=["n_chars"],
        )

    lens_ds = ds.map_batches(lens, batch_format="pyarrow").materialize()
    card["chars_total"] = int(lens_ds.sum("n_chars") or 0)
    card["chars_quantiles"] = dict(
        exact_quantiles(lens_ds, "n_chars", [0.5, 0.9, 0.99])
    )
    lang_rows = (
        ds.map_batches(langid_batch, batch_format="pyarrow")
        .groupby("pred_lang")
        .count()
        .take_all()
    )
    card["languages"] = {r["pred_lang"]: r["count()"] for r in lang_rows}
    passes = (
        ds.map_batches(gopher_rules_batch, batch_format="pyarrow")
        .map_batches(
            lambda t: t.select(["passes"]), batch_format="pyarrow"
        )
        .sum("passes")
    )
    card["gopher_pass_rate"] = round(float(passes or 0) / n_docs, 4)
    survivors = exact_dedup_large(
        ds, text_col=args.text_col, id_col=args.id_col
    ).count()
    card["exact_dup_rate"] = round(1.0 - survivors / n_docs, 4)
    print(json.dumps(card, sort_keys=True))
    return 0


def cmd_stats(args) -> int:
    """Corpus statistics: exact quantiles of a numeric column, HLL
    distinct count of a key column, and/or top-k words per group — the
    shuffle-free analytics layer (ops/quantiles.py, ops/sketch.py,
    ops/text.py::word_topk)."""
    _init_ray(args.num_cpus)
    import numpy as np
    import ray.data as rd

    # Column-pruned read: quantile refinement re-scans the input per
    # pass, so pulling only the requested columns matters.
    cols = sorted(
        (
            {args.quantiles, args.distinct, args.top_words}
            | ({args.text_col} if args.top_words else set())
        )
        - {None}
    )
    ds = rd.read_parquet(args.input, columns=cols or None)
    report: dict = {"input": args.input}
    if args.quantiles:
        from .ops.quantiles import exact_quantiles

        qs = [float(x) for x in args.q.split(",")]
        report["quantiles"] = {
            args.quantiles: dict(exact_quantiles(ds, args.quantiles, qs))
        }
    if args.distinct:
        from .ops.sketch import hll_estimate, hll_sketch

        dense = np.zeros(1 << args.hll_p)
        for r in hll_sketch(ds, args.distinct, args.hll_p).take_all():
            dense[r["register"]] = r["max(rho)"]
        report["distinct"] = {
            args.distinct: round(hll_estimate(dense, args.hll_p))
        }
    if args.top_words:
        from .ops.text import word_topk

        df = word_topk(
            ds, k=args.k, text_col=args.text_col, group_col=args.top_words
        )
        report["top_words"] = {
            g: grp[["word", "cnt"]].values.tolist()
            for g, grp in df.groupby(args.top_words)
        }
    print(json.dumps(report))
    return 0


def cmd_metrics(args) -> int:
    from .pipelines.checkpoint import read_metrics
    from .stages.metrics import overall_status

    metrics = read_metrics(args.output)
    print(metrics.to_string(index=False))
    print(json.dumps({"overall_status": overall_status(metrics)}))
    return 0


def cmd_wet(args) -> int:
    _init_ray(args.num_cpus)
    from .pipelines.crawl import warc_to_wet

    inputs = sorted(
        path for pattern in args.input for path in glob.glob(pattern)
    ) or args.input
    paths = warc_to_wet(inputs, args.output, records_per_blob=args.records_per_blob)
    print(json.dumps({"wet_files": len(paths), "output": args.output}))
    import ray

    ray.shutdown()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pdf_extractor_ray")
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="run the flagship pipeline")
    p_extract.add_argument("--input", nargs="+", required=True,
                           help="parquet or jsonl shards (globs ok)")
    p_extract.add_argument("--output", required=True)
    p_extract.add_argument("--query", default=None,
                           help="workflow routing query (reference semantics)")
    p_extract.add_argument("--mode", choices=["grouped", "direct"], default="grouped")
    p_extract.add_argument("--num-cpus", type=int, default=None)
    p_extract.add_argument("--no-validation", action="store_true")
    p_extract.add_argument(
        "--problems", default=None,
        help='detector enable list: "all" or csv of names '
             "(reference: VALIDATION_PROBLEMS_ENABLED)",
    )
    p_extract.add_argument(
        "--similarity", default="number_frequency",
        choices=["number_frequency", "levenshtein"],
        help="similarity method (reference: VALIDATION_SIMILARITY_METHOD)",
    )
    p_extract.add_argument(
        "--password", default=None,
        help="corpus-wide password for encrypted PDFs (user or owner)",
    )
    p_extract.add_argument(
        "--password-col", default=None,
        help="input column carrying a per-document PDF password",
    )
    p_extract.set_defaults(fn=cmd_extract)

    p_sections = sub.add_parser("sections", help="extract + explode into section rows")
    p_sections.add_argument("--input", nargs="+", required=True)
    p_sections.add_argument("--output", required=True)
    p_sections.add_argument("--query", default=None)
    p_sections.add_argument("--num-cpus", type=int, default=None)
    p_sections.add_argument("--password", default=None,
                            help="corpus-wide password for encrypted PDFs")
    p_sections.add_argument("--password-col", default=None,
                            help="input column carrying a per-document PDF password")
    p_sections.set_defaults(fn=cmd_sections)

    p_dedup = sub.add_parser(
        "dedup",
        help="corpus deduplication (exact / minhash / simhash / jaccard / embedding)",
    )
    p_dedup.add_argument("--input", nargs="+", required=True)
    p_dedup.add_argument("--output", required=True)
    p_dedup.add_argument(
        "--method", default="exact",
        choices=["exact", "minhash", "simhash", "jaccard", "embedding"],
    )
    p_dedup.add_argument("--threshold", type=float, default=0.8)
    p_dedup.add_argument("--text-col", default="text",
                         help="text column (or vector column for embedding)")
    p_dedup.add_argument("--id-col", default="doc_id")
    p_dedup.add_argument("--drop", action="store_true",
                         help="write survivors only (default: annotate)")
    p_dedup.add_argument("--num-cpus", type=int, default=None)
    p_dedup.set_defaults(fn=cmd_dedup)

    p_curate = sub.add_parser(
        "curate",
        help="training-data curation: decontaminate → scrub → quality filter → pack",
    )
    p_curate.add_argument("--input", nargs="+", required=True)
    p_curate.add_argument("--output", required=True)
    p_curate.add_argument("--benchmark", nargs="*", default=None,
                          help="parquet files of held-out texts to decontaminate against")
    p_curate.add_argument("--ngram", type=int, default=8)
    p_curate.add_argument("--scrub", action="store_true", help="redact PII")
    p_curate.add_argument("--para-dedup", type=int, default=0, metavar="MIN_DOCS",
                          help="strip paragraphs occurring in >= MIN_DOCS distinct docs")
    p_curate.add_argument("--domain-cap", type=int, default=0, metavar="K",
                          help="keep at most K docs per --domain-col value")
    p_curate.add_argument("--domain-col", default=None,
                          help="column holding the domain/host key for --domain-cap")
    p_curate.add_argument("--pack", action="store_true",
                          help="emit fixed-length token sequences")
    p_curate.add_argument("--seq-len", type=int, default=128)
    p_curate.add_argument("--text-col", default="text")
    p_curate.add_argument("--id-col", default="doc_id")
    p_curate.add_argument("--num-cpus", type=int, default=None)
    p_curate.set_defaults(fn=cmd_curate)

    p_bpe = sub.add_parser(
        "bpe", help="train BPE subword merges over a corpus (and optionally apply)"
    )
    p_bpe.add_argument("--input", nargs="+", required=True)
    p_bpe.add_argument("--output", required=True, help="merges parquet file")
    p_bpe.add_argument("--merges", type=int, default=1000)
    p_bpe.add_argument("--min-count", type=int, default=2)
    p_bpe.add_argument("--word-cap", type=int, default=1_000_000,
                       help="max word types held by the driver merge loop")
    p_bpe.add_argument("--apply", default=None, metavar="OUT_DIR",
                       help="also re-encode the corpus (adds n_bpe_tokens)")
    p_bpe.add_argument("--text-col", default="text")
    p_bpe.add_argument("--id-col", default="doc_id")
    p_bpe.add_argument("--num-cpus", type=int, default=None)
    p_bpe.set_defaults(fn=cmd_bpe)

    p_stats = sub.add_parser(
        "stats", help="corpus statistics: quantiles / distinct / top words"
    )
    p_stats.add_argument("--input", required=True, help="parquet path/glob")
    p_stats.add_argument("--quantiles", default=None, metavar="COL",
                         help="numeric column for exact quantiles")
    p_stats.add_argument("--q", default="0.25,0.5,0.75,0.9,0.99",
                         help="comma-separated quantile levels")
    p_stats.add_argument("--distinct", default=None, metavar="COL",
                         help="integer key column for HLL distinct count")
    p_stats.add_argument("--hll-p", type=int, default=12)
    p_stats.add_argument("--top-words", default=None, metavar="GROUP_COL",
                         help="emit top-k words per value of this column")
    p_stats.add_argument("--text-col", default="text")
    p_stats.add_argument("--k", type=int, default=10)
    p_stats.add_argument("--num-cpus", type=int, default=None)
    p_stats.set_defaults(fn=cmd_stats)

    p_wet = sub.add_parser(
        "wet", help="WARC archives in, extracted-text WET archives out"
    )
    p_wet.add_argument("--input", nargs="+", required=True,
                       help=".warc.gz files or glob patterns")
    p_wet.add_argument("--output", required=True)
    p_wet.add_argument("--records-per-blob", type=int, default=64)
    p_wet.add_argument("--num-cpus", type=int, default=None)
    p_wet.set_defaults(fn=cmd_wet)

    p_card = sub.add_parser(
        "card", help="dataset card: corpus summary JSON (size/langs/quality/dups)"
    )
    p_card.add_argument("--input", required=True, help="parquet path/glob")
    p_card.add_argument("--text-col", default="text")
    p_card.add_argument("--id-col", default="doc_id")
    p_card.add_argument("--num-cpus", type=int, default=None)
    p_card.set_defaults(fn=cmd_card)

    p_query = sub.add_parser(
        "query", help="run a registered analytics query ('list' to enumerate)"
    )
    p_query.add_argument("name", help="query name from the registry, or 'list'")
    p_query.add_argument("--sf-dir", default="/root/testdata/sf0.001",
                         help="directory of parquet tables (region/.../documents)")
    p_query.add_argument("--output", default=None, help="parquet output path")
    p_query.add_argument("--num-cpus", type=int, default=None)
    p_query.set_defaults(fn=cmd_query)

    p_metrics = sub.add_parser("metrics", help="show a run's partition metrics")
    p_metrics.add_argument("--output", required=True)
    p_metrics.set_defaults(fn=cmd_metrics)

    args = parser.parse_args(argv)
    code = args.fn(args)
    import ray

    if ray.is_initialized():
        ray.shutdown()
    return code


if __name__ == "__main__":
    sys.exit(main())
