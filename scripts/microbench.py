"""Operator-level microbenchmarks: per-document cost of each hot kernel
(single-threaded — multiply by effective cores for pipeline throughput).

Usage: python scripts/microbench.py [n_docs]
Prints one JSON line per operator: {op, ms_per_doc, docs_per_sec_1core}.
The ``detectors_*_pages`` rows are per page: they time the detectors on the
pages ``validate_document`` hands them (``extract_batch`` output, split by
``split_pages``), one row each for ASCII pages (the ``bytes.translate``
path) and non-ASCII pages (the regex path), so each maps onto the
benchmark ledger's ``validate.detectors.self_s``.
Each row is the fastest of its timed passes, after one untimed warm-up call
that keeps first-call costs (lazy imports, caches) out of the row.
"""

from __future__ import annotations

import json
import sys
import time

sys.path.insert(0, ".")


def best_pass_s(run, warm_up, repeat: int) -> float:
    """Minimum ``time.perf_counter`` seconds of ``repeat`` calls of ``run``
    after one untimed ``warm_up()`` call."""
    warm_up()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def bench(name: str, fn, items, repeat: int = 1) -> None:
    def one_pass():
        for item in items:
            fn(item)

    report(name, best_pass_s(one_pass, lambda: fn(items[0]), repeat) / len(items))


def report(name: str, s_per_doc: float) -> None:
    per_doc = s_per_doc * 1000
    print(
        json.dumps(
            {
                "op": name,
                "ms_per_doc": round(per_doc, 3),
                "docs_per_sec_1core": round(1000 / per_doc, 1) if per_doc else None,
            }
        )
    )


def validator_pages(pages) -> list[str]:
    """Every page the validator runs the detectors on: ``extract_batch``
    output, aligned with the provided text's pages by ``align_pages``."""
    from pdf_extractor_ray.functions.validate import align_pages
    from pdf_extractor_ray.stages.extract import extract_batch
    from pdf_extractor_ray.stages.normalize import normalize_route

    batch = extract_batch(normalize_route(pages))
    out: list[str] = []
    for extracted, provided in zip(
        batch["extracted_text"].to_pylist(), batch["text"].to_pylist()
    ):
        out.extend(align_pages(extracted or "", provided or "")[0])
    return out


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 300

    from pdf_extractor_ray.fixtures import generate_pages
    from pdf_extractor_ray.functions.html_extract import extract_html, tokenize_blocks
    from pdf_extractor_ray.functions.pdf_extract import extract_pdf
    from pdf_extractor_ray.functions.problems import detect_all_problems
    from pdf_extractor_ray.functions.similarity import (
        similarity_levenshtein,
        similarity_number_frequency,
    )
    from pdf_extractor_ray.config import DEFAULT_PROBLEMS_ENABLED, ALL_PROBLEMS
    from pdf_extractor_ray.ops.dedup import minhash_signature, _perm_params, simhash64
    from pdf_extractor_ray.ops.embed import HashedNgramEmbedder

    pages = generate_pages(n, seed=123)
    htmls = [
        pages["html"][i].as_py().decode()
        for i in range(len(pages))
        if pages["html"][i].as_py()[:4] != b"%PDF"
    ]
    pdfs = [
        pages["html"][i].as_py()
        for i in range(len(pages))
        if pages["html"][i].as_py()[:4] == b"%PDF"
    ]
    texts = [pages["text"][i].as_py() for i in range(len(pages))]
    short_texts = [t[:2000] for t in texts]

    bench("tokenize_html_fast", tokenize_blocks, htmls)
    bench("extract_html_full", lambda h: extract_html(h), htmls)
    bench("extract_pdf_layout", lambda p: extract_pdf(p), pdfs)
    seen = validator_pages(pages)
    for script, group in (
        ("ascii", [p for p in seen if p.isascii()]),
        ("nonascii", [p for p in seen if not p.isascii()]),
    ):
        for label, enabled in (("default7", DEFAULT_PROBLEMS_ENABLED), ("all14", ALL_PROBLEMS)):
            bench(
                f"detectors_{label}_{script}_pages",
                lambda t, enabled=enabled: detect_all_problems(t, enabled),
                group,
                repeat=3,
            )
    bench(
        "similarity_number_freq",
        lambda t: similarity_number_frequency(t, t[:-5]),
        short_texts,
    )
    bench(
        "similarity_levenshtein_2k",
        lambda t: similarity_levenshtein(t, t[:-5]),
        short_texts[:50],
    )
    a, b = _perm_params(128)
    bench("minhash_128perm", lambda t: minhash_signature(t, 128, a, b), short_texts)
    from pdf_extractor_ray.ops.dedup import minhash_signatures_batch

    dt = best_pass_s(
        lambda: minhash_signatures_batch(short_texts, 128, a, b),
        lambda: minhash_signatures_batch(short_texts[:1], 128, a, b),
        repeat=1,
    )
    report("minhash_128perm_batched", dt / len(short_texts))
    bench("simhash64", lambda t: simhash64(t), short_texts)
    embedder = HashedNgramEmbedder(dim=64)
    bench("embed_hashed_ngram", lambda t: embedder.embed_one(t), short_texts)

    # round-2 kernels: real-PDF codec, table layout, media codecs, scrub
    from pdf_extractor_ray.functions.pdf_codec import build_pdf, build_table_pdf
    from pdf_extractor_ray.functions.pdf_extract import extract_pdf_pages_tables
    from pdf_extractor_ray.ops.text import scrub_pii, word_ngram_hashes
    from pdf_extractor_ray.ops.multimodal import decode_png, encode_png
    import numpy as np

    real_pdfs = [build_pdf(t[:2000], compress=i % 2 == 1, style=("tm", "td", "tstar")[i % 3])
                 for i, t in enumerate(texts[:100])]
    bench("extract_real_pdf", lambda p: extract_pdf(p), real_pdfs)
    table_pdfs = [
        build_table_pdf(
            ["Description", "Amount", "Balance"],
            [[f"row {j}", f"{j}.00", f"{1000 + j}.00"] for j in range(30)],
        )
        for _ in range(50)
    ]
    bench("extract_pdf_tables", lambda p: extract_pdf_pages_tables(p), table_pdfs)
    rng = np.random.Generator(np.random.Philox(3))
    pngs = [encode_png(rng.integers(0, 256, size=(64, 64), dtype=np.uint8), 0, 2) for _ in range(30)]
    bench("decode_png_64x64", lambda p: decode_png(p), pngs)
    bench("scrub_pii", lambda t: scrub_pii(t), short_texts)
    bench("word_8gram_hashes", lambda t: word_ngram_hashes(t, 8), short_texts)

    # round-3 kernels: JPEG/GIF/FLAC/ADPCM codecs, URL canon, window hashes
    from pdf_extractor_ray.ops.adpcm import decode_ima_wav, encode_ima_wav
    from pdf_extractor_ray.ops.flac import decode_flac, encode_flac
    from pdf_extractor_ray.ops.jpeg import decode_jpeg, encode_jpeg_gray
    from pdf_extractor_ray.ops.substr import window_hashes
    from pdf_extractor_ray.ops.urls import canonicalize_url

    jpegs = [
        encode_jpeg_gray(rng.integers(0, 256, size=(64, 64), dtype=np.uint8), quant_value=8)
        for _ in range(20)
    ]
    bench("decode_jpeg_64x64", lambda p: decode_jpeg(p), jpegs)
    sig = ((np.arange(4096) * 13) % 2048 - 1024).astype(np.int16)
    flacs = [encode_flac(sig, blocksize=256) for _ in range(20)]
    bench("decode_flac_4096", lambda p: decode_flac(p), flacs)
    adpcms = [
        encode_ima_wav(
            np.arange(8) * 10, np.arange(8) % 89,
            rng.integers(0, 16, (8, 128)),
        )
        for _ in range(20)
    ]
    bench("decode_ima_adpcm_1032", lambda p: decode_ima_wav(p), adpcms)
    enc_pdfs = [
        build_pdf(t[:2000], compress=i % 2 == 1, encrypt=True,
                  encrypt_rev=2 if i % 2 == 0 else 3)
        for i, t in enumerate(texts[:50])
    ]
    bench("extract_encrypted_pdf", lambda p: extract_pdf(p), enc_pdfs)
    urls = [
        f"HTTP://WWW.Site{i}.Example.COM:80/a/b/../c/?utm_source=x&q={i}#f"
        for i in range(2000)
    ]
    bench("canonicalize_url", lambda u: canonicalize_url(u), urls)
    bench("substr_window_hashes_2kB", lambda t: window_hashes(t, 50), short_texts)

    # ANN vector decode: zero-copy flatten/reshape vs to_pylist (round 4)
    import numpy as np
    import pyarrow as pa

    from pdf_extractor_ray.ops.ann import _decode_vectors

    rng = np.random.default_rng(9)
    vecs = rng.normal(size=(2048, 64))
    vtbl = pa.table(
        {
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(vecs.ravel()), 64
            )
        }
    )
    bench(
        "ann_decode_zerocopy_2048x64",
        lambda t: _decode_vectors(t, "embedding"),
        [vtbl],
        repeat=20,
    )
    bench(
        "ann_decode_topylist_2048x64",
        lambda t: np.array(t["embedding"].to_pylist(), dtype=np.float64),
        [vtbl],
        repeat=20,
    )

    # round-5: broadcast-regime PageRank contrib kernel — the vectorized
    # dictionary-encode gather vs the retired per-edge dict loop, on one
    # 200k-edge/10k-host batch (the web-graph broadcast regime's hot path).
    import pyarrow.compute as pc

    rng = np.random.default_rng(5)
    nh, ne = 10_000, 200_000
    hosts = np.array([f"h{i:05d}.example.com" for i in range(nh)])
    ebatch = pa.table(
        {
            "src": pa.array(hosts[rng.integers(0, nh, ne)]),
            "dst": pa.array(hosts[rng.integers(0, nh, ne)]),
            "w": pa.array(rng.integers(1, 50, ne).astype(np.int64)),
        }
    )
    rk = rng.integers(1, 10**9, nh).astype(np.int64)
    od = rng.integers(1, 10**4, nh).astype(np.int64)
    dp = 85

    def pr_contrib_vec(t: pa.Table):
        w = t["w"].to_numpy(zero_copy_only=False)
        senc = pc.dictionary_encode(t["src"].combine_chunks())
        pos = np.searchsorted(
            hosts, senc.dictionary.to_numpy(zero_copy_only=False).astype(str)
        )
        idx = senc.indices.to_numpy(zero_copy_only=False)
        contrib = (dp * rk[pos][idx] * w) // (100 * od[pos][idx])
        denc = pc.dictionary_encode(t["dst"].combine_chunks())
        sums = np.zeros(len(denc.dictionary), np.int64)
        np.add.at(sums, denc.indices.to_numpy(zero_copy_only=False), contrib)
        return sums

    def pr_contrib_dictloop(t: pa.Table):
        rkd = dict(zip(hosts.tolist(), rk.tolist()))
        odd = dict(zip(hosts.tolist(), od.tolist()))
        acc: dict = {}
        for si, di, wi in zip(
            t["src"].to_pylist(), t["dst"].to_pylist(), t["w"].to_pylist()
        ):
            acc[di] = acc.get(di, 0) + (dp * rkd[si] * wi) // (100 * odd[si])
        return acc

    bench("pagerank_contrib_vec_200k_edges", pr_contrib_vec, [ebatch], repeat=5)
    bench("pagerank_contrib_dictloop_200k_edges", pr_contrib_dictloop, [ebatch])


if __name__ == "__main__":
    main()
