"""pdf_extractor_ray — a Ray-Data-native main-content extraction engine.

A from-scratch re-expression of the semantics of the reference repo
``avichay-be/pdf-extractor`` (a single-node FastAPI PDF extraction service) as a
streaming ``ray.data.Dataset`` pipeline over Parquet shards of Common-Crawl-style
web pages: ``(url, warc_ts, html, text, lang)``.

Layout
------
- ``config``      engine configuration (thresholds mirrored from reference config.py)
- ``functions/``  pure, deterministic scalar/batch functions (normalize, numbers,
                  similarity, problem detectors, table merge, html/pdf parsing)
- ``stages/``     Ray Data stage callables (route, extract with in-UDF PDF
                  chunk split + merge, validate, metrics)
- ``pipelines/``  pipeline assembly + checkpointed, resumable output
- ``ops/``        corpus-scale operations beyond the reference: dedup (exact,
                  minhash-LSH, simhash, ngram-jaccard, embedding), ANN search,
                  text analysis, multimodal stubs
- ``fixtures``    deterministic synthetic pages-table generator (see FIXTURES.md)

Nothing in this package calls ``ray.init()`` / ``ray.shutdown()`` — sessions are
owned by the driver, ``bench.py`` and the test fixture only.
"""

__version__ = "0.1.0"
