"""End-to-end pipeline tests: byte-identical extracted text per url versus
the single-process golden oracle (FIXTURES.md §2), at parallelism > 1.
Oversized rows are chunked and merged inside the extract UDF, so the golden
comparison also pins chunked extraction to whole-document extraction."""

import pyarrow as pa
import pytest

from pdf_extractor_ray.config import EngineConfig
from pdf_extractor_ray.pipelines.extract import extraction_pipeline


@pytest.fixture(scope="module")
def pages_ds(ray_session, small_pages):
    import ray.data as rd

    # Many small blocks → rows of one document land in different tasks.
    return rd.from_arrow(small_pages).repartition(16)


def _collect_table(ds) -> pa.Table:
    # iter_batches(batch_format="pyarrow") yields pa.Table chunks.
    return pa.concat_tables(ds.iter_batches(batch_format="pyarrow", batch_size=256))


def _collect(ds) -> dict[str, str]:
    table = _collect_table(ds)
    return dict(
        zip(table["url"].to_pylist(), table["extracted_text"].to_pylist())
    )


class TestFlagshipPipeline:
    def test_byte_identical_to_golden(self, pages_ds, golden_small):
        result = _collect(extraction_pipeline(pages_ds))
        assert set(result) == set(golden_small)
        mismatches = [u for u in golden_small if result[u] != golden_small[u]]
        assert not mismatches, f"{len(mismatches)} mismatching urls, e.g. {mismatches[:3]}"

    def test_schema(self, pages_ds):
        ds = extraction_pipeline(pages_ds)
        schema = ds.schema()
        names = set(schema.names)
        assert {
            "url", "extracted_text", "route", "partition_id", "problems",
            "similarity", "passed", "source", "n_pages", "n_tables",
            "payload_bytes", "has_problem",
        } <= names
        # Raw payload must not survive past extraction.
        assert "html" not in names

    def test_deterministic_across_runs(self, pages_ds, golden_small):
        a = _collect(extraction_pipeline(pages_ds))
        b = _collect(extraction_pipeline(pages_ds.repartition(3)))
        assert a == b

    def test_oversized_rows_chunked(self, pages_ds, small_pages):
        ds = extraction_pipeline(pages_ds)
        table = _collect_table(ds)
        n_chunks = table["n_chunks"].to_pylist()
        assert max(n_chunks) > 1, "fixture corpus should contain chunk-split docs"

        # Every chunked row reports what whole-document extraction reports:
        # text and the page, block and table counts. The extra rows are a
        # page with no kept block, whole and padded past the threshold.
        from pdf_extractor_ray.stages.extract import DocumentExtractor
        from pdf_extractor_ray.stages.normalize import normalize_route

        empty = b"<html><body><nav><a href='x'>home</a></nav><p>tiny</p></body></html>"
        padding = b"<!--" + b"x" * EngineConfig().split_threshold_bytes + b"-->"
        template = small_pages.slice(0, 1).to_pylist()[0]
        extra = pa.Table.from_pylist(
            [
                {**template, "url": "u://empty", "html": empty},
                {**template, "url": "u://empty-padded",
                 "html": empty.replace(b"</body>", padding + b"</body>")},
            ],
            schema=small_pages.schema,
        )
        batch = normalize_route(pa.concat_tables([small_pages, extra]))
        extractor = DocumentExtractor()
        out = extractor(batch)
        columns = ["extracted_text", "n_pages", "n_blocks", "n_tables"]
        split_rows = [i for i, s in enumerate(batch["needs_split"].to_pylist()) if s]
        assert batch["url"][split_rows[-1]].as_py() == "u://empty-padded"
        for i in split_rows:
            whole = extractor._extract_one(
                batch["html"][i].as_py(), batch["route"][i].as_py(), False
            )
            got = tuple(out[c][i].as_py() for c in columns)
            assert got == whole[:4], batch["url"][i].as_py()
        counts = out.select(["n_pages", "n_blocks", "n_chunks"]).slice(len(small_pages))
        assert counts.to_pylist() == [
            {"n_pages": 1, "n_blocks": 0, "n_chunks": 1},
            {"n_pages": 1, "n_blocks": 0, "n_chunks": 1},
        ]

    def test_problem_rows_replaced(self, pages_ds):
        ds = extraction_pipeline(pages_ds)
        table = _collect_table(ds)
        sources = table["source"].to_pylist()
        assert "provided" in sources, "degenerate rows should be repaired"

    def test_extract_error_contained(self, ray_session, small_pages):
        """Broken PDF rows carry a typed ``extract_error`` and no chunks,
        also when the row is big enough to take the ``needs_split`` branch;
        every other row carries none."""
        import ray.data as rd

        broken = b"%PDF-1.4\n1 0 obj broken"
        small_url = "https://broken.example/report.pdf"
        big_url = "https://broken.example/oversized.pdf"
        threshold = EngineConfig().split_threshold_bytes
        big = broken + b"\n%" + b"x" * threshold
        pages = small_pages.select(["url", "html", "text"]).slice(0, 40)
        bad = pa.table(
            {"url": [small_url, big_url], "html": [broken, big], "text": ["", ""]}
        )
        pages = pa.concat_tables([pages, bad.cast(pages.schema)])
        table = _collect_table(extraction_pipeline(rd.from_arrow(pages).repartition(4)))
        sizes = dict(zip(table["url"].to_pylist(), table["payload_bytes"].to_pylist()))
        assert sizes[big_url] > threshold >= sizes[small_url]
        rows = {
            u: (e, c)
            for u, e, c in zip(
                table["url"].to_pylist(),
                table["extract_error"].to_pylist(),
                table["n_chunks"].to_pylist(),
            )
            if e is not None
        }
        assert rows == {
            small_url: ("PdfError: no document catalog", 0),
            big_url: ("PdfError: no document catalog", 0),
        }


class TestTableMergeFlavor:
    def test_bank_statement_query_routes_to_table_merge(self, ray_session, small_pages):
        import ray.data as rd

        ds = rd.from_arrow(small_pages)
        cfg = EngineConfig(validation_enabled=False)
        out = extraction_pipeline(ds, config=cfg, query="02_Trial_Balance")
        table = _collect_table(out)
        texts = dict(zip(table["url"].to_pylist(), table["extracted_text"].to_pylist()))
        urls = small_pages["url"].to_pylist()
        # bucket 6 rows (doc_id % 10 == 6) are multi-page bank statements →
        # their cross-page merged tables carry page-range captions.
        bank_urls = [u for i, u in enumerate(urls) if i % 10 == 6]
        assert any("**Table from Pages" in texts[u] for u in bank_urls)


class TestTableMergeExactOutput:
    """Exact-markdown lock for the table-merge flavor (G1 rules 2-4 in one
    document)."""

    HTML = (
        '<html><body>'
        '<div class="page"><table>'
        "<tr><th>Date</th><th>Amount</th><th>Balance</th></tr>"
        "<tr><td>01/03</td><td>100.00</td><td>900.00</td></tr>"
        "</table></div>"
        '<div class="page"><table>'
        "<tr><th>Date</th><th>Amount</th><th>Balance</th></tr>"  # same headers → merge
        "<tr><td>02/03</td><td>50.00</td><td>850.00</td></tr>"
        "</table><table>"
        "<tr><td>03/03</td><td>10.00</td><td>840.00</td></tr>"   # headerless → merge
        "</table></div>"
        '<div class="page"><table>'
        "<tr><th>X</th><th>Y</th></tr>"                          # balance continuity → merge
        "<tr><td>04/03</td><td>835.00</td></tr>"
        "</table></div>"
        "</body></html>"
    )

    def test_exact_merged_markdown(self):
        from pdf_extractor_ray.functions.html_extract import extract_html

        text, stats = extract_html(self.HTML, flavor="table_merge")
        assert text == (
            "**Table from Pages 1-3**\n\n"
            "| Date | Amount | Balance |\n"
            "| --- | --- | --- |\n"
            "| 01/03 | 100.00 | 900.00 |\n"
            "| 02/03 | 50.00 | 850.00 |\n"
            "| 03/03 | 10.00 | 840.00 |\n"
            "| 04/03 | 835.00 |  |"
        )
        assert stats["n_tables"] == 4


class TestTextExtractionFlavor:
    def test_bidi_fix_applied_to_hebrew_cells(self):
        from pdf_extractor_ray.functions.html_extract import extract_html

        html = (
            "<table><tr><th>תאריך</th><th>Debit</th></tr>"
            "<tr><td>שלום</td><td>100</td></tr>"
            "<tr><td>plain</td><td>50</td></tr></table>"
        )
        plain, _ = extract_html(html, flavor="article")
        bidi, _ = extract_html(html, flavor="text_extraction")
        assert "תאריך" in plain and "שלום" in plain
        # text_extraction flips visual-order Hebrew cells (reference:
        # extraction_service.py:50-57); Latin cells untouched.
        assert "תאריך"[::-1] in bidi and "שלום"[::-1] in bidi
        assert "plain" in bidi and "| 100 |" in bidi

    def test_router_selects_flavor(self, ray_session, small_pages):
        import ray.data as rd

        from pdf_extractor_ray.config import EngineConfig
        from pdf_extractor_ray.pipelines.extract import extraction_pipeline

        ds = rd.from_arrow(small_pages.slice(0, 30))
        cfg = EngineConfig(validation_enabled=False)
        out = _collect(extraction_pipeline(ds, config=cfg, query="04_Bank_Statements"))
        assert len(out) == 30


class TestGiantDocument:
    def test_reference_max_size_document(self):
        """A document at the reference's 25MB upload cap flows through the
        in-UDF chunk path in bounded time/memory
        (reference guardrail: src/core/config.py:39)."""
        import time

        import pyarrow as pa

        from pdf_extractor_ray.stages.extract import DocumentExtractor
        from pdf_extractor_ray.stages.normalize import normalize_route

        para = "<p>" + ("content word " * 90) + "</p>"
        page = f'<div class="page">{para * 10}</div>'
        html = ("<html><body>" + page * 400 + "</body></html>").encode()  # ~5MB
        batch = pa.Table.from_pylist(
            [{"url": "u://giant", "warc_ts": 0, "html": html, "text": "", "lang": "en"}],
            schema=pa.schema(
                [
                    ("url", pa.string()), ("warc_ts", pa.timestamp("us")),
                    ("html", pa.binary()), ("text", pa.string()), ("lang", pa.string()),
                ]
            ),
        )
        t0 = time.time()
        out = DocumentExtractor()(normalize_route(batch))
        assert time.time() - t0 < 30
        assert out["n_chunks"][0].as_py() > 1
        assert out["n_pages"][0].as_py() == 400
        assert out["extract_error"][0].as_py() is None


class TestPasswordPlumbing:
    """Round-4 CLI/pipeline credential plumbing: EngineConfig.pdf_password
    (corpus-wide) and pdf_password_col (per-row sidecar) open encrypted PDFs
    inside the extract stage, byte-identical to the plaintext extraction."""

    @pytest.fixture(scope="class")
    def enc_corpus(self):
        from pdf_extractor_ray.functions.pdf_codec import build_pdf

        texts = {
            f"pdf://enc/{i}": f"Protected page {i}.\nSecond line with value {i * 7}."
            for i in range(6)
        }
        plain = {u: build_pdf(t) for u, t in texts.items()}
        enc = {
            u: build_pdf(
                t, encrypt=True, encrypt_user_pw=b"hunter2",
                encrypt_rev=3 if i % 2 else 2,
            )
            for i, (u, t) in enumerate(texts.items())
        }
        return plain, enc

    def _run(self, payload_by_url: dict, config: EngineConfig, extra_cols=None):
        import ray.data as rd

        cols = {
            "url": list(payload_by_url),
            "html": pa.array(list(payload_by_url.values()), pa.binary()),
            "text": [""] * len(payload_by_url),
        }
        cols.update(extra_cols or {})
        ds = rd.from_arrow(pa.table(cols)).repartition(4)
        return extraction_pipeline(ds, config=config)

    def test_corpus_wide_password(self, ray_session, enc_corpus):
        plain, enc = enc_corpus
        golden = _collect(self._run(plain, EngineConfig(validation_enabled=False)))
        got = _collect(
            self._run(
                enc,
                EngineConfig(pdf_password="hunter2", validation_enabled=False),
            )
        )
        assert got == golden
        assert all(v for v in got.values())

    def test_wrong_password_contained(self, ray_session, enc_corpus):
        _, enc = enc_corpus
        table = _collect_table(self._run(
            enc, EngineConfig(pdf_password="wrong", validation_enabled=False)
        ))
        assert all(t == "" for t in table["extracted_text"].to_pylist())
        assert all(
            e and "password" in e for e in table["extract_error"].to_pylist()
        )

    def test_per_row_password_column(self, ray_session, enc_corpus):
        from pdf_extractor_ray.functions.pdf_codec import build_pdf

        plain, _ = enc_corpus
        urls = list(plain)
        pws = [f"pw-{i}" for i in range(len(urls))]
        enc = {
            u: build_pdf(
                f"Protected page {i}.\nSecond line with value {i * 7}.",
                encrypt=True, encrypt_user_pw=pws[i].encode(),
                encrypt_rev=3,
            )
            for i, u in enumerate(urls)
        }
        golden = _collect(self._run(plain, EngineConfig(validation_enabled=False)))
        out = _collect_table(
            self._run(
                enc,
                EngineConfig(pdf_password_col="doc_pw", validation_enabled=False),
                extra_cols={"doc_pw": pws},
            )
        )
        got = dict(zip(out["url"].to_pylist(), out["extracted_text"].to_pylist()))
        assert got == golden
        # credentials must not flow downstream
        assert "doc_pw" not in out.column_names

    def test_binary_password_column(self, ray_session, enc_corpus):
        """A binary-typed sidecar password column works (bytes pass through
        untouched, not str()-mangled)."""
        from pdf_extractor_ray.functions.pdf_codec import build_pdf

        plain, _ = enc_corpus
        urls = list(plain)
        pws = [f"bin-{i}".encode() for i in range(len(urls))]
        enc = {
            u: build_pdf(
                f"Protected page {i}.\nSecond line with value {i * 7}.",
                encrypt=True, encrypt_user_pw=pws[i], encrypt_rev=3,
            )
            for i, u in enumerate(urls)
        }
        golden = _collect(self._run(plain, EngineConfig(validation_enabled=False)))
        got = _collect(
            self._run(
                enc,
                EngineConfig(pdf_password_col="doc_pw", validation_enabled=False),
                extra_cols={"doc_pw": pa.array(pws, pa.binary())},
            )
        )
        assert got == golden

