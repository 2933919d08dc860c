"""Wild-HTML integration shard (round 5): hostile real-crawl markup
shapes must extract byte-identically through the full WARC → charset →
extract path (queries.py::q_wild_pages / _wild_payload), mirroring the
reference's real-PDF integration corpus (run_integration_tests.py).
Also pins the round-5 parser hardenings those shapes forced:
marked-section drop, bogus-end-tag drop, nested-table flattening, and
the single-cell layout-table unwrap."""

import html_oracle
import pytest

from pdf_extractor_ray.functions.charset import decode_html_bytes
from pdf_extractor_ray.functions.html_extract import (
    extract_html,
    score_blocks,
    tokenize_blocks,
)
from pdf_extractor_ray.queries import _WILD_TRAITS, _wild_payload

TEXT = (
    "The quarterly report shows steady growth across all divisions "
    "and regions worldwide."
)


class TestWildPayloadRoundtrip:
    @pytest.mark.parametrize("v", range(14))
    def test_variant_extracts_byte_identically(self, v):
        raw = _wild_payload(v, TEXT)
        decoded, _enc = decode_html_bytes(raw)
        got, _stats = extract_html(decoded)
        assert got == TEXT, (_WILD_TRAITS[v], got[:200])

    def test_charset_lie_variant_is_really_cp1252(self):
        raw = _wild_payload(7, TEXT)
        # The footer's © (cp1252 0xA9) is NOT valid UTF-8 lead context —
        # the decode stage must survive via U+FFFD replacement.
        assert b"\xa9" in raw
        decoded, enc = decode_html_bytes(raw)
        assert enc == "utf-8"  # the page LIES; sniff believes the label
        assert "�" in decoded  # mojibake confined to dropped zones

    def test_controls_variant_carries_nul_bytes(self):
        raw = _wild_payload(6, TEXT)
        assert b"\x00" in raw

    @pytest.mark.parametrize("v", range(14))
    def test_variant_deterministic(self, v):
        assert _wild_payload(v, TEXT) == _wild_payload(v, TEXT)


class TestParserHardenings:
    """The four divergences the wild shard surfaced, pinned at unit
    level (found by probing; each leaked junk or garbled output before
    the round-5 fix)."""

    def _extract(self, body, engine="fast"):
        """``engine="stdlib"`` runs the html.parser reference tokenizer."""
        html = (
            "<html><head><title>d</title></head><body>"
            '<nav><a href="/h">Home</a> <a href="/a">About</a></nav>'
            + body
            + "<footer>(c) 2026 Example Corp legal privacy</footer>"
            "</body></html>"
        )
        from pdf_extractor_ray.functions.assemble import combine_pages
        from pdf_extractor_ray.functions.html_extract import article_pages

        if engine == "stdlib":
            blocks = html_oracle.tokenize_blocks(html, "stdlib")
        else:
            blocks = tokenize_blocks(html)
        return combine_pages(article_pages(score_blocks(blocks)))

    def test_marked_sections_drop(self):
        got = self._extract(
            "<![INCLUDE[ <p>include junk paragraph content</p> ]]>"
            f"<p>{TEXT}</p>"
            "<![CDATA[ <p>cdata junk paragraph content here</p> ]]>"
        )
        assert got == TEXT

    def test_bogus_end_tags_drop(self):
        assert self._extract(f"<p>{TEXT}</ p></>") == TEXT

    @pytest.mark.parametrize(
        "tail", ['<div class="trailing-junk-name', "<?php echo $x", "<!DOCTYPE html"]
    )
    def test_eof_truncated_tag_drops(self, tail):
        # crawl cut mid-attribute, mid-processing-instruction or
        # mid-declaration: the unterminated tail must not leak
        from pdf_extractor_ray.functions.html_extract import extract_html

        html = "<html><body><p>" + TEXT + "</p>" + tail
        got, _ = extract_html(html)
        assert got == TEXT

    def test_nested_table_flattens_into_cell(self):
        got = self._extract(
            "<table><tr><td>c1</td><td>c2</td></tr>"
            "<tr><td><table><tr><td>inner</td></tr></table></td>"
            f"<td>c4</td></tr></table><p>{TEXT}</p>"
        )
        assert got == f"| c1 | c2 |\n| inner | c4 |\n\n{TEXT}"

    @pytest.mark.parametrize("engine", ["fast", "stdlib"])
    def test_single_cell_layout_table_unwraps(self, engine):
        got = self._extract(
            f"<table><tr><td><p>{TEXT}</p></td></tr></table>", engine
        )
        assert got == TEXT

    def test_multi_cell_table_still_renders_pipes(self):
        got = self._extract(
            "<table><tr><th>H1</th><th>H2</th></tr>"
            f"<tr><td>a</td><td>b</td></tr></table><p>{TEXT}</p>"
        )
        assert got == f"| H1 | H2 |\n| --- | --- |\n| a | b |\n\n{TEXT}"


class TestWildPagesQuery:
    def test_full_family_byte_identity_via_warc(self, ray_session):
        """The registered query over the real fixture corpus: every doc
        through WARC encode/parse + charset decode + extract must equal
        documents.text."""
        import pyarrow.parquet as pq

        from pdf_extractor_ray.queries import q_wild_pages

        sf = "/root/testdata/sf0.001"
        df = q_wild_pages(sf)
        want = (
            pq.read_table(sf + "/documents.parquet", columns=["doc_id", "text"])
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert len(df) == len(want)
        assert (df["extracted_text"].values == want["text"].values).all()
        assert set(df["trait"]) == set(_WILD_TRAITS)


class TestExtractionSpans:
    """Round 5: raw-source provenance spans (north star: 'reconciles
    extracted spans against the provided text column')."""

    def test_slice_identity(self):
        from pdf_extractor_ray.functions.html_extract import (
            extract_html_spans,
        )

        html = (
            '<html><body><nav><a href="/x">Home link</a></nav>'
            f"<p>{TEXT}</p><h2>Section heading here</h2>"
            f"<p>{TEXT}</p></body></html>"
        )
        spans = extract_html_spans(html)
        assert [k for k, *_ in spans] == ["text", "heading", "text"]
        for _, s, e, txt in spans:
            assert html[s:e] == txt

    def test_whitespace_and_entities_span_raw_region(self):
        from pdf_extractor_ray.functions.html_extract import (
            extract_html_spans,
        )

        html = f"<html><body><p>  {TEXT}  </p></body></html>"
        ((_, s, e, txt),) = extract_html_spans(html)
        # raw region includes the uncollapsed whitespace run
        assert html[s:e].strip() == txt == TEXT

    def test_stdlib_engine_reports_unknown(self):
        blocks = score_blocks(
            html_oracle.tokenize_blocks(f"<p>{TEXT}</p>", "stdlib")
        )
        assert blocks[0].span_start == -1 and blocks[0].span_end == -1
