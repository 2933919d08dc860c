"""HTML head metadata (functions/metadata.py) + n-gram heavy hitters
(ops/text.py::ngram_topk)."""

from __future__ import annotations

import collections

import pytest
import pyarrow as pa

from pdf_extractor_ray.functions.metadata import parse_head_meta


class TestHeadMeta:
    def test_basic(self):
        m = parse_head_meta(
            "<html><head><title>My  Page </title>"
            '<meta name="description" content="a desc">'
            '<link rel="canonical" href="https://x.com/p">'
            '<meta property="og:title" content="OG T">'
            "</head><body><p>ignored</p></body></html>"
        )
        assert m["title"] == "My Page"
        assert m["description"] == "a desc"
        assert m["canonical"] == "https://x.com/p"
        assert m["og"] == {"title": "OG T"}

    def test_attribute_order_quotes_case(self):
        m = parse_head_meta(
            "<HEAD><META CONTENT='d' NAME='Description'/>"
            "<LINK HREF='u' REL='CANONICAL x'/><TITLE>t</TITLE></HEAD>"
        )
        assert (m["description"], m["canonical"], m["title"]) == ("d", "u", "t")

    def test_body_meta_ignored(self):
        m = parse_head_meta(
            "<head><title>t</title></head><body>"
            '<meta name="description" content="late"></body>'
        )
        assert m["description"] is None

    def test_missing_head_is_all_none(self):
        m = parse_head_meta("<body><p>x</p></body>")
        assert m == {"title": None, "description": None, "canonical": None,
                     "og": {}, "twitter": {}}

    def test_first_description_wins(self):
        m = parse_head_meta(
            '<head><meta name="description" content="one">'
            '<meta name="description" content="two"></head>'
        )
        assert m["description"] == "one"

    def test_entities_resolved(self):
        m = parse_head_meta("<head><title>A &amp; B</title></head>")
        assert m["title"] == "A & B"

    def test_broken_soup_never_raises(self):
        # malformed markup inside <title> degrades to text, never raises
        m = parse_head_meta("<head><title>t<meta<<<")
        assert m["title"].startswith("t") and m["description"] is None


class TestNgramTopk:
    @staticmethod
    def brute(texts, n, k):
        counts = collections.Counter()
        for t in texts:
            ws = t.lower().split()
            for i in range(len(ws) - n + 1):
                counts[" ".join(ws[i : i + n])] += 1
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def test_matches_brute_force(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.text import ngram_topk

        texts = [
            "the cat sat on the mat",
            "the cat ran",
            "THE CAT sat",
            "",
            "solo",
            "on the mat on the mat",
        ]
        ds = rd.from_arrow(pa.table({"text": texts})).repartition(3)
        got = ngram_topk(ds, n=2, k=4)
        assert list(zip(got["ngram"], got["cnt"])) == self.brute(texts, 2, 4)
        assert got["rank"].tolist() == [1, 2, 3, 4]

    def test_trigrams_and_boundaries(self, ray_session):
        """An n-gram must never span two documents."""
        import ray.data as rd

        from pdf_extractor_ray.ops.text import ngram_topk

        texts = ["a b c", "c a b"]  # "b c c" / "c c a" would be cross-doc
        ds = rd.from_arrow(pa.table({"text": texts})).repartition(2)
        got = ngram_topk(ds, n=3, k=10)
        assert set(got["ngram"]) == {"a b c", "c a b"}

    def test_null_and_short_texts(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.text import ngram_topk

        ds = rd.from_arrow(pa.table({"text": pa.array([None, "one", "x y"])}))
        got = ngram_topk(ds, n=2, k=5)
        assert list(zip(got["ngram"], got["cnt"])) == [("x y", 1)]


class TestKnStats:
    def test_matches_brute_force(self, ray_session):
        import collections

        import ray.data as rd

        from pdf_extractor_ray.ops.text import kn_stats

        texts = ["a b a b c", "a b x", "", "y"]
        ds = rd.from_arrow(pa.table({"text": texts})).repartition(2)
        got = kn_stats(ds, max_n=2).set_index("n")
        for n in (1, 2):
            counts = collections.Counter()
            for t in texts:
                ws = t.split()
                for i in range(len(ws) - n + 1):
                    counts[" ".join(ws[i : i + n])] += 1
            row = got.loc[n]
            assert row["total"] == sum(counts.values())
            assert row["distinct_ngrams"] == len(counts)
            assert row["n1"] == sum(1 for c in counts.values() if c == 1)
            assert row["n2"] == sum(1 for c in counts.values() if c == 2)
            assert row["d_den"] == row["n1"] + 2 * row["n2"]


class TestTemplateClusters:
    def test_clusters_by_structure_not_content(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.templates import template_clusters

        pages = pa.table(
            {
                "doc_id": [0, 1, 2, 3],
                "html": [
                    b"<html><body><p>alpha</p></body></html>",
                    b"<html><body><p>totally different words</p></body></html>",
                    b"<html><body><div>x</div></body></html>",
                    b"<HTML><BODY><P>case-insensitive tags</P></BODY></HTML>",
                ],
            }
        )
        out = (
            template_clusters(rd.from_arrow(pages).repartition(2))
            .to_pandas()
            .sort_values("doc_id")
        )
        assert out["cluster_rep"].tolist() == [0, 0, 2, 0]
        assert out["cluster_size"].tolist() == [3, 3, 1, 3]


class TestWeightedSample:
    def test_extremes_and_determinism(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.text import weighted_sample

        tbl = pa.table(
            {
                "doc_id": list(range(200)),
                # weight 0 → never kept; weight 512 (=cap) → always kept
                "w": [0 if i % 3 == 0 else (512 if i % 3 == 1 else 256) for i in range(200)],
            }
        )
        ds = rd.from_arrow(tbl)
        out = weighted_sample(ds, weight_col="w", cap=512, salt=1).to_pandas()
        kept = set(out["doc_id"])
        assert all(i in kept for i in range(200) if i % 3 == 1)
        assert all(i not in kept for i in range(200) if i % 3 == 0)
        mid = [i for i in range(200) if i % 3 == 2]
        mid_kept = [i for i in mid if i in kept]
        assert 0 < len(mid_kept) < len(mid)  # ~half
        again = weighted_sample(
            rd.from_arrow(tbl).repartition(7), weight_col="w", cap=512, salt=1
        ).to_pandas()
        assert set(again["doc_id"]) == kept  # layout-independent

    def test_cap_must_be_power_of_two(self, ray_session):
        import pytest as _pytest
        import ray.data as rd

        from pdf_extractor_ray.ops.text import weighted_sample

        with _pytest.raises(ValueError):
            weighted_sample(
                rd.from_arrow(pa.table({"doc_id": [1], "w": [1]})),
                weight_col="w", cap=100,
            )


class TestOovRate:
    def test_counts(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.text import oov_rate

        texts = ["a a b rare1", "b b rare2 rare3", ""]
        ds = rd.from_arrow(pa.table({"doc_id": [1, 2, 3], "text": texts}))
        out = (
            oov_rate(ds, vocab_k=2).to_pandas().sort_values("doc_id")
        )  # vocab = {a(3), b(3)}
        assert out["doc_id"].tolist() == [1, 2]  # empty doc emits nothing
        assert out["n_tokens"].tolist() == [4, 4]
        assert out["n_oov"].tolist() == [1, 2]


class TestNfcNormalize:
    def test_composition_cases(self):
        import pyarrow as pa

        from pdf_extractor_ray.ops.text import nfc_batch

        t = pa.table(
            {
                "doc_id": [0, 1, 2, 3],
                "text": [
                    "cafe" + chr(0x0301),   # e + combining acute
                    "plain ascii",
                    chr(0x212B) + "ngstrom",  # Angstrom sign
                    None,
                ],
            }
        )
        out = nfc_batch(t)
        assert out["text"].to_pylist() == [
            "café", "plain ascii", "Ångstrom", ""
        ]
        assert out["changed"].to_pylist() == [True, False, True, False]

    def test_idempotent(self):
        import pyarrow as pa

        from pdf_extractor_ray.ops.text import nfc_batch

        t = pa.table({"text": ["cafe" + chr(0x0301), "é composed"]})
        once = nfc_batch(t)
        twice = nfc_batch(once.select(["text"]))
        assert once["text"].to_pylist() == twice["text"].to_pylist()
        assert twice["changed"].to_pylist() == [False, False]

    def test_dataset_level(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from pdf_extractor_ray.ops.text import nfc_normalize

        ds = rd.from_arrow(
            pa.table({"text": ["a", "e" + chr(0x0301)]})
        ).repartition(2)
        rows = sorted(
            nfc_normalize(ds).take_all(), key=lambda r: r["text"]
        )
        assert [r["text"] for r in rows] == ["a", "é"]
        assert [r["changed"] for r in rows] == [False, True]


class TestC4Clean:
    def run(self, texts):
        import pyarrow as pa

        from pdf_extractor_ray.ops.text import c4_clean_batch

        t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
        return c4_clean_batch(t)

    def test_line_rules(self):
        # 3 good lines -> kept; each bad line dropped for its own reason
        good = "one two three four five."
        doc = "\n".join(
            [
                good,
                "ends without punct five words",   # no terminal punct
                "short line.",                      # < 5 words
                "enable javascript to see this page now.",  # javascript
                'he said "hello there my friend."',
                "Is this a real question now?",
            ]
        )
        out = self.run([doc])
        assert out["total_lines"].to_pylist() == [6]
        assert out["kept_lines"].to_pylist() == [3]
        assert out["kept"].to_pylist() == [True]
        assert out["cleaned_text"].to_pylist() == [
            good + "\n" + 'he said "hello there my friend."'
            + "\n" + "Is this a real question now?"
        ]

    def test_document_rules(self):
        base = "\n".join(
            f"good line number {i} with plenty words." for i in range(3)
        )
        two = "\n".join(
            f"good line number {i} with plenty words." for i in range(2)
        )
        out = self.run(
            [
                base,                         # kept
                two,                          # only 2 retained lines
                base + "\nLorem Ipsum dolor." ,  # lorem ipsum (ci)
                base + "\nvar x = { a: 1 };",    # brace
                "",                           # empty
            ]
        )
        assert out["kept"].to_pylist() == [True, False, False, False, False]
        assert out["cleaned_text"].to_pylist()[1:] == [""] * 4
        assert out["total_lines"].to_pylist()[4] == 1  # '' splits to ['']

    def test_quote_terminal_and_nulls(self):
        import pyarrow as pa

        from pdf_extractor_ray.ops.text import c4_clean_batch

        t = pa.table(
            {"doc_id": [0], "text": pa.array([None], pa.string())}
        )
        out = c4_clean_batch(t)
        assert out["kept"].to_pylist() == [False]


class TestGopherRules:
    def run(self, texts):
        import pyarrow as pa

        from pdf_extractor_ray.ops.text import gopher_rules_batch

        t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
        return gopher_rules_batch(t)

    def test_counters(self):
        doc = "the cat sat with a hat...\n• bullet one\nplain end…\n# x"
        out = self.run([doc])
        r = {c: out[c].to_pylist()[0] for c in out.column_names if c != "text"}
        assert r["n_words"] == 13
        assert r["n_lines"] == 4
        assert r["bullet_lines"] == 1
        assert r["ellipsis_lines"] == 2  # '...' and '…' line endings
        assert r["n_symbols"] == 3      # one '#', one '...', one '…'
        assert r["stop_hits"] == 2      # 'the', 'with'
        assert not r["passes"]          # < 50 words

    def test_pass_boundaries(self):
        # 50 words, mean length in range, 2 stop words -> passes
        words = ["the", "with"] + ["word"] * 48
        good = " ".join(words) + "."
        # '.' attaches to the last word; mean length fine
        out = self.run([good])
        assert out["n_words"].to_pylist() == [50]
        assert out["passes"].to_pylist() == [True]
        # one fewer word -> fails the floor
        out2 = self.run([" ".join(words[:-1])])
        assert out2["passes"].to_pylist() == [False]

    def test_symbol_and_alpha_rules(self):
        words = ["the", "with"] + ["word"] * 48
        base = " ".join(words)
        # 6 symbols in 50 words -> 10*6 > 50 -> fails
        out = self.run([base + " ######"])
        assert out["passes"].to_pylist() == [False]
        # numeric words: 11 of 50 lack letters -> 5*39 < 4*50 fails
        nums = ["the", "with"] + ["word"] * 37 + ["123"] * 11
        out2 = self.run([" ".join(nums)])
        assert out2["alpha_words"].to_pylist() == [39]
        assert out2["passes"].to_pylist() == [False]

    def test_null_and_empty(self):
        import pyarrow as pa

        from pdf_extractor_ray.ops.text import gopher_rules_batch

        t = pa.table({"doc_id": [0, 1], "text": pa.array(["", None], pa.string())})
        out = gopher_rules_batch(t)
        assert out["passes"].to_pylist() == [False, False]
        assert out["n_words"].to_pylist() == [0, 0]


class TestPmiTopk:
    """ops/text.py pmi_topk: exact scaled-PMI vs a brute-force reference,
    min_count filter, doc-boundary safety, layout independence."""

    TEXTS = [
        "new york new york city",
        "san francisco and new york",
        "san francisco fog",
        "the city and the fog and the bay",
        "new york minute",
        "",
    ] * 3

    def _brute(self, texts, k, min_count, scale=1_000_000):
        from collections import Counter

        uni, bi = Counter(), Counter()
        for t in texts:
            w = t.lower().split()
            uni.update(w)
            bi.update(zip(w, w[1:]))
        n = sum(uni.values())
        scored = [
            (f"{x} {y}", c, (scale * c * n) // (uni[x] * uni[y]))
            for (x, y), c in bi.items()
            if c >= min_count
        ]
        scored.sort(key=lambda r: (-r[2], r[0]))
        return scored[:k]

    def test_matches_brute_force(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.text import pmi_topk

        ds = rd.from_items([{"text": t} for t in self.TEXTS]).repartition(4)
        out = pmi_topk(ds, k=5, min_count=3)
        expect = self._brute(self.TEXTS, k=5, min_count=3)
        assert list(zip(out["bigram"], out["cnt"], out["pmi_scaled"])) == expect
        assert out["rank"].tolist() == list(range(1, len(expect) + 1))

    def test_no_cross_doc_bigrams(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.text import pmi_topk

        # "b a" only ever appears across document boundaries
        ds = rd.from_items([{"text": "a b"}] * 6).repartition(3)
        out = pmi_topk(ds, k=10, min_count=1)
        assert out["bigram"].tolist() == ["a b"]
        assert out["cnt"].tolist() == [6]

    def test_layout_independent(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.text import pmi_topk

        a = pmi_topk(
            rd.from_items([{"text": t} for t in self.TEXTS]).repartition(1),
            k=8, min_count=2,
        )
        b = pmi_topk(
            rd.from_items([{"text": t} for t in self.TEXTS]).repartition(7),
            k=8, min_count=2,
        )
        assert a.equals(b)

    def test_regimes_agree(self, ray_session):
        """broadcast_cap=0 forces the sorted-lookup regime — identical
        output to the default broadcast regime."""
        import ray.data as rd

        from pdf_extractor_ray.ops.text import pmi_topk

        ds = rd.from_items([{"text": t} for t in self.TEXTS]).repartition(4)
        a = pmi_topk(ds, k=8, min_count=2)
        b = pmi_topk(ds, k=8, min_count=2, broadcast_cap=0)
        assert a.equals(b)


class TestDatasetSplit:
    def test_disjoint_total_and_layout_invariant(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.text import dataset_split

        tbl = pa.table({"doc_id": list(range(1000))})
        a = dataset_split(rd.from_arrow(tbl).repartition(1)).to_pandas()
        b = dataset_split(rd.from_arrow(tbl).repartition(9)).to_pandas()
        a = a.sort_values("doc_id").reset_index(drop=True)
        b = b.sort_values("doc_id").reset_index(drop=True)
        assert a.equals(b)
        counts = a["split"].value_counts()
        assert counts.sum() == 1000
        # ~80/10/10 within loose bounds
        assert 700 < counts["train"] < 900
        assert 40 < counts["val"] < 170
        assert 40 < counts["test"] < 170

    def test_bad_cuts_raise(self, ray_session):
        import pytest
        import ray.data as rd

        from pdf_extractor_ray.ops.text import dataset_split

        with pytest.raises(ValueError):
            dataset_split(
                rd.from_arrow(pa.table({"doc_id": [1]})),
                cuts=[("a", 9, 10), ("b", 4, 5)],
            )


class TestApportionBudget:
    def test_sums_to_budget_and_brute(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.budget import apportion_budget

        rows = [
            {"host": f"h{i % 7}", "n_pages": 1} for i in range(153)
        ]
        ds = rd.from_items(rows).repartition(4)
        out = apportion_budget(ds, budget=41).to_pandas()
        assert out["alloc"].sum() == 41
        assert (out["alloc"] - out["base"]).isin([0, 1]).all()
        # brute largest-remainder
        from collections import Counter

        w = Counter(r["host"] for r in rows)
        W = sum(w.values())
        base = {h: (41 * c) // W for h, c in w.items()}
        rem = {h: (41 * c) % W for h, c in w.items()}
        extras = sorted(w, key=lambda h: (-rem[h], h))[: 41 - sum(base.values())]
        expect = {h: base[h] + (1 if h in extras else 0) for h in w}
        assert dict(zip(out["host"], out["alloc"])) == expect

    def test_zero_budget(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.budget import apportion_budget

        ds = rd.from_items([{"host": "a", "n_pages": 5}])
        out = apportion_budget(ds, budget=0).to_pandas()
        assert out["alloc"].tolist() == [0]


class TestLangSpans:
    def test_runs_merge_and_split(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.text import lang_spans_batch

        tbl = pa.table(
            {
                "doc_id": [1, 2],
                "text": [
                    "the and was\nthe and was\nder die das\nthe and was",
                    "",  # empty doc -> one 'und' span covering line 0
                ],
            }
        )
        out = lang_spans_batch(tbl).to_pylist()
        d1 = [r for r in out if r["doc_id"] == 1]
        assert [(r["span_start"], r["span_end"], r["lang"]) for r in d1] == [
            (0, 1, "en"), (2, 2, "de"), (3, 3, "en"),
        ]
        d2 = [r for r in out if r["doc_id"] == 2]
        assert d2 == [
            {"doc_id": 2, "span_start": 0, "span_end": 0, "lang": "und",
             "n_lines": 1}
        ]


class TestRedactContaminated:
    def test_spans_excised_everywhere(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.text import redact_contaminated

        bench = ["the secret answer is forty two exactly here"]
        rows = [
            {"doc_id": 1,
             "text": "intro words THE SECRET ANSWER IS FORTY TWO EXACTLY HERE outro words"},
            {"doc_id": 2, "text": "totally clean document with enough words here"},
            {"doc_id": 3, "text": "short"},
        ]
        out = (
            redact_contaminated(rd.from_items(rows).repartition(2), bench)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert out.loc[0, "redacted_text"] == "intro words outro words"
        assert out.loc[0, "n_redacted"] == 8
        assert out.loc[1, "redacted_text"] == rows[1]["text"]
        assert out.loc[1, "n_redacted"] == 0
        assert out.loc[2, "redacted_text"] == "short" and out.loc[2, "n_redacted"] == 0

    def test_overlapping_matches_union(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.text import redact_contaminated

        # two overlapping benchmark 3-grams -> union of covered tokens
        out = (
            redact_contaminated(
                rd.from_items([{"doc_id": 1, "text": "a b c d e"}]),
                ["a b c", "b c d"], n=3,
            ).to_pandas()
        )
        assert out.loc[0, "redacted_text"] == "e"
        assert out.loc[0, "n_redacted"] == 4


class TestJsonLd:
    def test_extract_variants(self):
        from pdf_extractor_ray.functions.metadata import extract_jsonld

        html = (
            "<html><head>"
            '<script type="application/ld+json">{"@type": "Article"}</script>'
            "<SCRIPT TYPE='APPLICATION/LD+JSON'>"
            '[{"@type": "A"}, {"@type": "B"}, 42]</SCRIPT>'
            '<script type="application/ld+json">{oops</script>'
            '<script type="text/javascript">{"@type": "NotLd"}</script>'
            "</head></html>"
        )
        out = extract_jsonld(html)
        assert [d["@type"] for d in out] == ["Article", "A", "B"]

    def test_batch_rows(self, ray_session):
        from pdf_extractor_ray.functions.metadata import jsonld_batch

        tbl = pa.table(
            {
                "doc_id": [1, 2],
                "html": [
                    b'<script type="application/ld+json">{"@type": "P"}</script>'
                    b'<script type="application/ld+json">{"@type": "P"}</script>',
                    b"no structured data",
                ],
            }
        )
        out = jsonld_batch(tbl).to_pylist()
        assert out == [{"doc_id": 1, "schema_type": "P", "n_blocks": 2}]


class TestHreflang:
    def test_extract_and_sets(self, ray_session):
        from pdf_extractor_ray.functions.metadata import (
            extract_hreflang, translation_sets_batch,
        )

        html = (
            '<link hreflang="de" rel="alternate" href="https://x/de">'
            "<link rel='alternate' href='https://x/en' hreflang='en'>"
            '<link rel="stylesheet" href="s.css">'
            '<link rel="alternate" hreflang="fr">'  # missing href: skipped
        )
        assert extract_hreflang(html) == [
            ("de", "https://x/de"), ("en", "https://x/en"),
        ]
        tbl = pa.table(
            {
                "url": ["https://x/en", "https://y/solo"],
                "html": [html.encode(), b"<html>nothing</html>"],
            }
        )
        out = translation_sets_batch(tbl).to_pylist()
        assert out == [
            {"url": "https://x/en", "set_id": "https://x/de",
             "n_variants": 2, "langs": "de,en"}
        ]


class TestMetaRefresh:
    def test_extract_variants(self):
        from pdf_extractor_ray.functions.metadata import extract_meta_refresh

        assert extract_meta_refresh(
            '<meta http-equiv="refresh" content="5; url=https://t/x">'
        ) == "https://t/x"
        assert extract_meta_refresh(
            "<META CONTENT='0;URL=/next' HTTP-EQUIV='Refresh'>"
        ) == "/next"
        assert extract_meta_refresh(
            '<meta http-equiv="refresh" content="30">'  # reload, no url
        ) is None
        assert extract_meta_refresh('<meta charset="utf-8">') is None
        assert extract_meta_refresh("") is None


class TestApportionDistributed:
    def test_regimes_agree(self, ray_session):
        """key_cap=0 forces the distributed rank regime — allocations
        identical to the driver-side largest-remainder path."""
        import ray.data as rd

        from pdf_extractor_ray.ops.budget import apportion_budget

        rows = [
            {"host": f"h{i % 9}", "n_pages": 1 + i % 4} for i in range(200)
        ]
        ds = rd.from_items(rows).repartition(5)
        a = apportion_budget(ds, budget=53).to_pandas()
        a = a.sort_values("host").reset_index(drop=True)
        b = (
            apportion_budget(ds, budget=53, key_cap=0)
            .to_pandas().sort_values("host").reset_index(drop=True)
        )
        for c in a.columns:
            b[c] = b[c].astype(a[c].dtype)
        assert a.equals(b)
        assert b["alloc"].sum() == 53


class TestFixMojibake:
    def test_known_cases(self):
        from pdf_extractor_ray.ops.text import fix_mojibake

        assert fix_mojibake("Ã©â€”") == ("é—", 1)
        assert fix_mojibake("â€žquoteâ€œ Ã¼ber") == ("„quote“ über", 1)
        assert fix_mojibake("plain ascii") == ("plain ascii", 0)
        assert fix_mojibake("") == ("", 0)
        assert fix_mojibake("naïve café — fine") == ("naïve café — fine", 0)

    def test_roundtrip_property(self):
        """fix(mojibake(s)) == s for any s that is itself a repair fixed
        point (including the sloppy-hole bytes 0x81/0x8D/0x8F/0x90/0x9D)."""
        import random

        from pdf_extractor_ray.ops.text import fix_mojibake, sloppy_cp1252_decode

        rng = random.Random(23)
        pool = "Łéü—€‚ƒ„…†‡ˆ‰Š‹ŒŽ‘’“”•–—˜™š›œžŸабвгдĀăņ中文字 abcdef"
        checked = 0
        for _ in range(500):
            s = "".join(rng.choice(pool) for _ in range(rng.randrange(1, 25)))
            if fix_mojibake(s)[0] != s:
                continue  # s itself looks like mojibake — out of scope
            m = sloppy_cp1252_decode(s.encode("utf-8"))
            got, rounds = fix_mojibake(m)
            assert got == s, (s, m, got)
            assert rounds >= (1 if m != s else 0)
            checked += 1
        assert checked > 400

    def test_double_encoded(self):
        from pdf_extractor_ray.ops.text import fix_mojibake, sloppy_cp1252_decode

        s = "héllo — wörld"
        m1 = sloppy_cp1252_decode(s.encode("utf-8"))
        m2 = sloppy_cp1252_decode(m1.encode("utf-8"))
        assert fix_mojibake(m2) == (s, 2)

    def test_batch(self, ray_session):
        import pyarrow as pa

        from pdf_extractor_ray.ops.text import fix_mojibake_batch

        batch = pa.table(
            {
                "doc_id": [1, 2, 3],
                "text": ["ok", "Ã©", None],
            }
        )
        out = fix_mojibake_batch(batch)
        assert out.column_names == ["doc_id", "text", "fixed"]
        assert out["text"].to_pylist() == ["ok", "é", ""]
        assert out["fixed"].to_pylist() == [False, True, False]
        assert out["doc_id"].to_pylist() == [1, 2, 3]


class TestPqGrams:
    def test_parse_tag_tree_basic(self):
        from pdf_extractor_ray.ops.templates import parse_tag_tree

        labels, parents = parse_tag_tree(
            b"<html><body><br><p>x</p></body></html>"
        )
        assert labels == [b"#root", b"html", b"body", b"br", b"p"]
        assert parents == [-1, 0, 1, 2, 2]

    def test_parse_tag_tree_recovery_and_rawtext(self):
        from pdf_extractor_ray.ops.templates import parse_tag_tree

        # stray </div> pops past the unclosed <span>; <p> lands at root
        labels, parents = parse_tag_tree(b"<div><span></div><p></p>")
        assert labels == [b"#root", b"div", b"span", b"p"]
        assert parents == [-1, 0, 1, 0]
        # tags inside <script> bodies are raw text, not structure
        labels, parents = parse_tag_tree(
            b"<div><script>if(a<b){}</script><p></p></div>"
        )
        assert labels == [b"#root", b"div", b"script", b"p"]
        assert parents == [-1, 0, 1, 1]

    def test_pqgram_profile_hand_computed(self):
        # p=2, q=3 profile of #root -> a -> (b, c), per Augsten et al. 2005
        from pdf_extractor_ray.ops.templates import pqgram_strings

        got = pqgram_strings(b"<a><b></b><c></c></a>", p=2, q=3)
        want = sorted(
            [
                b"*/#root|*/*/a",
                b"*/#root|*/a/*",
                b"*/#root|a/*/*",
                b"#root/a|*/*/b",
                b"#root/a|*/b/c",
                b"#root/a|b/c/*",
                b"#root/a|c/*/*",
                b"a/b|*/*/*",
                b"a/c|*/*/*",
            ]
        )
        assert got == want

    def test_structural_dedup_matches_bruteforce(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.templates import (
            pqgram_strings,
            structural_dedup,
        )

        htmls = [
            b"<html><body>"
            + (b"<nav><a></a></nav>" if i % 3 == 0 else b"")
            + b"<p></p>" * (i % 4 + 1)
            + b"</body></html>"
            for i in range(40)
        ]
        pages = pa.table({"doc_id": list(range(40)), "html": htmls})
        out = (
            structural_dedup(rd.from_arrow(pages).repartition(4), threshold=0.6)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        # brute force: exact Jaccard over gram-string sets + min-label CC
        sets = [set(pqgram_strings(h)) for h in htmls]
        parent = list(range(40))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(40):
            for j in range(i + 1, 40):
                inter = len(sets[i] & sets[j])
                if inter / (len(sets[i]) + len(sets[j]) - inter) >= 0.6:
                    a, b = find(i), find(j)
                    if a != b:
                        parent[max(a, b)] = min(a, b)
        want = [find(i) for i in range(40)]
        assert out["cluster_id"].tolist() == want
        assert out["is_duplicate"].tolist() == [
            i != c for i, c in enumerate(want)
        ]
        # the planted family must actually exercise both regimes
        assert out["is_duplicate"].sum() > 0
        assert out["cluster_id"].nunique() > 1


class TestDsirSelect:
    def test_target_like_docs_selected(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.curate import dsir_select
        from pdf_extractor_ray.ops.dedup import _token_hash64

        texts, langs = [], []
        for i in range(30):
            if i % 3 == 0:
                texts.append("alpha beta gamma delta " * 3)
                langs.append("en")
            elif i % 3 == 1:
                texts.append("xx yy zz ww " * 3)
                langs.append("zh")
            else:  # German doc that reads English-like: must rank high
                texts.append("alpha beta gamma " * 3)
                langs.append("de")
        tbl = pa.table(
            {"doc_id": list(range(30)), "text": texts, "lang": langs}
        )
        out = (
            dsir_select(
                rd.from_arrow(tbl).repartition(3), keep_frac=0.5
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        # brute force the integer surrogate
        B, SCALE = 128, 1_000_000
        t_cnt = [0] * B
        r_cnt = [0] * B
        docs = []
        for txt, lang in zip(texts, langs):
            bs = [_token_hash64(w) % B for w in txt.lower().split()]
            docs.append(bs)
            for b in bs:
                r_cnt[b] += 1
                if lang == "en":
                    t_cnt[b] += 1
        w = [(t_cnt[b] + 1) * SCALE // (r_cnt[b] + 1) for b in range(B)]
        scores = [sum(w[b] for b in bs) for bs in docs]
        assert out["dsir_score"].tolist() == scores
        order = sorted(range(30), key=lambda i: (-scores[i], i))
        want_sel = set(order[:15])
        assert [i in want_sel for i in range(30)] == out[
            "selected"
        ].tolist()
        # target-vocabulary docs win; the 'zh'-vocabulary docs never select
        sel = set(out[out["selected"]]["doc_id"])
        assert all(i in sel for i in range(0, 30, 3))
        assert any(i in sel for i in range(2, 30, 3))
        assert all(i not in sel for i in range(1, 30, 3))

    def test_keep_all_and_empty_docs(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.curate import dsir_select

        tbl = pa.table(
            {
                "doc_id": [0, 1, 2],
                "text": ["alpha", None, ""],
                "lang": ["en", None, "en"],
            }
        )
        out = (
            dsir_select(rd.from_arrow(tbl), keep_frac=1.0)
            .to_pandas()
            .sort_values("doc_id")
        )
        assert out["selected"].all()
        assert out["dsir_score"].tolist()[1:] == [0, 0]


class TestTermDrift:
    """Integer-exact rate-delta drift: brute force, ties, layouts,
    big-int fallback."""

    @staticmethod
    def _brute(old_texts, new_texts, k):
        from collections import Counter

        oc = Counter(w for t in old_texts for w in (t or "").lower().split())
        nc = Counter(w for t in new_texts for w in (t or "").lower().split())
        n_old, n_new = sum(oc.values()), sum(nc.values())
        rows = [
            (tok, oc[tok], nc[tok], abs(oc[tok] * n_new - nc[tok] * n_old))
            for tok in set(oc) | set(nc)
        ]
        rows.sort(key=lambda r: (-r[3], r[0]))
        return rows[:k]

    @pytest.mark.parametrize("nparts", [1, 3])
    def test_matches_brute_force(self, ray_session, nparts):
        import ray.data as rd

        from pdf_extractor_ray.ops.text import term_drift

        old_texts = [
            "alpha beta gamma alpha",
            "beta beta legacy legacy",
            "",
            None,
        ]
        new_texts = ["alpha beta gamma trending", "trending trending beta"]
        old = rd.from_items([{"text": t} for t in old_texts]).repartition(
            nparts
        )
        new = rd.from_items([{"text": t} for t in new_texts]).repartition(
            nparts
        )
        got = term_drift(old, new, k=4)
        want = self._brute(old_texts, new_texts, 4)
        assert [
            (r.token, int(r.c_old), int(r.c_new), int(r.score))
            for r in got.itertuples()
        ] == want
        assert list(got["rank"]) == [1, 2, 3, 4]

    def test_object_fallback_matches_int64_path(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.text import term_drift

        old = rd.from_items(
            [{"text": "x " * 50 + "y legacy"}, {"text": "y y z"}]
        ).repartition(2)
        new = rd.from_items([{"text": "x y y trending trending"}])
        base = term_drift(old, new, k=5)
        over = term_drift(old, new, k=5, int64_guard=1)  # force object path
        assert base.equals(over)

    def test_empty_sides(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.text import term_drift

        empty = rd.from_items([{"text": ""}])
        out = term_drift(empty, empty, k=5)
        assert len(out) == 0


class TestReadability:
    """Flesch milli-score: hand-computed vectors, clamping, nulls."""

    def test_hand_computed(self):
        from pdf_extractor_ray.ops.text import readability_batch

        t = pa.Table.from_arrays(
            [
                pa.array([0, 1, 2, 3], pa.int64()),
                pa.array(
                    [
                        "The cat sat. It was flat! Was it?",
                        "",
                        None,
                        "Incomprehensibility notwithstanding, "
                        "parallelization necessitates disambiguation.",
                    ],
                    pa.string(),
                ),
            ],
            names=["doc_id", "text"],
        )
        out = readability_batch(t).to_pandas()
        # doc 0: W=8, S=3, Y=8 → (206835*24 - 1015*64 - 84600*24)//24
        w, s, y = 8, 3, 8
        want = max(206835 * s * w - 1015 * w * w - 84600 * y * s, 0) // (s * w)
        assert out.loc[0, "flesch_milli"] == want and out.loc[0, "readable"]
        assert out.loc[1, "flesch_milli"] == 0 and not out.loc[1, "readable"]
        assert out.loc[2, "flesch_milli"] == 0  # null text
        assert out.loc[3, "flesch_milli"] == 0  # clamped negative

    def test_sentence_floor_is_one(self):
        from pdf_extractor_ray.ops.text import readability_batch

        t = pa.Table.from_arrays(
            [
                pa.array([0], pa.int64()),
                pa.array(["no terminator here at all"], pa.string()),
            ],
            names=["doc_id", "text"],
        )
        out = readability_batch(t).to_pandas()
        assert out.loc[0, "n_sents"] == 1 and out.loc[0, "n_words"] == 5


class TestFrequentPairs:
    """A-Priori frequent pairs: brute force, support pruning, cap."""

    DOCS = (
        ["apple banana cherry"] * 5
        + ["apple banana"] * 3
        + ["banana date"] * 4
        + ["rare pair only once"]
        + ["apple apple banana banana"] * 2
        + ["", None]
    )

    @staticmethod
    def _brute(docs, support, k):
        from collections import Counter
        from itertools import combinations

        sets = [set((t or "").lower().split()) for t in docs]
        ic = Counter(tok for s in sets for tok in s)
        freq = {t for t, c in ic.items() if c >= support}
        pc_ = Counter(
            tuple(sorted(p))
            for s in sets
            for p in combinations(sorted(s & freq), 2)
        )
        rows = [(a, b, c) for (a, b), c in pc_.items() if c >= support]
        rows.sort(key=lambda r: (-r[2], r[0] + " " + r[1]))
        return rows[:k]

    @pytest.mark.parametrize("nparts", [1, 3])
    def test_matches_brute_force(self, ray_session, nparts):
        import ray.data as rd

        from pdf_extractor_ray.ops.itemsets import frequent_pairs

        ds = rd.from_items(
            [{"text": t} for t in self.DOCS]
        ).repartition(nparts)
        got = frequent_pairs(ds, support=4, k=10)
        want = self._brute(self.DOCS, 4, 10)
        assert [
            (r.t1, r.t2, int(r.cnt)) for r in got.itertuples()
        ] == want
        assert want[0] == ("apple", "banana", 10)

    def test_support_prunes_items_before_pairing(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.itemsets import frequent_pairs

        # "date" appears in 4 docs; at support=5 it is not a frequent
        # item, so (banana, date) must not surface even as a candidate.
        ds = rd.from_items([{"text": t} for t in self.DOCS])
        got = frequent_pairs(ds, support=5, k=10)
        assert ("banana", "date") not in set(zip(got["t1"], got["t2"]))

    @pytest.mark.parametrize("nparts", [1, 3])
    def test_forced_cap_semijoin_regime_identical(self, ray_session, nparts):
        """frequent_cap=0 forces the distributed semi-join regime
        (per-doc token rows → attach_lookup semi-join →
        sorted_segment_apply pair emission); output must be
        bit-identical to the broadcast regime."""
        import ray.data as rd

        from pdf_extractor_ray.ops.itemsets import frequent_pairs

        ds = rd.from_items(
            [{"text": t} for t in self.DOCS]
        ).repartition(nparts)
        want = frequent_pairs(ds, support=4, k=10)
        got = frequent_pairs(ds, support=4, k=10, frequent_cap=0)
        assert got.to_dict("records") == want.to_dict("records")

    def test_forced_cap_semijoin_duplicate_docs_multiplicity(
        self, ray_session
    ):
        """Duplicate texts collapse to one hash segment in the semi-join
        regime; pair counts must still reflect per-document occurrence."""
        import ray.data as rd

        from pdf_extractor_ray.ops.itemsets import frequent_pairs

        docs = ["x y z", "x y z", "x y", "x y z", "q r"]
        ds = rd.from_items([{"text": t} for t in docs]).repartition(2)
        want = frequent_pairs(ds, support=2, k=10)
        got = frequent_pairs(ds, support=2, k=10, frequent_cap=0)
        assert got.to_dict("records") == want.to_dict("records")
        assert ("x", "y", 4) in {
            (r.t1, r.t2, int(r.cnt)) for r in got.itertuples()
        }

    def test_no_frequent_items_is_empty(self, ray_session):
        import ray.data as rd

        from pdf_extractor_ray.ops.itemsets import frequent_pairs

        ds = rd.from_items([{"text": "each word distinct here"}])
        out = frequent_pairs(ds, support=2, k=5)
        assert len(out) == 0


class TestMicrodata:
    """Microdata census: tolerance cases and batch shape."""

    def test_extract_tolerances(self):
        from pdf_extractor_ray.functions.metadata import extract_microdata

        html = (
            '<div itemscope itemtype="https://schema.org/Product">'
            '<span itemprop="name">X</span><span itemprop=\'price\'>1</span>'
            "</div>"
            "<div ITEMSCOPE itemtype='https://schema.org/Offer/'></div>"
            '<div itemtype="https://schema.org/Review" itemscope>'
            '<b itemprop="sku">2</b></div>'
            "<div itemscope>no type</div>"
        )
        types, props = extract_microdata(html)
        assert types == ["Product", "Offer", "Review"]
        assert props == 3

    def test_batch_rows_sorted_and_sparse(self):
        from pdf_extractor_ray.functions.metadata import microdata_batch

        t = pa.Table.from_arrays(
            [
                pa.array([1, 2], pa.int64()),
                pa.array(
                    [
                        b'<div itemscope itemtype="s/B"></div>'
                        b'<div itemscope itemtype="s/A"></div>'
                        b'<div itemscope itemtype="s/A"></div>',
                        b"<p>none</p>",
                    ],
                    pa.binary(),
                ),
            ],
            names=["doc_id", "html"],
        )
        out = microdata_batch(t).to_pandas()
        assert list(out["item_type"]) == ["A", "B"]  # sorted per page
        assert list(out["n_items"]) == [2, 1]
        assert list(out["doc_id"]) == [1, 1]  # page 2 emits nothing


class TestScriptMix:
    """Script census: dominance, alphabetical ties, mixed flag edges."""

    def test_vectors(self):
        from pdf_extractor_ray.ops.text import script_mix_batch

        t = pa.Table.from_arrays(
            [
                pa.array([0, 1, 2, 3, 4], pa.int64()),
                pa.array(
                    [
                        "hello world",      # pure latin
                        "Привет hello",     # cyrillic 6 vs latin 5: mixed
                        "纯中文字符",        # pure cjk
                        "123 !!!",          # no script chars
                        "ab мир",           # tie 2-2? latin 2, cyr 3
                    ],
                    pa.string(),
                ),
            ],
            names=["doc_id", "text"],
        )
        out = script_mix_batch(t).to_pandas()
        assert list(out["dominant_script"]) == [
            "latin", "cyrillic", "cjk", "none", "cyrillic",
        ]
        assert list(out["is_mixed"]) == [False, True, False, False, True]
        assert out.loc[1, "n_cyrillic"] == 6 and out.loc[1, "n_latin"] == 5

    def test_alphabetical_tie_break(self):
        from pdf_extractor_ray.ops.text import script_mix_batch

        # equal arabic and latin counts → 'arabic' (alphabetical)
        t = pa.Table.from_arrays(
            [pa.array([0], pa.int64()), pa.array(["ab مر"], pa.string())],
            names=["doc_id", "text"],
        )
        out = script_mix_batch(t).to_pandas()
        assert out.loc[0, "n_arabic"] == 2 == out.loc[0, "n_latin"]
        assert out.loc[0, "dominant_script"] == "arabic"

    def test_exact_ten_percent_boundary_is_mixed(self):
        from pdf_extractor_ray.ops.text import script_mix_batch

        # 9 latin + 1 cyrillic: (10-9)*10 == 10 → mixed (>= semantics)
        t = pa.Table.from_arrays(
            [pa.array([0], pa.int64()),
             pa.array(["abcdefghi м"], pa.string())],
            names=["doc_id", "text"],
        )
        out = script_mix_batch(t).to_pandas()
        assert bool(out.loc[0, "is_mixed"])


class TestMarkupDensity:
    """Markup density: hand vectors, binary decode, empty payloads."""

    def test_hand_vectors(self):
        from pdf_extractor_ray.ops.text import markup_density_batch

        t = pa.Table.from_arrays(
            [
                pa.array([0, 1, 2], pa.int64()),
                pa.array(
                    ["<p>hi</p>", "plain text", ""], pa.string()
                ),
            ],
            names=["doc_id", "html"],
        )
        out = markup_density_batch(t).to_pandas()
        assert list(out["n_tags"]) == [2, 0, 0]
        assert list(out["html_chars"]) == [9, 10, 0]
        assert list(out["text_chars"]) == [2, 10, 0]
        assert list(out["text_ratio_milli"]) == [2000 // 9, 1000, 0]

    def test_binary_payload_decodes(self):
        from pdf_extractor_ray.ops.text import markup_density_batch

        t = pa.Table.from_arrays(
            [
                pa.array([0, 1], pa.int64()),
                pa.array([b"<b>x</b>", None], pa.binary()),
            ],
            names=["doc_id", "html"],
        )
        out = markup_density_batch(t).to_pandas()
        assert out.loc[0, "n_tags"] == 2 and out.loc[0, "text_chars"] == 1
        assert out.loc[1, "html_chars"] == 0


class TestOpengraphCensus:
    """functions/metadata.py opengraph_batch: counts, completeness,
    first-wins duplicates, case/quote tolerance, binary html."""

    def test_counts(self):
        import pyarrow as pa

        from pdf_extractor_ray.functions.metadata import opengraph_batch

        pages = [
            (1, '<head><meta property="og:title" content="a">'
                '<meta property="og:type" content="b">'
                '<meta property="og:image" content="c">'
                '<meta property="og:url" content="d"></head>'),
            (2, "<head><meta PROPERTY='og:title' content='x'/>"
                '<meta name="twitter:card" content="s"></head>'),
            (3, '<head><meta property="og:title" content="1">'
                '<meta property="og:title" content="2"></head>'),
            (4, b"<head><meta name='twitter:site' content='@x'></head>"),
            (5, "<head></head>"),
        ]
        t = pa.Table.from_arrays(
            [pa.array([p[0] for p in pages], pa.int64()),
             pa.array([p[1] if isinstance(p[1], str) else None
                       for p in pages], pa.string())],
            names=["doc_id", "html"],
        )
        # binary variant separately
        out = {r["doc_id"]: (r["n_og"], r["n_twitter"], r["og_complete"])
               for r in opengraph_batch(t).to_pylist()}
        assert out[1] == (4, 0, 1)
        assert out[2] == (1, 1, 0)
        assert out[3] == (1, 0, 0)   # first-wins duplicate
        assert out[5] == (0, 0, 0)

        tb = pa.Table.from_arrays(
            [pa.array([4], pa.int64()),
             pa.array([pages[3][1]], pa.binary())],
            names=["doc_id", "html"],
        )
        r = opengraph_batch(tb).to_pylist()[0]
        assert (r["n_og"], r["n_twitter"]) == (0, 1)


class TestAssociationRules:
    def test_rules_vs_brute_force(self, ray_session):
        import ray

        from pdf_extractor_ray.ops.itemsets import association_rules

        docs = []
        for i in range(60):
            t = "alpha beta" if i % 2 == 0 else "alpha gamma"
            if i % 3 == 0:
                t += " beta delta"
            docs.append(t)
        tab = pa.Table.from_arrays(
            [pa.array(docs, pa.string())], names=["text"]
        )
        got = association_rules(
            ray.data.from_arrow(tab).repartition(4),
            support=10,
            min_conf_milli=100,
        )
        # brute force
        from collections import Counter

        sets = [set(t.split()) for t in docs]
        icnt = Counter(tok for s in sets for tok in s)
        freq = {t for t, c in icnt.items() if c >= 10}
        pcnt = Counter()
        for s in sets:
            f = sorted(s & freq)
            for x in range(len(f)):
                for y in range(x + 1, len(f)):
                    pcnt[(f[x], f[y])] += 1
        exp = []
        n = len(docs)
        for (t1, t2), c in pcnt.items():
            if c < 10:
                continue
            for a, b in ((t1, t2), (t2, t1)):
                conf = 1000 * c // icnt[a]
                if conf >= 100:
                    exp.append(
                        (a, b, c, icnt[a], icnt[b], conf,
                         1000 * c * n // (icnt[a] * icnt[b]))
                    )
        exp.sort()
        got_rows = sorted(
            tuple(r) for r in got.itertuples(index=False, name=None)
        )
        assert got_rows == exp

    def test_empty_corpus_returns_typed_empty(self, ray_session):
        import ray

        from pdf_extractor_ray.ops.itemsets import association_rules

        tab = pa.Table.from_arrays(
            [pa.array(["", ""], pa.string())], names=["text"]
        )
        df = association_rules(ray.data.from_arrow(tab), support=1)
        assert len(df) == 0
        assert df["pair_cnt"].dtype == "int64"

    def test_forced_cap_semijoin_regime_identical(self, ray_session):
        """frequent_cap=0 forces the distributed rules regime (semi-join
        pair totals + two attach_lookup count exchanges); bit-identical
        to the broadcast path."""
        import ray

        from pdf_extractor_ray.ops.itemsets import association_rules

        docs = []
        for i in range(60):
            t = "alpha beta" if i % 2 == 0 else "alpha gamma"
            if i % 3 == 0:
                t += " beta delta"
            docs.append(t)
        tab = pa.Table.from_arrays(
            [pa.array(docs, pa.string())], names=["text"]
        )
        ds = ray.data.from_arrow(tab).repartition(4)
        want = association_rules(ds, support=10, min_conf_milli=100)
        got = association_rules(
            ds, support=10, min_conf_milli=100, frequent_cap=0
        )
        assert got.to_dict("records") == want.to_dict("records")


class TestPublishDates:
    """Round 5: htmldate-style precedence ladder, exact rules."""

    def test_precedence_meta_over_time(self):
        from pdf_extractor_ray.functions.metadata import extract_publish_date

        html = (
            '<meta property="article:published_time" content="2024-03-07T10:00:00Z">'
            '<time datetime="1999-01-01">wrong</time>'
        )
        assert extract_publish_date(html) == ("meta", "2024-03-07")

    def test_implausible_falls_through(self):
        from pdf_extractor_ray.functions.metadata import extract_publish_date

        html = (
            '<meta name="date" content="3000-01-01">'
            '<time datetime="2020-05-06">ok</time>'
        )
        assert extract_publish_date(html) == ("time", "2020-05-06")

    def test_date_modified_is_not_date(self):
        from pdf_extractor_ray.functions.metadata import extract_publish_date

        html = '<meta name="dateModified" content="2024-05-01">'
        assert extract_publish_date(html) == ("none", "")
        html += '<meta name=date content="2023-04-05"><time datetime="2020-05-06">t</time>'
        assert extract_publish_date(html) == ("meta", "2023-04-05")

    def test_url_fallback_and_none(self):
        from pdf_extractor_ray.functions.metadata import extract_publish_date

        assert extract_publish_date(
            "", "https://ex.com/blog/2021/07/post"
        ) == ("url", "2021-07-01")
        assert extract_publish_date(
            "", "https://ex.com/blog/3021/07/post"
        ) == ("none", "")
        assert extract_publish_date("no dates here") == ("none", "")

    def test_jsonld_and_padding(self):
        from pdf_extractor_ray.functions.metadata import extract_publish_date

        html = '<script type="application/ld+json">{"datePublished": "2023-1-2"}</script>'
        assert extract_publish_date(html) == ("jsonld", "2023-01-02")

    def test_batch_shape(self):
        import pyarrow as pa

        from pdf_extractor_ray.functions.metadata import publish_date_batch

        t = pa.Table.from_arrays(
            [
                pa.array([1, 2], pa.int64()),
                pa.array(["https://e.com/2020/02/x", "https://e.com/a"], pa.string()),
                pa.array([b"<p>x</p>", None], pa.binary()),
            ],
            names=["doc_id", "url", "html"],
        )
        rows = publish_date_batch(t).to_pylist()
        assert rows[0] == {"doc_id": 1, "date_source": "url", "pub_date": "2020-02-01"}
        assert rows[1] == {"doc_id": 2, "date_source": "none", "pub_date": ""}
