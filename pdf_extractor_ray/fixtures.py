"""Deterministic synthetic pages-table generator (FIXTURES.md).

Produces the engine's input table — one row per Common-Crawl-style web page,
schema ``(url, warc_ts, html:binary, text, lang)`` per BASELINE.json
``input_hint`` — with the payload mix of FIXTURES.md §1 (articles, tables
split across pages, oversized docs, toy-PDF binaries, degenerate rows) and
the §3 perturbation catalog for the validate stage.

Everything is keyed off ``doc_id`` with ``random.Random(seed * P + doc_id)``
so generation is byte-reproducible, order-independent and shardable: any
subset of doc_ids can be generated in any worker in any order
(``pages_batch`` is designed to run inside ``map_batches`` over
``ray.data.range`` for large scales).

Mirrors the reference's fixture strategy of unit fixtures + small e2e corpus
with golden outputs (reference: tests/test_validation_service.py:16-62,
tests/test_pdfs/README.md).
"""

from __future__ import annotations

import random

import numpy as np
import pyarrow as pa

from .functions.html_extract import extract_html
from .functions.pdf_extract import layout_text

EPOCH_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z in microseconds

WORDS = (
    "quarter revenue growth market report statement account balance total "
    "income expense profit margin asset liability equity cash flow credit "
    "debit payment transaction transfer deposit branch customer analysis "
    "summary annual period fiscal audit review board note table figure "
    "section chapter overview detail result increase decrease change rate "
    "interest loan fund capital share price value index fee cost budget"
).split()

HE_WORDS = (
    "יתרה חשבון סכום זכות חובה תאריך עסקה תשלום דוח כספי מאזן רווח הפסד "
    "הכנסות הוצאות בנק סניף לקוח העברה הפקדה"
).split()

DE_WORDS = (
    "bericht konto saldo betrag zahlung datum bank filiale kunde gewinn "
    "verlust einnahmen ausgaben kapital zins kredit überweisung quartal "
    "jahr prüfung übersicht detail ergebnis wert preis"
).split()

LANG_CYCLE = ("en", "he", "de", "en", "en")

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)


def _words_for(lang: str) -> tuple[str, ...]:
    if lang == "he":
        return tuple(HE_WORDS)
    if lang == "de":
        return tuple(DE_WORDS)
    return tuple(WORDS)


def _url_for(doc_id: int, rng: random.Random) -> str:
    site = doc_id % 97
    path = "-".join(rng.choice(WORDS) for _ in range(2))
    return f"https://site{site:04d}.example/{path}/{doc_id:08d}"


def _paragraph(rng: random.Random, words: tuple[str, ...], lo: int = 20, hi: int = 60) -> str:
    return " ".join(rng.choice(words) for _ in range(rng.randint(lo, hi)))


def _nav_html(rng: random.Random) -> str:
    links = "".join(
        f'<a href="/{w}">{w.capitalize()}</a> ' for w in rng.sample(WORDS, 6)
    )
    return f"<nav>{links}</nav>"


def _shell(rng: random.Random, body: str) -> str:
    """Boilerplate shell: nav, cookie banner, sidebar, footer around body."""
    sidebar = "".join(f'<a href="/{w}">{w}</a><br>' for w in rng.sample(WORDS, 8))
    return (
        "<html><head><title>Example</title><script>var x=1;</script>"
        "<style>p{margin:0}</style></head><body>"
        + _nav_html(rng)
        + '<div class="cookie-banner">We use cookies. <a href="/accept">Accept</a></div>'
        + f"<aside class='sidebar'>{sidebar}</aside>"
        + body
        + "<footer>© 2026 Example Corp · "
        + " · ".join(rng.sample(WORDS, 4))
        + "</footer></body></html>"
    )


def _article_html(rng: random.Random, lang: str) -> str:
    words = _words_for(lang)
    title = " ".join(rng.choice(words) for _ in range(3)).title()
    paras = []
    for _ in range(rng.randint(3, 8)):
        text = _paragraph(rng, words)
        # Real-world HTML features: inline markup, entities, comments,
        # wrapper divs — extraction must see through all of them.
        style = rng.randint(0, 5)
        if style == 0:
            body = text.split()
            mid = len(body) // 2
            text = (
                " ".join(body[:mid])
                + f" <b>{body[mid]}</b> "
                + " ".join(body[mid + 1 :])
            )
        elif style == 1:
            text = text.replace(" ", " &amp; ", 1)
        elif style == 2:
            text = f"<!-- editorial note --> {text}"
        elif style == 3:
            text = f"<em>{text}</em>"
        paras.append(f"<p>{text}</p>")
    body = f"<article><h1>{title}</h1>{''.join(paras)}</article>"
    if rng.random() < 0.3:
        body = f"<div><div>{body}</div></div>"
    return _shell(rng, body)


def _statement_rows(rng: random.Random, n: int, start_balance: float) -> list[list[str]]:
    rows = []
    balance = start_balance
    for i in range(n):
        amount = round(rng.uniform(10, 400), 2)
        debit = rng.random() < 0.5
        balance = round(balance - amount if debit else balance + amount, 2)
        rows.append(
            [
                f"{(i % 28) + 1:02d}/03/2026",
                rng.choice(WORDS),
                f"R{rng.randint(1000, 9999)}",
                f"{amount:,.2f}" if debit else "",
                "" if debit else f"{amount:,.2f}",
                f"{balance:,.2f}",
            ]
        )
    return rows


_STMT_HEADERS = ["Date", "Description", "Reference", "Debit", "Credit", "Balance"]
_STMT_HEADERS_HE = ["תאריך", "סוג תנועה", "אסמכתא", "חובה", "זכות", "יתרה מצטברת"]


def _table_html(headers: list[str], rows: list[list[str]], header_tag: str = "th") -> str:
    parts = ["<table>"]
    if headers:
        parts.append(
            "<tr>" + "".join(f"<{header_tag}>{h}</{header_tag}>" for h in headers) + "</tr>"
        )
    for row in rows:
        parts.append("<tr>" + "".join(f"<td>{c}</td>" for c in row) + "</tr>")
    parts.append("</table>")
    return "".join(parts)


def _bank_statement_html(rng: random.Random, lang: str) -> str:
    """Table payloads exercising every cross-page merge rule
    (reference: table_merger.py:102-186): repeated headers, headerless
    continuation, balance-only continuity."""
    headers = _STMT_HEADERS_HE if lang == "he" else _STMT_HEADERS
    balance = round(rng.uniform(1000, 9000), 2)
    rows_a = _statement_rows(rng, rng.randint(4, 7), balance)
    last_balance = float(rows_a[-1][-1].replace(",", ""))
    rows_b = _statement_rows(rng, rng.randint(3, 6), last_balance)
    last_balance_b = float(rows_b[-1][-1].replace(",", ""))
    rows_c = _statement_rows(rng, rng.randint(3, 5), last_balance_b)
    intro = f"<p>{_paragraph(rng, _words_for(lang), 25, 45)}</p>"
    # page 1: table with headers · page 2: same headers repeated (rule 2)
    # then a headerless continuation (rule 3) · page 3: continuation whose
    # first row only matches by balance continuity (rule 4).
    body = (
        f'<div class="page">{intro}{_table_html(headers, rows_a)}</div>'
        f'<div class="page">{_table_html(headers, rows_b[:2])}'
        f"{_table_html([], rows_b[2:], header_tag='td')}</div>"
        f'<div class="page">{_table_html(["X", "Y"], rows_c)}</div>'
    )
    return _shell(rng, body)


def _oversized_html(rng: random.Random, lang: str, doc_id: int) -> str:
    words = _words_for("en")
    n_pages = 64 if doc_id % 1000 != 7 else 96
    para_per_page = 2 if doc_id % 1000 != 7 else 40  # one ≥1MB row per 1000
    pages = []
    for _ in range(n_pages):
        paras = "".join(
            f"<p>{_paragraph(rng, words, 30, 50)}</p>" for _ in range(para_per_page)
        )
        pages.append(f'<div class="page">{paras}</div>')
    return _shell(rng, "".join(pages))


def _pdf_payload(rng: random.Random, lang: str, doc_id: int) -> bytes:
    words = _words_for("en")
    if doc_id % 100 == 58:  # two-column layout (reading-order exercise);
        # every other one is a genuine two-column %PDF-1.4 (same text → the
        # golden corpus is unchanged, only the payload encoding differs)
        from .functions.pdf_extract import layout_text_two_column

        left = "\n\n".join(_paragraph(rng, words, 15, 25) for _ in range(2))
        right = "\n\n".join(_paragraph(rng, words, 15, 25) for _ in range(2))
        if doc_id % 200 == 158:
            from .functions.pdf_codec import build_two_column_pdf

            return build_two_column_pdf(left, right, compress=True)
        return layout_text_two_column(left, right)
    n_paras = rng.randint(2, 5) if doc_id % 100 != 8 else 60  # some multi-page
    text = "\n\n".join(_paragraph(rng, words, 25, 55) for _ in range(n_paras))
    tail = doc_id % 100
    if tail in (18, 38, 78):  # genuine %PDF payloads — one per operator
        # style AND one per cross-reference form (classic table, PDF 1.5
        # xref stream, /ObjStm), and one per content-stream filter (none /
        # LZWDecode / FlateDecode): the real-parser share of the flagship
        # corpus. Filters are transport, not semantics — the golden text is
        # unchanged.
        from .functions.pdf_codec import build_pdf

        style = {18: "tm", 38: "td", 78: "tstar"}[tail]
        xref_kind = {18: "table", 38: "stream", 78: "objstm"}[tail]
        compress = {18: False, 38: "lzw", 78: True}[tail]
        # bucket 18 additionally uses a /Differences custom encoding
        # (codes shifted by one), bucket 38 a composite Type0/Identity-H
        # font (2-byte CID codes + 2-byte /ToUnicode — the modern
        # real-corpus default), bucket 78 a 1-byte /ToUnicode — font
        # decode of all three families in the flagship path
        font_encoding = {18: "differences", 38: "cid", 78: "tounicode"}[tail]
        return build_pdf(
            text,
            compress=compress,
            style=style,
            xref_kind=xref_kind,
            font_encoding=font_encoding,
        )
    return layout_text(text)


def _degenerate_html(rng: random.Random, variant: int) -> str:
    """One row per problem-detector fixture class
    (reference: problem_detector.py:33-403)."""
    if variant == 0:  # empty main content
        body = "<article></article>"
    elif variant == 1:  # garbled: >20% specials
        body = "<article><p>" + "@#$%^&*~`" * 40 + "abc def" + "</p></article>"
    elif variant == 2:  # repeated chars
        body = f"<article><p>prefix {'x' * 25} suffix {_paragraph(rng, tuple(WORDS))}</p></article>"
    elif variant == 3:  # empty tables (5+ | | | lines)
        rows = [["", "", ""] for _ in range(7)]
        body = "<article>" + _table_html(["A", "B", "C"], rows) + "</article>"
    elif variant == 4:  # header-only table
        body = "<article>" + _table_html(["A", "B", "C"], [["1", "2", "3"]]) + "</article>"
    elif variant == 5:  # duplicate paragraphs ×3
        para = _paragraph(rng, tuple(WORDS), 15, 20)
        body = "<article>" + f"<p>{para}</p>" * 3 + "</article>"
    elif variant == 6:  # repetitive numbers in table cells
        rows = [["1000", "1000", "1000"] for _ in range(3)]
        body = "<article>" + _table_html(["A", "B", "C"], rows) + "</article>"
    elif variant == 7:  # markdown image reference in text
        body = f"<article><p>see ![chart](figure-5.png) above {_paragraph(rng, tuple(WORDS))}</p></article>"
    else:  # unknown characters
        body = "<article><p>" + "□�☐ " * 30 + "words here" + "</p></article>"
    return _shell(rng, body)


def _perturb_text(rng: random.Random, text: str, variant: int) -> str:
    """FIXTURES.md §3 perturbation catalog for the validate stage."""
    if variant == 0:  # alter digits → number-frequency similarity drops
        return "".join(
            str((int(c) + 3) % 10) if c.isdigit() and rng.random() < 0.5 else c
            for c in text
        )
    if variant == 1:  # US → European number format (similarity ≈ 1.0)
        return text.replace(",", "\x00").replace(".", ",").replace("\x00", ".")
    if variant == 2:  # whitespace/punct-only change (Levenshtein on alnum = 1)
        return text.replace(" ", "  ").replace(".", " .")
    if variant == 3:  # truncation → low_content_density
        return text[:80]
    return text


def pages_batch(doc_ids: np.ndarray | list[int], seed: int = 42) -> pa.Table:
    """Generate pages rows for the given doc_ids (order-independent).

    Usable directly inside ``map_batches`` over ``ray.data.range(n)`` — the
    generation of a 10^12-row corpus is itself an embarrassingly parallel
    Ray Data job.
    """
    urls, tss, htmls, texts, langs = [], [], [], [], []
    for doc_id in (int(d) for d in doc_ids):
        rng = random.Random(seed * 1_000_003 + doc_id)
        lang = LANG_CYCLE[doc_id % len(LANG_CYCLE)]
        bucket = doc_id % 10
        if bucket <= 5:
            payload = _article_html(rng, lang).encode()
        elif bucket == 6:
            payload = _bank_statement_html(rng, lang).encode()
        elif bucket == 7:
            payload = _oversized_html(rng, lang, doc_id).encode()
        elif bucket == 8:
            payload = _pdf_payload(rng, lang, doc_id)
        else:
            payload = _degenerate_html(rng, doc_id % 9).encode()

        # The provided `text` column: the reference extraction this payload's
        # content is validated against (reference:
        # validation_orchestrator.py:219-241). Clean rows carry the golden
        # content; a deterministic 20% are perturbed (FIXTURES.md §3).
        if bucket == 8:
            from .functions.pdf_extract import extract_pdf

            golden, _ = extract_pdf(payload)
        else:
            golden, _ = extract_html(payload.decode())
        if bucket <= 6 and doc_id % 5 == 3:
            text = _perturb_text(rng, golden, doc_id % 4)
        else:
            text = golden

        urls.append(_url_for(doc_id, rng))
        tss.append(EPOCH_US + doc_id * 1_000_000)
        htmls.append(payload)
        texts.append(text)
        langs.append(lang)

    return pa.Table.from_arrays(
        [
            pa.array(urls, pa.string()),
            pa.array(tss, pa.timestamp("us")),
            pa.array(htmls, pa.binary()),
            pa.array(texts, pa.string()),
            pa.array(langs, pa.string()),
        ],
        schema=PAGES_SCHEMA,
    )


def generate_pages(n_rows: int = 200, seed: int = 42) -> pa.Table:
    """Single-process generation for tests (sf-small = 200 rows)."""
    return pages_batch(list(range(n_rows)), seed=seed)


def golden_extract(pages: pa.Table, config=None) -> dict[str, str]:
    """Single-process reference implementation of extract→validate over a
    pages table: whole-document extraction (no chunking) + the validate
    substitution policy, via the same pure functions the pipeline UDFs call
    (FIXTURES.md §2 — the byte-identity oracle). Returns url → final text.
    """
    from .config import EngineConfig
    from .functions.pdf_extract import extract_pdf
    from .functions.routing import sniff_payload_route
    from .functions.validate import validate_document

    config = config or EngineConfig()
    out: dict[str, str] = {}
    for i in range(len(pages)):
        url = pages["url"][i].as_py()
        payload = pages["html"][i].as_py()
        provided = pages["text"][i].as_py() or ""
        route = sniff_payload_route(payload)
        if route == "pdf":
            extracted, _ = extract_pdf(payload)
        elif route == "html":
            extracted, _ = extract_html(payload.decode("utf-8", errors="replace"))
        else:
            extracted = ""
        result = validate_document(
            extracted,
            provided,
            url,
            config.problems_enabled,
            similarity_method=config.validation_similarity_method,
        )
        out[url] = result.text
    return out
