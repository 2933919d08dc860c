"""WARC source / sink — the native interchange format of Common-Crawl-style
corpora (ISO 28500).

The reference ingests uploaded files one request at a time
(reference: src/services/pdf_input_handler.py:30-106); at crawl scale the
equivalent ingest is WARC: gzip-member-per-record archive files of HTTP
responses. This module is a from-scratch WARC/1.0 writer + reader:

* ``records_to_warc`` serializes ``(url, warc_ts, payload)`` rows into one
  WARC blob — each record an independent gzip member (the Common Crawl
  layout, so a reader can seek to a record offset and inflate just that
  member) or plain concatenation.
* ``parse_warc`` walks a blob member-by-member, parses WARC headers,
  honours ``Content-Length`` exactly (payload bytes are NEVER scanned for
  delimiters — binary-safe), strips the embedded HTTP/1.1 response header,
  and yields the engine's pages schema.
* ``write_warc`` / ``read_warc`` are the Dataset-level sink/source:
  partitioned ``.warc.gz`` shards out, streaming parse in
  (``read_binary_files`` → ``flat_map``-style ``map_batches``), so a crawl
  archive never materializes on the driver.

Scale note (SCALE.md): one input file = one read task; records parse
inside ``map_batches`` with zero driver involvement. Writer shards by
block, so output file count tracks parallelism, not corpus size.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import struct
import zlib
from datetime import datetime, timezone

import numpy as np
import pyarrow as pa

WARC_VERSION = b"WARC/1.0"
_CRLF = b"\r\n"
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


class WarcError(ValueError):
    """Typed parse error: malformed version line, header, or truncation."""


def _warc_date(ts_us: int) -> str:
    """Microsecond epoch → WARC-Date (``YYYY-MM-DDTHH:MM:SSZ``)."""
    dt = datetime.fromtimestamp(ts_us / 1_000_000, tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse_warc_date(s: str) -> int:
    dt = datetime.strptime(s, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
    return int((dt - _EPOCH).total_seconds()) * 1_000_000


def _record_id(url: str, ts_us: int) -> str:
    """Deterministic WARC-Record-ID (uuid-shaped, derived, reproducible)."""
    h = hashlib.sha1(f"{url}\x00{ts_us}".encode()).hexdigest()
    return (
        f"<urn:uuid:{h[0:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:32]}>"
    )


def _chunk_body(data: bytes, chunk: int = 100) -> bytes:
    """HTTP/1.1 chunked framing with fixed chunk size (deterministic)."""
    out = bytearray()
    for i in range(0, len(data), chunk):
        piece = data[i : i + chunk]
        out += f"{len(piece):x}".encode() + _CRLF + piece + _CRLF
    out += b"0" + _CRLF + _CRLF
    return bytes(out)


def build_record(url: str, ts_us: int, payload: bytes,
                 content_type: str = "text/html; charset=utf-8",
                 record_type: str = "response",
                 http_status: int = 200,
                 http_coding: str = "identity") -> bytes:
    """One uncompressed WARC record. ``record_type="response"`` wraps the
    payload in an HTTP/1.1 reply (the WARC crawl product);
    ``"conversion"`` carries it directly (the WET extracted-text
    product). ``http_coding`` applies the as-captured response codings
    real crawls store: ``gzip`` / ``deflate`` (Content-Encoding),
    ``chunked`` (Transfer-Encoding), or ``gzip+chunked`` (gzip, then
    chunk-framed — the wire order). The WARC payload digest covers the
    STORED (coded) bytes, per the spec."""
    if record_type == "response":
        reason = {200: "OK", 301: "Moved Permanently", 404: "Not Found",
                  403: "Forbidden", 500: "Internal Server Error"}.get(
            http_status, "Unknown")
        coded = payload
        extra = b""
        if http_coding in ("gzip", "gzip+chunked"):
            coded = gzip.compress(coded, mtime=0)
            extra += b"Content-Encoding: gzip" + _CRLF
        elif http_coding == "deflate":
            coded = zlib.compress(coded)
            extra += b"Content-Encoding: deflate" + _CRLF
        elif http_coding not in ("identity", "chunked"):
            raise ValueError(f"unsupported http_coding {http_coding!r}")
        if http_coding in ("chunked", "gzip+chunked"):
            coded = _chunk_body(coded)
            extra += b"Transfer-Encoding: chunked" + _CRLF
            length_line = b""  # chunked responses omit Content-Length
        else:
            length_line = (
                b"Content-Length: " + str(len(coded)).encode() + _CRLF
            )
        payload = coded
        body = (
            f"HTTP/1.1 {http_status} {reason}".encode() + _CRLF
            + b"Content-Type: " + content_type.encode("ascii") + _CRLF
            + extra + length_line
            + _CRLF
            + payload
        )
        body_ct = b"application/http; msgtype=response"
    elif record_type == "conversion":
        body = payload
        body_ct = content_type.encode("ascii")
    elif record_type == "metadata":
        # the WAT layout: a JSON envelope describing another record
        body = payload
        body_ct = b"application/json"
    else:
        raise ValueError(f"unsupported record_type {record_type!r}")
    digest = hashlib.sha1(payload).hexdigest()
    headers = [
        WARC_VERSION,
        b"WARC-Type: " + record_type.encode("ascii"),
        b"WARC-Record-ID: " + _record_id(url, ts_us).encode(),
        b"WARC-Date: " + _warc_date(ts_us).encode(),
        b"WARC-Target-URI: " + url.encode(),
        b"WARC-Payload-Digest: sha1:" + digest.encode(),
        b"Content-Type: " + body_ct,
        b"Content-Length: " + str(len(body)).encode(),
    ]
    return _CRLF.join(headers) + _CRLF + _CRLF + body + _CRLF + _CRLF


def _gzip_member(record: bytes) -> bytes:
    """One record → one gzip member, mtime pinned to 0 for determinism."""
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
        gz.write(record)
    return buf.getvalue()


def records_to_warc(urls, ts_list, payloads, compress: bool = True,
                    record_type: str = "response",
                    content_type: str = "text/html; charset=utf-8",
                    statuses=None, content_types=None,
                    http_codings=None) -> bytes:
    """Rows → one WARC blob (gzip member per record when ``compress``).
    ``statuses`` / ``content_types`` / ``http_codings`` optionally vary
    the HTTP reply per record (lists aligned with ``urls``)."""
    out = []
    for i, (url, ts, payload) in enumerate(zip(urls, ts_list, payloads)):
        rec = build_record(
            url, int(ts), bytes(payload),
            content_type=content_types[i] if content_types else content_type,
            record_type=record_type,
            http_status=statuses[i] if statuses else 200,
            http_coding=http_codings[i] if http_codings else "identity",
        )
        out.append(_gzip_member(rec) if compress else rec)
    return b"".join(out)


def _inflate_member(blob: bytes, pos: int) -> tuple[bytes, int]:
    """Inflate ONE gzip member starting at ``pos``; return (data, next_pos).
    Corrupt deflate data raises typed :class:`WarcError` (round-5 fuzz:
    a raw ``zlib.error`` leaked to strict callers)."""
    d = zlib.decompressobj(wbits=16 + zlib.MAX_WBITS)
    try:
        data = d.decompress(blob[pos:])
    except zlib.error as exc:
        raise WarcError(f"corrupt gzip member: {exc}") from exc
    if not d.eof:
        raise WarcError("truncated gzip member")
    consumed = len(blob) - pos - len(d.unused_data)
    return data, pos + consumed


def _parse_one(rec: bytes) -> dict:
    """Parse one uncompressed WARC record → dict, Content-Length exact."""
    head_end = rec.find(_CRLF + _CRLF)
    if head_end < 0:
        raise WarcError("missing end of WARC header block")
    lines = rec[:head_end].split(_CRLF)
    if lines[0] != WARC_VERSION:
        raise WarcError(f"bad version line: {lines[0][:20]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        k, sep, v = line.partition(b":")
        if not sep:
            raise WarcError(f"malformed header line: {line[:40]!r}")
        headers[k.decode("ascii").strip().lower()] = v.decode("utf-8").strip()
    try:
        clen = int(headers["content-length"])
    except (KeyError, ValueError) as exc:
        raise WarcError("missing/invalid Content-Length") from exc
    body = rec[head_end + 4 : head_end + 4 + clen]
    if len(body) != clen:
        raise WarcError("truncated record body")
    payload = body
    http_status = None
    http_content_type = None
    http_coding = "identity"
    transfer_chunked = False
    content_encoding = ""
    if headers.get("content-type", "").startswith("application/http"):
        http_end = body.find(_CRLF + _CRLF)
        if http_end < 0:
            raise WarcError("missing end of HTTP header block")
        http_lines = body[:http_end].split(_CRLF)
        status_parts = http_lines[0].split(b" ", 2)
        if len(status_parts) >= 2 and status_parts[1].isdigit():
            http_status = int(status_parts[1])
        for hl in http_lines[1:]:
            hk, hsep, hv = hl.partition(b":")
            if not hsep:
                continue
            key = hk.decode("ascii", "replace").strip().lower()
            val = hv.decode("utf-8", "replace").strip()
            if key == "content-type" and http_content_type is None:
                http_content_type = val
            elif key == "transfer-encoding":
                transfer_chunked = "chunked" in val.lower()
            elif key == "content-encoding":
                content_encoding = val.lower()
        payload = body[http_end + 4 :]
    # Digest covers the STORED payload (before any decoding), per spec.
    digest_ok = headers.get("warc-payload-digest", "") in (
        "", "sha1:" + hashlib.sha1(payload).hexdigest()
    )
    # As-captured response codings (round 5): de-chunk, then decompress.
    if transfer_chunked:
        payload = _dechunk(payload)
        http_coding = "chunked"
    if content_encoding in ("gzip", "x-gzip"):
        try:
            payload = gzip.decompress(payload)
        # truncated member → EOFError; corrupt deflate data → zlib.error
        except (OSError, EOFError, zlib.error) as exc:
            raise WarcError(f"bad gzip response body: {exc}") from exc
        http_coding = (
            "gzip+chunked" if transfer_chunked else "gzip"
        )
    elif content_encoding == "deflate":
        try:  # zlib-wrapped first, raw-deflate fallback (both occur)
            payload = zlib.decompress(payload)
        except zlib.error:
            try:
                payload = zlib.decompress(payload, -15)
            except zlib.error as exc:
                raise WarcError(f"bad deflate body: {exc}") from exc
        http_coding = "deflate"
    elif content_encoding in ("br", "zstd"):
        raise NotImplementedError(
            f"{content_encoding} content-encoding is declared-unsupported "
            "(no stdlib codec); gzip/deflate/chunked are implemented"
        )
    return {
        "http_status": http_status,
        "http_content_type": http_content_type,
        "http_coding": http_coding,
        "url": headers.get("warc-target-uri", ""),
        "warc_ts": _parse_warc_date(headers["warc-date"]),
        "payload": payload,
        "warc_type": headers.get("warc-type", ""),
        "digest_ok": digest_ok,
    }


def _dechunk(body: bytes) -> bytes:
    """Decode an HTTP/1.1 chunked body (size lines in hex, optional
    chunk extensions, terminating 0-chunk; trailers ignored)."""
    out = bytearray()
    pos = 0
    while True:
        nl = body.find(_CRLF, pos)
        if nl < 0:
            raise WarcError("chunked body: missing size line")
        try:
            size = int(body[pos:nl].split(b";")[0].strip() or b"0", 16)
        except ValueError as exc:
            raise WarcError("chunked body: bad size line") from exc
        pos = nl + 2
        if size == 0:
            return bytes(out)
        piece = body[pos : pos + size]
        if len(piece) != size:
            raise WarcError("chunked body: truncated chunk")
        out += piece
        if body[pos + size : pos + size + 2] != _CRLF:
            raise WarcError("chunked body: chunk missing CRLF")
        pos += size + 2


def parse_warc(blob: bytes) -> list[dict]:
    """Parse a WARC blob (gzip-member stream or plain concatenation)."""
    records = []
    pos, n = 0, len(blob)
    compressed = blob[:2] == b"\x1f\x8b"
    while pos < n:
        if compressed:
            rec, pos = _inflate_member(blob, pos)
            records.append(_parse_one(rec))
        else:
            # plain records: header declares the body length, so the walk
            # is exact — find this record's header, skip its body.
            head_end = blob.find(_CRLF + _CRLF, pos)
            if head_end < 0:
                raise WarcError("missing end of WARC header block")
            rec_head = blob[pos:head_end]
            clen = None
            for line in rec_head.split(_CRLF):
                if line.lower().startswith(b"content-length:"):
                    clen = int(line.split(b":", 1)[1])
            if clen is None:
                raise WarcError("missing/invalid Content-Length")
            end = head_end + 4 + clen + 4
            records.append(_parse_one(blob[pos:end]))
            pos = end
    return records


# ---------------------------------------------------------------------------
# Dataset-level source / sink
# ---------------------------------------------------------------------------

_GZ_MAGIC = b"\x1f\x8b\x08"


def parse_warc_salvage(blob: bytes) -> list[dict]:
    """TOLERANT WARC walk for real crawl archives: corrupt gzip members
    (bit rot, truncation) and malformed records are SKIPPED by scanning
    to the next gzip-member magic (or ``WARC/1.0`` line for plain
    streams) instead of failing the whole blob — every intact record
    still parses with the same strictness as :func:`parse_warc`
    (digest, lengths). Returns the recovered records; blob-level loss
    is the caller's census (``expected − len(recovered)``)."""
    records: list[dict] = []
    pos, n = 0, len(blob)
    compressed = blob[:2] == b"\x1f\x8b"
    while pos < n:
        try:
            if compressed:
                rec, nxt = _inflate_member(blob, pos)
            else:
                head_end = blob.find(_CRLF + _CRLF, pos)
                if head_end < 0:
                    break
                clen = None
                for line in blob[pos:head_end].split(_CRLF):
                    if line.lower().startswith(b"content-length:"):
                        clen = int(line.split(b":", 1)[1])
                if clen is None:
                    raise WarcError("missing/invalid Content-Length")
                nxt = head_end + 4 + clen + 4
                rec = blob[pos:nxt]
            records.append(_parse_one(rec))
            pos = nxt
        except (WarcError, NotImplementedError, OSError, EOFError, zlib.error,
                ValueError, KeyError):
            skip_to = (
                blob.find(_GZ_MAGIC, pos + 1)
                if compressed
                else blob.find(b"WARC/1.0\r\n", pos + 1)
            )
            if skip_to < 0:
                break
            pos = skip_to
    return records


def warc_encode_batch(batch: pa.Table, records_per_blob: int = 8,
                      compress: bool | str = True,
                      payload_col: str = "html",
                      record_type: str = "response",
                      content_type: str = "text/html; charset=utf-8") -> pa.Table:
    """Pages batch → WARC blobs column (``records_per_blob`` rows each).
    ``compress="mixed"`` alternates gzip/plain blobs (covers both parse
    paths in one corpus); ``record_type="conversion"`` emits the WET
    extracted-text layout."""
    urls = batch["url"].to_pylist()
    ts = batch["warc_ts"].cast(pa.int64()).to_pylist()
    payloads = batch[payload_col].to_pylist()
    blobs = []
    for k, i in enumerate(range(0, len(urls), records_per_blob)):
        j = i + records_per_blob
        comp = (k % 2 == 0) if compress == "mixed" else bool(compress)
        blobs.append(
            records_to_warc(
                urls[i:j], ts[i:j], payloads[i:j], comp,
                record_type=record_type, content_type=content_type,
            )
        )
    return pa.Table.from_arrays([pa.array(blobs, pa.binary())], names=["warc"])


def warc_decode_batch(batch: pa.Table,
                      types: tuple = ("response",)) -> pa.Table:
    """WARC blobs column → pages rows (url, warc_ts, html); ``types``
    selects the record kinds kept (("conversion",) reads WET files)."""
    urls: list[str] = []
    ts: list[int] = []
    html: list[bytes] = []
    for blob in batch["warc"].to_pylist():
        for rec in parse_warc(blob):
            if rec["warc_type"] not in types:
                continue
            if not rec["digest_ok"]:
                raise WarcError(f"payload digest mismatch for {rec['url']}")
            urls.append(rec["url"])
            ts.append(rec["warc_ts"])
            html.append(rec["payload"])
    return pa.Table.from_arrays(
        [
            pa.array(urls, pa.string()),
            pa.array(np.asarray(ts, dtype=np.int64)).cast(pa.timestamp("us")),
            pa.array(html, pa.binary()),
        ],
        names=["url", "warc_ts", "html"],
    )


def write_warc(ds, out_dir: str, records_per_blob: int = 8,
               payload_col: str = "html", record_type: str = "response",
               content_type: str = "text/html; charset=utf-8",
               suffix: str = ".warc.gz") -> list[str]:
    """Sink: pages Dataset → partitioned ``.warc.gz`` (or, with
    ``record_type="conversion"``, ``.wet.gz``) shards. Files are written
    INSIDE the tasks (never routed through the driver) and named by
    content hash, so a re-run overwrites byte-identical files in place —
    idempotent, resumable output."""
    import os

    os.makedirs(out_dir, exist_ok=True)

    def encode_and_write(batch: pa.Table) -> pa.Table:
        blobs = warc_encode_batch(
            batch, records_per_blob, payload_col=payload_col,
            record_type=record_type, content_type=content_type,
        )
        paths = []
        for blob in blobs["warc"].to_pylist():
            name = hashlib.sha1(blob).hexdigest()[:16]
            path = os.path.join(out_dir, f"part-{name}{suffix}")
            tmp = path + ".tmp"
            with open(tmp, "wb") as f:
                f.write(blob)
            os.replace(tmp, path)  # atomic: readers never see partial files
            paths.append(path)
        return pa.Table.from_arrays([pa.array(paths, pa.string())], names=["path"])

    return sorted(
        ds.map_batches(encode_and_write, batch_format="pyarrow")
        .to_pandas()["path"]
        .tolist()
    )


def read_warc(paths: str | list[str], types: tuple = ("response", "conversion")):
    """Source: ``.warc.gz`` / ``.wet.gz`` shards → pages Dataset
    (streaming parse); ``types`` selects the record kinds kept."""
    import ray.data as rd

    files = rd.read_binary_files(paths)

    def decode(batch: pa.Table) -> pa.Table:
        return warc_decode_batch(
            pa.Table.from_arrays([batch["bytes"]], names=["warc"]), types=types
        )

    return files.map_batches(decode, batch_format="pyarrow")


def wat_encode_batch(batch: pa.Table, records_per_blob: int = 8,
                     compress: bool | str = True,
                     html_col: str = "html") -> pa.Table:
    """Pages batch → WAT blobs: one ``metadata``-type WARC record per page
    whose payload is the deterministic JSON envelope (Common-Crawl WAT
    subset — WARC header echo + HTML head title + href list). JSON is
    canonical (sorted keys, no spaces) so the roundtrip is byte-stable.
    """
    import json

    from ..functions.metadata import parse_head_meta
    from ..ops.links import _HREF_RE

    urls = batch["url"].to_pylist()
    ts = batch["warc_ts"].cast(pa.int64()).to_pylist()
    htmls = batch[html_col].to_pylist()
    payloads = []
    for url, t, html in zip(urls, ts, htmls):
        text = (
            html.decode("utf-8", errors="replace")
            if isinstance(html, (bytes, bytearray))
            else (html or "")
        )
        meta = parse_head_meta(text)
        links = _HREF_RE.findall(text)
        env = {
            "Envelope": {
                "WARC-Header-Metadata": {
                    "WARC-Target-URI": url,
                    "WARC-Date": _warc_date(int(t)),
                    "WARC-Type": "response",
                },
                "Payload-Metadata": {
                    "HTML-Metadata": {
                        "Head": {"Title": meta["title"]},
                        "Links": [{"url": h} for h in links],
                    }
                },
            }
        }
        payloads.append(
            json.dumps(env, sort_keys=True, separators=(",", ":")).encode()
        )
    blobs = []
    for k, i in enumerate(range(0, len(urls), records_per_blob)):
        j = i + records_per_blob
        comp = (k % 2 == 0) if compress == "mixed" else bool(compress)
        blobs.append(
            records_to_warc(
                urls[i:j], ts[i:j], payloads[i:j], comp,
                record_type="metadata", content_type="application/json",
            )
        )
    return pa.Table.from_arrays([pa.array(blobs, pa.binary())], names=["warc"])


def wat_decode_batch(batch: pa.Table) -> pa.Table:
    """WAT blobs → one row per described page: ``(url, warc_ts, title,
    n_links)`` parsed from the JSON envelope (digest-checked)."""
    import json

    urls, ts, titles, n_links = [], [], [], []
    for blob in batch["warc"].to_pylist():
        for rec in parse_warc(blob):
            if rec["warc_type"] != "metadata":
                continue
            if not rec["digest_ok"]:
                raise WarcError(f"payload digest mismatch for {rec['url']}")
            env = json.loads(rec["payload"].decode())["Envelope"]
            hm = env["Payload-Metadata"]["HTML-Metadata"]
            urls.append(env["WARC-Header-Metadata"]["WARC-Target-URI"])
            ts.append(rec["warc_ts"])
            titles.append(hm["Head"]["Title"])
            n_links.append(len(hm["Links"]))
    return pa.Table.from_arrays(
        [
            pa.array(urls, pa.string()),
            pa.array(np.asarray(ts, dtype=np.int64)).cast(pa.timestamp("us")),
            pa.array(titles, pa.string()),
            pa.array(np.asarray(n_links, dtype=np.int64)),
        ],
        names=["url", "warc_ts", "title", "n_links"],
    )


def http_stats_batch(batch: pa.Table) -> pa.Table:
    """WARC blobs → per-block pre-combined crawl-health partials:
    ``(http_status, mime, cnt)`` per response record (mime = the
    media-type of the HTTP Content-Type, parameters stripped). Feed into
    one ``groupby(status, mime).sum`` — the exchange is
    status×mime-sized, never record-sized."""
    keys: list[str] = []
    for blob in batch["warc"].to_pylist():
        for rec in parse_warc(blob):
            if rec["warc_type"] != "response":
                continue
            status = rec["http_status"]
            ct = (rec["http_content_type"] or "").split(";")[0].strip().lower()
            keys.append(f"{status if status is not None else -1}\x00{ct}")
    if not keys:
        return pa.Table.from_arrays(
            [
                pa.array([], pa.int64()),
                pa.array([], pa.string()),
                pa.array([], pa.int64()),
            ],
            names=["http_status", "mime", "cnt"],
        )
    u, c = np.unique(np.array(keys, dtype=object), return_counts=True)
    pairs = [k.split("\x00", 1) for k in u]
    return pa.Table.from_arrays(
        [
            pa.array([int(p[0]) for p in pairs], pa.int64()),
            pa.array([p[1] for p in pairs], pa.string()),
            pa.array(c, pa.int64()),
        ],
        names=["http_status", "mime", "cnt"],
    )
