"""Typed-error containment under fuzz (round 5): every wild-input
parser, fed (a) random byte soup and (b) mutated valid payloads, may
raise ONLY its declared typed errors — never a raw IndexError /
AttributeError / zlib.error. A crawl stage keys per-document
containment on the typed error; an untyped leak kills the task instead
of flagging the document. Seeds are fixed; each failure found by the
round-5 fuzz sweep (strict-WARC zlib.error, PDF graph-walk
AttributeError/TypeError, JPEG Huffman IndexError) is covered by the
wrap it forced."""

import numpy as np
import pytest

SEED = 20260821


def _rand_blobs(n, max_len=400, seed=SEED):
    rng = np.random.default_rng(seed)
    return [
        bytes(rng.integers(0, 256, int(rng.integers(0, max_len)),
                           dtype=np.uint8))
        for _ in range(n)
    ]


def _mutations(base, n, seed=SEED):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        b = bytearray(base)
        for _ in range(int(rng.integers(1, 12))):
            op = rng.integers(0, 3)
            pos = int(rng.integers(0, max(1, len(b))))
            if op == 0 and b:
                b[pos % len(b)] = int(rng.integers(0, 256))
            elif op == 1 and b:
                del b[pos % len(b)]
            else:
                b.insert(pos % (len(b) + 1), int(rng.integers(0, 256)))
        out.append(bytes(b))
    return out


def _assert_contained(parse, blobs, allowed):
    for i, blob in enumerate(blobs):
        try:
            parse(blob)
        except allowed:
            pass
        except Exception as exc:  # noqa: BLE001 — the point of the test
            raise AssertionError(
                f"untyped {type(exc).__name__} leaked on input {i}: {exc}"
            ) from exc


class TestRandomBytes:
    def test_html_extract_never_raises(self):
        from pdf_extractor_ray.functions.charset import decode_html_bytes
        from pdf_extractor_ray.functions.html_extract import extract_html

        for blob in _rand_blobs(80):
            text, _ = decode_html_bytes(blob)
            out, _ = extract_html(text)
            assert isinstance(out, str)

    def test_mp3_typed_only(self):
        from pdf_extractor_ray.ops.mp3 import Mp3Error, Mp3Unsupported, parse_mp3

        blobs = _rand_blobs(80) + [b"\xff\xfb" + b for b in _rand_blobs(40, seed=1)]
        _assert_contained(parse_mp3, blobs, (Mp3Error, Mp3Unsupported))

    def test_warc_salvage_never_raises(self):
        from pdf_extractor_ray.sources.warc import parse_warc_salvage

        blobs = _rand_blobs(80) + [
            b"WARC/1.0\r\n" + b for b in _rand_blobs(40, seed=2)
        ]
        for blob in blobs:
            assert isinstance(parse_warc_salvage(blob), list)

    def test_vp8_sitemap_pdf_typed_only(self):
        from pdf_extractor_ray.functions.pdf_codec import PdfError
        from pdf_extractor_ray.functions.pdf_extract import extract_pdf
        from pdf_extractor_ray.ops.webp import parse_vp8_header
        from pdf_extractor_ray.sources.sitemap import SitemapError, parse_sitemap

        blobs = _rand_blobs(60)
        _assert_contained(parse_vp8_header, blobs, (ValueError,))
        _assert_contained(parse_sitemap, blobs, (SitemapError,))
        _assert_contained(
            extract_pdf,
            [b"%PDF-1.4\n" + b for b in blobs],
            (PdfError, ValueError),
        )


class TestMutatedValidPayloads:
    def test_warc_strict_typed_only(self):
        from pdf_extractor_ray.sources.warc import (
            WarcError,
            _gzip_member,
            build_record,
            parse_warc,
        )

        base = b"".join(
            _gzip_member(
                build_record(
                    f"doc://x/{j}", 1_700_000_000_000_000 + j,
                    b"body %d" % j,
                    http_coding=["identity", "chunked", "gzip"][j % 3],
                )
            )
            for j in range(4)
        )
        _assert_contained(
            parse_warc, _mutations(base, 80),
            (WarcError, NotImplementedError),
        )

    @pytest.mark.parametrize("xref_kind", ["table", "objstm"])
    def test_pdf_typed_only(self, xref_kind):
        from pdf_extractor_ray.functions.pdf_codec import PdfError, build_pdf
        from pdf_extractor_ray.functions.pdf_extract import extract_pdf

        base = build_pdf(
            "hello world text " * 30, compress=True, xref_kind=xref_kind
        )
        _assert_contained(
            extract_pdf, _mutations(base, 60), (PdfError, ValueError)
        )

    def test_encrypted_pdf_typed_only(self):
        from pdf_extractor_ray.functions.pdf_codec import PdfError, build_pdf
        from pdf_extractor_ray.functions.pdf_extract import extract_pdf

        base = build_pdf("hello world text " * 30, encrypt=True, encrypt_rev=3)
        _assert_contained(
            extract_pdf, _mutations(base, 50), (PdfError, ValueError)
        )

    def test_jpeg_typed_only(self):
        from pdf_extractor_ray.ops.jpeg import (
            decode_jpeg,
            encode_jpeg_gray,
            encode_jpeg_progressive_gray,
        )

        img = (np.arange(256) % 256).astype(np.uint8).reshape(16, 16)
        for enc in (encode_jpeg_gray, encode_jpeg_progressive_gray):
            _assert_contained(
                decode_jpeg,
                _mutations(enc(img, quant_value=8), 50),
                (ValueError, NotImplementedError),
            )

    def test_mp3_typed_only(self):
        from pdf_extractor_ray.ops.mp3 import (
            Mp3Error,
            Mp3Unsupported,
            encode_mp3,
            parse_mp3,
        )

        base = encode_mp3(
            [1, 9, 14], crc=True, id3v2_payload=b"x" * 20,
            xing={"frames": 3, "bytes": 0},
        )
        _assert_contained(
            parse_mp3, _mutations(base, 80), (Mp3Error, Mp3Unsupported)
        )

    def test_webp_flac_typed_only(self):
        from pdf_extractor_ray.ops.flac import FlacError, decode_flac, encode_flac
        from pdf_extractor_ray.ops.webp import decode_webp, encode_webp_gray

        img = (np.arange(256) % 256).astype(np.uint8).reshape(16, 16)
        _assert_contained(
            decode_webp, _mutations(encode_webp_gray(img), 50),
            (ValueError, NotImplementedError),
        )
        sig = ((np.arange(2048) * 13) % 2048 - 1024).astype(np.int16)
        _assert_contained(
            decode_flac, _mutations(encode_flac(sig, blocksize=256), 50),
            (FlacError, ValueError),
        )


class TestMutatedMediaPayloads:
    """Round-5 second fuzz wave: the remaining media decoders. Each
    wrap/bound here was forced by a finding (PNG zlib.error, GIF/TIFF
    IndexError, a TIFF IFD count-field spin measured at multiple
    seconds per call, AVI struct.error)."""

    IMG = (np.arange(256) % 256).astype(np.uint8).reshape(16, 16)

    def test_png_typed_only(self):
        from pdf_extractor_ray.ops.multimodal import decode_png, encode_png

        _assert_contained(
            decode_png, _mutations(encode_png(self.IMG, 0, 2), 60),
            (ValueError, NotImplementedError),
        )

    def test_gif_typed_only(self):
        from pdf_extractor_ray.ops.jpeg import decode_gif, encode_gif_gray

        _assert_contained(
            decode_gif, _mutations(encode_gif_gray(self.IMG), 60),
            (ValueError, NotImplementedError),
        )

    @pytest.mark.parametrize("compression", [1, 5, 32773])
    def test_tiff_typed_only_and_bounded(self, compression):
        import time

        from pdf_extractor_ray.ops.jpeg import decode_tiff, encode_tiff_gray

        base = encode_tiff_gray(
            self.IMG, compression=compression,
            predictor=2 if compression == 5 else 1,
        )
        t0 = time.time()
        _assert_contained(
            decode_tiff, _mutations(base, 60),
            (ValueError, NotImplementedError),
        )
        # the IFD count-field spin fix: 60 corrupt files stay well
        # under a second TOTAL (pre-fix a single call took seconds)
        assert time.time() - t0 < 10

    def test_tiff_huge_count_field_rejected_fast(self):
        import time

        from pdf_extractor_ray.ops.jpeg import decode_tiff, encode_tiff_gray

        base = bytearray(encode_tiff_gray(self.IMG))
        # first IFD entry's count dword → 0xFFFFFFFF
        (ifd_off,) = np.frombuffer(base[4:8], np.uint32)
        base[ifd_off + 2 + 4 : ifd_off + 2 + 8] = b"\xff\xff\xff\xff"
        t0 = time.time()
        with pytest.raises(ValueError):
            decode_tiff(bytes(base))
        assert time.time() - t0 < 0.1

    def test_video_typed_only(self):
        from pdf_extractor_ray.ops.video import (
            VideoError,
            decode_video,
            encode_avi,
            encode_y4m,
        )

        frames = [
            ((np.arange(256) + f) % 256).astype(np.uint8).reshape(16, 16)
            for f in range(3)
        ]
        for enc in (encode_y4m, encode_avi):
            _assert_contained(
                decode_video, _mutations(enc(frames), 60),
                (VideoError, NotImplementedError),
            )

    def test_adpcm_g711_typed_only(self):
        from pdf_extractor_ray.ops.adpcm import decode_ima_wav, encode_ima_wav
        from pdf_extractor_ray.ops.g711 import decode_g711_wav, encode_g711_wav

        rng = np.random.default_rng(3)
        a = encode_ima_wav(
            np.arange(4) * 10, np.arange(4) % 89, rng.integers(0, 16, (4, 64))
        )
        _assert_contained(
            decode_ima_wav, _mutations(a, 50),
            (ValueError, NotImplementedError),
        )
        g = encode_g711_wav((np.arange(512) * 7) % 256, "mulaw")
        _assert_contained(
            decode_g711_wav, _mutations(g, 50),
            (ValueError, NotImplementedError),
        )


class TestVp8HeaderFuzz:
    def test_truncated_dimension_words_typed(self):
        from pdf_extractor_ray.ops.webp import (
            encode_vp8_header_webp,
            parse_vp8_header,
        )

        full = encode_vp8_header_webp(64, 48)
        # cut inside the 10-byte uncompressed header: always ValueError
        for cut in range(12, 12 + 8 + 10):
            blob = full[:cut]
            # keep the RIFF size field consistent with the truncation
            import struct as _s

            if len(blob) >= 16:
                body_len = max(0, len(blob) - 20)
                blob = (
                    blob[:4] + _s.pack("<I", len(blob) - 8) + blob[8:16]
                    + _s.pack("<I", body_len) + blob[20:]
                )
            with pytest.raises(ValueError):
                parse_vp8_header(blob)

    def test_mutation_fuzz_typed_only(self):
        from pdf_extractor_ray.ops.webp import (
            encode_vp8_header_webp,
            parse_vp8_header,
        )

        base = encode_vp8_header_webp(64, 48, filler=b"f" * 50)
        _assert_contained(
            parse_vp8_header, _mutations(base, 120, seed=202), (ValueError,)
        )


def _gzip_body_record(j: int, damage: str) -> bytes:
    """A ``Content-Encoding: gzip`` response record whose stored gzip body
    is truncated or has corrupt deflate data; lengths are kept consistent,
    so only the inner decompression can fail."""
    import gzip

    from pdf_extractor_ray.sources.warc import build_record

    payload = b"<p>body %d</p>" % j * 40
    good = gzip.compress(payload, mtime=0)
    bad = {
        "truncated": good[: len(good) // 2],  # EOFError from gzip
        "corrupt": good[:10] + bytes([good[10] ^ 0xFF]) + good[11:],  # zlib.error
        "crc": good[:-8] + bytes(8),  # BadGzipFile, an OSError
    }[damage]
    rec = build_record(f"doc://gz/{j}", 1_700_000_000_000_000 + j, payload, http_coding="gzip")
    head_end = rec.index(b"\r\n\r\n")
    body = rec[head_end + 4 : -4].replace(good, bad).replace(
        b"Content-Length: %d" % len(good), b"Content-Length: %d" % len(bad)
    )
    head = rec[:head_end].replace(
        b"Content-Length: %d" % (len(rec) - head_end - 8),
        b"Content-Length: %d" % len(body),
    )
    return head + b"\r\n\r\n" + body + b"\r\n\r\n"


class TestBadGzipResponseBody:
    @pytest.mark.parametrize("damage", ["truncated", "corrupt", "crc"])
    @pytest.mark.parametrize("compressed", [False, True])
    def test_strict_raises_warc_error(self, damage, compressed):
        from pdf_extractor_ray.sources.warc import WarcError, _gzip_member, parse_warc

        rec = _gzip_body_record(0, damage)
        with pytest.raises(WarcError, match="bad gzip response body"):
            parse_warc(_gzip_member(rec) if compressed else rec)

    @pytest.mark.parametrize("damage", ["truncated", "corrupt", "crc"])
    @pytest.mark.parametrize("compressed", [False, True])
    def test_salvage_skips_only_the_bad_record(self, damage, compressed):
        from pdf_extractor_ray.sources.warc import (
            _gzip_member,
            build_record,
            parse_warc_salvage,
        )

        recs = [
            build_record("doc://gz/a", 1_700_000_000_000_000, b"first", http_coding="gzip"),
            _gzip_body_record(1, damage),
            build_record("doc://gz/c", 1_700_000_000_000_002, b"third", http_coding="gzip"),
        ]
        blob = b"".join(_gzip_member(r) if compressed else r for r in recs)
        got = parse_warc_salvage(blob)
        assert [r["payload"] for r in got] == [b"first", b"third"]
