"""Traced single-threaded replay of the flagship stages, and the ledger.

The replay runs the same stage callables the pipeline hands to
``map_batches`` (``normalize_route`` → ``extract_batch`` →
``validate_batch``, then ``partial_metrics``) in this process, one batch of
``EngineConfig.html_batch_size`` rows at a time. Spans are recorded from
the benchmark's side only: the stage calls, and per-document calls into the
``functions.*`` entry points the stages make, reached by temporarily
rebinding those module attributes. Nothing in the package changes.

Span tree of one batch (the batch index is the span's trace id):

    batch
      stage.normalize
      stage.extract
        extract.doc            one per row; attrs: url, branch
      stage.validate
        validate.doc           one per row; attrs: url
          validate.detectors   functions.problems.detect_all_problems
          validate.similarity  functions.similarity.calculate_similarity
      stage.metrics

A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import json
import math
import re
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder; spans are written out once, at the end."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, trace, name, start_ns, end_ns, attrs]
        self._stack: list[int] = []
        self.trace_id: int | None = None

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, self.trace_id, name, time.perf_counter_ns(), 0, attrs]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec[5] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path: str) -> None:
        keys = ("id", "parent", "trace", "name", "start_ns", "end_ns", "attrs")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


@contextmanager
def _patched(tracer: Tracer, counters: dict):
    """Rebind the layer entry points to span-recording wrappers."""
    from pdf_extractor_ray.functions import problems, validate as fvalidate
    from pdf_extractor_ray.functions.routing import ROUTE_HTML, ROUTE_PDF
    from pdf_extractor_ray.stages import extract as sextract, validate as svalidate

    originals = [
        (sextract.DocumentExtractor, "_extract_one", sextract.DocumentExtractor._extract_one),
        (svalidate, "validate_document", svalidate.validate_document),
        (problems, "detect_all_problems", problems.detect_all_problems),
        (fvalidate, "calculate_similarity", fvalidate.calculate_similarity),
        (fvalidate, "has_any_problem", fvalidate.has_any_problem),
    ]
    extract_one, validate_document, detect, similarity, has_any = (o[2] for o in originals)

    def traced_extract_one(self, payload, route, needs_split, password=None):
        if payload is None or route not in (ROUTE_PDF, ROUTE_HTML):
            branch = "empty"
        elif needs_split and self.flavor == "article":
            branch = "split"
        else:
            branch = route
        with tracer.span("extract.doc", {"branch": branch}):
            return extract_one(self, payload, route, needs_split, password=password)

    def traced_validate_document(extracted, provided, url, *args, **kwargs):
        with tracer.span("validate.doc", {"url": url}):
            return validate_document(extracted, provided, url, *args, **kwargs)

    def traced_detect(content, enabled):
        with tracer.span("validate.detectors"):
            return detect(content, enabled)

    def traced_similarity(*args, **kwargs):
        with tracer.span("validate.similarity"):
            return similarity(*args, **kwargs)

    def counted_has_any(content, enabled):
        counters["validate.pages"] += 1
        return has_any(content, enabled)

    sextract.DocumentExtractor._extract_one = traced_extract_one
    svalidate.validate_document = traced_validate_document
    problems.detect_all_problems = traced_detect
    fvalidate.calculate_similarity = traced_similarity
    fvalidate.has_any_problem = counted_has_any
    try:
        yield
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)


def replay(pages, tracer: Tracer) -> tuple[dict, list]:
    """Run the stages over ``pages`` batch by batch under tracing.

    Returns (counters, validated batches).
    """
    import pyarrow.compute as pc

    from pdf_extractor_ray.config import EngineConfig
    from pdf_extractor_ray.stages.extract import extract_batch
    from pdf_extractor_ray.stages.metrics import partial_metrics
    from pdf_extractor_ray.stages.normalize import normalize_route
    from pdf_extractor_ray.stages.validate import validate_batch

    config = EngineConfig()
    counters = dict.fromkeys(
        (
            "normalize.docs.html", "normalize.docs.pdf", "normalize.docs.empty",
            "normalize.docs.split", "extract.pages", "extract.chunks", "extract.errors",
            "validate.pages", "validate.pages_validated", "validate.pages_replaced",
            "validate.problem_docs",
        ),
        0,
    )
    out = []
    with _patched(tracer, counters):
        for trace_id, start in enumerate(range(0, len(pages), config.html_batch_size)):
            tracer.trace_id = trace_id
            batch = pages.slice(start, config.html_batch_size)
            with tracer.span("batch"):
                with tracer.span("stage.normalize"):
                    routed = normalize_route(batch, config)
                with tracer.span("stage.extract") as stage:
                    first_doc = len(tracer.spans)
                    extracted = extract_batch(routed, config)
                with tracer.span("stage.validate"):
                    validated = validate_batch(extracted, config)
                with tracer.span("stage.metrics"):
                    partial_metrics(validated)
            # extract.doc spans are opened in row order; attach each row's url.
            docs = [s for s in tracer.spans[first_doc:] if s[1] == stage[0]]
            for rec, url in zip(docs, batch["url"].to_pylist()):
                rec[6]["url"] = url
            routes = routed["route"].to_pylist()
            for route in ("html", "pdf", "empty"):
                counters[f"normalize.docs.{route}"] += routes.count(route)
            counters["normalize.docs.split"] += pc.sum(routed["needs_split"]).as_py() or 0
            counters["extract.pages"] += pc.sum(extracted["n_pages"]).as_py() or 0
            counters["extract.chunks"] += pc.sum(extracted["n_chunks"]).as_py() or 0
            counters["extract.errors"] += len(extracted) - extracted["extract_error"].null_count
            counters["validate.pages_validated"] += pc.sum(validated["n_pages_validated"]).as_py() or 0
            counters["validate.pages_replaced"] += pc.sum(validated["n_pages_replaced"]).as_py() or 0
            counters["validate.problem_docs"] += pc.sum(validated["has_problem"]).as_py() or 0
            out.append(validated)
    tracer.trace_id = None
    return counters, out


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when the layer saw no documents."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def ledger(tracer: Tracer, counters: dict) -> tuple[dict, float, list]:
    """Per-layer self times and per-document latencies from the spans.

    Returns (metrics, map-stage replay seconds, ten slowest extract docs).
    """
    child_ns: dict[int, int] = {}
    for sid, parent, _, _, start, end, _ in tracer.spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    self_s = dict.fromkeys(
        (
            "normalize", "extract", "extract.html", "extract.pdf", "extract.split",
            "validate", "validate.detectors", "validate.similarity", "metrics",
        ),
        0.0,
    )
    stage_s = dict.fromkeys(("normalize", "extract", "validate"), 0.0)
    doc_ms: dict[str, list[float]] = {"html": [], "pdf": [], "validate": []}
    extract_docs = []
    for sid, _, _, name, start, end, attrs in tracer.spans:
        dur = (end - start) / 1e9
        own = dur - child_ns.get(sid, 0) / 1e9
        if name.startswith("stage."):
            layer = name[len("stage."):]
            self_s[layer] += own
            if layer in stage_s:
                stage_s[layer] += dur
        elif name == "extract.doc":
            branch = attrs["branch"]
            self_s["extract" if branch == "empty" else f"extract.{branch}"] += own
            if branch in doc_ms:
                doc_ms[branch].append(dur * 1e3)
            extract_docs.append((dur * 1e3, attrs.get("url"), branch))
        elif name == "validate.doc":
            self_s["validate"] += own
            doc_ms["validate"].append(dur * 1e3)
        elif name in ("validate.detectors", "validate.similarity"):
            self_s[name] += own
    metrics = {f"{layer}.self_s": v for layer, v in self_s.items()}
    metrics.update(counters)
    metrics["validate.replaced_frac"] = (
        counters["validate.pages_replaced"] / counters["validate.pages"]
        if counters["validate.pages"] else 0.0
    )
    for branch in ("html", "pdf"):
        metrics[f"extract.{branch}.doc_ms.p50"] = _percentile(doc_ms[branch], 50)
        metrics[f"extract.{branch}.doc_ms.p99"] = _percentile(doc_ms[branch], 99)
    metrics["validate.doc_ms.p99"] = _percentile(doc_ms["validate"], 99)
    slowest = [
        {"url": url, "branch": branch, "ms": ms}
        for ms, url, branch in sorted(extract_docs, key=lambda d: -d[0])[:10]
    ]
    return metrics, sum(stage_s.values()), slowest


_SECONDS = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_STAT_RE = r"\* {}: ([\d.]+)(us|ms|s) min, ([\d.]+)(us|ms|s) max, [\d.]+(?:us|ms|s) mean, ([\d.]+)(us|ms|s) total"


def map_stage_stats(stats_text: str) -> dict:
    """Fused map operator figures from the public ``Dataset.stats()`` text."""
    sections = re.split(r"\n(?=Operator \d+ )", stats_text)
    section = next((s for s in sections if "MapBatches(validate_batch)" in s.split("\n", 1)[0]), None)
    if section is None:
        raise ValueError("no fused map stage containing validate_batch in Dataset.stats()")
    tasks = re.search(r": (\d+) tasks executed", section)
    wall = re.search(_STAT_RE.format("Remote wall time"), section)
    udf = re.search(_STAT_RE.format("UDF time"), section)
    if not (tasks and wall and udf):
        raise ValueError(f"unparsed map stage stats:\n{section}")
    return {
        "map_stage.udf_s": float(udf.group(5)) * _SECONDS[udf.group(6)],
        "map_stage.remote_wall_s": float(wall.group(5)) * _SECONDS[wall.group(6)],
        "map_stage.tasks": int(tasks.group(1)),
        "map_stage.task_wall_max_s": float(wall.group(3)) * _SECONDS[wall.group(4)],
    }
