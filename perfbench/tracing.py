"""Spans around chatner's public functions, installed only for a traced run.

Each wrapper is put where the caller looks the function up (for example
``chatner.engine.parse_inline``, which ``predict_one`` calls, rather than
``chatner.parsing.parse_inline``) and the original attribute is put back
when the run ends, so an untraced run executes chatner unchanged. Spans
stay in memory until :meth:`Tracer.write` saves them as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    doc: int | None
    outcome: str = "ok"
    info: dict | None = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def _outcome_of(exc: BaseException) -> str:
    name = type(exc).__name__
    return {"RateLimitError": "429", "ServerError": "5xx"}.get(name, name)


def _parse_counts(result) -> dict:
    """Tag-pair fates from a parse report (base: pairs the parser formed)."""
    warnings = result[1].warnings
    relocated = sum("relocated by exact search" in w for w in warnings)
    dropped = sum("not found in the original text" in w or "tag pair dropped" in w
                  for w in warnings)
    return {"kept": len(result[1].annotations) - relocated,
            "relocated": relocated, "dropped": dropped}


def targets() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, result observer) for every wrapper."""
    import chatner.cli
    import chatner.client
    import chatner.engine
    import chatner.evaluation
    import chatner.parsing

    return [
        (chatner.engine.NerModel, "predict_one", "engine.predict_one", None),
        (chatner.engine, "chat_complete", "client.chat_complete", None),
        (chatner.client.HttpBackend, "complete", "client.complete", None),
        (chatner.engine, "parse_inline", "parsing.parse_inline", _parse_counts),
        (chatner.parsing, "align_texts", "parsing.align_texts", None),
        (chatner.engine, "parse_json_answer", "parsing.parse_json_answer", None),
        (chatner.parsing, "extract_json_block", "parsing.extract_json_block", None),
        (chatner.engine, "compose_system_prompt", "prompting.compose_system_prompt", None),
        (chatner.engine, "render_examples", "prompting.render_examples", None),
        (chatner.evaluation, "read_conll", "evaluation.read_conll", None),
        (chatner.cli, "read_conll_file", "evaluation.read_conll", None),
        (chatner.evaluation, "evaluate", "evaluation.evaluate", None),
        (chatner.cli, "evaluate_documents", "evaluation.evaluate", None),
        (chatner.evaluation, "match_annotations", "evaluation.match_annotations", None),
        (chatner.cli, "document_from_record", "cli.document_from_record", None),
    ]


class Tracer:
    """Collects spans from wrapped functions; see the module docstring."""

    def __init__(self, doc_ids: dict[str, int] | None = None):
        self.spans: list[Span] = []
        self.doc_ids = doc_ids or {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, doc: int | None = None):
        """Record one span around a block of the benchmark's own code."""
        span = self._open(name, doc)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str, doc: int | None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if doc is None and parent is not None:
            doc = parent.doc
        span = Span(next(self._ids), name, time.perf_counter(), 0.0,
                    parent.id if parent else None, doc)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, function, name: str, observe):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            doc = None
            if name == "engine.predict_one":
                doc = tracer.doc_ids.get(args[1] if len(args) > 1 else kwargs.get("text"))
            span = tracer._open(name, doc)
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                span.outcome = _outcome_of(exc)
                raise
            finally:
                tracer._close(span)
            if observe is not None:
                span.info = observe(result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, observe in targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, observe))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


# -- derived metrics -------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover, in ms."""
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.ms
    return {span.id: span.ms - covered.get(span.id, 0.0) for span in spans}


def children(spans: list[Span]) -> dict[int, list[Span]]:
    """Parent span id -> its direct children."""
    found: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            found.setdefault(span.parent, []).append(span)
    return found


def layer_table(spans: list[Span]) -> list[tuple[str, int, float, float]]:
    """(layer, calls, wall ms, self ms) per span-name prefix.

    Wall time counts only a layer's outermost spans, so a layer calling
    itself is not counted twice.
    """
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    rows: dict[str, list] = {}
    for span in spans:
        layer = span.name.split(".")[0]
        row = rows.setdefault(layer, [0, 0.0, 0.0])
        row[0] += 1
        row[2] += own[span.id]
        parent = by_id.get(span.parent)
        if parent is None or parent.name.split(".")[0] != layer:
            row[1] += span.ms
    return [(layer, *row) for layer, row in sorted(rows.items())]


def layer_metrics(spans: list[Span], docs: int, stub_delay_ms: float) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced window."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    own = self_times(spans)
    per_doc = 1.0 / docs if docs else 0.0

    def durations(name: str) -> list[float]:
        return [s.ms for s in by_name.get(name, ())]

    def total(name: str) -> float:
        return sum(durations(name))

    predict = by_name.get("engine.predict_one", [])
    requests = by_name.get("client.complete", [])
    children: dict[int, float] = {}
    attempts: dict[int, int] = {}
    for span in requests:
        children[span.parent] = children.get(span.parent, 0.0) + span.ms
        attempts[span.parent] = attempts.get(span.parent, 0) + 1
    calls = by_name.get("client.chat_complete", [])
    inline = by_name.get("parsing.parse_inline", [])
    fates = {key: sum((s.info or {}).get(key, 0) for s in inline)
             for key in ("kept", "relocated", "dropped")}
    pairs = sum(fates.values())
    json_parses = by_name.get("parsing.parse_json_answer", [])
    outcomes = [s.outcome for s in requests]
    return {
        "engine.predict_one_ms.p50": percentile([s.ms for s in predict], 0.50),
        "engine.predict_one_ms.p99": percentile([s.ms for s in predict], 0.99),
        "engine.self_ms_per_doc": sum(own[s.id] for s in predict) * per_doc,
        "client.attempts_per_doc.ok": outcomes.count("ok") * per_doc,
        "client.attempts_per_doc.429": outcomes.count("429") * per_doc,
        "client.attempts_per_doc.5xx": outcomes.count("5xx") * per_doc,
        "client.request_ms.p50": percentile([s.ms for s in requests], 0.50),
        "client.request_ms.p99": percentile([s.ms for s in requests], 0.99),
        "client.overhead_ms.p50": (
            percentile([s.ms - stub_delay_ms for s in requests], 0.50) if requests else 0.0
        ),
        "client.backoff_ms_per_doc": sum(
            s.ms - children.get(s.id, 0.0) for s in calls) * per_doc,
        "client.retries_per_doc": sum(
            attempts.get(s.id, 1) - 1 for s in calls) * per_doc,
        "parsing.parse_inline_ms.p50": percentile(durations("parsing.parse_inline"), 0.50),
        "parsing.parse_inline_ms.p99": percentile(durations("parsing.parse_inline"), 0.99),
        "parsing.align_ms_per_doc": total("parsing.align_texts") * per_doc,
        "parsing.spans_kept_ratio": fates["kept"] / pairs if pairs else 0.0,
        "parsing.relocated_ratio": fates["relocated"] / pairs if pairs else 0.0,
        "parsing.dropped_ratio": fates["dropped"] / pairs if pairs else 0.0,
        "parsing.parse_json_ms_per_doc": total("parsing.parse_json_answer") * per_doc,
        "parsing.extract_json_ms_per_doc": total("parsing.extract_json_block") * per_doc,
        "parsing.json_reparse_ratio": (
            sum(s.outcome == "ParseError" for s in json_parses) / len(json_parses)
            if json_parses else 0.0
        ),
        "evaluation.read_conll_ms": statistics.median(durations("evaluation.read_conll"))
        if "evaluation.read_conll" in by_name else 0.0,
        "evaluation.match_ms.p99": percentile(durations("evaluation.match_annotations"), 0.99),
        "evaluation.evaluate_ms_per_doc": total("evaluation.evaluate") * per_doc,
    }
