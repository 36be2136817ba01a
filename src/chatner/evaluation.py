"""CoNLL 2002/2003 ingestion and span-overlap scoring.

Documents are compared annotation-by-annotation: a predicted span matches a
gold span when the labels are equal and the character ranges overlap
("relaxed" matching; a "strict" mode requiring exact offsets exists for
comparison). Counts pool into per-class and micro-averaged precision,
recall, and F1.
"""

from __future__ import annotations

import bisect
import io
import json
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .domain import AnnotatedDocument, Annotation
from .errors import ConllError, EvaluationError

MATCHING_MODES = ("relaxed", "strict")


def _read_documents(lines: Iterable[str]) -> Iterator[AnnotatedDocument]:
    """Turn whitespace-column CoNLL lines into documents as they are read.

    The token is the first column and the NER tag the last; a blank line
    ends a sentence; ``-DOCSTART-`` lines are skipped. The text is the
    tokens joined by single spaces. Both IOB1 and IOB2 are accepted: ``B-``
    always starts a span, and an ``I-`` tag starts one too when no span of
    that label is open.
    """
    tokens: list[str] = []
    annotations: list[Annotation] = []
    cursor = open_start = open_end = 0
    open_label: str | None = None
    # A blank line reads as an O tag that also ends the sentence; one more
    # after the last line flushes the final sentence.
    for number, line in enumerate(chain(lines, [""]), start=1):
        columns = line.split()
        if columns and columns[0] == "-DOCSTART-":
            continue
        if len(columns) == 1:
            shown = line.rstrip("\n")
            raise ConllError(f"line {number}: expected at least 2 columns, got {shown!r}")
        tag = columns[-1] if columns else "O"
        prefix, _, label = tag.partition("-")
        if tag != "O" and (prefix not in ("B", "I") or not label):
            raise ConllError(f"line {number}: malformed NER tag {tag!r}")
        if open_label is not None and (prefix != "I" or label != open_label):
            annotations.append(Annotation(open_start, open_end, open_label))
            open_label = None
        if not columns:
            if tokens:
                yield AnnotatedDocument(" ".join(tokens), annotations)
                tokens, annotations, cursor = [], [], 0
            continue
        token = columns[0]
        if label:
            if open_label is None:
                open_label, open_start = label, cursor
            open_end = cursor + len(token)
        tokens.append(token)
        cursor += len(token) + 1


def read_conll(stream: Iterable[str] | str) -> list[AnnotatedDocument]:
    """Read CoNLL content (an iterable of lines or one string) as documents."""
    return list(_read_documents(io.StringIO(stream) if isinstance(stream, str) else stream))


def read_conll_file(path: str | Path) -> list[AnnotatedDocument]:
    with open(path, encoding="utf-8") as handle:
        return list(_read_documents(handle))


# -- matching ---------------------------------------------------------------


@dataclass(frozen=True)
class Matching:
    """One-to-one pairing between predicted and gold annotations."""

    pairs: tuple[tuple[Annotation, Annotation], ...]
    unmatched_predicted: tuple[Annotation, ...]
    unmatched_gold: tuple[Annotation, ...]


def match_annotations(
    predicted: Iterable[Annotation],
    gold: Iterable[Annotation],
    matching: str = "relaxed",
) -> Matching:
    """Pair up compatible annotations, each used at most once.

    Strict matching pairs identical annotations. Relaxed matching pairs
    spans of one label that share a character: predictions are taken in
    (end, start) order, and each takes the unpaired overlapping gold span
    of its label that ends first. As both sides are intervals, this greedy
    pairing has maximum cardinality (the exchange argument of Glover's
    convex bipartite matching). Empty and inverted spans overlap nothing.
    The pairing is deterministic and its pairs follow the predictions in
    (start, end, label) order.
    """
    if matching not in MATCHING_MODES:
        raise EvaluationError(
            f"matching must be one of {MATCHING_MODES}, got {matching!r}"
        )
    pred = sorted(predicted)
    gold_list = sorted(gold)
    partner: dict[int, int] = {}  # predicted index -> gold index
    if matching == "strict":
        free: dict[Annotation, list[int]] = {}  # the copies still unpaired
        for g, ann in enumerate(gold_list):
            free.setdefault(ann, []).append(g)
        for p, ann in enumerate(pred):
            if free.get(ann):
                partner[p] = free[ann].pop()
    else:
        # Per label, the non-empty gold spans not yet begun, latest start first.
        unbegun: dict[str, list[int]] = {}
        for g in reversed(range(len(gold_list))):
            if gold_list[g].start < gold_list[g].end:
                unbegun.setdefault(gold_list[g].label, []).append(g)
        # Per label, (end, start, index) of the gold spans that start before
        # the current prediction ends and are still unpaired.
        begun: dict[str, list[tuple[int, int, int]]] = {}
        for p in sorted(range(len(pred)), key=lambda p: (pred[p].end, pred[p].start)):
            ann = pred[p]
            waiting = unbegun.get(ann.label)
            if ann.start >= ann.end or waiting is None:
                continue
            spans = begun.setdefault(ann.label, [])
            while waiting and gold_list[waiting[-1]].start < ann.end:
                g = waiting.pop()
                bisect.insort(spans, (gold_list[g].end, gold_list[g].start, g))
            first = bisect.bisect_right(spans, (ann.start, math.inf))
            if first < len(spans):
                partner[p] = spans.pop(first)[2]
    paired_gold = set(partner.values())
    return Matching(
        pairs=tuple((pred[p], gold_list[g]) for p, g in sorted(partner.items())),
        unmatched_predicted=tuple(a for p, a in enumerate(pred) if p not in partner),
        unmatched_gold=tuple(a for g, a in enumerate(gold_list) if g not in paired_gold),
    )


# -- metrics ----------------------------------------------------------------


@dataclass(frozen=True)
class ClassMetrics:
    label: str
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        total = self.tp + self.fp
        return self.tp / total if total else 0.0

    @property
    def recall(self) -> float:
        total = self.tp + self.fn
        return self.tp / total if total else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass(frozen=True)
class EvalReport:
    """Per-class and micro-averaged scores for a document collection."""

    per_label: tuple[ClassMetrics, ...]
    micro: ClassMetrics
    matching: str = "relaxed"

    def to_dict(self) -> dict:
        def entry(m: ClassMetrics) -> dict:
            return {
                "tp": m.tp,
                "fp": m.fp,
                "fn": m.fn,
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
            }

        return {
            "matching": self.matching,
            "labels": {m.label: entry(m) for m in self.per_label},
            "micro": entry(self.micro),
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), ensure_ascii=False, **kwargs)

    def to_table(self) -> str:
        """Aligned plain-text table, percentages to one decimal, micro last."""
        rows = [("label", "precision", "recall", "f1", "tp", "fp", "fn")]
        for m in (*self.per_label, self.micro):
            rows.append(
                (
                    m.label,
                    f"{m.precision * 100:.1f}",
                    f"{m.recall * 100:.1f}",
                    f"{m.f1 * 100:.1f}",
                    str(m.tp),
                    str(m.fp),
                    str(m.fn),
                )
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        lines = []
        for row in rows:
            first = row[0].ljust(widths[0])
            rest = "  ".join(cell.rjust(widths[i + 1]) for i, cell in enumerate(row[1:]))
            lines.append(f"{first}  {rest}".rstrip())
        return "\n".join(lines)


def evaluate(
    predictions: Sequence[AnnotatedDocument],
    gold: Sequence[AnnotatedDocument],
    matching: str = "relaxed",
) -> EvalReport:
    """Score predictions against gold documents aligned by index."""
    if matching not in MATCHING_MODES:
        raise EvaluationError(
            f"matching must be one of {MATCHING_MODES}, got {matching!r}"
        )
    if len(predictions) != len(gold):
        raise EvaluationError(
            f"got {len(predictions)} predicted documents but {len(gold)} gold"
        )
    tp: dict[str, int] = {}
    fp: dict[str, int] = {}
    fn: dict[str, int] = {}
    for index, (pred_doc, gold_doc) in enumerate(zip(predictions, gold)):
        if pred_doc.text != gold_doc.text:
            raise EvaluationError(
                f"document {index}: predicted text differs from gold text"
            )
        result = match_annotations(pred_doc.annotations, gold_doc.annotations, matching)
        for predicted, _ in result.pairs:
            tp[predicted.label] = tp.get(predicted.label, 0) + 1
        for annotation in result.unmatched_predicted:
            fp[annotation.label] = fp.get(annotation.label, 0) + 1
        for annotation in result.unmatched_gold:
            fn[annotation.label] = fn.get(annotation.label, 0) + 1
    labels = sorted(set(tp) | set(fp) | set(fn))
    per_label = tuple(
        ClassMetrics(label, tp.get(label, 0), fp.get(label, 0), fn.get(label, 0))
        for label in labels
    )
    micro = ClassMetrics(
        "micro",
        sum(m.tp for m in per_label),
        sum(m.fp for m in per_label),
        sum(m.fn for m in per_label),
    )
    return EvalReport(per_label=per_label, micro=micro, matching=matching)
