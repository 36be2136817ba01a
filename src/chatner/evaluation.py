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
    # One more blank line after the last flushes the final sentence.
    for number, line in enumerate(chain(lines, [""]), start=1):
        columns = line.split()
        if columns:
            token, tag = columns[0], columns[-1]
            if token == "-DOCSTART-":
                continue
            if len(columns) == 1:
                shown = line.rstrip("\n")
                raise ConllError(f"line {number}: expected at least 2 columns, got {shown!r}")
        else:
            tag = "O"  # a blank line closes a span as an O tag does
        if tag == "O":
            if open_label is not None:
                annotations.append(Annotation(open_start, open_end, open_label))
                open_label = None
            if not columns:
                if tokens:
                    yield AnnotatedDocument(" ".join(tokens), annotations)
                    tokens, annotations, cursor = [], [], 0
                continue
        else:
            prefix, _, label = tag.partition("-")
            if prefix not in ("B", "I") or not label:
                raise ConllError(f"line {number}: malformed NER tag {tag!r}")
            if open_label is not None and (prefix == "B" or label != open_label):
                annotations.append(Annotation(open_start, open_end, open_label))
                open_label = None
            if open_label is None:
                open_label, open_start = label, cursor
            open_end = cursor + len(token)
        tokens.append(token)
        cursor += len(token) + 1


def read_conll(stream: Iterable[str] | str) -> list[AnnotatedDocument]:
    """Read CoNLL content (an iterable of lines or one string) as documents.
    A string splits at ``\\n``, ``\\r\\n`` and ``\\r``, as a file does."""
    lines = io.StringIO(stream, newline=None) if isinstance(stream, str) else stream
    return list(_read_documents(lines))


def read_conll_file(path: str | Path) -> list[AnnotatedDocument]:
    """Read a UTF-8 CoNLL file, skipping a byte-order mark; other bytes raise ConllError."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return list(_read_documents(handle))
    except UnicodeDecodeError as exc:
        raise ConllError(f"CoNLL file {path} is not UTF-8 text ({exc})") from exc


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
    of its label that ends first. One sweep over the spans' sorted events
    does this: a gold span joins its label's sorted list at its start, and
    a prediction takes from that list at its end. As both sides are
    intervals, this greedy pairing has maximum cardinality (the exchange
    argument of Glover's convex bipartite matching). Empty and inverted
    spans overlap nothing. The pairing is deterministic and its pairs
    follow the predictions in (start, end, label) order.
    """
    if matching not in MATCHING_MODES:
        raise EvaluationError(
            f"matching must be one of {MATCHING_MODES}, got {matching!r}"
        )
    pred = sorted(predicted)
    gold_list = sorted(gold)
    partner = [-1] * len(pred)  # predicted index -> gold index, or -1
    if matching == "strict":
        free: dict[Annotation, list[int]] = {}  # the copies still unpaired
        for g, ann in enumerate(gold_list):
            free.setdefault(ann, []).append(g)
        for p, ann in enumerate(pred):
            if free.get(ann):
                partner[p] = free[ann].pop()
    else:
        # On a tie a prediction goes first: touching spans share no character.
        events = [(s, 1, e, g, label) for g, (s, e, label) in enumerate(gold_list) if s < e]
        events += [(e, 0, s, p, label) for p, (s, e, label) in enumerate(pred) if s < e]
        events.sort()
        # Per label, (end, start, index) of the gold spans that start before
        # the current prediction ends and are still unpaired.
        begun: dict[str, list[tuple[int, int, int]]] = {}
        for at, is_gold, other, i, label in events:
            if is_gold:
                bisect.insort(begun.setdefault(label, []), (other, at, i))
            else:
                spans = begun.get(label, ())
                first = bisect.bisect_right(spans, (other, math.inf))
                if first < len(spans):
                    partner[i] = spans.pop(first)[2]
    paired_gold = set(partner)
    return Matching(
        pairs=tuple([(a, gold_list[g]) for a, g in zip(pred, partner) if g >= 0]),
        unmatched_predicted=tuple([a for a, g in zip(pred, partner) if g < 0]),
        unmatched_gold=tuple([a for g, a in enumerate(gold_list) if g not in paired_gold]),
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
    matching: str

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2)

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
