"""CoNLL 2002/2003 ingestion and span-overlap scoring.

Documents are compared annotation-by-annotation: a predicted span matches a
gold span when the labels are equal and the character ranges overlap
("relaxed" matching; a "strict" mode requiring exact offsets exists for
comparison). Counts pool into per-class and micro-averaged precision,
recall, and F1.
"""

from __future__ import annotations

import io
import json
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

from .domain import AnnotatedDocument, Annotation
from .errors import ConllError, EvaluationError

_TAG_RE = re.compile(r"^(?:O|[BI]-.+)$")

MATCHING_MODES = ("relaxed", "strict")


@dataclass(frozen=True)
class ConllSentence:
    """One sentence of token-per-line data: tokens and their NER tags."""

    tokens: tuple[str, ...]
    tags: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.tags):
            raise ConllError(
                f"sentence has {len(self.tokens)} tokens but {len(self.tags)} tags"
            )
        for tag in self.tags:
            if not _TAG_RE.match(tag):
                raise ConllError(f"malformed NER tag {tag!r}")


def read_conll_sentences(lines: Iterable[str]) -> Iterator[ConllSentence]:
    """Parse whitespace-column CoNLL lines into sentences.

    The token is the first column and the NER tag the last; a blank line
    ends a sentence; ``-DOCSTART-`` lines are skipped.
    """
    tokens: list[str] = []
    tags: list[str] = []
    for number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            if tokens:
                yield ConllSentence(tuple(tokens), tuple(tags))
                tokens, tags = [], []
            continue
        columns = line.split()
        if columns[0] == "-DOCSTART-":
            continue
        if len(columns) < 2:
            raise ConllError(f"line {number}: expected at least 2 columns, got {line!r}")
        tag = columns[-1]
        if not _TAG_RE.match(tag):
            raise ConllError(f"line {number}: malformed NER tag {tag!r}")
        tokens.append(columns[0])
        tags.append(tag)
    if tokens:
        yield ConllSentence(tuple(tokens), tuple(tags))


def sentence_to_document(sentence: ConllSentence) -> AnnotatedDocument:
    """Rebuild text (tokens joined by single spaces) and IOB runs as spans.

    Both IOB1 and IOB2 are accepted: ``B-`` always starts a span, and an
    ``I-`` tag starts one too when no span of that label is open.
    """
    offsets: list[tuple[int, int]] = []
    cursor = 0
    for token in sentence.tokens:
        offsets.append((cursor, cursor + len(token)))
        cursor += len(token) + 1
    text = " ".join(sentence.tokens)

    annotations: list[Annotation] = []
    open_label: str | None = None
    open_start = 0
    open_end = 0

    def close() -> None:
        nonlocal open_label
        if open_label is not None:
            annotations.append(Annotation(open_start, open_end, open_label))
            open_label = None

    for (start, end), tag in zip(offsets, sentence.tags):
        if tag == "O":
            close()
            continue
        prefix, label = tag.split("-", 1)
        if prefix == "B" or open_label != label:
            close()
            open_label = label
            open_start = start
        open_end = end
    close()
    return AnnotatedDocument(text, annotations)


def read_conll(stream: Iterable[str] | str) -> list[AnnotatedDocument]:
    """Read CoNLL content (an iterable of lines or one string) as documents."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    return [sentence_to_document(s) for s in read_conll_sentences(stream)]


def read_conll_file(path: str | Path) -> list[AnnotatedDocument]:
    with open(path, encoding="utf-8") as handle:
        return [sentence_to_document(s) for s in read_conll_sentences(handle)]


# -- matching ---------------------------------------------------------------


def _compatible(predicted: Annotation, gold: Annotation, matching: str) -> bool:
    if predicted.label != gold.label:
        return False
    if matching == "strict":
        return predicted.start == gold.start and predicted.end == gold.end
    return max(predicted.start, gold.start) < min(predicted.end, gold.end)


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

    Predictions are processed in (start, end, label) order and may bump an
    earlier pairing onto another gold span when that frees a match, so the
    pairing always has maximum cardinality and is deterministic.
    """
    if matching not in MATCHING_MODES:
        raise EvaluationError(
            f"matching must be one of {MATCHING_MODES}, got {matching!r}"
        )
    pred = sorted(predicted)
    gold_list = sorted(gold)
    owner: dict[int, int] = {}  # gold index -> predicted index

    def assign(p: int, banned: set[int]) -> bool:
        for g in range(len(gold_list)):
            if g in banned or not _compatible(pred[p], gold_list[g], matching):
                continue
            banned.add(g)
            if g not in owner or assign(owner[g], banned):
                owner[g] = p
                return True
        return False

    for p in range(len(pred)):
        assign(p, set())

    matched_pred = set(owner.values())
    pairs = tuple(
        (pred[p], gold_list[g]) for g, p in sorted(owner.items(), key=lambda kv: kv[1])
    )
    return Matching(
        pairs=pairs,
        unmatched_predicted=tuple(
            pred[p] for p in range(len(pred)) if p not in matched_pred
        ),
        unmatched_gold=tuple(
            gold_list[g] for g in range(len(gold_list)) if g not in owner
        ),
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
