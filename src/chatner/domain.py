"""Core data types: annotations, documents, entity schemas, and run configuration.

Offsets everywhere are Unicode code point indices into the document text,
and spans are half-open ``[start, end)`` intervals.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

# Characters that would collide with the in-line tag syntax.
RESERVED_LABEL_CHARS = "<>/"

PROMPTING_METHODS = ("single_turn", "multi_turn")
MULTI_TURN_MODES = ("step_by_step", "final_step")
ANSWER_SHAPES = ("inline", "json")
POS_MODES = ("none", "via_llm", "via_hook")


@dataclass(frozen=True, order=True)
class Annotation:
    """One entity mention as a half-open character span with a label.

    Instances are plain values and deliberately cheap to build; whether a
    span actually makes sense for a given text is checked separately by
    :func:`validate_document`, which can therefore report problems instead
    of refusing to represent them.
    """

    start: int
    end: int
    label: str


@dataclass(frozen=True)
class AnnotatedDocument:
    """A text together with a set of entity annotations.

    Annotations have set semantics: duplicate ``(start, end, label)``
    triples collapse into one. Overlapping spans are allowed, which is how
    a span carrying several entity types is represented.
    """

    text: str
    annotations: frozenset[Annotation] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not isinstance(self.annotations, frozenset):
            object.__setattr__(self, "annotations", frozenset(self.annotations))

    def sorted_annotations(self) -> list[Annotation]:
        """Annotations in (start, end, label) order, for stable output."""
        return sorted(self.annotations)


@dataclass(frozen=True)
class ValidationIssue:
    """One reason a document failed validation."""

    index: int
    annotation: Annotation
    reason: str


@dataclass(frozen=True)
class ValidationResult:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __bool__(self) -> bool:
        return self.ok


def validate_document(doc: AnnotatedDocument) -> ValidationResult:
    """Check every annotation of ``doc`` against its text.

    Returns a result listing each violating annotation with its position in
    sorted order and a short reason; an empty issue list means the document
    is valid. Never raises.
    """
    issues = []
    length = len(doc.text)
    for index, ann in enumerate(doc.sorted_annotations()):
        reasons = []
        if not isinstance(ann.start, int) or not isinstance(ann.end, int):
            reasons.append("offsets must be integers")
        else:
            if ann.start < 0:
                reasons.append("negative start")
            if ann.start == ann.end:
                reasons.append("empty span")
            elif ann.end < ann.start:
                reasons.append("inverted span")
            if ann.end > length:
                reasons.append("span extends past the end of the text")
        if not ann.label:
            reasons.append("empty label")
        for reason in reasons:
            issues.append(ValidationIssue(index, ann, reason))
    return ValidationResult(tuple(issues))


def annotation_text(doc: AnnotatedDocument, ann: Annotation) -> str:
    """The exact text covered by ``ann`` in ``doc``.

    Raises ValueError for spans that do not fit the document.
    """
    if ann.start < 0 or ann.end > len(doc.text) or ann.start >= ann.end:
        raise ValueError(
            f"span ({ann.start}, {ann.end}) is out of bounds for a text "
            f"of length {len(doc.text)}"
        )
    return doc.text[ann.start : ann.end]


def first_overlap(
    annotations: Iterable[Annotation],
) -> tuple[Annotation, Annotation] | None:
    """The first pair of annotations whose spans share at least one character.

    Pairs are discovered in (start, end, label) order; returns None when all
    spans are disjoint. Touching spans (one ends where the next starts) do
    not overlap.
    """
    widest: Annotation | None = None
    for ann in sorted(annotations):
        if widest is not None and ann.start < widest.end:
            return widest, ann
        if widest is None or ann.end > widest.end:
            widest = ann
    return None


class EntitySchema(Mapping):
    """Ordered mapping from entity label to a natural-language description.

    The order of entries is meaningful: it fixes the order labels are
    enumerated in prompts and the order of per-entity turns.
    """

    def __init__(self, entries: Mapping[str, str] | Iterable[tuple[str, str]]):
        if isinstance(entries, Mapping):
            pairs = list(entries.items())
        else:
            pairs = [tuple(pair) for pair in entries]
        if not pairs:
            raise ConfigError("an entity schema needs at least one entry")
        seen: set[str] = set()
        for label, description in pairs:
            if not isinstance(label, str) or not label:
                raise ConfigError(f"entity labels must be non-empty strings, got {label!r}")
            if not isinstance(description, str):
                raise ConfigError(f"description for {label!r} must be a string")
            bad = [c for c in RESERVED_LABEL_CHARS if c in label]
            if bad:
                raise ConfigError(
                    f"label {label!r} contains reserved character {bad[0]!r}"
                )
            if label in seen:
                raise ConfigError(f"duplicate label {label!r}")
            seen.add(label)
        self._entries: dict[str, str] = dict(pairs)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def __getitem__(self, label: str) -> str:
        return self._entries[label]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"EntitySchema({self._entries!r})"

    @classmethod
    def from_file(cls, path: str | Path) -> "EntitySchema":
        """Load a schema from a JSON object mapping label to description."""
        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"schema file {path}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"schema file {path} must hold a JSON object")
        return cls(data)


@dataclass(frozen=True)
class NerConfig:
    """Everything that shapes one annotation run, minus the schema.

    ``delimiters`` replaces the default label-named tags with one custom
    open/close pair; since a single pair cannot express several entity
    types at once, it is only valid with multi-turn prompting, and only
    with the in-line answer shape, which is the one it marks up.
    """

    prompting_method: str = "single_turn"
    multi_turn_mode: str = "step_by_step"
    answer_shape: str = "inline"
    delimiters: tuple[str, str] | None = None
    pos_mode: str = "none"

    def __post_init__(self) -> None:
        if self.prompting_method not in PROMPTING_METHODS:
            raise ConfigError(
                f"prompting_method must be one of {PROMPTING_METHODS}, "
                f"got {self.prompting_method!r}"
            )
        if self.multi_turn_mode not in MULTI_TURN_MODES:
            raise ConfigError(
                f"multi_turn_mode must be one of {MULTI_TURN_MODES}, "
                f"got {self.multi_turn_mode!r}"
            )
        if self.answer_shape not in ANSWER_SHAPES:
            raise ConfigError(
                f"answer_shape must be one of {ANSWER_SHAPES}, got {self.answer_shape!r}"
            )
        if self.pos_mode not in POS_MODES:
            raise ConfigError(
                f"pos_mode must be one of {POS_MODES}, got {self.pos_mode!r}"
            )
        if self.delimiters is not None:
            pair = tuple(self.delimiters)
            if len(pair) != 2 or not all(isinstance(p, str) and p for p in pair):
                raise ConfigError("delimiters must be a pair of non-empty strings")
            object.__setattr__(self, "delimiters", pair)
            if self.prompting_method != "multi_turn":
                raise ConfigError("custom delimiters require multi-turn prompting")
            if self.answer_shape != "inline":
                raise ConfigError("custom delimiters require the inline answer shape")


def document_to_record(doc: AnnotatedDocument) -> dict:
    """The JSON-ready record form of a document."""
    return {
        "text": doc.text,
        "annotations": [
            {"start": ann.start, "end": ann.end, "label": ann.label}
            for ann in doc.sorted_annotations()
        ],
    }


def document_from_record(record: Mapping) -> AnnotatedDocument:
    """Rebuild a document from its record form.

    Raises ValueError on a bad shape (offsets must be ints, not bools or
    floats; labels non-empty strings) and on a span that does not fit the
    text (see :func:`validate_document`).
    """
    if not isinstance(record, Mapping):
        raise ValueError(f"document record must be an object, got {type(record).__name__}")
    try:
        text = record["text"]
    except KeyError:
        raise ValueError("document record is missing the 'text' field") from None
    if not isinstance(text, str):
        raise ValueError("document 'text' must be a string")
    entries = record.get("annotations", [])
    if not isinstance(entries, list):
        raise ValueError(f"document 'annotations' must be a list, got {entries!r}")
    annotations = []
    for entry in entries:
        # Checked, not coerced: int() would truncate 0.5 and read True as 1.
        if not (
            isinstance(entry, Mapping)
            and type(entry.get("start")) is int
            and type(entry.get("end")) is int
            and isinstance(entry.get("label"), str)
            and entry["label"]
        ):
            raise ValueError(
                f"bad annotation entry {entry!r}: needs integer 'start' and "
                "'end' and a non-empty string 'label'"
            )
        annotations.append(Annotation(entry["start"], entry["end"], entry["label"]))
    doc = AnnotatedDocument(text, frozenset(annotations))
    issues = validate_document(doc).issues
    if issues:
        ann = issues[0].annotation
        raise ValueError(
            f"annotation ({ann.start}, {ann.end}, {ann.label!r}) does not fit "
            f"the text: {issues[0].reason}"
        )
    return doc
