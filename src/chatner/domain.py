"""Core data types: annotations, documents, entity schemas, and run configuration.

Offsets everywhere are Unicode code point indices into the document text,
and spans are half-open ``[start, end)`` intervals.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError

# Characters that would collide with the in-line tag syntax.
RESERVED_LABEL_CHARS = "<>/"

PROMPTING_METHODS = ("single_turn", "multi_turn")
MULTI_TURN_MODES = ("step_by_step", "final_step")
ANSWER_SHAPES = ("inline", "json")
POS_MODES = ("none", "via_llm", "via_hook")


class Annotation(NamedTuple):
    """One entity mention as a half-open character span with a label.

    Instances are plain values and deliberately cheap to build; whether a
    span fits a given text is checked separately, by :func:`check_spans`,
    where a document is rendered into a prompt or read from a record.
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


def check_spans(doc: AnnotatedDocument) -> None:
    """Raise ValueError for the first annotation that does not fit ``doc.text``.

    Annotations are checked in sorted order, offsets other than numbers
    after the numbers by their repr and labels as text, so no two values of
    different types are compared. When one breaks several rules, the first
    of these is the reason given: offsets that are not integers (a bool is
    not one), a negative start, an empty or inverted span, a span past the
    end of the text, a label that is not a string, an empty label.
    """
    def order(offset: object) -> tuple:
        return (0, offset) if isinstance(offset, (int, float)) else (1, repr(offset))

    length = len(doc.text)
    for ann in sorted(doc.annotations, key=lambda ann: (*map(order, ann[:2]), str(ann.label))):
        if type(ann.start) is not int or type(ann.end) is not int:
            reason = "offsets must be integers"
        elif ann.start < 0:
            reason = "negative start"
        elif ann.start == ann.end:
            reason = "empty span"
        elif ann.end < ann.start:
            reason = "inverted span"
        elif ann.end > length:
            reason = "span extends past the end of the text"
        elif not isinstance(ann.label, str):
            reason = "label is not a string"
        elif not ann.label:
            reason = "empty label"
        else:
            continue
        raise ValueError(f"annotation {tuple(ann)} does not fit the text: {reason}")


class EntitySchema(Mapping):
    """Ordered mapping from entity label to a natural-language description.

    Built only from a mapping, such as a dict. The order of entries is
    meaningful: it fixes the order labels are enumerated in prompts and the
    order of per-entity turns.
    """

    def __init__(self, entries: Mapping[str, str]):
        if not isinstance(entries, Mapping):
            raise ConfigError(f"an entity schema must be a mapping, got {type(entries).__name__}")
        if not entries:
            raise ConfigError("an entity schema needs at least one entry")
        for label, description in entries.items():
            if not isinstance(label, str) or not label:
                raise ConfigError(f"entity labels must be non-empty strings, got {label!r}")
            if not isinstance(description, str):
                raise ConfigError(f"description for {label!r} must be a string")
            bad = [c for c in RESERVED_LABEL_CHARS if c in label]
            if bad:
                raise ConfigError(
                    f"label {label!r} contains reserved character {bad[0]!r}"
                )
        self._entries: dict[str, str] = dict(entries)

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
        return cls(read_json_object(path, "schema file", ConfigError))


def read_utf8(path: str | Path | None, what: str, error: type[Exception]) -> str:
    """The UTF-8 text of the file ``path`` (standard input when None), minus
    a leading byte-order mark. Other bytes raise ``error`` with a message
    naming the file as ``what``; OSError passes through."""
    if path is None:
        source, data = "standard input", sys.stdin.buffer.read()
    else:
        source, data = f"{what} {path}", Path(path).read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{source} is not UTF-8 text ({exc})") from exc


def read_json_object(path: str | Path, what: str, error: type[Exception]) -> dict:
    """The JSON object held in the UTF-8 file ``path`` (see :func:`read_utf8`).

    Content that is not UTF-8, not JSON, nested too deep to decode or not
    an object raises ``error`` with a message naming the file as ``what``;
    OSError passes through.
    """
    try:
        data = json.loads(read_utf8(path, what, error))
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep to decode
        raise error(f"{what} {path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return data


def check_delimiters(delimiters: Sequence[str]) -> tuple[str, str]:
    """Custom delimiters, any sequence of two non-empty strings, as a tuple."""
    pair = tuple(delimiters) if isinstance(delimiters, Sequence) else ()
    if len(pair) != 2 or not all(isinstance(part, str) and part for part in pair):
        raise ConfigError("delimiters must be a pair of non-empty strings")
    return pair


def inline_tags(label: str, delimiters: tuple[str, str] | None = None) -> tuple[str, str]:
    """The opening and closing tag an in-line answer wraps a mention of
    ``label`` in: the custom delimiters when given, else the label's tags."""
    return delimiters or (f"<{label}>", f"</{label}>")


@dataclass(frozen=True)
class NerConfig:
    """Everything that shapes one annotation run, minus the schema.

    This is where each run setting's name, default and allowed values are
    stated; :class:`chatner.engine.NerModel` takes the same names with the
    same defaults, and the command line defaults to them as well.

    ``delimiters`` replaces the default label-named tags with one custom
    open/close pair; since a single pair cannot express several entity
    types at once, it is only valid with multi-turn prompting, and only
    with the in-line answer shape, which is the one it marks up.
    """

    method: str = "single_turn"
    multi_turn_mode: str = "step_by_step"
    answer_shape: str = "inline"
    delimiters: tuple[str, str] | None = None
    pos_mode: str = "none"

    def __post_init__(self) -> None:
        for name, allowed in (
            ("method", PROMPTING_METHODS),
            ("multi_turn_mode", MULTI_TURN_MODES),
            ("answer_shape", ANSWER_SHAPES),
            ("pos_mode", POS_MODES),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
        if self.delimiters is not None:
            object.__setattr__(self, "delimiters", check_delimiters(self.delimiters))
            if self.method != "multi_turn":
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
    text (see :func:`check_spans`).
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
    length, fit = len(text), True
    annotations = []
    for entry in entries:
        # Checked, not coerced: int() would truncate 0.5 and read True as 1.
        if type(entry) is dict or isinstance(entry, Mapping):
            start, end, label = entry.get("start"), entry.get("end"), entry.get("label")
            if type(start) is int and type(end) is int and isinstance(label, str) and label:
                fit = fit and 0 <= start < end <= length
                annotations.append(Annotation(start, end, label))
                continue
        raise ValueError(
            f"bad annotation entry {entry!r}: needs integer 'start' and "
            "'end' and a non-empty string 'label'"
        )
    doc = AnnotatedDocument(text, frozenset(annotations))
    if not fit:
        check_spans(doc)
    return doc
