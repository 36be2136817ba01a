"""Turning schemas, documents, and configuration into chat messages."""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .domain import (
    AnnotatedDocument,
    Annotation,
    EntitySchema,
    NerConfig,
    first_overlap,
    validate_document,
)
from .errors import ConfigError, RenderError
from .templates import PromptTemplateSet

ROLES = ("system", "user", "assistant")


@dataclass(frozen=True)
class ChatMessage:
    """One chat-completion message."""

    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")
        if not isinstance(self.content, str) or not self.content:
            raise ValueError("message content must be a non-empty string")


# A conversation is just an ordered sequence of messages; the client checks
# the role-ordering contract at submission time.
Conversation = Sequence[ChatMessage]

PosTagger = Callable[[str], Iterable[tuple[str, str]]]


def _natural_join(items: Sequence[str]) -> str:
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + " and " + items[-1]


def _full_shape(schema: EntitySchema, config: NerConfig, templates: PromptTemplateSet) -> str:
    """Answer-shape instructions covering every label at once."""
    if config.answer_shape == "json":
        example = json.dumps({label: ["mention"] for label in schema.labels}, ensure_ascii=False)
        quoted = ", ".join(f'"{label}"' for label in schema.labels)
        return templates.render("shape_json", json_example=example, labels=quoted)
    tags = ", ".join(templates.render("tag_example", label=label) for label in schema.labels)
    return templates.render("shape_inline", tag_examples=tags)


def _turn_shape(schema: EntitySchema, config: NerConfig, templates: PromptTemplateSet) -> str:
    """Answer-shape instructions for one per-entity turn."""
    if config.delimiters is not None:
        open_, close = config.delimiters
        return templates.render("shape_delimiters", open=open_, close=close)
    if config.answer_shape == "json":
        example = json.dumps({schema.labels[0]: ["mention"]}, ensure_ascii=False)
        return templates.render("shape_json_turn", json_example=example)
    tags = ", ".join(templates.render("tag_example", label=label) for label in schema.labels)
    return templates.render("shape_inline", tag_examples=tags)


def compose_system_prompt(
    schema: EntitySchema,
    config: NerConfig,
    templates: PromptTemplateSet | None = None,
) -> ChatMessage:
    """Build the system message for a run.

    The message enumerates the labels with their descriptions in schema
    order and states the answer-shape contract the parser expects. Pure:
    identical inputs produce byte-identical output.
    """
    templates = templates or PromptTemplateSet()
    entity_list = "\n".join(
        templates.render("entity_item", label=label, description=description)
        for label, description in schema.items()
    )
    if config.prompting_method == "single_turn":
        method = templates.render("method_single", labels=_natural_join(schema.labels))
        shape = _full_shape(schema, config, templates)
    else:
        method = templates.render("method_multi")
        if config.multi_turn_mode == "final_step":
            method += " " + templates.render("method_multi_final")
        shape = _turn_shape(schema, config, templates)
        if config.multi_turn_mode == "final_step":
            shape += "\n" + templates.render(
                "shape_final_intro", instructions=_full_shape(schema, config, templates)
            )
    content = templates.render(
        "system",
        method_instructions=method,
        entity_list=entity_list,
        shape_instructions=shape,
    )
    return ChatMessage("system", content)


def render_inline(
    doc: AnnotatedDocument,
    delimiters: tuple[str, str] | None = None,
) -> str:
    """Render a document as its text with each mention wrapped in tags.

    Default tags are ``<label>``/``</label>``. A custom delimiter pair wraps
    mentions instead, which only works when the document carries a single
    label (one pair cannot encode several entity types). Overlapping
    annotations cannot be rendered in-line and raise RenderError.
    """
    result = validate_document(doc)
    if not result.ok:
        issue = result.issues[0]
        raise RenderError(f"invalid document: {issue.reason} for {issue.annotation}")
    overlap = first_overlap(doc.annotations)
    if overlap is not None:
        raise RenderError(
            f"overlapping annotations cannot be rendered in-line: "
            f"{overlap[0]} and {overlap[1]}"
        )
    annotations = doc.sorted_annotations()
    if delimiters is not None:
        labels = {ann.label for ann in annotations}
        if len(labels) > 1:
            raise RenderError(
                "custom delimiters support a single label per document, "
                f"got {sorted(labels)}"
            )
    parts: list[str] = []
    cursor = 0
    for ann in annotations:
        parts.append(doc.text[cursor : ann.start])
        if delimiters is not None:
            open_, close = delimiters
        else:
            open_, close = f"<{ann.label}>", f"</{ann.label}>"
        parts.append(open_)
        parts.append(doc.text[ann.start : ann.end])
        parts.append(close)
        cursor = ann.end
    parts.append(doc.text[cursor:])
    return "".join(parts)


def render_json(doc: AnnotatedDocument, schema: EntitySchema) -> str:
    """Render a document as a JSON object of label -> mention list.

    Keys follow schema order and every schema label is present, with an
    empty list when it has no mentions. Mentions appear in span order and
    duplicates are kept so counts stay faithful.
    """
    result = validate_document(doc)
    if not result.ok:
        issue = result.issues[0]
        raise RenderError(f"invalid document: {issue.reason} for {issue.annotation}")
    mentions: dict[str, list[str]] = {label: [] for label in schema.labels}
    for ann in doc.sorted_annotations():
        if ann.label not in mentions:
            raise RenderError(f"label {ann.label!r} is not in the schema")
        mentions[ann.label].append(doc.text[ann.start : ann.end])
    return json.dumps(mentions, ensure_ascii=False)


def _restricted(doc: AnnotatedDocument, label: str) -> AnnotatedDocument:
    return AnnotatedDocument(
        doc.text, frozenset(a for a in doc.annotations if a.label == label)
    )


def render_examples(
    examples: Sequence[AnnotatedDocument],
    schema: EntitySchema,
    config: NerConfig,
    templates: PromptTemplateSet | None = None,
) -> tuple[tuple[ChatMessage, ChatMessage], ...]:
    """Render few-shot demonstrations as user/assistant message pairs.

    Each example gets the user turns :func:`plan_turns` plans for its text,
    without final-step's closing turn. Each turn is answered with the
    example's annotations for that turn's label (every label in single-turn
    prompting), rendered in the configured shape.

    Here an example is checked only for what the renderers cannot see:
    its type, a non-empty text and labels from the schema. Span validity
    and overlap are left to :func:`render_inline` and :func:`render_json`,
    which check exactly the document each answer shows, so multi-turn
    prompting accepts one span under several labels. Every failure is a
    ConfigError naming the example.
    """
    templates = templates or PromptTemplateSet()
    pairs: list[tuple[ChatMessage, ChatMessage]] = []
    for position, example in enumerate(examples):
        if not isinstance(example, AnnotatedDocument):
            raise ConfigError(
                f"example {position} must be an AnnotatedDocument, "
                f"got {type(example).__name__}"
            )
        if not example.text:
            raise ConfigError(f"example {position} has empty text")
        unknown = sorted({ann.label for ann in example.annotations} - set(schema.labels))
        if unknown:
            raise ConfigError(f"example {position} uses labels outside the schema: {unknown}")
        for user, label in plan_turns(example.text, schema, config, templates):
            if label is None and config.prompting_method == "multi_turn":
                continue  # final-step's closing turn is not demonstrated
            shown, shown_schema = example, schema
            if label is not None:
                shown = _restricted(example, label)
                shown_schema = EntitySchema({label: schema[label]})
            try:
                if config.answer_shape == "json":
                    answer = render_json(shown, shown_schema)
                else:
                    # NerConfig allows delimiters only in multi-turn, where every
                    # turn demonstrated here asks about one label.
                    answer = render_inline(shown, config.delimiters)
            except RenderError as exc:
                raise ConfigError(f"example {position} cannot be demonstrated: {exc}") from exc
            pairs.append((user, ChatMessage("assistant", answer)))
    return tuple(pairs)


class Turn(NamedTuple):
    """One planned user message and the label it asks about (None: all)."""

    message: ChatMessage
    label: str | None


def plan_turns(
    text: str,
    schema: EntitySchema,
    config: NerConfig,
    templates: PromptTemplateSet | None = None,
) -> tuple[Turn, ...]:
    """The user turns of one document's exchange, in the order they are sent.

    Single-turn prompting asks for every label in one turn. Multi-turn
    prompting asks about one label per turn in schema order, and
    final-step mode closes with a turn asking for every label. The turns
    depend only on the text, schema and configuration, never on the
    replies, so :meth:`NerModel.predict_one` and
    :meth:`NerModel.plan_conversation` share this plan.
    """
    templates = templates or PromptTemplateSet()
    if config.prompting_method == "single_turn":
        return (Turn(ChatMessage("user", templates.render("user_text", text=text)), None),)
    turns = []
    for position, label in enumerate(schema.labels):
        if position == 0:
            content = templates.render("turn_first", label=label, text=text)
        else:
            content = templates.render("turn_next", label=label)
        turns.append(Turn(ChatMessage("user", content), label))
    if config.multi_turn_mode == "final_step":
        turns.append(Turn(ChatMessage("user", templates.render("turn_final")), None))
    return tuple(turns)


def augment_with_pos(
    text: str,
    config: NerConfig,
    *,
    tagger: PosTagger | None = None,
    backend=None,
    backend_config=None,
    templates: PromptTemplateSet | None = None,
) -> str:
    """Append a part-of-speech block beneath ``text`` according to ``config``.

    ``via_hook`` calls ``tagger(text)`` and formats its (token, tag) pairs
    as ``token/TAG``; ``via_llm`` asks the completion backend to tag the
    text and uses its reply verbatim. The tag inventory is whatever the
    hook or model emits. With pos_mode "none" the text comes back unchanged.
    """
    if config.pos_mode == "none":
        return text
    templates = templates or PromptTemplateSet()
    if config.pos_mode == "via_hook":
        if tagger is None:
            raise ConfigError("pos_mode 'via_hook' needs a tagger callable")
        formatted = []
        for pair in tagger(text):
            try:
                token, tag = pair
            except (TypeError, ValueError):
                raise ConfigError(
                    f"POS tagger must yield (token, tag) pairs, got {pair!r}"
                ) from None
            formatted.append(f"{token}/{tag}")
        tags = " ".join(formatted)
    else:  # via_llm
        if backend is None or backend_config is None:
            raise ConfigError("pos_mode 'via_llm' needs a backend and its config")
        from .client import chat_complete

        conversation = (
            ChatMessage("system", templates.render("pos_system")),
            ChatMessage("user", templates.render("pos_request", text=text)),
        )
        tags = chat_complete(conversation, backend_config, backend=backend).strip()
    return templates.render("pos_block", text=text, tags=tags)
