"""Prompt text templates with strict placeholder checking.

All model-facing wording lives here so it can be overridden wholesale,
for example to prompt in another language, without touching any code.
Overrides come from a flat JSON object mapping template name to template
string; placeholders use ``str.format`` syntax and are validated at load
time against the set each template is allowed to reference.
"""

from __future__ import annotations

import json
import string
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .errors import TemplateError

# Template name -> placeholders it may reference. Bindings are supplied by
# the prompting layer, so a placeholder outside this set could never be
# filled and is rejected when the template set is built.
TEMPLATE_PLACEHOLDERS: dict[str, frozenset[str]] = {
    "system": frozenset({"method_instructions", "entity_list", "shape_instructions"}),
    "entity_item": frozenset({"label", "description"}),
    "method_single": frozenset({"labels"}),
    "method_multi": frozenset(),
    "method_multi_final": frozenset(),
    "shape_inline": frozenset({"tag_examples"}),
    "tag_example": frozenset({"label"}),
    "shape_json": frozenset({"json_example", "labels"}),
    "shape_json_turn": frozenset({"json_example"}),
    "shape_delimiters": frozenset({"open", "close"}),
    "shape_final_intro": frozenset({"instructions"}),
    "user_text": frozenset({"text"}),
    "turn_first": frozenset({"label", "text"}),
    "turn_next": frozenset({"label"}),
    "turn_final": frozenset(),
    "pos_system": frozenset(),
    "pos_request": frozenset({"text"}),
    "pos_block": frozenset({"text", "tags"}),
}

_ENGLISH = {
    "system": (
        "{method_instructions}\n"
        "\n"
        "The entities to annotate are:\n"
        "{entity_list}\n"
        "\n"
        "{shape_instructions}"
    ),
    "entity_item": "- {label}: {description}",
    "method_single": (
        "You are a named-entity annotator. Annotate the mentions of the "
        "entities {labels} in the text given by the user."
    ),
    "method_multi": (
        "You are a named-entity annotator. You will annotate the text given "
        "by the user one entity at a time; each of my messages names the "
        "entity to annotate next."
    ),
    "method_multi_final": (
        "After the last entity I will ask you to annotate all the entities "
        "at once."
    ),
    "shape_inline": (
        "Answer by echoing the exact input text, enclosing every entity "
        "mention between tags named after its entity, like this: "
        "{tag_examples}. Do not change the text in any other way and do not "
        "add explanations."
    ),
    "tag_example": "<{label}>mention</{label}>",
    "shape_json": (
        "Answer with a JSON object in which each key is an entity name and "
        "each value is the list of exact text mentions of that entity, like "
        "this: {json_example}. Use exactly the keys {labels}; give an empty "
        "list for entities without mentions. Answer with the JSON object "
        "only."
    ),
    "shape_json_turn": (
        "Answer with a JSON object whose only key is the name of the "
        "requested entity and whose value is the list of exact text mentions "
        "of that entity, like this: {json_example}. Answer with the JSON "
        "object only."
    ),
    "shape_delimiters": (
        "Answer by echoing the exact input text, enclosing every mention of "
        "the requested entity between '{open}' and '{close}'. Do not change "
        "the text in any other way and do not add explanations."
    ),
    "shape_final_intro": (
        "When I ask for all the entities at once, answer as follows. "
        "{instructions}"
    ),
    "user_text": "Text:\n{text}",
    "turn_first": (
        "Annotate the mentions of the entity {label} in the following text.\n"
        "Text:\n"
        "{text}"
    ),
    "turn_next": "And now annotate the mentions of the entity {label}.",
    "turn_final": (
        "Now annotate the mentions of all the entities in the text, "
        "following the answer format described at the start."
    ),
    "pos_system": "You are a part-of-speech tagger.",
    "pos_request": (
        "Tag every token of the following text with its part of speech. "
        "Answer only with whitespace-separated token/TAG pairs.\n"
        "Text:\n"
        "{text}"
    ),
    "pos_block": "{text}\n\nPart-of-speech tags:\n{tags}",
}


def _placeholder_names(name: str, template: str) -> set[str]:
    names: set[str] = set()
    try:
        parsed = list(string.Formatter().parse(template))
    except ValueError as exc:
        raise TemplateError(f"template {name!r} is malformed: {exc}") from exc
    for _literal, fieldname, _spec, _conv in parsed:
        if fieldname is None:
            continue
        if fieldname == "" or fieldname.isdigit():
            raise TemplateError(
                f"template {name!r} uses a positional placeholder; "
                "placeholders must be named"
            )
        names.add(fieldname.split(".")[0].split("[")[0])
    return names


class _StrictBindings(dict):
    def __init__(self, name: str, values: Mapping[str, object]):
        super().__init__(values)
        self._name = name

    def __missing__(self, key: str) -> object:
        raise TemplateError(
            f"placeholder {{{key}}} in template {self._name!r} is not bound"
        )


@dataclass(frozen=True)
class PromptTemplateSet:
    """A complete, validated set of prompt templates (by default, English)."""

    templates: Mapping[str, str] = field(default_factory=lambda: dict(_ENGLISH))

    def __post_init__(self) -> None:
        object.__setattr__(self, "templates", dict(self.templates))
        missing = set(TEMPLATE_PLACEHOLDERS) - set(self.templates)
        if missing:
            raise TemplateError(f"missing templates: {sorted(missing)}")
        for name, template in self.templates.items():
            if name not in TEMPLATE_PLACEHOLDERS:
                raise TemplateError(f"unknown template name {name!r}")
            if not isinstance(template, str):
                raise TemplateError(f"template {name!r} must be a string")
            allowed = TEMPLATE_PLACEHOLDERS[name]
            unknown = _placeholder_names(name, template) - allowed
            if unknown:
                raise TemplateError(
                    f"template {name!r} references unknown placeholder "
                    f"{{{sorted(unknown)[0]}}}; allowed: {sorted(allowed) or 'none'}"
                )

    def render(self, name: str, **values: object) -> str:
        """Fill template ``name``; unbound placeholders raise TemplateError."""
        try:
            template = self.templates[name]
        except KeyError:
            raise TemplateError(f"unknown template name {name!r}") from None
        try:
            return template.format_map(_StrictBindings(name, values))
        except (ValueError, IndexError) as exc:
            raise TemplateError(f"template {name!r} is malformed: {exc}") from exc

    @classmethod
    def with_overrides(cls, overrides: Mapping[str, str]) -> "PromptTemplateSet":
        """Overlay ``overrides`` on the built-in English templates."""
        return cls({**_ENGLISH, **overrides})

    @classmethod
    def from_file(cls, path: str | Path) -> "PromptTemplateSet":
        """Load overrides from a flat JSON object of name -> template string."""
        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise TemplateError(f"template file {path}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise TemplateError(f"template file {path} must hold a JSON object")
        return cls.with_overrides(data)
