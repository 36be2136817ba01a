"""Prompt text templates with strict placeholder checking.

All model-facing wording lives here so it can be overridden wholesale,
for example to prompt in another language, without touching any code.
Overrides come from a flat JSON object mapping template name to template
string; placeholders are plain ``str.format`` names, validated at load
time against the set each template is allowed to reference.
"""

from __future__ import annotations

import string
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .domain import read_json_object
from .errors import TemplateError

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
    """The placeholders of ``template``: plain names (no index, attribute or
    position) with no placeholder nested in a format spec, and with the
    conversions and format specs a string accepts (checked by formatting
    ``template`` once with every name bound to an empty string)."""
    try:
        fields = [(f, spec) for _, f, spec, _ in string.Formatter().parse(template) if f is not None]
        bad = [f"{f}:{spec}" if spec else f for f, spec in fields
               if not f.isidentifier() or "{" in spec]
        if not bad:
            template.format_map({f: "" for f, _ in fields})
    except ValueError as exc:
        raise TemplateError(f"template {name!r} is malformed: {exc}") from exc
    if bad:
        raise TemplateError(
            f"template {name!r} has an invalid placeholder {{{bad[0]}}}: "
            "placeholders must be plain names, with no placeholder in a format spec"
        )
    return {f for f, _ in fields}


# Template name -> placeholders it may reference: exactly those its English
# text uses. Bindings are supplied by the prompting layer, so a placeholder
# outside this set could never be filled and is rejected when the template
# set is built.
TEMPLATE_PLACEHOLDERS: dict[str, frozenset[str]] = {
    name: frozenset(_placeholder_names(name, template)) for name, template in _ENGLISH.items()
}


@dataclass(frozen=True)
class PromptTemplateSet:
    """The English prompt templates, with the overrides in ``templates`` laid
    over them by name. Every check is made here, once (see
    :func:`_placeholder_names`); afterwards ``templates`` holds the full set."""

    templates: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.templates, Mapping):
            raise TemplateError(f"templates must be a mapping, got {type(self.templates).__name__}")
        object.__setattr__(self, "templates", {**_ENGLISH, **self.templates})
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

    def render(self, name: str, **values: str) -> str:
        """Fill template ``name`` with string ``values``; an unknown name or an
        unbound placeholder raises TemplateError, and nothing else can fail."""
        try:
            template = self.templates[name]
        except KeyError:
            raise TemplateError(f"unknown template name {name!r}") from None
        try:
            return template.format_map(values)
        except KeyError as exc:
            raise TemplateError(
                f"placeholder {{{exc.args[0]}}} in template {name!r} is not bound"
            ) from None

    @classmethod
    def from_file(cls, path: str | Path) -> "PromptTemplateSet":
        """Load overrides from a flat JSON object of name -> template string."""
        return cls(read_json_object(path, "template file", TemplateError))
