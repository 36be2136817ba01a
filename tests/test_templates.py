"""Prompt template registry: strict placeholders and overrides."""

from __future__ import annotations

import json

import pytest

from chatner import TemplateError
from chatner.templates import TEMPLATE_PLACEHOLDERS, PromptTemplateSet


class TestDefaults:
    def test_default_set_is_complete(self):
        templates = PromptTemplateSet()
        for name in TEMPLATE_PLACEHOLDERS:
            assert name in templates.templates

    def test_placeholders_are_those_the_english_templates_use(self):
        assert TEMPLATE_PLACEHOLDERS == {
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

    def test_render_binds_placeholders(self):
        out = PromptTemplateSet().render("user_text", text="hello")
        assert out == "Text:\nhello"

    def test_rendering_is_pure(self):
        a = PromptTemplateSet().render("turn_next", label="person")
        b = PromptTemplateSet().render("turn_next", label="person")
        assert a == b


class TestStrictness:
    def test_unknown_template_name_rejected_at_load(self):
        with pytest.raises(TemplateError, match="unknown template"):
            PromptTemplateSet({"no_such_template": "x"})

    def test_unknown_placeholder_rejected_at_load(self):
        with pytest.raises(TemplateError, match="placeholder"):
            PromptTemplateSet({"user_text": "Text: {txet}"})

    def test_positional_placeholder_rejected(self):
        with pytest.raises(TemplateError):
            PromptTemplateSet({"user_text": "Text: {}"})

    def test_render_unknown_name_rejected(self):
        with pytest.raises(TemplateError):
            PromptTemplateSet().render("no_such_template")

    def test_render_missing_value_rejected(self):
        with pytest.raises(TemplateError) as caught:
            PromptTemplateSet().render("user_text")
        assert str(caught.value) == "placeholder {text} in template 'user_text' is not bound"

    def test_malformed_override_rejected_at_load(self):
        with pytest.raises(TemplateError, match="template 'user_text' is malformed: expected '}'"):
            PromptTemplateSet({"user_text": "Text: {text"})

    def test_bad_conversion_rejected_at_load(self):
        # Formatter.parse accepts any conversion letter; format_map does not.
        with pytest.raises(TemplateError, match="template 'user_text' is malformed: .* z"):
            PromptTemplateSet({"user_text": "Text: {text!z}"})

    @pytest.mark.parametrize(
        "placeholder",
        ["{text[x]}", "{text.nope}", "{text[0]}", "{text:{width}}", "{text:d}", "{}"],
    )
    def test_placeholder_no_string_can_fill_rejected_at_load(self, placeholder):
        with pytest.raises(TemplateError, match="^template 'user_text' "):
            PromptTemplateSet({"user_text": f"Text: {placeholder}"})

    def test_conversion_and_spec_a_string_accepts_are_kept(self):
        templates = PromptTemplateSet({"user_text": "Text: {text!r:>7}"})
        assert templates.render("user_text", text="hola") == "Text:  'hola'"

    def test_non_mapping_rejected(self):
        with pytest.raises(TemplateError, match="^templates must be a mapping, got int$"):
            PromptTemplateSet(42)


class TestOverrides:
    def test_override_replaces_only_named_templates(self):
        templates = PromptTemplateSet({"user_text": "Texto:\n{text}"})
        assert templates.render("user_text", text="hola") == "Texto:\nhola"
        assert templates.render("turn_next", label="x") == PromptTemplateSet().render(
            "turn_next", label="x"
        )

    def test_placeholder_subset_is_allowed(self):
        templates = PromptTemplateSet({"user_text": "Texto."})
        assert templates.render("user_text", text="ignored") == "Texto."

    def test_from_file(self, tmp_path):
        path = tmp_path / "templates.json"
        path.write_text(json.dumps({"user_text": "Texte :\n{text}"}), encoding="utf-8")
        templates = PromptTemplateSet.from_file(path)
        assert templates.render("user_text", text="bonjour") == "Texte :\nbonjour"

    def test_from_file_rejects_non_object(self, tmp_path):
        path = tmp_path / "templates.json"
        path.write_text('["user_text"]', encoding="utf-8")
        with pytest.raises(TemplateError):
            PromptTemplateSet.from_file(path)

    def test_from_file_rejects_non_string_values(self, tmp_path):
        path = tmp_path / "templates.json"
        path.write_text('{"user_text": 3}', encoding="utf-8")
        with pytest.raises(TemplateError):
            PromptTemplateSet.from_file(path)
