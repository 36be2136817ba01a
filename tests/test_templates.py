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
            PromptTemplateSet.with_overrides({"no_such_template": "x"})

    def test_unknown_placeholder_rejected_at_load(self):
        with pytest.raises(TemplateError, match="placeholder"):
            PromptTemplateSet.with_overrides({"user_text": "Text: {txet}"})

    def test_positional_placeholder_rejected(self):
        with pytest.raises(TemplateError):
            PromptTemplateSet.with_overrides({"user_text": "Text: {}"})

    def test_missing_template_rejected(self):
        incomplete = dict(PromptTemplateSet().templates)
        del incomplete["user_text"]
        with pytest.raises(TemplateError, match="missing"):
            PromptTemplateSet(templates=incomplete)

    def test_render_unknown_name_rejected(self):
        with pytest.raises(TemplateError):
            PromptTemplateSet().render("no_such_template")

    def test_render_missing_value_rejected(self):
        with pytest.raises(TemplateError):
            PromptTemplateSet().render("user_text")


class TestOverrides:
    def test_override_replaces_only_named_templates(self):
        templates = PromptTemplateSet.with_overrides({"user_text": "Texto:\n{text}"})
        assert templates.render("user_text", text="hola") == "Texto:\nhola"
        assert templates.render("turn_next", label="x") == PromptTemplateSet().render(
            "turn_next", label="x"
        )

    def test_placeholder_subset_is_allowed(self):
        templates = PromptTemplateSet.with_overrides({"user_text": "Texto."})
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
