"""Prompt composition: system messages, demonstrations, turns, POS blocks."""

from __future__ import annotations

import json

import pytest

from chatner import (
    AnnotatedDocument,
    Annotation,
    ChatMessage,
    ConfigError,
    EntitySchema,
    RenderError,
    ZeroShotNer,
)
from chatner.client import MockBackend
from chatner.domain import NerConfig
from chatner.prompting import (
    compose_system_prompt,
    plan_turns,
    render_examples,
    render_inline,
    render_json,
)
from chatner.templates import PromptTemplateSet

TEMPLATES = PromptTemplateSet()


@pytest.fixture
def country_doc():
    return AnnotatedDocument(
        "Fei-Fei Li is a female scientist born in China.",
        {Annotation(0, 10, "person"), Annotation(41, 46, "country")},
    )


@pytest.fixture
def country_schema():
    return EntitySchema({"person": "People.", "country": "Countries."})


class TestChatMessage:
    def test_roles_validated(self):
        with pytest.raises(ValueError):
            ChatMessage("oracle", "hi")

    def test_empty_content_rejected(self):
        with pytest.raises(ValueError):
            ChatMessage("user", "")

    def test_immutable_value(self):
        assert ChatMessage("user", "hi") == ChatMessage("user", "hi")


class TestComposeSystemPrompt:
    def test_inline_lists_labels_descriptions_and_tags(self, golden_schema):
        message = compose_system_prompt(golden_schema, NerConfig(), TEMPLATES)
        assert message.role == "system"
        for label, description in golden_schema.items():
            assert label in message.content
            assert description in message.content
        assert "<person>" in message.content
        assert "</person>" in message.content

    def test_json_shape_names_keys_and_json(self, golden_schema):
        message = compose_system_prompt(
            golden_schema, NerConfig(answer_shape="json"), TEMPLATES
        )
        assert "JSON" in message.content
        assert '"person"' in message.content
        assert "<person>" not in message.content

    def test_multi_turn_announces_one_at_a_time(self, golden_schema):
        message = compose_system_prompt(
            golden_schema, NerConfig(method="multi_turn"), TEMPLATES
        )
        assert "one entity at a time" in message.content

    def test_final_step_includes_full_shape_contract(self, golden_schema):
        message = compose_system_prompt(
            golden_schema,
            NerConfig(method="multi_turn", multi_turn_mode="final_step"),
            TEMPLATES,
        )
        assert "all the entities" in message.content
        assert "<person>" in message.content

    def test_delimiters_described(self, golden_schema):
        message = compose_system_prompt(
            golden_schema,
            NerConfig(method="multi_turn", delimiters=("@@", "##")),
            TEMPLATES,
        )
        assert "@@" in message.content and "##" in message.content

    def test_pure_function(self, golden_schema):
        config = NerConfig(answer_shape="json")
        assert (
            compose_system_prompt(golden_schema, config, TEMPLATES).content
            == compose_system_prompt(golden_schema, config, TEMPLATES).content
        )


class TestRenderInline:
    def test_tagged_echo(self, country_doc):
        assert render_inline(country_doc) == (
            "<person>Fei-Fei Li</person> is a female scientist born in "
            "<country>China</country>."
        )

    def test_no_annotations_identity(self):
        assert render_inline(AnnotatedDocument("plain text")) == "plain text"

    def test_custom_delimiters(self):
        doc = AnnotatedDocument("Peru", [Annotation(0, 4, "location")])
        assert render_inline(doc, ("@@", "##")) == "@@Peru##"

    def test_overlap_rejected_naming_both_spans(self):
        doc = AnnotatedDocument(
            "Peru", [Annotation(0, 4, "loc"), Annotation(2, 4, "org")]
        )
        with pytest.raises(RenderError) as err:
            render_inline(doc)
        assert "start=0, end=4" in str(err.value)
        assert "start=2, end=4" in str(err.value)

    def test_touching_spans_render(self):
        doc = AnnotatedDocument("abcd", [Annotation(0, 2, "a"), Annotation(2, 4, "b")])
        assert render_inline(doc) == "<a>ab</a><b>cd</b>"

    @pytest.mark.parametrize(
        "first, second",
        [(Annotation(1, 3, "a"), Annotation(2, 4, "b")),
         (Annotation(0, 9, "a"), Annotation(3, 4, "b"))],
        ids=["overlap", "containment"],
    )
    def test_first_overlapping_pair_named(self, first, second):
        doc = AnnotatedDocument("abcdefghij", [second, first, Annotation(5, 6, "c")])
        with pytest.raises(RenderError) as err:
            render_inline(doc)
        assert str(err.value) == (
            f"overlapping annotations cannot be rendered in-line: {first} and {second}"
        )

    def test_overlap_reported_before_mixed_labels_under_delimiters(self):
        doc = AnnotatedDocument("abcd", [Annotation(0, 3, "a"), Annotation(2, 4, "b")])
        with pytest.raises(RenderError, match="overlapping"):
            render_inline(doc, ("@@", "##"))

    def test_delimiters_with_multi_label_doc_rejected(self):
        doc = AnnotatedDocument(
            "a b", [Annotation(0, 1, "x"), Annotation(2, 3, "y")]
        )
        with pytest.raises(RenderError):
            render_inline(doc, ("@@", "##"))

    def test_invalid_document_rejected(self):
        with pytest.raises(RenderError):
            render_inline(AnnotatedDocument("ab", [Annotation(0, 5, "x")]))

    @pytest.mark.parametrize(
        "annotations",
        [[Annotation(0, 1, 5)], [Annotation(0, 1, 5), Annotation(0, 1, "x")]],
        ids=["alone", "beside a string label"],
    )
    def test_label_that_is_not_a_string_rejected(self, annotations):
        with pytest.raises(RenderError, match="label is not a string$"):
            render_inline(AnnotatedDocument("ab", annotations))

    @pytest.mark.parametrize("offset", ["0", None])
    def test_offsets_of_mixed_types_rejected(self, offset):
        # Sorting the spans compares no offset with one of another type.
        doc = AnnotatedDocument("ab", [Annotation(offset, 1, "x"), Annotation(0, 1, "x")])
        message = rf"^invalid document: annotation \({offset!r}, 1, 'x'\) does not fit the text: "
        with pytest.raises(RenderError, match=message + "offsets must be integers$"):
            render_inline(doc)
        with pytest.raises(RenderError, match=message + "offsets must be integers$"):
            render_json(doc, EntitySchema({"x": "Xs."}))

    def test_tag_stripping_recovers_text(self, country_doc):
        rendered = render_inline(country_doc)
        stripped = (
            rendered.replace("<person>", "").replace("</person>", "")
            .replace("<country>", "").replace("</country>", "")
        )
        assert stripped == country_doc.text


class TestRenderJson:
    def test_schema_ordered_object(self, country_doc, country_schema):
        assert render_json(country_doc, country_schema) == (
            '{"person": ["Fei-Fei Li"], "country": ["China"]}'
        )

    def test_empty_doc_has_empty_lists(self):
        schema = EntitySchema({"person": "People."})
        assert render_json(AnnotatedDocument("x"), schema) == '{"person": []}'

    def test_duplicate_mentions_preserved_in_span_order(self):
        doc = AnnotatedDocument(
            "Ana met Ana", [Annotation(0, 3, "person"), Annotation(8, 11, "person")]
        )
        schema = EntitySchema({"person": "People."})
        assert json.loads(render_json(doc, schema)) == {"person": ["Ana", "Ana"]}

    def test_label_outside_schema_rejected(self):
        doc = AnnotatedDocument("Ana", [Annotation(0, 3, "city")])
        with pytest.raises(RenderError):
            render_json(doc, EntitySchema({"person": "People."}))

    def test_output_is_json_with_schema_key_order(self, country_doc, country_schema):
        decoded = json.loads(render_json(country_doc, country_schema))
        assert list(decoded) == list(country_schema.labels)


class TestRenderExamples:
    def test_single_turn_json_demonstrations(self, fewshot_examples, golden_schema):
        pairs = render_examples(
            fewshot_examples, golden_schema, NerConfig(answer_shape="json"), TEMPLATES
        )
        assert len(pairs) == 2
        for (user, assistant), example in zip(pairs, fewshot_examples):
            assert user.role == "user" and assistant.role == "assistant"
            assert example.text in user.content
            assert list(json.loads(assistant.content)) == list(golden_schema.labels)

    def test_empty_examples_give_empty_sequence(self, golden_schema):
        assert render_examples([], golden_schema, NerConfig(), TEMPLATES) == ()

    def test_multi_turn_expands_per_label(self, fewshot_examples, golden_schema):
        pairs = render_examples(
            fewshot_examples[:1],
            golden_schema,
            NerConfig(method="multi_turn"),
            TEMPLATES,
        )
        assert len(pairs) == len(golden_schema)

    def test_final_step_demonstrations_stop_before_the_closing_turn(
        self, fewshot_examples, golden_schema
    ):
        step, final = (
            render_examples(
                fewshot_examples,
                golden_schema,
                NerConfig(method="multi_turn", multi_turn_mode=mode),
                TEMPLATES,
            )
            for mode in ("step_by_step", "final_step")
        )
        assert final == step
        assert len(final) == len(fewshot_examples) * len(golden_schema)

    def test_multi_turn_first_pair_carries_text(self, fewshot_examples, golden_schema):
        pairs = render_examples(
            fewshot_examples[:1],
            golden_schema,
            NerConfig(method="multi_turn"),
            TEMPLATES,
        )
        assert fewshot_examples[0].text in pairs[0][0].content
        assert all(
            fewshot_examples[0].text not in user.content for user, _ in pairs[1:]
        )

    def test_multi_turn_delimiters_rendered_per_label(self, fewshot_examples):
        schema = EntitySchema({"person": "People.", "organization": "Orgs."})
        doc = fewshot_examples[1]  # Bill Gates / Microsoft
        pairs = render_examples(
            [doc],
            schema,
            NerConfig(method="multi_turn", delimiters=("@@", "##")),
            TEMPLATES,
        )
        assert pairs[0][1].content == "@@Bill Gates## is the owner of Microsoft"
        assert pairs[1][1].content == "Bill Gates is the owner of @@Microsoft##"

    def test_single_turn_inline_demonstrations_are_tagged(
        self, fewshot_examples, golden_schema
    ):
        pairs = render_examples(
            fewshot_examples, golden_schema, NerConfig(), TEMPLATES
        )
        assert "<person>Elon Musk</person>" in pairs[0][1].content

    def test_out_of_schema_example_rejected(self):
        doc = AnnotatedDocument("Lima", [Annotation(0, 4, "city")])
        expected = r"example 0 uses labels outside the schema: \['city'\]"
        with pytest.raises(ConfigError, match=expected):
            render_examples(
                [doc], EntitySchema({"person": "People."}), NerConfig(), TEMPLATES
            )


class TestTurns:
    def make_plan(self, mode="step_by_step", method="multi_turn"):
        schema = EntitySchema({"location": "Places.", "person": "People."})
        config = NerConfig(method=method, multi_turn_mode=mode)
        return plan_turns("Pedro went to Peru.", schema, config, TEMPLATES)

    def test_first_turn_names_first_label_and_text(self):
        message, label = self.make_plan()[0]
        assert message.role == "user"
        assert label == "location"
        assert "location" in message.content
        assert "Pedro went to Peru." in message.content

    def test_second_turn_names_second_label_only(self):
        message, label = self.make_plan()[1]
        assert label == "person"
        assert "person" in message.content
        assert "Pedro went to Peru." not in message.content

    def test_step_mode_yields_exactly_label_count(self):
        assert len(self.make_plan()) == 2

    def test_final_mode_yields_one_extra_closing_request(self):
        turns = self.make_plan("final_step")
        assert len(turns) == 3
        assert turns[-1].label is None
        assert "all the entities" in turns[-1].message.content

    def test_turn_order_follows_schema_order(self):
        first, second = self.make_plan()
        assert first.message.content.index("location") and "person" in second.message.content

    @pytest.mark.parametrize("mode", ["step_by_step", "final_step"])
    def test_single_turn_asks_for_every_label_at_once(self, mode):
        (turn,) = self.make_plan(mode, method="single_turn")
        assert turn.label is None
        assert turn.message.content == TEMPLATES.render(
            "user_text", text="Pedro went to Peru."
        )


def pos_query(text, tags):
    block = TEMPLATES.render("pos_block", text=text, tags=tags)
    return TEMPLATES.render("user_text", text=block)


class TestAugmentWithPos:
    """The part-of-speech block the model adds to the user's query."""

    def test_hook_formats_token_tag_pairs(self, country_schema):
        model = ZeroShotNer(
            pos_mode="via_hook",
            pos_tagger=lambda text: [("China", "NNP"), ("won", "VBD"), (".", ".")],
        ).contextualize(country_schema)
        out = model.plan_conversation("China won.")[-1].content
        assert "China won." in out
        assert "China/NNP won/VBD ./." in out
        assert out == pos_query("China won.", "China/NNP won/VBD ./.")

    def test_hook_required(self, country_schema):
        with pytest.raises(ConfigError):
            ZeroShotNer(pos_mode="via_hook").contextualize(country_schema)
        model = ZeroShotNer(
            pos_mode="via_hook", pos_tagger=lambda text: []
        ).contextualize(country_schema)
        model.set_params(pos_tagger=None)
        with pytest.raises(ConfigError, match="needs a tagger callable"):
            model.plan_conversation("x")

    def test_via_llm_uses_backend_reply(self, country_schema):
        backend = MockBackend(
            replies=["China/NNP won/VBD ./.", "<country>China</country> won."]
        )
        model = ZeroShotNer(pos_mode="via_llm", backend=backend).contextualize(
            country_schema
        )
        doc, _ = model.predict_one("China won.")
        assert doc.annotations == {Annotation(0, 5, "country")}
        assert len(backend.calls) == 2
        assert "China won." in backend.calls[0][-1].content
        assert backend.calls[1][-1].content == pos_query(
            "China won.", "China/NNP won/VBD ./."
        )
