"""The estimator workflow: contextualize, predict, batch concurrency."""

from __future__ import annotations

import dataclasses
import inspect
import json

import pytest

from chatner import (
    AnnotatedDocument,
    Annotation,
    ChatMessage,
    ConfigError,
    ConversationError,
    EntitySchema,
    FewShotNer,
    NotContextualizedError,
    ParseError,
    RateLimitError,
    TemplateError,
    ZeroShotNer,
)
from chatner.client import BackendConfig, MockBackend
from chatner.domain import NerConfig, check_spans
from chatner.engine import NerModel
from chatner.errors import MalformedResponseError, MockScriptError
from chatner.templates import PromptTemplateSet

TEMPLATES = PromptTemplateSet()

SCHEMA = {"person": "Names of people.", "location": "Geographic places."}


def seq(*replies):
    return MockBackend(replies=list(replies))


class TestParams:
    def test_get_params_reports_constructor_arguments(self):
        model = NerModel(method="multi_turn", temperature=0.5)
        params = model.get_params()
        assert params["method"] == "multi_turn"
        assert params["temperature"] == 0.5
        assert "backend" in params and "max_concurrency" in params

    def test_params_round_trip_into_clone(self):
        original = NerModel(method="multi_turn", delimiters=("@@", "##"), max_retries=7)
        clone = NerModel(**original.get_params())
        assert clone.get_params() == original.get_params()

    def test_set_params_chains_and_updates(self):
        model = NerModel()
        assert model.set_params(temperature=0.7) is model
        assert model.temperature == 0.7

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            NerModel().set_params(tempurature=1.0)

    @pytest.mark.parametrize("config_class", [NerConfig, BackendConfig])
    def test_config_fields_are_parameters_with_the_same_default(self, config_class):
        parameters = inspect.signature(NerModel).parameters
        for field in dataclasses.fields(config_class):
            assert parameters[field.name].default == field.default, field.name

    def test_repr_hides_the_key_equality_is_identity_and_parameters_are_keywords(self):
        assert "sk-secret" not in repr(NerModel(api_key="sk-secret"))
        first, second = NerModel(), NerModel()
        assert first == first and first != second
        assert len({first, second}) == 2
        with pytest.raises(TypeError):
            NerModel("multi_turn")

    def test_constructor_stores_values_verbatim_without_validation(self):
        model = NerModel(method="telepathy")
        assert model.method == "telepathy"
        with pytest.raises(ConfigError):
            model.contextualize(SCHEMA)


class TestContextualize:
    def test_predict_rejected_before_contextualize(self):
        with pytest.raises(NotContextualizedError, match="contextualize"):
            NerModel(backend=seq("x")).predict_one("text")
        with pytest.raises(NotContextualizedError):
            NerModel(backend=seq("x")).predict(["text"])

    def test_returns_self_and_sets_fitted_state(self):
        model = ZeroShotNer(backend=seq("x"))
        assert model.contextualize(SCHEMA) is model
        assert model.schema_ is not None
        assert model.schema_.labels == ("person", "location")
        assert model.prefix_[0].role == "system"

    def test_plain_mapping_accepted_as_schema(self):
        model = ZeroShotNer(backend=seq("x")).contextualize(SCHEMA)
        assert isinstance(model.schema_, EntitySchema)

    def test_few_shot_prefix_contains_demonstrations(self, fewshot_examples):
        model = FewShotNer(backend=seq("x"))
        model.contextualize(
            dict(SCHEMA, organization="Companies."), examples=fewshot_examples
        )
        assert len(model.prefix_) == 1 + 2 * len(fewshot_examples)
        roles = [message.role for message in model.prefix_]
        assert roles == ["system", "user", "assistant", "user", "assistant"]

    def test_zero_shot_rejects_examples(self, fewshot_examples):
        with pytest.raises(ConfigError, match="zero-shot"):
            ZeroShotNer().contextualize(SCHEMA, examples=fewshot_examples)
        with pytest.raises(ConfigError, match="zero-shot"):
            ZeroShotNer().contextualize(SCHEMA, examples=iter(fewshot_examples))

    @pytest.mark.parametrize(
        "empty", [[], iter([]), (doc for doc in [])], ids=["list", "iterator", "generator"]
    )
    def test_zero_shot_accepts_no_examples(self, empty):
        model = ZeroShotNer(backend=seq("x")).contextualize(SCHEMA, examples=empty)
        assert [message.role for message in model.prefix_] == ["system"]

    def test_few_shot_requires_examples(self):
        with pytest.raises(ConfigError, match="few-shot"):
            FewShotNer().contextualize(SCHEMA)
        with pytest.raises(ConfigError, match="few-shot"):
            FewShotNer().contextualize(SCHEMA, examples=[])

    @pytest.mark.parametrize(
        "empty", [iter([]), (doc for doc in [])], ids=["iterator", "generator"]
    )
    def test_few_shot_refuses_an_empty_iterable(self, empty):
        with pytest.raises(ConfigError) as caught:
            FewShotNer().contextualize(SCHEMA, examples=empty)
        assert str(caught.value) == "a few-shot model requires a non-empty examples list"

    def test_examples_are_read_once(self, fewshot_examples):
        schema = dict(SCHEMA, organization="Companies.")
        from_list = FewShotNer(backend=seq("x")).contextualize(schema, examples=fewshot_examples)
        from_generator = FewShotNer(backend=seq("x")).contextualize(
            schema, examples=(example for example in fewshot_examples)
        )
        assert from_generator.prefix_ == from_list.prefix_

    @pytest.mark.parametrize("model_class", [NerModel, ZeroShotNer, FewShotNer])
    def test_examples_that_are_not_iterable_rejected(self, model_class):
        with pytest.raises(ConfigError, match="examples must be iterable, got AnnotatedDocument"):
            model_class().contextualize(SCHEMA, examples=AnnotatedDocument("Lima"))

    def test_example_rule_checked_before_the_schema(self, fewshot_examples):
        with pytest.raises(ConfigError, match="zero-shot"):
            ZeroShotNer().contextualize({}, examples=fewshot_examples)
        with pytest.raises(ConfigError, match="few-shot"):
            FewShotNer(method="telepathy").contextualize({})

    def test_example_with_out_of_schema_label_rejected(self):
        # Multi-turn renders one label per turn, so this check is all that
        # keeps an unknown label from being dropped silently there.
        bad = AnnotatedDocument("Lima", [Annotation(0, 4, "city")])
        for method in ("single_turn", "multi_turn"):
            with pytest.raises(ConfigError, match="example 0 .*city"):
                FewShotNer(method=method).contextualize(SCHEMA, examples=[bad])

    def test_example_of_wrong_type_or_empty_text_rejected(self):
        with pytest.raises(ConfigError, match="example 0 must be an AnnotatedDocument"):
            FewShotNer().contextualize(SCHEMA, examples=[{"text": "Lima"}])
        with pytest.raises(ConfigError, match="example 1 has empty text"):
            FewShotNer().contextualize(
                SCHEMA, examples=[AnnotatedDocument("Lima"), AnnotatedDocument("")]
            )

    def test_overlapping_example_rejected_for_inline_shape(self):
        overlapping = AnnotatedDocument(
            "Peru", [Annotation(0, 4, "location"), Annotation(0, 4, "person")]
        )
        with pytest.raises(ConfigError, match="example 0 .*overlapping"):
            FewShotNer(answer_shape="inline").contextualize(
                SCHEMA, examples=[overlapping]
            )
        FewShotNer(answer_shape="json", backend=seq("x")).contextualize(
            SCHEMA, examples=[overlapping]
        )

    @pytest.mark.parametrize("delimiters", [None, ("@@", "##")])
    def test_multi_turn_demonstrates_one_span_under_two_labels(self, delimiters):
        peru = AnnotatedDocument(
            "Peru", [Annotation(0, 4, "location"), Annotation(0, 4, "person")]
        )
        model = FewShotNer(method="multi_turn", delimiters=delimiters, backend=seq("x"))
        model.contextualize({"location": "Places.", "person": "People."}, examples=[peru])
        answers = [message.content for message in model.prefix_[2::2]]
        if delimiters is None:
            assert answers == ["<location>Peru</location>", "<person>Peru</person>"]
        else:
            assert answers == ["@@Peru##", "@@Peru##"]

    def test_multi_turn_rejects_same_label_overlap(self):
        nested = AnnotatedDocument(
            "New York", [Annotation(0, 8, "location"), Annotation(4, 8, "location")]
        )
        with pytest.raises(ConfigError, match="example 0 .*overlapping"):
            FewShotNer(method="multi_turn").contextualize(SCHEMA, examples=[nested])

    def test_invalid_example_spans_rejected(self):
        broken = AnnotatedDocument("ab", [Annotation(0, 9, "person")])
        for method in ("single_turn", "multi_turn"):
            for shape in ("inline", "json"):
                with pytest.raises(ConfigError, match="example 0 .*past the end"):
                    FewShotNer(method=method, answer_shape=shape).contextualize(
                        SCHEMA, examples=[broken]
                    )

    def test_example_with_a_bool_offset_rejected(self):
        # True == 1, but an offset of True is no integer: it is refused as
        # document_from_record refuses it, not rendered as offset 1.
        flagged = AnnotatedDocument("ab", [Annotation(True, 2, "person")])
        for method in ("single_turn", "multi_turn"):
            for shape in ("inline", "json"):
                with pytest.raises(ConfigError, match="example 0 .*offsets must be integers"):
                    FewShotNer(method=method, answer_shape=shape).contextualize(
                        SCHEMA, examples=[flagged]
                    )

    @pytest.mark.parametrize("offset", ["0", None])
    def test_example_with_offsets_of_mixed_types_rejected(self, offset):
        # Sorting its spans must not compare a string or None with an int.
        spans = [Annotation(offset, 1, "person"), Annotation(0, 1, "person")]
        mixed = AnnotatedDocument("ab", spans)
        for method in ("single_turn", "multi_turn"):
            for shape in ("inline", "json"):
                with pytest.raises(ConfigError, match="example 0 .*offsets must be integers"):
                    FewShotNer(method=method, answer_shape=shape).contextualize(
                        SCHEMA, examples=[mixed]
                    )

    def test_example_with_unknown_labels_of_mixed_types_rejected(self):
        mixed = AnnotatedDocument("ab", [Annotation(0, 1, 5), Annotation(1, 2, "city")])
        expected = r"^example 0 uses labels outside the schema: \['city', 5\]$"
        with pytest.raises(ConfigError, match=expected):
            FewShotNer().contextualize(SCHEMA, examples=[mixed])

    def test_delimiters_with_single_turn_rejected(self):
        with pytest.raises(ConfigError, match="custom delimiters require multi-turn"):
            NerModel(delimiters=("@@", "##")).contextualize(SCHEMA)

    def test_delimiters_with_json_shape_rejected(self):
        model = NerModel(method="multi_turn", answer_shape="json", delimiters=("@@", "##"))
        with pytest.raises(ConfigError, match="inline answer shape"):
            model.contextualize(SCHEMA)

    def test_zero_concurrency_rejected(self):
        with pytest.raises(ConfigError, match="max_concurrency"):
            NerModel(max_concurrency=0).contextualize(SCHEMA)

    @pytest.mark.parametrize("workers", [float("nan"), 2.5, 2.0, "2", True, None, -1])
    def test_concurrency_must_be_a_positive_int(self, workers):
        with pytest.raises(ConfigError, match="max_concurrency must be an int >= 1"):
            NerModel(max_concurrency=workers).contextualize(SCHEMA)

    @pytest.mark.parametrize(
        "params", [{"temperature": "0.5"}, {"timeout": None}], ids=["str", "None"]
    )
    def test_non_number_connection_setting_is_a_config_error(self, params):
        with pytest.raises(ConfigError, match=f"{next(iter(params))} must be a number"):
            ZeroShotNer(**params).contextualize(SCHEMA)

    def test_pos_hook_mode_requires_tagger(self):
        with pytest.raises(ConfigError, match="pos_tagger"):
            NerModel(pos_mode="via_hook").contextualize(SCHEMA)

    def test_template_overrides_via_mapping(self):
        model = ZeroShotNer(
            backend=seq("x"), templates={"user_text": "Texto:\n{text}"}
        ).contextualize(SCHEMA)
        planned = model.plan_conversation("hola")
        assert planned[-1].content == "Texto:\nhola"

    def test_template_set_used_as_given(self):
        templates = PromptTemplateSet({"user_text": "Texto:\n{text}"})
        model = ZeroShotNer(backend=seq("x"), templates=templates).contextualize(SCHEMA)
        assert model.templates_ is templates

    def test_templates_of_another_type_rejected(self):
        # The template set states the rule; falsy values are not read as None.
        for templates in (42, [], 0):
            name = type(templates).__name__
            with pytest.raises(TemplateError, match=f"^templates must be a mapping, got {name}$"):
                ZeroShotNer(templates=templates).contextualize(SCHEMA)


class TestPredictOneSingleTurn:
    def test_inline_flow(self, golden_text):
        backend = seq(
            "<person>Fei-Fei Li</person> is a female scientist born in "
            "<location>China</location>."
        )
        model = ZeroShotNer(backend=backend).contextualize(SCHEMA)
        doc, report = model.predict_one(golden_text)
        assert doc.annotations == {
            Annotation(0, 10, "person"),
            Annotation(41, 46, "location"),
        }
        assert report.warnings == ()
        assert len(backend.calls) == 1
        assert backend.calls[0][-1].content.endswith(golden_text)

    def test_empty_input_and_empty_reply(self):
        model = ZeroShotNer(backend=seq("")).contextualize(SCHEMA)
        doc, report = model.predict_one("")
        assert doc.annotations == frozenset()

    def test_json_flow(self):
        backend = seq('{"person": ["Ana"], "location": ["Peru"]}')
        model = ZeroShotNer(answer_shape="json", backend=backend).contextualize(SCHEMA)
        doc, _ = model.predict_one("Ana went to Peru.")
        assert doc.annotations == {
            Annotation(0, 3, "person"),
            Annotation(12, 16, "location"),
        }

    def test_json_retry_once_on_unparseable_completion(self):
        backend = seq("sorry, no json", '{"person": ["Ana"], "location": []}')
        model = ZeroShotNer(answer_shape="json", backend=backend).contextualize(SCHEMA)
        doc, _ = model.predict_one("Ana")
        assert doc.annotations == {Annotation(0, 3, "person")}
        assert len(backend.calls) == 2
        # The retry re-submits the identical conversation.
        assert backend.calls[0] == backend.calls[1]

    def test_json_double_failure_raises(self):
        backend = seq("nope", "still nope")
        model = ZeroShotNer(answer_shape="json", backend=backend).contextualize(SCHEMA)
        with pytest.raises(ParseError):
            model.predict_one("Ana")
        assert len(backend.calls) == 2

    def test_non_string_text_rejected(self):
        model = ZeroShotNer(backend=seq("x")).contextualize(SCHEMA)
        with pytest.raises(TypeError):
            model.predict_one(42)


class TestPredictOneMultiTurn:
    def test_step_by_step_merges_turns(self, fewshot_text):
        backend = MockBackend(
            matchers=[
                (
                    "entity location",
                    "Pedro Pereira is the president of @@Peru## and the owner "
                    "of Walmart.",
                ),
                (
                    "entity person",
                    "@@Pedro Pereira## is the president of Peru and the owner "
                    "of Walmart.",
                ),
            ]
        )
        model = ZeroShotNer(
            method="multi_turn", delimiters=("@@", "##"), backend=backend
        ).contextualize({"location": "Places.", "person": "People."})
        doc, _ = model.predict_one(fewshot_text)
        assert doc.annotations == {
            Annotation(34, 38, "location"),
            Annotation(0, 13, "person"),
        }
        assert len(backend.calls) == 2

    def test_step_by_step_issues_one_request_per_label(self):
        backend = MockBackend(matchers=[("", "no entities here")])
        schema = {"a": "A.", "b": "B.", "c": "C."}
        model = ZeroShotNer(method="multi_turn", backend=backend).contextualize(schema)
        model.predict_one("no entities here")
        assert len(backend.calls) == 3
        # Each request extends the previous conversation by a reply and a turn.
        lengths = [len(call) for call in backend.calls]
        assert lengths == [2, 4, 6]

    def test_multi_label_span_collected_across_turns(self):
        backend = MockBackend(
            matchers=[
                ("entity person", "<person>Victoria</person> is lovely"),
                ("entity location", "<location>Victoria</location> is lovely"),
            ]
        )
        model = ZeroShotNer(method="multi_turn", backend=backend).contextualize(SCHEMA)
        doc, _ = model.predict_one("Victoria is lovely")
        assert doc.annotations == {
            Annotation(0, 8, "person"),
            Annotation(0, 8, "location"),
        }

    def test_final_step_parses_only_last_reply(self):
        backend = MockBackend(
            matchers=[
                ("all the entities", "<person>Ana</person> met <location>Peru</location>"),
                ("entity", "garbage that would parse to nothing"),
            ]
        )
        model = ZeroShotNer(
            method="multi_turn", multi_turn_mode="final_step", backend=backend
        ).contextualize(SCHEMA)
        doc, _ = model.predict_one("Ana met Peru")
        assert doc.annotations == {
            Annotation(0, 3, "person"),
            Annotation(8, 12, "location"),
        }
        assert len(backend.calls) == len(SCHEMA) + 1

    def test_final_step_ignores_priming_replies_and_custom_delimiters(self):
        backend = MockBackend(
            matchers=[
                ("all the entities", "<person>Ana</person> met <location>Peru</location>"),
                ("entity", "@@Ana met Peru##"),
            ]
        )
        model = ZeroShotNer(
            method="multi_turn",
            multi_turn_mode="final_step",
            delimiters=("@@", "##"),
            backend=backend,
        ).contextualize(SCHEMA)
        doc, report = model.predict_one("Ana met Peru")
        assert doc.annotations == {
            Annotation(0, 3, "person"),
            Annotation(8, 12, "location"),
        }
        assert report.warnings == ()

    def test_json_retry_reply_continues_the_conversation(self):
        backend = seq("no json", '{"person": ["Ana"]}', '{"location": ["Peru"]}')
        model = ZeroShotNer(
            method="multi_turn", answer_shape="json", backend=backend
        ).contextualize(SCHEMA)
        doc, _ = model.predict_one("Ana met Peru")
        assert doc.annotations == {
            Annotation(0, 3, "person"),
            Annotation(8, 12, "location"),
        }
        assert backend.calls[0] == backend.calls[1]
        assert backend.calls[2][-2] == ChatMessage("assistant", '{"person": ["Ana"]}')

    def test_empty_reply_mid_conversation_rejected(self):
        backend = seq("", "unreachable")
        model = ZeroShotNer(method="multi_turn", backend=backend).contextualize(SCHEMA)
        with pytest.raises(MalformedResponseError):
            model.predict_one("Ana")

    def test_json_turns_parse_single_label_objects(self):
        backend = MockBackend(
            matchers=[
                ("entity person", '{"person": ["Ana"]}'),
                ("entity location", '{"location": ["Peru"]}'),
            ]
        )
        model = ZeroShotNer(
            method="multi_turn", answer_shape="json", backend=backend
        ).contextualize(SCHEMA)
        doc, _ = model.predict_one("Ana met Peru")
        assert doc.annotations == {
            Annotation(0, 3, "person"),
            Annotation(8, 12, "location"),
        }


def tagged_query(text, tags):
    block = TEMPLATES.render("pos_block", text=text, tags=tags)
    return TEMPLATES.render("user_text", text=block)


class TestPos:
    def test_none_sends_the_text_unchanged(self):
        backend = seq("China won.")
        ZeroShotNer(backend=backend).contextualize(SCHEMA).predict_one("China won.")
        assert backend.calls[0][-1].content == TEMPLATES.render("user_text", text="China won.")

    def test_via_hook_changes_query_only(self):
        backend = seq("<person>Ana</person> ran.")
        model = ZeroShotNer(
            pos_mode="via_hook",
            pos_tagger=lambda text: [("Ana", "NNP"), ("ran", "VBD"), (".", ".")],
            backend=backend,
        ).contextualize(SCHEMA)
        doc, _ = model.predict_one("Ana ran.")
        assert doc.annotations == {Annotation(0, 3, "person")}
        assert len(backend.calls) == 1
        assert backend.calls[0][-1].content == tagged_query("Ana ran.", "Ana/NNP ran/VBD ./.")

    @pytest.mark.parametrize("pair", ["China", ("a", "b", "c"), None])
    def test_via_hook_bad_pair_fails_its_document(self, pair):
        backend = seq("never sent")
        model = ZeroShotNer(
            pos_mode="via_hook", pos_tagger=lambda text: [pair], backend=backend
        ).contextualize(SCHEMA)
        with pytest.raises(ConfigError, match=r"POS tagger must yield \(token, tag\) pairs"):
            model.predict_one("China won.")
        (result,) = model.predict(["China won."])
        assert isinstance(result.error, ConfigError)
        assert backend.calls == []

    def test_via_hook_non_iterable_fails_each_document(self):
        backend = seq("never sent")
        model = ZeroShotNer(
            pos_mode="via_hook", pos_tagger=lambda text: None, backend=backend
        ).contextualize(SCHEMA)
        results = model.predict(["Ada", "Bob"])
        assert [result.document.text for result in results] == ["Ada", "Bob"]
        for result in results:
            assert isinstance(result.error, ConfigError)
            assert "iterable of (token, tag) pairs, got NoneType" in str(result.error)
        assert backend.calls == []

    def test_via_hook_errors_of_the_tagger_itself_propagate(self):
        def tagger(text):
            raise TypeError("the tagger's own bug")

        model = ZeroShotNer(
            pos_mode="via_hook", pos_tagger=tagger, backend=seq("never sent")
        ).contextualize(SCHEMA)
        with pytest.raises(TypeError, match="the tagger's own bug"):
            model.predict_one("Ada")

    def test_pos_tagger_must_be_callable(self):
        with pytest.raises(ConfigError, match="pos_tagger"):
            NerModel(pos_mode="via_hook", pos_tagger="nltk").contextualize(SCHEMA)
        backend = seq("never sent")
        model = ZeroShotNer(
            pos_mode="via_hook", pos_tagger=lambda text: [], backend=backend
        ).contextualize(SCHEMA)
        (result,) = model.set_params(pos_tagger=None).predict(["China won."])
        assert isinstance(result.error, ConfigError)
        assert backend.calls == []

    def test_via_llm_adds_one_request(self):
        backend = seq("  Ana/NNP ran/VBD\n", "<person>Ana</person> ran")
        model = ZeroShotNer(pos_mode="via_llm", backend=backend).contextualize(SCHEMA)
        doc, _ = model.predict_one("Ana ran")
        assert doc.annotations == {Annotation(0, 3, "person")}
        assert backend.calls[0] == (
            ChatMessage("system", TEMPLATES.render("pos_system")),
            ChatMessage("user", TEMPLATES.render("pos_request", text="Ana ran")),
        )
        assert len(backend.calls) == 2
        assert backend.calls[1][-1].content == tagged_query("Ana ran", "Ana/NNP ran/VBD")

    def test_via_llm_tagging_request_is_retried(self):
        backend = seq(RateLimitError("busy"), "Ana/NNP ran/VBD", "<person>Ana</person> ran")
        model = ZeroShotNer(
            pos_mode="via_llm", initial_backoff_ms=0, backend=backend
        ).contextualize(SCHEMA)
        (result,) = model.predict(["Ana ran"])
        assert result.ok
        assert result.document.annotations == {Annotation(0, 3, "person")}
        assert len(backend.calls) == 3
        assert backend.calls[0] == backend.calls[1]

    def test_pos_applies_to_query_not_examples(self, fewshot_examples):
        backend = seq("<person>Ana</person> ran")
        model = FewShotNer(
            pos_mode="via_hook",
            pos_tagger=lambda text: [(t, "T") for t in text.split()],
            backend=backend,
        ).contextualize(
            dict(SCHEMA, organization="Companies."), examples=fewshot_examples
        )
        model.predict_one("Ana ran")
        demo_user = backend.calls[0][1]
        assert "/T" not in demo_user.content
        assert "/T" in backend.calls[0][-1].content


class TestPredictBatch:
    def make_model(self, **kwargs):
        backend = MockBackend(
            matchers=[
                ("Ana", "<person>Ana</person> is here"),
                ("Peru", "<location>Peru</location> is far"),
                ("plain", "plain text"),
            ]
        )
        kwargs.setdefault("backend", backend)
        return ZeroShotNer(**kwargs).contextualize(SCHEMA), backend

    def test_results_in_input_order(self):
        model, _ = self.make_model()
        results = model.predict(["Peru is far", "plain text", "Ana is here"])
        assert [r.document.text for r in results] == [
            "Peru is far",
            "plain text",
            "Ana is here",
        ]
        assert results[0].document.annotations == {Annotation(0, 4, "location")}
        assert results[2].document.annotations == {Annotation(0, 3, "person")}

    def test_concurrency_levels_agree(self):
        texts = ["Ana is here", "Peru is far", "plain text"] * 5
        model, _ = self.make_model()
        sequential = model.predict(texts, max_concurrency=1)
        model2, _ = self.make_model()
        parallel = model2.predict(texts, max_concurrency=8)
        assert [r.document for r in sequential] == [r.document for r in parallel]

    def test_empty_batch(self):
        model, backend = self.make_model()
        assert model.predict([]) == []
        assert backend.calls == []

    def test_bare_string_rejected(self):
        model, _ = self.make_model()
        with pytest.raises(TypeError, match="sequence of texts"):
            model.predict("Ana is here")

    @pytest.mark.parametrize(
        "texts, message",
        [(42, "texts must be a sequence of strings, got int"),
         (["Ana", 7], "texts must all be strings, got int")],
        ids=["not iterable", "non-string item"],
    )
    def test_texts_of_the_wrong_type_rejected(self, texts, message):
        model, backend = self.make_model()
        with pytest.raises(TypeError, match=message):
            model.predict(texts)
        assert backend.calls == []

    def test_zero_concurrency_rejected(self):
        model, _ = self.make_model()
        with pytest.raises(ConfigError):
            model.predict(["Ana is here"], max_concurrency=0)

    @pytest.mark.parametrize("workers", [float("nan"), 2.5, 2.0, "2", True, -1])
    def test_concurrency_must_be_a_positive_int(self, workers):
        model, backend = self.make_model()
        with pytest.raises(ConfigError, match="max_concurrency must be an int >= 1"):
            model.predict(["Ana is here", "Peru is far"], max_concurrency=workers)
        assert backend.calls == []

    def test_long_rate_limit_run_recovers(self):
        # 2**1024 is past the float range; the backoff must stay at its cap.
        replies = [RateLimitError("busy")] * 1_100 + ["<person>Ana</person> is here"]
        model = ZeroShotNer(
            max_retries=2_000, initial_backoff_ms=0.0, backend=seq(*replies)
        ).contextualize(SCHEMA)
        (result,) = model.predict(["Ana is here"])
        assert result.ok
        assert result.document.annotations == {Annotation(0, 3, "person")}

    def test_per_document_error_isolation(self):
        model, _ = self.make_model()
        results = model.predict(["Ana is here", "no rule covers this", "Peru is far"])
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert isinstance(results[1].error, MockScriptError)
        assert results[1].document.text == "no rule covers this"
        assert results[1].document.annotations == frozenset()

    def test_empty_rendered_message_fails_only_its_document(self):
        backend = seq("<person>Ada</person>")
        model = ZeroShotNer(
            templates={"user_text": "{text}"}, backend=backend
        ).contextualize(SCHEMA)
        results = model.predict(["", "Ada"])
        assert isinstance(results[0].error, ConversationError)
        assert results[1].ok
        assert results[1].document.annotations == {Annotation(0, 3, "person")}
        assert len(backend.calls) == 1

    def test_empty_turn_template_is_a_per_document_error(self):
        backend = seq("never sent")
        model = ZeroShotNer(
            method="multi_turn", templates={"turn_next": ""}, backend=backend
        ).contextualize(SCHEMA)
        results = model.predict(["Ada", "Bob"])
        assert [result.document.text for result in results] == ["Ada", "Bob"]
        assert all(isinstance(result.error, ConversationError) for result in results)
        assert backend.calls == []

    def test_too_deep_json_fails_only_its_document(self):
        deep = '{"a":' * 5_000 + "{}" + "}" * 5_000
        backend = seq(deep, deep, '{"person": ["Ada"], "location": []}')
        model = ZeroShotNer(answer_shape="json", backend=backend).contextualize(SCHEMA)
        results = model.predict(["Ada wrote", "Ada"])
        assert len(results) == 2
        assert isinstance(results[0].error, ParseError)
        assert results[1].ok
        assert results[1].document.annotations == {Annotation(0, 3, "person")}

    def test_returned_documents_validate(self):
        model, _ = self.make_model()
        for result in model.predict(["Ana is here", "Peru is far"]):
            check_spans(result.document)


class TestPlanConversation:
    def test_single_turn_plan_matches_submission(self, golden_text):
        backend = seq("irrelevant")
        model = ZeroShotNer(backend=backend).contextualize(SCHEMA)
        planned = model.plan_conversation(golden_text)
        model.predict_one(golden_text)
        assert tuple(backend.calls[0]) == planned
        assert backend.calls[0][-1].content.endswith(golden_text)

    @pytest.mark.parametrize("pos_mode", ["none", "via_hook"])
    @pytest.mark.parametrize("shape", ["inline", "json"])
    @pytest.mark.parametrize(
        "method, mode",
        [
            ("single_turn", "step_by_step"),
            ("multi_turn", "step_by_step"),
            ("multi_turn", "final_step"),
        ],
    )
    def test_plan_matches_submission(self, method, mode, shape, pos_mode):
        text = "Ana went to Peru."
        if shape == "json":
            replies = [f'{{"person": ["Ana"]}} ({k})' for k in range(3)]
        else:
            replies = [f"<person>Ana</person> went to Peru. ({k})" for k in range(3)]
        backend = seq(*replies)
        model = ZeroShotNer(
            method=method,
            multi_turn_mode=mode,
            answer_shape=shape,
            pos_mode=pos_mode,
            pos_tagger=lambda t: [(token, "T") for token in t.split()],
            backend=backend,
        ).contextualize(SCHEMA)
        planned = model.plan_conversation(text)
        document, _ = model.predict_one(text)
        assert Annotation(0, 3, "person") in document.annotations
        responses = iter(replies)
        filled = [
            ChatMessage("assistant", next(responses)) if m.content == "{response}" else m
            for m in planned
        ]
        # Each request carries the plan up to and including its user turn.
        ends = [
            i + 1
            for i, m in enumerate(filled)
            if m.role == "user" and i >= len(model.prefix_)
        ]
        assert backend.calls == [tuple(filled[:end]) for end in ends]

    def test_plan_is_deterministic(self):
        model = ZeroShotNer(backend=seq("x")).contextualize(SCHEMA)
        assert model.plan_conversation("abc") == model.plan_conversation("abc")

    def test_multi_turn_plan_has_response_placeholders(self):
        model = ZeroShotNer(method="multi_turn", backend=seq("x")).contextualize(SCHEMA)
        planned = model.plan_conversation("abc")
        assistants = [m for m in planned if m.role == "assistant"]
        assert len(assistants) == len(SCHEMA)
        assert all(m.content == "{response}" for m in assistants)

    def test_via_llm_plan_contacts_no_backend(self):
        backend = seq("never used")
        model = ZeroShotNer(pos_mode="via_llm", backend=backend).contextualize(SCHEMA)
        planned = model.plan_conversation("abc")
        assert "{pos_tags}" in planned[-1].content
        assert backend.calls == []


class TestPredictionResult:
    def test_records_serialize_with_error_field(self):
        model = ZeroShotNer(backend=MockBackend(matchers=[("Ana", "Ana")]))
        model.contextualize(SCHEMA)
        ok, failed = model.predict(["Ana", "miss"])
        assert ok.ok and not failed.ok
        payload = json.dumps(
            {"text": failed.document.text, "error": str(failed.error)}
        )
        assert "miss" in payload
