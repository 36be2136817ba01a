"""The estimator workflow: contextualize, predict, batch concurrency."""

from __future__ import annotations

import json

import pytest

from chatner import (
    AnnotatedDocument,
    Annotation,
    ChatMessage,
    ConfigError,
    EntitySchema,
    FewShotNer,
    NotContextualizedError,
    ParseError,
    ZeroShotNer,
)
from chatner.client import MockBackend
from chatner.domain import validate_document
from chatner.engine import NerModel
from chatner.errors import MalformedResponseError, MockScriptError

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
        assert model.is_contextualized
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

    def test_few_shot_requires_examples(self):
        with pytest.raises(ConfigError, match="few-shot"):
            FewShotNer().contextualize(SCHEMA)
        with pytest.raises(ConfigError, match="few-shot"):
            FewShotNer().contextualize(SCHEMA, examples=[])

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

    def test_pos_hook_mode_requires_tagger(self):
        with pytest.raises(ConfigError, match="pos_tagger"):
            NerModel(pos_mode="via_hook").contextualize(SCHEMA)

    def test_template_overrides_via_mapping(self):
        model = ZeroShotNer(
            backend=seq("x"), templates={"user_text": "Texto:\n{text}"}
        ).contextualize(SCHEMA)
        planned = model.plan_conversation("hola")
        assert planned[-1].content == "Texto:\nhola"


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


class TestPos:
    def test_via_hook_changes_query_only(self):
        backend = seq("<person>Ana</person> ran")
        model = ZeroShotNer(
            pos_mode="via_hook",
            pos_tagger=lambda text: [(t, "TAG") for t in text.split()],
            backend=backend,
        ).contextualize(SCHEMA)
        doc, _ = model.predict_one("Ana ran")
        assert doc.annotations == {Annotation(0, 3, "person")}
        assert len(backend.calls) == 1
        assert "Ana/TAG ran/TAG" in backend.calls[0][-1].content

    def test_via_llm_adds_one_request(self):
        backend = seq("Ana/NNP ran/VBD", "<person>Ana</person> ran")
        model = ZeroShotNer(pos_mode="via_llm", backend=backend).contextualize(SCHEMA)
        doc, _ = model.predict_one("Ana ran")
        assert doc.annotations == {Annotation(0, 3, "person")}
        assert len(backend.calls) == 2
        assert "part-of-speech" in backend.calls[0][0].content
        assert "Ana/NNP ran/VBD" in backend.calls[1][-1].content

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

    def test_zero_concurrency_rejected(self):
        model, _ = self.make_model()
        with pytest.raises(ConfigError):
            model.predict(["Ana is here"], max_concurrency=0)

    def test_per_document_error_isolation(self):
        model, _ = self.make_model()
        results = model.predict(["Ana is here", "no rule covers this", "Peru is far"])
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert isinstance(results[1].error, MockScriptError)
        assert results[1].document.text == "no rule covers this"
        assert results[1].document.annotations == frozenset()

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
            assert validate_document(result.document).ok


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
