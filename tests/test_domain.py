"""Core data types: spans, documents, schemas, configuration."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chatner import (
    AnnotatedDocument,
    Annotation,
    ConfigError,
    EntitySchema,
    document_from_record,
    document_to_record,
)
from chatner.domain import NerConfig, annotation_text, first_overlap, validate_document


class TestAnnotation:
    def test_fields(self):
        ann = Annotation(0, 10, "person")
        assert (ann.start, ann.end, ann.label) == (0, 10, "person")

    def test_value_equality_and_hash(self):
        assert Annotation(0, 2, "x") == Annotation(0, 2, "x")
        assert len({Annotation(0, 2, "x"), Annotation(0, 2, "x")}) == 1

    def test_ordering_is_start_end_label(self):
        anns = [Annotation(5, 6, "b"), Annotation(0, 2, "z"), Annotation(0, 1, "a")]
        assert sorted(anns) == [
            Annotation(0, 1, "a"),
            Annotation(0, 2, "z"),
            Annotation(5, 6, "b"),
        ]

    def test_immutable(self):
        with pytest.raises(Exception):
            Annotation(0, 1, "x").start = 5


class TestAnnotatedDocument:
    def test_annotations_are_a_set(self):
        doc = AnnotatedDocument("abc", [Annotation(0, 2, "x"), Annotation(0, 2, "x")])
        assert len(doc.annotations) == 1

    def test_inserting_duplicate_leaves_set_unchanged(self):
        once = AnnotatedDocument("abc", [Annotation(0, 2, "x")])
        twice = AnnotatedDocument("abc", [Annotation(0, 2, "x")] * 2)
        assert once.annotations == twice.annotations

    def test_sorted_annotations_deterministic(self):
        doc = AnnotatedDocument(
            "abcdef", [Annotation(3, 4, "b"), Annotation(0, 2, "a"), Annotation(0, 4, "c")]
        )
        assert doc.sorted_annotations() == [
            Annotation(0, 2, "a"),
            Annotation(0, 4, "c"),
            Annotation(3, 4, "b"),
        ]

    def test_overlapping_annotations_are_permitted(self):
        doc = AnnotatedDocument("Peru", [Annotation(0, 4, "loc"), Annotation(0, 4, "org")])
        assert len(doc.annotations) == 2
        assert validate_document(doc).ok


class TestValidateDocument:
    def test_golden_document_is_ok(self, golden_doc):
        assert validate_document(golden_doc).ok

    def test_full_span_ok(self):
        assert validate_document(AnnotatedDocument("abc", [Annotation(0, 3, "x")])).ok

    def test_empty_span_reported(self):
        result = validate_document(AnnotatedDocument("abc", [Annotation(2, 2, "x")]))
        assert not result.ok
        assert "empty span" in result.issues[0].reason

    def test_inverted_span_reported(self):
        result = validate_document(AnnotatedDocument("abc", [Annotation(2, 1, "x")]))
        assert not result.ok

    def test_negative_start_reported(self):
        result = validate_document(AnnotatedDocument("abc", [Annotation(-1, 2, "x")]))
        assert not result.ok

    def test_past_end_reported(self):
        result = validate_document(AnnotatedDocument("abc", [Annotation(0, 4, "x")]))
        assert not result.ok
        assert "past the end" in result.issues[0].reason

    def test_empty_label_reported(self):
        result = validate_document(AnnotatedDocument("abc", [Annotation(0, 1, "")]))
        assert not result.ok

    def test_every_violation_reported_with_annotation(self):
        doc = AnnotatedDocument("abc", [Annotation(2, 2, "x"), Annotation(0, 9, "y")])
        result = validate_document(doc)
        assert len(result.issues) == 2
        assert {issue.annotation for issue in result.issues} == doc.annotations


class TestAnnotationText:
    def test_golden_slices(self, golden_doc):
        assert annotation_text(golden_doc, Annotation(0, 10, "person")) == "Fei-Fei Li"
        assert annotation_text(golden_doc, Annotation(41, 46, "location")) == "China"

    def test_single_character(self):
        assert annotation_text(AnnotatedDocument("x"), Annotation(0, 1, "l")) == "x"

    def test_out_of_bounds_raises(self):
        with pytest.raises(ValueError):
            annotation_text(AnnotatedDocument("ab"), Annotation(0, 3, "l"))

    def test_offsets_are_code_points_not_bytes(self):
        assert annotation_text(AnnotatedDocument("ñx"), Annotation(1, 2, "l")) == "x"

    @given(
        st.text(min_size=1, max_size=30),
        st.data(),
    )
    def test_never_fails_on_validated_document(self, text, data):
        start = data.draw(st.integers(0, len(text) - 1))
        end = data.draw(st.integers(start + 1, len(text)))
        doc = AnnotatedDocument(text, [Annotation(start, end, "l")])
        assert validate_document(doc).ok
        assert annotation_text(doc, Annotation(start, end, "l")) == text[start:end]


class TestFirstOverlap:
    def test_disjoint_including_touching_spans(self):
        assert first_overlap([Annotation(0, 2, "a"), Annotation(2, 4, "b")]) is None

    def test_overlapping_pair_found(self):
        pair = first_overlap([Annotation(1, 3, "a"), Annotation(2, 4, "b")])
        assert pair == (Annotation(1, 3, "a"), Annotation(2, 4, "b"))

    def test_containment_counts_as_overlap(self):
        pair = first_overlap([Annotation(0, 9, "a"), Annotation(3, 4, "b")])
        assert pair == (Annotation(0, 9, "a"), Annotation(3, 4, "b"))


class TestEntitySchema:
    def test_preserves_order(self):
        schema = EntitySchema({"b": "B.", "a": "A."})
        assert schema.labels == ("b", "a")

    def test_mapping_protocol(self, golden_schema):
        assert golden_schema["person"].startswith("A person")
        assert len(golden_schema) == 3
        assert "location" in golden_schema

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            EntitySchema({})

    def test_empty_label_rejected(self):
        with pytest.raises(ConfigError):
            EntitySchema({"": "nothing"})

    @pytest.mark.parametrize("label", ["a<b", "a>b", "a/b"])
    def test_reserved_characters_rejected(self, label):
        with pytest.raises(ConfigError):
            EntitySchema({label: "desc"})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigError):
            EntitySchema([("a", "one"), ("a", "two")])

    def test_from_file(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"person": "People.", "location": "Places."}')
        schema = EntitySchema.from_file(path)
        assert schema.labels == ("person", "location")

    def test_from_file_rejects_non_object(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('["person"]')
        with pytest.raises(ConfigError):
            EntitySchema.from_file(path)


class TestNerConfig:
    def test_defaults(self):
        config = NerConfig()
        assert config.prompting_method == "single_turn"
        assert config.answer_shape == "inline"
        assert config.delimiters is None
        assert config.pos_mode == "none"

    def test_delimiters_require_multi_turn(self):
        with pytest.raises(ConfigError, match="custom delimiters require multi-turn"):
            NerConfig(prompting_method="single_turn", delimiters=("@@", "##"))

    def test_delimiters_accepted_with_multi_turn(self):
        config = NerConfig(prompting_method="multi_turn", delimiters=("@@", "##"))
        assert config.delimiters == ("@@", "##")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("prompting_method", "telepathy"),
            ("multi_turn_mode", "both"),
            ("answer_shape", "xml"),
            ("pos_mode", "maybe"),
        ],
    )
    def test_unknown_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            NerConfig(**{field: value})

    def test_delimiters_require_inline_shape(self):
        with pytest.raises(ConfigError, match="inline answer shape"):
            NerConfig(
                prompting_method="multi_turn", answer_shape="json", delimiters=("@@", "##")
            )

    def test_exactly_the_run_shaping_fields(self):
        assert [f.name for f in dataclasses.fields(NerConfig)] == [
            "prompting_method",
            "multi_turn_mode",
            "answer_shape",
            "delimiters",
            "pos_mode",
        ]


class TestRecordRoundTrip:
    def test_to_record_shape(self, golden_doc, golden_text):
        record = document_to_record(golden_doc)
        assert record["text"] == golden_text
        assert record["annotations"][0] == {"start": 0, "end": 10, "label": "person"}

    def test_round_trip(self, golden_doc):
        rebuilt = document_from_record(json.loads(json.dumps(document_to_record(golden_doc))))
        assert rebuilt == golden_doc

    def test_missing_text_rejected(self):
        with pytest.raises(ValueError):
            document_from_record({"annotations": []})

    def test_bad_annotation_rejected(self):
        with pytest.raises(ValueError):
            document_from_record({"text": "ab", "annotations": [{"start": 0}]})

    @pytest.mark.parametrize(
        "entry",
        [
            {"start": 0.5, "end": 2.7, "label": "x"},
            {"start": 0, "end": 2.0, "label": "x"},
            {"start": True, "end": 2, "label": "x"},
            {"start": 0, "end": False, "label": "x"},
            {"start": "0", "end": 2, "label": "x"},
            {"start": 0, "end": 2, "label": 5},
            {"start": 0, "end": 2, "label": ""},
            {"start": 0, "end": 2, "label": None},
            None,
            [0, 2, "x"],
        ],
        ids=["floats", "float end", "bool start", "bool end", "numeric string",
             "non-string label", "empty label", "null label", "null entry", "list entry"],
    )
    def test_wrong_annotation_types_rejected_not_coerced(self, entry):
        with pytest.raises(ValueError, match="bad annotation entry"):
            document_from_record({"text": "ab", "annotations": [entry]})

    @pytest.mark.parametrize(
        "annotations", [None, {"start": 0}, "x"], ids=["null", "object", "string"]
    )
    def test_annotations_that_are_not_a_list_rejected(self, annotations):
        with pytest.raises(ValueError, match="'annotations' must be a list"):
            document_from_record({"text": "ab", "annotations": annotations})

    @pytest.mark.parametrize(
        "start, end, reason",
        [(0, 9, "past the end"), (-1, 1, "negative start"), (1, 1, "empty span"),
         (2, 1, "inverted span")],
    )
    def test_span_that_does_not_fit_the_text_rejected(self, start, end, reason):
        record = {"text": "ab", "annotations": [{"start": start, "end": end, "label": "x"}]}
        with pytest.raises(ValueError, match=reason):
            document_from_record(record)
