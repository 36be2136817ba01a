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
    MockBackend,
    TemplateError,
    document_from_record,
    document_to_record,
)
from chatner.domain import NerConfig, check_spans
from chatner.templates import PromptTemplateSet
from conftest import assert_time_grows_linearly


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

    def test_a_named_tuple_of_start_end_label(self):
        ann = Annotation(0, 10, "person")
        start, end, label = ann
        assert (start, end, label) == ann == (0, 10, "person")
        assert hash(ann) == hash((0, 10, "person"))
        assert json.dumps(ann) == '[0, 10, "person"]'
        assert repr(ann) == "Annotation(start=0, end=10, label='person')"


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
        check_spans(doc)


def fits(text, *annotations):
    check_spans(AnnotatedDocument(text, annotations))


class TestValidateDocument:
    """:func:`check_spans`: each bad span raises ValueError with one reason."""

    def test_golden_document_is_ok(self, golden_doc):
        check_spans(golden_doc)

    def test_full_span_ok(self):
        fits("abc", Annotation(0, 3, "x"))

    def test_empty_span_reported(self):
        message = r"^annotation \(2, 2, 'x'\) does not fit the text: empty span$"
        with pytest.raises(ValueError, match=message):
            fits("abc", Annotation(2, 2, "x"))

    def test_inverted_span_reported(self):
        with pytest.raises(ValueError, match="inverted span$"):
            fits("abc", Annotation(2, 1, "x"))

    def test_negative_start_reported(self):
        with pytest.raises(ValueError, match="negative start$"):
            fits("abc", Annotation(-1, 2, "x"))

    def test_past_end_reported(self):
        with pytest.raises(ValueError, match="span extends past the end of the text$"):
            fits("abc", Annotation(0, 4, "x"))

    def test_empty_label_reported(self):
        with pytest.raises(ValueError, match="empty label$"):
            fits("abc", Annotation(0, 1, ""))

    def test_label_that_is_not_a_string_reported(self):
        message = r"^annotation \(0, 1, 5\) does not fit the text: label is not a string$"
        with pytest.raises(ValueError, match=message):
            fits("ab", Annotation(0, 1, 5))
        # Labels of mixed types sort without being compared with each other.
        with pytest.raises(ValueError, match=message):
            fits("ab", Annotation(0, 1, 5), Annotation(0, 1, "x"))

    @pytest.mark.parametrize("offset", ["0", None])
    def test_offsets_of_mixed_types_reported(self, offset):
        # Offsets that are not numbers sort after the numbers, by their repr,
        # and the message shows each offset as it was given.
        message = rf"^annotation \({offset!r}, 1, 'x'\) does not fit the text: offsets must be"
        with pytest.raises(ValueError, match=message):
            fits("ab", Annotation(offset, 1, "x"), Annotation(0, 1, "x"))
        with pytest.raises(ValueError, match=message):
            fits("ab", Annotation(offset, 1, "x"))
        with pytest.raises(ValueError, match=r"^annotation \(0, '1', 'x'\) does not fit"):
            fits("ab", Annotation(0, "1", "x"), Annotation(0, 2, "x"), Annotation(None, 1, "x"))

    @pytest.mark.parametrize(
        "annotation, reason",
        [
            (Annotation(0.5, 2, ""), "offsets must be integers"),
            (Annotation(-1, -1, ""), "negative start"),
            (Annotation(2, 2, ""), "empty span"),
            (Annotation(1, 0, ""), "inverted span"),
            (Annotation(0, 9, ""), "span extends past the end of the text"),
            # A bool is no integer offset, though True == 1.
            (Annotation(True, 2, ""), "offsets must be integers"),
            (Annotation(0, True, ""), "offsets must be integers"),
            (Annotation(0, 9, 5), "span extends past the end of the text"),
            # A label must be a non-empty string, as in a document record.
            (Annotation(0, 1, 0), "label is not a string"),
        ],
    )
    def test_first_reason_wins(self, annotation, reason):
        # A bad span is reported before an empty label, in the order above.
        with pytest.raises(ValueError, match=f": {reason}$"):
            fits("abc", annotation)

    def test_every_violation_reported_with_annotation(self):
        # One violation at a time, the first in sorted order first.
        with pytest.raises(ValueError, match=r"\(0, 9, 'y'\)"):
            fits("abc", Annotation(2, 2, "x"), Annotation(0, 9, "y"), Annotation(0, 1, "z"))
        with pytest.raises(ValueError, match=r"\(2, 2, 'x'\)"):
            fits("abc", Annotation(2, 2, "x"), Annotation(0, 1, "z"))


class TestAnnotationText:
    """An annotation's text is ``doc.text[start:end]`` once its span fits."""

    def test_golden_slices(self, golden_doc):
        check_spans(golden_doc)
        assert golden_doc.text[0:10] == "Fei-Fei Li"
        assert golden_doc.text[41:46] == "China"

    def test_single_character(self):
        fits("x", Annotation(0, 1, "l"))

    def test_out_of_bounds_raises(self):
        with pytest.raises(ValueError, match="past the end"):
            fits("ab", Annotation(0, 3, "l"))

    def test_offsets_are_code_points_not_bytes(self):
        fits("ñx", Annotation(1, 2, "l"))
        with pytest.raises(ValueError, match="past the end"):
            fits("ñx", Annotation(0, 3, "l"))  # 3 UTF-8 bytes, 2 code points

    @given(
        st.text(min_size=1, max_size=30),
        st.data(),
    )
    def test_never_fails_on_validated_document(self, text, data):
        start = data.draw(st.integers(0, len(text) - 1))
        end = data.draw(st.integers(start + 1, len(text)))
        fits(text, Annotation(start, end, "l"))


class TestEntitySchema:
    def test_preserves_order(self):
        schema = EntitySchema({"b": "B.", "a": "A."})
        assert schema.labels == ("b", "a")

    def test_repr_shows_the_entries(self):
        assert repr(EntitySchema({"a": "b"})) == "EntitySchema({'a': 'b'})"

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

    def test_non_string_description_rejected(self):
        with pytest.raises(ConfigError, match="description for 'person' must be a string"):
            EntitySchema({"person": ["People."]})

    @pytest.mark.parametrize("label", ["a<b", "a>b", "a/b"])
    def test_reserved_characters_rejected(self, label):
        with pytest.raises(ConfigError):
            EntitySchema({label: "desc"})

    def test_duplicate_labels_rejected(self):
        # A mapping cannot repeat a label; the list of pairs that could is refused.
        with pytest.raises(ConfigError, match="must be a mapping, got list"):
            EntitySchema([("a", "one"), ("a", "two")])

    @pytest.mark.parametrize("entries", [["ab"], [("a",)], "ab"])
    def test_non_mapping_rejected(self, entries):
        with pytest.raises(ConfigError, match="must be a mapping"):
            EntitySchema(entries)

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


class TestReadJsonObject:
    @pytest.mark.parametrize(
        "load, what, error",
        [
            (EntitySchema.from_file, "schema file", ConfigError),
            (PromptTemplateSet.from_file, "template file", TemplateError),
            (MockBackend.from_file, "mock script", ConfigError),
        ],
        ids=["schema", "templates", "mock"],
    )
    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"person": ', ": invalid JSON ("),
            (b'["person"]', " must hold a JSON object"),
            (b'{"caf\xe9": "x"}', " is not UTF-8 text ("),
        ],
        ids=["invalid", "not-object", "not-utf8"],
    )
    def test_every_loader_names_the_file(self, tmp_path, load, what, error, content, message):
        path = tmp_path / "settings.json"
        path.write_bytes(content)
        with pytest.raises(error) as info:
            load(path)
        assert str(info.value).startswith(f"{what} {path}{message}")


class TestNerConfig:
    def test_defaults(self):
        config = NerConfig()
        assert config.method == "single_turn"
        assert config.answer_shape == "inline"
        assert config.delimiters is None
        assert config.pos_mode == "none"

    def test_delimiters_require_multi_turn(self):
        with pytest.raises(ConfigError, match="custom delimiters require multi-turn"):
            NerConfig(method="single_turn", delimiters=("@@", "##"))

    def test_delimiters_accepted_with_multi_turn(self):
        config = NerConfig(method="multi_turn", delimiters=("@@", "##"))
        assert config.delimiters == ("@@", "##")

    def test_delimiters_list_becomes_a_tuple(self):
        config = NerConfig(method="multi_turn", delimiters=["@@", "##"])
        assert config.delimiters == ("@@", "##")

    @pytest.mark.parametrize(
        "delimiters", [("@@",), ("@@", "##", "%%"), ("@@", ""), ("@@", 5), 5],
        ids=["one", "three", "empty", "non-string", "not a sequence"],
    )
    def test_malformed_delimiters_rejected(self, delimiters):
        with pytest.raises(ConfigError, match="delimiters must be a pair of non-empty strings"):
            NerConfig(method="multi_turn", delimiters=delimiters)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("method", "telepathy"),
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
                method="multi_turn", answer_shape="json", delimiters=("@@", "##")
            )

    def test_exactly_the_run_shaping_fields(self):
        assert [f.name for f in dataclasses.fields(NerConfig)] == [
            "method",
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

    @pytest.mark.parametrize(
        "record, message",
        [(["ab"], "document record must be an object, got list"),
         ({"text": 5}, "document 'text' must be a string")],
        ids=["list record", "number text"],
    )
    def test_record_of_the_wrong_shape_rejected(self, record, message):
        with pytest.raises(ValueError, match=message):
            document_from_record(record)

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

    def test_shape_error_in_a_later_entry_wins_over_an_earlier_span_that_does_not_fit(self):
        entries = [{"start": 0, "end": 9, "label": "x"}, {"start": 0, "end": 1}]
        with pytest.raises(ValueError, match="^bad annotation entry {'start': 0, 'end': 1}"):
            document_from_record({"text": "ab", "annotations": entries})

    def test_time_grows_linearly(self):
        # 80,000 annotations took about 90 ms on a 2-vCPU machine.
        def record(n):
            entries = [{"start": 2 * k, "end": 2 * k + 1, "label": "x"} for k in range(n)]
            return {"text": "a " * n, "annotations": entries}

        assert_time_grows_linearly(document_from_record, record, 80_000, "annotations")

    def test_first_misfit_in_sorted_order_is_the_one_named(self):
        entries = [{"start": 1, "end": 9, "label": "x"}, {"start": 2, "end": 1, "label": "x"},
                   {"start": 0, "end": 0, "label": "y"}]
        with pytest.raises(ValueError) as info:
            document_from_record({"text": "ab", "annotations": entries})
        assert str(info.value) == "annotation (0, 0, 'y') does not fit the text: empty span"
