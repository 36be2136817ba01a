"""Scoring: CoNLL ingestion, span matching, per-class and micro metrics."""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatner import (
    AnnotatedDocument,
    Annotation,
    ConllError,
    EvaluationError,
    evaluate,
    read_conll_file,
)
from chatner.evaluation import ClassMetrics, match_annotations, read_conll

DATA = Path(__file__).parent / "data"


class TestReadConll:
    def test_simple_sentence(self):
        docs = read_conll("Peru B-LOC\nis O\nnice O\n")
        assert docs == [
            AnnotatedDocument("Peru is nice", [Annotation(0, 4, "LOC")])
        ]

    def test_all_o_sentence_has_no_annotations(self):
        docs = read_conll("just O\nwords O\n")
        assert docs[0].annotations == frozenset()

    def test_offsets_follow_single_space_joining(self):
        docs = read_conll("New B-LOC\nYork I-LOC\nis O\nbig O\n")
        assert docs[0].text == "New York is big"
        assert docs[0].annotations == {Annotation(0, 8, "LOC")}

    def test_multi_token_span(self):
        docs = read_conll("New B-LOC\nYork I-LOC\n")
        assert docs == [AnnotatedDocument("New York", [Annotation(0, 8, "LOC")])]

    def test_blank_lines_separate_sentences(self):
        docs = read_conll("a O\n\nb O\n\n\nc O\n")
        assert [doc.text for doc in docs] == ["a", "b", "c"]

    def test_docstart_lines_skipped(self):
        docs = read_conll("-DOCSTART- -X- -X- O\n\nPeru B-LOC\n")
        assert [doc.text for doc in docs] == ["Peru"]

    def test_last_column_is_the_tag(self):
        docs = read_conll("Peru NNP I-NP B-LOC\n")
        assert docs[0].annotations == {Annotation(0, 4, "LOC")}

    def test_ragged_line_reports_line_number(self):
        with pytest.raises(ConllError, match="line 3"):
            read_conll("a O\nb O\nbroken\n")

    def test_malformed_tag_reports_line_number(self):
        with pytest.raises(ConllError, match="line 1"):
            read_conll("a B_LOC\n")

    def test_iob1_entity_opened_by_i_tag(self):
        docs = read_conll("Peru I-LOC\nis O\n")
        assert docs[0].annotations == {Annotation(0, 4, "LOC")}

    def test_iob1_b_tag_splits_adjacent_same_type(self):
        docs = read_conll("Lisbon I-LOC\nPorto B-LOC\n")
        assert docs[0].annotations == {
            Annotation(0, 6, "LOC"),
            Annotation(7, 12, "LOC"),
        }

    def test_label_change_splits_spans(self):
        docs = read_conll("Paris I-LOC\nDanone I-ORG\n")
        assert docs[0].annotations == {
            Annotation(0, 5, "LOC"),
            Annotation(6, 12, "ORG"),
        }

    def test_iob2_adjacent_entities(self):
        docs = read_conll("Lisbon B-LOC\nPorto B-LOC\n")
        assert len(docs[0].annotations) == 2

    def test_entity_at_sentence_end_closed(self):
        docs = read_conll("to O\nPeru B-LOC\n")
        assert docs[0].annotations == {Annotation(3, 7, "LOC")}

    def test_bundled_variants_parse_identically(self):
        iob2 = read_conll_file(DATA / "sample50_iob2.conll")
        iob1 = read_conll_file(DATA / "sample50_iob1.conll")
        assert len(iob2) == len(iob1) == 50
        for a, b in zip(iob1, iob2):
            assert a.text == b.text
            assert a.annotations == b.annotations


class TestMatching:
    def test_exact_agreement(self):
        matching = match_annotations([Annotation(0, 4, "LOC")], [Annotation(0, 4, "LOC")], "relaxed")
        assert len(matching.pairs) == 1
        assert matching.unmatched_predicted == ()
        assert matching.unmatched_gold == ()

    def test_overlap_suffices(self):
        matching = match_annotations([Annotation(0, 6, "LOC")], [Annotation(2, 4, "LOC")], "relaxed")
        assert len(matching.pairs) == 1

    def test_label_mismatch_never_matches(self):
        matching = match_annotations([Annotation(0, 4, "PER")], [Annotation(0, 4, "LOC")], "relaxed")
        assert matching.pairs == ()
        assert len(matching.unmatched_predicted) == 1
        assert len(matching.unmatched_gold) == 1

    def test_touching_spans_do_not_overlap(self):
        matching = match_annotations([Annotation(0, 4, "LOC")], [Annotation(4, 8, "LOC")], "relaxed")
        assert matching.pairs == ()

    def test_one_to_one(self):
        matching = match_annotations(
            [Annotation(0, 4, "LOC"), Annotation(1, 3, "LOC")],
            [Annotation(0, 4, "LOC")],
            "relaxed",
        )
        assert len(matching.pairs) == 1
        assert len(matching.unmatched_predicted) == 1

    def test_matching_has_maximum_cardinality(self):
        # A first-fit pairing in start order would match (0,10) to (2,3)
        # and strand (2,3); taking predictions by their end recovers both.
        predicted = [Annotation(0, 10, "L"), Annotation(2, 3, "L")]
        gold = [Annotation(2, 3, "L"), Annotation(8, 9, "L")]
        matching = match_annotations(predicted, gold, "relaxed")
        assert len(matching.pairs) == 2

    def test_strict_requires_exact_spans(self):
        predicted = [Annotation(0, 6, "LOC")]
        gold = [Annotation(2, 4, "LOC")]
        assert len(match_annotations(predicted, gold, "strict").pairs) == 0
        assert len(match_annotations(predicted, gold, "relaxed").pairs) == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(EvaluationError):
            match_annotations([], [], "fuzzy")

    def test_deterministic_pairing(self):
        predicted = [Annotation(0, 5, "L"), Annotation(3, 8, "L")]
        gold = [Annotation(4, 6, "L"), Annotation(0, 2, "L")]
        first = match_annotations(predicted, gold, "relaxed")
        second = match_annotations(reversed(predicted), list(gold), "relaxed")
        assert first == second

    def test_empty_and_inverted_spans_pair_only_strictly(self):
        spans = [Annotation(3, 3, "L"), Annotation(5, 2, "L")]
        wide = [Annotation(0, 9, "L")]
        assert match_annotations(spans, wide + spans, "relaxed").pairs == ()
        assert match_annotations(wide + spans, spans, "relaxed").pairs == ()
        assert len(match_annotations(spans, spans, "strict").pairs) == 2

    @staticmethod
    def _compatible(p, g, matching):
        if matching == "strict":
            return p == g
        return p.label == g.label and max(p.start, g.start) < min(p.end, g.end)

    def _oracle_pairs(self, predicted, gold, matching):
        """Maximum pairing size by trying every injection of the smaller side."""
        small, large = sorted((predicted, gold), key=len)
        return max(
            sum(self._compatible(a, b, matching) for a, b in zip(small, chosen))
            for chosen in itertools.permutations(large, len(small))
        )

    # Spans may be empty or inverted, and a side may repeat a span.
    SPANS = st.lists(
        st.builds(Annotation, st.integers(0, 6), st.integers(0, 6), st.sampled_from("ab")),
        max_size=5,
    )

    @given(SPANS, SPANS, st.sampled_from(["relaxed", "strict"]))
    @settings(max_examples=400, deadline=None)
    def test_pair_counts_equal_brute_force(self, predicted, gold, matching):
        result = match_annotations(predicted, gold, matching)
        assert len(result.pairs) == self._oracle_pairs(predicted, gold, matching)
        assert all(self._compatible(p, g, matching) for p, g in result.pairs)
        used_pred = [p for p, _ in result.pairs] + list(result.unmatched_predicted)
        used_gold = [g for _, g in result.pairs] + list(result.unmatched_gold)
        assert sorted(used_pred) == sorted(predicted)
        assert sorted(used_gold) == sorted(gold)


class TestAdversarialSizes:
    """Loose time bounds that a super-linear matcher would blow.

    Each case takes well under a second on a 2-vCPU machine. Inputs of
    thousands of spans also raise RecursionError on any recursion as deep
    as the input.
    """

    TIME_LIMIT_S = 5.0

    def _timed(self, case, predicted, gold):
        started = time.perf_counter()
        try:
            result = match_annotations(predicted, gold, "relaxed")
        except RecursionError:
            pytest.fail(f"matching recursed as deep as the input on {case}")
        elapsed = time.perf_counter() - started
        assert elapsed < self.TIME_LIMIT_S, f"{case} took {elapsed:.2f} s"
        return result

    def test_overlapping_chain(self):
        # Each prediction overlaps the gold spans on either side of it; the
        # one perfect matching pairs each with the gold span to its right.
        n = 5_000
        predicted = [Annotation(2 * k + 1, 2 * k + 3, "L") for k in range(n)]
        gold = [Annotation(2 * k + 2, 2 * k + 4, "L") for k in range(n)]
        result = self._timed("the overlapping chain", predicted, gold)
        assert len(result.pairs) == n

    def test_nested_gold_over_unit_predictions(self):
        n = 20_000
        gold = [Annotation(i, 2 * n - i, "L") for i in range(n)]
        predicted = [Annotation(j, j + 1, "L") for j in range(n)]
        result = self._timed("nested gold spans", predicted, gold)
        assert len(result.pairs) == n


class TestClassMetrics:
    def test_formulas(self):
        metrics = ClassMetrics("x", tp=3, fp=1, fn=2)
        assert metrics.precision == 3 / 4
        assert metrics.recall == 3 / 5
        assert metrics.f1 == pytest.approx(2 * (3 / 4) * (3 / 5) / ((3 / 4) + (3 / 5)))

    def test_zero_denominators_give_zero(self):
        empty = ClassMetrics("x")
        assert empty.precision == 0.0
        assert empty.recall == 0.0
        assert empty.f1 == 0.0


def toy_corpus():
    """Two documents engineered to give A: TP3 FP1 FN2 and B: TP1 FP1 FN1."""
    text_a = "0123456789"
    gold_a = AnnotatedDocument(
        text_a,
        [Annotation(i, i + 1, "A") for i in (0, 2, 4, 6, 8)],
    )
    pred_a = AnnotatedDocument(
        text_a,
        [Annotation(i, i + 1, "A") for i in (0, 2, 4)] + [Annotation(9, 10, "A")],
    )
    text_b = "abcdef"
    gold_b = AnnotatedDocument(text_b, [Annotation(0, 1, "B"), Annotation(2, 3, "B")])
    pred_b = AnnotatedDocument(text_b, [Annotation(0, 1, "B"), Annotation(4, 5, "B")])
    return [pred_a, pred_b], [gold_a, gold_b]


class TestEvaluate:
    def test_identity_is_perfect(self):
        docs = read_conll_file(DATA / "sample50_iob2.conll")
        report = evaluate(docs, docs)
        assert report.micro.f1 == 1.0
        assert all(metrics.f1 == 1.0 for metrics in report.per_label)

    def test_null_predictor(self):
        gold = [AnnotatedDocument("Peru", [Annotation(0, 4, "LOC")])]
        predictions = [AnnotatedDocument("Peru")]
        report = evaluate(predictions, gold)
        assert report.micro.precision == 0.0
        assert report.micro.recall == 0.0
        assert report.micro.f1 == 0.0

    def test_toy_corpus_micro_f1(self):
        predictions, gold = toy_corpus()
        report = evaluate(predictions, gold)
        by_label = {metrics.label: metrics for metrics in report.per_label}
        assert (by_label["A"].tp, by_label["A"].fp, by_label["A"].fn) == (3, 1, 2)
        assert (by_label["B"].tp, by_label["B"].fp, by_label["B"].fn) == (1, 1, 1)
        assert (report.micro.tp, report.micro.fp, report.micro.fn) == (4, 2, 3)
        expected = 2 * (4 / 6) * (4 / 7) / ((4 / 6) + (4 / 7))
        assert report.micro.f1 == pytest.approx(expected)

    def test_micro_counts_pool_per_label_counts(self):
        predictions, gold = toy_corpus()
        report = evaluate(predictions, gold)
        assert report.micro.tp == sum(m.tp for m in report.per_label)
        assert report.micro.tp + report.micro.fn == sum(
            len(doc.annotations) for doc in gold
        )
        assert report.micro.tp + report.micro.fp == sum(
            len(doc.annotations) for doc in predictions
        )

    def test_reordering_documents_is_neutral(self):
        predictions, gold = toy_corpus()
        forward = evaluate(predictions, gold)
        backward = evaluate(predictions[::-1], gold[::-1])
        assert forward == backward

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvaluationError, match="gold"):
            evaluate([], [AnnotatedDocument("x")])

    def test_text_mismatch_rejected(self):
        with pytest.raises(EvaluationError, match="document 0"):
            evaluate([AnnotatedDocument("a")], [AnnotatedDocument("b")])

    def test_relaxed_never_below_strict(self):
        predictions, gold = toy_corpus()
        relaxed = evaluate(predictions, gold, matching="relaxed")
        strict = evaluate(predictions, gold, matching="strict")
        assert relaxed.micro.f1 >= strict.micro.f1


class TestEvalReport:
    def test_to_dict_has_ratios(self):
        predictions, gold = toy_corpus()
        payload = evaluate(predictions, gold).to_dict()
        assert 0.0 <= payload["micro"]["f1"] <= 1.0
        assert payload["labels"]["A"]["tp"] == 3
        assert payload["matching"] == "relaxed"

    def test_to_json_round_trips(self):
        predictions, gold = toy_corpus()
        report = evaluate(predictions, gold)
        assert json.loads(report.to_json()) == report.to_dict()

    def test_to_table_layout(self):
        predictions, gold = toy_corpus()
        table = evaluate(predictions, gold).to_table()
        lines = table.splitlines()
        assert lines[0].split() == ["label", "precision", "recall", "f1", "tp", "fp", "fn"]
        assert lines[-1].startswith("micro")
        assert "75.0" in lines[1]  # label A precision 3/4 as a percentage
        # one decimal everywhere
        for line in lines[1:]:
            for cell in line.split()[1:4]:
                assert "." in cell and len(cell.split(".")[1]) == 1
