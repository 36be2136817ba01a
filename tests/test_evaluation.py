"""Scoring: CoNLL ingestion, span matching, per-class and micro metrics."""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
import time
from collections.abc import Iterable
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
from chatner.evaluation import (
    MATCHING_MODES,
    ClassMetrics,
    Matching,
    match_annotations,
    read_conll,
)
from conftest import assert_time_grows_linearly

DATA = Path(__file__).parent / "data"


def _conll_lines(n):
    """n token lines with mixed IOB tags, a blank line after every 20."""
    rng = random.Random(n)
    tags = ["O", "O", "O", "B-PER", "I-PER", "B-LOC", "I-LOC"]
    return "".join(
        f"{rng.choice('abcdefghij')} {rng.choice(tags)}\n" + ("\n" if k % 20 == 19 else "")
        for k in range(n)
    )


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

    def test_docstart_inside_an_open_span_neither_closes_it_nor_ends_the_sentence(self):
        docs = read_conll("New B-LOC\n-DOCSTART- -X- O\nYork I-LOC\nis O\n")
        assert docs == [AnnotatedDocument("New York is", [Annotation(0, 8, "LOC")])]

    def test_one_column_docstart_skipped_but_one_column_o_is_ragged(self):
        assert [doc.text for doc in read_conll("-DOCSTART-\n\nPeru B-LOC\n")] == ["Peru"]
        with pytest.raises(ConllError, match="^line 2: expected at least 2 columns, got 'O'$"):
            read_conll("a O\nO\n")

    @pytest.mark.parametrize("tag", ["O-PER", "B-", "I-"])
    def test_o_with_a_label_and_a_prefix_without_one_are_malformed(self, tag):
        with pytest.raises(ConllError, match=f"^line 2: malformed NER tag '{tag}'$"):
            read_conll(f"a O\nb {tag}\n")

    def test_whitespace_only_line_ends_a_sentence(self):
        docs = read_conll("New B-LOC\n \t \nYork I-LOC\n")
        assert docs == [AnnotatedDocument("New", [Annotation(0, 3, "LOC")]),
                        AnnotatedDocument("York", [Annotation(0, 4, "LOC")])]

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

    def test_file_with_byte_order_mark_reads_as_without(self, tmp_path):
        content = (DATA / "sample50_iob2.conll").read_text(encoding="utf-8")
        path = tmp_path / "bom.conll"
        path.write_bytes(b"\xef\xbb\xbf" + content.encode("utf-8"))
        assert read_conll_file(path) == read_conll(content)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_file_and_string_split_at_the_same_line_breaks(self, tmp_path, ending):
        content = "Ada B-PER\nwent O\n\nRome B-LOC\n".replace("\n", ending)
        path = tmp_path / "endings.conll"
        path.write_text(content, encoding="utf-8", newline="")
        assert read_conll_file(path) == read_conll(content) == [
            AnnotatedDocument("Ada went", [Annotation(0, 3, "PER")]),
            AnnotatedDocument("Rome", [Annotation(0, 4, "LOC")]),
        ]

    def test_file_that_is_not_utf8_is_a_conll_error(self, tmp_path):
        path = tmp_path / "latin1.conll"
        path.write_bytes("Bogot\xe1 B-LOC\n".encode("latin-1"))
        with pytest.raises(ConllError, match=f"CoNLL file {path} is not UTF-8 text"):
            read_conll_file(path)

    def test_bundled_variants_parse_identically(self):
        iob2 = read_conll_file(DATA / "sample50_iob2.conll")
        iob1 = read_conll_file(DATA / "sample50_iob1.conll")
        assert len(iob2) == len(iob1) == 50
        for a, b in zip(iob1, iob2):
            assert a.text == b.text
            assert a.annotations == b.annotations

    def test_time_grows_linearly(self):
        # 80,000 lines took about 80 ms on a 2-vCPU machine.
        assert_time_grows_linearly(read_conll, _conll_lines, 80_000, "CoNLL lines")


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


def reference_match_annotations(
    predicted: Iterable[Annotation],
    gold: Iterable[Annotation],
    matching: str = "relaxed",
) -> Matching:
    """An earlier ``match_annotations``, kept verbatim as the reference: the
    current one must give the same pairs and unmatched spans, in the same
    order."""
    if matching not in MATCHING_MODES:
        raise EvaluationError(
            f"matching must be one of {MATCHING_MODES}, got {matching!r}"
        )
    pred = sorted(predicted)
    gold_list = sorted(gold)
    partner: dict[int, int] = {}  # predicted index -> gold index
    if matching == "strict":
        free: dict[Annotation, list[int]] = {}  # the copies still unpaired
        for g, ann in enumerate(gold_list):
            free.setdefault(ann, []).append(g)
        for p, ann in enumerate(pred):
            if free.get(ann):
                partner[p] = free[ann].pop()
    else:
        # Per label, the non-empty gold spans not yet begun, latest start first.
        unbegun: dict[str, list[int]] = {}
        for g in reversed(range(len(gold_list))):
            if gold_list[g].start < gold_list[g].end:
                unbegun.setdefault(gold_list[g].label, []).append(g)
        # Per label, (end, start, index) of the gold spans that start before
        # the current prediction ends and are still unpaired.
        begun: dict[str, list[tuple[int, int, int]]] = {}
        for p in sorted(range(len(pred)), key=lambda p: (pred[p].end, pred[p].start)):
            ann = pred[p]
            waiting = unbegun.get(ann.label)
            if ann.start >= ann.end or waiting is None:
                continue
            spans = begun.setdefault(ann.label, [])
            while waiting and gold_list[waiting[-1]].start < ann.end:
                g = waiting.pop()
                bisect.insort(spans, (gold_list[g].end, gold_list[g].start, g))
            first = bisect.bisect_right(spans, (ann.start, math.inf))
            if first < len(spans):
                partner[p] = spans.pop(first)[2]
    paired_gold = set(partner.values())
    return Matching(
        pairs=tuple((pred[p], gold_list[g]) for p, g in sorted(partner.items())),
        unmatched_predicted=tuple(a for p, a in enumerate(pred) if p not in partner),
        unmatched_gold=tuple(a for g, a in enumerate(gold_list) if g not in paired_gold),
    )


# Spans of three labels over a short text: overlaps, nesting, duplicates,
# empty and inverted spans are all common.
MANY_SPANS = st.lists(
    st.builds(Annotation, st.integers(0, 12), st.integers(0, 12), st.sampled_from("abc")),
    max_size=14,
)


@given(MANY_SPANS, MANY_SPANS, st.sampled_from(["relaxed", "strict"]))
@settings(max_examples=500, deadline=None)
def test_matching_pairs_exactly_as_the_reference(predicted, gold, matching):
    result = match_annotations(predicted, gold, matching)
    expected = reference_match_annotations(predicted, gold, matching)
    assert result.pairs == expected.pairs
    assert result.unmatched_predicted == expected.unmatched_predicted
    assert result.unmatched_gold == expected.unmatched_gold


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

    # The next two cases are still quadratic, as each insertion into and
    # removal from a label's sorted list moves O(n) entries; the bound pins
    # them where they are.
    def test_nested_gold_matched_against_itself(self):
        n = 20_000
        nested = [Annotation(i, 2 * n - i, "L") for i in range(n)]
        result = self._timed("nested gold against itself", nested, nested)
        assert len(result.pairs) == n

    def test_nested_predictions_over_unit_gold(self):
        n = 20_000
        predicted = [Annotation(i, 2 * n - i, "L") for i in range(n)]
        gold = [Annotation(j, j + 1, "L") for j in range(2 * n)]
        result = self._timed("nested predictions", predicted, gold)
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

    def test_unknown_matching_rejected(self):
        with pytest.raises(EvaluationError, match="matching must be one of .* got 'fuzzy'"):
            evaluate([], [], matching="fuzzy")

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
