"""Completion parsing: tag scanning, alignment, JSON answers."""

from __future__ import annotations

import difflib
import random
import re
import time
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chatner import (
    AnnotatedDocument,
    Annotation,
    ConfigError,
    EntitySchema,
    ParseError,
    parse_inline,
)
from chatner import parsing
from chatner.domain import annotation_text
from chatner.parsing import align_texts, extract_json_block, parse_json_answer
from chatner.prompting import render_inline, render_json


@pytest.fixture
def pl_schema():
    return EntitySchema({"person": "People.", "location": "Places."})


@pytest.fixture
def country_schema():
    return EntitySchema({"person": "People.", "country": "Countries."})


def _per_token_segments(stripped, original):
    """The previous alignment builder, kept as the reference.

    One segment per paired token, per gap, and per difflib block or fuzzy
    piece inside a refined gap, never merged. Its quality scores are left
    out: they moved no offset.
    """
    if stripped == original:
        return [(0, len(stripped), 0, len(original))] if stripped else []
    tokens_s = list(re.finditer(r"\S+", stripped))
    tokens_o = list(re.finditer(r"\S+", original))
    pairs = parsing._common_token_pairs(
        [m.group() for m in tokens_s], [m.group() for m in tokens_o]
    )
    segments = []

    def gap(s_lo, s_hi, o_lo, o_hi):
        gap_s, gap_o = stripped[s_lo:s_hi], original[o_lo:o_hi]
        if not gap_s:
            return
        if gap_s == gap_o or not gap_o or max(len(gap_s), len(gap_o)) > parsing._REFINE_LIMIT:
            segments.append((s_lo, s_hi, o_lo, o_hi))
            return
        matcher = difflib.SequenceMatcher(None, gap_s, gap_o, autojunk=False)
        prev_a = prev_b = 0
        for block in matcher.get_matching_blocks():
            if block.a != prev_a:
                segments.append((s_lo + prev_a, s_lo + block.a, o_lo + prev_b, o_lo + block.b))
            if block.size:
                segments.append(
                    (s_lo + block.a, s_lo + block.a + block.size,
                     o_lo + block.b, o_lo + block.b + block.size)
                )
                prev_a, prev_b = block.a + block.size, block.b + block.size

    prev_s = prev_o = 0
    for i, j in pairs:
        tok_s, tok_o = tokens_s[i], tokens_o[j]
        gap(prev_s, tok_s.start(), prev_o, tok_o.start())
        segments.append((tok_s.start(), tok_s.end(), tok_o.start(), tok_o.end()))
        prev_s, prev_o = tok_s.end(), tok_o.end()
    gap(prev_s, len(stripped), prev_o, len(original))
    return segments


def _reference_map_offset(segments, offset, prefer_end):
    """The previous ``AlignmentMap.map_offset``, on reference segments."""
    if not segments:
        return 0
    starts = [seg[0] for seg in segments]
    if prefer_end:
        index = bisect_right(starts, offset - 1) - 1 if offset > 0 else 0
    else:
        index = bisect_right(starts, offset) - 1
    s_lo, s_hi, o_lo, o_hi = segments[max(0, min(index, len(segments) - 1))]
    offset = max(s_lo, min(offset, s_hi))
    s_len, o_len = s_hi - s_lo, o_hi - o_lo
    if s_len == 0:
        return o_hi if prefer_end else o_lo
    if s_len == o_len:
        return o_lo + offset - s_lo
    return o_lo + round((offset - s_lo) * o_len / s_len)


@st.composite
def drifted_echoes(draw):
    """An original text and an echo of it with typos, dropped and inserted
    words, and changed spacing.

    Originals stay under 270 characters, so most unpaired gaps are refined by
    difflib, and a deleted character between two of its matching blocks
    leaves a hole in the original.
    """
    words = draw(
        st.lists(st.text(alphabet="abcd", min_size=1, max_size=8), min_size=1, max_size=30)
    )
    echo = []
    for word in words:
        edit = draw(
            st.sampled_from(["keep", "keep", "delete", "insert", "swap", "drop", "add"])
        )
        at = draw(st.integers(0, len(word) - 1))
        if edit == "delete" and len(word) > 1:
            word = word[:at] + word[at + 1 :]
        elif edit == "insert":
            word = word[:at] + draw(st.sampled_from("abcde")) + word[at:]
        elif edit == "swap" and at + 1 < len(word):
            word = word[:at] + word[at + 1] + word[at] + word[at + 2 :]
        elif edit == "drop":
            continue
        elif edit == "add":
            echo.append(draw(st.sampled_from(["e", "ab", "dd"])))
        echo.append(word)
    separators = draw(st.lists(st.sampled_from([" ", " ", " ", "  ", ""]), min_size=len(echo)))
    stripped = "".join(sep + word for sep, word in zip(separators, echo))
    return stripped, " ".join(words)


class TestAlignTexts:
    def test_identity(self):
        amap = align_texts("abc def", "abc def")
        assert amap.segments == ((0, 7, 0, 7),)
        assert amap.map_offset(0) == 0
        assert amap.map_offset(7, prefer_end=True) == 7
        assert amap.map_span(0, 7) == (0, 7)

    def test_single_token_replacement_maps_in_place(self):
        amap = align_texts("abc deX", "abc def")
        for offset in range(8):
            assert amap.map_offset(offset) == offset
        assert amap.map_span(4, 7) == (4, 7)
        assert amap.segments == ((0, 7, 0, 7),)

    def test_empty_stripped_gives_empty_map(self):
        assert align_texts("", "abc").segments == ()

    def test_disjoint_texts_map_proportionally(self):
        amap = align_texts("xyz", "abcdef")
        assert [amap.map_offset(offset) for offset in range(4)] == [0, 2, 4, 6]

    @given(st.text(max_size=60), st.text(max_size=60), st.data())
    @settings(max_examples=150, deadline=None)
    def test_monotone(self, stripped, original, data):
        amap = align_texts(stripped, original)
        if len(stripped) < 2:
            return
        a = data.draw(st.integers(0, len(stripped) - 2))
        b = data.draw(st.integers(a + 1, len(stripped) - 1))
        assert amap.map_offset(a) <= amap.map_offset(b)

    @given(st.text(max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_identity_inputs_map_every_offset_identically(self, text):
        amap = align_texts(text, text)
        for offset in range(len(text) + 1):
            assert amap.map_offset(offset) == offset

    @given(drifted_echoes())
    @settings(max_examples=400, deadline=None)
    @example(
        (
            "Analysts at Polar Logistics praiesd Sofia Marques yesterday .",
            "Analysts at Polar Logistics praised Sofia Marques yesterday .",
        )
    )
    def test_maps_every_offset_like_per_token_segments(self, texts):
        stripped, original = texts
        amap = align_texts(stripped, original)
        reference = _per_token_segments(stripped, original)
        for prefer_end in (False, True):
            for offset in range(len(stripped) + 1):
                assert amap.map_offset(offset, prefer_end=prefer_end) == (
                    _reference_map_offset(reference, offset, prefer_end)
                ), (offset, prefer_end)
        assert len(amap.segments) <= len(reference)


def _lcs_length(a, b):
    """Reference LCS length from the textbook dynamic-programming table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) - 1, -1, -1):
        for j in range(len(b) - 1, -1, -1):
            if a[i] == b[j]:
                table[i][j] = table[i + 1][j + 1] + 1
            else:
                table[i][j] = max(table[i + 1][j], table[i][j + 1])
    return table[0][0]


token_pairs = st.sampled_from(["ab", "abc", "abcdefgh"]).flatmap(
    lambda alphabet: st.tuples(
        st.lists(st.sampled_from(alphabet), max_size=30),
        st.lists(st.sampled_from(alphabet), max_size=30),
    )
)


class TestCommonTokenPairs:
    @given(token_pairs)
    @settings(max_examples=300, deadline=None)
    def test_pairs_form_a_longest_common_subsequence(self, sides):
        a, b = sides
        pairs = parsing._common_token_pairs(a, b)
        assert all(a[i] == b[j] for i, j in pairs)
        assert all(i < k and j < l for (i, j), (k, l) in zip(pairs, pairs[1:]))
        assert len(pairs) == _lcs_length(a, b)

    @staticmethod
    def _drifted_echo():
        # Fillers at both ends of the middle keep the common prefix and
        # suffix from pairing the mention; unequal ones shift its
        # proportional mapping, and the gap is too long to refine.
        before = [f"w{i}" for i in range(80)]
        after = [f"v{i}" for i in range(80)]
        original = " ".join(["start", *before, "Lima", *after, "end"])
        completion = " ".join(
            ["start", "x", "x", "x", *before, "<location>Lima</location>"]
            + [*after, "y", "end"]
        )
        return completion, original, original.index("Lima")

    def test_unshared_tokens_spend_no_budget(self):
        a = [f"s{i}" for i in range(3_000)] + ["Lima"] + [f"t{i}" for i in range(3_000)]
        b = [f"o{i}" for i in range(3_000)] + ["Lima"] + [f"p{i}" for i in range(3_000)]
        assert parsing._common_token_pairs(a, b) == [(3_000, 3_000)]

    def test_exhausted_budget_leaves_the_middle_unpaired(self, monkeypatch):
        monkeypatch.setattr(parsing, "_DIFF_BUDGET", 0)
        a = "p x m y q".split()
        b = "p m q".split()
        assert parsing._common_token_pairs(a, b) == [(0, 0), (4, 2)]

    def test_mention_in_an_unpaired_gap_still_relocates(self, monkeypatch):
        schema = EntitySchema({"location": "Places."})
        completion, original, start = self._drifted_echo()
        doc, report = parse_inline(completion, original, schema)
        assert doc.annotations == {Annotation(start, start + 4, "location")}
        assert report.warnings == ()
        monkeypatch.setattr(parsing, "_DIFF_BUDGET", 0)
        doc, report = parse_inline(completion, original, schema)
        assert doc.annotations == {Annotation(start, start + 4, "location")}
        (warning,) = report.warnings
        assert warning == "mention 'Lima' relocated by exact search"


class TestParseInline:
    def test_tagged_echo_recovers_offsets(self, country_schema, golden_text):
        completion = (
            "<person>Fei-Fei Li</person> is a female scientist born in "
            "<country>China</country>"
        )
        doc, report = parse_inline(completion, golden_text, country_schema)
        assert doc.annotations == {
            Annotation(0, 10, "person"),
            Annotation(41, 46, "country"),
        }

    def test_untagged_echo_is_empty_and_clean(self, pl_schema):
        doc, report = parse_inline("Ana went home.", "Ana went home.", pl_schema)
        assert doc.annotations == frozenset()
        assert report.warnings == ()

    def test_custom_delimiters(self):
        schema = EntitySchema({"location": "Places."})
        doc, _ = parse_inline("@@Peru## is great", "Peru is great", schema, ("@@", "##"))
        assert doc.annotations == {Annotation(0, 4, "location")}

    def test_delimiters_need_single_label_schema(self, pl_schema):
        with pytest.raises(ConfigError):
            parse_inline("@@x##", "x", pl_schema, ("@@", "##"))

    def test_identical_open_close_delimiters(self):
        schema = EntitySchema({"location": "Places."})
        doc, _ = parse_inline("$$Peru$$ is great", "Peru is great", schema, ("$$", "$$"))
        assert doc.annotations == {Annotation(0, 4, "location")}

    def test_unknown_tags_stay_literal(self, pl_schema):
        doc, report = parse_inline("<b>Ana</b> Peru", "Ana Peru", pl_schema)
        assert doc.annotations == frozenset()
        assert report.warnings == ()

    def test_stray_closing_tag_warned(self, pl_schema):
        doc, report = parse_inline("Ana</person> Peru", "Ana Peru", pl_schema)
        assert doc.annotations == frozenset()
        assert any("stray closing" in w for w in report.warnings)

    def test_unmatched_open_tag_warned(self, pl_schema):
        doc, report = parse_inline("<person>Ana Peru", "Ana Peru", pl_schema)
        assert doc.annotations == frozenset()
        assert any("unmatched opening" in w for w in report.warnings)

    def test_empty_tag_pair_warned(self, pl_schema):
        doc, report = parse_inline("<person></person>Ana", "Ana", pl_schema)
        assert doc.annotations == frozenset()
        assert any("empty" in w for w in report.warnings)

    def test_nested_tags_give_multi_label_span(self, pl_schema):
        doc, report = parse_inline(
            "<person><location>Peru</location></person> is nice",
            "Peru is nice",
            pl_schema,
        )
        assert doc.annotations == {
            Annotation(0, 4, "person"),
            Annotation(0, 4, "location"),
        }
        assert report.warnings == ()

    def test_imperfect_echo_still_maps_exactly(self, country_schema, golden_text):
        # Echo drops the trailing period; alignment still pins both spans.
        completion = (
            "<person>Fei-Fei Li</person> is a female scientist born in "
            "<country>China</country>"
        )
        doc, _ = parse_inline(completion, golden_text, country_schema)
        assert annotation_text(doc, sorted(doc.annotations)[1]) == "China"

    def test_deletion_inside_a_refined_gap_moves_no_neighbour(self):
        # difflib aligns "praiesd" with "praised" but skips one "s" of the
        # original between two matching blocks; a segment merged across
        # that hole would shift "Polar Logistics" off its mention.
        schema = EntitySchema({"ORG": "Organizations.", "PER": "People."})
        original = "Analysts at Polar Logistics praised Sofia Marques yesterday ."
        completion = (
            "Analysts at <ORG>Polar Logistics</ORG> praiesd "
            "<PER>Sofia Marques</PER> yesterday ."
        )
        doc, report = parse_inline(completion, original, schema)
        assert doc.annotations == {Annotation(12, 27, "ORG"), Annotation(36, 49, "PER")}
        assert report.warnings == ()

    def test_rewritten_mention_relocated_by_exact_search(self):
        schema = EntitySchema({"location": "Places."})
        original = "USA stocks rose; the United States announced tariffs"
        completion = "the <location>US</location> announced tariffs"
        doc, report = parse_inline(completion, original, schema)
        assert doc.annotations == {Annotation(0, 2, "location")}
        assert any("relocated" in w for w in report.warnings)

    @given(
        st.text(alphabet="ab", max_size=30),
        st.text(alphabet="ab", min_size=1, max_size=3),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_relocation_picks_the_nearest_occurrence(self, text, needle, data):
        near = data.draw(st.integers(0, len(text)))
        positions = [p for p in range(len(text)) if text.startswith(needle, p)]
        expected = min(positions, key=lambda p: (abs(p - near), p), default=-1)
        assert parsing._nearest_occurrence(text, needle, near) == expected

    def test_unlocatable_mention_dropped_with_warning(self):
        schema = EntitySchema({"location": "Places."})
        doc, report = parse_inline(
            "<location>Lima  Peru</location> border crossing",
            "Lima Peru border crossing",
            schema,
        )
        assert doc.annotations == frozenset()
        assert any("not found" in w for w in report.warnings)

    def test_never_raises_on_garbage(self, pl_schema):
        for completion in ["", "<<<>>>", "</person><person>", "{oops", "\x00\x01"]:
            doc, report = parse_inline(completion, "Ana Peru", pl_schema)
            assert isinstance(report.warnings, tuple)

    def test_annotations_stay_in_bounds(self, pl_schema):
        doc, _ = parse_inline(
            "<person>Ana</person> extra words beyond the original",
            "Ana",
            pl_schema,
        )
        for ann in doc.annotations:
            assert 0 <= ann.start < ann.end <= len(doc.text)


@st.composite
def nonoverlapping_docs(draw):
    labels = ("person", "location", "organization")
    words = draw(
        st.lists(
            st.text(
                alphabet=st.characters(
                    blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc"),
                    blacklist_characters="<>/{}\"'\\",
                ),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=12,
        )
    )
    text = " ".join(words)
    annotations = []
    cursor = 0
    for word in words:
        start, end = cursor, cursor + len(word)
        cursor = end + 1
        if draw(st.booleans()):
            annotations.append(Annotation(start, end, draw(st.sampled_from(labels))))
    return AnnotatedDocument(text, annotations)


def _two_symbol_echo():
    rng = random.Random(7)
    echo = [rng.choice("ab") for _ in range(5_000)]
    original = " ".join(rng.choice("ab") for _ in range(5_000))
    tagged = [f"<x>{tok}</x>" if i % 50 == 0 else tok for i, tok in enumerate(echo)]
    return " ".join(tagged), original


def _block_swap():
    n = 5_000
    return (
        " ".join(["<x>x</x>"] + ["x"] * (n - 1) + ["y"] * n),
        " ".join(["y"] * n + ["x"] * n),
    )



def _stack_scan_pairing(events):
    """The previous pairing, which scans the stack for every closing tag."""
    stack, spans, warnings = [], [], []
    for is_close, label, offset in events:
        if not is_close:
            stack.append((label, offset))
            continue
        if stack and stack[-1][0] == label:
            spans.append((stack.pop()[1], offset, label))
            continue
        match_index = next(
            (i for i in range(len(stack) - 1, -1, -1) if stack[i][0] == label), None
        )
        if match_index is None:
            warnings.append(f"stray closing tag for {label!r} ignored")
            continue
        for dropped_label, _ in stack[match_index + 1 :]:
            warnings.append(f"unmatched opening tag for {dropped_label!r} dropped")
        spans.append((stack[match_index][1], offset, label))
        del stack[match_index:]
    for dropped_label, _ in stack:
        warnings.append(f"unmatched opening tag for {dropped_label!r} dropped")
    return spans, warnings


class TestPairTagEvents:
    @given(st.lists(st.tuples(st.booleans(), st.sampled_from("abc")), max_size=40))
    @settings(max_examples=300, deadline=None)
    @example([(False, "a"), (False, "b"), (False, "c"), (True, "a"), (True, "b")])
    def test_same_spans_and_warnings_as_stack_scan(self, tags):
        events = [(is_close, label, offset) for offset, (is_close, label) in enumerate(tags)]
        warnings: list[str] = []
        spans = parsing._pair_tag_events(events, warnings)
        assert (spans, warnings) == _stack_scan_pairing(events)

def _scan_delimiters(completion, open_, close, label):
    """The previous delimiter scanner, which searches for both delimiters
    from the cursor at every tag."""
    parts = []
    events = []
    cursor = 0
    length = 0
    inside = False
    while True:
        if open_ == close:
            index = completion.find(open_, cursor)
            if index == -1:
                break
            is_close, token = inside, open_
            inside = not inside
        else:
            i_open = completion.find(open_, cursor)
            i_close = completion.find(close, cursor)
            if i_open == -1 and i_close == -1:
                break
            if i_close == -1 or (i_open != -1 and i_open < i_close):
                index, is_close, token = i_open, False, open_
            elif i_open == i_close:
                longer = open_ if len(open_) >= len(close) else close
                index, is_close, token = i_open, longer is close, longer
            else:
                index, is_close, token = i_close, True, close
        chunk = completion[cursor:index]
        parts.append(chunk)
        length += len(chunk)
        events.append((is_close, label, length))
        cursor = index + len(token)
    parts.append(completion[cursor:])
    return "".join(parts), events


def _scan_label_tags(completion, labels):
    """The previous label-tag scanner."""
    alternatives = "|".join(
        re.escape(label) for label in sorted(labels, key=len, reverse=True)
    )
    parts, events = [], []
    cursor = length = 0
    for match in re.finditer(f"<(/?)({alternatives})>", completion):
        chunk = completion[cursor : match.start()]
        parts.append(chunk)
        length += len(chunk)
        events.append((bool(match.group(1)), match.group(2), length))
        cursor = match.end()
    parts.append(completion[cursor:])
    return "".join(parts), events


DELIMITER_PAIRS = [("$$", "$$"), ("[", "[/"), ("[/", "["), ("@@", "##"), ("ab", "ba")]


def _completions(fragments):
    return st.lists(st.sampled_from(fragments), max_size=30).map("".join)


class TestScanTags:
    @pytest.mark.parametrize("delimiters", DELIMITER_PAIRS, ids=repr)
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_delimiters_read_like_the_search_from_the_cursor(self, delimiters, data):
        open_, close = delimiters
        completion = data.draw(_completions([open_, close, *open_, *close, "x", " "]))
        assert parsing._scan_tags(completion, ("x",), delimiters) == _scan_delimiters(
            completion, open_, close, "x"
        )

    @given(_completions(["<a>", "</a>", "<ab>", "</ab>", "<b>", "<", "/", ">", "a", "b"]))
    @settings(max_examples=300, deadline=None)
    def test_label_tags_read_like_the_previous_scan(self, completion):
        labels = ("a", "ab")
        assert parsing._scan_tags(completion, labels, None) == _scan_label_tags(
            completion, labels
        )


ADVERSARIAL_ECHOES = {
    "no shared tokens": lambda: (
        " ".join(f"<x>s{i}</x>" if i % 50 == 0 else f"s{i}" for i in range(5_000)),
        " ".join(f"o{i}" for i in range(5_000)),
    ),
    "two-symbol streams": _two_symbol_echo,
    "block swap": _block_swap,
    "one 100,000-character token": lambda: (
        "<x>" + "q" * 100_000 + "</x>",
        "q" * 99_999 + "r",
    ),
}


class TestAdversarialSizes:
    """Loose time bounds that a super-linear parsing path would blow.

    Each call takes at most about half a second on a 2-vCPU machine; the
    bound leaves more than ten times that. Inputs of thousands of tokens or
    characters also raise RecursionError on any recursion as deep as the
    input.
    """

    TIME_LIMIT_S = 8.0
    SCHEMA = EntitySchema({"x": "Xs."})

    def _timed(self, case, call):
        started = time.perf_counter()
        try:
            result = call()
        except RecursionError:
            pytest.fail(f"parsing recursed as deep as the input on {case}")
        elapsed = time.perf_counter() - started
        assert elapsed < self.TIME_LIMIT_S, f"{case} took {elapsed:.2f} s"
        return result

    @pytest.mark.parametrize("case", sorted(ADVERSARIAL_ECHOES))
    def test_align_and_parse_within_bounds(self, case):
        completion, original = ADVERSARIAL_ECHOES[case]()
        stripped = completion.replace("<x>", "").replace("</x>", "")
        amap = self._timed(case, lambda: align_texts(stripped, original))
        assert amap.segments
        doc, _ = self._timed(
            case, lambda: parse_inline(completion, original, self.SCHEMA)
        )
        for ann in doc.annotations:
            assert doc.text[ann.start : ann.end] in stripped

    def test_decoy_blocks_within_bounds(self):
        # Every block leaves an unclosed brace before it, so each scan for a
        # block runs to the end: decoding block after block is quadratic.
        completion = "{ {x} " * 10_000

        def parse():
            with pytest.raises(ParseError):
                parse_json_answer(completion, "x", self.SCHEMA)

        self._timed("20,000 opening braces", parse)

    def test_unclosed_custom_delimiters_within_bounds(self):
        # A search for the close from every open runs to the end each time.
        n = 200_000
        completion = "[x " * n
        doc, report = self._timed(
            "unclosed custom delimiters",
            lambda: parse_inline(completion, "x " * n, self.SCHEMA, ("[", "<<END>>")),
        )
        assert doc.annotations == frozenset()
        assert report.warnings == ("unmatched opening tag for 'x' dropped",) * n

    def test_stray_closing_tags_within_bounds(self):
        n = 8_000
        schema = EntitySchema({"PER": "People.", "LOC": "Places."})
        completion = "<PER>a " * n + "</LOC>b " * n
        original = "a " * n + "b " * n
        doc, report = self._timed(
            "stray closing tags", lambda: parse_inline(completion, original, schema)
        )
        assert doc.annotations == frozenset()
        assert report.warnings == (
            ("stray closing tag for 'LOC' ignored",) * n
            + ("unmatched opening tag for 'PER' dropped",) * n
        )


class TestInlineRoundTrip:
    SCHEMA = EntitySchema(
        {"person": "People.", "location": "Places.", "organization": "Orgs."}
    )

    @given(nonoverlapping_docs())
    @settings(max_examples=150, deadline=None)
    def test_parse_inverts_render(self, doc):
        completion = render_inline(doc)
        parsed, report = parse_inline(completion, doc.text, self.SCHEMA)
        assert parsed.annotations == doc.annotations
        assert report.warnings == ()


class TestExtractJsonBlock:
    def test_prose_wrapped_object(self):
        assert extract_json_block('Sure! {"a": [1]} hope that helps') == '{"a": [1]}'

    def test_braces_inside_strings_ignored(self):
        assert extract_json_block('{"a": "x{y}"} tail') == '{"a": "x{y}"}'

    def test_skips_unbalanced_prefix(self):
        assert extract_json_block('{broken {"person": []}') == '{"person": []}'

    def test_no_object_gives_none(self):
        assert extract_json_block("no braces here") is None
        assert extract_json_block("{never closed") is None

    @staticmethod
    def _first_closing_block(text):
        """The quadratic reference: scan from every opening brace in turn."""
        for start in (i for i, char in enumerate(text) if char == "{"):
            depth = 0
            in_string = False
            escaped = False
            for index in range(start, len(text)):
                char = text[index]
                if in_string:
                    if escaped:
                        escaped = False
                    elif char == "\\":
                        escaped = True
                    elif char == '"':
                        in_string = False
                    continue
                if char == '"':
                    in_string = True
                elif char == "{":
                    depth += 1
                elif char == "}":
                    depth -= 1
                    if depth == 0:
                        return text[start : index + 1]
        return None

    @given(st.text(alphabet='{}"\\a', max_size=40))
    @example('{{"{\\""}')
    @settings(max_examples=1000, deadline=None)
    def test_matches_the_scan_from_every_brace(self, text):
        assert extract_json_block(text) == self._first_closing_block(text)

    def test_decoy_block_before_the_answer_is_still_first(self):
        text = 'Format {label: mentions}: {"person": ["Ada"]}'
        assert extract_json_block(text) == "{label: mentions}"

    def test_unbalanced_run_is_linear(self):
        started = time.perf_counter()
        assert extract_json_block("{" * 20_000) is None
        assert time.perf_counter() - started < 1.0


class TestParseJsonAnswer:
    def test_golden_object(self, country_schema, golden_text):
        completion = '{"person": ["Fei-Fei Li"], "country": ["China"]}'
        doc, _ = parse_json_answer(completion, golden_text, country_schema)
        assert doc.annotations == {
            Annotation(0, 10, "person"),
            Annotation(41, 46, "country"),
        }

    def test_empty_lists_give_empty_set(self, pl_schema):
        doc, report = parse_json_answer(
            '{"person": [], "location": []}', "anything", pl_schema
        )
        assert doc.annotations == frozenset()
        assert report.warnings == ()

    def test_all_nonoverlapping_occurrences(self):
        schema = EntitySchema({"x": "Xs."})
        doc, _ = parse_json_answer('{"x": ["aa"]}', "aaaa", schema)
        assert doc.annotations == {Annotation(0, 2, "x"), Annotation(2, 4, "x")}

    def test_prose_around_object_tolerated(self, pl_schema):
        completion = 'Here you go:\n{"person": ["Ana"], "location": []}\nDone.'
        doc, _ = parse_json_answer(completion, "Ana Peru", pl_schema)
        assert doc.annotations == {Annotation(0, 3, "person")}

    def test_unknown_key_dropped_with_warning(self, pl_schema):
        doc, report = parse_json_answer(
            '{"person": [], "location": [], "city": ["Lima"]}', "Lima", pl_schema
        )
        assert doc.annotations == frozenset()
        assert any("city" in w for w in report.warnings)

    def test_mention_search_is_case_sensitive(self, pl_schema):
        doc, report = parse_json_answer(
            '{"person": ["ana"], "location": []}', "Ana", pl_schema
        )
        assert doc.annotations == frozenset()
        assert any("ana" in w for w in report.warnings)

    def test_whitespace_trim_retry(self, pl_schema):
        doc, _ = parse_json_answer(
            '{"person": [" Ana "], "location": []}', "Ana Peru", pl_schema
        )
        assert doc.annotations == {Annotation(0, 3, "person")}

    def test_string_value_coerced_to_single_mention(self, pl_schema):
        doc, report = parse_json_answer(
            '{"person": "Ana", "location": []}', "Ana Peru", pl_schema
        )
        assert doc.annotations == {Annotation(0, 3, "person")}
        assert any("treated as one mention" in w for w in report.warnings)

    def test_missing_object_raises(self, pl_schema):
        with pytest.raises(ParseError):
            parse_json_answer("there is no object here", "Ana", pl_schema)

    def test_undecodable_object_raises(self, pl_schema):
        with pytest.raises(ParseError):
            parse_json_answer("{'person': [}", "Ana", pl_schema)

    def test_decoy_block_before_the_answer_is_read_past(self, pl_schema):
        completion = 'Format {label: mentions}: {"person": ["Ada"]}'
        doc, _ = parse_json_answer(completion, "Ada wrote", pl_schema)
        assert doc.annotations == {Annotation(0, 3, "person")}

    def test_only_one_block_after_a_decoy_is_tried(self, pl_schema):
        completion = '{label: mentions} {again} {"person": ["Ada"]}'
        with pytest.raises(ParseError, match="property name"):
            parse_json_answer(completion, "Ada wrote", pl_schema)

    def test_too_deep_object_raises_parse_error(self, pl_schema):
        completion = '{"a":' * 5_000 + "{}" + "}" * 5_000
        with pytest.raises(ParseError, match="recursion"):
            parse_json_answer(completion, "Ada", pl_schema)


@st.composite
def unique_mention_docs(draw):
    labels = ("person", "location", "organization")
    count = draw(st.integers(0, 4))
    # Distinct alphabetic words guarantee each mention occurs exactly once.
    words = [f"w{index}x" for index in range(10)]
    mentions = draw(
        st.lists(st.sampled_from(words), min_size=count, max_size=count, unique=True)
    )
    filler = ["the", "and", "saw"]
    tokens: list[str] = []
    annotations = []
    cursor = 0
    for mention in mentions:
        pad = draw(st.sampled_from(filler))
        tokens.append(pad)
        cursor += len(pad) + 1
        tokens.append(mention)
        annotations.append(
            Annotation(cursor, cursor + len(mention), draw(st.sampled_from(labels)))
        )
        cursor += len(mention) + 1
    tokens.append("end")
    return AnnotatedDocument(" ".join(tokens), annotations)


class TestJsonRoundTrip:
    SCHEMA = EntitySchema(
        {"person": "People.", "location": "Places.", "organization": "Orgs."}
    )

    @given(unique_mention_docs())
    @settings(max_examples=150, deadline=None)
    def test_parse_inverts_render(self, doc):
        completion = render_json(doc, self.SCHEMA)
        parsed, report = parse_json_answer(completion, doc.text, self.SCHEMA)
        assert parsed.annotations == doc.annotations

