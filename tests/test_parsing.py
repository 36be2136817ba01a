"""Completion parsing: tag scanning, alignment, JSON answers."""

from __future__ import annotations

import difflib
import random
import re
import time
import tracemalloc
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
from chatner.parsing import align_texts, extract_json_block, parse_json_answer
from chatner.prompting import render_inline, render_json
from conftest import assert_time_grows_linearly


@pytest.fixture
def pl_schema():
    return EntitySchema({"person": "People.", "location": "Places."})


@pytest.fixture
def country_schema():
    return EntitySchema({"person": "People.", "country": "Countries."})


def _pairs(runs):
    """The index pairs of ``_common_token_pairs``' runs, one per pair."""
    return [(i + t, j + t) for i, j, size in runs for t in range(size)]


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
    pairs = _pairs(
        parsing._common_token_pairs([m.group() for m in tokens_s], [m.group() for m in tokens_o])
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
        segments = align_texts("abc def", "abc def")
        assert segments == ((0, 7, 0, 7),)
        assert parsing._map_starts(segments, [0]) == [0]

    def test_single_token_replacement_maps_in_place(self):
        segments = align_texts("abc deX", "abc def")
        assert parsing._map_starts(segments, range(8)) == list(range(8))

    def test_empty_stripped_gives_empty_map(self):
        assert align_texts("", "abc") == ()
        assert parsing._map_starts((), [0, 2]) == [0, 0]

    def test_disjoint_texts_map_proportionally(self):
        segments = align_texts("xyz", "abcdef")
        assert parsing._map_starts(segments, range(4)) == [0, 2, 4, 6]

    @given(st.text(max_size=60), st.text(max_size=60), st.data())
    @settings(max_examples=150, deadline=None)
    def test_monotone(self, stripped, original, data):
        segments = align_texts(stripped, original)
        if len(stripped) < 2:
            return
        a = data.draw(st.integers(0, len(stripped) - 2))
        b = data.draw(st.integers(a + 1, len(stripped) - 1))
        mapped_a, mapped_b = parsing._map_starts(segments, [a, b])
        assert mapped_a <= mapped_b

    @given(st.text(max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_identity_inputs_map_every_offset_identically(self, text):
        segments = align_texts(text, text)
        offsets = range(len(text) + 1)
        assert parsing._map_starts(segments, offsets) == list(offsets)

    @given(drifted_echoes())
    @settings(max_examples=400, deadline=None)
    @example(
        (
            "Analysts at Polar Logistics praiesd Sofia Marques yesterday .",
            "Analysts at Polar Logistics praised Sofia Marques yesterday .",
        )
    )
    @example(("a  b c d", "a b c d"))
    def test_maps_every_offset_like_per_token_segments(self, texts):
        stripped, original = texts
        segments = align_texts(stripped, original)
        reference = _per_token_segments(stripped, original)
        offsets = range(len(stripped) + 1)
        assert parsing._map_starts(segments, offsets) == [
            _reference_map_offset(reference, offset, False) for offset in offsets
        ]

    @given(st.one_of(st.tuples(st.text(max_size=60), st.text(max_size=60)), drifted_echoes()))
    @settings(max_examples=300, deadline=None)
    @example(("", "abc"))
    @example(("a b", ""))
    def test_segments_tile_the_stripped_text_in_order(self, texts):
        # What _map_starts' forward walk relies on.
        stripped, original = texts
        segments = align_texts(stripped, original)
        if not stripped:
            assert segments == ()
            return
        assert segments[0][0] == 0
        assert segments[-1][1] == len(stripped)
        assert all(s_lo < s_hi for s_lo, s_hi, _, _ in segments)
        assert all(a[1] == b[0] for a, b in zip(segments, segments[1:]))
        assert all(0 <= o_lo <= o_hi <= len(original) for _, _, o_lo, o_hi in segments)
        assert all(a[3] <= b[2] for a, b in zip(segments, segments[1:]))


@st.composite
def echoes_with_spans(draw):
    """A drifted echo, its original, and spans over the echo in any order,
    nested and overlapping ones included."""
    stripped, original = draw(drifted_echoes())
    offsets = st.integers(0, len(stripped))
    pairs = draw(st.lists(st.tuples(offsets, offsets), max_size=25))
    return stripped, original, [(min(pair), max(pair), "x") for pair in pairs]


class TestMapSpans:
    @given(echoes_with_spans())
    @settings(max_examples=300, deadline=None)
    # Two pairs inside a third, in the order they close.
    @example(("ab cd ef", "ab cx ef", [(0, 2, "x"), (3, 5, "x"), (0, 8, "x")]))
    def test_spans_in_any_order_map_like_one_offset_at_a_time(self, case):
        stripped, original, spans = case
        reference = _per_token_segments(stripped, original)
        starts = [start for start, _, _ in spans]
        assert parsing._map_starts(align_texts(stripped, original), starts) == [
            _reference_map_offset(reference, start, False) for start in starts
        ]


@st.composite
def tagged_echoes(draw):
    """A drifted echo with tags for two labels at drawn offsets, nested,
    crossing and stray ones included, and its original."""
    stripped, original, spans = draw(echoes_with_spans())
    tags = []
    for start, end, _ in spans:
        label = draw(st.sampled_from("xy"))
        tags += [(start, f"<{label}>"), (end, f"</{label}>")]
    # A stable sort keeps the drawn order of the tags at one offset.
    tags = sorted(draw(st.permutations(tags)), key=lambda tag: tag[0])
    cuts = [0, *(offset for offset, _ in tags), len(stripped)]
    texts = [stripped[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    return "".join(text + tag for text, (_, tag) in zip(texts, tags)) + texts[-1], original


def _two_ended_parse(completion, original, labels):
    """The previous in-line rule, the reference: both ends of a span map
    through per-token segments, and a span is kept where the original
    between them equals its mention. Returns the annotations, the warnings
    and the indices of the relocation warnings whose span starts at its
    mapped start."""
    warnings = []
    stripped, spans = parsing._scan_tags(completion, labels, None, warnings)
    reference = _per_token_segments(stripped, original)
    annotations, in_place = set(), []
    for start, end, label in spans:
        mention = stripped[start:end]
        if not mention:
            warnings.append(f"empty {label!r} tag pair dropped")
            continue
        mapped_start = _reference_map_offset(reference, start, False)
        mapped_end = max(mapped_start, _reference_map_offset(reference, end, True))
        if original[mapped_start:mapped_end] == mention:
            annotations.add(Annotation(mapped_start, mapped_end, label))
            continue
        best = parsing._nearest_occurrence(original, mention, mapped_start)
        if best == -1:
            warnings.append(f"mention {mention!r} not found in the original text; dropped")
            continue
        annotations.add(Annotation(best, best + len(mention), label))
        if best == mapped_start:
            in_place.append(len(warnings))
        warnings.append(f"mention {mention!r} relocated by exact search")
    return annotations, warnings, in_place


class TestCheckInPlace:
    """A mention is kept where the original holds it at its mapped start,
    which no mapped end can change."""

    SCHEMA = EntitySchema({"x": "Xs.", "y": "Ys."})

    @given(tagged_echoes())
    @settings(max_examples=400, deadline=None)
    # The start maps in place and the end does not, so the old rule warned.
    @example((" <x>aaaaa a</x>b a", "aaaaa aab a"))
    def test_annotations_match_the_two_ended_rule(self, case):
        completion, original = case
        doc, report = parse_inline(completion, original, self.SCHEMA)
        annotations, warnings, in_place = _two_ended_parse(
            completion, original, self.SCHEMA.labels
        )
        assert doc.annotations == annotations
        # The only change: no warning for a mention "relocated" to where its
        # start already mapped.
        kept = [warning for k, warning in enumerate(warnings) if k not in in_place]
        assert list(report.warnings) == kept


def _regex_split_tokens(text):
    """The previous split, the reference: tokens and whitespace from one
    ``re.split``, and the offset of the first token."""
    parts = re.split(r"(\s+)", text)
    lo = 0 if parts[0] else 1
    hi = len(parts) // 2 + (1 if parts[-1] else 0)
    return parts[::2][lo:hi], parts[1::2][lo:], len(parts[1]) if lo and len(parts) > 1 else 0


class TestSplitTokens:
    """Tokens, whitespace and offsets from ``str.split``, against ``\\S+``."""

    @given(
        st.text(
            st.one_of(
                st.characters(),
                st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=500, deadline=None)
    @example("")
    @example("   ")
    @example(" \x1ca\x85b\xa0\u3000c\x1f ")
    # Leading and trailing space, a double space, a tab, U+00A0, U+2028.
    @example(" a b ")
    @example("a  b")
    @example("a\tb")
    @example("a\xa0b")
    @example("a\u2028b")
    def test_tokens_are_the_non_whitespace_runs(self, text):
        words, spaces, first = parsing._split_tokens(text)
        spans = [m.span() for m in re.finditer(r"\S+", text)]
        assert words == [text[lo:hi] for lo, hi in spans]
        assert spaces[: len(words) - 1] == [
            text[end:start] for (_, end), (start, _) in zip(spans, spans[1:])
        ]
        token_start = parsing._token_starts(words, spaces, first)
        assert [token_start(k) for k in range(len(words))] == [lo for lo, _ in spans]
        # Skipping tokens, or asking for one twice, keeps the count.
        token_start = parsing._token_starts(words, spaces, first)
        assert [token_start(k) for k in range(0, len(words), 3) for _ in (0, 1)] == [
            lo for lo, _ in spans[::3] for _ in (0, 1)
        ]
        assert (words, spaces, first) == _regex_split_tokens(text)

    @given(st.lists(st.text(st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc"))), max_size=20))
    @settings(max_examples=300, deadline=None)
    @example(["a"])
    @example([])
    def test_single_spaced_text_splits_without_the_regex(self, words):
        text = " ".join(word for word in words if word and not any(map(str.isspace, word)))
        expected = _regex_split_tokens(text)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parsing, "_SPACE_RE", None)  # any use of it fails
            assert parsing._split_tokens(text) == expected

    def test_isspace_agrees_with_backslash_s_on_every_code_point(self):
        # str.split() splits at str.isspace; the regex path at \s.
        every = "".join(map(chr, range(0x110000)))
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


contained_pairs = st.tuples(
    st.text("ab ", min_size=1, max_size=8), st.text("ab ", max_size=12), st.text("ab ", max_size=12)
).map(lambda parts: (parts[0], parts[1] + parts[0] + parts[2]))


class TestMatchingBlocks:
    """Where one side contains the other, one ``str.find`` gives the blocks."""

    @given(
        st.one_of(
            contained_pairs,
            st.tuples(st.text("ab ", min_size=1, max_size=12), st.text("ab ", min_size=1, max_size=12)),
        ),
        st.booleans(),
    )
    @settings(max_examples=1000, deadline=None)
    @example((" ", " also "), False)
    @example((" ", " also "), True)
    def test_blocks_are_difflibs(self, sides, swap):
        a, b = sides[::-1] if swap else sides
        expected = difflib.SequenceMatcher(None, a, b, autojunk=False).get_matching_blocks()
        assert parsing._matching_blocks(a, b) == [tuple(block) for block in expected]


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
        runs = parsing._common_token_pairs(a, b)
        assert all(size > 0 for _, _, size in runs)
        pairs = _pairs(runs)
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
        assert parsing._common_token_pairs(a, b) == [(3_000, 3_000, 1)]

    def test_exhausted_budget_leaves_the_middle_unpaired(self, monkeypatch):
        monkeypatch.setattr(parsing, "_DIFF_BUDGET", 0)
        a = "p x m y q".split()
        b = "p m q".split()
        assert parsing._common_token_pairs(a, b) == [(0, 0, 1), (4, 2, 1)]

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

    @pytest.mark.parametrize("delimiters", [("", "]"), ("]", "")])
    def test_empty_delimiter_rejected(self, delimiters):
        schema = EntitySchema({"x": "Anything."})
        with pytest.raises(ConfigError, match="pair of non-empty strings"):
            parse_inline("a]b", "ab", schema, delimiters)

    @pytest.mark.parametrize(
        "delimiters", [("[",), ("[", "]", "/"), ("[", 5), 5],
        ids=["one", "three", "non-string", "not a sequence"],
    )
    def test_malformed_delimiters_rejected(self, delimiters):
        # The same rule, and message, as NerConfig's.
        schema = EntitySchema({"x": "Anything."})
        with pytest.raises(ConfigError, match="^delimiters must be a pair of non-empty strings$"):
            parse_inline("[a] b", "a b", schema, delimiters)

    def test_delimiters_may_be_any_two_item_sequence(self):
        schema = EntitySchema({"x": "Anything."})
        doc, report = parse_inline("[a] b", "a b", schema, ["[", "]"])
        assert doc.annotations == {Annotation(0, 1, "x")}
        assert report.warnings == ()

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
        ann = sorted(doc.annotations)[1]
        assert doc.text[ann.start : ann.end] == "China"

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
    """The pairing inside ``_scan_tags``, against the stack scan."""

    @given(st.lists(st.tuples(st.booleans(), st.sampled_from("abc")), max_size=40))
    @settings(max_examples=300, deadline=None)
    @example([(False, "a"), (False, "b"), (False, "c"), (True, "a"), (True, "b")])
    def test_same_spans_and_warnings_as_stack_scan(self, tags):
        # One character after each tag, so a tag's offset is its index.
        completion = "".join(f"<{'/' * is_close}{label}>." for is_close, label in tags)
        events = [(is_close, label, offset) for offset, (is_close, label) in enumerate(tags)]
        warnings: list[str] = []
        _, spans = parsing._scan_tags(completion, ("a", "b", "c"), None, warnings)
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


def _scan(completion, labels, delimiters):
    """``_scan_tags``' stripped text, spans and warnings."""
    warnings: list[str] = []
    return (*parsing._scan_tags(completion, labels, delimiters, warnings), warnings)


def _paired(reference_scan):
    """A reference scan's stripped text, and its events paired by the stack scan."""
    stripped, events = reference_scan
    return (stripped, *_stack_scan_pairing(events))


class TestScanTags:
    @pytest.mark.parametrize("delimiters", DELIMITER_PAIRS, ids=repr)
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_delimiters_read_like_the_search_from_the_cursor(self, delimiters, data):
        open_, close = delimiters
        completion = data.draw(_completions([open_, close, *open_, *close, "x", " "]))
        assert _scan(completion, ("x",), delimiters) == _paired(
            _scan_delimiters(completion, open_, close, "x")
        )

    @given(_completions(["<a>", "</a>", "<ab>", "</ab>", "<b>", "<", "/", ">", "a", "b"]))
    @settings(max_examples=300, deadline=None)
    def test_label_tags_read_like_the_previous_scan(self, completion):
        labels = ("a", "ab")
        assert _scan(completion, labels, None) == _paired(_scan_label_tags(completion, labels))

    @given(
        st.lists(
            st.one_of(
                st.text(max_size=4),
                st.sampled_from(["<a>", "</a>", "<a.b>", "</a.b>", "$$", "[", "[/", "@@", "##"]),
            ),
            max_size=20,
        ).map("".join)
    )
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_reads_like_both_scans(self, completion):
        labels = ("a", "a.b")
        assert _scan(completion, labels, None) == _paired(_scan_label_tags(completion, labels))
        for open_, close in DELIMITER_PAIRS:
            assert _scan(completion, ("x",), (open_, close)) == _paired(
                _scan_delimiters(completion, open_, close, "x")
            )


def _one_char_tokens(count=1_000_000):
    # A tag pair every ten tokens; the echo has a typo every 100,000 tokens
    # and a doubled space every 1,000, so the pairs form about count / 1,000
    # runs.
    rng = random.Random(11)
    tokens = [rng.choice("abcdefghij") for _ in range(count)]
    echo = [
        ("  " if i % 1_000 == 1 else " ")
        + ("<x>{}</x>" if i % 10 == 0 else "{}").format("z" if i % 100_000 == 500 else tok)
        for i, tok in enumerate(tokens)
    ]
    return "".join(echo)[1:], " ".join(tokens)


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
    "1,000,000 one-character tokens": _one_char_tokens,
}


def _nested_tags(n):
    """n one-character tokens, each opening a tag pair, all closed at the end."""
    return " ".join("<x>" + token for token in random.Random(n).choices("abcdefghij", k=n)) + (
        "</x>" * n
    )


def _nested_starts_over_an_identical_echo(n):
    # The starts _scan_tags gives for _nested_tags(n): every token's, the
    # last first, as the pairs close.
    return " ".join(random.Random(n).choices("abcdefghij", k=n)), list(range(2 * n - 2, -1, -2))


def _whitespace_runs(n):
    # The same n tokens on both sides, each followed by one to three spaces
    # drawn per side, so most pairs are runs of their own with a gap to refine.
    rng = random.Random(n)
    tokens = rng.choices("abcdefghij", k=n)
    return tuple("".join(map(str.__add__, tokens, rng.choices([" ", "  ", "   "], k=n)))
                 for _ in "so")


# Per input family: a size whose run took 60-100 ms on a 2-vCPU machine, the
# input maker and the run. Stray closing tags are left out: their ratio read
# 4.4-7.6, too near the bound to tell linear from quadratic. Drifted echoes
# are left out too: their alignment crosses _DIFF_BUDGET between n and 4n.
INLINE_GROWTH_FAMILIES = {
    "tags nested to full depth": (
        80_000, _nested_tags, lambda completion: parsing._scan_tags(completion, ("x",), None, [])
    ),
    "starts of nested tags over an identical echo": (
        400_000,
        _nested_starts_over_an_identical_echo,
        lambda case: parsing._map_starts(align_texts(case[0], case[0]), case[1]),
    ),
    "whitespace runs": (40_000, _whitespace_runs, lambda texts: align_texts(*texts)),
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
        assert amap
        doc, _ = self._timed(
            case, lambda: parse_inline(completion, original, self.SCHEMA)
        )
        for ann in doc.annotations:
            assert doc.text[ann.start : ann.end] in stripped

    def test_pairs_nested_to_full_depth_within_bounds(self):
        # Every token opens a pair and all of them close at the end, so the
        # pairs come out of the stack with their starts in reverse order.
        # The scan, the alignment and the mapping took 0.42, 0.00 and 0.41 s
        # on a 2-vCPU machine. parse_inline is left unbounded: the mentions
        # it slices add up to depth times text, though none is compared
        # against a slice of the original.
        n = 200_000
        rng = random.Random(13)
        tokens = [rng.choice("abcdefghij") for _ in range(n)]
        completion = " ".join("<x>" + token for token in tokens) + "</x>" * n
        original = " ".join(tokens)

        def scan_align_map():
            warnings: list[str] = []
            stripped, spans = parsing._scan_tags(completion, ("x",), None, warnings)
            starts = [start for start, _, _ in spans]
            return spans, warnings, parsing._map_starts(align_texts(stripped, original), starts)

        spans, warnings, mapped = self._timed("pairs nested to full depth", scan_align_map)
        assert warnings == []
        assert spans[0] == (len(original) - 1, len(original), "x")
        assert spans[-1] == (0, len(original), "x")
        assert mapped == [start for start, _, _ in spans]

    @pytest.mark.parametrize("family", sorted(INLINE_GROWTH_FAMILIES))
    def test_time_grows_linearly(self, family):
        n, make, run = INLINE_GROWTH_FAMILIES[family]
        assert_time_grows_linearly(run, make, n, family)

    def test_decoy_blocks_within_bounds(self):
        # Every block leaves an unclosed brace before it, so each scan for a
        # block runs to the end: decoding block after block is quadratic.
        completion = "{ {x} " * 10_000

        def parse():
            with pytest.raises(ParseError):
                parse_json_answer(completion, "x", self.SCHEMA)

        self._timed("20,000 opening braces", parse)

    def test_repeated_json_mention_within_bounds(self):
        # One label listing "a" 8,000 times over "a " * 8,000: 0.03 s here
        # (2-vCPU machine, also under -X dev), 220 s when every copy was
        # searched and annotated again. The bound leaves about 30 times that.
        n = 8_000
        completion = '{"x": [' + ", ".join(['"a"'] * n) + "]}"
        started = time.perf_counter()
        doc, report = parse_json_answer(completion, "a " * n, self.SCHEMA)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"{n:,} repeated mentions took {elapsed:.2f} s"
        assert len(doc.annotations) == n
        assert report.warnings == ()

    def test_distinct_absent_json_mentions_within_bounds(self):
        # Every mention is searched over the whole text and found nowhere,
        # so the work is mentions times text: 1.2 s of process time on a
        # 2-vCPU machine (CPython 3.11, also under -X dev) for 16,000
        # mentions over 100 kB. The bound leaves about 6.5 times that.
        n = 16_000
        completion = '{"x": [' + ", ".join(f'"b{k}"' for k in range(n)) + "]}"
        doc, report = self._timed(
            f"{n:,} distinct absent mentions",
            lambda: parse_json_answer(completion, "a " * 50_000, self.SCHEMA),
        )
        assert doc.annotations == frozenset()
        assert report.warnings == tuple(
            f"mention 'b{k}' not found in the original text; dropped" for k in range(n)
        )

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


class TestAlignmentMemory:
    """Alignment keeps a few pointers per token, and no Python int per offset."""

    # tracemalloc's peak inside align_texts on 200,000 one-character tokens
    # is 11.3 MB on CPython 3.11; per-token offset lists and pair tuples took
    # it to 66 MB before. The bound leaves about twice the measured peak.
    PEAK_LIMIT_MB = 24

    def test_peak_memory_within_bound(self):
        completion, original = _one_char_tokens(200_000)
        stripped = completion.replace("<x>", "").replace("</x>", "")
        tracemalloc.start()
        try:
            amap = align_texts(stripped, original)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert amap
        assert peak < self.PEAK_LIMIT_MB * 1e6, f"peak {peak / 1e6:.1f} MB"


class TestWhatTheBenchmarkReads:
    """``perfbench/tracing.py`` times ``parsing.align_texts`` by wrapping the
    module global, and counts repairs by phrases in the warnings."""

    SCHEMA = EntitySchema({"x": "Xs."})

    def test_parse_inline_aligns_once_through_the_module_global(self, monkeypatch):
        calls = []

        def counting(stripped, original):
            calls.append((stripped, original))
            return align_texts(stripped, original)

        monkeypatch.setattr(parsing, "align_texts", counting)
        parse_inline("<x>a</x> b c", "a b c d", self.SCHEMA)
        assert calls == [("a b c", "a b c d")]

    @pytest.mark.parametrize(
        "completion, original, phrase",
        [
            ("a b c <x>Lima</x>", "Lima a b c", "relocated by exact search"),
            ("<x>Quito</x> is far", "Lima is far", "not found in the original text"),
            ("<x></x>Lima is far", "Lima is far", "tag pair dropped"),
        ],
        ids=["relocated", "not found", "empty pair"],
    )
    def test_repair_warnings_keep_their_phrases(self, completion, original, phrase):
        _, report = parse_inline(completion, original, self.SCHEMA)
        (warning,) = report.warnings
        assert phrase in warning


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


def _brace_soup(n):
    """Seeded text with three opening braces to each closing one, so that
    some scan stays open to the end."""
    return "".join(random.Random(n).choices('{{{}"\\a', k=n))


# Inputs of size about n that a scan must read to the end, or nearly, each
# with an n whose scan took 50-65 ms on a 2-vCPU machine.
GROWTH_FAMILIES = {
    "opening braces": (200_000, lambda n: "{" * n),
    "braces opening strings": (100_000, lambda n: '{"' * n),
    "braces and escaped quotes": (60_000, lambda n: '{\\"' * n),
    "escaped backslashes in a string": (250_000, lambda n: '{"' + "\\\\" * n + '"}'),
    "nested objects": (50_000, lambda n: '{"a":' * n + "1" + "}" * n),
    "brace soup": (250_000, _brace_soup),
}


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

    @given(st.text(alphabet='{}"\\a\n', max_size=40))
    @example('{{"{\\""}')
    @example('{\\{}')  # an escaped brace outside strings still opens
    @example('{\\"{"}}')  # an escaped quote outside strings opens a string
    @example('{"\\\\"}')  # an escaped backslash leaves the quote bare
    @example('{"a\\')  # a trailing backslash escapes nothing
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

    @pytest.mark.parametrize("family", sorted(GROWTH_FAMILIES))
    def test_time_grows_linearly(self, family):
        n, make = GROWTH_FAMILIES[family]
        assert_time_grows_linearly(extract_json_block, make, n, family)


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

    @pytest.mark.parametrize(
        "value, warning",
        [('{"a": 1}', "value for label 'person' is not a list; dropped"),
         ("[3]", "non-string mention 3 for 'person' dropped"),
         ('[""]', "empty mention for 'person' dropped")],
        ids=["object value", "number mention", "empty mention"],
    )
    def test_unusable_value_dropped_with_warning(self, pl_schema, value, warning):
        doc, report = parse_json_answer(
            f'{{"person": {value}, "location": ["Peru"]}}', "Ana Peru", pl_schema
        )
        assert doc.annotations == {Annotation(4, 8, "location")}
        assert report.warnings == (warning,)

    def test_repeated_mention_searched_and_warned_once(self, pl_schema):
        completion = '{"person": ["Ana", ["x"], "Ana", ["x"], "Bo", "Bo"], "location": []}'
        doc, report = parse_json_answer(completion, "Ana met Ana", pl_schema)
        assert doc.annotations == {Annotation(0, 3, "person"), Annotation(8, 11, "person")}
        assert report.warnings == (
            "non-string mention ['x'] for 'person' dropped",
            "non-string mention ['x'] for 'person' dropped",
            "mention 'Bo' not found in the original text; dropped",
        )

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

