"""Turning model completions back into character-offset annotations.

The in-line parser never trusts the model's echo blindly: the completion
with its tags stripped is aligned against the original text and every
recovered span is verified to cover the exact mention the model enclosed.
Spans the alignment cannot place verbatim are relocated by exact substring
search, and dropped with a warning as a last resort, so a recovered
annotation is always a verbatim occurrence of the enclosed mention.

Alignment pairs tokens by a longest common subsequence: the common prefix
and suffix are paired directly, tokens missing from the other side are
dropped, and Myers' O(ND) difference algorithm pairs the rest within a
fixed work budget. Only gaps of bounded length are refined character by
character, so alignment, like JSON block extraction, takes near-linear
time and recurses nowhere.
"""

from __future__ import annotations

import difflib
import json
import re
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .domain import AnnotatedDocument, Annotation, EntitySchema
from .errors import ConfigError, ParseError

_TOKEN_RE = re.compile(r"\S+")
_JSON_SYNTAX_RE = re.compile(r'[{}"\\]')

# Work (edit-graph cells plus diagonal moves, checked once per round) the
# token diff may spend, about half a second in CPython; past it the unpaired
# middle falls back to exact search.
_DIFF_BUDGET = 1_000_000

# Longest gap, in characters on either side, refined by difflib, whose cost
# grows with the product of the two lengths; longer gaps map proportionally.
_REFINE_LIMIT = 256

# (s_lo, s_hi, o_lo, o_hi): a stripped range and the original range it maps to.
_Segment = tuple[int, int, int, int]


@dataclass(frozen=True)
class AlignmentMap:
    """Monotone mapping from stripped-completion offsets to original offsets.

    Segments ``(s_lo, s_hi, o_lo, o_hi)`` tile the stripped text left to
    right, none of them empty on the stripped side. A segment maps its
    offsets proportionally, which is offset by offset when both sides have
    equal lengths.
    """

    segments: tuple[_Segment, ...]

    def map_offset(self, offset: int, *, prefer_end: bool = False) -> int:
        """Map one stripped offset to an original offset.

        ``prefer_end`` resolves offsets sitting on a segment boundary to the
        left segment, which is what the exclusive end of a span wants.
        """
        if not self.segments:
            return 0
        index = bisect_right(
            self.segments, offset - 1 if prefer_end else offset, key=itemgetter(0)
        )
        s_lo, s_hi, o_lo, o_hi = self.segments[max(0, index - 1)]
        offset = max(s_lo, min(offset, s_hi))
        # Exact for equal lengths: k * n / n is k in floating point.
        return o_lo + round((offset - s_lo) * (o_hi - o_lo) / (s_hi - s_lo))

    def map_span(self, start: int, end: int) -> tuple[int, int]:
        """Map a stripped span; the end never falls before the start."""
        mapped_start = self.map_offset(start)
        return mapped_start, max(mapped_start, self.map_offset(end, prefer_end=True))


@dataclass(frozen=True)
class ParseReport:
    """What a parse recovered and everything it had to gloss over."""

    annotations: frozenset[Annotation]
    warnings: tuple[str, ...]


def _myers_pairs(a: list[str], b: list[str]) -> list[tuple[int, int]] | None:
    """Index pairs of a longest common subsequence, by Myers' greedy search.

    Round ``d`` records the furthest point reached on every diagonal with
    ``d`` insertions and deletions (Myers 1986, "An O(ND) Difference
    Algorithm and Its Variations"); the path is then traced back through
    the recorded rounds. Returns None once ``_DIFF_BUDGET`` is spent.
    """
    if not a or not b:
        return []
    n, m = len(a), len(b)
    offset = n + m + 1
    v = [0] * (2 * offset + 1)
    rounds: list[array] = []
    spent = 0
    while v[offset + n - m] < n:
        d = len(rounds)
        spent += d + 1
        if spent > _DIFF_BUDGET:
            return None
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v[offset + k - 1] < v[offset + k + 1]):
                x = v[offset + k + 1]
            else:
                x = v[offset + k - 1] + 1
            y = x - k
            start = x
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            spent += x - start
            v[offset + k] = x
        rounds.append(array("q", v[offset - d : offset + d + 1 : 2]))
    pairs: list[tuple[int, int]] = []
    x, y = n, m
    for d in range(len(rounds) - 1, 0, -1):
        prev = rounds[d - 1]
        k = x - y
        down = k == -d or (k != d and prev[(k + d - 2) // 2] < prev[(k + d) // 2])
        prev_k = k + 1 if down else k - 1
        prev_x = prev[(prev_k + d - 1) // 2]
        snake_x = prev_x if down else prev_x + 1
        while x > snake_x:
            x -= 1
            y -= 1
            pairs.append((x, y))
        x, y = prev_x, prev_x - prev_k
    while x > 0:
        x -= 1
        y -= 1
        pairs.append((x, y))
    pairs.reverse()
    return pairs


def _common_token_pairs(a: list[str], b: list[str]) -> list[tuple[int, int]]:
    """Index pairs of a longest common subsequence of the two token lists.

    The common prefix and suffix pair directly; tokens absent from the other
    side cannot pair and are left out of the diff, so unrelated texts cost
    one pass. If the diff of the middle exceeds its budget the middle stays
    unpaired and mentions there fall back to exact search.
    """
    n, m = len(a), len(b)
    head = 0
    while head < n and head < m and a[head] == b[head]:
        head += 1
    tail = 0
    while tail < n - head and tail < m - head and a[n - 1 - tail] == b[m - 1 - tail]:
        tail += 1
    shared = set(a[head : n - tail]).intersection(b[head : m - tail])
    keep_a = [i for i in range(head, n - tail) if a[i] in shared]
    keep_b = [j for j in range(head, m - tail) if b[j] in shared]
    middle = _myers_pairs([a[i] for i in keep_a], [b[j] for j in keep_b])
    return (
        [(k, k) for k in range(head)]
        + [(keep_a[i], keep_b[j]) for i, j in middle or ()]
        + [(n - tail + k, m - tail + k) for k in range(tail)]
    )


def _gap_segments(
    stripped: str, original: str, s_lo: int, s_hi: int, o_lo: int, o_hi: int
) -> list[_Segment]:
    """Segments covering an unmatched region between two token matches."""
    gap_s = stripped[s_lo:s_hi]
    gap_o = original[o_lo:o_hi]
    if not gap_s:
        return []
    if gap_s == gap_o or not gap_o or max(len(gap_s), len(gap_o)) > _REFINE_LIMIT:
        return [(s_lo, s_hi, o_lo, o_hi)]
    # Character-level refinement inside the gap: equal blocks map exactly,
    # the fuzz in between maps proportionally.
    matcher = difflib.SequenceMatcher(None, gap_s, gap_o, autojunk=False)
    segments: list[_Segment] = []
    prev_a = prev_b = 0
    for a, b, size in matcher.get_matching_blocks():
        if a > prev_a:
            segments.append((s_lo + prev_a, s_lo + a, o_lo + prev_b, o_lo + b))
        if size:
            segments.append((s_lo + a, s_lo + a + size, o_lo + b, o_lo + b + size))
        prev_a, prev_b = a + size, b + size
    return segments


def _merge_runs(pieces: list[_Segment]) -> tuple[_Segment, ...]:
    """One segment per shifted run.

    ``pieces`` tile the stripped text. A piece of equal lengths on both
    sides extends the previous segment when that one has equal lengths too
    and ends where the piece starts in the original: every offset then maps
    the same through either. Pieces with a hole between them in the
    original, where difflib skipped what the echo deleted, stay apart.
    """
    segments: list[_Segment] = []
    for s_lo, s_hi, o_lo, o_hi in pieces:
        if segments and s_hi - s_lo == o_hi - o_lo:
            last_s_lo, last_s_hi, last_o_lo, last_o_hi = segments[-1]
            if last_o_hi == o_lo and last_s_hi - last_s_lo == last_o_hi - last_o_lo:
                segments[-1] = (last_s_lo, s_hi, last_o_lo, o_hi)
                continue
        segments.append((s_lo, s_hi, o_lo, o_hi))
    return tuple(segments)


def align_texts(stripped: str, original: str) -> AlignmentMap:
    """Align a tag-stripped completion against the original text.

    Tokens (maximal runs of non-whitespace) are paired by a longest common
    subsequence: common prefix and suffix first, then Myers' O(ND) diff of
    the tokens both sides share, within a fixed work budget past which the
    middle stays unpaired. Unpaired gaps are refined to character offsets
    with difflib up to a fixed length; longer gaps map proportionally.
    Identical inputs give the identity map; an empty stripped text gives an
    empty map.
    """
    if stripped == original:
        return AlignmentMap(((0, len(stripped), 0, len(original)),) if stripped else ())
    tokens_s = [m.span() for m in _TOKEN_RE.finditer(stripped)]
    tokens_o = [m.span() for m in _TOKEN_RE.finditer(original)]
    pairs = _common_token_pairs(
        [stripped[lo:hi] for lo, hi in tokens_s], [original[lo:hi] for lo, hi in tokens_o]
    )
    pieces: list[_Segment] = []
    prev_s = prev_o = 0
    for i, j in pairs:
        s_lo, s_hi = tokens_s[i]
        o_lo, o_hi = tokens_o[j]
        pieces += _gap_segments(stripped, original, prev_s, s_lo, prev_o, o_lo)
        pieces.append((s_lo, s_hi, o_lo, o_hi))
        prev_s, prev_o = s_hi, o_hi
    pieces += _gap_segments(stripped, original, prev_s, len(stripped), prev_o, len(original))
    return AlignmentMap(_merge_runs(pieces))


def _scan_tags(
    completion: str, labels: Sequence[str], delimiters: tuple[str, str] | None
) -> tuple[str, list[tuple[bool, str, int]]]:
    """Strip tags in one left-to-right pass.

    Returns the stripped text and tag events as (is_close, label, offset in
    stripped text). Without ``delimiters`` the tags are ``<label>`` and
    ``</label>`` for the given labels, and anything that merely looks like
    a tag stays in the text untouched. With them, every delimiter marks the
    single label; where both delimiters start at the same place the longer
    is read, and equal delimiters alternate between opening and closing.
    """
    if delimiters is None:
        alternatives = "|".join(
            re.escape(label) for label in sorted(labels, key=len, reverse=True)
        )
        pattern = re.compile(f"<(/?)({alternatives})>")
    else:
        open_, close = delimiters
        (label,) = labels
        pattern = re.compile(
            "|".join(re.escape(d) for d in sorted({open_, close}, key=len, reverse=True))
        )
    events: list[tuple[bool, str, int]] = []
    removed = 0
    for match in pattern.finditer(completion):
        if delimiters is None:
            events.append((bool(match.group(1)), match.group(2), match.start() - removed))
        else:
            is_close = len(events) % 2 == 1 if open_ == close else match.group() == close
            events.append((is_close, label, match.start() - removed))
        removed += match.end() - match.start()
    return pattern.sub("", completion), events


def _pair_tag_events(
    events: list[tuple[bool, str, int]], warnings: list[str]
) -> list[tuple[int, int, str]]:
    """Stack-match open/close events into spans, warning about strays.

    ``open_count`` tracks how many tags of each label are on the stack, so
    a closing tag with no open partner is found stray without a scan, and
    a mis-nested one pops only the tags it drops.
    """
    stack: list[tuple[str, int]] = []
    open_count: dict[str, int] = {}
    spans: list[tuple[int, int, str]] = []
    for is_close, label, offset in events:
        if not is_close:
            stack.append((label, offset))
            open_count[label] = open_count.get(label, 0) + 1
            continue
        if not open_count.get(label):
            warnings.append(f"stray closing tag for {label!r} ignored")
            continue
        dropped: list[str] = []
        while stack[-1][0] != label:
            dropped.append(stack.pop()[0])
            open_count[dropped[-1]] -= 1
        for dropped_label in reversed(dropped):
            warnings.append(f"unmatched opening tag for {dropped_label!r} dropped")
        open_count[label] -= 1
        spans.append((stack.pop()[1], offset, label))
    for dropped_label, _ in stack:
        warnings.append(f"unmatched opening tag for {dropped_label!r} dropped")
    return spans


def _nearest_occurrence(text: str, needle: str, near: int) -> int:
    """Start of the occurrence of ``needle`` closest to ``near``, or -1.

    Ties go to the earlier occurrence.
    """
    after = text.find(needle, near)
    before = text.rfind(needle, 0, near + len(needle) - 1)
    if before == -1 or (after != -1 and after - near < near - before):
        return after
    return before


def _nonoverlapping_spans(text: str, needle: str) -> list[tuple[int, int]]:
    """All non-overlapping occurrences, left to right."""
    spans = []
    start = 0
    while True:
        index = text.find(needle, start)
        if index == -1:
            return spans
        spans.append((index, index + len(needle)))
        start = index + len(needle)


def parse_inline(
    completion: str,
    original: str,
    schema: EntitySchema,
    delimiters: tuple[str, str] | None = None,
) -> tuple[AnnotatedDocument, ParseReport]:
    """Recover annotations from a tag-annotated echo of ``original``.

    Tags are read in one left-to-right scan and paired with a stack: the
    default ``<label>`` tags for every schema label, or, when ``delimiters``
    is given, one custom open/close pair bound to the schema's single label.
    Where both delimiters start at the same place the longer is read, and
    equal delimiters alternate between opening and closing. The stripped
    echo is aligned against the original and each span is kept only where
    it covers its mention verbatim; otherwise it is relocated by exact
    substring search or dropped with a warning. Never raises on model
    output, only on misuse (delimiters with a multi-label schema).
    """
    if delimiters is not None and len(schema) != 1:
        raise ConfigError(
            "custom delimiters require a single-label schema, "
            f"got {list(schema.labels)}"
        )
    warnings: list[str] = []
    stripped, events = _scan_tags(completion, schema.labels, delimiters)
    spans = _pair_tag_events(events, warnings)
    amap = align_texts(stripped, original)
    annotations: set[Annotation] = set()
    for start, end, label in spans:
        mention = stripped[start:end]
        if not mention:
            warnings.append(f"empty {label!r} tag pair dropped")
            continue
        mapped_start, mapped_end = amap.map_span(start, end)
        if original[mapped_start:mapped_end] == mention:
            annotations.add(Annotation(mapped_start, mapped_end, label))
            continue
        best = _nearest_occurrence(original, mention, mapped_start)
        if best != -1:
            annotations.add(Annotation(best, best + len(mention), label))
            warnings.append(f"mention {mention!r} relocated by exact search")
        else:
            warnings.append(
                f"mention {mention!r} not found in the original text; dropped"
            )
    document = AnnotatedDocument(original, frozenset(annotations))
    return document, ParseReport(document.annotations, tuple(warnings))


def _merge_depths(a: list[int], b: list[int]) -> list[int]:
    """Merge two top-aligned depth stacks, keeping the earliest start per depth."""
    if len(a) < len(b):
        a, b = b, a
    for k in range(1, len(b) + 1):
        if b[-k] < a[-k]:
            a[-k] = b[-k]
    return a


def extract_json_block(text: str) -> str | None:
    """The first balanced ``{...}`` block in ``text``, or None.

    Returns the block of the earliest opening brace whose block closes,
    honouring JSON string literals and escapes, in one linear pass. Scans
    from different braces differ only in nesting depth and in being outside
    a string, inside one, or just past a backslash inside one, so each of
    those three phases keeps a stack whose entry ``k`` from the top is the
    earliest start now ``k`` deep. A closing brace outside strings closes
    the top entry; phases that meet merge, which costs one step per entry
    that disappears.
    """
    first = text.find("{")
    if first == -1:
        return None
    outside: list[int] = []
    inside: list[int] = []
    escaped: list[int] = []
    best = best_end = -1
    previous = first
    for match in _JSON_SYNTAX_RE.finditer(text, first):
        index = match.start()
        char = match.group()
        if escaped and index > previous + 1:
            inside = _merge_depths(inside, escaped)
            escaped = []
        previous = index
        # Whatever follows a backslash in a string is consumed by it.
        carried, escaped = escaped, []
        if char == '"':
            outside, inside = inside, outside
        elif char == "\\":
            inside, escaped = [], inside
        elif char == "{":
            outside.append(index)
        elif outside:
            start = outside.pop()
            if best == -1 or start < best:
                best, best_end = start, index
            if not (outside or inside or carried):
                break
        if carried:
            inside = _merge_depths(inside, carried)
    return None if best == -1 else text[best : best_end + 1]


def parse_json_answer(
    completion: str,
    original: str,
    schema: EntitySchema,
) -> tuple[AnnotatedDocument, ParseReport]:
    """Recover annotations from a JSON object of label -> mention list.

    The first balanced ``{...}`` block in the completion is decoded, so
    prose around the object is fine. When it does not decode (a format hint
    such as ``{label: mentions}``, say), the first balanced block after it
    is decoded instead, and no further one. Each mention is located by
    exact, case-sensitive search in the original text, and every
    non-overlapping occurrence is annotated. Mentions that fail verbatim
    are retried with surrounding whitespace trimmed, then dropped with a
    warning. Unknown labels are dropped with a warning. A missing or
    undecodable JSON block raises ParseError, also when it nests too deep
    to decode.
    """
    block = extract_json_block(completion)
    if block is None:
        raise ParseError("no balanced JSON block found in the completion")
    try:
        data = json.loads(block)
    except (json.JSONDecodeError, RecursionError) as exc:
        # find() lands on the block's own start: an equal block starting
        # earlier would have closed first and been returned instead.
        after = extract_json_block(completion[completion.find(block) + len(block) :])
        try:
            data = json.loads(after or "")  # no second block: "" fails too
        except (json.JSONDecodeError, RecursionError):
            raise ParseError(f"completion JSON is invalid: {exc}") from exc
    warnings: list[str] = []
    annotations: set[Annotation] = set()
    for key, value in data.items():
        if key not in schema:
            warnings.append(f"unknown label {key!r} dropped")
            continue
        if isinstance(value, str):
            warnings.append(f"single string for label {key!r} treated as one mention")
            value = [value]
        if not isinstance(value, list):
            warnings.append(f"value for label {key!r} is not a list; dropped")
            continue
        for mention in value:
            if not isinstance(mention, str):
                warnings.append(f"non-string mention {mention!r} for {key!r} dropped")
                continue
            if not mention:
                warnings.append(f"empty mention for {key!r} dropped")
                continue
            spans = _nonoverlapping_spans(original, mention)
            if not spans and mention.strip() and mention.strip() != mention:
                trimmed = mention.strip()
                spans = _nonoverlapping_spans(original, trimmed)
                if spans:
                    warnings.append(
                        f"mention {mention!r} matched after trimming whitespace"
                    )
                    mention = trimmed
            if not spans:
                warnings.append(
                    f"mention {mention!r} not found in the original text; dropped"
                )
                continue
            for start, end in spans:
                annotations.add(Annotation(start, end, key))
    document = AnnotatedDocument(original, frozenset(annotations))
    return document, ParseReport(document.annotations, tuple(warnings))

