"""Turning model completions back into character-offset annotations.

The in-line parser never trusts the model's echo blindly: the completion
with its tags stripped is aligned against the original text, span starts
are mapped as the alignment is built, and a mention is kept where the
original holds it verbatim at its mapped start; one within a verbatim piece
of the alignment is kept without comparing it again. Other mentions are
relocated by exact substring search, and dropped with a warning as a last
resort, so a recovered annotation is always a verbatim occurrence of the
enclosed mention.

Alignment pairs tokens by a longest common subsequence: the common prefix
and suffix are paired directly, tokens missing from the other side are
dropped, and Myers' O(ND) difference algorithm pairs the rest within a
fixed work budget. A run of pairs with equal whitespace between them is
one verbatim piece. Only a bounded gap between runs that holds a span
start is refined character by character, its blocks mapped as they are
read, so no list of pieces is built; no other gap is read. So alignment,
like JSON block extraction, takes near-linear time and recurses nowhere.
Tokens come from ``str.split()``, which is all the work for a text with
single spaces between its tokens; other texts, and tags, take one
``re.split`` each. No Python loop builds a string, an offset or an
alignment piece per token, and no offset is stored per token. Every tag
is read through one table and paired on a stack as it is read, in the
pass that strips them; other tag-shaped text stays, with a warning unless
the original holds it.

A JSON answer's mentions are found by exact search, and each annotation is
the listed mention without its surrounding whitespace.
"""

from __future__ import annotations

import difflib
import json
import re
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, compress, count, islice, pairwise
from math import isqrt
from operator import ne, not_, sub
from typing import Callable, Sequence

from .domain import AnnotatedDocument, Annotation, EntitySchema, check_delimiters, inline_tags
from .errors import ConfigError, ParseError

_SPACE_RE = re.compile(r"(\s+)")
# A backslash escapes exactly the next character (RFC 8259, section 7), so it
# is read with that character as one token.
_JSON_TOKEN_RE = re.compile(r'\\.|[{}"]', re.DOTALL)

# Work (edit-graph cells plus diagonal moves, checked once per round) the
# token diff may spend, about half a second in CPython; past it the unpaired
# middle falls back to exact search.
_DIFF_BUDGET = 1_000_000

# Longest gap, in characters on either side, refined by difflib, whose cost
# grows with the product of the two lengths; longer gaps map proportionally.
_REFINE_LIMIT = 256

# A tag-shaped run and its name; a slash takes the blanks after it, so no run splits two ways.
_TAG_SHAPE_RE = re.compile(r"<\s*(?:/\s*)?([^\s<>/]+)\s*>")
_UNREAD_TAGS_SHOWN = 16  # distinct names checked per reply, so the check stays linear


@dataclass(frozen=True)
class ParseReport:
    """What a parse recovered and everything it had to gloss over."""

    annotations: frozenset[Annotation]
    warnings: tuple[str, ...]


def _myers_snakes(a: list[str], b: list[str]) -> list[tuple[int, int, int]] | None:
    """A longest common subsequence by Myers' greedy search, as snakes.

    Round ``d`` records the furthest point reached on every diagonal with
    ``d`` insertions and deletions (Myers 1986, "An O(ND) Difference
    Algorithm and Its Variations"); the path is then traced back through
    the recorded rounds. A snake ``(x, y, size)`` pairs ``a[x + t]`` with
    ``b[y + t]`` for ``t < size``; snakes come left to right. Returns None
    once ``_DIFF_BUDGET`` is spent.
    """
    if not a or not b:
        return []
    n, m = len(a), len(b)
    # Rounds 0 to d spend more than d * d / 2, so the budget bounds the
    # diagonals reached; the last one, n - m, must fit as well.
    offset = min(n + m, max(isqrt(2 * _DIFF_BUDGET), abs(n - m))) + 1
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
    snakes: list[tuple[int, int, int]] = []
    x, y = n, m
    for d in range(len(rounds) - 1, 0, -1):
        prev = rounds[d - 1]
        k = x - y
        down = k == -d or (k != d and prev[(k + d - 2) // 2] < prev[(k + d) // 2])
        prev_k = k + 1 if down else k - 1
        prev_x = prev[(prev_k + d - 1) // 2]
        snake_x = prev_x if down else prev_x + 1
        snakes.append((snake_x, snake_x - k, x - snake_x))
        x, y = prev_x, prev_x - prev_k
    snakes.append((0, y - x, x))
    snakes.reverse()
    return snakes


def _common_token_pairs(a: list[str], b: list[str]) -> list[tuple[int, int, int]]:
    """A longest common subsequence of the two token lists, as runs.

    A run ``(i, j, size)`` pairs ``a[i + t]`` with ``b[j + t]`` for ``t <
    size``. The common prefix and suffix pair directly; tokens absent from
    the other side cannot pair and are left out of the diff, so unrelated
    texts cost one pass. If the diff of the middle exceeds its budget the
    middle stays unpaired and mentions there fall back to exact search.
    """
    n, m = len(a), len(b)
    head = next(compress(count(), map(ne, a, b)), min(n, m))
    ends = map(ne, islice(reversed(a), n - head), islice(reversed(b), m - head))
    tail = next(compress(count(), ends), min(n, m) - head)
    mid_a, mid_b = a[head : n - tail], b[head : m - tail]
    shared = set(mid_a).intersection(mid_b)
    in_a, in_b = list(map(shared.__contains__, mid_a)), list(map(shared.__contains__, mid_b))
    # Per token left out, the count of kept tokens before it.
    out_a = array("q", map(sub, compress(count(), map(not_, in_a)), count()))
    out_b = array("q", map(sub, compress(count(), map(not_, in_b)), count()))
    snakes = _myers_snakes(list(compress(mid_a, in_a)), list(compress(mid_b, in_b))) or ()
    runs = [(0, 0, head)] if head else []
    for x, y, size in snakes:
        # A snake breaks where a token was left out between two of its pairs;
        # the kept token at position k follows bisect_right(out, k) left out.
        cuts = {k - x for k in out_a[bisect_right(out_a, x) : bisect_left(out_a, x + size)]}
        cuts.update(k - y for k in out_b[bisect_right(out_b, y) : bisect_left(out_b, y + size)])
        for first, stop in pairwise([0, *sorted(cuts), size] if size else ()):
            i = head + x + first + bisect_right(out_a, x + first)
            j = head + y + first + bisect_right(out_b, y + first)
            runs.append((i, j, stop - first))
    return [*runs, (n - tail, m - tail, tail)] if tail else runs


def _matching_blocks(a: str, b: str) -> list[tuple[int, int, int]]:
    """difflib's matching blocks of a non-empty ``a`` and any ``b``, sentinel
    included; where one side contains the other (an equal or empty ``b``
    too), the longest and earliest block is all of the shorter side at its
    first occurrence, and ``str.find`` gives it."""
    if (at := b.find(a)) != -1:
        return [(0, at, len(a)), (len(a), len(b), 0)]
    if (at := a.find(b)) != -1:
        return [(at, 0, len(b)), (len(a), len(b), 0)]
    return difflib.SequenceMatcher(None, a, b, autojunk=False).get_matching_blocks()


def _split_tokens(text: str) -> tuple[list[str], list[str], int]:
    """Tokens, the whitespace after each, and the offset of the first token.

    ``str.split()`` splits where ``\\s`` matches, at ``str.isspace``. Only a
    text other than its tokens joined by single spaces takes a ``re.split``
    as well, for its whitespace.
    """
    words = text.split()
    if " ".join(words) == text:
        return words, [" "] * (len(words) - 1), 0
    parts = _SPACE_RE.split(text)  # token, whitespace, ..., token
    # The first part is empty exactly when the text starts with whitespace.
    return words, parts[1::2][0 if parts[0] else 1 :], 0 if parts[0] else len(parts[1])


def _token_starts(words: list[str], spaces: list[str], first: int) -> Callable[[int], int]:
    """The offset of token ``k``, for ``k`` never below the last one asked:
    each call adds the lengths passed since, summed in C by ``str.join``."""
    at, offset = 0, first

    def token_start(k: int) -> int:
        nonlocal at, offset
        offset += len("".join(words[at:k])) + len("".join(spaces[at:k]))
        at = k
        return offset

    return token_start


def align_texts(
    stripped: str, original: str, starts: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Align a tag-stripped completion against the original text, mapping
    ``starts``, offsets in the stripped text, as the alignment is built.

    Tokens (maximal runs of non-whitespace) are paired by a longest common
    subsequence: common prefix and suffix first, then Myers' O(ND) diff of
    the tokens both sides share, within a fixed work budget past which the
    middle stays unpaired. Consecutive pairs with equal whitespace between
    them form a run, one verbatim piece. A gap between runs that holds a
    start is refined with difflib up to a fixed length; no other gap is
    read. Starts are sorted once, and a forward walk maps each through its
    piece: offset by offset on equal lengths, else proportionally. A
    refined gap's blocks, and the fuzz between them, are mapped as they are
    read, so no piece list is built. A start at the end maps to the
    original end of the last piece, whatever other starts are passed.

    Returns ``(mapped, reach)`` in the order of ``starts``: each start's
    original offset, and the end of the verbatim piece holding it (a run, an
    equal block of a refined gap, or the whole text when the two texts are
    equal), or the start itself when none holds it.
    """
    order = sorted(range(len(starts)), key=starts.__getitem__)
    mapped, reach = [0] * len(starts), list(starts)
    # The starts in ascending order, then an end mark past the last offset.
    ahead = [*map(starts.__getitem__, order), len(stripped) + 1]
    k = 0  # ahead[k] is the next start to map

    def take(s_lo: int, s_hi: int, o_lo: int, o_hi: int, verbatim: bool) -> None:
        """Map the starts before ``s_hi`` through the piece from ``s_lo``."""
        nonlocal k
        while (offset := ahead[k]) < s_hi:
            at = order[k]
            if s_hi - s_lo == o_hi - o_lo:
                mapped[at] = o_lo + offset - s_lo
                if verbatim:
                    reach[at] = s_hi
            else:
                mapped[at] = o_lo + round((offset - s_lo) * (o_hi - o_lo) / (s_hi - s_lo))
            k += 1

    def gap(s_lo: int, s_hi: int, o_lo: int, o_hi: int) -> int:
        """Map the starts in a gap, refined up to a fixed length; returns the
        original end of the last piece up to ``s_hi``."""
        if ahead[k] > s_hi or s_lo == s_hi:
            return o_hi if s_lo < s_hi else o_lo
        if max(s_hi - s_lo, o_hi - o_lo) > _REFINE_LIMIT:
            take(s_lo, s_hi, o_lo, o_hi, False)
            return o_hi
        prev_a = prev_b = end = 0
        for a, b, size in _matching_blocks(stripped[s_lo:s_hi], original[o_lo:o_hi]):
            if a > prev_a:
                take(s_lo + prev_a, s_lo + a, o_lo + prev_b, o_lo + b, False)
                end = b
            if size:
                take(s_lo + a, s_lo + a + size, o_lo + b, o_lo + b + size, True)
                end = b + size
            prev_a, prev_b = a + size, b + size
        return o_lo + end

    if stripped == original:
        take(0, len(stripped), 0, len(original), True)
        o_end = len(original)
    else:
        words_s, spaces_s, first_s = _split_tokens(stripped)
        words_o, spaces_o, first_o = _split_tokens(original)
        start_s = _token_starts(words_s, spaces_s, first_s)
        start_o = _token_starts(words_o, spaces_o, first_o)
        prev_s = prev_o = 0
        for i, j, size in _common_token_pairs(words_s, words_o):
            # A run of pairs also breaks after a token followed by unequal whitespace.
            differ = map(ne, spaces_s[i : i + size - 1], spaces_o[j : j + size - 1])
            for first, stop in pairwise(chain((0,), compress(range(1, size), differ), (size,))):
                lo_s, lo_o = start_s(i + first), start_o(j + first)
                if ahead[k] < lo_s:
                    gap(prev_s, lo_s, prev_o, lo_o)
                prev_s = start_s(i + stop - 1) + len(words_s[i + stop - 1])
                prev_o = start_o(j + stop - 1) + len(words_o[j + stop - 1])
                if ahead[k] < prev_s:
                    take(lo_s, prev_s, lo_o, prev_o, True)
        o_end = gap(prev_s, len(stripped), prev_o, len(original))
    for at in order[k:]:
        mapped[at] = o_end
    return mapped, reach


@lru_cache(maxsize=64)
def _tag_table(
    labels: tuple[str, ...], delimiters: tuple[str, str] | None
) -> tuple[dict[str, tuple[str, bool | None]], re.Pattern]:
    """Every tag mapped to its label and whether it closes, and one pattern
    capturing any tag, longest first. Delimiters mark the first label; equal
    ones map to ``None``: they close where their label is open, else open."""
    table: dict[str, tuple[str, bool | None]] = {}
    for label in labels[:1] if delimiters else labels:
        open_, close = inline_tags(label, delimiters)
        table[open_] = (label, False)
        table[close] = (label, None if close == open_ else True)
    alternation = "|".join(map(re.escape, sorted(table, key=len, reverse=True)))
    return table, re.compile(f"({alternation})")


def _scan_tags(
    completion: str, labels: Sequence[str], delimiters: tuple[str, str] | None, warnings: list[str]
) -> tuple[str, list[tuple[int, int, str]]]:
    """Strip tags and pair them in one left-to-right pass.

    Returns the stripped text and the spans (start, end, label) in stripped
    offsets, in the order they close, and warns about stray and unmatched
    tags. Every tag is read through one table (``_tag_table``); text that
    merely looks like a tag stays in the text. One ``split`` gives the text
    between tags and the tags, so the stripped text and the offsets are
    built in C. ``open_count`` tracks the tags of each label on the stack,
    so a stray closing tag is found without a scan, and a mis-nested one
    pops only the tags it drops.
    """
    table, pattern = _tag_table(tuple(labels), delimiters)
    parts = pattern.split(completion)
    texts = parts[::2]
    offsets = accumulate(map(len, texts[:-1]))
    stack: list[tuple[str, int]] = []
    open_count: dict[str, int] = {}
    spans: list[tuple[int, int, str]] = []
    for tag, offset in zip(parts[1::2], offsets):
        label, closes = table[tag]
        if not (closes or closes is None and open_count.get(label)):
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
    return "".join(texts), spans


def _nearest_occurrence(text: str, needle: str, near: int) -> int:
    """Start of the occurrence of ``needle`` closest to ``near``, or -1.

    Ties go to the earlier occurrence.
    """
    after = text.find(needle, near)
    before = text.rfind(needle, 0, near + len(needle) - 1)
    if before == -1 or (after != -1 and after - near < near - before):
        return after
    return before


def _nonoverlapping_starts(text: str, needle: str) -> list[int]:
    """Starts of all non-overlapping occurrences, left to right."""
    starts = []
    start = text.find(needle)
    while start != -1:
        starts.append(start)
        start = text.find(needle, start + len(needle))
    return starts


def parse_inline(
    completion: str,
    original: str,
    schema: EntitySchema,
    delimiters: tuple[str, str] | None = None,
) -> tuple[AnnotatedDocument, ParseReport]:
    """Recover annotations from a tag-annotated echo of ``original``.

    Tags are read in one left-to-right scan and paired with a stack: each
    schema label's tags, or, when ``delimiters`` is given, one custom
    open/close pair bound to the schema's single label. Where both
    delimiters start at the same place the longer is read, and equal
    delimiters alternate between opening and closing. Other tag-shaped text
    stays, and warns for its first 16 names unless the original holds the
    tag. The stripped echo is aligned against the original and a span kept
    where the original holds its mention verbatim at its mapped start, else
    relocated by exact substring search or dropped with a warning. Never
    raises on model output, only on misuse (delimiters that are not two
    non-empty strings, or delimiters with a multi-label schema).
    """
    if delimiters is not None:
        delimiters = check_delimiters(delimiters)
        if len(schema) != 1:
            raise ConfigError(
                f"custom delimiters require a single-label schema, got {list(schema.labels)}"
            )
    warnings: list[str] = []
    stripped, spans = _scan_tags(completion, schema.labels, delimiters, warnings)
    if delimiters is None and "<" in stripped:
        first_tags: dict[str, str] = {}  # name -> its first tag text
        for match in _TAG_SHAPE_RE.finditer(stripped):
            first_tags.setdefault(match[1], match[0])
            if len(first_tags) == _UNREAD_TAGS_SHOWN:
                break
        for tag in first_tags.values():
            if tag not in original:
                warnings.append(f"tag {tag!r} is not read as a schema tag; left in the text")
    mapped, reach = align_texts(stripped, original, [start for start, _, _ in spans])
    annotations: set[Annotation] = set()
    for (start, end, label), at, verbatim_end in zip(spans, mapped, reach):
        if start == end:
            warnings.append(f"empty {label!r} tag pair dropped")
            continue
        # A span within one verbatim piece is held at ``at`` without a check.
        if end <= verbatim_end or original.startswith(mention := stripped[start:end], at):
            annotations.add(Annotation(at, at + end - start, label))
            continue
        best = _nearest_occurrence(original, mention, at)
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
    honouring JSON string literals and escapes, in one linear pass. A
    backslash is read with the character after it as one token: inside a
    string the pair is one escaped character, outside it the backslash is
    plain text and the character counts on its own. Scans from different
    braces then differ only in nesting depth and in being outside a string
    or inside one, so each of those two phases keeps a stack whose entry
    ``k`` from the top is the earliest start now ``k`` deep. A closing brace
    outside strings closes the top entry; an escaped quote brings the scans
    outside into a string and merges them with those already there, which
    costs one step per entry that disappears.
    """
    first = text.find("{")
    if first == -1:
        return None
    outside: list[int] = []
    inside: list[int] = []
    best = best_end = -1
    for match in _JSON_TOKEN_RE.finditer(text, first):
        token = match.group()
        char = token[-1]
        if char == '"':
            if len(token) == 1:
                outside, inside = inside, outside
            elif outside:
                inside, outside = _merge_depths(inside, outside), []
        elif char == "{":
            outside.append(match.end() - 1)
        elif char == "}" and outside:
            start = outside.pop()
            if best == -1 or start < best:
                best, best_end = start, match.end() - 1
            if not (outside or inside):
                break
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
    non-overlapping occurrence is annotated without the mention's
    surrounding whitespace. A mention listed again under the same label is
    skipped, so it is searched and warned about once. Mentions that fail
    verbatim are retried with surrounding whitespace trimmed, then dropped
    with a warning; an empty or blank mention is dropped with a warning at
    once. Unknown labels are dropped with a warning. A missing or
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
        seen: set[str] = set()
        for mention in value:
            if not isinstance(mention, str):
                warnings.append(f"non-string mention {mention!r} for {key!r} dropped")
                continue
            if mention in seen:  # its spans are in already, or it failed already
                continue
            seen.add(mention)
            trimmed = mention.strip()
            if not trimmed:
                warnings.append(f"empty mention for {key!r} dropped")
                continue
            starts = _nonoverlapping_starts(original, mention)
            if not starts and trimmed != mention:
                starts = _nonoverlapping_starts(original, trimmed)
                if starts:
                    warnings.append(
                        f"mention {mention!r} matched after trimming whitespace"
                    )
                    mention = trimmed
            if not starts:
                warnings.append(
                    f"mention {mention!r} not found in the original text; dropped"
                )
                continue
            lead = len(mention) - len(mention.lstrip())
            end = lead + len(trimmed)
            for start in starts:
                annotations.add(Annotation(start + lead, start + end, key))
    document = AnnotatedDocument(original, frozenset(annotations))
    return document, ParseReport(document.annotations, tuple(warnings))

