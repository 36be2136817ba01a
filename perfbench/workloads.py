"""Seeded input generation for the four benchmark workloads.

Everything the program later sees is built here from ``--seed`` and the
CoNLL sample in ``tests/data``: the documents, the gold standard, and the
script the stub endpoint answers from. The generator does not import
chatner, so the program under test never shapes its own inputs.

Reply drift model (in-line shape, ``short_inline`` and ``long_noisy_inline``).
Each gold span independently gets one action, drawn with the workload's
rates: ``miss`` (left untagged), ``boundary`` (closing tag moved past the
next untagged token), ``misnest`` (closing tag moved past the next span's
first token, which the parser must untangle) or ``keep``. Untagged tokens
are then, independently, wrapped in a spurious tag pair, preceded by a
stray lone tag, or edited (typo, case change, deletion, inserted filler).
Edits never touch a tagged mention. A gold span whose action is ``keep``
is "untouched": its mention is echoed verbatim between correct tags.

JSON drift (``multiturn_json_fewshot``), per document and label: a gold
mention is dropped, padded with spaces (recovered by trimming), or kept;
spurious mentions (an untagged word, or an entity of another label) are
added. Faults are scripted per (document, label) key with exact shares.

Every planned request count assumes today's parsing: a decoy brace block
before the JSON answer costs one re-request. ``min_requests`` records the
count for a parser that reads past the decoy.

Every rate and share below is an unverified assumption: neither the paper
nor any public source measured in the benchmark's set-up gives parse-failure,
drift or rate-limit figures for chat models answering in these shapes.
``perfbench/README.md`` lists which gated metrics scale with each.

    python3 perfbench/workloads.py WORKLOAD SEED DIRECTORY

run from the repository root, writes one workload's inputs into DIRECTORY.
The benchmark generates in such a child process, so the generator's memory
never counts in the measured process's peak.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

SAMPLE = Path("tests") / "data" / "sample50_iob2.conll"
SCHEMA = Path("tests") / "data" / "conll_schema.json"

NO_JSON_REPLY = "I could not find any mentions of that entity in this text."
DECOY_PREFIX = "Format {label: mentions}: "
FILLERS = ("indeed", "also", "then", "really")


@dataclass(frozen=True)
class Workload:
    """Fixed parameters of one workload; only the seed varies between runs."""

    name: str
    latency_ms: float  # injected stub delay per request; 0 for no stub
    threads: int
    docs: int  # documents in one pass
    batch: int  # documents per timed predict call
    drift: dict


# Rates for the in-line drift model described in the module docstring;
# like every rate and share in WORKLOADS, assumed, not measured.
LIGHT = {"miss": 0.04, "boundary": 0.03, "misnest": 0.02,
         "spurious": 0.03, "stray": 0.02, "edit": 0.03}
HEAVY = {"miss": 0.08, "boundary": 0.06, "misnest": 0.04,
         "spurious": 0.05, "stray": 0.04, "edit": 0.08}

# Token sizes of the long_noisy_inline documents (about 10 to 155
# sentences). parsing.py switches from its LCS table to difflib when the
# product of the two token counts exceeds 1,000,000; every size keeps a
# wide margin from that switch, so a seed cannot move a document across it.
LONG_TOKENS = tuple(95 + 62 * k for k in range(12)) + (1150, 1300, 1450)

WORKLOADS = {
    "short_inline": Workload("short_inline", 10.0, 2, 240, 40, LIGHT),
    "long_noisy_inline": Workload(
        "long_noisy_inline", 0.0, 1, 2 * len(LONG_TOKENS), 1, HEAVY),
    "multiturn_json_fewshot": Workload(
        "multiturn_json_fewshot", 5.0, 2, 96, 12,
        {"miss": 0.06, "pad": 0.05, "spurious": 0.05,
         # shares of (document, label) keys, and of documents for no_json
         "transient": 0.10, "decoy": 0.08, "no_json": 0.04},
    ),
    # Sentences like the CoNLL-2003 test split; a share of them long.
    "score_conll": Workload(
        "score_conll", 0.0, 1, 3450, 3450,
        {"long_share": 0.03, "miss": 0.08, "spurious": 0.05, "boundary": 0.06,
         "swap": 0.04, "overlap": 0.06},
    ),
}

FEWSHOT_EXAMPLES = 3
LONG_SENTENCE_PARTS = (4, 10)
MULTITURN_SENTENCES = (1, 3)


# -- sentences -----------------------------------------------------------------


@dataclass
class Sentence:
    tokens: list[str]
    spans: list[tuple[int, int, str]]  # token ranges [start, end) with label


def read_sentences(path: Path = SAMPLE) -> list[Sentence]:
    """IOB2 CoNLL sentences as tokens and token-range spans."""
    sentences: list[Sentence] = []
    tokens: list[str] = []
    tags: list[str] = []

    def flush() -> None:
        if tokens:
            sentences.append(Sentence(list(tokens), _spans_from_tags(tags)))
            tokens.clear()
            tags.clear()

    for line in path.read_text(encoding="utf-8").splitlines():
        columns = line.split()
        if not columns:
            flush()
        elif columns[0] != "-DOCSTART-":
            tokens.append(columns[0])
            tags.append(columns[-1])
    flush()
    return sentences


def _spans_from_tags(tags: list[str]) -> list[tuple[int, int, str]]:
    spans: list[tuple[int, int, str]] = []
    for index, tag in enumerate(tags):
        if tag.startswith("B-") or (
            tag.startswith("I-") and (not spans or spans[-1][1] != index
                                      or spans[-1][2] != tag[2:])
        ):
            spans.append((index, index + 1, tag[2:]))
        elif tag.startswith("I-"):
            start, _, label = spans[-1]
            spans[-1] = (start, index + 1, label)
    return spans


def entity_inventory(sentences: list[Sentence]) -> dict[str, list[tuple[str, ...]]]:
    """Label -> distinct mention token tuples, in sorted order."""
    found: dict[str, set[tuple[str, ...]]] = {}
    for sentence in sentences:
        for start, end, label in sentence.spans:
            found.setdefault(label, set()).add(tuple(sentence.tokens[start:end]))
    return {label: sorted(found[label]) for label in sorted(found)}


def resample(rng: random.Random, sentences: list[Sentence], inventory) -> Sentence:
    """A sample sentence with each mention swapped for one of its label."""
    base = rng.choice(sentences)
    tokens: list[str] = []
    spans: list[tuple[int, int, str]] = []
    cursor = 0
    for start, end, label in base.spans:
        tokens.extend(base.tokens[cursor:start])
        mention = rng.choice(inventory[label])
        spans.append((len(tokens), len(tokens) + len(mention), label))
        tokens.extend(mention)
        cursor = end
    tokens.extend(base.tokens[cursor:])
    return Sentence(tokens, spans)


def concatenate(parts: list[Sentence]) -> Sentence:
    tokens: list[str] = []
    spans: list[tuple[int, int, str]] = []
    for part in parts:
        offset = len(tokens)
        tokens.extend(part.tokens)
        spans.extend((s + offset, e + offset, label) for s, e, label in part.spans)
    return Sentence(tokens, spans)


def token_offsets(tokens: list[str]) -> list[int]:
    """Character start of each token in the single-space-joined text."""
    offsets = []
    cursor = 0
    for token in tokens:
        offsets.append(cursor)
        cursor += len(token) + 1
    return offsets


def char_span(sentence: Sentence, start: int, end: int) -> tuple[int, int]:
    offsets = token_offsets(sentence.tokens)
    return offsets[start], offsets[end - 1] + len(sentence.tokens[end - 1])


def to_conll(sentences: list[Sentence]) -> str:
    lines = ["-DOCSTART- -X- -X- O", ""]
    for sentence in sentences:
        tags = ["O"] * len(sentence.tokens)
        for start, end, label in sentence.spans:
            tags[start] = f"B-{label}"
            for index in range(start + 1, end):
                tags[index] = f"I-{label}"
        lines.extend(f"{tok} NN O {tag}" for tok, tag in zip(sentence.tokens, tags))
        lines.append("")
    return "\n".join(lines)


# -- in-line replies -------------------------------------------------------------


def _edit(rng: random.Random, token: str) -> list[str]:
    """A drifted echo of one untagged token (possibly none or two tokens)."""
    kind = rng.randrange(4)
    if kind == 0 and len(token) > 3:
        i = rng.randrange(1, len(token) - 2)
        return [token[:i] + token[i + 1] + token[i] + token[i + 2:]]
    if kind == 1 and token[:1].isalpha():
        return [token.swapcase()]
    if kind == 2:
        return []
    return [token, rng.choice(FILLERS)]


def inline_reply(
    rng: random.Random, sentence: Sentence, labels: list[str], rates: dict
) -> tuple[str, list[tuple[int, int, str]]]:
    """A tagged echo with drift, and the gold token spans left untouched."""
    n = len(sentence.tokens)
    opens: list[list[str]] = [[] for _ in range(n)]  # tags before token i
    closes: list[list[str]] = [[] for _ in range(n)]  # tags after token i
    tagged = [False] * n  # token lies inside some echoed tag pair
    gold_at = [False] * n
    for start, end, _ in sentence.spans:
        for i in range(start, end):
            gold_at[i] = True
    untouched: list[tuple[int, int, str]] = []
    spans = sentence.spans
    skip_next = False
    for position, (start, end, label) in enumerate(spans):
        if skip_next:  # already consumed as the inner span of a mis-nesting
            skip_next = False
            continue
        roll = rng.random()
        following = spans[position + 1] if position + 1 < len(spans) else None
        if roll < rates["miss"]:
            continue
        roll -= rates["miss"]
        if roll < rates["boundary"] and end < n and not gold_at[end]:
            opens[start].append(label)
            closes[end].append(label)
            for i in range(start, end + 1):
                tagged[i] = True
            continue
        roll -= rates["boundary"]
        if (roll < rates["misnest"] and following is not None
                and following[2] != label and following[0] - end <= 3):
            f_start, f_end, f_label = following
            opens[start].append(label)
            opens[f_start].append(f_label)
            closes[f_start].append(label)
            closes[f_end - 1].append(f_label)
            for i in range(start, f_end):
                tagged[i] = True
            skip_next = True
            continue
        opens[start].append(label)
        closes[end - 1].append(label)
        for i in range(start, end):
            tagged[i] = True
        untouched.append((start, end, label))
    pieces: list[str] = []
    for i, token in enumerate(sentence.tokens):
        if tagged[i] or gold_at[i]:
            pieces.append(
                "".join(f"<{t}>" for t in opens[i]) + token
                + "".join(f"</{t}>" for t in closes[i])
            )
            continue
        roll = rng.random()
        if roll < rates["spurious"]:
            label = rng.choice(labels)
            pieces.append(f"<{label}>{token}</{label}>")
            continue
        roll -= rates["spurious"]
        if roll < rates["stray"]:
            label = rng.choice(labels)
            tag = f"<{label}>" if rng.random() < 0.5 else f"</{label}>"
            pieces.append(tag + token)
            continue
        roll -= rates["stray"]
        if roll < rates["edit"]:
            pieces.extend(_edit(rng, token))
            continue
        pieces.append(token)
    return " ".join(pieces), untouched


def reply_tags(reply: str, labels: list[str]) -> dict:
    """The reply with schema tags removed, and where each tag stood in it.

    A mention the reply encloses for label L is any stretch of the
    stripped reply running from an opening L tag to a later closing L tag.
    """
    pattern = re.compile("<(/?)(" + "|".join(re.escape(l) for l in labels) + ")>")
    parts: list[str] = []
    opens: dict[str, list[int]] = {label: [] for label in labels}
    closes: dict[str, list[int]] = {label: [] for label in labels}
    cursor = length = 0
    for match in pattern.finditer(reply):
        chunk = reply[cursor:match.start()]
        parts.append(chunk)
        length += len(chunk)
        cursor = match.end()
        (closes if match.group(1) else opens)[match.group(2)].append(length)
    parts.append(reply[cursor:])
    return {"stripped": "".join(parts), "opens": opens, "closes": closes}


# -- JSON replies ----------------------------------------------------------------


def json_mentions(
    rng: random.Random, sentence: Sentence, label: str, labels: list[str],
    inventory, rates: dict,
) -> tuple[list[str], list[tuple[int, int, str]]]:
    """Listed mentions for one label, and the gold spans listed verbatim."""
    mentions: list[str] = []
    untouched: list[tuple[int, int, str]] = []
    gold_at = set()
    for start, end, span_label in sentence.spans:
        gold_at.update(range(start, end))
        if span_label != label:
            continue
        mention = " ".join(sentence.tokens[start:end])
        roll = rng.random()
        if roll < rates["miss"]:
            continue
        if roll < rates["miss"] + rates["pad"]:
            mentions.append(f" {mention} ")
            continue
        mentions.append(mention)
        untouched.append((start, end, label))
    if rng.random() < rates["spurious"]:
        others = [l for l in labels if l != label]
        words = [t for i, t in enumerate(sentence.tokens)
                 if i not in gold_at and t[:1].isalpha()]
        if words and rng.random() < 0.5:
            mentions.append(rng.choice(words))
        else:
            mentions.append(" ".join(rng.choice(inventory[rng.choice(others)])))
    return mentions, untouched


# -- building the workloads -------------------------------------------------------


def _doc_record(sentence: Sentence) -> dict:
    return {"text": " ".join(sentence.tokens)}


def _char_spans(sentence: Sentence, token_spans) -> list[list]:
    return [[*char_span(sentence, s, e), label] for s, e, label in token_spans]


def _shuffled_exact(rng: random.Random, count: int, share: float) -> set[int]:
    """Exactly round(share * count) distinct indices, chosen by ``rng``."""
    return set(rng.sample(range(count), round(share * count)))


def build_inline(workload: Workload, seed: int, sentences, inventory, labels) -> dict:
    rng = random.Random(seed)
    if workload.name == "short_inline":
        docs = [resample(rng, sentences, inventory) for _ in range(workload.docs)]
    else:
        sizes = list(LONG_TOKENS) * (workload.docs // len(LONG_TOKENS))
        rng.shuffle(sizes)
        docs = []
        for size in sizes:
            parts: list[Sentence] = []
            while sum(len(part.tokens) for part in parts) < size:
                parts.append(resample(rng, sentences, inventory))
            docs.append(concatenate(parts))
    records = []
    script: dict[str, list] = {}
    counts: dict[str, int] = {}
    first: dict[str, tuple] = {}
    for doc in docs:
        reply, untouched = inline_reply(rng, doc, labels, workload.drift)
        text = " ".join(doc.tokens)
        # Identical texts get the identical reply, so answers stay content-keyed.
        if text not in first:
            first[text] = (reply, _char_spans(doc, untouched))
            script[text] = [[200, reply]]
        reply, untouched_chars = first[text]
        counts[text] = counts.get(text, 0) + 1
        record = _doc_record(doc)
        record["tags"] = reply_tags(reply, labels)
        record["untouched"] = untouched_chars
        record["planned_requests"] = 1
        records.append(record)
    keys = {text: {"requests": n, "min_requests": n} for text, n in counts.items()}
    return {"docs": records, "gold_conll": to_conll(docs), "script": script, "keys": keys}


def build_multiturn(workload: Workload, seed: int, sentences, inventory, labels) -> dict:
    rng = random.Random(seed)
    examples = []
    for _ in range(FEWSHOT_EXAMPLES):
        example = resample(rng, sentences, inventory)
        examples.append({
            "text": " ".join(example.tokens),
            "annotations": [
                {"start": s, "end": e, "label": label}
                for s, e, label in _char_spans(example, example.spans)
            ],
        })
    seen = {record["text"] for record in examples}
    docs: list[Sentence] = []
    low, high = MULTITURN_SENTENCES
    sizes = [low + i % (high - low + 1) for i in range(workload.docs)]
    rng.shuffle(sizes)
    while len(docs) < workload.docs:
        parts = sizes[len(docs)]
        doc = concatenate([resample(rng, sentences, inventory) for _ in range(parts)])
        text = " ".join(doc.tokens)
        if text not in seen:
            seen.add(text)
            docs.append(doc)
    rates = workload.drift
    n_keys = len(docs) * len(labels)
    transient = _shuffled_exact(rng, n_keys, rates["transient"])
    decoy = _shuffled_exact(rng, n_keys, rates["decoy"])
    no_json_docs = _shuffled_exact(rng, len(docs), rates["no_json"])
    script: dict[str, list] = {}
    keys: dict[str, dict] = {}
    records = []
    for d, doc in enumerate(docs):
        text = " ".join(doc.tokens)
        fail_label = rng.randrange(len(labels)) if d in no_json_docs else None
        enclosed: list[tuple[str, str]] = []
        untouched: list[tuple[int, int, str]] = []
        planned = minimum = 0
        for position, label in enumerate(labels):
            key = stub_key(text, label)
            index = d * len(labels) + position
            entries: list[list] = []
            if index in transient:
                entries.append([rng.choice((429, 503)), ""])
            mentions, kept = json_mentions(rng, doc, label, labels, inventory, rates)
            answer = json.dumps({label: mentions}, ensure_ascii=False)
            reached = fail_label is None or position <= fail_label
            if position == fail_label:
                # Both the answer and its one re-request lack JSON: the
                # document fails and its later labels are never asked.
                entries.append([200, NO_JSON_REPLY])
                requests = extra = len(entries) + 1
            elif index in decoy:
                entries.append([200, DECOY_PREFIX + answer])
                entries.append([200, answer])
                requests, extra = len(entries), len(entries) - 1
            else:
                entries.append([200, answer])
                requests = extra = len(entries)
            script[key] = entries
            if not reached:
                requests = extra = 0
            keys[key] = {"requests": requests, "min_requests": extra}
            planned += requests
            minimum += extra
            if reached and position != fail_label:
                enclosed.extend((label, m) for m in mentions)
                enclosed.extend((label, m.strip()) for m in mentions)
                untouched.extend(kept)
        record = _doc_record(doc)
        record["enclosed"] = sorted(set(enclosed))
        record["untouched"] = _char_spans(doc, untouched) if fail_label is None else []
        record["planned_requests"] = planned
        record["min_requests"] = minimum
        record["fails"] = fail_label is not None
        records.append(record)
    return {"docs": records, "examples": examples, "gold_conll": to_conll(docs),
            "script": script, "keys": keys}


def build_scoring(workload: Workload, seed: int, sentences, inventory, labels) -> dict:
    """A CoNLL corpus and predictions whose relaxed counts are known exactly.

    Every predicted span overlaps at most one gold span, so maximum
    matching pairs exactly the predictions built from a gold span of the
    same label: kept and boundary-shifted spans score a true positive,
    while their overlapping same-label duplicates, label swaps and
    spurious spans score false positives.
    """
    rng = random.Random(seed)
    rates = workload.drift
    corpus: list[Sentence] = []
    long_ones = sorted(_shuffled_exact(rng, workload.docs, rates["long_share"]))
    low, high = LONG_SENTENCE_PARTS
    long_parts = {index: low + k % (high - low + 1) for k, index in enumerate(long_ones)}
    for index in range(workload.docs):
        if index in long_parts:
            parts = long_parts[index]
            corpus.append(concatenate(
                [resample(rng, sentences, inventory) for _ in range(parts)]))
        else:
            corpus.append(resample(rng, sentences, inventory))
    counts = {label: {"tp": 0, "fp": 0, "fn": 0} for label in labels}
    lines = []
    for sentence in corpus:
        n = len(sentence.tokens)
        gold_at = [False] * n
        for start, end, _ in sentence.spans:
            for i in range(start, end):
                gold_at[i] = True
        predicted: set[tuple[int, int, str]] = set()
        for start, end, label in sentence.spans:
            roll = rng.random()
            if roll < rates["miss"]:
                counts[label]["fn"] += 1
                continue
            roll -= rates["miss"]
            if roll < rates["swap"]:
                other = rng.choice([l for l in labels if l != label])
                predicted.add(char_span(sentence, start, end) + (other,))
                counts[label]["fn"] += 1
                counts[other]["fp"] += 1
                continue
            roll -= rates["swap"]
            p_start, p_end = start, end
            if roll < rates["boundary"]:
                if end < n and not gold_at[end]:
                    p_end = end + 1
                elif end - start > 1:
                    p_end = end - 1
            predicted.add(char_span(sentence, p_start, p_end) + (label,))
            counts[label]["tp"] += 1
            if rng.random() < rates["overlap"]:
                # A second occurrence search hit inside the same mention.
                lo, hi = char_span(sentence, start, end)
                if hi - lo > 1:
                    cut = rng.randrange(lo + 1, hi)
                    extra = (lo, cut, label) if rng.random() < 0.5 else (cut, hi, label)
                    if extra[:2] != (lo, hi) and extra not in predicted:
                        predicted.add(extra)
                        counts[label]["fp"] += 1
        for i in range(n):
            if not gold_at[i] and rng.random() < rates["spurious"] / 4:
                label = rng.choice(labels)
                predicted.add(char_span(sentence, i, i + 1) + (label,))
                counts[label]["fp"] += 1
        lines.append(json.dumps({
            "text": " ".join(sentence.tokens),
            "annotations": [{"start": s, "end": e, "label": l}
                            for s, e, l in sorted(predicted)],
        }, ensure_ascii=False))
    return {"gold_conll": to_conll(corpus), "predictions": "\n".join(lines) + "\n",
            "expected": counts, "sentences": len(corpus)}


def stub_key(text: str, label: str | None) -> str:
    """The stub's reply key: the document, plus the label for per-label turns."""
    return text if label is None else f"{label}\t{text}"


def generate(name: str, seed: int, root: Path = Path(".")) -> dict:
    """All inputs of workload ``name`` for ``seed``, as JSON-ready data."""
    workload = WORKLOADS[name]
    sentences = read_sentences(root / SAMPLE)
    schema = json.loads((root / SCHEMA).read_text(encoding="utf-8"))
    labels = list(schema)
    inventory = entity_inventory(sentences)
    if name == "multiturn_json_fewshot":
        data = build_multiturn(workload, seed, sentences, inventory, labels)
    elif name == "score_conll":
        data = build_scoring(workload, seed, sentences, inventory, labels)
    else:
        data = build_inline(workload, seed, sentences, inventory, labels)
    data.update(workload=name, seed=seed, schema=schema, batch=workload.batch,
                latency_ms=workload.latency_ms, threads=workload.threads)
    return data


# Inputs that have a file of their own; inputs.json leaves them out.
OWN_FILES = {"gold_conll": "gold.conll", "predictions": "predictions.jsonl",
             "script": "script.json"}


def input_paths(directory: Path, name: str) -> dict[str, Path]:
    """Where write_inputs puts a workload's files, by role."""
    paths = {"inputs": directory / "inputs.json", "gold": directory / "gold.conll"}
    if name == "score_conll":
        paths["predictions"] = directory / OWN_FILES["predictions"]
    else:
        paths["script"] = directory / OWN_FILES["script"]
    return paths


def write_inputs(data: dict, directory: Path) -> dict[str, Path]:
    """Write the generated inputs as files; returns their paths by role."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = input_paths(directory, data["workload"])
    paths["gold"].write_text(data["gold_conll"], encoding="utf-8")
    if "predictions" in paths:
        paths["predictions"].write_text(data["predictions"], encoding="utf-8")
    if "script" in paths:
        paths["script"].write_text(
            json.dumps({"latency_ms": data["latency_ms"], "script": data["script"]},
                       ensure_ascii=False, sort_keys=True),
            encoding="utf-8",
        )
    rest = {key: value for key, value in data.items() if key not in OWN_FILES}
    paths["inputs"].write_text(
        json.dumps(rest, ensure_ascii=False, sort_keys=True), encoding="utf-8"
    )
    return paths


if __name__ == "__main__":
    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    write_inputs(generate(name, seed), directory)
