"""Acceptance gate: the core guarantees, one verdict line per check.

Each test records ``acceptance N/9 PASS|FAIL: <name>``; conftest prints the
collected lines after the run so the verdicts stay visible in any pytest run.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from functools import lru_cache
from pathlib import Path

from chatner import (
    AnnotatedDocument,
    Annotation,
    EntitySchema,
    FewShotNer,
    MockBackend,
    ZeroShotNer,
    evaluate,
    parse_inline,
    read_conll_file,
)
from chatner.cli import main as cli_main
from chatner.parsing import parse_json_answer
from chatner.prompting import render_inline, render_json
from conftest import CliRunner

DATA = Path(__file__).parent / "data"
SEED = 20260814

VERDICTS: list[str] = []


def _verdict(number: int, name: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    line = f"acceptance {number}/9 {status}: {name}"
    VERDICTS.append(line)
    print(line)
    assert not problems, f"{name}: " + "; ".join(problems)


def spans(doc: AnnotatedDocument) -> set[tuple[int, int, str]]:
    return {(a.start, a.end, a.label) for a in doc.annotations}


# -- random document generators ---------------------------------------------

_POOLS = (
    "abcdefghijklmnopqrstuvwxyz",
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "àáâäçèéêëìíîïñòóöùúûüßœæ",
    "αβγδεηθικλμνπρστυφχψω",
    "абвгдежзиклмнопрстуфхцчшщэюя",
    "اللغةالعربيةنصكلمة",
    "你好世界汉字文本语言模型北京",
    "ひらがなカタカナ日本語テキスト",
    "한국어텍스트문장단어",
    "😀🌍🚀🎉💡🔥🌸🎶",
)
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _random_text(rng: random.Random, max_len: int) -> str:
    chars = []
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < 0.15:
            chars.append(" ")
        else:
            chars.append(rng.choice(rng.choice(_POOLS)))
    return "".join(chars)


def _random_spans(rng: random.Random, length: int, max_spans: int) -> list[tuple[int, int]]:
    taken = [False] * length
    out: list[tuple[int, int]] = []
    for _ in range(rng.randint(0, max_spans)):
        if length == 0:
            break
        for _attempt in range(12):
            start = rng.randrange(length)
            end = min(length, start + rng.randint(1, 10))
            if not any(taken[start:end]):
                out.append((start, end))
                for i in range(start, end):
                    taken[i] = True
                break
    return out


def _runs_over_tokens(
    rng: random.Random, tokens: list[str], max_runs: int, min_runs: int = 0
) -> list[tuple[int, int]]:
    """Non-overlapping character spans covering runs of 1-2 whole tokens."""
    offsets = []
    pos = 0
    for token in tokens:
        offsets.append((pos, pos + len(token)))
        pos += len(token) + 1
    used = [False] * len(tokens)
    out: list[tuple[int, int]] = []
    for _ in range(rng.randint(min_runs, max_runs)):
        for _attempt in range(12):
            i = rng.randrange(len(tokens))
            j = min(len(tokens), i + rng.randint(1, 2))
            if not any(used[i:j]):
                out.append((offsets[i][0], offsets[j - 1][1]))
                for k in range(i, j):
                    used[k] = True
                break
    return out


# -- 1: golden single-document inline flow -----------------------------------


def test_golden_inline_document_exact_spans():
    problems: list[str] = []
    started = time.monotonic()
    backend = MockBackend(
        replies=[
            "<person>Fei-Fei Li</person> is a female scientist born in "
            "<location>China</location>"
        ]
    )
    model = ZeroShotNer(backend=backend).contextualize(
        {"person": "Names of people.", "location": "Geographic places."}
    )
    results = model.predict(["Fei-Fei Li is a female scientist born in China."])
    elapsed = time.monotonic() - started
    expected = {(0, 10, "person"), (41, 46, "location")}
    if spans(results[0].document) != expected:
        problems.append(f"got {spans(results[0].document)}, want {expected}")
    if results[0].error is not None or results[0].report.warnings:
        problems.append("expected a clean prediction")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _verdict(1, "golden inline document yields exact spans in under a second", problems)


# -- 2: golden few-shot JSON flow ---------------------------------------------


def test_golden_few_shot_json_document():
    problems: list[str] = []
    examples = [
        AnnotatedDocument(
            "Elon Musk is the owner of the US company Tesla",
            {
                Annotation(0, 9, "person"),
                Annotation(30, 32, "location"),
                Annotation(41, 46, "organization"),
            },
        ),
        AnnotatedDocument(
            "Bill Gates is the owner of Microsoft",
            {Annotation(0, 10, "person"), Annotation(27, 36, "organization")},
        ),
    ]
    backend = MockBackend(
        replies=[
            '{"person": ["Pedro Pereira"], "location": ["Peru"],'
            ' "organization": ["Walmart"]}'
        ]
    )
    model = FewShotNer(answer_shape="json", backend=backend)
    model.contextualize(
        {
            "person": "Names of people.",
            "location": "Geographic places.",
            "organization": "Companies and institutions.",
        },
        examples=examples,
    )
    results = model.predict(
        ["Pedro Pereira is the president of Peru and the owner of Walmart."]
    )
    expected = {(0, 13, "person"), (34, 38, "location"), (56, 63, "organization")}
    if spans(results[0].document) != expected:
        problems.append(f"got {spans(results[0].document)}, want {expected}")
    if results[0].error is not None:
        problems.append(f"unexpected error {results[0].error!r}")
    _verdict(2, "golden few-shot JSON document yields exact spans", problems)


# -- 3: inline round-trip property --------------------------------------------


def test_inline_round_trip_identity_1000():
    problems: list[str] = []
    rng = random.Random(SEED)
    labels = ("person", "lieu", "組織")
    schema = EntitySchema({label: "entity class" for label in labels})
    started = time.monotonic()
    failures = warned = 0
    for _ in range(1000):
        text = _random_text(rng, 200)
        annotations = {
            Annotation(start, end, rng.choice(labels))
            for start, end in _random_spans(rng, len(text), 8)
        }
        doc = AnnotatedDocument(text, annotations)
        parsed, report = parse_inline(render_inline(doc), text, schema)
        if parsed.annotations != doc.annotations:
            failures += 1
        if report.warnings:
            warned += 1
    elapsed = time.monotonic() - started
    if failures:
        problems.append(f"{failures}/1000 documents did not round-trip")
    if warned:
        problems.append(f"{warned}/1000 documents produced warnings")
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.2f}s, budget 10s")
    _verdict(
        3,
        "inline render/parse is the identity on 1000 random documents",
        problems,
    )


# -- 4: JSON round-trip property ----------------------------------------------

_STEMS = ("café", "гора", "山川", "wort", "mundo", "ville", "πόλη", "도시")


def test_json_round_trip_identity_1000():
    problems: list[str] = []
    rng = random.Random(SEED + 1)
    labels = ("person", "location", "organization")
    schema = EntitySchema({label: "entity class" for label in labels})
    counter = itertools.count()
    failures = 0
    for _ in range(1000):
        # Guillemet-wrapped unique tokens keep every mention string a
        # once-occurring substring of the text.
        tokens = [
            f"«{rng.choice(_STEMS)}{next(counter)}»"
            for _ in range(rng.randint(3, 22))
        ]
        text = " ".join(tokens)
        annotations = {
            Annotation(start, end, rng.choice(labels))
            for start, end in _runs_over_tokens(rng, tokens, 8)
        }
        doc = AnnotatedDocument(text, annotations)
        parsed, _report = parse_json_answer(render_json(doc, schema), text, schema)
        if parsed.annotations != doc.annotations:
            failures += 1
    if failures:
        problems.append(f"{failures}/1000 documents did not round-trip")
    _verdict(
        4,
        "JSON render/parse is the identity on 1000 unique-mention documents",
        problems,
    )


# -- 5: alignment robustness under edits --------------------------------------


def _protected_ranges(doc: AnnotatedDocument) -> list[tuple[int, int]]:
    """Completion-coordinate ranges covered by rendered mention blocks."""
    ranges = []
    shift = 0
    for ann in sorted(doc.annotations):
        opener, closer = f"<{ann.label}>", f"</{ann.label}>"
        start = ann.start + shift
        end = start + len(opener) + (ann.end - ann.start) + len(closer)
        ranges.append((start, end))
        shift += len(opener) + len(closer)
    return ranges


def _perturb_outside(
    rng: random.Random, completion: str, protected: list[tuple[int, int]]
) -> str:
    editable = [
        i
        for i in range(len(completion))
        if not any(start <= i < end for start, end in protected)
    ]
    if not editable:
        return completion
    budget = max(1, len(completion) // 10)
    positions = rng.sample(editable, min(rng.randint(0, budget), len(editable)))
    chars = list(completion)
    for i in sorted(positions, reverse=True):
        roll = rng.random()
        if roll < 0.34:
            del chars[i]
        elif roll < 0.67:
            chars[i] = rng.choice(_LETTERS)
        else:
            chars.insert(i, rng.choice(_LETTERS))
    return "".join(chars)


def test_alignment_recovers_annotations_from_noisy_echoes():
    problems: list[str] = []
    rng = random.Random(SEED + 2)
    labels = ("person", "location", "organization")
    schema = EntitySchema({label: "entity class" for label in labels})
    recovered = total = 0
    for _ in range(500):
        words = [
            "".join(rng.choice(_LETTERS) for _ in range(rng.randint(2, 8)))
            for _ in range(rng.randint(8, 30))
        ]
        text = " ".join(words)
        annotations = {
            Annotation(start, end, rng.choice(labels))
            for start, end in _runs_over_tokens(rng, words, 8, min_runs=1)
        }
        doc = AnnotatedDocument(text, annotations)
        noisy = _perturb_outside(rng, render_inline(doc), _protected_ranges(doc))
        parsed, _report = parse_inline(noisy, text, schema)
        recovered += len(doc.annotations & parsed.annotations)
        total += len(doc.annotations)
    rate = recovered / total
    if rate < 0.95:
        problems.append(f"recovered {recovered}/{total} = {rate:.3f}, need >= 0.95")
    _verdict(
        5,
        f"edits outside mentions leave >= 95% of spans recoverable "
        f"(got {rate:.1%})",
        problems,
    )


# -- 6: metric counts against an exhaustive matcher ----------------------------


def _oracle_tp(pred: list[Annotation], gold: list[Annotation], matching: str) -> int:
    """Maximum one-to-one pairing size by exhaustive bitmask search."""

    def compatible(p: Annotation, g: Annotation) -> bool:
        if p.label != g.label:
            return False
        if matching == "strict":
            return (p.start, p.end) == (g.start, g.end)
        return p.start < g.end and g.start < p.end

    @lru_cache(maxsize=None)
    def solve(i: int, used: int) -> int:
        if i == len(pred):
            return 0
        best = solve(i + 1, used)
        for j, g in enumerate(gold):
            if not used >> j & 1 and compatible(pred[i], g):
                best = max(best, 1 + solve(i + 1, used | 1 << j))
        return best

    return solve(0, 0)


def _random_side(rng: random.Random, labels: tuple[str, ...]) -> frozenset[Annotation]:
    out = set()
    for _ in range(rng.randint(0, 10)):
        start = rng.randrange(63)
        end = min(64, start + rng.randint(1, 6))
        out.add(Annotation(start, end, rng.choice(labels)))
    return frozenset(out)


def test_metric_counts_match_exhaustive_oracle():
    problems: list[str] = []
    rng = random.Random(SEED + 3)
    labels = ("a", "b")
    text = "x" * 64
    for index in range(200):
        pred = _random_side(rng, labels)
        gold = _random_side(rng, labels)
        pred_doc = AnnotatedDocument(text, pred)
        gold_doc = AnnotatedDocument(text, gold)
        f1 = {}
        for matching in ("relaxed", "strict"):
            report = evaluate([pred_doc], [gold_doc], matching=matching)
            f1[matching] = report.micro.f1
            tp = _oracle_tp(sorted(pred), sorted(gold), matching)
            got = (report.micro.tp, report.micro.fp, report.micro.fn)
            want = (tp, len(pred) - tp, len(gold) - tp)
            if got != want:
                problems.append(f"instance {index} {matching} micro {got} != {want}")
            for metrics in report.per_label:
                p_l = sorted(a for a in pred if a.label == metrics.label)
                g_l = sorted(a for a in gold if a.label == metrics.label)
                tp_l = _oracle_tp(p_l, g_l, matching)
                got_l = (metrics.tp, metrics.fp, metrics.fn)
                want_l = (tp_l, len(p_l) - tp_l, len(g_l) - tp_l)
                if got_l != want_l:
                    problems.append(
                        f"instance {index} {matching} label {metrics.label} "
                        f"{got_l} != {want_l}"
                    )
        if f1["relaxed"] < f1["strict"]:
            problems.append(
                f"instance {index}: relaxed f1 {f1['relaxed']} < strict {f1['strict']}"
            )
        if problems:
            break
    _verdict(
        6,
        "evaluation counts equal an exhaustive matching oracle on 200 instances",
        problems,
    )


# -- 7: CoNLL ingestion --------------------------------------------------------


def test_conll_variants_agree_and_self_score_perfectly():
    problems: list[str] = []
    docs_iob1 = read_conll_file(DATA / "sample50_iob1.conll")
    docs_iob2 = read_conll_file(DATA / "sample50_iob2.conll")
    if len(docs_iob1) != 50 or len(docs_iob2) != 50:
        problems.append(f"expected 50 sentences, got {len(docs_iob1)}/{len(docs_iob2)}")
    for index, (one, two) in enumerate(zip(docs_iob1, docs_iob2)):
        if one.text != two.text:
            problems.append(f"sentence {index}: texts differ across variants")
        if spans(one) != spans(two):
            problems.append(f"sentence {index}: span sets differ across variants")
    report = evaluate(docs_iob1, docs_iob2)
    if len(report.per_label) != 4:
        problems.append(f"expected 4 entity classes, got {len(report.per_label)}")
    for metrics in (*report.per_label, report.micro):
        if metrics.f1 != 1.0 or metrics.fp or metrics.fn:
            problems.append(f"{metrics.label}: f1 {metrics.f1 * 100:.1f} != 100.0")
    _verdict(
        7,
        "both tagging variants parse identically and self-score at F1 100.0",
        problems,
    )


# -- 8: offline end-to-end benchmark through the CLI ---------------------------


def _cli_benchmark(tmp_path: Path, completions: dict[str, str]) -> dict:
    tmp_path.mkdir(exist_ok=True)
    gold = read_conll_file(DATA / "sample50_iob2.conll")
    script = tmp_path / "mock.json"
    script.write_text(
        json.dumps({"matchers": [[doc.text, completions[doc.text]] for doc in gold]}),
        encoding="utf-8",
    )
    report_path = tmp_path / "report.json"
    result = CliRunner().invoke(
        cli_main,
        [
            "evaluate",
            "--schema", str(DATA / "conll_schema.json"),
            "--backend", f"mock:{script}",
            "--gold", str(DATA / "sample50_iob2.conll"),
            "--output", str(report_path),
        ],
    )
    assert result.exit_code == 0, result.output
    return json.loads(report_path.read_text(encoding="utf-8"))


def test_offline_benchmark_scores_perfect_then_degrades(tmp_path):
    problems: list[str] = []
    gold = read_conll_file(DATA / "sample50_iob2.conll")
    completions = {doc.text: render_inline(doc) for doc in gold}
    payload = _cli_benchmark(tmp_path / "clean", completions)
    if payload["micro"]["f1"] != 1.0:
        problems.append(f"clean run micro f1 {payload['micro']['f1']} != 1.0")

    rng = random.Random(SEED + 4)
    with_entities = [doc for doc in gold if doc.annotations]
    for doc in rng.sample(with_entities, 10):  # corrupt 20% of 50 scripts
        completions[doc.text] = doc.text
    payload = _cli_benchmark(tmp_path / "corrupt", completions)
    if payload["micro"]["precision"] != 1.0:
        problems.append(
            f"corrupted run precision {payload['micro']['precision']} != 1.0"
        )
    if not payload["micro"]["recall"] < 1.0:
        problems.append(f"corrupted run recall {payload['micro']['recall']} not < 1.0")
    _verdict(
        8,
        "offline benchmark scores 100.0 clean and loses only recall when "
        "a fifth of the completions drop their entities",
        problems,
    )


# -- 9: concurrency determinism and request accounting -------------------------


def test_concurrent_annotate_is_deterministic_and_turns_are_counted(tmp_path):
    problems: list[str] = []
    texts = [f"Employee q{i}z joined Office w{i}v in March." for i in range(100)]
    completions = [
        f"Employee <person>q{i}z</person> joined Office "
        f"<organization>w{i}v</organization> in March."
        for i in range(100)
    ]
    (tmp_path / "schema.json").write_text(
        json.dumps(
            {"person": "Names of people.", "organization": "Companies and teams."}
        ),
        encoding="utf-8",
    )
    (tmp_path / "mock.json").write_text(
        json.dumps({"matchers": [[f"q{i}z", completions[i]] for i in range(100)]}),
        encoding="utf-8",
    )
    (tmp_path / "docs.txt").write_text(
        "".join(text + "\n" for text in texts), encoding="utf-8"
    )
    outputs = {}
    for workers in (1, 8):
        out = tmp_path / f"out{workers}.jsonl"
        result = CliRunner().invoke(
            cli_main,
            [
                "annotate",
                "--schema", str(tmp_path / "schema.json"),
                "--backend", f"mock:{tmp_path / 'mock.json'}",
                "--input", str(tmp_path / "docs.txt"),
                "--output", str(out),
                "--concurrency", str(workers),
            ],
        )
        if result.exit_code != 0:
            problems.append(f"annotate at concurrency {workers} exited {result.exit_code}")
        outputs[workers] = out.read_bytes()
    if outputs[1] != outputs[8]:
        problems.append("outputs at concurrency 1 and 8 differ")
    record_count = outputs[1].count(b"\n")
    if record_count != 100:
        problems.append(f"expected 100 records, got {record_count}")

    backend = MockBackend(matchers=[("entity", "no mentions found")])
    model = ZeroShotNer(
        method="multi_turn", multi_turn_mode="step_by_step", backend=backend
    )
    model.contextualize(
        {"person": "p", "location": "l", "organization": "o"}
    )
    sample = ["First doc mentions nothing.", "Second doc either.", "Third is plain."]
    model.predict(sample)
    if len(backend.calls) != 9:
        problems.append(f"expected 3 docs x 3 labels = 9 requests, got {len(backend.calls)}")
    for text in sample:
        lengths = sorted(
            len(call) for call in backend.calls if text in call[1].content
        )
        if lengths != [2, 4, 6]:
            problems.append(f"document {text!r} saw conversations {lengths}")
    _verdict(
        9,
        "batch output is byte-identical at concurrency 1 and 8 and "
        "step-by-step spends exactly one request per label per document",
        problems,
    )
