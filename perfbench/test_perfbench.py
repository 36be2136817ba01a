"""Tests of the benchmark itself: inputs, stub and tracing wrappers.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
from run import Stub  # noqa: E402
from stub import request_key  # noqa: E402
from workloads import WORKLOADS, generate, stub_key, write_inputs  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    first = write_inputs(generate(name, 7, ROOT), tmp_path / "a")
    again = write_inputs(generate(name, 7, ROOT), tmp_path / "b")
    other = write_inputs(generate(name, 8, ROOT), tmp_path / "c")
    for role, path in first.items():
        assert path.read_bytes() == again[role].read_bytes(), role
    assert first["inputs"].read_bytes() != other["inputs"].read_bytes()


def test_planned_requests_cover_every_scripted_fault():
    data = generate("multiturn_json_fewshot", 3, ROOT)
    labels = list(data["schema"])
    for doc in data["docs"]:
        keys = [data["keys"][stub_key(doc["text"], label)] for label in labels]
        assert doc["planned_requests"] == sum(k["requests"] for k in keys)
        assert doc["min_requests"] == sum(k["min_requests"] for k in keys)
        assert doc["planned_requests"] >= (0 if doc["fails"] else len(labels))
    assert sum(doc["fails"] for doc in data["docs"]) == round(
        WORKLOADS["multiturn_json_fewshot"].drift["no_json"] * len(data["docs"]))


def test_stub_key_matches_the_conversations_chatner_sends():
    data = generate("multiturn_json_fewshot", 5, ROOT)
    from probe import build_model

    model = build_model(data, "http://127.0.0.1:9/v1")
    text = data["docs"][0]["text"]
    messages = model.plan_conversation(text)
    turns = [i for i, m in enumerate(messages) if m.content == "{response}"]
    keys = [
        request_key([{"role": m.role, "content": m.content} for m in messages[:i]])
        for i in turns
    ]
    assert keys == [stub_key(text, label) for label in data["schema"]]


def _post(port: int, content: str) -> tuple[int, str]:
    import http.client

    body = json.dumps({"messages": [{"role": "system", "content": "s"},
                                    {"role": "user", "content": "Text:\n" + content}]})
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("POST", "/v1/chat/completions", body,
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = json.loads(response.read())
    finally:
        connection.close()
    if response.status != 200:
        return response.status, ""
    return 200, payload["choices"][0]["message"]["content"]


def test_stub_answers_by_content_under_two_concurrent_clients(tmp_path):
    keys = [f"document {i}" for i in range(40)]
    script = {key: [[200, f"reply to {key}"]] for key in keys}
    script["flaky"] = [[429, ""], [503, ""], [200, "third time"]]
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"latency_ms": 1, "script": script}))
    stub = Stub(path)
    try:
        mismatches: list[str] = []

        def client(seed: int) -> None:
            order = keys * 2
            random.Random(seed).shuffle(order)
            for key in order:
                status, content = _post(stub.port, key)
                if (status, content) != (200, f"reply to {key}"):
                    mismatches.append(key)

        threads = [threading.Thread(target=client, args=(s,)) for s in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert [_post(stub.port, "flaky")[0] for _ in range(4)] == [429, 503, 200, 200]
        stats = stub.stats()
        assert stats["requests"] == 4 * len(keys) + 4
        assert stats["asked"]["flaky"] == 4
        assert all(stats["asked"][key] == 4 for key in keys)
        assert stats["statuses"] == {"200": 4 * len(keys) + 2, "429": 1, "503": 1}
        assert stub.stats()["requests"] == 0  # reading the stats reset them
    finally:
        stub.close()
    assert stub.process.returncode is not None


def _attributes() -> dict[tuple[str, str], object]:
    import chatner.cli
    import chatner.client
    import chatner.engine
    import chatner.evaluation
    import chatner.parsing

    owners = [chatner.cli, chatner.client, chatner.engine, chatner.evaluation,
              chatner.parsing, chatner.engine.NerModel, chatner.client.HttpBackend]
    return {(repr(owner), name): value
            for owner in owners for name, value in vars(owner).items()}


def test_wrappers_leave_chatner_attributes_as_they_found_them():
    before = _attributes()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            during = _attributes()
            raise RuntimeError("the traced run failed")
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    changed = [key for key in before if during[key] is not before[key]]
    assert len(changed) == len(tracing.targets())


def test_spans_nest_and_self_time_excludes_children():
    import chatner.evaluation
    from chatner import AnnotatedDocument, Annotation

    doc = AnnotatedDocument("Ada went to Oslo", {Annotation(12, 16, "LOC")})
    tracer = tracing.Tracer()
    with tracer:
        with tracer.span("bench.score"):
            chatner.evaluation.evaluate([doc], [doc])
    names = {span.name: span for span in tracer.spans}
    outer = names["bench.score"]
    evaluate = names["evaluation.evaluate"]
    match = names["evaluation.match_annotations"]
    assert evaluate.parent == outer.id and match.parent == evaluate.id
    own = tracing.self_times(tracer.spans)
    assert own[evaluate.id] == pytest.approx(evaluate.ms - match.ms)
    assert tracing.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert tracing.percentile([], 0.99) == 0.0
