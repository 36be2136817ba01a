"""Model construction shared by the benchmark and its set-up probe.

    python3 perfbench/probe.py INPUTS.json

run from the repository root, times ``import chatner`` through a
contextualized model (or, for ``score_conll``, through the CLI being
importable) in a fresh interpreter and prints the seconds taken. The
benchmark runs it several times and reports the median as ``setup_s``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def build_model(data: dict, base_url: str):
    """The contextualized model a workload annotates with."""
    import chatner

    if data["workload"] == "multiturn_json_fewshot":
        model = chatner.FewShotNer(
            method="multi_turn", multi_turn_mode="step_by_step", answer_shape="json",
            max_concurrency=data["threads"], base_url=base_url, api_key="bench",
            initial_backoff_ms=2.0, timeout=30.0,
        )
        examples = [chatner.document_from_record(r) for r in data["examples"]]
        return model.contextualize(data["schema"], examples=examples)
    model = chatner.ZeroShotNer(
        method="single_turn", answer_shape="inline",
        max_concurrency=data["threads"], base_url=base_url, api_key="bench",
        timeout=30.0,
    )
    return model.contextualize(data["schema"])


def main(inputs_path: str) -> None:
    data = json.loads(Path(inputs_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path("src").resolve()))
    began = time.perf_counter()
    if data["workload"] == "score_conll":
        import chatner.cli  # noqa: F401  (the CLI is ready once imported)
    else:
        build_model(data, "http://127.0.0.1:9/v1")
    print(time.perf_counter() - began)


if __name__ == "__main__":
    main(sys.argv[1])
