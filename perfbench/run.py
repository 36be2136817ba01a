"""The chatner benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The run generates its inputs from the seed
(``perfbench/workloads.py``), starts the stub endpoint in a process of its
own when the workload talks to a model (``perfbench/stub.py``), measures
chatner's public API for about S seconds in whole passes over the inputs,
checks every output, and prints a table followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the first half of the
time runs untraced and the second half traced, and the metrics are the
per-layer ones. A failed check prints ``"correct": false`` and exits 1; a
run that cannot start exits 2 without a result line.

Workloads, their fixed parameters and the layer-to-end-to-end table are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from probe import build_model  # noqa: E402
from workloads import WORKLOADS, input_paths  # noqa: E402

SETUP_PROBES = 9
WARMUP_DOCS = 2
THREAD_CHECK_DOCS = 40
CONTEXTUALIZE_REPEATS = 5
MAX_REPORTED_PROBLEMS = 20


class Checks:
    """Output checks; any recorded problem makes the run incorrect."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.count = 0

    def fail(self, message: str) -> None:
        self.count += 1
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(message)

    @property
    def ok(self) -> bool:
        return self.count == 0


# -- the stub process ---------------------------------------------------------------


class Stub:
    """The stub endpoint in a child process, stopped and reaped by close()."""

    def __init__(self, script_path: Path):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), str(script_path)],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub did not start: {line!r}")
        self.port = int(line.split()[1])
        self.base_url = f"http://127.0.0.1:{self.port}/v1"
        self._cpu_mark = 0.0

    def _get(self, path: str):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stats(self) -> dict:
        """Counts since the previous call, which resets them.

        ``cpu_s`` becomes the stub's CPU seconds since the previous call.
        """
        data = self._get("/stats?reset=1")
        data["cpu_s"], self._cpu_mark = data["cpu_s"] - self._cpu_mark, data["cpu_s"]
        return data

    def slept_seconds(self) -> float:
        """The delay the stub injected since it started, summed over requests."""
        return self._get("/slept")

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


# -- measurement helpers -------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_inputs(workload: str, seed: int, workdir: Path) -> tuple[dict, dict]:
    """Generate in a child process; returns (inputs.json's data, paths).

    The measured process loads only inputs.json, which leaves out the gold,
    the predictions and the stub's script, so its peak RSS is set by
    chatner and not by the generator.
    """
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(workdir)],
        timeout=120, check=True,
    )
    paths = input_paths(workdir, workload)
    return json.loads(paths["inputs"].read_text(encoding="utf-8")), paths


def setup_seconds(inputs_path: Path) -> float:
    """One fresh-interpreter set-up, timed by probe.py."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(inputs_path)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class SetupProbes:
    """``setup_s`` samples taken between passes.

    The machine's speed drifts in phases lasting up to minutes, so the
    probes are spread over the whole run instead of taken back to back, and
    one slow phase cannot set their median.
    """

    def __init__(self, inputs_path: Path, seconds: float):
        self.inputs_path = inputs_path
        self.seconds = seconds
        self.times: list[float] = []

    def between_passes(self, measured: float) -> None:
        due = min(SETUP_PROBES, 1 + int(SETUP_PROBES * measured / self.seconds))
        while len(self.times) < due:
            self.times.append(setup_seconds(self.inputs_path))

    def median(self) -> float:
        self.between_passes(self.seconds)
        return statistics.median(self.times)


# Reference speed: the speed at which reference_work() takes this much CPU.
REFERENCE_MS = 5.0
_REF_A = [f"t{i % 37}" for i in range(100)]
_REF_B = [f"t{(i * 7) % 37}" for i in range(100)]
_REF_TEXT = " ".join(_REF_A * 4)


def reference_work() -> None:
    """A fixed pure-Python routine doing chatner's kind of work.

    An LCS table over tokens, a regex scan and a JSON round trip: its CPU
    time follows how fast this machine runs Python at the moment.
    """
    n = len(_REF_A)
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, below = table[i], table[i + 1]
        for j in range(n - 1, -1, -1):
            row[j] = below[j + 1] + 1 if _REF_A[i] == _REF_B[j] else max(below[j], row[j + 1])
    words = [m.group() for m in re.finditer(r"\S+", _REF_TEXT)]
    json.loads(json.dumps({str(k): words[k:k + 5] for k in range(len(words))}))


class Window:
    """Wall and CPU time of the measured calls only, batch by batch.

    Each pass runs the same batches in the same order, and each figure is
    the sum over batches of the batch's median over passes. The machine
    this was written on runs 15 to 35% slower in phases lasting minutes,
    because of load from outside it, so a run can fall wholly inside one.
    The ``_at_ref`` figures cancel that: before each batch the benchmark
    times ``reference_work()`` and rescales the batch's times to the speed
    at which the reference takes ``REFERENCE_MS``.

    CPU time is rescaled whole. Wall time keeps the stub's injected delay
    as measured and rescales the rest, which is computation by the client
    or the stub, or waiting for one of them, all slowing with the machine.
    Each of the ``threads`` client threads waits out its own requests'
    delays, so the batch's wall time holds ``injected delay / threads``.
    """

    def __init__(self, threads: int = 1, stub_slept=None) -> None:
        self.threads = threads
        self.stub_slept = stub_slept  # gives the stub's injected delay, if any
        self.wall = 0.0  # all measured time, which bounds the run's length
        self.docs = 0
        self.requests = 0
        self.body_bytes = 0
        self.failed_docs = 0
        self.stub_cpu = 0.0
        self.stub_delay = 0.0
        self.batch_docs: dict[int, int] = {}
        # (wall, cpu, injected delay on one thread's path, scale) per pass
        self.samples: dict[int, list[tuple[float, float, float, float]]] = {}

    @contextlib.contextmanager
    def timing(self, batch: int, docs: int):
        began = time.process_time()
        reference_work()
        scale = REFERENCE_MS / 1000.0 / (time.process_time() - began)
        slept0 = self.stub_slept() if self.stub_slept else 0.0
        cpu0, wall0 = time.process_time(), time.perf_counter()
        yield
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        waited = (self.stub_slept() - slept0) / self.threads if self.stub_slept else 0.0
        self.batch_docs[batch] = docs
        self.samples.setdefault(batch, []).append((wall, cpu, waited, scale))
        self.wall += wall
        self.docs += docs

    def _per_doc(self, value) -> float:
        """Sum over batches of each batch's median ``value``, per document."""
        total = sum(statistics.median(value(*sample) for sample in samples)
                    for samples in self.samples.values())
        return total / sum(self.batch_docs.values())

    def figures(self) -> dict[str, float]:
        return {
            "docs_per_s": 1.0 / self._per_doc(lambda wall, cpu, waited, scale: wall),
            "cpu_ms_per_doc": 1000.0 * self._per_doc(
                lambda wall, cpu, waited, scale: cpu),
            "docs_per_s_at_ref": 1.0 / self._per_doc(
                lambda wall, cpu, waited, scale:
                    waited + max(wall - waited, 0.0) * scale),
            "cpu_ms_per_doc_at_ref": 1000.0 * self._per_doc(
                lambda wall, cpu, waited, scale: cpu * scale),
        }


# -- annotation workloads (W1 to W3) ------------------------------------------------------


def check_results(results, data: dict, checks: Checks, where: str) -> None:
    docs = data["docs"]
    labels = set(data["schema"])
    if len(results) != len(docs):
        checks.fail(f"{where}: {len(results)} results for {len(docs)} documents")
        return
    for index, (result, doc) in enumerate(zip(results, docs)):
        text = doc["text"]
        if result.document.text != text:
            checks.fail(f"{where}: result {index} is not for input {index}")
            continue
        expect_error = doc.get("fails", False)
        error = type(result.error).__name__ if result.error is not None else None
        if expect_error and error != "ParseError":
            checks.fail(f"{where}: doc {index} should fail with ParseError, got {error}")
        if not expect_error and error is not None:
            checks.fail(f"{where}: doc {index} failed: {result.error}")
        enclosed = _enclosure_check(doc)
        found = set()
        for ann in result.document.annotations:
            span = (ann.start, ann.end, ann.label)
            found.add(span)
            if not 0 <= ann.start < ann.end <= len(text):
                checks.fail(f"{where}: doc {index} annotation {span} out of bounds")
            elif ann.label not in labels:
                checks.fail(f"{where}: doc {index} annotation {span} has no schema label")
            elif not enclosed(ann.label, text[ann.start:ann.end]):
                checks.fail(f"{where}: doc {index} annotation {span} "
                            f"{text[ann.start:ann.end]!r} was not enclosed by the reply")
        for start, end, label in doc["untouched"]:
            if (start, end, label) not in found:
                checks.fail(f"{where}: doc {index} lost untouched span "
                            f"{(start, end, label)} {text[start:end]!r}")


def _enclosure_check(doc: dict):
    """Whether the document's reply enclosed ``mention`` for ``label``."""
    if "tags" not in doc:
        listed = {tuple(pair) for pair in doc["enclosed"]}
        return lambda label, mention: (label, mention) in listed
    stripped = doc["tags"]["stripped"]
    opens, closes = doc["tags"]["opens"], doc["tags"]["closes"]
    close_sets = {label: set(offsets) for label, offsets in closes.items()}

    def enclosed(label: str, mention: str) -> bool:
        return any(
            start + len(mention) in close_sets[label]
            and stripped[start:start + len(mention)] == mention
            for start in opens[label]
        )

    return enclosed


def check_requests(stats: dict, data: dict, checks: Checks, where: str) -> None:
    """Per-key request counts of one pass against the plan made with the inputs."""
    asked = stats["asked"]
    for key, plan in data["keys"].items():
        count = asked.get(key, 0)
        if not plan["min_requests"] <= count <= plan["requests"]:
            checks.fail(f"{where}: {count} requests for key {key[:60]!r}, "
                        f"planned {plan['min_requests']}..{plan['requests']}")
    unplanned = set(asked) - set(data["keys"])
    if unplanned:
        checks.fail(f"{where}: {len(unplanned)} unplanned request keys")
    refused = {s: n for s, n in stats["statuses"].items() if s in ("400", "404")}
    if refused:
        checks.fail(f"{where}: the stub could not answer requests: {refused}")


def same_results(first, again) -> bool:
    return all(
        a.document == b.document and a.report.warnings == b.report.warnings
        and type(a.error) is type(b.error)
        for a, b in zip(first, again)
    ) and len(first) == len(again)


def annotate_window(model, data, stub, seconds, checks, reference, gold=None,
                    tracer=None, probes=None):
    """Whole passes over the documents until ``seconds`` of predict time.

    With ``gold`` it scores every pass; the traced half passes none, so the
    harness's scoring never shows in the evaluation spans.
    """
    from chatner import evaluation
    from chatner.errors import EvaluationError

    texts = [doc["text"] for doc in data["docs"]]
    window = Window(data["threads"], stub.slept_seconds)
    f1 = None
    with tracer if tracer is not None else contextlib.nullcontext():
        while window.wall < seconds:
            results = []
            for start in range(0, len(texts), data["batch"]):
                batch = texts[start:start + data["batch"]]
                with window.timing(start, len(batch)):
                    results.extend(model.predict(batch, max_concurrency=data["threads"]))
            stats = stub.stats()
            if probes is not None:
                probes.between_passes(window.wall)
            where = f"pass {window.docs // len(texts)}"
            check_requests(stats, data, checks, where)
            if reference is None:
                check_results(results, data, checks, where)
                reference = results
            elif not same_results(reference, results):
                checks.fail(f"{where}: results differ from the first pass")
            window.requests += stats["requests"]
            window.body_bytes += stats["body_bytes"]
            window.stub_cpu += stats["cpu_s"]
            window.stub_delay += stats["delay_s"]
            window.failed_docs += sum(r.error is not None for r in results)
            if gold is None:
                continue
            try:
                f1 = evaluation.evaluate([r.document for r in results], gold).micro.f1
            except EvaluationError as exc:
                checks.fail(f"{where}: results cannot be scored: {exc}")
                f1 = 0.0
        if tracer is not None:
            for _ in range(CONTEXTUALIZE_REPEATS):
                with tracer.span("prompting.contextualize"):
                    build_model(data, stub.base_url)
    return window, f1, reference


def run_annotation(data, paths, seconds, trace, checks, probes):
    """W1 to W3; returns (metrics, documents attempted, tracer or None)."""
    from chatner import evaluation

    gold = evaluation.read_conll_file(paths["gold"])
    stub = Stub(paths["script"])
    try:
        model = build_model(data, stub.base_url)
        texts = [doc["text"] for doc in data["docs"]]
        model.predict(texts[:WARMUP_DOCS], max_concurrency=data["threads"])
        stub.stats()
        if data["workload"] == "short_inline":
            sample = texts[:THREAD_CHECK_DOCS]
            one = model.predict(sample, max_concurrency=1)
            two = model.predict(sample, max_concurrency=2)
            if not same_results(one, two):
                checks.fail("short_inline sample differs between 1 and 2 threads")
            stub.stats()
        if not trace:
            window, f1, _ = annotate_window(model, data, stub, seconds, checks, None,
                                            gold, probes=probes)
            return {
                **window.figures(),
                "requests_per_doc": window.requests / window.docs,
                "sent_kb_per_doc": window.body_bytes / 1000.0 / window.docs,
                "f1_micro": f1,
                "doc_fail_ratio": window.failed_docs / window.docs,
                "peak_rss_mb": peak_rss_mb(),
                "setup_s": probes.median(),
            }, window.docs, None
        plain, _, reference = annotate_window(model, data, stub, seconds / 2, checks,
                                              None, gold)
        tracer = tracing.Tracer({text: i for i, text in reversed(list(enumerate(texts)))})
        traced, _, _ = annotate_window(model, data, stub, seconds / 2, checks,
                                       reference, tracer=tracer)
    finally:
        stub.close()
    delay_ms = traced.stub_delay * 1000.0 / traced.requests
    metrics = tracing.layer_metrics(tracer.spans, traced.docs, delay_ms)
    children = tracing.children(tracer.spans)
    metrics.update({
        "prompting.contextualize_ms": statistics.median(
            sum(c.ms for c in children.get(span.id, ()))
            for span in tracer.spans if span.name == "prompting.contextualize"
        ),
        "prompting.prefix_kchars": sum(len(m.content) for m in model.prefix_) / 1000.0,
        "stub.cpu_ms_per_request": traced.stub_cpu * 1000.0 / traced.requests,
        "stub.delay_ms": delay_ms,
        "client.requests_per_doc": traced.requests / traced.docs,
        "client.sent_kb_per_doc": traced.body_bytes / 1000.0 / traced.docs,
        "engine.doc_fail_ratio": traced.failed_docs / traced.docs,
        "trace.overhead_ratio": overhead_ratio(plain, traced),
    })
    return metrics, plain.docs + traced.docs, tracer


def overhead_ratio(plain: Window, traced: Window) -> float:
    """Traced over untraced throughput, both at reference speed."""
    key = "docs_per_s_at_ref"
    return traced.figures()[key] / plain.figures()[key]


# -- scoring workload (W4) --------------------------------------------------------------


def run_scoring(data, paths, seconds, trace, checks, probes):
    """W4; returns (metrics, sentences scored, tracer or None)."""
    from chatner.cli import main as cli_main

    report_path = paths["inputs"].parent / "report.json"
    args = ["evaluate", "--gold", str(paths["gold"]),
            "--predictions", str(paths["predictions"]),
            "--output", str(report_path)]

    def measure(limit: float, tracer=None, probes=None) -> Window:
        window = Window()
        with tracer if tracer is not None else contextlib.nullcontext():
            while True:
                echoed = io.StringIO()
                with window.timing(0, data["sentences"]), contextlib.redirect_stdout(echoed):
                    with tracer.span("cli.evaluate") if tracer else contextlib.nullcontext():
                        cli_main.main(args=args, standalone_mode=False)
                check_report(json.loads(report_path.read_text(encoding="utf-8")),
                             echoed.getvalue(), data, checks)
                if probes is not None:
                    probes.between_passes(window.wall)
                if window.wall >= limit:
                    return window

    measure(0.0)  # warm-up: one call
    if not trace:
        window = measure(seconds, probes=probes)
        report = json.loads(report_path.read_text(encoding="utf-8"))
        return {**window.figures(),
                "f1_micro": report["micro"]["f1"],
                "peak_rss_mb": peak_rss_mb(),
                "setup_s": probes.median()}, window.docs, None
    plain = measure(seconds / 2)
    tracer = tracing.Tracer()
    traced = measure(seconds / 2, tracer)
    metrics = tracing.layer_metrics(tracer.spans, traced.docs, 0.0)
    children = tracing.children(tracer.spans)
    reading, totals = [], []
    for span in tracer.spans:
        if span.name == "cli.evaluate":
            # The command decodes the predictions between these two calls.
            kids = {kid.name: kid for kid in children[span.id]}
            reading.append((kids["evaluation.evaluate"].start
                            - kids["evaluation.read_conll"].end) * 1000.0)
            totals.append(span.ms)
    metrics.update({
        "cli.read_predictions_ms": statistics.median(reading),
        "cli.total_ms": statistics.median(totals),
        "trace.overhead_ratio": overhead_ratio(plain, traced),
    })
    return metrics, plain.docs + traced.docs, tracer


def check_report(report: dict, echoed: str, data: dict, checks: Checks) -> None:
    expected = data["expected"]
    for label, counts in expected.items():
        got = report["labels"].get(label, {"tp": 0, "fp": 0, "fn": 0})
        if any(got[k] != counts[k] for k in ("tp", "fp", "fn")):
            checks.fail(f"score_conll: {label} counts {got} differ from {counts}")
    total = {k: sum(c[k] for c in expected.values()) for k in ("tp", "fp", "fn")}
    if any(report["micro"][k] != total[k] for k in total):
        checks.fail(f"score_conll: micro counts differ from {total}")
    if "micro" not in echoed:
        checks.fail("score_conll: the evaluate command printed no table")


# -- output ---------------------------------------------------------------------------

UNITS = {
    "setup_s": "s", "docs_per_s": "docs/s", "cpu_ms_per_doc": "ms",
    "docs_per_s_at_ref": "docs/s", "cpu_ms_per_doc_at_ref": "ms",
    "requests_per_doc": "req/doc", "sent_kb_per_doc": "kB/doc", "f1_micro": "ratio",
    "doc_fail_ratio": "ratio", "peak_rss_mb": "MB",
}


def print_layers(tracer) -> None:
    """Calls and self time per layer, and the span counts behind percentiles."""
    traced_docs = len({s.doc for s in tracer.spans if s.doc is not None})
    print(f"traced half: {len(tracer.spans)} spans over {traced_docs} distinct documents")
    print(f"  {'layer':12s} {'calls':>8s} {'wall ms':>12s} {'self ms':>12s}")
    for layer, calls, wall, self_ms in tracing.layer_table(tracer.spans):
        print(f"  {layer:12s} {calls:8d} {wall:12.1f} {self_ms:12.1f}")
    counts: dict[str, int] = {}
    for span in tracer.spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    print("  samples: " + ", ".join(f"{n} {c}" for n, c in sorted(counts.items())))


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    key = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in spec[key]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "chatner" / "__init__.py").is_file() or not (
        root / "tests" / "data" / "sample50_iob2.conll"
    ).is_file():
        print("error: run from a chatner checkout (src/chatner and tests/data "
              "are missing here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # The stub listens on loopback; no proxy may stand in between.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"

    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    checks = Checks()
    try:
        data, paths = make_inputs(args.workload, args.seed, workdir)
        # The harness's own peak before chatner runs, printed to show that
        # chatner, not the harness, sets peak_rss_mb.
        harness_rss = peak_rss_mb()
        runner = run_scoring if args.workload == "score_conll" else run_annotation
        metrics, attempted, tracer = runner(
            data, paths, args.seconds, bool(args.trace), checks,
            SetupProbes(paths["inputs"], args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = declared_metrics(bool(args.trace))
    units = {**UNITS, **declared}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  peak RSS before chatner ran: {harness_rss:.1f} MB")
    if tracer is not None:
        # A layer that does not run in this workload reads 0.
        metrics = {**dict.fromkeys(declared, 0.0), **metrics}
        print_layers(tracer)
        # One file per workload, replaced by the next traced run of it.
        tracer.write(root / ".perfbench_work" / f"spans-{args.workload}.jsonl")
    for name in sorted(metrics):
        print(f"  {name:36s} {metrics[name]:14.4f} {units.get(name, '')}")
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": checks.ok,
        "attempted": attempted,
        "failed": checks.count,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
