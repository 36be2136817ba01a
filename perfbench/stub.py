"""Stub OpenAI-compatible chat-completions endpoint, run as its own process.

    python3 perfbench/stub.py SCRIPT.json

prints ``PORT <n>`` on standard output once it listens on 127.0.0.1, and
serves until it receives SIGTERM or SIGINT.

Replies are chosen by content, never by arrival order: the key is the
document being annotated (the text after the last ``Text:`` line of the
conversation), prefixed with the entity label for per-label turns. Each key
holds a list of ``[status, content]`` entries indexed by how often that key
was asked since the last reset; the last entry repeats. Concurrent clients
therefore cannot reorder answers, as long as no two documents in flight
share a key. Every request sleeps the script's ``latency_ms`` first.

``GET /stats`` returns request and body-byte counts, per-key request
counts, the injected delay actually slept and this process's CPU time;
``GET /stats?reset=1`` also zeroes the counts and per-key positions.
``GET /slept`` returns the injected delay slept since start, never reset.
Connections are HTTP/1.1 keep-alive.
"""

from __future__ import annotations

import json
import re
import resource
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# The default English turn templates of a per-label exchange.
_LABEL_RE = re.compile(
    r"(?:And now annotate|Annotate) the mentions of the entity (\S+?)"
    r"(?: in the following text)?\."
)
_TEXT_MARK = "Text:\n"


def request_key(messages: list[dict]) -> str:
    """The reply key of a conversation; see the module docstring."""
    users = [m["content"] for m in messages if m.get("role") == "user"]
    last = users[-1]
    document = next(u for u in reversed(users) if _TEXT_MARK in u)
    text = document.split(_TEXT_MARK, 1)[1]
    match = _LABEL_RE.match(last)
    return text if match is None else f"{match.group(1)}\t{text}"


class StubState:
    """Scripted replies and the counters the benchmark reads back."""

    def __init__(self, script: dict[str, list], latency_ms: float):
        self.script = script
        self.latency_s = latency_ms / 1000.0
        self.lock = threading.Lock()
        self.slept_s = 0.0  # injected delay since start; reset() keeps it
        self.reset()

    def reset(self) -> None:
        self.asked: dict[str, int] = {}
        self.statuses: dict[str, int] = {}
        self.requests = 0
        self.body_bytes = 0
        self.delay_s = 0.0

    def answer(self, body: bytes) -> tuple[int, str]:
        key = request_key(json.loads(body)["messages"])
        entries = self.script.get(key)
        if entries is None:
            return 404, f"no scripted reply for key {key[:80]!r}"
        with self.lock:
            position = self.asked.get(key, 0)
            self.asked[key] = position + 1
        status, content = entries[min(position, len(entries) - 1)]
        return status, content

    def record(self, body_bytes: int, status: int, slept: float) -> None:
        with self.lock:
            self.requests += 1
            self.body_bytes += body_bytes
            self.statuses[str(status)] = self.statuses.get(str(status), 0) + 1
            self.delay_s += slept
            self.slept_s += slept

    def stats(self, reset: bool) -> dict:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        with self.lock:
            data = {
                "requests": self.requests,
                "body_bytes": self.body_bytes,
                "statuses": dict(self.statuses),
                "asked": dict(self.asked),
                "delay_s": self.delay_s,
                "cpu_s": usage.ru_utime + usage.ru_stime,
            }
            if reset:
                self.reset()
        return data


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def _send(self, status: int, payload: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_POST(self):  # noqa: N802 (name fixed by http.server)
        state: StubState = self.server.state
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        began = time.perf_counter()
        if state.latency_s:
            time.sleep(state.latency_s)
        slept = time.perf_counter() - began
        try:
            status, content = state.answer(body)
        except (ValueError, KeyError, StopIteration, IndexError) as exc:
            status, content = 400, f"unreadable request: {exc}"
        state.record(len(body), status, slept)
        if status == 200:
            payload = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        else:
            payload = {"error": {"message": content or f"scripted HTTP {status}"}}
        self._send(status, json.dumps(payload).encode("utf-8"))

    def do_GET(self):  # noqa: N802
        if self.path == "/slept":
            self._send(200, json.dumps(self.server.state.slept_s).encode("utf-8"))
            return
        if not self.path.startswith("/stats"):
            self._send(404, b"{}")
            return
        stats = self.server.state.stats(reset="reset=1" in self.path)
        self._send(200, json.dumps(stats).encode("utf-8"))

    def log_message(self, *args):  # keep the benchmark's output clean
        pass


def serve(script_path: str) -> None:
    with open(script_path, encoding="utf-8") as handle:
        data = json.load(handle)
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.daemon_threads = True
    httpd.state = StubState(data["script"], float(data["latency_ms"]))

    def stop(signum, frame):
        # shutdown() waits for serve_forever, so it must run on another thread.
        threading.Thread(target=httpd.shutdown).start()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    print(f"PORT {httpd.server_address[1]}", flush=True)
    try:
        httpd.serve_forever(poll_interval=0.05)
    finally:
        httpd.server_close()


if __name__ == "__main__":
    serve(sys.argv[1])
