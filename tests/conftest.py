"""Shared fixtures: golden documents, schemas, an in-process runner of the
``chatner`` command and a local scripted HTTP server."""

from __future__ import annotations

import io
import json
import ssl
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from chatner import AnnotatedDocument, Annotation, EntitySchema

DATA_DIR = Path(__file__).parent / "data"
# A self-signed certificate for 127.0.0.1 and localhost, valid until 2126.
TLS_CERT, TLS_KEY = DATA_DIR / "tls" / "cert.pem", DATA_DIR / "tls" / "key.pem"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after capture is released."""
    module = sys.modules.get("test_acceptance")
    verdicts = getattr(module, "VERDICTS", None) if module else None
    if verdicts:
        terminalreporter.section("acceptance verdicts")
        for line in verdicts:
            terminalreporter.write_line(line)


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


class CliRunner:
    """Runs the ``chatner`` command in process: ``invoke(main, argv, input=...)``
    reads standard input from ``input`` (text or bytes) and captures both
    outputs. Like a console, each stream has a ``.buffer``. An exception other
    than SystemExit ends the run with exit code 1 and is kept in
    ``exception``, as is a SystemExit with a non-zero code."""

    def invoke(self, main, args, input: str | bytes = b"") -> CliResult:
        data = input.encode("utf-8") if isinstance(input, str) else input
        streams = [io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")]
        streams += [io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2)]
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = streams
        exit_code, exception = 0, None
        try:
            main.main(args=list(args))
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if exit_code else None
        except Exception as exc:
            exit_code, exception = 1, exc
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        captured = []
        for stream in streams[1:]:
            stream.flush()
            captured.append(stream.buffer.getvalue().decode("utf-8", "replace"))
        for stream in streams:
            stream.close()
        return CliResult(exit_code, *captured, exception)


@pytest.fixture
def runner() -> CliRunner:
    return CliRunner()


@pytest.fixture
def golden_schema() -> EntitySchema:
    return EntitySchema(
        {
            "person": "A person name, possibly with first and last names.",
            "organization": "An organization such as a company or agency.",
            "location": "A location such as a city or a country.",
        }
    )


@pytest.fixture
def golden_text() -> str:
    return "Fei-Fei Li is a female scientist born in China."


@pytest.fixture
def golden_doc(golden_text) -> AnnotatedDocument:
    return AnnotatedDocument(
        golden_text,
        {Annotation(0, 10, "person"), Annotation(41, 46, "location")},
    )


@pytest.fixture
def fewshot_examples() -> list[AnnotatedDocument]:
    return [
        AnnotatedDocument(
            "Elon Musk is the owner of the US company Tesla",
            {
                Annotation(30, 32, "location"),
                Annotation(0, 9, "person"),
                Annotation(41, 46, "organization"),
            },
        ),
        AnnotatedDocument(
            "Bill Gates is the owner of Microsoft",
            {
                Annotation(0, 10, "person"),
                Annotation(27, 36, "organization"),
            },
        ),
    ]


@pytest.fixture
def fewshot_text() -> str:
    return "Pedro Pereira is the president of Peru and the owner of Walmart."


class _ScriptedHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (fixed by http.server)
        server = self.server
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        with server.lock:
            index = len(server.requests)
            server.requests.append(
                {
                    "method": self.command,
                    "path": self.path,
                    "authorization": self.headers.get("Authorization"),
                    "proxy_authorization": self.headers.get("Proxy-Authorization"),
                    "connection": self.headers.get("Connection"),
                    "client": self.client_address,
                    "body": body,
                }
            )
            entry = server.script[min(index, len(server.script) - 1)]
        if entry[0] == "close":
            self.close_connection = True
            return
        if entry[0] in ("raw", "chunked", "unsized", "continue", "trickle", "continues"):
            self.close_connection = True
            try:
                for position, piece in enumerate(_raw_reply(*entry)):
                    time.sleep(0.05 if position else 0)
                    self.wfile.write(piece)
            except ConnectionError:  # the client gave up on a reply it refused
                pass
            return
        if entry[0] == "sleep":
            time.sleep(entry[1])
            entry = (200, {"choices": [{"message": {"content": ""}}]})
        kind = entry[0]
        missing = 100 if kind == "truncated" else 0
        if kind in ("truncated", "idle-close"):
            entry, self.close_connection = (200, entry[1]), True
        elif kind in ("late", "extra"):
            entry = (200, entry[1])
        status, payload, *extra = entry
        raw = payload if isinstance(payload, str) else json.dumps(payload)
        data = raw.encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data) + missing))
            if 300 <= status < 400:
                self.send_header("Location", "/v1/moved")
            for name, value in (extra[0] if extra else {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data + _LATE_REPLY if kind == "extra" else data)
            if kind == "late":
                time.sleep(0.05)
                self.wfile.write(_LATE_REPLY)
        except ConnectionError:  # the client timed out and hung up first
            pass

    # A proxy sees an https target as a CONNECT; it answers from the script too.
    do_CONNECT = do_POST  # noqa: N815

    def log_message(self, *args):  # keep test output clean
        pass


class _KeepAliveHandler(_ScriptedHandler):
    # Replies framed by Content-Length keep the connection open. As in
    # http.server (and the benchmark's stub), the headers and the body go out
    # in two writes with Nagle's algorithm on.
    protocol_version = "HTTP/1.1"


# What a ("late", payload) entry sends 50 ms after its reply, and an
# ("extra", payload) entry in the same write as its body, unasked.
_LATE_BODY = b'{"choices": [{"message": {"content": "late"}}]}'
_LATE_REPLY = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(_LATE_BODY), _LATE_BODY)


def _raw_reply(kind: str, payload) -> list[bytes]:
    """The bytes of a reply that http.server would not frame this way, in
    pieces to be sent 50 ms apart."""
    if kind == "raw":
        return [payload]
    if kind == "continues":  # for 10 s, or until the client hangs up
        return [b"HTTP/1.1 100 Continue\r\n\r\n"] * 200
    body = json.dumps(payload).encode("utf-8")
    head = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    if kind == "trickle":
        head += b"Content-Length: %d\r\n\r\n" % len(body)
        return [head] + [body[i:i + 1] for i in range(len(body))]
    if kind == "chunked":
        # The Content-Length is wrong on purpose: Transfer-Encoding wins.
        head += b"Transfer-Encoding: chunked\r\nContent-Length: 1\r\n"
        body = b"%x;ext=1\r\n%s\r\n%x\r\n%s\r\n0\r\nX-Trailer: t\r\n\r\n" % (
            5, body[:5], len(body) - 5, body[5:]
        )
    elif kind == "continue":
        head = b"HTTP/1.1 100 Continue\r\n\r\n" + head
        head += b"Content-Length: %d\r\n" % len(body)
    return [head + b"\r\n" + body]


class ScriptedServer:
    """A local chat-completions endpoint driven by a per-test script.

    ``script`` is a list of (status, payload) entries consumed in request
    order (the last entry repeats); a third item, a dict, adds response
    headers, and a 3xx status redirects to ``/v1/moved``.
    ``("sleep", seconds)`` delays before a plain 200, ``("close", None)``
    hangs up without replying, and ``("truncated", payload)`` sends a 200
    whose Content-Length promises 100 bytes more than ``payload``, then
    hangs up. ``("chunked", payload)`` sends a chunked 200 (with a wrong
    Content-Length), ``("unsized", payload)`` a 200 with no length that ends
    when the server closes, ``("continue", payload)`` a 100 Continue before
    the 200, and ``("raw", bytes)`` exactly those bytes. ``("trickle",
    payload)`` sends a 200 whose body comes one byte every 50 ms, and
    ``("continues", None)`` a 100 Continue every 50 ms. The handler speaks
    HTTP/1.0, so every connection closes after one reply; with
    ``keep_alive`` it speaks HTTP/1.1 and keeps a connection open after a
    ``(status, payload)`` or ``sleep`` reply, while ``("idle-close",
    payload)`` sends a 200 that keeps it open and then hangs up, as a
    server does with a connection left idle, ``("late", payload)`` sends a
    200 that keeps it open and 50 ms later a 200 with the content "late"
    that no request asked for, ``("extra", payload)`` sends that unasked
    reply in the same write as the body, and every other kind closes the
    connection.
    Received requests, a proxy's CONNECT among them, accumulate in
    ``requests``. With ``tls`` the server speaks https with the certificate
    ``TLS_CERT``.
    """

    def __init__(self, tls: bool = False, keep_alive: bool = False):
        handler = _KeepAliveHandler if keep_alive else _ScriptedHandler
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self._scheme = "https" if tls else "http"
        if tls:
            context = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
            context.load_cert_chain(TLS_CERT, TLS_KEY)
            self._httpd.socket = context.wrap_socket(self._httpd.socket, server_side=True)
        self._httpd.script = [(200, {"choices": [{"message": {"content": "ok"}}]})]
        self._httpd.requests = []
        self._httpd.lock = threading.Lock()
        # A short poll keeps shutdown() from waiting out the default 0.5 s.
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self._thread.start()

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address
        return f"{self._scheme}://{host}:{port}/v1"

    @property
    def script(self) -> list:
        return self._httpd.script

    @script.setter
    def script(self, entries: list) -> None:
        self._httpd.script = list(entries)

    @property
    def requests(self) -> list:
        return self._httpd.requests

    def reply(self, content: str) -> tuple:
        return (200, {"choices": [{"message": {"content": content}}]})

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()


@pytest.fixture
def http_server():
    server = ScriptedServer()
    yield server
    server.close()


@pytest.fixture
def keep_alive_server():
    server = ScriptedServer(keep_alive=True)
    yield server
    server.close()


@pytest.fixture
def https_server():
    server = ScriptedServer(tls=True)
    yield server
    server.close()


@pytest.fixture
def https_keep_alive_server():
    server = ScriptedServer(tls=True, keep_alive=True)
    yield server
    server.close()
