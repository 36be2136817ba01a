"""Backend client: wire protocol, retry policy, scripted mock."""

from __future__ import annotations

import base64
import gc
import http.client
import io
import json
import os
import random
import select
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatner import Annotation, ChatMessage, ZeroShotNer
from chatner.client import (
    MAX_BACKOFF_MS,
    BackendConfig,
    HttpBackend,
    MockBackend,
    _DeadlineReader,
    _read_body,
    _read_head,
    backoff_delay_ms,
    build_request_body,
    chat_complete,
    validate_conversation,
)
from chatner.errors import (
    AuthenticationError,
    BackendConnectionError,
    BackendError,
    BackendTimeoutError,
    ConfigError,
    ConversationError,
    MalformedResponseError,
    MockScriptError,
    RateLimitError,
    RetriesExhaustedError,
    ServerError,
)
from conftest import assert_time_grows_linearly

CONVO = (ChatMessage("system", "sys"), ChatMessage("user", "hi"))
SRC = Path(__file__).resolve().parents[1] / "src"
TLS_CERT = Path(__file__).parent / "data" / "tls" / "cert.pem"  # the https_server's

# Sends one request to a host that must not be resolved: every name lookup
# other than the loopback address fails, so the check stays offline. The
# client reads the proxy variables once per process, so it runs in a fresh
# interpreter.
PROXY_PROBE = """
import socket

def local_only(real):
    def resolve(host, *args, **kwargs):
        if host not in ("127.0.0.1", "localhost"):
            raise socket.gaierror(socket.EAI_NONAME, f"{host}: not resolved offline")
        return real(host, *args, **kwargs)
    return resolve

for name in ("getaddrinfo", "gethostbyname", "gethostbyname_ex"):
    setattr(socket, name, local_only(getattr(socket, name)))

from chatner import ChatMessage
from chatner.client import BackendConfig, HttpBackend
from chatner.errors import BackendError

convo = (ChatMessage("system", "sys"), ChatMessage("user", "hi"))
config = BackendConfig(base_url="http://example.invalid/v1", api_key="k", timeout=10)
try:
    print(HttpBackend().complete(convo, config))
except BackendError as exc:
    print(type(exc).__name__)
"""

# Prints which modules of the HTTP stack and the thread pool are loaded, in
# a fresh interpreter, before and after code that never opens a socket.
STACK_PROBE = """
import contextlib, io, sys

def loaded():
    print(sorted(set(sys.modules) & {stack!r}))
"""
HTTP_STACK = {
    "http.client", "ssl", "urllib.request", "email.parser", "concurrent.futures",
    "requests", "urllib3", "socket",
}

# Two threads send the first request of a fresh process at the same moment,
# so both load the HTTP stack and build the opener at once.
FIRST_REQUESTS_PROBE = """
import threading
from chatner import ChatMessage
from chatner.client import BackendConfig, HttpBackend

convo = (ChatMessage("system", "sys"), ChatMessage("user", "hi"))
config = BackendConfig(base_url={base_url!r}, api_key="k", timeout=10)
start = threading.Barrier(2)
replies = []

def send():
    start.wait(timeout=10)
    replies.append(HttpBackend().complete(convo, config))

threads = [threading.Thread(target=send) for _ in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=30)
print(sorted(replies))
"""


# Two requests, one after the other, on one backend: the length of the first
# answer and the second answer.
TWO_REQUESTS_PROBE = """
from chatner import ChatMessage
from chatner.client import BackendConfig, HttpBackend

convo = (ChatMessage("system", "sys"), ChatMessage("user", "hi"))
config = BackendConfig(base_url={base_url!r}, api_key="k", timeout=10)
backend = HttpBackend()
print(len(backend.complete(convo, config)), backend.complete(convo, config))
"""


def no_sleep(_seconds: float) -> None:
    pass


def run_python(code: str, **env: str) -> str:
    """Run ``code`` in a fresh interpreter with no proxy settings but ``env``."""
    clean = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    clean["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), clean.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**clean, **env},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stdout.strip()


class TestBackendConfig:
    def test_defaults(self):
        config = BackendConfig()
        assert config.temperature == 0.0
        assert config.max_retries == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": -1.0},
            {"max_retries": -1},
            {"timeout": 0},
            {"max_tokens": 0},
            {"initial_backoff_ms": -1},
            {"temperature": float("nan")},
            {"temperature": float("inf")},
            {"timeout": float("nan")},
            {"timeout": float("inf")},
            {"timeout": 1e12},  # past threading.TIMEOUT_MAX, which a socket refuses
            {"initial_backoff_ms": float("nan")},
            {"initial_backoff_ms": float("inf")},
            {"max_tokens": 10.0},
            {"max_tokens": True},
            {"max_retries": 1.5},
            {"max_retries": True},
            {"base_url": "api.example.com/v1"},
            {"base_url": "file:///tmp"},
            {"base_url": ""},
            {"base_url": None},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            BackendConfig(**kwargs)

    @pytest.mark.parametrize(
        "value", ["0.5", None, True, [1.0]], ids=["str", "None", "bool", "list"]
    )
    @pytest.mark.parametrize("name", ["temperature", "timeout", "initial_backoff_ms"])
    def test_non_number_rejected_by_name(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be a number, got "):
            BackendConfig(**{name: value})

    def test_api_key_falls_back_to_environment(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "from-env")
        assert BackendConfig().resolve_api_key() == "from-env"
        assert BackendConfig(api_key="explicit").resolve_api_key() == "explicit"

    def test_no_key_anywhere_is_none(self, monkeypatch):
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        assert BackendConfig().resolve_api_key() is None


class TestValidateConversation:
    def test_valid_shapes_pass(self):
        validate_conversation(CONVO)
        validate_conversation(
            CONVO
            + (ChatMessage("assistant", "a"), ChatMessage("user", "next"))
        )

    def test_empty_rejected(self):
        with pytest.raises(ConversationError):
            validate_conversation(())

    def test_must_start_with_system(self):
        with pytest.raises(ConversationError):
            validate_conversation((ChatMessage("user", "hi"),))

    def test_must_alternate(self):
        with pytest.raises(ConversationError):
            validate_conversation(
                (ChatMessage("system", "s"), ChatMessage("assistant", "a"))
            )

    def test_must_end_with_user(self):
        with pytest.raises(ConversationError):
            validate_conversation(CONVO + (ChatMessage("assistant", "a"),))


class TestRequestBody:
    def test_exact_wire_shape(self):
        config = BackendConfig(model="m", temperature=0.5, max_tokens=7)
        body = build_request_body(CONVO, config)
        assert body == {
            "model": "m",
            "messages": [
                {"role": "system", "content": "sys"},
                {"role": "user", "content": "hi"},
            ],
            "temperature": 0.5,
            "max_tokens": 7,
        }

    def test_byte_stable(self):
        config = BackendConfig()
        first = json.dumps(build_request_body(CONVO, config), sort_keys=True)
        second = json.dumps(build_request_body(CONVO, config), sort_keys=True)
        assert first == second


class TestHttpBackend:
    def config(self, server, **kwargs):
        kwargs.setdefault("api_key", "k")
        kwargs.setdefault("base_url", server.base_url)
        return BackendConfig(**kwargs)

    def test_success_and_wire_format(self, http_server):
        http_server.script = [http_server.reply("hello back")]
        out = HttpBackend().complete(CONVO, self.config(http_server, model="m1"))
        assert out == "hello back"
        request = http_server.requests[0]
        assert request["path"] == "/v1/chat/completions"
        assert request["authorization"] == "Bearer k"
        assert set(request["body"]) == {"model", "messages", "temperature", "max_tokens"}
        assert request["body"]["model"] == "m1"

    def test_api_key_from_environment(self, http_server, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "env-key")
        config = BackendConfig(base_url=http_server.base_url)
        HttpBackend().complete(CONVO, config)
        assert http_server.requests[-1]["authorization"] == "Bearer env-key"

    @pytest.mark.parametrize(
        "status, exception",
        [
            (401, AuthenticationError),
            (403, AuthenticationError),
            (429, RateLimitError),
            (500, ServerError),
            (503, ServerError),
            (404, BackendError),
        ],
    )
    def test_status_mapping(self, http_server, status, exception):
        http_server.script = [(status, {"error": "scripted"})]
        with pytest.raises(exception):
            HttpBackend().complete(CONVO, self.config(http_server))

    def test_non_json_body_is_malformed(self, http_server):
        http_server.script = [(200, "this is not json")]
        with pytest.raises(MalformedResponseError):
            HttpBackend().complete(CONVO, self.config(http_server))

    def test_missing_choices_is_malformed(self, http_server):
        http_server.script = [(200, {"choices": []})]
        with pytest.raises(MalformedResponseError):
            HttpBackend().complete(CONVO, self.config(http_server))

    def test_non_string_content_is_malformed(self, http_server):
        http_server.script = [(200, {"choices": [{"message": {"content": ["x"]}}]})]
        with pytest.raises(MalformedResponseError, match="content is not a string"):
            HttpBackend().complete(CONVO, self.config(http_server))

    def test_deep_json_body_is_malformed(self, http_server):
        http_server.script = [(200, "[" * 100_000)]
        with pytest.raises(MalformedResponseError):
            HttpBackend().complete(CONVO, self.config(http_server))

    @pytest.mark.parametrize(
        "headers, retry_after",
        [
            ({}, None),
            ({"Retry-After": "7"}, 7.0),
            ({"Retry-After": "0.5"}, 0.5),
            ({"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, None),
            ({"Retry-After": "-1"}, None),
            ({"Retry-After": "nan"}, None),
        ],
        ids=["missing", "integer", "fraction", "date", "negative", "nan"],
    )
    def test_retry_after_read_into_rate_limit_error(self, http_server, headers, retry_after):
        http_server.script = [(429, {"error": "slow down"}, headers)]
        with pytest.raises(RateLimitError) as info:
            HttpBackend().complete(CONVO, self.config(http_server))
        assert info.value.retry_after == retry_after

    def test_timeout(self, http_server):
        http_server.script = [("sleep", 0.5)]
        with pytest.raises(BackendTimeoutError):
            HttpBackend().complete(CONVO, self.config(http_server, timeout=0.1))

    @pytest.mark.parametrize(
        "entry",
        [("trickle", {"choices": [{"message": {"content": "ok"}}]}), ("continues", None)],
        ids=["body one byte every 50 ms", "100 Continue without end"],
    )
    def test_timeout_bounds_the_whole_request(self, http_server, entry):
        # Each read waits 50 ms, well under the timeout; the whole reply would
        # take 2.3 s, or as long as the server keeps sending 100 Continue.
        http_server.script = [entry]
        start = time.monotonic()
        with pytest.raises(BackendTimeoutError):
            HttpBackend().complete(CONVO, self.config(http_server, timeout=0.2))
        assert time.monotonic() - start < 1

    def test_connection_refused(self):
        config = BackendConfig(base_url="http://127.0.0.1:9/v1", timeout=2)
        with pytest.raises(BackendConnectionError):
            HttpBackend().complete(CONVO, config)


BROKEN_REPLIES = [
    ("close", None),
    ("truncated", {"choices": [{"message": {"content": "cut"}}]}),
    (200, "[" * 100_000),  # too deep for json.loads: a RecursionError, not a ValueError
]


class TestTransportContract:
    """Failures below the HTTP status line, and bodies that cannot be decoded,
    stay typed, per document."""

    @pytest.mark.parametrize("entry", BROKEN_REPLIES)
    def test_broken_reply_is_a_backend_error(self, http_server, entry):
        http_server.script = [entry]
        config = BackendConfig(base_url=http_server.base_url, api_key="k", timeout=10)
        with pytest.raises(BackendError):
            HttpBackend().complete(CONVO, config)

    @pytest.mark.parametrize("entry", BROKEN_REPLIES)
    def test_broken_reply_fails_only_its_document(self, http_server, entry):
        http_server.script = [entry, http_server.reply("<person>Ada</person> wrote it")]
        model = ZeroShotNer(
            base_url=http_server.base_url, api_key="k", timeout=10, max_retries=0
        ).contextualize({"person": "A name."})
        first, second = model.predict(["Bo wrote it", "Ada wrote it"], max_concurrency=1)
        assert isinstance(first.error, BackendError)
        assert first.document.annotations == frozenset()
        assert second.ok
        assert second.document.annotations == {Annotation(0, 3, "person")}

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_not_followed(self, http_server, status):
        http_server.script = [(status, {"error": "moved"}), http_server.reply("ok")]
        config = BackendConfig(base_url=http_server.base_url, api_key="k")
        with pytest.raises(BackendError, match=f"unexpected status {status}") as info:
            HttpBackend().complete(CONVO, config)
        assert type(info.value) is BackendError
        assert len(http_server.requests) == 1

    def test_unsendable_header_is_a_backend_error(self, http_server):
        config = BackendConfig(base_url=http_server.base_url, api_key="k\nX-Evil: 1")
        with pytest.raises(BackendError):
            HttpBackend().complete(CONVO, config)
        assert http_server.requests == []

    def test_proxy_receives_absolute_url(self, http_server):
        host, port = http_server.base_url.split("/")[2].split(":")
        out = run_python(PROXY_PROBE, HTTP_PROXY=f"http://{host}:{port}")
        assert out == "ok"
        assert [r["path"] for r in http_server.requests] == [
            "http://example.invalid/v1/chat/completions"
        ]

    def test_no_proxy_bypasses_the_proxy(self, http_server):
        host, port = http_server.base_url.split("/")[2].split(":")
        out = run_python(
            PROXY_PROBE, HTTP_PROXY=f"http://{host}:{port}", NO_PROXY="example.invalid"
        )
        assert out == "BackendConnectionError"
        assert http_server.requests == []

    def test_cli_import_loads_no_http_library(self, tmp_path):
        from chatner import document_to_record, read_conll_file

        gold = Path(__file__).parent / "data" / "sample50_iob2.conll"
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text(
            "".join(
                json.dumps(document_to_record(doc)) + "\n" for doc in read_conll_file(gold)
            ),
            encoding="utf-8",
        )
        probe = STACK_PROBE.format(stack=HTTP_STACK | {"click"})
        library = run_python(
            probe
            + "import chatner\n"
            "loaded()\n"
            "model = chatner.ZeroShotNer(\n"
            "    backend=chatner.MockBackend(matchers=[('', '<person>Ada</person> wrote it')]),\n"
            "    max_concurrency=1,\n"
            ").contextualize({'person': 'A name.'})\n"
            "assert all(r.ok for r in model.predict(['Ada wrote it'] * 3))\n"
            "loaded()\n"
        )
        assert library.splitlines() == ["[]", "[]"]
        command = run_python(
            probe
            + "import chatner.cli\n"
            "loaded()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    chatner.cli.main.main(\n"
            f"        args=['evaluate', '--gold', {str(gold)!r},\n"
            f"              '--predictions', {str(predictions)!r}],\n"
            "        standalone_mode=False,\n"
            "    )\n"
            "loaded()\n"
        )
        assert command.splitlines() == ["[]", "[]"]

    def test_concurrent_first_requests_in_a_fresh_process(self, http_server):
        out = run_python(FIRST_REQUESTS_PROBE.format(base_url=http_server.base_url))
        assert out == "['ok', 'ok']"
        assert len(http_server.requests) == 2


OK_BODY = {"choices": [{"message": {"content": "ok"}}]}
HEAD = b"HTTP/1.1 200 OK\r\n"
# Replies at http.client's bounds: a 65,536-byte header line, and 100 headers.
LONGEST_LINE = b"X-Long: " + b"a" * (65_536 - 10) + b"\r\n"
MOST_HEADERS = b"X-Many: 1\r\n" * 100
LENGTH = b"Content-Length: %d\r\n" % len(json.dumps(OK_BODY))


class TestHttpExchange:
    """The one request and reply each call makes, byte by byte."""

    def complete(self, server):
        config = BackendConfig(base_url=server.base_url, api_key="k", timeout=10)
        return HttpBackend().complete(CONVO, config)

    @pytest.mark.parametrize(
        "entry",
        [
            ("chunked", OK_BODY),
            ("unsized", OK_BODY),
            ("continue", OK_BODY),
            ("raw", HEAD + LONGEST_LINE + b"\r\n" + json.dumps(OK_BODY).encode()),
            ("raw", HEAD + MOST_HEADERS + b"\r\n" + json.dumps(OK_BODY).encode()),
            ("raw", HEAD + LENGTH * 2 + b"\r\n" + json.dumps(OK_BODY).encode()),
            # Chunked only as the final coding; else read until the server closes.
            ("raw", HEAD + b"Transfer-Encoding: chunked, identity\r\n" + LENGTH + b"\r\n"
             + json.dumps(OK_BODY).encode()),
            ("raw", HEAD + b"Transfer-Encoding: notchunked\r\n\r\n" + json.dumps(OK_BODY).encode()),
        ],
        ids=["chunked", "until-close", "100-continue", "longest-line", "most-headers",
             "repeated-length", "chunked-not-last", "not-chunked"],
    )
    def test_reply_framings_read(self, http_server, entry):
        http_server.script = [entry]
        assert self.complete(http_server) == "ok"

    @pytest.mark.parametrize(
        "raw",
        [
            HEAD + b"a" + LONGEST_LINE + b"\r\n{}",
            HEAD + MOST_HEADERS + b"X-Many: 1\r\n\r\n{}",
            b"garbage\r\n\r\n{}",
            b"HTTP/1.1 20 OK\r\n\r\n{}",
            HEAD + b"Content-Length: two\r\n\r\n{}",
            HEAD + b"Content-Length: -2\r\n\r\n{}",
            HEAD + b"Transfer-Encoding: chunked\r\n\r\nzz\r\n",
            HEAD + b"Transfer-Encoding: chunked\r\n\r\n5\r\n{}",
            HEAD + b"Transfer-Encoding: chunked\r\n\r\n1\r\n{}\r\n0\r\n\r\n",
            HEAD + b"Transfer-Encoding: chunked\r\n\r\n-5\r\n{}\r\n0\r\n\r\n",
            HEAD,
            HEAD + b"Content-Length: 3\r\n" + LENGTH + b"\r\n" + json.dumps(OK_BODY).encode(),
        ],
        ids=["line-too-long", "too-many-headers", "garbage-status", "short-status",
             "non-numeric-length", "negative-length", "bad-chunk-size", "chunk-cut-short",
             "chunk-past-its-size", "negative-chunk-size",
             "no-end-of-headers", "conflicting-lengths"],
    )
    def test_broken_framing_is_a_connection_error(self, http_server, raw):
        http_server.script = [("raw", raw)]
        with pytest.raises(BackendConnectionError):
            self.complete(http_server)

    @pytest.mark.parametrize("api_key", ["k\0ey", "ключ"], ids=["nul", "not-latin-1"])
    def test_unsendable_key_sends_nothing(self, http_server, api_key):
        config = BackendConfig(base_url=http_server.base_url, api_key=api_key)
        with pytest.raises(BackendError) as info:
            HttpBackend().complete(CONVO, config)
        assert type(info.value) is BackendError
        assert api_key not in str(info.value)
        assert http_server.requests == []

    def test_https_verified_against_ssl_cert_file(self, https_server):
        out = run_python(
            FIRST_REQUESTS_PROBE.format(base_url=https_server.base_url),
            SSL_CERT_FILE=str(TLS_CERT),
        )
        assert out == "['ok', 'ok']"
        assert len(https_server.requests) == 2

    def test_failed_tls_handshake_is_a_connection_error(self, https_server):
        with pytest.raises(BackendConnectionError, match="CERTIFICATE_VERIFY_FAILED"):
            self.complete(https_server)
        assert https_server.requests == []

    def test_https_through_a_proxy_asks_for_a_tunnel(self, http_server):
        http_server.script = [(502, {"error": "no route"})]
        host, port = http_server.base_url.split("/")[2].split(":")
        probe = PROXY_PROBE.replace("http://example.invalid", "https://example.invalid")
        out = run_python(probe, HTTPS_PROXY=f"http://{host}:{port}")
        assert out == "BackendConnectionError"
        assert [(r["method"], r["path"]) for r in http_server.requests] == [
            ("CONNECT", "example.invalid:443")
        ]

    @pytest.mark.parametrize("scheme", ["http", "https"])
    def test_proxy_credentials_sent_to_the_proxy(self, http_server, scheme):
        http_server.script = [(502, {"error": "no route"})]
        host, port = http_server.base_url.split("/")[2].split(":")
        probe = PROXY_PROBE.replace("http://example.invalid", f"{scheme}://example.invalid")
        run_python(probe, **{f"{scheme.upper()}_PROXY": f"http://ada:p%40ss@{host}:{port}"})
        expected = "Basic " + base64.b64encode(b"ada:p@ss").decode()
        assert [r["proxy_authorization"] for r in http_server.requests] == [expected]
        assert http_server.requests[0]["authorization"] == (None if scheme == "https" else "Bearer k")


class _ReplyBytes:
    """A socket whose only use is ``makefile``, holding one reply."""

    def __init__(self, raw: bytes):
        self._raw = raw

    def makefile(self, mode):
        return io.BytesIO(self._raw)


def _te_framing_differs(headers) -> bool:
    """Whether Transfer-Encoding makes chatner and http.client frame the
    body differently. chatner joins the headers into one list of codings,
    empty elements left out, reads the body chunked where chunked is the
    last coding, and until close under any other. http.client reads it
    chunked only where the first header, trailing blanks kept, is exactly
    "chunked", and else by Content-Length."""
    values = [value for name, _, value in headers if name.lower() == "transfer-encoding"]
    ours = [coding.strip() for coding in ",".join(values).split(",") if coding.strip()]
    theirs = values[0].lstrip(" \t") if values else ""
    chunked = bool(ours) and ours[-1].lower() == "chunked"
    if chunked != (theirs.lower() == "chunked"):
        return True
    return bool(ours) and not chunked and any(
        name.lower() == "content-length" for name, _, _ in headers
    )


# Replies that chatner reads to a status and body other than http.client's,
# or that http.client refuses, each for the reason in its comment. chatner
# follows RFC 9112 where the two part.
KNOWN_DIVERGENCES = {
    # An interim reply other than 100 Continue (103 Early Hints, say): chatner
    # skips every 1xx, as RFC 9110 section 15.2 asks; http.client skips only
    # 100 and returns any other 1xx as the final reply.
    "interim-1xx": lambda reply: any(code != "100" for code in reply["interim"]),
    # A major version other than 1: http.client refuses it, chatner reads the
    # reply with HTTP/1.1 framing whatever version it names.
    "version": lambda reply: not (reply["version"].startswith("HTTP/1.")
                                  or reply["version"] == "HTTP/0.9"),
    # 204 and 304 have no body (RFC 9112 section 6.3); http.client reads
    # none, chatner reads what the headers frame and uses only a 200's body.
    "no-body-status": lambda reply: reply["status"] in ("204", "304"),
    # Blanks between a field name and its colon: RFC 9112 section 5.1 has a
    # recipient reject the field or strip the blanks; chatner strips them,
    # http.client's parser ends the headers at that line.
    "blank-before-colon": lambda reply: any(gap for _, gap, _ in reply["headers"]),
    # Chunked framing only where chunked is the last coding listed across
    # the Transfer-Encoding headers, and else the body runs until the
    # connection closes, whatever Content-Length says (RFC 9112 section 6.3,
    # RFC 9110 sections 5.3 and 5.6.1); http.client reads a chunked body
    # only where the first header is exactly "chunked", and otherwise
    # honours Content-Length.
    "transfer-encoding": lambda reply: _te_framing_differs(reply["headers"]),
}

_NAMES = ["Content-Length", "content-length", "CONTENT-LENGTH", "Content-length",
          "Transfer-Encoding", "transfer-encoding", "TRANSFER-ENCODING", "X-Other"]


@st.composite
def http_replies(draw):
    """A reply as bytes, whole or cut, with the parts it was built from."""
    body = draw(st.binary(max_size=24))
    chunked = draw(st.booleans())
    if chunked:
        cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=3)))
        pieces = [body[a:b] for a, b in zip([0, *cuts], [*cuts, len(body)]) if b > a]
        extension = st.sampled_from(["", ";ext", ";a=b", " ;x=\"y\""])
        digits = draw(st.sampled_from(["%x", "%X", "%03x"]))
        # A chunk may run past its size line ("x" before its CRLF).
        ending = st.sampled_from([b"\r\n", b"\r\n", b"\r\n", b"x\r\n"])
        framed = b"".join(
            (digits % len(piece) + draw(extension) + "\r\n").encode() + piece + draw(ending)
            for piece in pieces
        )
        framed += ("0" + draw(extension) + "\r\n").encode()
        framed += b"".join(draw(st.lists(st.sampled_from([b"X-Trailer: t\r\n", b"Expires: 0\r\n"]),
                                         max_size=2)))
        framed += b"\r\n"
    else:
        framed = body
    lengths = [str(len(framed))] * 4 + [str(len(framed) + 3), str(max(len(framed) - 1, 0)),
                                         "0", "00" + str(len(framed)), "-1", "+4", "", "1x"]
    codings = ["chunked", "Chunked", "identity", "gzip, chunked", "chunked, gzip",
               "chunked,identity", "gzip", "", "chunked, "]
    # Mostly a well-formed header that frames the body as built, then
    # headers that may repeat, contradict or misspace it.
    headers = []
    if draw(st.integers(0, 3)):
        kind = "transfer-encoding" if chunked else "content-length"
        name = draw(st.sampled_from([name for name in _NAMES if name.lower() == kind]))
        value = "chunked" if chunked else str(len(framed))
        headers.append((name, "", draw(st.sampled_from(["", " "])) + value))
    for name in draw(st.lists(st.sampled_from(_NAMES), max_size=3)):
        if name.lower() == "content-length":
            value = draw(st.sampled_from(lengths))
        elif name.lower() == "transfer-encoding":
            value = draw(st.sampled_from(codings))
        else:
            value = "x"
        before = draw(st.sampled_from(["", " ", "  ", "\t"]))
        after = draw(st.sampled_from(["", "", " "]))
        gap = draw(st.sampled_from(["", "", "", " "]))
        headers.append((name, gap, before + value + after))
    interim = draw(st.lists(st.sampled_from(["100", "100", "100", "103"]), max_size=2))
    version = draw(st.sampled_from(["HTTP/1.1"] * 3 + ["HTTP/1.0", "HTTP/0.9", "HTTP/2"]))
    status = draw(st.sampled_from(["200", "200", "200", "204", "304", "404", "429", "503",
                                   "101", "20", "2000", "abc"]))
    reason = draw(st.sampled_from([" OK", "", " ", "\tOK", " Not Found"]))
    end = draw(st.sampled_from(["\r\n", "\n"]))
    head = "".join(f"HTTP/1.1 {code} Info{end}{end}" for code in interim)
    head += f"{version} {status}{reason}{end}"
    head += "".join(f"{name}{gap}:{value}{end}" for name, gap, value in headers) + end
    raw = head.encode("latin-1") + framed
    if draw(st.integers(0, 3)) == 0:
        raw = raw[: draw(st.integers(0, len(raw)))]
    return raw, {"interim": interim, "version": version, "status": status, "headers": headers}


class TestReplyReaderOracle:
    """chatner's reply reader against http.client's on generated replies."""

    @given(http_replies())
    @settings(max_examples=500, deadline=None)
    def test_reads_like_http_client_or_refuses(self, case):
        raw, reply = case
        stream = io.BytesIO(raw)
        try:
            _, status, headers = _read_head(stream)
            body, _ = _read_body(stream, headers)
        except (ValueError, OSError):
            return  # chatner may refuse any reply
        response = http.client.HTTPResponse(_ReplyBytes(raw), method="POST")
        try:
            response.begin()
            theirs = (response.status, response.read())
        except (http.client.HTTPException, OSError, ValueError) as exc:
            theirs = exc
        if theirs == (status, body):
            return
        known = [name for name, applies in KNOWN_DIVERGENCES.items() if applies(reply)]
        assert known, f"chatner read {(status, body)!r}, http.client {theirs!r}, from {raw!r}"


def _read_reply(raw: bytes) -> tuple[int, bytes]:
    stream = io.BytesIO(raw)
    _, status, headers = _read_head(stream)
    return status, _read_body(stream, headers)[0]


class TestReplyReader:
    def test_repeated_transfer_encoding_lines_form_one_list(self):
        # The empty second line adds no coding, so chunked stays the last.
        raw = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding:\r\n\r\n"
               b"2\r\nhi\r\n0\r\n\r\n")
        assert _read_reply(raw) == (200, b"hi")
        response = http.client.HTTPResponse(_ReplyBytes(raw), method="POST")
        response.begin()
        assert response.read() == b"hi"

    def test_read_after_the_deadline_times_out(self):
        left, right = socket.socketpair()
        with left, right:
            right.sendall(b"HTTP/1.1 200 OK\r\n")
            reader = _DeadlineReader(left, time.monotonic() - 1, None)
            with pytest.raises(TimeoutError, match="deadline passed"):
                reader.readinto(bytearray(16))
            assert reader.received == 0

    def test_time_grows_linearly(self):
        # A body of n one-byte chunks: one size line and one chunk end each.
        def reply(n):
            return b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + (
                b"1\r\na\r\n" * n + b"0\r\n\r\n"
            )

        assert_time_grows_linearly(_read_reply, reply, 80_000, "one-byte chunks")


@pytest.fixture
def dialled(monkeypatch):
    """Every socket the client opens, in order."""
    sockets, connect = [], socket.create_connection

    def create_connection(*args, **kwargs):
        sockets.append(connect(*args, **kwargs))
        return sockets[-1]

    monkeypatch.setattr(socket, "create_connection", create_connection)
    return sockets


# Twenty sequential calls on one reused connection took 22-49 ms on a shared
# 2-vCPU Linux machine, and 0.9-1.0 s when the client did not ask for quick
# ACKs; the bound leaves eight times the slowest measured run.
STALL_BOUND_S = 0.4


class TestConnectionPool:
    """Which connections are kept for the next request, and which are closed."""

    def config(self, server, timeout=10.0):
        return BackendConfig(base_url=server.base_url, api_key="k", timeout=timeout)

    def test_sequential_calls_share_one_connection(self, keep_alive_server, dialled):
        backend = HttpBackend()
        for _ in range(5):
            assert backend.complete(CONVO, self.config(keep_alive_server)) == "ok"
        assert len(dialled) == 1
        assert len({r["client"] for r in keep_alive_server.requests}) == 1
        assert [r["connection"] for r in keep_alive_server.requests] == [None] * 5

    def test_http10_server_gets_one_connection_per_call(self, http_server, dialled):
        backend = HttpBackend()
        for calls in range(1, 4):
            assert backend.complete(CONVO, self.config(http_server)) == "ok"
            assert len(dialled) == calls
            assert all(sock.fileno() == -1 for sock in dialled)  # none kept
        assert len({r["client"] for r in http_server.requests}) == 3

    def test_idle_connection_closed_by_the_server_costs_one_reopen(
        self, keep_alive_server, dialled
    ):
        keep_alive_server.script = [("idle-close", OK_BODY), keep_alive_server.reply("again")]
        backend = HttpBackend()
        assert backend.complete(CONVO, self.config(keep_alive_server)) == "ok"
        assert dialled[0].fileno() != -1  # kept: the reply did not say it would close
        assert backend.complete(CONVO, self.config(keep_alive_server)) == "again"
        assert len(dialled) == 2
        assert len(keep_alive_server.requests) == 2

    def test_failure_on_the_reopened_connection_is_not_retried(
        self, keep_alive_server, dialled
    ):
        keep_alive_server.script = [("idle-close", OK_BODY), ("close", None)]
        backend = HttpBackend()
        assert backend.complete(CONVO, self.config(keep_alive_server)) == "ok"
        with pytest.raises(BackendConnectionError):
            backend.complete(CONVO, self.config(keep_alive_server))
        assert len(dialled) == 2
        assert len(keep_alive_server.requests) == 2

    def test_reused_connection_closed_unanswered_is_reopened_once(
        self, keep_alive_server, dialled
    ):
        # The connection passes the readiness poll and is closed only after
        # the server has read the second request, so no byte of a reply
        # arrives: the request goes once more, on a new connection.
        keep_alive_server.script = [
            keep_alive_server.reply("one"), ("close", None), keep_alive_server.reply("two")
        ]
        backend = HttpBackend()
        assert backend.complete(CONVO, self.config(keep_alive_server)) == "one"
        assert backend.complete(CONVO, self.config(keep_alive_server)) == "two"
        assert len(keep_alive_server.requests) == 3
        assert len(dialled) == 2
        assert len({r["client"] for r in keep_alive_server.requests}) == 2

    def test_reopened_connection_closed_unanswered_fails(self, keep_alive_server, dialled):
        keep_alive_server.script = [
            keep_alive_server.reply("one"), ("close", None), ("close", None)
        ]
        backend = HttpBackend()
        assert backend.complete(CONVO, self.config(keep_alive_server)) == "one"
        with pytest.raises(BackendConnectionError):
            backend.complete(CONVO, self.config(keep_alive_server))
        assert len(keep_alive_server.requests) == 3
        assert len(dialled) == 2
        assert len({r["client"] for r in keep_alive_server.requests}) == 2

    def test_reply_cut_short_on_a_reused_connection_is_not_resent(
        self, keep_alive_server, dialled
    ):
        keep_alive_server.script = [
            keep_alive_server.reply("ok"), ("truncated", OK_BODY), keep_alive_server.reply("next")
        ]
        backend = HttpBackend()
        assert backend.complete(CONVO, self.config(keep_alive_server)) == "ok"
        with pytest.raises(BackendConnectionError, match="cut short"):
            backend.complete(CONVO, self.config(keep_alive_server))
        assert len(dialled) == 1
        assert len(keep_alive_server.requests) == 2

    @pytest.mark.parametrize(
        "entry",
        [(200, OK_BODY, {"Connection": "close"}), ("unsized", OK_BODY),
         ("raw", HEAD + b"Transfer-Encoding: chunked, identity\r\n\r\n"
          + json.dumps(OK_BODY).encode())],
        ids=["connection-close", "unsized", "chunked-not-last"],
    )
    def test_reply_that_ends_its_connection_is_not_reused(
        self, keep_alive_server, dialled, entry
    ):
        keep_alive_server.script = [entry, keep_alive_server.reply("next")]
        backend = HttpBackend()
        assert backend.complete(CONVO, self.config(keep_alive_server)) == "ok"
        assert dialled[0].fileno() == -1
        assert backend.complete(CONVO, self.config(keep_alive_server)) == "next"
        assert len(dialled) == 2

    def test_reply_nobody_asked_for_is_not_taken_as_the_next_answer(
        self, keep_alive_server, dialled
    ):
        keep_alive_server.script = [("late", OK_BODY), keep_alive_server.reply("next")]
        backend = HttpBackend()
        assert backend.complete(CONVO, self.config(keep_alive_server)) == "ok"
        # The unrequested reply arrives while the connection idles in the pool.
        assert select.select([dialled[0]], [], [], 5)[0]
        assert backend.complete(CONVO, self.config(keep_alive_server)) == "next"
        assert dialled[0].fileno() == -1
        assert len(dialled) == 2
        assert len(keep_alive_server.requests) == 2

    def test_reply_read_ahead_of_the_next_request_is_not_reused(
        self, keep_alive_server, dialled
    ):
        # The unrequested reply comes in the body's write, so the client's
        # reader holds it and the socket itself has nothing left to poll.
        keep_alive_server.script = [("extra", OK_BODY), keep_alive_server.reply("next")]
        backend = HttpBackend()
        assert backend.complete(CONVO, self.config(keep_alive_server)) == "ok"
        assert dialled[0].fileno() == -1
        assert backend.complete(CONVO, self.config(keep_alive_server)) == "next"
        assert len(dialled) == 2
        assert len(keep_alive_server.requests) == 2

    def test_reply_held_by_tls_past_the_body_is_not_reused(self, https_keep_alive_server):
        # A body of whole reader buffers is read straight from TLS, so a
        # reply sent in the same write stays decrypted inside the TLS object,
        # where neither the reader's buffer nor poll() shows it.
        server = https_keep_alive_server
        content = "x" * (io.DEFAULT_BUFFER_SIZE - len(json.dumps(OK_BODY)) + len("ok"))
        body = json.dumps({"choices": [{"message": {"content": content}}]})
        assert len(body) == io.DEFAULT_BUFFER_SIZE
        server.script = [("extra", body), server.reply("next")]
        out = run_python(TWO_REQUESTS_PROBE.format(base_url=server.base_url),
                         SSL_CERT_FILE=str(TLS_CERT))
        assert out == f"{len(content)} next"
        assert len({r["client"] for r in server.requests}) == 2

    def test_timeout_mid_body_is_not_reused(self, keep_alive_server, dialled):
        keep_alive_server.script = [("trickle", OK_BODY), keep_alive_server.reply("next")]
        backend = HttpBackend()
        with pytest.raises(BackendTimeoutError):
            backend.complete(CONVO, self.config(keep_alive_server, timeout=0.2))
        assert dialled[0].fileno() == -1
        assert backend.complete(CONVO, self.config(keep_alive_server)) == "next"
        assert len(dialled) == 2

    def test_timeout_bounds_a_request_on_a_reused_connection(
        self, keep_alive_server, dialled
    ):
        keep_alive_server.script = [keep_alive_server.reply("ok"), ("trickle", OK_BODY)]
        backend = HttpBackend()
        assert backend.complete(CONVO, self.config(keep_alive_server, timeout=0.2)) == "ok"
        start = time.monotonic()
        with pytest.raises(BackendTimeoutError):
            backend.complete(CONVO, self.config(keep_alive_server, timeout=0.2))
        assert time.monotonic() - start < 1
        assert len(dialled) == 1

    def test_dropped_backend_closes_its_idle_sockets(self, keep_alive_server, dialled):
        backend = HttpBackend()
        assert backend.complete(CONVO, self.config(keep_alive_server)) == "ok"
        assert dialled[0].fileno() != -1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del backend
            gc.collect()
            assert dialled[0].fileno() == -1
            dialled.clear()
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_concurrent_callers_never_share_a_connection(self, keep_alive_server, dialled):
        workers, calls = 8, 25
        backend = HttpBackend()
        config = self.config(keep_alive_server)
        replies, start = [], threading.Barrier(workers)

        def send():
            start.wait(timeout=10)
            for _ in range(calls):
                replies.append(backend.complete(CONVO, config))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=send) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert replies == ["ok"] * (workers * calls)
        assert 1 <= len(dialled) <= workers
        # Every socket went back to the pool: dropping the backend closes them all.
        del backend
        gc.collect()
        assert all(sock.fileno() == -1 for sock in dialled)

    @pytest.mark.skipif(
        not hasattr(socket, "TCP_QUICKACK"), reason="the platform has no TCP_QUICKACK"
    )
    def test_two_write_replies_do_not_wait_for_a_delayed_ack(
        self, keep_alive_server, dialled
    ):
        """The server sends the headers and the body in two writes with Nagle's
        algorithm on; on a reused connection the body would wait about 40 ms
        for the client's delayed ACK of the headers. Skipped where
        ``socket.TCP_QUICKACK`` is missing (it is Linux's): there the client
        cannot ask for an immediate ACK, and such a server stalls it."""
        backend = HttpBackend()
        config = self.config(keep_alive_server)
        assert backend.complete(CONVO, config) == "ok"
        start = time.perf_counter()
        for _ in range(20):
            assert backend.complete(CONVO, config) == "ok"
        assert time.perf_counter() - start < STALL_BOUND_S
        assert len(dialled) == 1


class TestMockBackend:
    def test_sequence_replay(self):
        backend = MockBackend(replies=["a", "b"])
        assert backend.complete(CONVO, BackendConfig()) == "a"
        assert backend.complete(CONVO, BackendConfig()) == "b"

    def test_sequence_exhaustion_raises(self):
        backend = MockBackend(replies=["only"])
        backend.complete(CONVO, BackendConfig())
        with pytest.raises(MockScriptError):
            backend.complete(CONVO, BackendConfig())

    def test_scripted_exception_is_raised(self):
        backend = MockBackend(replies=[RateLimitError("scripted"), "later"])
        with pytest.raises(RateLimitError):
            backend.complete(CONVO, BackendConfig())
        assert backend.complete(CONVO, BackendConfig()) == "later"

    def test_long_script_replays_in_linear_time(self):
        # 200,000 replies replay in 0.33 s on a 2-vCPU machine (0.46 s under
        # -X dev); taking each from the front of the list took 4.9 to 5.2 s.
        # The bound leaves about four times the measured time.
        n, config = 200_000, BackendConfig()
        started = time.perf_counter()
        backend = MockBackend(replies=[str(k) for k in range(n)])
        replies = [backend.complete(CONVO, config) for _ in range(n)]
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"{n:,} replies took {elapsed:.2f} s"
        assert replies[0] == "0" and replies[-1] == str(n - 1)
        with pytest.raises(MockScriptError, match=f"exhausted after {n} calls"):
            backend.complete(CONVO, config)
        assert len(backend.calls) == n + 1

    def test_substring_matcher_ignores_call_order(self):
        backend = MockBackend(
            matchers=[("entity location", "LOC"), ("entity person", "PER")]
        )
        person_convo = CONVO[:1] + (ChatMessage("user", "the entity person here"),)
        assert backend.complete(person_convo, BackendConfig()) == "PER"
        location_convo = CONVO[:1] + (ChatMessage("user", "the entity location here"),)
        assert backend.complete(location_convo, BackendConfig()) == "LOC"

    def test_matcher_looks_at_last_user_message(self):
        backend = MockBackend(matchers=[("needle", "found")])
        convo = (
            ChatMessage("system", "needle in the system prompt does not count"),
            ChatMessage("user", "nothing here"),
        )
        with pytest.raises(MockScriptError):
            backend.complete(convo, BackendConfig())

    def test_callable_matcher_sees_conversation(self):
        backend = MockBackend(
            matchers=[(lambda convo: len(convo) > 2, "long"), ("", "short")]
        )
        assert backend.complete(CONVO, BackendConfig()) == "short"
        longer = CONVO + (ChatMessage("assistant", "a"), ChatMessage("user", "u"))
        assert backend.complete(longer, BackendConfig()) == "long"

    def test_first_matching_rule_wins(self):
        backend = MockBackend(matchers=[("hi", "first"), ("hi", "second")])
        assert backend.complete(CONVO, BackendConfig()) == "first"

    def test_calls_recorded(self):
        backend = MockBackend(replies=["a"])
        backend.complete(CONVO, BackendConfig())
        assert len(backend.calls) == 1
        assert backend.calls[0][-1].content == "hi"

    def test_exactly_one_mode_required(self):
        with pytest.raises(ConfigError):
            MockBackend()
        with pytest.raises(ConfigError):
            MockBackend(replies=["a"], matchers=[("x", "y")])
        with pytest.raises(ConfigError):
            MockBackend(replies=[])

    def test_from_file_replies(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"replies": ["one", "two"]}))
        backend = MockBackend.from_file(path)
        assert backend.complete(CONVO, BackendConfig()) == "one"

    def test_from_file_matchers(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"matchers": [["hi", "reply"]]}))
        backend = MockBackend.from_file(path)
        assert backend.complete(CONVO, BackendConfig()) == "reply"

    @pytest.mark.parametrize(
        "payload",
        ["[]", '{"replies": "x"}', '{"matchers": [["just-one"]]}', '{"other": 1}'],
    )
    def test_from_file_rejects_bad_shapes(self, tmp_path, payload):
        path = tmp_path / "script.json"
        path.write_text(payload)
        with pytest.raises(ConfigError):
            MockBackend.from_file(path)

    @pytest.mark.parametrize(
        "script, message",
        [
            ({"replies": "<PER>Ada</PER> ran"},
             "replies must be a non-empty list, got '<PER>Ada</PER> ran'"),
            ({"replies": []}, "replies must be a non-empty list, got []"),
            ({"matchers": ()}, "matchers must be a non-empty list, got ()"),
            ({"replies": ["a", 5]},
             "replies[1] must be a string or an exception instance, got 5"),
            ({"matchers": [("Ada",)]},
             "matchers[0] must be a (substring or callable, reply) pair, got ('Ada',)"),
            ({"matchers": [(3, "x")]},
             "matchers[0] must be a (substring or callable, reply) pair, got (3, 'x')"),
            ({"matchers": [("Ada", None)]},
             "the reply of matchers[0] must be a string or an exception instance, got None"),
        ],
        ids=["string replies", "empty replies", "empty matchers", "non-string reply",
             "one-element matcher", "non-string substring", "non-string matcher reply"],
    )
    def test_constructor_rejects_bad_scripts(self, script, message):
        with pytest.raises(ConfigError) as caught:
            MockBackend(**script)
        assert str(caught.value) == message

    def test_from_file_error_names_the_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text('{"matchers": [["Ada", 3]]}')
        with pytest.raises(ConfigError) as caught:
            MockBackend.from_file(path)
        assert str(caught.value) == (
            f"mock script {path}: the reply of matchers[0] must be a string "
            "or an exception instance, got 3"
        )

    def test_scripted_exception_as_matcher_reply(self):
        backend = MockBackend(matchers=[("hi", RateLimitError("scripted"))])
        with pytest.raises(RateLimitError):
            backend.complete(CONVO, BackendConfig())


class TestBackoff:
    @given(st.integers(0, 20), st.integers())
    @settings(max_examples=200, deadline=None)
    def test_jitter_bounds_and_cap(self, attempt, seed):
        delay = backoff_delay_ms(attempt, 500.0, random.Random(seed))
        assert delay <= 30_000
        assert delay <= 500.0 * (2**attempt) * 1.2
        assert delay >= min(500.0 * (2**attempt) * 0.8, 30_000)

    @given(st.integers())
    @settings(max_examples=200, deadline=None)
    def test_non_decreasing_across_attempts(self, seed):
        rng = random.Random(seed)
        delays = [backoff_delay_ms(attempt, 500.0, rng) for attempt in range(12)]
        assert delays == sorted(delays)

    @pytest.mark.parametrize(
        "initial_ms, expected",
        [(0.0, 0.0), (0, 0.0), (500.0, MAX_BACKOFF_MS), (500, MAX_BACKOFF_MS)],
    )
    def test_long_retry_runs_do_not_overflow(self, initial_ms, expected):
        delays = [
            backoff_delay_ms(attempt, initial_ms, random.Random(attempt))
            for attempt in (1_022, 1_023, 1_024, 5_000)
        ]
        assert delays == [expected] * 4


class TestChatComplete:
    def test_mock_passthrough(self):
        out = chat_complete(CONVO, BackendConfig(), MockBackend(replies=["OK"]))
        assert out == "OK"

    def test_retries_on_rate_limit_then_succeeds(self):
        backend = MockBackend(
            replies=[RateLimitError("1"), RateLimitError("2"), "made it"]
        )
        sleeps: list[float] = []
        out = chat_complete(
            CONVO,
            BackendConfig(max_retries=3),
            backend,
            sleep=sleeps.append,
            rng=random.Random(0),
        )
        assert out == "made it"
        assert len(backend.calls) == 3
        assert len(sleeps) == 2
        assert sleeps == sorted(sleeps)

    @pytest.mark.parametrize(
        "retry_after, expected_s",
        [(None, None), (0.0, None), (7.0, 7.0), (100.0, MAX_BACKOFF_MS / 1000)],
    )
    def test_sleeps_the_longer_of_backoff_and_retry_after(self, retry_after, expected_s):
        backend = MockBackend(replies=[RateLimitError("slow down", retry_after), "ok"])
        sleeps: list[float] = []
        out = chat_complete(
            CONVO,
            BackendConfig(initial_backoff_ms=500.0),
            backend,
            sleep=sleeps.append,
            rng=random.Random(0),
        )
        assert out == "ok"
        backoff_s = backoff_delay_ms(0, 500.0, random.Random(0)) / 1000
        assert sleeps == [expected_s if expected_s is not None else backoff_s]

    def test_retry_after_header_is_waited_out(self, http_server):
        http_server.script = [
            (429, {"error": "slow down"}, {"Retry-After": "2"}),
            http_server.reply("made it"),
        ]
        sleeps: list[float] = []
        config = BackendConfig(
            base_url=http_server.base_url, api_key="k", initial_backoff_ms=1.0
        )
        out = chat_complete(CONVO, config, HttpBackend(), sleep=sleeps.append)
        assert out == "made it"
        assert sleeps == [2.0]

    def test_retries_on_server_error(self):
        backend = MockBackend(replies=[ServerError("boom"), "fine"])
        out = chat_complete(CONVO, BackendConfig(), backend, sleep=no_sleep)
        assert out == "fine"

    def test_zero_retries_exhausts_immediately(self):
        backend = MockBackend(replies=[RateLimitError("nope")])
        with pytest.raises(RetriesExhaustedError, match="after 1 attempt"):
            chat_complete(CONVO, BackendConfig(max_retries=0), backend, sleep=no_sleep)

    def test_exhaustion_counts_attempts(self):
        backend = MockBackend(replies=[RateLimitError(str(i)) for i in range(3)])
        with pytest.raises(RetriesExhaustedError, match="after 3 attempts"):
            chat_complete(CONVO, BackendConfig(max_retries=2), backend, sleep=no_sleep)
        assert len(backend.calls) == 3

    def test_authentication_errors_not_retried(self):
        backend = MockBackend(replies=[AuthenticationError("denied"), "never"])
        with pytest.raises(AuthenticationError):
            chat_complete(CONVO, BackendConfig(), backend, sleep=no_sleep)
        assert len(backend.calls) == 1

    def test_timeout_errors_not_retried(self):
        backend = MockBackend(replies=[BackendTimeoutError("slow"), "never"])
        with pytest.raises(BackendTimeoutError):
            chat_complete(CONVO, BackendConfig(), backend, sleep=no_sleep)
        assert len(backend.calls) == 1

    def test_conversation_validated_before_sending(self):
        backend = MockBackend(replies=["never"])
        with pytest.raises(ConversationError):
            chat_complete((ChatMessage("system", "s"),), BackendConfig(), backend)
        assert backend.calls == []
