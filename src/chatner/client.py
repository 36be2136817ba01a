"""Completion backends: a real OpenAI-compatible client and a scripted mock.

Retry policy lives in :func:`chat_complete`, which wraps any backend, so
scripted mocks exercise the same code path the live client uses. Only
rate-limit and server errors are retried; authentication failures,
timeouts, and connection failures surface immediately.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
import random
import threading
import time
import weakref
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Protocol

from .domain import read_json_object
from .errors import (
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

API_KEY_ENV = "OPENAI_API_KEY"
MAX_BACKOFF_MS = 30_000
JITTER = 0.2


@dataclass(frozen=True)
class BackendConfig:
    """Connection settings for an OpenAI-compatible chat-completions API.

    ``timeout`` bounds each request as a whole, in seconds: connecting, any
    proxy tunnel, sending, and reading the reply to its last byte.
    """

    base_url: str = "https://api.openai.com/v1"
    api_key: str | None = None
    model: str = "gpt-3.5-turbo"
    temperature: float = 0.0
    max_tokens: int = 1024
    timeout: float = 60.0
    max_retries: int = 3
    initial_backoff_ms: float = 500.0

    def __post_init__(self) -> None:
        if not str(self.base_url).lower().startswith(("http://", "https://")):
            raise ConfigError("base_url must be an http:// or https:// URL")
        for name in ("temperature", "timeout", "initial_backoff_ms"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        for name in ("max_tokens", "max_retries"):
            if type(getattr(self, name)) is not int:
                raise ConfigError(f"{name} must be an int")
        if self.temperature < 0:
            raise ConfigError("temperature must be >= 0")
        if self.max_tokens < 1:
            raise ConfigError("max_tokens must be >= 1")
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            # A socket refuses a longer timeout with an OverflowError.
            raise ConfigError(f"timeout must be > 0 and at most {threading.TIMEOUT_MAX:.0f}")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.initial_backoff_ms < 0:
            raise ConfigError("initial_backoff_ms must be >= 0")

    def resolve_api_key(self) -> str | None:
        return self.api_key or os.environ.get(API_KEY_ENV)


class _Message(Protocol):
    role: str
    content: str


class CompletionBackend(Protocol):
    """Anything that can answer one conversation with one reply string.

    Implementations perform a single attempt and raise a BackendError
    subtype on failure; retrying is the caller's job. They must be safe to
    call from several threads at once.
    """

    def complete(self, conversation: Sequence[_Message], config: BackendConfig) -> str:
        ...


def validate_conversation(conversation: Sequence[_Message]) -> None:
    """Check the role-ordering contract for a conversation about to be sent.

    The first message is the system prompt; the rest alternate user and
    assistant, ending on a user message.
    """
    if not conversation:
        raise ConversationError("conversation is empty")
    if conversation[0].role != "system":
        raise ConversationError("the first message must have role 'system'")
    for position, message in enumerate(conversation[1:]):
        expected = "user" if position % 2 == 0 else "assistant"
        if message.role != expected:
            raise ConversationError(
                f"message {position + 1} must have role {expected!r}, "
                f"got {message.role!r}"
            )
    if conversation[-1].role != "user":
        raise ConversationError("a submitted conversation must end with a user message")


def build_request_body(
    conversation: Sequence[_Message], config: BackendConfig
) -> dict[str, Any]:
    """The exact JSON body sent to the chat-completions endpoint."""
    return {
        "model": config.model,
        "messages": [
            {"role": message.role, "content": message.content}
            for message in conversation
        ],
        "temperature": config.temperature,
        "max_tokens": config.max_tokens,
    }


# http.client's bounds on an untrusted reply.
_MAX_LINE = 65_536
_MAX_HEADERS = 100
_READ_PIECE = 1 << 20
# A pooled connection's key: scheme, target authority and the address dialled.
_PoolKey = tuple[str, str, tuple[str, int]]


@functools.cache
def _network() -> tuple[dict[str, str], Any, tuple[int, int, int] | None]:
    """The proxy variables, the CA store and the ``setsockopt`` arguments
    that ask for an immediate ACK (None where the platform has no
    ``TCP_QUICKACK``), read at the first request."""
    import socket
    import ssl
    import urllib.request

    quickack = getattr(socket, "TCP_QUICKACK", None)
    quickack = None if quickack is None else (socket.IPPROTO_TCP, quickack, 1)
    return urllib.request.getproxies(), ssl.create_default_context(), quickack


class HttpBackend:
    """Single-attempt client for any OpenAI-compatible chat-completions API.

    Connections are kept open and reused. After a reply, the socket goes
    back to this backend's pool of idle ones only if the reply was HTTP/1.1,
    did not say ``Connection: close``, was framed by ``Content-Length`` or
    chunked, and was read to its end with nothing past it; any other
    outcome, an error included, closes it. An idle socket that has bytes
    waiting, or an end of stream, is closed rather than reused. A reused
    connection that fails before any byte of the reply arrives (the server
    closed it while it idled) is reopened once. Idle sockets are closed
    when the backend is garbage-collected. Redirects are not followed: they
    would resend the API key to wherever they point.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: dict[_PoolKey, list] = {}  # a LIFO stack of idle sockets per key
        weakref.finalize(self, _close_idle, self._idle)

    def complete(self, conversation: Sequence[_Message], config: BackendConfig) -> str:
        url = config.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        api_key = config.resolve_api_key()
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = json.dumps(build_request_body(conversation, config)).encode("utf-8")
        try:
            status, reply_headers, payload = self._post(url, headers, body, config.timeout)
        except TimeoutError as exc:
            raise BackendTimeoutError(f"no answer within {config.timeout}s") from exc
        except (OSError, ValueError) as exc:
            raise BackendConnectionError(f"cannot reach {url}: {exc}") from exc
        if status in (401, 403):
            raise AuthenticationError(f"backend rejected credentials (HTTP {status})")
        if status == 429:
            raise RateLimitError(
                "backend rate limit hit (HTTP 429)",
                _retry_after_seconds(reply_headers.get("retry-after")),
            )
        if status >= 500:
            raise ServerError(f"backend server error (HTTP {status})")
        if status != 200:
            raise BackendError(
                f"unexpected status {status}: {payload.decode('utf-8', 'replace')[:200]}"
            )
        try:
            data = json.loads(payload)
        except (ValueError, RecursionError) as exc:
            raise MalformedResponseError(f"response body is not JSON: {exc}") from exc
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(
                "response body lacks choices[0].message.content"
            ) from exc
        if not isinstance(content, str):
            raise MalformedResponseError("completion content is not a string")
        return content

    def _post(
        self, url: str, headers: dict[str, str], body: bytes, timeout: float
    ) -> tuple[int, dict[str, str], bytes]:
        """One HTTP/1.1 POST on an idle connection of the pool, or on a new
        one: status, headers (names in lower case) and body. A request that
        cannot be sent as given is a BackendError before any byte leaves; a
        reply that breaks the protocol or its bounds is a ValueError or an
        OSError, and a request not done ``timeout`` seconds after it started
        a TimeoutError."""
        import urllib.parse

        proxies, context, quickack = _network()
        parts = urllib.parse.urlsplit(url)
        https = parts.scheme == "https"
        host, port = parts.hostname or "", parts.port or (443 if https else 80)
        authority = parts.netloc.rpartition("@")[2]
        target = parts.path + (f"?{parts.query}" if parts.query else "")
        proxy = _proxy(proxies.get(parts.scheme), authority, port)
        address, tunnel = proxy[0] if proxy else (host, port), b""
        if proxy and https:
            hostport = authority if parts.port else f"{authority}:{port}"
            tunnel = _head(f"CONNECT {hostport}", {"Host": hostport, **proxy[1]})
        elif proxy:
            target, headers = f"http://{authority}{target}", {**headers, **proxy[1]}
        request = _head(
            f"POST {target}",
            {"Host": authority, "User-Agent": "chatner", **headers,
             "Content-Length": str(len(body)), "Accept-Encoding": "identity"},
        ) + body
        deadline = time.monotonic() + timeout
        key = (parts.scheme, authority, address)
        with self._lock:
            idle = self._idle.get(key)
            sock = idle.pop() if idle else None
        if sock is not None and _readable(sock):
            # Closed by the server, or holding bytes no request asked for.
            sock.close()
            sock = None
        if sock is not None:
            reply = self._exchange(key, sock, request, deadline, quickack, reused=True)
            if reply is not None:
                return reply
        sock = _connect(address, deadline, tunnel, context if https else None, host)
        return self._exchange(key, sock, request, deadline, quickack, reused=False)

    def _exchange(
        self, key: _PoolKey, sock, request: bytes, deadline: float, quickack, reused: bool
    ) -> tuple[int, dict[str, str], bytes] | None:
        """Send ``request`` on ``sock`` and read its reply; then pool the
        socket or close it. None when a reused socket failed before any byte
        of the reply arrived, so the request can go on a new connection."""
        reader = _DeadlineReader(sock, deadline, quickack)
        keep = False
        try:
            sock.settimeout(_time_left(deadline))
            sock.sendall(request)
            reply = io.BufferedReader(reader)
            version, status, reply_headers = _read_head(reply)
            payload, framed = _read_body(reply, reply_headers)
            # Bytes read past the body answer no request, and poll() cannot
            # see them before the next one: those the buffered reader holds,
            # and those that TLS has decrypted and holds.
            keep = (framed and version == b"HTTP/1.1"
                    and "close" not in reply_headers.get("connection", "").lower()
                    and reply.tell() == reader.received
                    and not (hasattr(sock, "pending") and sock.pending()))
        except TimeoutError:
            raise
        except OSError:
            if reused and not reader.received:
                return None
            raise
        finally:
            if keep:
                with self._lock:
                    self._idle.setdefault(key, []).append(sock)
            else:
                sock.close()
        return status, reply_headers, payload


def _close_idle(idle: dict[_PoolKey, list]) -> None:
    """Close the idle sockets of a backend that is gone."""
    for stack in idle.values():
        for sock in stack:
            sock.close()
    idle.clear()


def _connect(address: tuple[str, int], deadline: float, tunnel: bytes, context, host: str):
    """A new socket to ``address``: through the proxy tunnel that ``tunnel``
    asks for, if any, then in TLS for ``host`` if ``context`` is given."""
    import socket

    sock = socket.create_connection(address, _time_left(deadline))
    try:
        if tunnel:
            sock.settimeout(_time_left(deadline))
            sock.sendall(tunnel)
            _, status, _ = _read_head(io.BufferedReader(_DeadlineReader(sock, deadline, None)))
            if status != 200:
                raise ConnectionError(f"the proxy refused the tunnel (HTTP {status})")
        if context is not None:
            sock.settimeout(_time_left(deadline))
            sock = context.wrap_socket(sock, server_hostname=host)
    except BaseException:
        sock.close()
        raise
    return sock


def _readable(sock) -> bool:
    """Whether ``sock`` has bytes or an end of stream waiting, checked without
    waiting. ``poll`` where the platform has it: ``select`` refuses a
    descriptor numbered past ``FD_SETSIZE``."""
    import select

    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _time_left(deadline: float) -> float:
    """Seconds left before ``deadline``; a TimeoutError once none are."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("the request deadline passed")
    return left


class _DeadlineReader(io.RawIOBase):
    """The bytes of a socket, each read waiting no longer than the time left.

    Each read first sets ``quickack``, if given, as the option does not
    stick: a server that sends headers and body in two writes with Nagle's
    algorithm on holds the body until the headers are acknowledged, and on a
    reused connection the kernel would delay that ACK by about 40 ms."""

    def __init__(self, sock, deadline: float, quickack):
        self._sock, self._deadline, self._quickack = sock, deadline, quickack
        self.received = 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        self._sock.settimeout(_time_left(self._deadline))
        if self._quickack is not None:
            self._sock.setsockopt(*self._quickack)
        count = self._sock.recv_into(buffer)
        self.received += count
        return count

    def tell(self) -> int:
        """The bytes received; a BufferedReader's ``tell()`` subtracts those
        it holds unread."""
        return self.received


def _proxy(
    proxy: str | None, authority: str, port: int
) -> tuple[tuple[str, int], dict[str, str]] | None:
    """The address of ``proxy`` and the headers it needs, or None when no
    proxy is set or NO_PROXY, read on every call, names the host."""
    if not proxy:
        return None
    import base64
    import urllib.parse
    import urllib.request

    if urllib.request.proxy_bypass(authority):
        return None
    parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    headers = {}
    if parts.username and parts.password:
        credentials = ":".join(map(urllib.parse.unquote, (parts.username, parts.password)))
        headers["Proxy-Authorization"] = f"Basic {base64.b64encode(credentials.encode()).decode()}"
    return (parts.hostname or "", parts.port or port), headers


def _head(request_line: str, headers: dict[str, str]) -> bytes:
    """A request line and its headers, checked before anything is sent."""
    for value in (request_line, *headers.values()):
        if "\r" in value or "\n" in value or "\0" in value:
            # The value is left out of the message: it may be the API key.
            raise BackendError("cannot send a request line or header that holds CR, LF or NUL")
    lines = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    try:
        return f"{request_line} HTTP/1.1\r\n{lines}\r\n".encode("latin-1")
    except UnicodeEncodeError as exc:
        raise BackendError(f"cannot send a header that is not latin-1: {exc}") from None


def _read_line(reply: BinaryIO) -> bytes:
    line = reply.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ValueError(f"a reply line is longer than {_MAX_LINE} bytes")
    if not line:
        raise ConnectionError("the server closed the connection before the reply ended")
    return line


def _read_head(reply: BinaryIO) -> tuple[bytes, int, dict[str, str]]:
    """The version, the status and the headers of the final reply, past any
    1xx; the lines of a repeated field are joined into one list."""
    while True:
        line = _read_line(reply)
        version, _, rest = line.partition(b" ")
        code = rest[:3]
        if not (version.startswith(b"HTTP/") and code.isdigit() and code >= b"100"
                and rest[3:4].isspace()):
            raise ValueError(f"bad status line {line[:80]!r}")
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = _read_line(reply)
            if not line.strip():
                break
            name, _, value = line.decode("latin-1").partition(":")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise ValueError("the reply has Content-Length headers that differ")
            if name in headers and name != "content-length":
                value = f"{headers[name]}, {value}"  # RFC 9110 section 5.3
            headers[name] = value
        else:
            raise ValueError(f"the reply has more than {_MAX_HEADERS} headers")
        if not code.startswith(b"1"):
            return version, int(code), headers


def _read_body(reply: BinaryIO, headers: dict[str, str]) -> tuple[bytes, bool]:
    """The body: chunked when that is the last Transfer-Encoding coding,
    empty list elements not counted (RFC 9110 section 5.6.1), until the
    server closes under any other, else Content-Length bytes, else until the
    server closes; and whether it was framed, so that the connection can
    carry another request."""
    codings = [c for c in map(str.strip, headers.get("transfer-encoding", "").split(",")) if c]
    if codings and codings[-1].lower() != "chunked":
        return reply.read(), False
    if codings:
        chunks = []
        while size := int(_read_line(reply).split(b";")[0], 16):
            if size < 0:
                raise ValueError("negative chunk size")
            chunks.append(_read_exactly(reply, size))
            if _read_line(reply) not in (b"\r\n", b"\n"):
                raise ValueError("a chunk is longer than its size line says")
        while _read_line(reply).strip():  # trailers
            pass
        return b"".join(chunks), True
    length = headers.get("content-length")
    if length is None:
        return reply.read(), False
    if not (length.isascii() and length.isdigit()):
        raise ValueError(f"bad Content-Length {length[:40]!r}")
    return _read_exactly(reply, int(length)), True


def _read_exactly(reply: BinaryIO, size: int) -> bytes:
    """``size`` bytes, read a bounded piece at a time: a size the server
    states is never allocated up front."""
    pieces, left = [], size
    while left:
        piece = reply.read(min(left, _READ_PIECE))
        if not piece:
            raise ConnectionError(f"reply cut short: {size - left} of {size} bytes")
        pieces.append(piece)
        left -= len(piece)
    return b"".join(pieces)


def _retry_after_seconds(value: str | None) -> float | None:
    """A numeric Retry-After header in seconds; None if absent, a date,
    negative or not finite."""
    try:
        seconds = float(value or "")
    except ValueError:
        return None
    return seconds if 0 <= seconds < math.inf else None


# A matcher is a substring required in the last user message, or a callable
# judging the whole conversation.
MockRule = tuple[str | Callable[[Sequence[_Message]], bool], str | BaseException]


class MockBackend:
    """Deterministic scripted backend for offline runs and tests.

    Sequence mode replays ``replies`` in order and fails once they run out;
    an Exception instance in the list is raised instead of returned, which
    scripts failures. Matcher mode answers with the reply of the first rule
    whose matcher hits, regardless of call order. Every conversation seen
    is recorded in ``calls``. The script is checked here: a non-empty list
    (not a bare string) of replies, each a string or an exception instance,
    or of (substring or callable, reply) matchers; else a ConfigError.
    """

    def __init__(
        self,
        replies: Sequence[str | BaseException] | None = None,
        matchers: Sequence[MockRule] | None = None,
    ):
        if (replies is None) == (matchers is None):
            raise ConfigError("give exactly one of replies or matchers")
        name, script = ("replies", replies) if matchers is None else ("matchers", matchers)
        if isinstance(script, str) or not isinstance(script, Sequence) or not script:
            raise ConfigError(f"{name} must be a non-empty list, got {script!r:.60}")
        for position, entry in enumerate(script):
            where = f"{name}[{position}]"
            if matchers is not None:
                if not (isinstance(entry, (tuple, list)) and len(entry) == 2
                        and (isinstance(entry[0], str) or callable(entry[0]))):
                    raise ConfigError(f"{where} must be a (substring or callable, reply) "
                                      f"pair, got {entry!r:.60}")
                where, entry = f"the reply of {where}", entry[1]
            if not isinstance(entry, (str, BaseException)):
                raise ConfigError(f"{where} must be a string or an exception instance, "
                                  f"got {entry!r:.60}")
        # Reversed, so each call pops the next reply off the end.
        self._replies = list(reversed(replies)) if replies is not None else None
        self._matchers = list(matchers) if matchers is not None else None
        self._lock = threading.Lock()
        self.calls: list[tuple[_Message, ...]] = []

    def complete(self, conversation: Sequence[_Message], config: BackendConfig) -> str:
        with self._lock:
            self.calls.append(tuple(conversation))
            if self._replies is not None:
                if not self._replies:
                    raise MockScriptError(
                        f"mock reply script exhausted after {len(self.calls) - 1} calls"
                    )
                item = self._replies.pop()
            else:
                item = self._match(conversation)
        if isinstance(item, BaseException):
            raise item
        return item

    def _match(self, conversation: Sequence[_Message]) -> str | BaseException:
        last_user = next(
            (m for m in reversed(conversation) if m.role == "user"), None
        )
        for matcher, reply in self._matchers or ():
            if callable(matcher):
                if matcher(conversation):
                    return reply
            elif last_user is not None and matcher in last_user.content:
                return reply
        preview = last_user.content[:80] if last_user else "<no user message>"
        raise MockScriptError(f"no mock rule matched: {preview!r}")

    @classmethod
    def from_file(cls, path: str | Path) -> "MockBackend":
        """Load a script from JSON: {"replies": [...]} or {"matchers": [[substring, reply], ...]}."""
        data = read_json_object(path, "mock script", ConfigError)
        try:
            return cls(replies=data.get("replies"), matchers=data.get("matchers"))
        except ConfigError as exc:
            raise ConfigError(f"mock script {path}: {exc}") from None


def backoff_delay_ms(
    attempt: int, initial_ms: float, rng: random.Random | None = None
) -> float:
    """Delay before retry number ``attempt`` (0-based), in milliseconds.

    Exponential doubling from ``initial_ms`` with +/-20% jitter, capped at
    30 seconds. The cap is applied after the jitter, which keeps delays
    non-decreasing across consecutive retries.
    """
    uniform = rng.uniform if rng is not None else random.uniform
    # 2.0**1024 overflows; by attempt 1023 any initial_ms above 1e-300 is
    # at the cap.
    base = initial_ms * 2.0 ** min(attempt, 1023)
    return min(base * (1 + uniform(-JITTER, JITTER)), MAX_BACKOFF_MS)


def chat_complete(
    conversation: Sequence[_Message],
    config: BackendConfig,
    backend: CompletionBackend,
    *,
    sleep: Callable[[float], None] = time.sleep,
    rng: random.Random | None = None,
) -> str:
    """Submit a conversation through ``backend`` and return the assistant reply.

    Wraps ``backend``, any :class:`CompletionBackend`, with the retry
    policy: rate-limit and server errors are retried up to
    ``config.max_retries`` times with exponential backoff, everything else
    propagates immediately. A rate limit that names a longer wait
    (``RateLimitError.retry_after``) is waited out, up to the backoff cap.
    """
    validate_conversation(conversation)
    attempt = 0
    while True:
        try:
            return backend.complete(tuple(conversation), config)
        except (RateLimitError, ServerError) as exc:
            if attempt >= config.max_retries:
                raise RetriesExhaustedError(
                    f"gave up after {attempt + 1} attempts: {exc}"
                ) from exc
            delay_ms = backoff_delay_ms(attempt, config.initial_backoff_ms, rng)
            retry_after = getattr(exc, "retry_after", None)
            if retry_after is not None:
                delay_ms = min(max(delay_ms, retry_after * 1000.0), MAX_BACKOFF_MS)
            sleep(delay_ms / 1000.0)
            attempt += 1
