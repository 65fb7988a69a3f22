"""Minimal stdlib HTTP client for the serving gateway.

Used by the CLI self-traffic mode, the benchmarks, and the test suite —
anything that wants to speak the gateway's protocol without hand-rolling
HTTP. Each calling thread keeps one persistent HTTP/1.1 connection
(``http.client``, which sets ``TCP_NODELAY``); a connection the server
closed before answering is redialed once, transparently.

Array inputs (a numpy array, or a tuple of arrays for QA's ``(tokens,
mask)``) go as one binary frame (``repro.serve.worker``'s codec,
``FRAME_CONTENT_TYPE``) and ask for a binary reply, so outputs come back
as arrays in the engine's dtype. Nested-list inputs go as JSON and get
a JSON reply.

Resilience (PR 6) — all opt-in, so a bare ``GatewayClient(url)`` behaves
exactly as before:

- ``retry=RetryPolicy(...)`` retries **predict only** (the one
  idempotent mutation-free POST) on the retryable statuses — 429
  (overloaded) and 503 (pool down, supervisor recovery in flight) by
  default — and on connection resets, with exponential backoff plus
  seeded jitter so a thundering herd of clients decorrelates.
- ``breaker=CircuitBreaker(...)`` stops hammering a gateway that keeps
  failing: ``failure_threshold`` consecutive predict failures open the
  circuit (instant :class:`CircuitOpen`, no socket touched); after
  ``recovery_timeout_s`` one half-open probe request is let through —
  success closes the circuit, failure re-opens it.
- ``deadline_s=...`` on :meth:`GatewayClient.predict` bounds the *whole*
  call — attempts, backoffs, and all; a backoff that would overrun the
  deadline raises :class:`DeadlineExceeded` instead of sleeping.

Observability (PR 7): ``predict(request_id=..., trace=True)`` propagates
``X-Request-Id`` and asks for the span timeline inline;
:meth:`GatewayClient.metrics_text`, :meth:`GatewayClient.traces`, and
:meth:`GatewayClient.events` wrap the ``/metrics``, ``/v1/traces``, and
``/v1/events`` endpoints.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref
from dataclasses import dataclass
from random import Random
from urllib.parse import urlsplit

import numpy as np

from repro.serve.worker import (
    FRAME_CONTENT_TYPE,
    decode_payload,
    encode_payload,
    pack_frame,
    unpack_frame,
)


class GatewayHTTPError(RuntimeError):
    """Non-2xx gateway response, carrying the status and decoded body."""

    def __init__(self, status: int, body: dict):
        self.status = status
        self.body = body
        super().__init__(f"HTTP {status}: {body.get('error', body)}")


class GatewayOverloaded(GatewayHTTPError):
    """429: every replica queue of the target model was full."""


class CircuitOpen(RuntimeError):
    """The client's circuit breaker is rejecting requests locally."""


class DeadlineExceeded(TimeoutError):
    """A predict's per-request deadline ran out across its attempts."""


@dataclass(frozen=True)
class RetryPolicy:
    """Predict retry knobs: bounded attempts, decorrelated backoff.

    The k-th retry waits ``min(backoff_base_s * 2**(k-1),
    backoff_max_s)`` scaled by a seeded jitter in ``[1 - jitter,
    1 + jitter]``. Only ``retry_statuses`` (and connection-level
    failures) are retried — a 400/404/500 is the caller's bug or the
    model's bug, and repeating it is noise.
    """

    max_attempts: int = 4
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    jitter: float = 0.5
    retry_statuses: tuple[int, ...] = (429, 503)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_s < 0:
            raise ValueError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.backoff_max_s < self.backoff_base_s:
            raise ValueError(
                f"backoff_max_s ({self.backoff_max_s}) must be >= "
                f"backoff_base_s ({self.backoff_base_s})"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay_s(self, attempt: int, rng: Random) -> float:
        """Backoff before retrying after the ``attempt``-th try (1-based)."""
        base = min(self.backoff_base_s * (2 ** max(attempt - 1, 0)), self.backoff_max_s)
        if self.jitter == 0.0:
            return base
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


class CircuitBreaker:
    """Closed -> open -> half-open failure gate for one gateway.

    Thread-safe; shared by every request the owning client makes.
    ``check()`` raises :class:`CircuitOpen` while the circuit is open
    (and admits exactly one probe once ``recovery_timeout_s`` passes);
    the client reports each request's outcome back through
    ``record_success()`` / ``record_failure()``.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        recovery_timeout_s: float = 5.0,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if recovery_timeout_s <= 0:
            raise ValueError(
                f"recovery_timeout_s must be > 0, got {recovery_timeout_s}"
            )
        self.failure_threshold = failure_threshold
        self.recovery_timeout_s = recovery_timeout_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0  # consecutive, while closed
        self._reopen_ts = 0.0
        self._probe_in_flight = False
        # cumulative counters for stats()
        self.opens = 0
        self.rejected = 0
        self.successes = 0
        self.failures = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def check(self) -> None:
        """Admit or reject one request *before* it touches the network."""
        with self._lock:
            if self._state == "closed":
                return
            if self._state == "open":
                if self._clock() < self._reopen_ts:
                    self.rejected += 1
                    raise CircuitOpen(
                        f"circuit open for another "
                        f"{self._reopen_ts - self._clock():.2f}s"
                    )
                self._state = "half_open"
                self._probe_in_flight = False
            # half-open: exactly one probe at a time
            if self._probe_in_flight:
                self.rejected += 1
                raise CircuitOpen("circuit half-open; probe already in flight")
            self._probe_in_flight = True

    def record_success(self) -> None:
        with self._lock:
            self.successes += 1
            self._failures = 0
            self._probe_in_flight = False
            if self._state != "closed":
                self._state = "closed"

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            self._probe_in_flight = False
            if self._state == "half_open":
                self._trip()
            elif self._state == "closed":
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._trip()

    def _trip(self) -> None:  # caller holds the lock
        self._state = "open"
        self._failures = 0
        self._reopen_ts = self._clock() + self.recovery_timeout_s
        self.opens += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "failure_threshold": self.failure_threshold,
                "recovery_timeout_s": self.recovery_timeout_s,
                "opens": self.opens,
                "rejected": self.rejected,
                "successes": self.successes,
                "failures": self.failures,
            }


def encode_inputs(payload) -> list:
    """Server payload (array or tuple of arrays) -> JSON-able nested lists."""
    if isinstance(payload, tuple):
        return [np.asarray(f).tolist() for f in payload]
    return np.asarray(payload).tolist()


def _decode_reply(data: bytes) -> dict:
    """A binary predict reply -> the JSON reply's dict, outputs an array."""
    header, blob = unpack_frame(data)
    header["outputs"], _ = decode_payload(header["outputs"], blob)
    return header


#: A reused connection failing this way before the reply's first byte
#: was closed by the server while idle; the request is sent again on a
#: fresh connection.
_STALE_CONNECTION = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)


def _close_all(conns: dict) -> None:
    for conn in conns.values():
        conn.close()


class GatewayClient:
    """Tiny synchronous client; one instance per base URL, thread-safe.

    Every thread that calls it gets its own keep-alive connection;
    :meth:`close` (or leaving a ``with`` block) closes them all.
    ``retry`` and ``breaker`` (both optional) apply to :meth:`predict`
    only — the other verbs (load/swap/unload) mutate serving state and
    must fail loudly, not repeat themselves.
    """

    def __init__(
        self,
        url: str,
        timeout_s: float = 60.0,
        *,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ):
        self.url = url.rstrip("/")
        parts = urlsplit(self.url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"gateway URL must be http://host[:port], got {url!r}")
        self._address = (parts.hostname, parts.port or 80)
        self._prefix = parts.path
        self.timeout_s = timeout_s
        self.retry = retry
        self.breaker = breaker
        self._rng = Random(retry.seed if retry is not None else 0)
        self._rng_lock = threading.Lock()
        self._local = threading.local()
        self._conns_lock = threading.Lock()
        self._conns: dict[threading.Thread, http.client.HTTPConnection] = {}
        # a client dropped without close() still closes its sockets
        weakref.finalize(self, _close_all, self._conns)

    def close(self) -> None:
        """Close every thread's connection (a later call redials)."""
        with self._conns_lock:
            conns = dict(self._conns)
            self._conns.clear()
        _close_all(conns)

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _connection(self, timeout: float | None) -> http.client.HTTPConnection:
        """This thread's connection, with ``timeout`` for its next exchange."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = http.client.HTTPConnection(*self._address)
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        else:  # about to dial: let close() reach it, and drop dead threads' ones
            with self._conns_lock:
                for thread in [t for t in self._conns if not t.is_alive()]:
                    self._conns.pop(thread).close()
                self._conns[threading.current_thread()] = conn
        return conn

    def _exchange(self, method: str, path: str, data: bytes | None,
                  headers: dict, timeout: float | None) -> tuple[int, str, bytes]:
        """One request on this thread's connection -> (status, content type, body)."""
        for attempt in (1, 2):
            conn = self._connection(timeout)
            reused = conn.sock is not None
            replied = False
            try:
                conn.request(method, self._prefix + path, body=data, headers=headers)
                resp = conn.getresponse()
                replied = True
                return resp.status, resp.getheader("Content-Type", ""), resp.read()
            except BaseException as exc:
                conn.close()
                if isinstance(exc, _STALE_CONNECTION) and reused and not replied and attempt == 1:
                    continue
                if isinstance(exc, http.client.HTTPException) and not isinstance(exc, OSError):
                    raise ConnectionError(
                        f"bad HTTP exchange with {self.url}: {exc!r}"
                    ) from exc
                raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _request(
        self, method: str, path: str, body: dict | bytes | None = None,
        timeout_s: float | None = None, headers: dict | None = None,
        raw: bool = False,
    ):
        """One call; ``body`` is JSON-encoded unless already ``bytes`` (whose
        ``Content-Type`` the caller sets). Returns the decoded reply:
        JSON, a frame's dict, or text with ``raw=True``."""
        hdrs = {}
        if isinstance(body, bytes):
            data = body
        elif body is not None:
            data = json.dumps(body).encode()
            hdrs["Content-Type"] = "application/json"
        else:
            data = None
        if headers:
            hdrs.update(headers)
        timeout = self.timeout_s if timeout_s is None else timeout_s
        status, content_type, payload = self._exchange(method, path, data, hdrs, timeout)
        if not 200 <= status < 300:
            try:
                error = json.loads(payload)
            except ValueError:
                error = None
            if not isinstance(error, dict):
                error = {"error": payload.decode(errors="replace") or f"HTTP {status}"}
            cls = GatewayOverloaded if status == 429 else GatewayHTTPError
            raise cls(status, error)
        if raw:
            return payload.decode()
        if content_type.partition(";")[0].strip() == FRAME_CONTENT_TYPE:
            return _decode_reply(payload)
        return json.loads(payload)

    def _jittered_delay(self, policy: RetryPolicy, attempt: int) -> float:
        with self._rng_lock:  # one shared seeded stream, race-free
            return policy.delay_s(attempt, self._rng)

    def _resilient_post(
        self, path: str, body: dict | bytes, deadline_s: float | None,
        headers: dict | None = None,
    ) -> dict:
        """Predict's retry loop: breaker gate, bounded attempts, deadline."""
        policy = self.retry if self.retry is not None else RetryPolicy(max_attempts=1)
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        attempt = 0
        while True:
            attempt += 1
            if self.breaker is not None:
                self.breaker.check()
            timeout_s = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlineExceeded(
                        f"deadline of {deadline_s}s exhausted after "
                        f"{attempt - 1} attempt(s)"
                    )
                timeout_s = min(self.timeout_s, remaining)
            try:
                response = self._request(
                    "POST", path, body, timeout_s=timeout_s, headers=headers
                )
            except GatewayHTTPError as exc:
                # 429/5xx are the gateway failing; 4xx is this caller's
                # bug and must not poison the shared breaker.
                if self.breaker is not None and (exc.status == 429 or exc.status >= 500):
                    self.breaker.record_failure()
                if exc.status not in policy.retry_statuses:
                    raise
                failure = exc
            except OSError as exc:  # refused/reset sockets and timeouts
                if self.breaker is not None:
                    self.breaker.record_failure()
                failure = exc
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                return response
            if attempt >= policy.max_attempts:
                raise failure
            delay = self._jittered_delay(policy, attempt)
            if deadline is not None and time.monotonic() + delay > deadline:
                raise DeadlineExceeded(
                    f"deadline of {deadline_s}s cannot absorb a {delay:.2f}s "
                    f"backoff after attempt {attempt}"
                ) from failure
            time.sleep(delay)

    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def models(self) -> list[dict]:
        return self._request("GET", "/v1/models")["models"]

    def model(self, name: str) -> dict:
        return self._request("GET", f"/v1/models/{name}")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def metrics_text(self) -> str:
        """Raw Prometheus exposition text from ``GET /metrics``."""
        return self._request("GET", "/metrics", raw=True)

    def traces(self, *, sort: str = "recent", limit: int = 20) -> dict:
        """Recorded request traces (``sort`` is ``recent`` or ``slowest``)."""
        return self._request("GET", f"/v1/traces?sort={sort}&limit={limit}")

    def events(self, *, source: str | None = None, model: str | None = None,
               event: str | None = None, limit: int | None = None) -> dict:
        """Filtered view of the shared event bus (``GET /v1/events``)."""
        params = [
            f"{k}={v}"
            for k, v in (("source", source), ("model", model),
                         ("event", event), ("limit", limit))
            if v is not None
        ]
        query = "?" + "&".join(params) if params else ""
        return self._request("GET", f"/v1/events{query}")

    def predict(self, name: str, inputs, *, raw: bool = False,
                deadline_s: float | None = None, request_id: str | None = None,
                trace: bool = False):
        """POST one prediction; returns the outputs array.

        ``inputs`` may be a numpy array or a tuple of arrays (QA), sent
        as a binary frame, or already-JSON-able nested lists, sent as
        JSON. ``raw=True`` returns the whole response dict (model,
        version, outputs, cached) instead; its ``outputs`` is an array in
        the engine's dtype for array inputs and nested lists for list
        inputs. ``deadline_s`` bounds the entire call — every retry
        attempt and backoff included — raising :class:`DeadlineExceeded`
        past it. ``request_id`` is sent as ``X-Request-Id`` so the
        gateway's trace carries the caller's id; ``trace=True`` asks the
        gateway to embed the span timeline in the response (implies
        ``raw``-style access — read ``result["trace"]``).
        """
        headers = {"X-Request-Id": request_id} if request_id else {}
        flags = {"trace": True} if trace else {}
        if isinstance(inputs, (np.ndarray, tuple)):
            if isinstance(inputs, tuple):
                inputs = tuple(np.asarray(f) for f in inputs)
            desc, blobs = encode_payload(inputs)
            body = pack_frame({"inputs": desc, **flags}, blobs)
            headers.update({"Content-Type": FRAME_CONTENT_TYPE, "Accept": FRAME_CONTENT_TYPE})
        else:
            body = {"inputs": inputs, **flags}
        reply = self._resilient_post(
            f"/v1/models/{name}/predict", body, deadline_s, headers=headers
        )
        return reply if raw or trace else np.asarray(reply["outputs"])

    def load(self, name: str, artifact: str, **options) -> dict:
        return self._request(
            "POST", f"/v1/models/{name}/load", {"artifact": str(artifact), **options}
        )

    def swap(self, name: str, artifact: str, **options) -> dict:
        """Zero-downtime rollout: flip ``name`` to a new artifact version.

        Returns the swap report (old/new version, replica count,
        ``outcome`` — ``"rolled_back"`` means a canary refused the new
        version and the old one kept serving). A 4xx raise means the
        previous version never stopped serving.
        """
        return self._request(
            "POST", f"/v1/models/{name}/swap", {"artifact": str(artifact), **options}
        )

    def unload(self, name: str) -> dict:
        return self._request("POST", f"/v1/models/{name}/unload", {})
