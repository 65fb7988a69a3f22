"""Closed-loop load: a fixed set of clients, each waiting for its reply.

Where :func:`~repro.loadgen.replay.replay_trace` fires requests on a
schedule (open loop), :func:`drive_closed_loop` keeps ``clients``
requests in flight and sends the next one only when a reply comes back,
so the offered load follows the server's speed. Every closed-loop
number in the repo — gateway replica scaling, rollout, autoscale, chaos,
``repro bench-serve`` single-stream and ``repro gateway --requests`` —
comes from this one function, so they are counted the same way:

- Client ``i`` gets its own sender and walks the slice ``tape[i::clients]``.
- An overload rejection (HTTP 429 :class:`GatewayOverloaded` or an
  in-process :class:`ServerOverloaded`) is not a failure: the client
  waits :data:`OVERLOAD_BACKOFF_S` and sends the same request again,
  and the report counts the retry.
- Any other error is one failed request, classified by
  :func:`~repro.loadgen.replay.classify_error`; the first
  :data:`FAILURE_SAMPLES` messages are kept. The client moves on to its
  next item.
- A reply that carries a ``version`` is tallied per version.

``during`` (optional) is the mid-load action — a hot swap, a canary
rollout. It runs on its own thread once half the tape has resolved, or
at once after the first failure, so a failing run cannot leave it
waiting forever. Until it returns, a client whose slice has run out
keeps re-offering that slice; after it returns, each such client sends
one more request, so traffic is in flight across the whole action
however fast the server answers. Re-offered requests are counted apart
from the tape.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.loadgen.replay import classify_error
from repro.serve.client import GatewayClient, GatewayOverloaded
from repro.serve.server import ServerOverloaded

#: Wait before re-sending a request the server rejected for overload.
OVERLOAD_BACKOFF_S = 0.002
#: Failure messages a report keeps verbatim.
FAILURE_SAMPLES = 5


@dataclass
class ClosedLoopReport:
    """What one closed-loop run measured."""

    requests: int  # tape length
    completed: int = 0  # tape requests that got a reply
    reoffered: int = 0  # requests re-offered while ``during`` ran
    failed: int = 0  # requests, tape or re-offered, that ended in an error
    overload_retries: int = 0
    wall_s: float = 0.0
    errors_by_class: dict[str, int] = field(default_factory=dict)
    failure_samples: list[str] = field(default_factory=list)
    versions: dict[str, int] = field(default_factory=dict)
    during: object = None  # what ``during`` returned

    @property
    def sent(self) -> int:
        return self.requests + self.reoffered

    @property
    def rps(self) -> float:
        """Successful requests per wall-clock second."""
        return (self.sent - self.failed) / self.wall_s if self.wall_s > 0 else 0.0


def gateway_sender(url: str, **client_options) -> Callable[[], Callable]:
    """Sender factory for HTTP load: each call opens its own
    :class:`GatewayClient`; tape items are ``(model, payload)`` pairs and
    the reply is the whole response body (so its version is tallied)."""

    def make():
        client = GatewayClient(url, **client_options)
        return lambda item: client.predict(item[0], item[1], raw=True)

    return make


def drive_closed_loop(
    tape: Sequence,
    clients: int,
    sender: Callable[[], Callable],
    *,
    during: Callable[[], object] | None = None,
) -> ClosedLoopReport:
    """Drive ``tape`` from ``clients`` closed-loop threads; see the module doc.

    ``sender()`` is called once per client and returns that client's
    ``send(item) -> reply``. Starts exactly ``clients`` threads, plus one
    for ``during``. An exception raised by ``during`` is re-raised here
    after every client has stopped.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    tape = list(tape)
    report = ClosedLoopReport(requests=len(tape))
    lock = threading.Lock()
    resolved = [0]
    half_at = max(1, len(tape) // 2)
    halfway = threading.Event()
    during_done = threading.Event()
    if not tape:
        halfway.set()
    if during is None:
        during_done.set()

    def send(fn, item, reoffer: bool) -> None:
        while True:
            try:
                reply, exc = fn(item), None
            except (GatewayOverloaded, ServerOverloaded):
                with lock:
                    report.overload_retries += 1
                time.sleep(OVERLOAD_BACKOFF_S)
                continue
            except Exception as e:  # noqa: BLE001 - every failure is a datum
                reply, exc = None, e
            break
        with lock:
            resolved[0] += 1
            report.reoffered += reoffer
            if exc is not None:
                report.failed += 1
                cls = classify_error(exc)
                report.errors_by_class[cls] = report.errors_by_class.get(cls, 0) + 1
                if len(report.failure_samples) < FAILURE_SAMPLES:
                    report.failure_samples.append(f"{type(exc).__name__}: {exc}")
            elif not reoffer:
                report.completed += 1
            version = reply.get("version") if isinstance(reply, dict) else None
            if version is not None:
                report.versions[version] = report.versions.get(version, 0) + 1
            if exc is not None or resolved[0] >= half_at:
                halfway.set()

    def run_client(fn, mine: list) -> None:
        for item in mine:
            send(fn, item, False)
        if not mine or during_done.is_set():
            return
        k = 0
        while not during_done.is_set():
            send(fn, mine[k % len(mine)], True)
            k += 1
        send(fn, mine[k % len(mine)], True)

    outcome: dict = {}

    def run_during() -> None:
        halfway.wait()
        try:
            outcome["value"] = during()
        except BaseException as exc:  # noqa: BLE001 - re-raised once clients stop
            outcome["error"] = exc
        finally:
            during_done.set()

    threads = [
        threading.Thread(
            target=run_client, args=(sender(), tape[i::clients]),
            name=f"closed-loop-{i}",
        )
        for i in range(clients)
    ]
    if during is not None:
        threads.append(threading.Thread(target=run_during, name="closed-loop-during"))
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    report.wall_s = time.perf_counter() - start
    if "error" in outcome:
        raise outcome["error"]
    report.during = outcome.get("value")
    return report
