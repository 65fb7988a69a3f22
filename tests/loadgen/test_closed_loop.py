"""Closed-loop load: retry and failure rules, the mid-load action, re-offers.

Every sender here is a fake callable; nothing opens a socket.
"""

import sys
import threading

import pytest

import repro.loadgen.closed_loop as closed_loop
from repro.loadgen import drive_closed_loop
from repro.serve.client import GatewayHTTPError, GatewayOverloaded
from repro.serve.server import ServerOverloaded


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    monkeypatch.setattr(closed_loop, "OVERLOAD_BACKOFF_S", 0.0)


def test_overload_is_retried_and_counted():
    shed = {0: [GatewayOverloaded(429, {})] * 2, 3: [ServerOverloaded("full")]}
    calls = []

    def send(item):
        calls.append(item)
        if shed.get(item):
            raise shed[item].pop()
        return {"version": "v1"}

    report = drive_closed_loop(range(5), 1, lambda: send)
    assert calls == [0, 0, 0, 1, 2, 3, 3, 4]
    assert report.overload_retries == 3
    assert (report.requests, report.completed, report.failed) == (5, 5, 0)
    assert report.versions == {"v1": 5}
    assert report.errors_by_class == {}


def test_failures_are_classified_sampled_and_skipped():
    errors = {
        1: GatewayHTTPError(503, {"error": "no healthy replica"}),
        2: GatewayHTTPError(500, {"error": "boom"}),
        3: ConnectionRefusedError("refused"),
        4: ValueError("bad reply"),
        5: GatewayHTTPError(404, {"error": "no model"}),
        6: GatewayHTTPError(500, {"error": "boom again"}),
    }
    calls = []

    def send(item):
        calls.append(item)
        if item in errors:
            raise errors[item]
        return item  # not a dict: no version to tally

    report = drive_closed_loop(range(8), 1, lambda: send)
    assert calls == list(range(8))  # each failure moves on to the next item
    assert report.failed == 6 and report.completed == 2
    assert report.errors_by_class == {
        "unavailable": 1, "http_5xx": 2, "connection": 1, "other": 1, "http_4xx": 1,
    }
    assert len(report.failure_samples) == closed_loop.FAILURE_SAMPLES
    assert report.failure_samples[0] == "GatewayHTTPError: HTTP 503: no healthy replica"
    assert report.failure_samples[2] == "ConnectionRefusedError: refused"
    assert report.versions == {}


def test_each_client_owns_a_sender_and_a_slice():
    seen: dict[int, list] = {}
    threads: set[str] = set()
    lock = threading.Lock()
    made = []

    def sender():
        idx = len(made)
        made.append(idx)

        def send(item):
            with lock:
                seen.setdefault(idx, []).append(item)
                threads.add(threading.current_thread().name)
            return {}

        return send

    report = drive_closed_loop(range(10), 3, sender)
    assert made == [0, 1, 2]
    assert seen == {0: [0, 3, 6, 9], 1: [1, 4, 7], 2: [2, 5, 8]}
    assert len(threads) == 3
    assert report.completed == 10 and report.sent == 10
    assert report.rps > 0


def test_counts_survive_thread_switch_stress():
    """More clients than cores, tiny switch interval: no count is lost."""
    tape = list(range(600))

    def sender():
        shed = set()

        def send(item):
            if item % 7 == 0 and item not in shed:
                shed.add(item)
                raise GatewayOverloaded(429, {})
            if item % 11 == 0:
                raise GatewayHTTPError(500, {"error": "boom"})
            return {"version": "v"}

        return send

    box = {}
    runner = threading.Thread(
        target=lambda: box.update(report=drive_closed_loop(tape, 8, sender))
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    report = box["report"]
    failed = sum(1 for i in tape if i % 11 == 0)
    assert report.overload_retries == sum(1 for i in tape if i % 7 == 0)
    assert report.failed == failed and report.errors_by_class == {"http_5xx": failed}
    assert report.completed == len(tape) - failed
    assert report.versions == {"v": report.completed}


def test_during_fires_once_half_the_tape_resolved():
    replied = []
    started = threading.Event()

    def send(item):
        if item == 5:  # hold the sixth request until ``during`` has begun
            assert started.wait(5.0)
        replied.append(item)
        return {}

    def during():
        started.set()
        return len(replied)

    report = drive_closed_loop(range(10), 1, lambda: send, during=during)
    assert report.during == 5
    assert report.completed == 10


def test_during_fires_at_once_after_a_failure():
    replied = []
    started = threading.Event()

    def send(item):
        if item == 0:
            raise GatewayHTTPError(500, {"error": "boom"})
        if item == 1:
            assert started.wait(5.0)
        replied.append(item)
        return {}

    def during():
        started.set()
        return len(replied)

    report = drive_closed_loop(range(10), 1, lambda: send, during=during)
    assert report.during == 0
    assert report.failed == 1 and report.errors_by_class == {"http_5xx": 1}


def test_clients_reoffer_their_slice_until_during_returns():
    lock = threading.Lock()
    returned = threading.Event()
    both_reoffering = threading.Event()
    calls: dict[str, int] = {}
    calls_after: dict[str, int] = {}
    versions = ["old"]

    def send(item):
        name = threading.current_thread().name
        with lock:
            calls[name] = calls.get(name, 0) + 1
            # each slice holds 2 items, so 5 calls means 3 re-offers
            if len(calls) == 2 and min(calls.values()) >= 5:
                both_reoffering.set()
            if returned.is_set():
                calls_after[name] = calls_after.get(name, 0) + 1
            return {"version": versions[0]}

    def during():
        assert both_reoffering.wait(5.0)
        versions[0] = "new"
        returned.set()
        return "swapped"

    report = drive_closed_loop(range(4), 2, lambda: send, during=during)
    assert report.during == "swapped"
    assert report.completed == 4 and report.failed == 0
    assert report.reoffered >= 6 and report.sent == 4 + report.reoffered
    # every client sends again after ``during`` returned (the one more)
    assert sorted(calls_after) == ["closed-loop-0", "closed-loop-1"]
    assert report.versions["new"] >= 2
    assert sum(report.versions.values()) == report.sent


def test_during_error_is_raised_after_clients_stop():
    def during():
        raise RuntimeError("swap refused")

    with pytest.raises(RuntimeError, match="swap refused"):
        drive_closed_loop(range(4), 2, lambda: (lambda item: {}), during=during)


def test_empty_tape_and_bad_client_count():
    report = drive_closed_loop([], 2, lambda: (lambda item: {}), during=lambda: "ran")
    assert report.during == "ran" and report.sent == 0 and report.rps == 0.0
    with pytest.raises(ValueError, match="clients"):
        drive_closed_loop(range(3), 0, lambda: (lambda item: {}))
