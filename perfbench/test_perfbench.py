"""Unit tests of the benchmark's own helpers, on fake clocks.

    python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import threading
import time

import pytest

from benchlib import (
    SelfTimeLedger,
    percentile,
    run_closed_loop,
    run_open_loop,
    samples_beyond,
    supported_tail,
    tail_percentile,
)


class FakeClock:
    """A clock that moves only when code sleeps or does simulated work."""

    def __init__(self) -> None:
        self.t = 0.0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self.t

    def advance(self, dt: float) -> None:
        with self._lock:
            self.t += dt


# ----------------------------------------------------------------------
# the ten-samples-beyond rule
# ----------------------------------------------------------------------
def test_p99_needs_a_thousand_samples():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(0, 99) == 0


def test_tail_percentile_refuses_a_thin_tail():
    values = list(range(999))
    with pytest.raises(ValueError, match="9 beyond"):
        tail_percentile(values, 99)
    assert tail_percentile(list(range(1000)), 99) == 989
    # exactly ten values lie beyond the reported p99
    assert sum(v > 989 for v in range(1000)) == 10


def test_supported_tail_leaves_ten_beyond():
    values = [float(v) for v in range(35, 0, -1)]  # 1..35, unsorted
    p, value = supported_tail(values)
    assert value == 25.0
    assert p == pytest.approx(100 * 25 / 35)
    assert samples_beyond(35, p) == 10
    assert percentile(values, p) == value
    assert supported_tail([3.0, 1.0]) == (50.0, 1.0)  # too few: the minimum


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 3, 2, 4], 50) == 3
    assert percentile([5, 1, 3, 2, 4], 100) == 5
    assert percentile([7], 1) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


# ----------------------------------------------------------------------
# self-time ledger
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    ledger = SelfTimeLedger(clock=clock)

    def work(dt):
        clock.advance(dt)

    leaf = ledger.wrap("leaf", work, work=lambda: 7)
    mid = ledger.wrap("mid", lambda: (work(1.0), leaf(2.0), work(0.5)))
    root = ledger.wrap("root", lambda: (work(3.0), mid(), leaf(4.0)))
    root()

    snap = ledger.snapshot()
    assert snap["self_s"] == {"leaf": 6.0, "mid": 1.5, "root": 3.0}
    assert snap["calls"] == {"leaf": 2, "mid": 1, "root": 1}
    assert snap["work"]["leaf"] == 14
    assert snap["roots"] == 1
    # self times add back up to the outermost call
    assert sum(snap["self_s"].values()) == snap["root_s"] == 10.5


def test_self_time_survives_an_exception_and_resets():
    clock = FakeClock()
    ledger = SelfTimeLedger(clock=clock)

    def boom():
        clock.advance(1.0)
        raise RuntimeError("boom")

    outer = ledger.wrap("outer", lambda: (clock.advance(2.0), ledger.wrap("inner", boom)()))
    with pytest.raises(RuntimeError):
        outer()
    snap = ledger.snapshot()
    assert snap["self_s"] == {"outer": 2.0, "inner": 1.0}
    assert snap["root_s"] == 3.0
    ledger.reset()
    assert ledger.snapshot()["roots"] == 0


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------
def _fake_sleep(clock):
    return lambda dt: clock.advance(dt)


def test_open_loop_times_requests_from_their_due_time():
    clock = FakeClock()

    def send(i):  # each request takes 0.25 s, arrivals come every 0.1 s
        clock.advance(0.25)
        return True

    report = run_open_loop(
        [0.0, 0.1, 0.2, 0.3], send, connections=1, cap=2,
        clock=clock, sleep=_fake_sleep(clock),
    )
    starts = [r.start for r in report.records]
    assert starts == pytest.approx([0.0, 0.25, 0.50, 0.75])
    # lateness builds up while the one connection is busy ...
    assert report.lateness_ms() == pytest.approx([0.0, 150.0, 300.0, 450.0])
    # ... and every latency counts the wait from the due time
    assert report.latencies_ms() == pytest.approx([250.0, 400.0, 550.0, 700.0])
    assert [r.backlog for r in report.records] == [0, 1, 1, 0]
    assert report.backlog_max == 1
    assert report.backlog_end == 1  # arrival 2 still waited when arrival 3 fell due
    assert report.max_in_flight == 1


def test_open_loop_keeps_up_when_service_is_fast():
    clock = FakeClock()

    def send(i):
        clock.advance(0.01)
        return i != 2

    report = run_open_loop(
        [0.0, 0.1, 0.2, 0.3], send, connections=1, cap=1,
        clock=clock, sleep=_fake_sleep(clock),
    )
    assert report.lateness_ms() == pytest.approx([0.0] * 4)
    assert report.backlog_max == report.backlog_end == 0
    assert [r.ok for r in report.records] == [True, True, False, True]


def test_open_loop_caps_connections():
    with pytest.raises(ValueError):
        run_open_loop([0.0], lambda i: True, connections=3, cap=2)
    with pytest.raises(ValueError):
        run_open_loop([0.0], lambda i: True, connections=0, cap=2)
    with pytest.raises(ValueError):
        run_open_loop([0.2, 0.1], lambda i: True, connections=1, cap=2)


def test_open_loop_sends_each_arrival_once_within_the_cap():
    clock = FakeClock()
    lock = threading.Lock()
    in_flight = {"now": 0, "max": 0}
    seen = []

    def send(i):
        with lock:
            in_flight["now"] += 1
            in_flight["max"] = max(in_flight["max"], in_flight["now"])
            seen.append(i)
        clock.advance(0.001)
        with lock:
            in_flight["now"] -= 1
        return True

    due = [k * 0.0005 for k in range(200)]  # arrivals faster than service
    report = run_open_loop(
        due, send, connections=2, cap=2, clock=clock, sleep=_fake_sleep(clock)
    )
    assert sorted(seen) == list(range(200))
    assert in_flight["max"] <= 2
    assert report.max_in_flight <= 2
    assert [r.index for r in report.records] == list(range(200))


# ----------------------------------------------------------------------
# closed loop
# ----------------------------------------------------------------------
def test_closed_loop_accounts_every_request_to_a_phase():
    labels = []

    def send(c, k, label):
        time.sleep(0.002)
        return k % 5 != 4

    report = run_closed_loop(
        send, callers=2, cap=2, phases=[(0.05, "plain"), (0.05, "traced")],
        on_phase=labels.append,
    )
    assert labels == ["plain", "traced"]
    assert report.attempted == sum(report.completed.values()) + report.failed
    assert report.failed >= 1
    assert report.completed["plain"] > 0 and report.completed["traced"] > 0
    assert report.elapsed_s["plain"] >= 0.05 and report.elapsed_s["traced"] >= 0.05
    assert [w[0] for w in report.windows] == labels
    # requests still in flight when the last phase ends count in no window
    assert 0 < sum(w[1] for w in report.windows) <= sum(report.completed.values())
    plain = report.windows[0]
    assert report.median_throughput("plain") == plain[1] / plain[2]
    with pytest.raises(ValueError):
        run_closed_loop(send, callers=3, cap=2, phases=[(0.1, "plain")])
