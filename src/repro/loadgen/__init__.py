"""Trace-driven load generation, open-loop replay and closed-loop load.

Four layers, importable separately:

- :mod:`repro.loadgen.trace` — the ``repro-trace/v1`` JSONL format plus
  rate analysis (mean/peak arrival rates over sliding windows).
- :mod:`repro.loadgen.generators` — seeded open-loop arrival generators
  (Poisson, bursty on/off, diurnal sinusoid) emitting byte-deterministic
  traces.
- :mod:`repro.loadgen.replay` — fires a trace at a live gateway at its
  scheduled wall-clock instants, thread-per-inflight, recording
  per-request latency, lateness, queue depth, and error class.
- :mod:`repro.loadgen.closed_loop` — the one closed-loop load generator: a fixed
  set of clients, each sending its next request when the last one
  answers, with a shared overload-retry and failure-counting rule.

The capacity planner (:mod:`repro.plan`) consumes traces from here and
is validated against replay measurements by ``benchmarks/bench_replay.py``.
See ``docs/capacity.md`` for the format spec and the planner model.
"""

from repro.loadgen.closed_loop import (
    ClosedLoopReport,
    drive_closed_loop,
    gateway_sender,
)
from repro.loadgen.generators import (
    GENERATORS,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
)
from repro.loadgen.replay import (
    ERROR_CLASSES,
    ReplayReport,
    RequestRecord,
    classify_error,
    payload_fn_for_model,
    replay_trace,
    write_replay_log,
)
from repro.loadgen.trace import (
    TRACE_FORMAT,
    TraceError,
    TraceEvent,
    TraceStats,
    dump_trace,
    mean_rate_rps,
    parse_trace,
    peak_rate_rps,
    read_trace,
    trace_duration_s,
    trace_stats,
    validate_events,
    write_trace,
)

__all__ = [
    "TRACE_FORMAT",
    "TraceError",
    "TraceEvent",
    "TraceStats",
    "dump_trace",
    "parse_trace",
    "read_trace",
    "write_trace",
    "validate_events",
    "trace_duration_s",
    "mean_rate_rps",
    "peak_rate_rps",
    "trace_stats",
    "GENERATORS",
    "poisson_trace",
    "bursty_trace",
    "diurnal_trace",
    "ERROR_CLASSES",
    "classify_error",
    "payload_fn_for_model",
    "replay_trace",
    "write_replay_log",
    "ReplayReport",
    "RequestRecord",
    "ClosedLoopReport",
    "drive_closed_loop",
    "gateway_sender",
]
