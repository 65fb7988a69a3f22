"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.

Workloads
---------
``offline-resnet`` / ``offline-bert``
    One closed-loop caller scores a fixed seeded set of inputs (32x32
    images; MiniBERT-base token sequences of length 48) through an
    in-process ``IntegerEngine`` in batches of 64, for ``--seconds``.
    Latency is per batch; ``latency_p99_ms`` is the highest percentile
    that ten of the run's ~70 batches lie beyond (about p85), since a
    p99 would need 1000 batches.
``online-mixed``
    A gateway in its own process (``serve_gateway``, one thread replica
    per model, ``max_batch_size=8``, ``max_wait_ms=2``) serves single
    samples of both models, sent with ``GatewayClient.predict`` from at
    most ``nproc`` threads. The gateway runs with one BLAS thread. An
    open phase of 1000 seeded Poisson arrivals at 25 rps, alternating
    between the models (about 40 s, so ten requests lie beyond the p99),
    is followed by a saturation phase of two closed-loop callers, each
    drawing its model at random, for ``--seconds``; ``throughput_sps`` is
    the median of its one-second rates.

Every run first sets up ``SETUP_REPS`` times (build, ``quantize_model``,
``save_artifact``, engine load or gateway start, one warm-up per model)
and reports the median as ``setup_s``. Every output, offline batch and
HTTP reply alike, must equal the numpy ``integer`` backend's output
exactly.

``--trace 0`` prints the end-to-end metrics (``latency_p99_ms`` in the
table only, not in the result line); ``--trace 1`` wraps every
engine module (inside the gateway process too) in a self-time ledger,
asks the gateway for its span timelines, and prints the per-layer
metrics, including ``tracing.overhead_frac``, the slowdown of traced work
against untraced work interleaved in the same run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
error rate (failed, refused and wrong-output requests, or wrong offline
rows), which the table above it prints as ``error_rate``. Exit status: 0
when every
output was right and every check held; 1 otherwise; 2 when the package
sources are missing; 3 when an open phase built an unbounded backlog and
so measured nothing.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 5
BATCH = 64
OFFLINE_BATCHES = 4
PAYLOADS_PER_MODEL = 32
OPEN_RATE_RPS = 25.0
OPEN_ARRIVALS = 1000
SATURATION_CALLERS = 2
#: Seeded (model, payload) draws per closed-loop caller, reused cyclically.
SATURATION_DRAWS = 4096
#: |engine.reconcile_frac - 1| allowed on the offline workloads.
RECONCILE_TOLERANCE = 0.05
#: Unsent arrivals at the end of an open phase that mark it unbounded.
MAX_END_BACKLOG = 8

END_TO_END = {
    "throughput_sps": "samples/s",
    "latency_p50_ms": "ms",
    "rss_peak_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    **{
        f"quant.{kind}.{name}": unit
        for kind in ("conv2d", "linear", "embedding")
        for name, unit in (("self_ms", "ms"), ("calls", "count"), ("macs", "MAC"),
                           ("gmac_s", "GMAC/s"))
    },
    "attn.operand_quant.self_ms": "ms",
    "attn.core.self_ms": "ms",
    "glue.batchnorm.self_ms": "ms",
    "glue.layernorm.self_ms": "ms",
    "glue.gelu.self_ms": "ms",
    "glue.other.self_ms": "ms",
    "engine.forward_ms": "ms",
    "engine.reconcile_frac": "fraction",
    "client.latency_ms": "ms",
    "gateway.decode_ms": "ms",
    "gateway.encode_ms": "ms",
    "serve.unaccounted_ms": "ms",
    "serve.coverage_frac": "fraction",
    "server.queue_wait_ms": "ms",
    "server.batch_form_ms": "ms",
    "server.execute_ms": "ms",
    "server.batch_size_mean": "samples",
    "server.batches": "count",
    "server.rejected": "count",
    "setup.quantize_s": "s",
    "setup.export_s": "s",
    "setup.load_s": "s",
    "setup.warmup_s": "s",
    "setup.kernel_compile_s": "s",
    "setup.kernel_cache_misses": "count",
    "loadgen.lateness_p99_ms": "ms",
    "loadgen.backlog_max": "count",
    "tracing.overhead_frac": "fraction",
}

#: Gateway spans, in request order; their sum plus serve.unaccounted_ms
#: is the client-observed latency.
SPANS = ("decode", "queue_wait", "batch_form", "execute", "encode")


class PhaseInvalid(RuntimeError):
    """An open phase's backlog grew without bound; its latencies mean nothing."""


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    nproc: int
    attempted: int = 0
    failed: int = 0
    checks: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    #: software and hardware the run measured, printed with the results
    env: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.checks.append(what)

    def note(self, line: str) -> None:
        self.lines.append(line)


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cc_version() -> str:
    try:
        out = subprocess.run(
            ["cc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.splitlines()[0] if out else "unavailable"


def vmhwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def artifact_sha(directory: Path) -> str:
    return json.loads((directory / "manifest.json").read_text())["payload"]["sha256"]


def median_rep(reps: list[dict]) -> dict:
    """The set-up repetition with the median total time."""
    return sorted(reps, key=lambda r: r["total"])[len(reps) // 2]


def setup_metrics(run: Run, reps: list[dict], kernel_cache: dict) -> None:
    rep = median_rep(reps)
    run.metrics["setup_s"] = rep["total"]
    for phase in ("quantize", "export", "load", "warmup"):
        run.metrics[f"setup.{phase}_s"] = rep[phase]
    run.metrics["setup.kernel_compile_s"] = float(kernel_cache["compile_s"])
    run.metrics["setup.kernel_cache_misses"] = kernel_cache["misses"]
    run.check(
        len({r["sha"] for r in reps}) == 1,
        "set-up repetitions exported different artifacts",
    )


# ----------------------------------------------------------------------
# offline workloads
# ----------------------------------------------------------------------
def offline(run: Run, model: str) -> None:
    import numpy as np

    import zoo
    from benchlib import SelfTimeLedger, supported_tail
    from repro.compile.runtime import kernel_cache_stats

    rng = np.random.default_rng([run.seed, zoo.MODELS.index(model)])
    batches = [zoo.sample_inputs(model, rng, BATCH) for _ in range(OFFLINE_BATCHES)]

    reps = []
    engine = None
    for r in range(SETUP_REPS):
        engine = None  # release the previous repetition's engine first
        directory = run.workdir / f"{model}-{r}"
        t0 = time.perf_counter()
        rep = zoo.export(model, directory)
        t1 = time.perf_counter()
        engine = zoo.load_engine(directory)
        t2 = time.perf_counter()
        engine(*batches[0])
        t3 = time.perf_counter()
        rep.update(load=t2 - t1, warmup=t3 - t2, total=t3 - t0, sha=artifact_sha(directory))
        reps.append(rep)
    setup_metrics(run, reps, kernel_cache_stats())

    refs = [zoo.reference_outputs(directory, batch) for batch in batches]

    ledger = SelfTimeLedger()
    plain: list[float] = []
    traced: list[float] = []
    wrong = 0
    deadline = time.perf_counter() + run.seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        k = i % OFFLINE_BATCHES
        tracing = run.trace and i % 2 == 1
        if tracing:
            zoo.instrument(engine.model, ledger)
        t0 = time.perf_counter()
        out = engine(*batches[k])
        dt = time.perf_counter() - t0
        if tracing:
            zoo.uninstrument(engine.model)
        (traced if tracing else plain).append(dt)
        same = (out == refs[k]).reshape(BATCH, -1).all(axis=1)
        wrong += int(BATCH - same.sum())
        i += 1
    run.attempted += i * BATCH
    run.failed += wrong
    run.check(wrong == 0, f"{wrong} offline output rows differ from the integer reference")
    run.note(f"phase offline: {i} batches of {BATCH} ({len(traced)} traced), {wrong} wrong rows")

    run.metrics["throughput_sps"] = BATCH / statistics.median(plain)
    run.metrics["latency_p50_ms"] = statistics.median(plain) * 1e3
    # A p99 needs 1000 batches (~5 min); report the highest percentile the
    # run's batches support, as the online phase does for its p99.
    p, tail = supported_tail(plain)
    run.metrics["latency_p99_ms"] = tail * 1e3
    run.note(
        f"offline latency is per batch of {BATCH}: p50 and, as latency_p99_ms, "
        f"p{p:.0f} of {len(plain)} batches (the highest with ten beyond it)"
    )
    run.metrics["rss_peak_mb"] = vmhwm_mb()

    if run.trace:
        run.metrics.update(zoo.layer_metrics(ledger.snapshot(), sum(traced), len(traced)))
        run.metrics["tracing.overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0
        )
        frac = run.metrics["engine.reconcile_frac"]
        run.check(
            abs(frac - 1.0) <= RECONCILE_TOLERANCE,
            f"engine.reconcile_frac {frac:.4f} is not within {RECONCILE_TOLERANCE} of 1",
        )


# ----------------------------------------------------------------------
# online workload
# ----------------------------------------------------------------------
class GatewayProcess:
    """``gateway_proc.py`` as a child process, driven over its stdin/stdout."""

    def __init__(self, dirs: dict[str, Path], env: dict[str, str]):
        cmd = [sys.executable, str(HERE / "gateway_proc.py")]
        cmd += [f"--model={name}={path}" for name, path in dirs.items()]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=ROOT,
        )
        try:
            ready = self._read(timeout_s=120.0)
            self.url, self.blas_threads = ready["url"], ready["blas_threads"]
        except BaseException:
            self.close()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _read(self, timeout_s: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        if not ready:
            raise RuntimeError(f"gateway process silent for {timeout_s:.0f}s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"gateway process exited with status {self.proc.wait()}")
        return json.loads(line)

    def command(self, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self._read(timeout_s=60.0)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.command(cmd="stop")
                self.proc.wait(timeout=60)
            except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # More BLAS threads than one would spin-wait between the gateway's
    # small matmuls on the CPUs the load generator needs.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def online(run: Run) -> None:
    import numpy as np

    import zoo
    from benchlib import run_closed_loop, run_open_loop, tail_percentile
    from repro.serve import GatewayClient

    connections = min(SATURATION_CALLERS, run.nproc)
    rng = np.random.default_rng([run.seed, len(zoo.MODELS)])
    pools = {m: zoo.sample_inputs(m, rng, PAYLOADS_PER_MODEL) for m in zoo.MODELS}
    gaps = rng.exponential(1.0 / OPEN_RATE_RPS, OPEN_ARRIVALS)
    due_s = list(np.cumsum(gaps) - gaps[0])
    picks = rng.integers(0, PAYLOADS_PER_MODEL, OPEN_ARRIVALS)
    # Each closed-loop caller draws its model at random: a fixed alternation
    # lets the callers lock into step (both on one model, or one on each),
    # and the rate jumps between those regimes.
    sat_models = rng.integers(0, len(zoo.MODELS), (connections, SATURATION_DRAWS))
    sat_picks = rng.integers(0, PAYLOADS_PER_MODEL, (connections, SATURATION_DRAWS))
    refs: dict[str, np.ndarray] = {}
    errors: list[str] = []
    spans: list[dict] = []

    def payload(model: str, j: int):
        fields = tuple(a[j] for a in pools[model])
        return fields[0] if len(fields) == 1 else fields

    def predict(client, model: str, j: int, trace: bool) -> bool:
        start = time.perf_counter()
        try:
            reply = client.predict(model, payload(model, j), trace=trace)
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
            errors.append(f"{model}: {type(exc).__name__}: {exc}")
            return False
        client_ms = (time.perf_counter() - start) * 1e3
        out = np.asarray(reply["outputs"] if trace else reply)
        if model in refs and not np.array_equal(out, refs[model][j]):
            errors.append(f"{model}: reply for payload {j} differs from the reference")
            return False
        if trace:
            spans.append({"client": client_ms, "spans": reply["trace"]["spans"]})
        return True

    env = _child_env()
    reps = []
    gateway = None
    try:
        for r in range(SETUP_REPS):
            if gateway is not None:
                gateway.close()
                gateway = None
            dirs = {m: run.workdir / f"{m}-{r}" for m in zoo.MODELS}
            t0 = time.perf_counter()
            rep = {"quantize": 0.0, "export": 0.0}
            for m, directory in dirs.items():
                for phase, secs in zoo.export(m, directory).items():
                    rep[phase] += secs
            t1 = time.perf_counter()
            gateway = GatewayProcess(dirs, env)
            t2 = time.perf_counter()
            client = GatewayClient(gateway.url)
            warm = all(predict(client, m, 0, False) for m in zoo.MODELS)
            t3 = time.perf_counter()
            run.check(warm, "a warm-up request failed")
            rep.update(
                load=t2 - t1, warmup=t3 - t2, total=t3 - t0,
                sha="+".join(artifact_sha(d) for d in dirs.values()),
            )
            reps.append(rep)

        for m, directory in dirs.items():
            refs[m] = zoo.reference_outputs(directory, pools[m])

        # -- open phase ------------------------------------------------
        if run.trace:
            gateway.command(cmd="trace", on=True)

        def open_send(i: int) -> bool:
            return predict(client, zoo.MODELS[i % 2], int(picks[i]), run.trace)

        report = run_open_loop(
            due_s, open_send, connections=connections, cap=run.nproc
        )
        ok = sum(r.ok for r in report.records)
        run.attempted += len(report.records)
        run.failed += len(report.records) - ok
        lateness_p99 = tail_percentile(report.lateness_ms(), 99)
        run.note(
            f"phase open: {len(report.records)} sent at {OPEN_RATE_RPS:g} rps, {ok} ok, "
            f"{len(report.records) - ok} failed; lateness p99 {lateness_p99:.3f} ms; "
            f"backlog max {report.backlog_max}, at end {report.backlog_end}; "
            f"max in flight {report.max_in_flight}"
        )
        run.check(
            report.max_in_flight <= run.nproc,
            f"load generator had {report.max_in_flight} requests in flight on {run.nproc} CPUs",
        )
        if report.backlog_end > MAX_END_BACKLOG:
            raise PhaseInvalid(
                f"open phase ended with {report.backlog_end} unsent arrivals "
                f"(limit {MAX_END_BACKLOG}): the backlog grew without bound"
            )
        latencies = report.latencies_ms()
        run.metrics["latency_p50_ms"] = statistics.median(latencies)
        run.metrics["latency_p99_ms"] = tail_percentile(latencies, 99)
        run.metrics["loadgen.lateness_p99_ms"] = lateness_p99
        run.metrics["loadgen.backlog_max"] = report.backlog_max
        if run.trace:
            ledger = gateway.command(cmd="ledger")
            run.metrics.update(zoo.layer_metrics(ledger, ledger["root_s"], ledger["roots"]))
            serve_ledger(run, spans)

        # -- saturation phase -------------------------------------------
        # One-second windows, alternately untraced and traced in a traced run;
        # each rate is the median over its windows.
        windows = max(2, 2 * round(run.seconds / 2))
        labels = ("plain", "traced") if run.trace else ("plain",)
        phases = [(run.seconds / windows, labels[w % len(labels)]) for w in range(windows)]

        def on_phase(label: str) -> None:
            if run.trace:
                gateway.command(cmd="trace", on=label == "traced")

        def closed_send(c: int, k: int, label: str) -> bool:
            k %= SATURATION_DRAWS
            model = zoo.MODELS[sat_models[c, k]]
            return predict(client, model, int(sat_picks[c, k]), label == "traced")

        before = client.stats()
        sat = run_closed_loop(
            closed_send, callers=connections, cap=run.nproc, phases=phases,
            on_phase=on_phase,
        )
        after = client.stats()
        run.attempted += sat.attempted
        run.failed += sat.failed
        run.note(
            f"phase saturation: {connections} closed-loop callers, {sat.attempted} sent, "
            f"{sat.attempted - sat.failed} ok, {sat.failed} failed; no backlog (closed loop)"
        )
        run.metrics["throughput_sps"] = sat.median_throughput("plain")
        if run.trace:
            run.metrics["tracing.overhead_frac"] = (
                sat.median_throughput("plain") / sat.median_throughput("traced") - 1.0
            )
        def batch_hist_delta(key: str) -> float:  # saturation phase only
            return sum(
                after["models"][m]["batch_size_hist"][key]
                - before["models"][m]["batch_size_hist"][key]
                for m in zoo.MODELS
            )

        batches, batched = batch_hist_delta("count"), batch_hist_delta("sum")
        run.metrics["server.batches"] = batches
        run.metrics["server.batch_size_mean"] = batched / batches if batches else 0.0
        run.metrics["server.rejected"] = sum(after["models"][m]["rejected"] for m in zoo.MODELS)
        setup_metrics(run, reps, after["kernel_cache"])
        run.metrics["rss_peak_mb"] = vmhwm_mb(gateway.pid)
        run.env["gateway_blas_threads"] = gateway.blas_threads
    finally:
        if gateway is not None:
            gateway.close()
    if errors:
        run.note(f"first failure of {len(errors)}: {errors[0]}")
    run.check(not errors, f"{len(errors)} requests failed or returned wrong outputs")
    run.note(f"latency percentiles over {OPEN_ARRIVALS} open-phase requests, from due time")


def serve_ledger(run: Run, traced: list[dict]) -> None:
    """Mean client latency split into gateway spans plus the unaccounted rest."""
    if not traced:
        run.check(False, "no traced replies")
        return
    n = len(traced)
    sums = {name: 0.0 for name in SPANS}
    client_total = spans_total = 0.0
    negative = incomplete = 0
    for rec in traced:
        durations = {s["name"]: s["dur_ms"] for s in rec["spans"]}
        if set(SPANS) - set(durations):
            incomplete += 1
        covered = sum(durations.get(name, 0.0) for name in SPANS)
        for name in SPANS:
            sums[name] += durations.get(name, 0.0)
        client_total += rec["client"]
        spans_total += covered
        if covered > rec["client"]:
            negative += 1
    client_ms = client_total / n
    unaccounted = (client_total - spans_total) / n
    run.metrics["client.latency_ms"] = client_ms
    run.metrics["gateway.decode_ms"] = sums["decode"] / n
    run.metrics["gateway.encode_ms"] = sums["encode"] / n
    run.metrics["server.queue_wait_ms"] = sums["queue_wait"] / n
    run.metrics["server.batch_form_ms"] = sums["batch_form"] / n
    run.metrics["server.execute_ms"] = sums["execute"] / n
    run.metrics["serve.unaccounted_ms"] = unaccounted
    run.metrics["serve.coverage_frac"] = spans_total / client_total
    span_ms = sum(sums.values()) / n
    run.check(incomplete == 0, f"{incomplete} traced replies lack a span of {SPANS}")
    run.check(negative == 0, f"{negative} replies have spans longer than their client latency")
    run.check(
        abs(span_ms + unaccounted - client_ms) <= 1e-9 * client_ms,
        "spans plus serve.unaccounted_ms do not add up to client.latency_ms",
    )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
WORKLOADS = {
    "offline-resnet": lambda run: offline(run, "resnet"),
    "offline-bert": lambda run: offline(run, "bert"),
    "online-mixed": online,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="VS-Quant serving benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Benchmark-side environment: the default backend, and a kernel cache
    # no earlier run has filled, so setup_s never depends on history.
    os.environ.pop("REPRO_BACKEND", None)
    workdir = ROOT / ".perfbench-run" / str(os.getpid())
    os.environ["REPRO_KERNEL_CACHE"] = str(workdir / "kernels")

    import numpy as np

    import zoo  # noqa: F401 - imports the package, which installs its log handler
    from benchlib import blas_threads

    logging.getLogger("repro").setLevel(logging.WARNING)
    run = Run(args.seed, args.seconds, bool(args.trace), workdir, nproc())
    run.env.update(
        nproc=run.nproc, python=platform.python_version(), numpy=np.__version__,
        cc=cc_version(), blas_threads=blas_threads(),
    )
    steal0, total0 = cpu_ticks()
    try:
        WORKLOADS[args.workload](run)
    except PhaseInvalid as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    steal1, total1 = cpu_ticks()
    # Time the hypervisor gave this machine's CPUs to other guests: the
    # main source of run-to-run spread on a shared host.
    run.note(f"host steal: {(steal1 - steal0) / max(total1 - total0, 1):.1%} of CPU time")
    units = PER_LAYER if run.trace else END_TO_END
    metrics = {name: run.metrics.get(name, 0) for name in units}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={int(run.trace)}")
    print("env " + json.dumps(run.env))
    for line in run.lines:
        print(line)
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"{'error_rate':<30} {error_rate:>14.6g} fraction "
          f"({run.failed} of {run.attempted} attempted)")
    for name, unit in units.items():
        print(f"{name:<30} {metrics[name]:>14.6g} {unit}")
    if not run.trace:
        # Printed but kept out of the result line: across seeds on a shared
        # 2-vCPU host the open phase's p99 spreads by about a fifth of its
        # median, too close to the 25% regression bound to gate on.
        print(f"{'latency_p99_ms':<30} {run.metrics['latency_p99_ms']:>14.6g} ms "
              f"(reported, not in the result line)")
    for what in run.checks:
        print(f"CHECK FAILED: {what}")
    correct = not run.checks and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
