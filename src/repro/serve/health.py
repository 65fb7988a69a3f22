"""Replica health supervision: probe, quarantine, restart, report.

A :class:`Supervisor` is a per-pool background loop (one per served
model, attached through the registry like the autoscaler) that turns
replica failures from permanent capacity loss into a transient blip:

1. **Liveness** — a replica whose worker thread died (``alive`` is
   false: a :class:`~repro.serve.server.WorkerCrash`, or any real
   thread death) is restarted immediately, subject to backoff.
2. **Deadline probe** — each tick submits one synthetic inference
   directly to each live replica and waits up to ``probe_timeout_s``.
   A probe that errors or times out counts one *strike*; at
   ``fail_threshold`` consecutive strikes the replica is quarantined
   (``healthy = False`` — out of routing, in-flight work unaffected)
   and then restarted. ``recovery_threshold`` consecutive successes
   lift a quarantine without a restart.
3. **Bounded restarts** — restarts are serialized through an
   exponential backoff (``backoff_base_s`` doubling to
   ``backoff_max_s``); a *storm* of ``max_restarts`` consecutive
   restarts, none of whose replacements ever completed a request,
   parks the replica as ``failed`` — the supervisor stops reviving
   something that dies on arrival, and ``/healthz`` shows the model
   degraded. A replacement completing one request ends the storm; a
   hot swap (fresh pool, fresh artifact) resets everything.

Restarts are **drain-safe** at pool level: the replacement replica
enters routing before the failed one is torn down
(:meth:`~repro.serve.replica.ReplicaPool.replace_replica`), so healthy
capacity never dips below what it was at the moment of failure.

The pool is re-read through ``pool_fn`` every tick (the autoscaler's
swap-transparency pattern): a hot swap flips the entry to a fresh pool
and the supervisor follows it, resetting per-replica bookkeeping but
keeping cumulative counters for ``/stats``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field

from repro.obs.events import EventBus
from repro.serve.replica import NoHealthyReplicas, ReplicaPool
from repro.serve.server import InferenceServer, ServerClosed, ServerOverloaded
from repro.utils.log import get_logger

logger = get_logger("health")

#: Ring capacity for a standalone supervisor's private event bus.
MAX_EVENTS = 256

#: Replica states as reported by ``stats()``/``/healthz``.
STATE_HEALTHY = "healthy"
STATE_SUSPECT = "suspect"  # strikes accumulating, still in routing
STATE_QUARANTINED = "quarantined"  # out of routing, probing continues
STATE_FAILED = "failed"  # restart storm cap hit; operator's problem now


@dataclass(frozen=True)
class HealthPolicy:
    """Knobs for one model's supervisor.

    Parameters
    ----------
    interval_s:
        Tick period of the supervision loop.
    probe_timeout_s:
        Deadline for one synthetic-inference probe; a slower reply is a
        strike (the wedged-replica detector).
    probe:
        ``False`` disables inference probes (liveness-only supervision
        for models whose payloads cannot be synthesized).
    fail_threshold:
        Consecutive strikes before a replica is quarantined+restarted.
    recovery_threshold:
        Consecutive probe successes that lift a quarantine.
    max_restarts:
        Restart-storm cap: consecutive restarts (no healthy tick in
        between) before the supervisor gives up on the pool slot.
    backoff_base_s / backoff_max_s:
        Exponential restart backoff: the k-th restart of a storm waits
        ``min(base * 2**(k-1), max)`` seconds after the previous one.
    """

    interval_s: float = 0.05
    probe_timeout_s: float = 5.0
    probe: bool = True
    fail_threshold: int = 3
    recovery_threshold: int = 1
    max_restarts: int = 5
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {self.interval_s}")
        if self.probe_timeout_s <= 0:
            raise ValueError(f"probe_timeout_s must be > 0, got {self.probe_timeout_s}")
        if self.fail_threshold < 1:
            raise ValueError(f"fail_threshold must be >= 1, got {self.fail_threshold}")
        if self.recovery_threshold < 1:
            raise ValueError(
                f"recovery_threshold must be >= 1, got {self.recovery_threshold}"
            )
        if self.max_restarts < 1:
            raise ValueError(f"max_restarts must be >= 1, got {self.max_restarts}")
        if self.backoff_base_s < 0:
            raise ValueError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.backoff_max_s < self.backoff_base_s:
            raise ValueError(
                f"backoff_max_s ({self.backoff_max_s}) must be >= "
                f"backoff_base_s ({self.backoff_base_s})"
            )

    def backoff_s(self, storm: int) -> float:
        """Delay before the ``storm``-th consecutive restart (1-based)."""
        return min(self.backoff_base_s * (2 ** max(storm - 1, 0)), self.backoff_max_s)


@dataclass
class _ReplicaRecord:
    """Per-replica probe bookkeeping (supervisor thread only)."""

    server: InferenceServer
    strikes: int = 0
    successes: int = 0
    state: str = STATE_HEALTHY
    last_error: str | None = None


@dataclass
class _PendingProbe:
    """One in-flight probe: submitted this tick, judged when resolved."""

    record: _ReplicaRecord
    handle: object
    deadline: float


class Supervisor:
    """Background health loop for one model's replica pool.

    Parameters
    ----------
    pool_fn:
        Zero-argument callable returning the current pool (or ``None``
        mid-teardown) — the swap-transparency hook.
    policy:
        The :class:`HealthPolicy` knobs.
    probe_fn:
        Zero-argument callable returning one synthetic request payload;
        ``None`` (or ``policy.probe=False``) degrades to liveness-only
        supervision.
    name:
        Model name for thread naming and logs.
    clock:
        Monotonic clock, injectable for deterministic tests.
    events:
        Shared :class:`~repro.obs.EventBus` to publish actions to
        (``source="supervisor"``, ``model=name``). A standalone
        supervisor gets a private bus so ``events()`` keeps working.
    """

    def __init__(
        self,
        pool_fn,
        policy: HealthPolicy,
        *,
        probe_fn=None,
        name: str = "",
        clock=time.monotonic,
        events: EventBus | None = None,
    ):
        self.pool_fn = pool_fn
        self.policy = policy
        self.probe_fn = probe_fn if policy.probe else None
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()  # guards events + cumulative counters
        self._stop_evt = threading.Event()
        self._thread: threading.Thread | None = None
        # supervisor-thread-only state
        self._pool: ReplicaPool | None = None
        self._records: dict[int, _ReplicaRecord] = {}  # id(server) -> record
        self._pending: list[_PendingProbe] = []
        self._storm = 0  # consecutive restarts with no replacement proven good
        self._next_restart_ts = 0.0
        self._last_replacement: InferenceServer | None = None
        self._gave_up = False
        # cumulative counters (under _lock)
        self.restarts = 0
        self.quarantines = 0
        self.recoveries = 0
        self.probes_sent = 0
        self.probe_failures = 0
        self.ticks = 0
        self.last_error: str | None = None
        self._bus = events if events is not None else EventBus(MAX_EVENTS)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Supervisor":
        if self._thread is not None:
            return self
        self._stop_evt.clear()
        self._thread = threading.Thread(
            target=self._run, name=f"supervisor-{self.name or 'pool'}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        self._stop_evt.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _run(self) -> None:
        while not self._stop_evt.wait(self.policy.interval_s):
            try:
                self.tick()
            except ServerClosed:
                continue  # raced a swap/unload; next tick re-reads pool_fn
            except Exception as exc:  # noqa: BLE001 - the loop must survive
                with self._lock:
                    self.last_error = f"{type(exc).__name__}: {exc}"
                logger.warning("supervisor %s tick failed: %s", self.name, exc)

    # ------------------------------------------------------------------
    # the control step (public so tests can drive it deterministically)
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One supervision pass: judge pending probes, check liveness,
        restart what must be restarted, launch this tick's probes."""
        with self._lock:
            self.ticks += 1
        pool = self.pool_fn()
        if pool is None or not pool.running:
            return
        if pool is not self._pool:
            # a hot swap flipped in a fresh pool: per-replica bookkeeping
            # restarts from scratch, storm state resets (new artifact,
            # new chances), cumulative counters continue.
            self._pool = pool
            self._records.clear()
            self._pending = []
            self._storm = 0
            self._next_restart_ts = 0.0
            self._last_replacement = None
            self._gave_up = False

        self._judge_pending()
        self._maybe_end_storm()

        replicas = pool._snapshot()
        current_ids = {id(s) for s in replicas}
        self._records = {
            key: rec for key, rec in self._records.items() if key in current_ids
        }
        for server in replicas:
            rec = self._records.get(id(server))
            if rec is None:
                rec = self._records[id(server)] = _ReplicaRecord(server)
            if not server.alive:
                rec.state = STATE_QUARANTINED
                rec.last_error = rec.last_error or "worker thread dead"
                self._restart(pool, rec, reason="crashed")
                continue
            self._maybe_probe(rec)

    def _maybe_end_storm(self) -> None:
        """A restart storm ends only when a replacement *proves* itself.

        "The pool looks healthy right after a restart" proves nothing —
        a replica that crashes on its first request always looks fine
        for a tick. The proof is the replacement surviving at least one
        completed request (probe or real traffic). Without it the storm
        counter keeps climbing toward ``max_restarts``, which is what
        bounds a crash-on-arrival loop.
        """
        if not self._storm or self._gave_up:
            return
        last = self._last_replacement
        if last is None or not last.alive or not last.healthy:
            return
        if last.stats().completed > 0:
            self._storm = 0
            self._last_replacement = None

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def _maybe_probe(self, rec: _ReplicaRecord) -> None:
        if self.probe_fn is None:
            return
        if any(p.record is rec for p in self._pending):
            return  # one outstanding probe per replica
        try:
            payload = self.probe_fn()
            handle = rec.server.submit(payload, block=False)
        except ServerOverloaded:
            return  # saturation is load, not ill health; skip this tick
        except ServerClosed:
            return  # stopping/being replaced; liveness check handles it
        with self._lock:
            self.probes_sent += 1
        self._pending.append(
            _PendingProbe(rec, handle, self._clock() + self.policy.probe_timeout_s)
        )

    def _judge_pending(self) -> None:
        """Resolve finished probes; time out the ones past deadline."""
        still_pending: list[_PendingProbe] = []
        for probe in self._pending:
            if probe.handle.ready:
                try:
                    probe.handle.wait(0)
                except BaseException as exc:  # noqa: BLE001 - strike
                    self._strike(probe.record, f"{type(exc).__name__}: {exc}")
                else:
                    self._probe_ok(probe.record)
            elif self._clock() >= probe.deadline:
                self._strike(
                    probe.record,
                    f"probe exceeded {self.policy.probe_timeout_s}s deadline",
                )
            else:
                still_pending.append(probe)
        self._pending = still_pending

    def _probe_ok(self, rec: _ReplicaRecord) -> None:
        rec.strikes = 0
        rec.successes += 1
        rec.last_error = None
        if rec.state == STATE_QUARANTINED and (
            rec.successes >= self.policy.recovery_threshold
        ):
            rec.state = STATE_HEALTHY
            rec.server.healthy = True
            with self._lock:
                self.recoveries += 1
            self._record_event("recovered", rec)
        elif rec.state == STATE_SUSPECT:
            rec.state = STATE_HEALTHY
            self._record_event("cleared", rec)

    def _strike(self, rec: _ReplicaRecord, error: str) -> None:
        rec.strikes += 1
        rec.successes = 0
        rec.last_error = error
        with self._lock:
            self.probe_failures += 1
        if rec.strikes < self.policy.fail_threshold:
            if rec.state == STATE_HEALTHY:
                rec.state = STATE_SUSPECT
            return
        if rec.state != STATE_QUARANTINED:
            rec.state = STATE_QUARANTINED
            rec.server.healthy = False
            with self._lock:
                self.quarantines += 1
            self._record_event("quarantined", rec, error=error)
            logger.warning(
                "supervisor %s: quarantined replica %s (%s)",
                self.name, rec.server.slot, error,
            )
        pool = self._pool
        if pool is not None:
            self._restart(pool, rec, reason="wedged")

    # ------------------------------------------------------------------
    # restarts
    # ------------------------------------------------------------------
    def _restart(self, pool: ReplicaPool, rec: _ReplicaRecord, *, reason: str) -> None:
        if self._gave_up:
            rec.state = STATE_FAILED
            return
        now = self._clock()
        if now < self._next_restart_ts:
            return  # backing off; the replica stays out of routing
        if self._storm >= self.policy.max_restarts:
            self._gave_up = True
            rec.state = STATE_FAILED
            self._record_event("gave_up", rec, error=rec.last_error)
            logger.error(
                "supervisor %s: restart storm cap (%d) hit; leaving replica "
                "%s down", self.name, self.policy.max_restarts, rec.server.slot,
            )
            return
        new = pool.replace_replica(rec.server)
        if new is None:
            return  # replica already left the pool (scale-down race)
        self._storm += 1
        self._last_replacement = new
        self._next_restart_ts = now + self.policy.backoff_s(self._storm)
        with self._lock:
            self.restarts += 1
        # drop dead bookkeeping; the replacement gets a fresh record on
        # the next tick (and a fresh fault-plan slot number)
        self._records.pop(id(rec.server), None)
        self._pending = [p for p in self._pending if p.record is not rec]
        self._record_event(
            "restarted", rec, error=rec.last_error, reason=reason,
            new_slot=new.slot, backoff_s=self.policy.backoff_s(self._storm),
        )
        logger.info(
            "supervisor %s: restarted %s replica %s -> slot %s (storm %d)",
            self.name, reason, rec.server.slot, new.slot, self._storm,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def _record_event(self, action: str, rec: _ReplicaRecord, **extra) -> None:
        self._bus.publish(
            "supervisor", action, model=self.name or None,
            action=action, replica=rec.server.slot, **extra,
        )

    def events(self) -> list[dict]:
        """This supervisor's actions, oldest first (bus-backed)."""
        return self._bus.events(source="supervisor", model=self.name or None)

    def stats(self, *, tail: int = 20) -> dict:
        """JSON-ready snapshot for ``/stats`` and ``/healthz``."""
        events = self.events()[-tail:] if tail > 0 else []
        with self._lock:
            return {
                "running": self.running,
                "policy": asdict(self.policy),
                "ticks": self.ticks,
                "restarts": self.restarts,
                "quarantines": self.quarantines,
                "recoveries": self.recoveries,
                "probes_sent": self.probes_sent,
                "probe_failures": self.probe_failures,
                "gave_up": self._gave_up,
                "events": events,
                "last_error": self.last_error,
            }


def pool_health(pool: ReplicaPool, supervisor: Supervisor | None = None) -> dict:
    """The ``/healthz`` per-model block: state + counts (+ supervision)."""
    info = {
        "state": pool.health_state(),
        "replicas": pool.num_replicas,
        "healthy_replicas": pool.healthy_replicas,
        "crashes": pool.stats().crashes,
        "replacements": pool.replacements,
        "supervised": supervisor is not None and supervisor.running,
    }
    if supervisor is not None:
        s = supervisor.stats(tail=0)
        info["restarts"] = s["restarts"]
        info["quarantines"] = s["quarantines"]
        info["gave_up"] = s["gave_up"]
    return info


__all__ = [
    "HealthPolicy",
    "Supervisor",
    "NoHealthyReplicas",
    "pool_health",
]
