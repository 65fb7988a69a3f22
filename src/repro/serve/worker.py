"""Process-backed and remote replicas behind the ``ReplicaHandle`` contract.

Thread replicas share one interpreter, so N replicas buy ~1 core of
compute. This module moves a replica out of the process: a
:class:`ProcessReplica` **forks** a worker process (read-only weights are
shared copy-on-write with the parent — the same mechanism
``repro.eval.sweep`` uses for its sweep executor) that runs an ordinary
:class:`~repro.serve.server.InferenceServer` loop; a
:class:`RemoteReplica` speaks the same protocol to a shard started with
``repro shard`` on any host. Routing, failover, supervision, autoscaling,
swap, and fault plans above the pool are unchanged — both classes
implement :class:`~repro.serve.replica.ReplicaHandle`.

Wire protocol (symmetric, length-prefixed binary frames)::

    u32 header_len | u32 blobs_len | header (UTF-8 JSON) | blobs (raw bytes)

The header carries ``op``/``id`` plus array descriptors
(``{"dtype", "shape"}`` per blob, concatenated C-contiguous); payloads
round-trip **bitwise** — dtypes and shapes are preserved exactly, which
is what makes thread/process/remote prediction parity checkable against
the golden pins. Client→worker ops: ``submit``, ``stats``, ``health``,
``drain``, ``stop``, ``info``. Worker→client: ``reply`` (matched by
``id``) and unsolicited ``state`` frames announcing liveness flips (the
first one doubles as the startup handshake).

Backpressure is enforced on the *parent* side with an outstanding-request
credit gate sized like the in-process server's queue, so ``submit``
raises :class:`~repro.serve.server.ServerOverloaded` synchronously
without a wire round trip; the child's internal queue gets headroom above
the gate and therefore never rejects on its own.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import socket
import struct
import threading
import time
from collections import deque

import numpy as np

from repro.serve.server import (
    InferenceServer,
    ServeStats,
    ServerClosed,
    ServerOverloaded,
)

#: HTTP content type of one frame as a gateway ``/predict`` body or reply.
FRAME_CONTENT_TYPE = "application/x-repro-frame"

#: Hard cap on a single frame (header + blobs). Far above any batch this
#: stack produces; guards a corrupted/hostile peer from a giant alloc.
MAX_FRAME_BYTES = 1 << 30

#: How long ``ProcessReplica.start`` waits for the child's first ``state``
#: frame before declaring the fork failed.
HANDSHAKE_TIMEOUT_S = 30.0

#: Resolver poll interval in the worker (seconds): how often pending
#: in-flight results are checked and liveness is re-sampled.
_POLL_S = 0.001


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def pack_frame(header: dict, blobs: list[bytes] = ()) -> bytes:
    """One frame as bytes: the socket protocol's unit and the gateway's
    binary ``/predict`` body."""
    hb = json.dumps(header, separators=(",", ":")).encode("utf-8")
    blobs_len = sum(len(b) for b in blobs)
    return b"".join([struct.pack("!II", len(hb), blobs_len), hb, *blobs])


def unpack_frame(data: bytes) -> tuple[dict, memoryview]:
    """Inverse of :func:`pack_frame` → (header, blob bytes); raises
    ``ValueError`` unless ``data`` is exactly one well-formed frame."""
    if len(data) < 8:
        raise ValueError(f"frame of {len(data)} bytes is shorter than its 8-byte prefix")
    hlen, blen = struct.unpack_from("!II", data)
    if 8 + hlen + blen != len(data):
        raise ValueError(
            f"frame prefix declares {8 + hlen + blen} bytes, body has {len(data)}"
        )
    header = json.loads(data[8 : 8 + hlen].decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError("frame header must be a JSON object")
    return header, memoryview(data)[8 + hlen :]


def send_frame(sock: socket.socket, header: dict, blobs: list[bytes] = (), *, lock=None) -> None:
    """Serialize one frame; ``lock`` serializes concurrent senders."""
    data = pack_frame(header, blobs)
    if lock is not None:
        with lock:
            sock.sendall(data)
    else:
        sock.sendall(data)


def close_sock(sock: socket.socket) -> None:
    """Shutdown-then-close. The shutdown matters: closing an fd from one
    thread neither wakes a ``recv``/``accept`` blocked on it in another
    thread nor sends the FIN while that syscall pins the socket, so a
    bare ``close()`` leaves the peer (and our own reader) hanging."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(min(n - len(buf), 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket) -> tuple[dict, bytes]:
    """Read one frame → (header, raw blob bytes)."""
    hlen, blen = struct.unpack("!II", _recv_exact(sock, 8))
    if hlen + blen > MAX_FRAME_BYTES:
        raise ConnectionError(f"frame of {hlen + blen} bytes exceeds MAX_FRAME_BYTES")
    header = json.loads(_recv_exact(sock, hlen).decode("utf-8"))
    blob = _recv_exact(sock, blen) if blen else b""
    return header, blob


# ----------------------------------------------------------------------
# payload codec (bitwise: dtype/shape preserved exactly)
# ----------------------------------------------------------------------
def encode_payload(payload) -> tuple[dict, list[bytes]]:
    """Payload → (descriptor, blobs). Arrays/tuples-of-arrays go binary;
    anything else must be JSON-serializable (raises ``TypeError`` at the
    submit call site, not in the worker)."""
    if isinstance(payload, np.ndarray):
        return (
            {"kind": "array", "arrays": [_array_desc(payload)]},
            [_array_bytes(payload)],
        )
    if isinstance(payload, np.generic):  # numpy scalar: keep the exact dtype
        arr = np.asarray(payload)
        return {"kind": "scalar", "arrays": [_array_desc(arr)]}, [_array_bytes(arr)]
    if (
        isinstance(payload, (tuple, list))
        and payload
        and all(isinstance(p, np.ndarray) for p in payload)
    ):
        kind = "tuple" if isinstance(payload, tuple) else "list"
        return (
            {"kind": kind, "arrays": [_array_desc(p) for p in payload]},
            [_array_bytes(p) for p in payload],
        )
    # json.dumps here (not at frame time) so a bad payload fails the caller.
    return {"kind": "json", "value": json.loads(json.dumps(payload))}, []


def decode_payload(desc: dict, blob: bytes, offset: int = 0):
    """Inverse of :func:`encode_payload`; returns (value, end offset)."""
    kind = desc["kind"]
    if kind == "json":
        return desc["value"], offset
    arrays = []
    for d in desc["arrays"]:
        dtype = np.dtype(d["dtype"])
        shape = tuple(d["shape"])
        if any(n < 0 for n in shape):
            raise ValueError(f"negative dimension in array shape {shape}")
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arr = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
        arrays.append(arr.reshape(shape).copy())  # owned + writable
        offset += count * dtype.itemsize
    if kind == "array":
        return arrays[0], offset
    if kind == "scalar":
        return arrays[0][()], offset
    return (tuple(arrays) if kind == "tuple" else arrays), offset


def _array_desc(a: np.ndarray) -> dict:
    return {"dtype": a.dtype.str, "shape": list(a.shape)}


def _array_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


_RETRYABLE = {
    "ServerClosed": ServerClosed,
    "ServerOverloaded": ServerOverloaded,
    "TimeoutError": TimeoutError,
}


def _encode_error(exc: BaseException) -> dict:
    return {"etype": type(exc).__name__, "error": str(exc)}


def _decode_error(header: dict) -> BaseException:
    etype, msg = header.get("etype", "RuntimeError"), header.get("error", "")
    if etype in _RETRYABLE:
        return _RETRYABLE[etype](msg)
    if etype == "FaultInjected":  # chaos hooks keep their type across the wire
        from repro.serve.faults import FaultInjected

        return FaultInjected(msg)
    import builtins

    cls = getattr(builtins, etype, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        return cls(msg)
    return RuntimeError(f"{etype}: {msg}")


# ----------------------------------------------------------------------
# worker side (runs in the forked child, or per-connection in a shard)
# ----------------------------------------------------------------------
def worker_loop(
    conn: socket.socket,
    server: InferenceServer,
    *,
    owns_server: bool = True,
    info: dict | None = None,
) -> None:
    """Serve the wire protocol over ``conn`` against ``server``.

    ``owns_server=True`` (forked process replica): ``stop`` shuts the
    server down and the loop exits. ``owns_server=False`` (one shard
    connection among many): ``stop`` only disconnects this client; the
    shared server keeps serving other gateways.

    The read loop stays single-threaded; a resolver thread polls
    in-flight :class:`~repro.serve.server.PendingResponse` handles,
    ships results back (send-lock serialized against the read loop's
    replies), and pushes a ``state`` frame whenever ``server.alive``
    flips — the first one, sent before the loop starts, is the
    handshake the parent waits on.
    """
    send_lock = threading.Lock()
    pending: deque = deque()  # (request id, PendingResponse)
    done = threading.Event()

    def push_state(alive: bool) -> None:
        try:
            send_frame(
                conn,
                {"op": "state", "alive": alive, "crashes": server.crashes},
                lock=send_lock,
            )
        except OSError:
            done.set()

    def send_reply(req_id, header: dict, blobs: list[bytes] = ()) -> None:
        header = {"op": "reply", "id": req_id, **header}
        try:
            send_frame(conn, header, blobs, lock=send_lock)
        except OSError:
            done.set()

    def resolve_loop() -> None:
        last_alive = True
        ticks = 0
        while not done.is_set():
            progressed = False
            for _ in range(len(pending)):
                try:
                    req_id, handle = pending.popleft()
                except IndexError:
                    break
                if not handle.ready:
                    pending.append((req_id, handle))
                    continue
                progressed = True
                try:
                    result = handle.wait(timeout=0)
                    desc, blobs = encode_payload(result)
                    send_reply(req_id, {"ok": True, "payload": desc}, blobs)
                except BaseException as exc:  # noqa: BLE001 - forwarded to peer
                    send_reply(req_id, {"ok": False, **_encode_error(exc)})
            ticks += 1
            if ticks % 20 == 0:
                alive = server.alive
                if alive != last_alive:
                    last_alive = alive
                    push_state(alive)
            if not progressed:
                time.sleep(_POLL_S)

    push_state(server.alive)  # handshake
    resolver = threading.Thread(target=resolve_loop, name="worker-resolver", daemon=True)
    resolver.start()
    try:
        while not done.is_set():
            try:
                header, blob = recv_frame(conn)
            except (ConnectionError, OSError):
                break
            op, req_id = header.get("op"), header.get("id")
            if op == "submit":
                try:
                    payload, _ = decode_payload(header["payload"], blob)
                    handle = server.submit(payload, block=False)
                except (ServerOverloaded, ServerClosed) as exc:
                    send_reply(req_id, {"ok": False, **_encode_error(exc)})
                else:
                    pending.append((req_id, handle))
            elif op == "stats":
                st = server.stats()
                send_reply(
                    req_id,
                    {"ok": True, "stats": st.as_dict(),
                     "latencies": server.latencies_ms().tolist()},
                )
            elif op == "health":
                send_reply(
                    req_id,
                    {"ok": True, "alive": server.alive, "load": server.load,
                     "crashes": server.crashes},
                )
            elif op == "drain":
                server.drain()
                send_reply(req_id, {"ok": True})
            elif op == "info":
                send_reply(req_id, {"ok": True, "info": dict(info or {})})
            elif op == "stop":
                if owns_server:
                    server.stop(drain=bool(header.get("drain", True)))
                send_reply(req_id, {"ok": True})
                break
            else:
                send_reply(req_id, {"ok": False, "etype": "ValueError",
                                    "error": f"unknown op {op!r}"})
    finally:
        done.set()
        resolver.join(timeout=5.0)
        if owns_server:
            server.stop(drain=False)
        # Unresolved handles: peer is gone, nothing to ship them to.
        close_sock(conn)


def _process_child_main(parent_end, child_end, batch_fn, server_kwargs) -> None:
    """Entry point of a forked process replica (runs in the child)."""
    # Close the inherited copy of the parent's socket end: EOF detection
    # in both directions depends on each side holding only its own end.
    try:
        parent_end.close()
    except OSError:
        pass
    server = InferenceServer(batch_fn, **server_kwargs)
    server.start()
    worker_loop(child_end, server, owns_server=True)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _Call:
    """One in-flight protocol request awaiting its ``reply`` frame."""

    __slots__ = ("id", "event", "header", "blob", "error", "t_submit", "trace", "is_submit")

    def __init__(self, call_id: int, trace=None):
        self.id = call_id
        self.event = threading.Event()
        self.header: dict | None = None
        self.blob: bytes = b""
        self.error: BaseException | None = None
        self.t_submit = time.perf_counter()
        self.trace = trace
        self.is_submit = False


class RemotePending:
    """Future-like handle for a submit over the wire (PendingResponse twin)."""

    def __init__(self, call: _Call):
        self._call = call
        self._decoded = False
        self._result = None

    def wait(self, timeout: float | None = None):
        if not self._call.event.wait(timeout):
            raise TimeoutError("inference request did not complete in time")
        if self._call.error is not None:
            raise self._call.error
        if not self._decoded:
            self._result, _ = decode_payload(self._call.header["payload"], self._call.blob)
            self._decoded = True
        return self._result

    @property
    def ready(self) -> bool:
        return self._call.event.is_set()


class _SocketReplica:
    """Shared parent-side link logic for process and remote replicas.

    Owns the reader thread (demultiplexes ``reply`` frames by id, applies
    ``state`` frames), the outstanding-request credit gate, and the
    cached last-known stats (so ``stats()``/``latencies_ms()`` stay
    answerable after the peer dies — the pool aggregates over every
    replica, including ones awaiting replacement).
    """

    def __init__(
        self,
        *,
        max_batch_size: int = 8,
        max_wait_ms: float = 2.0,
        num_workers: int = 1,
        max_queue: int = 256,
    ):
        self._server_kwargs = dict(
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            num_workers=num_workers,
            max_queue=max_queue,
        )
        # Credit gate: queued bound + in-flight headroom, mirroring the
        # in-process server where `load` may exceed max_queue by what the
        # workers have picked up.
        self._credits = max_queue + num_workers * max_batch_size
        self.max_queue = max_queue
        self.healthy = True
        self.crashes = 0
        self.slot: int | None = None
        self._sock: socket.socket | None = None
        self._send_lock = threading.Lock()
        self._reader: threading.Thread | None = None
        self._running = False
        self._broken = False
        self._peer_alive = False
        self._handshake = threading.Event()
        self._calls: dict[int, _Call] = {}
        self._calls_lock = threading.Lock()
        self._call_seq = 0
        self._outstanding = 0  # submits awaiting their reply
        self._gate = threading.Condition()
        self._last_stats: ServeStats | None = None
        self._last_lat = np.array([], dtype=np.float64)

    # -- link plumbing --------------------------------------------------
    def _attach(self, sock: socket.socket) -> None:
        """Adopt a connected socket: reset link state, start the reader."""
        self._sock = sock
        self._broken = False
        self._peer_alive = False
        self._handshake.clear()
        self._calls = {}
        self._call_seq = 0
        self._outstanding = 0
        self._reader = threading.Thread(
            target=self._read_loop, name=f"{type(self).__name__}-reader", daemon=True
        )
        self._reader.start()

    def _read_loop(self) -> None:
        sock = self._sock
        try:
            while True:
                header, blob = recv_frame(sock)
                op = header.get("op")
                if op == "state":
                    self._peer_alive = bool(header.get("alive"))
                    self.crashes = int(header.get("crashes", self.crashes))
                    self._handshake.set()
                elif op == "reply":
                    self._resolve(header, blob)
        except (ConnectionError, OSError):
            pass
        self._on_broken()

    def _resolve(self, header: dict, blob: bytes) -> None:
        with self._calls_lock:
            call = self._calls.pop(header.get("id"), None)
        if call is None:
            return
        if header.get("ok"):
            call.header, call.blob = header, blob
        else:
            call.error = _decode_error(header)
        t_done = time.perf_counter()
        if call.trace is not None:
            call.trace.add_span(
                "execute", call.t_submit, t_done, replica=self.slot, remote=True
            )
        call.event.set()
        if call.is_submit:
            with self._gate:
                self._outstanding -= 1
                self._gate.notify()

    def _on_broken(self) -> None:
        """Peer gone (EOF / kill -9): fail in-flight calls retryably."""
        self._broken = True
        self._handshake.set()  # unblock a start() waiting on handshake
        with self._calls_lock:
            calls, self._calls = list(self._calls.values()), {}
        for call in calls:
            call.error = ServerClosed("replica process died mid-request; retry elsewhere")
            call.event.set()
        with self._gate:
            self._outstanding = 0
            self._gate.notify_all()

    def _new_call(self, trace=None) -> _Call:
        with self._calls_lock:
            self._call_seq += 1
            call = _Call(self._call_seq, trace)
            self._calls[call.id] = call
        return call

    def _request(self, header: dict, blobs: list[bytes] = (), *, timeout: float | None = 5.0):
        """Synchronous round trip for control ops (stats/health/drain/...)."""
        if self._sock is None or self._broken:
            raise ServerClosed("replica link is down")
        call = self._new_call()
        try:
            send_frame(self._sock, {**header, "id": call.id}, blobs, lock=self._send_lock)
        except OSError as exc:
            with self._calls_lock:
                self._calls.pop(call.id, None)
            raise ServerClosed(f"replica link write failed: {exc}") from exc
        if not call.event.wait(timeout):
            with self._calls_lock:
                self._calls.pop(call.id, None)
            raise TimeoutError(f"replica did not answer {header.get('op')!r} in {timeout}s")
        if call.error is not None:
            raise call.error
        return call

    # -- ReplicaHandle surface -----------------------------------------
    @property
    def load(self) -> int:
        return self._outstanding

    def submit(self, payload, *, block: bool = True, timeout: float | None = None, trace=None):
        if not self._running:
            raise ServerClosed("replica is not running (call start())")
        if self._broken:
            raise ServerClosed("replica process is gone; awaiting replacement")
        desc, blobs = encode_payload(payload)  # may raise TypeError synchronously
        with self._gate:
            if self._outstanding >= self._credits:
                if not block:
                    raise ServerOverloaded(
                        f"replica has {self._outstanding} requests outstanding; retry later"
                    )
                deadline = None if timeout is None else time.monotonic() + timeout
                while self._outstanding >= self._credits and not self._broken:
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        raise ServerOverloaded(
                            f"replica stayed saturated for {timeout}s; retry later"
                        )
                    self._gate.wait(remaining if remaining is not None else 0.1)
                if self._broken:
                    raise ServerClosed("replica process died while waiting for queue space")
            self._outstanding += 1
        call = self._new_call(trace)
        call.is_submit = True
        try:
            send_frame(
                self._sock, {"op": "submit", "id": call.id, "payload": desc}, blobs,
                lock=self._send_lock,
            )
        except OSError as exc:
            with self._calls_lock:
                self._calls.pop(call.id, None)
            with self._gate:
                self._outstanding -= 1
                self._gate.notify()
            raise ServerClosed(f"replica link write failed: {exc}") from exc
        return RemotePending(call)

    def infer(self, payload, timeout: float | None = None):
        return self.submit(payload).wait(timeout)

    def stats(self) -> ServeStats:
        try:
            call = self._request({"op": "stats"})
        except (ServerClosed, TimeoutError):
            return self._last_stats or _empty_stats()
        st = ServeStats.from_dict(call.header["stats"])
        self._last_stats = st
        self._last_lat = np.asarray(call.header.get("latencies", []), dtype=np.float64)
        self.crashes = max(self.crashes, st.crashes)
        return st

    def latencies_ms(self) -> np.ndarray:
        """Last latency sample fetched by ``stats()`` (no extra round trip).

        Pool aggregation always calls ``stats()`` immediately before, so
        this is fresh in the only path that consumes it.
        """
        return self._last_lat

    def drain(self) -> None:
        self._request({"op": "drain"}, timeout=None)


def _empty_stats() -> ServeStats:
    return ServeStats(
        completed=0, errors=0, rejected=0, elapsed_s=1e-9, requests_per_s=0.0,
        latency_ms_mean=0.0, latency_ms_p50=0.0, latency_ms_p90=0.0,
        latency_ms_p99=0.0, batches=0, mean_batch_size=0.0, max_batch_size_seen=0,
    )


def fork_context():
    """The multiprocessing context process replicas require.

    Fork is mandatory, not preferred: the model weights and ``batch_fn``
    closure transfer to the child by page sharing, never by pickling —
    a spawn context would have to re-import and re-build the model.
    Raises on platforms without fork (use thread or remote mode there).
    """
    if "fork" not in mp.get_all_start_methods():
        raise RuntimeError(
            "process replicas need the 'fork' start method (unavailable on "
            "this platform); use replica_mode='thread' or remote shards"
        )
    return mp.get_context("fork")


class ProcessReplica(_SocketReplica):
    """A pool replica running as a forked worker process.

    ``start()`` forks: the child inherits ``batch_fn`` (and the model
    weights it closes over) via copy-on-write pages, builds its own
    :class:`InferenceServer`, and serves the wire protocol over one end
    of a ``socketpair``. The parent keeps the other end plus this handle,
    which implements the full :class:`~repro.serve.replica.ReplicaHandle`
    surface — so the pool routes/fails over to it, the supervisor
    replaces it, and the autoscaler counts it exactly like a thread
    replica.

    Crash semantics: if the child dies (including ``kill -9``), the
    parent's reader sees EOF, every in-flight request fails with the
    retryable :class:`ServerClosed`, ``alive`` flips false (routing skips
    the handle on the next submit), and the supervisor's liveness probe
    triggers ``replace_replica`` → a fresh fork.
    """

    def __init__(self, batch_fn, **server_kwargs):
        super().__init__(**server_kwargs)
        self.batch_fn = batch_fn
        self._proc: mp.process.BaseProcess | None = None

    @property
    def pid(self) -> int | None:
        """Child process id (for tests and ops tooling)."""
        return self._proc.pid if self._proc is not None else None

    @property
    def alive(self) -> bool:
        return (
            self._running
            and not self._broken
            and self._peer_alive
            and self._proc is not None
            and self._proc.is_alive()
        )

    def start(self) -> "ProcessReplica":
        if self._running:
            return self
        ctx = fork_context()
        parent_end, child_end = socket.socketpair()
        # The child's inner queue gets headroom above the parent's credit
        # gate so admission decisions live in one place (the parent).
        child_kwargs = dict(self._server_kwargs)
        child_kwargs["max_queue"] = self._credits + child_kwargs["max_queue"]
        self._proc = ctx.Process(
            target=_process_child_main,
            args=(parent_end, child_end, self.batch_fn, child_kwargs),
            name="repro-replica",
            daemon=True,
        )
        self._proc.start()
        child_end.close()  # child holds its own copy
        self._attach(parent_end)
        self._running = True
        if not self._handshake.wait(HANDSHAKE_TIMEOUT_S) or self._broken:
            self.stop(drain=False)
            raise RuntimeError("process replica failed to hand-shake after fork")
        return self

    def stop(self, drain: bool = True) -> None:
        if not self._running:
            return
        self._running = False
        try:
            self._request({"op": "stop", "drain": drain}, timeout=30.0 if drain else 5.0)
        except (ServerClosed, TimeoutError):
            pass  # already dead, or wedged — escalate below
        proc, self._proc = self._proc, None
        if proc is not None:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        sock, self._sock = self._sock, None
        if sock is not None:
            close_sock(sock)  # also wakes our reader thread out of recv
        self._on_broken()  # fail any stragglers retryably

    def __enter__(self) -> "ProcessReplica":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class RemoteReplica(_SocketReplica):
    """A pool replica living in a shard at ``host:port`` (``repro shard``).

    Identical protocol and handle surface as :class:`ProcessReplica`;
    the transport is TCP and the lifecycle differs: ``stop()``
    disconnects from the shard but never shuts it down (a shard is an
    independently-operated service fronting its own model), and
    ``replace_replica`` heals by *reconnecting* to the same address —
    which is how a gateway recovers after a shard restart.
    """

    def __init__(self, address: str, *, connect_timeout: float = 10.0, **server_kwargs):
        super().__init__(**server_kwargs)
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"remote replica address must be host:port, got {address!r}")
        self.address = address
        self._host, self._port = host, int(port)
        self._connect_timeout = connect_timeout

    @property
    def alive(self) -> bool:
        return self._running and not self._broken and self._peer_alive

    def start(self) -> "RemoteReplica":
        if self._running:
            return self
        deadline = time.monotonic() + self._connect_timeout
        last: Exception | None = None
        while True:
            try:
                sock = socket.create_connection((self._host, self._port), timeout=2.0)
                break
            except OSError as exc:  # shard may still be booting — retry
                last = exc
                if time.monotonic() >= deadline:
                    raise ConnectionError(
                        f"could not reach shard at {self.address} "
                        f"within {self._connect_timeout}s: {last}"
                    ) from last
                time.sleep(0.1)
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._attach(sock)
        self._running = True
        if not self._handshake.wait(HANDSHAKE_TIMEOUT_S) or self._broken:
            self.stop()
            raise ConnectionError(f"shard at {self.address} did not hand-shake")
        return self

    def info(self) -> dict:
        """Shard metadata (model name/task/arch/input_shape/version)."""
        return self._request({"op": "info"}).header["info"]

    def stop(self, drain: bool = True) -> None:
        if not self._running:
            return
        self._running = False
        try:
            if drain:
                self._request({"op": "drain"}, timeout=30.0)
            self._request({"op": "stop"}, timeout=5.0)
        except (ServerClosed, TimeoutError):
            pass
        sock, self._sock = self._sock, None
        if sock is not None:
            close_sock(sock)  # also wakes our reader thread out of recv
        self._on_broken()

    def __enter__(self) -> "RemoteReplica":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
