"""HTTP/JSON multi-model serving gateway.

A stdlib-only (:mod:`http.server`) front-end over a
:class:`~repro.serve.registry.ModelRegistry`: every request handler
thread decodes JSON, routes to the model's replica pool, and blocks on
the per-request future while the pool's dynamic batchers do the work.

API surface (all JSON):

====================================  =======================================
``GET  /healthz``                     liveness + per-model ready/degraded/
                                      unhealthy (``status`` is ``"ok"`` only
                                      while every model is fully routable)
``GET  /v1/models``                   model table (name, version, task, replicas)
``GET  /v1/models/<name>``            one model's description + live stats
``POST /v1/models/<name>/predict``    ``{"inputs": ...}`` -> ``{"outputs": ...}``
``POST /v1/models/<name>/load``       ``{"artifact": dir, "replicas": n}``
``POST /v1/models/<name>/swap``       zero-downtime rollout to a new artifact
                                      (optional ``canary`` policy with
                                      auto-rollback)
``POST /v1/models/<name>/unload``     drain + remove the model
``GET  /stats``                       per-model p50/p99/req-s + health + cache
``GET  /metrics``                     Prometheus text exposition (see
                                      docs/observability.md for the catalog)
``GET  /v1/traces``                   recorded request span timelines
                                      (``?sort=slowest&limit=N``)
``GET  /v1/events``                   the shared control-loop event bus
                                      (``?source=&model=&event=&limit=``)
====================================  =======================================

Observability: every predict gets a request ID (inbound ``X-Request-Id``
honored, else generated) and a span timeline (decode -> queue_wait ->
batch_form -> execute -> encode) returned in the ``X-Trace`` header; send
``{"trace": true}`` in the predict body to get the full timeline in the
response. Construction of traces and per-request metrics is skipped when
the gateway is built with ``instrument=False``.

Rollout safety: ``/swap`` never 404s/503s concurrent predictions. The
handler snapshots the entry's (pool, version) pair atomically; if the
snapshot loses the race with a flip (the old pool is already retired by
the time ``submit`` runs), the submit raises ``ServerClosed`` and the
handler re-snapshots and retries against the new pool. The ``version``
in every predict response is the version that actually served it.

Error semantics — the admission-control contract:

- **404** unknown model (including one being unloaded: the registry
  entry disappears before its pool drains).
- **400** malformed JSON, missing/undecodable ``inputs``, or a POST
  without a valid ``Content-Length`` (the gateway never reads an
  unbounded body).
- **413** declared body larger than ``max_body_bytes``; refused before
  a single body byte is read.
- **429** every replica queue of the model is full. The response carries
  ``Retry-After: 1`` and in-flight requests are unaffected — the request
  is rejected *before* it touches any queue.
- **503** the model exists but cannot serve right now: unloaded after
  this request was accepted (drain-less shutdown), or every replica is
  dead/quarantined awaiting supervisor recovery (``Retry-After: 1`` —
  saturation is 429, a downed pool is 503).
- **500** the model's ``batch_fn`` raised; the message is forwarded.

Response cache: an optional process-wide LRU keyed by
``sha256(name, version, raw input bytes + shapes + dtypes)`` — the
*decoded* arrays are hashed, so textual JSON differences ("1.0" vs "1")
of the same tensor share an entry, and a reloaded model under a new
version never serves stale bytes. Only successful predictions are
cached; per-sample-scale serving makes them batch-invariant and thus
cacheable at all.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs

import numpy as np

from repro.compile import kernel_cache_stats
from repro.obs import PROMETHEUS_CONTENT_TYPE
from repro.serve.autoscale import AutoscalePolicy
from repro.serve.faults import FaultPlan
from repro.serve.health import HealthPolicy, pool_health
from repro.serve.instrument import ServeMetrics
from repro.serve.registry import (
    CanaryPolicy,
    ModelEntry,
    ModelRegistry,
    ModelUnavailable,
    SwapError,
)
from repro.serve.replica import NoHealthyReplicas
from repro.serve.server import ServerClosed, ServerOverloaded
from repro.utils.log import get_logger

logger = get_logger("gateway")

#: Default request-body ceiling (bytes): fits a generous batch of image
#: tensors as JSON while keeping one client from buffering the process out.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

#: How often the idle HTTP loop checks for a stop request; it bounds how
#: long ``Gateway.stop`` waits (the stdlib default is 0.5 s). Requests
#: wake the loop at once regardless.
_POLL_INTERVAL_S = 0.02


class GatewayError(RuntimeError):
    """Gateway-side configuration/lifecycle error."""


# ----------------------------------------------------------------------
# response cache
# ----------------------------------------------------------------------
class ResponseCache:
    """Thread-safe LRU for rendered prediction responses."""

    def __init__(self, max_entries: int):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key(entry: ModelEntry, payload, version: str | None = None) -> str:
        """Cache key over model identity + decoded tensor content.

        ``version`` pins the key to a routing snapshot taken before
        submit, so a response is never cached under a version that a
        concurrent hot swap flipped in mid-request.
        """
        h = hashlib.sha256()
        h.update(f"{entry.name}@{version if version is not None else entry.version}".encode())
        fields = payload if isinstance(payload, tuple) else (payload,)
        for arr in fields:
            arr = np.ascontiguousarray(arr)
            h.update(f"|{arr.dtype}{arr.shape}|".encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    def get(self, key: str) -> dict | None:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: str, value: dict) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
class _JSONResponse(Exception):
    """Control-flow carrier: any handler step can finalize the response.

    ``text`` switches the response to a raw (non-JSON) body with
    ``content_type`` — how ``/metrics`` serves the Prometheus text
    format through the same plumbing.
    """

    def __init__(self, status: int, body: dict | None, headers: dict | None = None,
                 *, text: str | None = None,
                 content_type: str = "application/json"):
        self.status = status
        self.body = body
        self.headers = headers or {}
        self.text = text
        self.content_type = content_type


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "_GatewayHTTPServer"

    # silence the default per-request stderr lines
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        logger.debug("http %s", format % args)

    def _send(self, status: int, body: dict, headers: dict | None = None,
              *, text: str | None = None,
              content_type: str = "application/json") -> None:
        data = text.encode() if text is not None else json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(data)

    def _dispatch(self, method: str) -> None:
        gateway = self.server.gateway
        t0 = time.perf_counter()
        status = 500
        route_label = "<none>"
        try:
            # Drain the body before any response (404 included): leaving
            # unread bytes in rfile desynchronizes HTTP/1.1 keep-alive —
            # the next request on the connection would parse them as its
            # request line. A request we refuse to read (no/bad length,
            # oversized) closes the connection instead: its body is still
            # sitting in the socket and would desync the next request.
            body = None
            if method == "POST":
                declared = self.headers.get("Content-Length")
                try:
                    length = int(declared)
                except (TypeError, ValueError):
                    self.close_connection = True
                    raise _JSONResponse(
                        400,
                        {"error": "POST requires a valid Content-Length header"},
                        headers={"Connection": "close"},
                    )
                if length < 0:
                    self.close_connection = True
                    raise _JSONResponse(
                        400,
                        {"error": f"invalid Content-Length: {length}"},
                        headers={"Connection": "close"},
                    )
                if length > gateway.max_body_bytes:
                    self.close_connection = True
                    raise _JSONResponse(
                        413,
                        {
                            "error": (
                                f"request body of {length} bytes exceeds the "
                                f"{gateway.max_body_bytes}-byte limit"
                            )
                        },
                        headers={"Connection": "close"},
                    )
                raw = self.rfile.read(length) if length else b""
            path, _, query = self.path.partition("?")
            routed = gateway._route(
                method, path.rstrip("/") or "/", query=query, headers=self.headers
            )
            if routed is None:
                raise _JSONResponse(404, {"error": f"no route {method} {self.path}"})
            route, route_label = routed
            if method == "POST" and raw:
                try:
                    body = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise _JSONResponse(400, {"error": f"malformed JSON body: {exc}"})
            route(body)
            raise AssertionError("route returned without a response")  # pragma: no cover
        except _JSONResponse as resp:
            status = resp.status
            self._send(resp.status, resp.body, resp.headers,
                       text=resp.text, content_type=resp.content_type)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            logger.exception("unhandled gateway error")
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            if gateway.instrument:
                gateway.metrics.observe_http(
                    method, route_label, status, (time.perf_counter() - t0) * 1e3
                )

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")


class _GatewayHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    gateway: "Gateway"


# ----------------------------------------------------------------------
# the gateway
# ----------------------------------------------------------------------
class Gateway:
    """Networked multi-model serving front-end.

    Parameters
    ----------
    registry:
        The model table; a fresh empty one by default.
    host / port:
        Bind address. ``port=0`` picks an ephemeral port (tests/benches);
        read it back from :attr:`port` / :attr:`url` after ``start()``.
    cache_entries:
        LRU response-cache capacity; 0 disables caching.
    predict_timeout_s:
        Upper bound one HTTP request waits on its inference future.
    max_body_bytes:
        Request-body ceiling; a POST declaring more gets a 413 without
        the gateway reading (or buffering) a single body byte.
    instrument:
        ``False`` disables per-request observability work (trace
        construction, request counters/latency observations) — the
        control knob the ``--obs-overhead`` bench flips to measure
        instrumentation cost. The metric catalog, event bus, and
        endpoints stay up either way.
    """

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_entries: int = 0,
        predict_timeout_s: float = 60.0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        instrument: bool = True,
    ):
        if max_body_bytes < 1:
            raise ValueError(f"max_body_bytes must be >= 1, got {max_body_bytes}")
        self.registry = registry if registry is not None else ModelRegistry()
        self.obs = self.registry.obs
        self.metrics = ServeMetrics.install(self.obs)
        self.instrument = instrument
        self.cache = ResponseCache(cache_entries) if cache_entries else None
        self.predict_timeout_s = predict_timeout_s
        self.max_body_bytes = max_body_bytes
        self._host = host
        self._requested_port = port
        self._httpd: _GatewayHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Gateway":
        if self._httpd is not None:
            return self
        httpd = _GatewayHTTPServer((self._host, self._requested_port), _Handler)
        httpd.gateway = self
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            args=(_POLL_INTERVAL_S,),
            name="gateway-http",
            daemon=True,
        )
        self._thread.start()
        logger.info("gateway listening on %s", self.url)
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop accepting HTTP, then stop every model pool (draining)."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._thread.join()
            self._httpd = None
            self._thread = None
        self.registry.stop_all(drain=drain)

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise GatewayError("gateway is not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    # ------------------------------------------------------------------
    # routing table
    # ------------------------------------------------------------------
    def _route(self, method: str, path: str, *, query: str = "", headers=None):
        """Resolve ``(handler, route_label)`` or ``None``.

        ``route_label`` is the low-cardinality route *template* (model
        names collapsed to ``{name}``) used as the metrics label — raw
        paths would mint a counter child per model per typo.
        """
        if method == "GET":
            if path == "/healthz":
                return self._get_healthz, path
            if path == "/stats":
                return self._get_stats, path
            if path == "/metrics":
                return self._get_metrics, path
            if path == "/v1/traces":
                return (lambda body: self._get_traces(query)), path
            if path == "/v1/events":
                return (lambda body: self._get_events(query)), path
            if path == "/v1/models":
                return self._get_models, path
            if path.startswith("/v1/models/") and path.count("/") == 3:
                name = path.rsplit("/", 1)[1]
                return (lambda body: self._get_model(name)), "/v1/models/{name}"
        elif method == "POST" and path.startswith("/v1/models/"):
            parts = path.split("/")  # ['', 'v1', 'models', name, action]
            if len(parts) == 5:
                name, action = parts[3], parts[4]
                if action == "predict":
                    request_id = (headers or {}).get("X-Request-Id")
                    return (
                        lambda body: self._post_predict(name, body, request_id=request_id)
                    ), "/v1/models/{name}/predict"
                handler = {
                    "load": self._post_load,
                    "swap": self._post_swap,
                    "unload": self._post_unload,
                }.get(action)
                if handler is not None:
                    return (lambda body: handler(name, body)), f"/v1/models/{{name}}/{action}"
        return None

    # ------------------------------------------------------------------
    # endpoints (each terminates by raising _JSONResponse)
    # ------------------------------------------------------------------
    def _get_healthz(self, body=None):
        """Liveness plus per-model readiness.

        ``status`` stays ``"ok"`` while every model is fully routable
        (the pre-PR-6 contract); any degraded/unhealthy pool turns it
        ``"degraded"`` — the HTTP code stays 200 (the *gateway* is
        alive; a load balancer reads the body for model readiness).
        """
        model_health = {}
        status = "ok"
        for entry in self.registry.models():
            pool, _ = entry.snapshot()
            info = pool_health(pool, entry.supervisor)
            model_health[entry.name] = info
            if info["state"] != "ready":
                status = "degraded"
        raise _JSONResponse(
            200,
            {
                "status": status,
                "models": len(self.registry),
                "model_health": model_health,
            },
        )

    def _get_models(self, body=None):
        raise _JSONResponse(
            200, {"models": [entry.describe() for entry in self.registry.models()]}
        )

    def _entry_or_404(self, name: str) -> ModelEntry:
        try:
            return self.registry.get(name)
        except ModelUnavailable as exc:
            raise _JSONResponse(404, {"error": str(exc)})

    def _get_model(self, name: str):
        entry = self._entry_or_404(name)
        info = entry.describe()
        info["stats"] = _stats_dict(entry)
        raise _JSONResponse(200, info)

    def _get_stats(self, body=None):
        models = {entry.name: _stats_dict(entry) for entry in self.registry.models()}
        payload = {"models": models}
        if self.cache is not None:
            payload["cache"] = self.cache.stats()
        payload["kernel_cache"] = kernel_cache_stats()
        payload["events"] = self.obs.events.stats()
        raise _JSONResponse(200, payload)

    def _get_metrics(self, body=None):
        """Prometheus text exposition of the full serve metric catalog."""
        self.metrics.sync(self.registry, cache=self.cache)
        raise _JSONResponse(
            200, None,
            text=self.obs.metrics.render(),
            content_type=PROMETHEUS_CONTENT_TYPE,
        )

    def _get_traces(self, query: str = ""):
        """Recorded request traces. ``?sort=slowest&limit=N`` supported."""
        params = parse_qs(query)
        try:
            limit = int(params.get("limit", ["20"])[0])
        except ValueError:
            raise _JSONResponse(400, {"error": "limit must be an integer"})
        sort = params.get("sort", ["recent"])[0]
        if sort not in ("recent", "slowest"):
            raise _JSONResponse(400, {"error": 'sort must be "recent" or "slowest"'})
        buf = self.obs.traces
        traces = buf.slowest(limit) if sort == "slowest" else buf.tail(limit)
        raise _JSONResponse(
            200,
            {"traces": traces, "retained": len(buf), "recorded": buf.recorded},
        )

    def _get_events(self, query: str = ""):
        """The shared event bus: ``?source=&model=&event=&limit=`` filters."""
        params = parse_qs(query)
        try:
            limit = int(params.get("limit", ["100"])[0])
        except ValueError:
            raise _JSONResponse(400, {"error": "limit must be an integer"})
        events = self.obs.events.events(
            source=params.get("source", [None])[0],
            model=params.get("model", [None])[0],
            event=params.get("event", [None])[0],
            limit=limit,
        )
        raise _JSONResponse(
            200, {"events": events, "bus": self.obs.events.stats()}
        )

    def _predict_finish(self, name, trace, want_trace, outcome, t0, status,
                        resp_body, headers=None):
        """Record per-request observability, then raise the response.

        Every predict exit path funnels through here so the per-model
        counters/latency and the trace ring see rejected/failed requests
        too, not just the happy path.
        """
        headers = dict(headers or {})
        if self.instrument:
            self.metrics.observe_predict(
                name, outcome, (time.perf_counter() - t0) * 1e3
            )
        if trace is not None:
            trace.annotate(outcome=outcome, status=status)
            headers["X-Request-Id"] = trace.request_id
            headers["X-Trace"] = trace.compact()
            self.obs.traces.record(trace)
            if want_trace and isinstance(resp_body, dict):
                resp_body = {**resp_body, "trace": trace.as_dict()}
        raise _JSONResponse(status, resp_body, headers)

    def _post_predict(self, name: str, body, request_id: str | None = None):
        t0 = time.perf_counter()
        entry = self._entry_or_404(name)
        if not isinstance(body, dict) or "inputs" not in body:
            raise _JSONResponse(400, {"error": 'predict body must be {"inputs": ...}'})
        want_trace = bool(body.get("trace"))
        trace = self.obs.trace(request_id, model=name) if self.instrument else None
        try:
            if trace is not None:
                with trace.span("decode"):
                    payload = entry.decode(body["inputs"])
            else:
                payload = entry.decode(body["inputs"])
        except (ValueError, TypeError) as exc:
            raise _JSONResponse(400, {"error": f"cannot decode inputs: {exc}"})

        # Route against an atomic (pool, version) pair from entry.route()
        # (canary-aware: during a canary window a deterministic slice of
        # these calls gets the canary pool). A hot swap can retire the
        # routed pool between route() and submit(); that ServerClosed is
        # NOT a 404 — the name is still serving, just on a new pool — so
        # re-route and retry (cache key included: it is pinned to the
        # version that will actually serve). NoHealthyReplicas re-routes
        # too — a dead canary arm must not fail a request the stable
        # pool can serve — and only turns into a 503 (with Retry-After:
        # supervisor recovery is in flight) when every attempt landed on
        # a downed pool. Only a name truly gone from the registry 404s.
        key = None
        unavailable = None
        for _ in range(4):  # a retry per racing swap; >1 mid-request is absurd
            entry = self._entry_or_404(name)
            pool, version = entry.route()
            if self.cache is not None:
                key = ResponseCache.key(entry, payload, version=version)
                cached = self.cache.get(key)
                if cached is not None:
                    self._predict_finish(
                        name, trace, want_trace, "cached", t0, 200,
                        {**cached, "cached": True},
                    )
            try:
                handle = pool.submit(payload, block=False, trace=trace)
                break
            except ServerOverloaded as exc:
                self._predict_finish(
                    name, trace, False, "rejected", t0, 429,
                    {"error": f"model {name!r} overloaded: {exc}"},
                    headers={"Retry-After": "1"},
                )
            except NoHealthyReplicas as exc:
                unavailable = exc
                continue
            except ServerClosed:
                continue
        else:
            if unavailable is not None:
                self._predict_finish(
                    name, trace, False, "unavailable", t0, 503,
                    {"error": f"model {name!r} has no healthy replicas: {unavailable}"},
                    headers={"Retry-After": "1"},
                )
            self._predict_finish(
                name, trace, False, "unloaded", t0, 404,
                {"error": f"model {name!r} was unloaded"},
            )
        try:
            result = handle.wait(self.predict_timeout_s)
        except ServerClosed as exc:
            # A retired pool or a replica crash resolved the in-flight
            # request; either way the model is still registered and a
            # retry lands on a live replica (or a restarted one).
            self._predict_finish(
                name, trace, False, "dropped", t0, 503,
                {"error": f"model {name!r} dropped the request: {exc}"},
                headers={"Retry-After": "1"},
            )
        except TimeoutError:
            self._predict_finish(
                name, trace, False, "timeout", t0, 504,
                {"error": f"inference exceeded {self.predict_timeout_s}s"},
            )
        except Exception as exc:  # noqa: BLE001 - worker error -> client
            self._predict_finish(
                name, trace, False, "error", t0, 500,
                {"error": f"{type(exc).__name__}: {exc}"},
            )

        if trace is not None:
            with trace.span("encode"):
                outputs = np.asarray(result).tolist()
            trace.annotate(version=version)
        else:
            outputs = np.asarray(result).tolist()
        response = {"model": entry.name, "version": version, "outputs": outputs}
        if self.cache is not None:
            self.cache.put(key, response)
        self._predict_finish(
            name, trace, want_trace, "ok", t0, 200, {**response, "cached": False}
        )

    def _post_load(self, name: str, body):
        if not isinstance(body, dict) or "artifact" not in body:
            raise _JSONResponse(400, {"error": 'load body must be {"artifact": dir, ...}'})
        from repro.deploy import ArtifactError

        autoscale = body.get("autoscale")
        if autoscale is not None and not isinstance(autoscale, dict):
            raise _JSONResponse(
                400, {"error": 'autoscale must be a policy object, e.g. '
                               '{"min_replicas": 1, "max_replicas": 4}'}
            )
        if autoscale is not None:
            # Validated outside the load try-block: a malformed policy is
            # a 400 (bad request body), never the 409 meant for name
            # conflicts below.
            try:
                autoscale = AutoscalePolicy(**autoscale)
            except (TypeError, ValueError) as exc:
                raise _JSONResponse(400, {"error": f"bad autoscale policy: {exc}"})
        health = body.get("health")
        if health is not None:
            if not isinstance(health, dict):
                raise _JSONResponse(
                    400, {"error": 'health must be a policy object, e.g. '
                                   '{"interval_s": 0.05, "max_restarts": 5}'}
                )
            try:
                health = HealthPolicy(**health)
            except (TypeError, ValueError) as exc:
                raise _JSONResponse(400, {"error": f"bad health policy: {exc}"})
        try:
            entry = self.registry.load_artifact(
                name,
                body["artifact"],
                version=body.get("version"),
                replicas=int(body.get("replicas", 1)),
                routing=body.get("routing", "least_loaded"),
                backend=body.get("backend", "auto"),
                autoscale=autoscale,
                health=health,
                max_batch_size=int(body.get("max_batch_size", 8)),
                max_wait_ms=float(body.get("max_wait_ms", 2.0)),
                max_queue=int(body.get("max_queue", 64)),
            )
        except (ArtifactError, OSError) as exc:
            raise _JSONResponse(400, {"error": f"cannot load artifact: {exc}"})
        except ValueError as exc:  # already serving / bad knobs
            raise _JSONResponse(409, {"error": str(exc)})
        raise _JSONResponse(200, entry.describe())

    def _post_swap(self, name: str, body):
        """Zero-downtime rollout: flip ``name`` to a new artifact.

        An optional ``canary`` policy object stages the flip behind a
        live-traffic comparison window; a failing canary answers 200
        with ``outcome="rolled_back"`` (the rollout *worked* — it
        correctly refused a bad version). ``fault_plan`` poisons the new
        pool with a seeded fault plan — the chaos-test hook. Failure
        semantics mirror the registry contract: any 4xx here means the
        old version never stopped serving.
        """
        if not isinstance(body, dict) or "artifact" not in body:
            raise _JSONResponse(400, {"error": 'swap body must be {"artifact": dir, ...}'})
        from repro.deploy import ArtifactError

        canary = body.get("canary")
        if canary is not None:
            if not isinstance(canary, dict):
                raise _JSONResponse(
                    400, {"error": 'canary must be a policy object, e.g. '
                                   '{"fraction": 0.25, "min_requests": 16}'}
                )
            try:
                canary = CanaryPolicy(**canary)
            except (TypeError, ValueError) as exc:
                raise _JSONResponse(400, {"error": f"bad canary policy: {exc}"})
        fault_plan = body.get("fault_plan")
        if fault_plan is not None:
            if not isinstance(fault_plan, dict):
                raise _JSONResponse(
                    400, {"error": 'fault_plan must be {"seed": n, "faults": [...]}'}
                )
            try:
                fault_plan = FaultPlan.from_dict(fault_plan)
            except (TypeError, ValueError) as exc:
                raise _JSONResponse(400, {"error": f"bad fault plan: {exc}"})
        try:
            report = self.registry.swap(
                name,
                body["artifact"],
                version=body.get("version"),
                precision=body.get("precision", "float32"),
                backend=body.get("backend", "auto"),
                canary=canary,
                fault_plan=fault_plan,
            )
        except ModelUnavailable as exc:
            raise _JSONResponse(404, {"error": str(exc)})
        except (ArtifactError, OSError, SwapError) as exc:
            raise _JSONResponse(
                400,
                {"error": f"swap aborted, previous version still serving: {exc}"},
            )
        raise _JSONResponse(200, report.as_dict())

    def _post_unload(self, name: str, body):
        try:
            entry = self.registry.unload(name, drain=True)
        except ModelUnavailable as exc:
            raise _JSONResponse(404, {"error": str(exc)})
        raise _JSONResponse(200, {"unloaded": entry.name, "version": entry.version})


def _stats_dict(entry: ModelEntry) -> dict:
    """JSON-ready per-model serving stats for ``/stats``.

    The top-level counters are the *serving interval* view: they come
    from the current pool, so a hot swap (which flips in a fresh pool)
    resets them. The ``cumulative`` block is the lifetime view — the
    registry entry absorbs every retired pool's totals at swap time, so
    those counters survive rollouts (and match ``model_*_total`` on
    ``/metrics``).
    """
    pool, version = entry.snapshot()
    s = pool.stats()
    payload = {
        "version": version,
        "replicas": pool.num_replicas,
        "completed": s.completed,
        "errors": s.errors,
        "rejected": s.rejected,
        "crashes": s.crashes,
        "requests_per_s": s.requests_per_s,
        "latency_ms_p50": s.latency_ms_p50,
        "latency_ms_p99": s.latency_ms_p99,
        "mean_batch_size": s.mean_batch_size,
        "queue_depth": s.queue_depth,
        "in_flight": s.in_flight,
        "queue_wait_hist": s.queue_wait_hist,
        "batch_size_hist": s.batch_size_hist,
        "cumulative": entry.cumulative(),
        "swaps": list(entry.history),
        "health": pool_health(pool, entry.supervisor),
    }
    if entry.backends is not None:
        payload["backends"] = entry.backends
    if entry.autoscaler is not None:
        payload["autoscaler"] = entry.autoscaler.stats()
    if entry.supervisor is not None:
        payload["supervisor"] = entry.supervisor.stats()
    return payload


def _is_shard_address(spec) -> bool:
    """True when a model "path" is really ``host:port[,host:port]``."""
    if not isinstance(spec, str) or ":" not in spec:
        return False
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    return bool(parts) and all(
        p.rpartition(":")[0] and p.rpartition(":")[2].isdigit() for p in parts
    )


def serve_gateway(
    models: dict[str, str | Path],
    *,
    replicas: int = 1,
    routing: str = "least_loaded",
    host: str = "127.0.0.1",
    port: int = 0,
    cache_entries: int = 0,
    backend: str = "auto",
    autoscale: AutoscalePolicy | dict | None = None,
    health: HealthPolicy | dict | None = None,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    instrument: bool = True,
    replica_mode: str = "thread",
    **server_kwargs,
) -> Gateway:
    """One call from artifact directories to a started gateway.

    ``models`` maps serving names to artifact directories; every model
    gets ``replicas`` replicas (and, if ``autoscale`` / ``health`` is
    given, its own queue-depth autoscaler / replica supervisor under
    that policy). ``backend`` selects the per-layer execution backend
    (``auto`` / ``integer`` / ``compiled``) for every model loaded here.

    ``replica_mode`` picks where replicas execute: ``"thread"`` (in this
    process), ``"process"`` (one forked worker process per replica), or
    ``host:port[,host:port]`` — remote shards started with ``repro
    shard``, applied to every model here. A model whose "path" itself
    looks like ``host:port[,host:port]`` is served remotely regardless
    of ``replica_mode``, so one gateway can mix local artifacts with
    remote fleets. Returns the started :class:`Gateway` (stop it with
    ``.stop()`` or use as a context manager).
    """
    gateway = Gateway(
        port=port, host=host, cache_entries=cache_entries,
        max_body_bytes=max_body_bytes, instrument=instrument,
    )
    # Engine knobs stay with whoever loads the artifact; a remote pool
    # only needs the queueing/batching config for its parent-side gate.
    remote_kwargs = {
        k: v for k, v in server_kwargs.items()
        if k not in ("precision", "per_sample_scale")
    }
    try:
        for name, path in models.items():
            if _is_shard_address(path):
                gateway.registry.load_remote(
                    name, path, routing=routing, autoscale=autoscale,
                    health=health, **remote_kwargs
                )
            elif _is_shard_address(replica_mode):
                gateway.registry.load_remote(
                    name, replica_mode, routing=routing, autoscale=autoscale,
                    health=health, **remote_kwargs
                )
            else:
                gateway.registry.load_artifact(
                    name, path, replicas=replicas, routing=routing,
                    backend=backend, autoscale=autoscale, health=health,
                    replica_mode=replica_mode, **server_kwargs
                )
    except Exception:
        gateway.registry.stop_all()
        raise
    return gateway.start()
