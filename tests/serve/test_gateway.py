"""Gateway stack: replica pools, registry lifecycle, HTTP API, failures."""

import threading
import time

import numpy as np
import pytest

from repro.serve import (
    Gateway,
    GatewayClient,
    GatewayHTTPError,
    GatewayOverloaded,
    ModelRegistry,
    ModelUnavailable,
    ReplicaPool,
    ResponseCache,
    ServerClosed,
    ServerOverloaded,
)


def doubler(payloads):
    return [2 * np.asarray(p) for p in payloads]


# ----------------------------------------------------------------------
# replica pool
# ----------------------------------------------------------------------
class TestReplicaPool:
    def test_round_robin_spreads_requests(self):
        seen = []

        def batch_fn(payloads):
            seen.append(threading.get_ident())
            return payloads

        with ReplicaPool(batch_fn, replicas=3, routing="round_robin",
                         max_batch_size=1) as pool:
            for h in [pool.submit(i) for i in range(9)]:
                h.wait(timeout=5.0)
        assert len(set(seen)) == 3, f"round robin used only {set(seen)}"

    def test_least_loaded_avoids_busy_replica(self):
        release = threading.Event()

        def batch_fn(payloads):
            if any(p == "slow" for p in payloads):
                release.wait(5.0)
            return payloads

        with ReplicaPool(batch_fn, replicas=2, routing="least_loaded",
                         max_batch_size=1, max_queue=8) as pool:
            slow = pool.submit("slow")
            time.sleep(0.05)  # let a worker pick it up (in_flight=1 on one replica)
            for i in range(4):  # closed loop: each routed around the stuck replica
                pool.submit(i).wait(timeout=1.0)
            release.set()
            slow.wait(timeout=5.0)

    def test_failover_then_overload(self):
        release = threading.Event()

        def batch_fn(payloads):
            release.wait(5.0)
            return payloads

        pool = ReplicaPool(batch_fn, replicas=2, routing="round_robin",
                           max_batch_size=1, max_queue=1)
        with pool:
            handles = [pool.submit(i) for i in range(2)]  # one per replica
            time.sleep(0.05)  # workers pick both up; queues empty again
            handles += [pool.submit(i) for i in range(2, 4)]  # fill both queues
            time.sleep(0.05)
            with pytest.raises(ServerOverloaded, match="all 2 replica"):
                pool.submit("overflow")
            assert pool.load >= 2
            release.set()
            for h in handles:
                h.wait(timeout=5.0)

    def test_submit_before_start_rejected(self):
        pool = ReplicaPool(doubler)
        with pytest.raises(ServerClosed):
            pool.submit(1)

    def test_elastic_add_remove(self):
        with ReplicaPool(doubler, replicas=1, max_batch_size=1) as pool:
            pool.add_replica()
            assert pool.num_replicas == 2
            assert pool.infer(3) == 6
            pool.remove_replica()
            assert pool.num_replicas == 1
            assert pool.infer(4) == 8
            with pytest.raises(ValueError, match="last replica"):
                pool.remove_replica()

    def test_pool_stats_aggregate_counts(self):
        with ReplicaPool(doubler, replicas=2, max_batch_size=4,
                         max_wait_ms=1.0) as pool:
            for h in [pool.submit(i, block=True) for i in range(10)]:
                h.wait(timeout=5.0)
            stats = pool.stats()
        assert stats.completed == 10
        assert stats.batches >= 1
        assert stats.latency_ms_p50 > 0
        assert len(pool.replica_stats()) == 2

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="replicas"):
            ReplicaPool(doubler, replicas=0)
        with pytest.raises(ValueError, match="routing"):
            ReplicaPool(doubler, routing="random")


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_register_get_unload(self):
        reg = ModelRegistry()
        entry = reg.register("m", doubler, version="v1", task="image")
        assert reg.get("m") is entry
        assert "m" in reg and len(reg) == 1
        assert entry.describe()["version"] == "v1"
        unloaded = reg.unload("m")
        assert unloaded is entry
        with pytest.raises(ModelUnavailable, match="no model 'm'"):
            reg.get("m")
        with pytest.raises(ModelUnavailable):
            reg.unload("m")

    def test_duplicate_name_rejected(self):
        reg = ModelRegistry()
        reg.register("m", doubler)
        try:
            with pytest.raises(ValueError, match="already serving"):
                reg.register("m", doubler)
        finally:
            reg.stop_all()

    def test_unload_drains_in_flight_requests(self):
        """Mid-flight unload: accepted requests complete with valid results."""
        release = threading.Event()

        def slow_doubler(payloads):
            release.wait(5.0)
            return [2 * p for p in payloads]

        reg = ModelRegistry()
        entry = reg.register("m", slow_doubler, max_batch_size=1, max_queue=16)
        handles = [entry.pool.submit(i, block=True) for i in range(4)]
        time.sleep(0.05)
        release.set()
        unloaded = reg.unload("m", drain=True)  # blocks until backlog served
        assert [h.wait(timeout=1.0) for h in handles] == [0, 2, 4, 6]
        assert not unloaded.pool.running

    def test_load_artifact_shares_weights_across_replicas(self, tiny_artifact):
        path, engine = tiny_artifact
        reg = ModelRegistry()
        try:
            entry = reg.load_artifact("tiny", path, replicas=2)
            assert entry.task == "image"
            assert entry.version == engine.manifest["payload"]["sha256"][:12]
            x = np.zeros((3, 16, 16), dtype=np.float32)
            out = entry.pool.infer(x, timeout=10.0)
            np.testing.assert_array_equal(out, engine(x[None])[0])
        finally:
            reg.stop_all()


# ----------------------------------------------------------------------
# response cache
# ----------------------------------------------------------------------
class TestResponseCache:
    def test_lru_eviction_and_counters(self):
        cache = ResponseCache(2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refreshes 'a'
        cache.put("c", {"v": 3})  # evicts 'b'
        assert cache.get("b") is None
        assert cache.get("c") == {"v": 3}
        s = cache.stats()
        assert (s["hits"], s["misses"], s["evictions"], s["entries"]) == (2, 1, 1, 2)

    def test_key_covers_model_version_and_tensor_content(self):
        reg = ModelRegistry()
        e1 = reg.register("m", doubler, version="1", start=False)
        reg2 = ModelRegistry()
        e2 = reg2.register("m", doubler, version="2", start=False)
        x = np.arange(4, dtype=np.float32)
        assert ResponseCache.key(e1, x) == ResponseCache.key(e1, x.copy())
        assert ResponseCache.key(e1, x) != ResponseCache.key(e2, x)  # version
        assert ResponseCache.key(e1, x) != ResponseCache.key(e1, x + 1)  # content
        assert ResponseCache.key(e1, x) != ResponseCache.key(e1, x.astype(np.float64))
        # tuple payloads hash per-field with shape/dtype separators
        t = (np.arange(3), np.ones(3, dtype=bool))
        assert ResponseCache.key(e1, t) == ResponseCache.key(e1, tuple(f.copy() for f in t))
        assert ResponseCache.key(e1, t) != ResponseCache.key(e1, (t[0], ~t[1]))

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            ResponseCache(0)


# ----------------------------------------------------------------------
# HTTP gateway
# ----------------------------------------------------------------------
@pytest.fixture
def gateway():
    reg = ModelRegistry()
    reg.register("double", doubler, task="image", version="v1",
                 max_batch_size=4, max_wait_ms=1.0)
    gw = Gateway(reg, cache_entries=8, predict_timeout_s=10.0).start()
    yield gw
    gw.stop()


@pytest.fixture
def client(gateway):
    return GatewayClient(gateway.url, timeout_s=10.0)


@pytest.fixture
def tiny_artifact(rng, tmp_path):
    """A real quantized artifact + its loaded serving-mode engine."""
    from repro.deploy import IntegerEngine, save_artifact
    from repro.models.resnet import MiniResNet
    from repro.quant import PTQConfig, quantize_model

    model = MiniResNet(num_classes=4, width=1, depth=1, seed=0)
    model.eval()
    config = PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4")
    qmodel = quantize_model(
        model, config, calib_batches=[(rng.standard_normal((4, 3, 16, 16)),)]
    )
    path = tmp_path / "artifact"
    save_artifact(qmodel, path, task="image", input_shape=(3, 16, 16))
    engine = IntegerEngine.load(path, per_sample_scale=True, precision="float32")
    return path, engine


class TestGatewayHTTP:
    def test_idle_stop_returns_promptly(self):
        """Stopping must not wait out a half-second poll of the HTTP loop,
        nor leave a handler thread blocked on an idle keep-alive connection."""
        elapsed = []
        for _ in range(3):  # best of three: one scheduler stall is not a regression
            before = set(threading.enumerate())
            gw = Gateway(ModelRegistry()).start()
            client = GatewayClient(gw.url, timeout_s=5.0)
            assert client.healthz()["status"] == "ok"  # its connection stays open
            t0 = time.perf_counter()
            gw.stop()
            elapsed.append(time.perf_counter() - t0)
            leaked = [t.name for t in threading.enumerate() if t not in before]
            assert not leaked, leaked
            with pytest.raises(OSError):  # closed for good: the redial is refused
                client.healthz()
            client.close()
        assert min(elapsed) < 0.1, elapsed

    def test_healthz_models_and_model_detail(self, client):
        assert client.healthz()["status"] == "ok"
        models = client.models()
        assert [m["name"] for m in models] == ["double"]
        detail = client.model("double")
        assert detail["version"] == "v1" and "stats" in detail

    def test_predict_roundtrip_and_stats(self, client):
        out = client.predict("double", np.arange(3, dtype=np.float64))
        np.testing.assert_array_equal(out, [0.0, 2.0, 4.0])
        stats = client.stats()
        m = stats["models"]["double"]
        assert m["completed"] >= 1 and m["queue_depth"] == 0
        assert "cache" in stats

    def test_cache_hit_on_identical_inputs(self, client):
        x = np.arange(4, dtype=np.float64)
        first = client.predict("double", x, raw=True)
        second = client.predict("double", x, raw=True)
        assert first["cached"] is False and second["cached"] is True
        # array inputs get binary replies: outputs are arrays
        np.testing.assert_array_equal(first["outputs"], second["outputs"])
        # textual variants of the same tensor share the cache entry
        third = client.predict("double", [0, 1.0, 2, 3.0], raw=True)
        assert third["cached"] is True

    def test_unknown_model_404(self, client):
        with pytest.raises(GatewayHTTPError) as exc:
            client.predict("nope", [1.0])
        assert exc.value.status == 404

    def test_malformed_requests_400(self, gateway, client):
        import json
        import urllib.request

        with pytest.raises(GatewayHTTPError) as exc:
            client._request("POST", "/v1/models/double/predict", {"not_inputs": 1})
        assert exc.value.status == 400
        # non-JSON body
        req = urllib.request.Request(
            f"{gateway.url}/v1/models/double/predict", data=b"{broken",
            method="POST", headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as raw_exc:
            urllib.request.urlopen(req, timeout=5.0)
        assert raw_exc.value.code == 400
        assert "malformed" in json.loads(raw_exc.value.read())["error"]

    def test_keepalive_connection_survives_404_with_body(self, gateway):
        """A POST body on an unmatched route must still be drained, or the
        next request on the same HTTP/1.1 connection parses garbage."""
        import http.client
        import json

        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=5.0)
        try:
            body = json.dumps({"inputs": [1.0] * 64})
            conn.request("POST", "/v1/models/double/frobnicate", body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 404
            resp.read()
            # same connection: a valid predict must still work
            conn.request("POST", "/v1/models/double/predict",
                         body=json.dumps({"inputs": [2.0]}),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["outputs"] == [4.0]
        finally:
            conn.close()

    def test_unroutable_paths_404(self, client):
        for method, path in [("GET", "/nope"), ("GET", "/v1/models/a/b/c"),
                             ("POST", "/v1/models/double/frobnicate")]:
            with pytest.raises(GatewayHTTPError) as exc:
                client._request(method, path, {} if method == "POST" else None)
            assert exc.value.status == 404

    def test_worker_error_becomes_500(self, gateway, client):
        def explode(payloads):
            raise ValueError("kaboom")

        gateway.registry.register("broken", explode, task="image", max_batch_size=1)
        with pytest.raises(GatewayHTTPError) as exc:
            client.predict("broken", [1.0])
        assert exc.value.status == 500
        assert "kaboom" in exc.value.body["error"]

    def test_saturated_queue_returns_429_without_corrupting_in_flight(self, gateway, client):
        """The admission-control contract from the issue: overload 429s,
        already-accepted requests still complete correctly."""
        release = threading.Event()

        def slow(payloads):
            release.wait(10.0)
            return [3 * np.asarray(p) for p in payloads]

        gateway.registry.register("slow", slow, task="image",
                                  max_batch_size=1, max_queue=1, replicas=1)
        results = {}

        def bg_predict(i):
            while True:
                try:
                    results[i] = client.predict("slow", [float(i)])
                    return
                except GatewayOverloaded:  # lost the admission race; retry
                    time.sleep(0.01)

        threads = [threading.Thread(target=bg_predict, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        pool = gateway.registry.get("slow").pool
        deadline = time.time() + 5.0
        while pool.load < 2 and time.time() < deadline:
            time.sleep(0.01)  # wait for 1 in flight + 1 queued
        assert pool.load >= 2, "saturation never established"
        with pytest.raises(GatewayOverloaded) as exc:
            client.predict("slow", [99.0])
        assert exc.value.status == 429
        release.set()
        for t in threads:
            t.join(timeout=10.0)
        assert sorted(np.asarray(v)[0] for v in results.values()) == [0.0, 3.0]
        assert client.stats()["models"]["slow"]["rejected"] >= 1

    def test_midflight_unload_drains_then_404s(self, gateway, client):
        release = threading.Event()

        def slow(payloads):
            release.wait(10.0)
            return [np.asarray(p) for p in payloads]

        gateway.registry.register("ephemeral", slow, task="image",
                                  max_batch_size=1, max_queue=8)
        results = []

        def bg():
            results.append(client.predict("ephemeral", [7.0]))

        t = threading.Thread(target=bg)
        t.start()
        time.sleep(0.2)

        def unload():
            release.set()
            client.unload("ephemeral")

        u = threading.Thread(target=unload)
        u.start()
        t.join(timeout=10.0)
        u.join(timeout=10.0)
        np.testing.assert_array_equal(results[0], [7.0])  # in-flight survived
        with pytest.raises(GatewayHTTPError) as exc:
            client.predict("ephemeral", [1.0])
        assert exc.value.status == 404

    def test_predict_timeout_returns_504(self, client):
        release = threading.Event()

        def slow(payloads):
            release.wait(10.0)
            return payloads

        reg = ModelRegistry()
        reg.register("sluggish", slow, task="image", max_batch_size=1)
        gw = Gateway(reg, predict_timeout_s=0.2).start()
        try:
            slow_client = GatewayClient(gw.url, timeout_s=10.0)
            with pytest.raises(GatewayHTTPError) as exc:
                slow_client.predict("sluggish", [1.0])
            assert exc.value.status == 504
        finally:
            release.set()
            gw.stop()

    def test_drainless_unload_fails_queued_request_with_503(self, gateway, client):
        """stop(drain=False) semantics surface as 503, never a hang or a
        corrupted response: the in-flight batch completes, the queued
        request is failed."""
        release = threading.Event()

        def slow(payloads):
            release.wait(10.0)
            return [np.asarray(p) for p in payloads]

        gateway.registry.register("vanishing", slow, task="image",
                                  max_batch_size=1, max_queue=4)
        outcomes = {}

        def bg(i):
            try:
                outcomes[i] = ("ok", client.predict("vanishing", [float(i)]))
            except GatewayHTTPError as exc:
                outcomes[i] = ("err", exc.status)

        threads = [threading.Thread(target=bg, args=(i,)) for i in range(2)]
        pool = gateway.registry.get("vanishing").pool
        threads[0].start()
        deadline = time.time() + 5.0
        while pool.stats().in_flight < 1 and time.time() < deadline:
            time.sleep(0.01)
        threads[1].start()
        while pool.stats().queue_depth < 1 and time.time() < deadline:
            time.sleep(0.01)

        # drain-less unload while one request is in flight and one queued;
        # unload() blocks joining the worker, so release from a thread.
        unloader = threading.Thread(
            target=lambda: gateway.registry.unload("vanishing", drain=False)
        )
        unloader.start()
        while pool.running and time.time() < deadline:
            time.sleep(0.01)  # wait until stop() is in progress
        time.sleep(0.05)  # ...and the worker stop flag is set
        release.set()
        for t in [*threads, unloader]:
            t.join(timeout=10.0)
        kinds = {k for k, _ in outcomes.values()}
        assert kinds == {"ok", "err"}, f"expected one success + one 503, got {outcomes}"
        err_status = next(v for k, v in outcomes.values() if k == "err")
        assert err_status == 503
        ok_value = next(v for k, v in outcomes.values() if k == "ok")
        assert np.asarray(ok_value).shape == (1,)

    def test_http_load_endpoint_and_artifact_parity(self, gateway, client, tiny_artifact):
        """Acceptance check: two models over one gateway, HTTP predictions
        bitwise-identical to direct IntegerEngine calls."""
        path, engine = tiny_artifact
        info = client.load("tiny", str(path), replicas=2)
        assert info["replicas"] == 2
        assert {m["name"] for m in client.models()} == {"double", "tiny"}

        x = np.linspace(-1, 1, 3 * 16 * 16, dtype=np.float32).reshape(3, 16, 16)
        direct = engine(x[None])[0]
        via_http = np.asarray(client.predict("tiny", x), dtype=np.float32)
        np.testing.assert_array_equal(via_http, direct.astype(np.float32))
        # duplicate load of a serving name conflicts
        with pytest.raises(GatewayHTTPError) as exc:
            client.load("tiny", str(path))
        assert exc.value.status == 409
        # bogus artifact path is a client error, not a 500
        with pytest.raises(GatewayHTTPError) as exc:
            client.load("ghost", str(path) + "-missing")
        assert exc.value.status == 400
        assert client.unload("tiny")["unloaded"] == "tiny"

    def test_stats_report_each_models_backend_picks(self, gateway, client, tiny_artifact):
        from repro.compile import compiler_available
        from repro.quant import quant_layers

        path, engine = tiny_artifact
        client.load("tiny", str(path))
        stats = client.stats()["models"]
        picked = "compiled" if compiler_available() else "integer"
        assert stats["tiny"]["backends"] == {picked: len(quant_layers(engine.model))}
        assert stats["tiny"]["backends"] == engine.backends
        assert "backends" not in stats["double"]  # a bare batch_fn has no layers

    def test_qa_tuple_payload_over_http(self, gateway, client):
        def spans(payloads):
            # payloads arrive as decoded (tokens, mask) tuples
            assert all(isinstance(p, tuple) and p[1].dtype == bool for p in payloads)
            return [np.stack([p[0], p[0]]) for p in payloads]

        gateway.registry.register("qa", spans, task="qa", max_batch_size=2)
        tokens = np.arange(5)
        out = client.predict("qa", (tokens, np.ones(5, dtype=bool)))
        np.testing.assert_array_equal(out, np.stack([tokens, tokens]))
        # malformed tuple payload -> 400
        with pytest.raises(GatewayHTTPError) as exc:
            client.predict("qa", [[1, 2, 3]])
        assert exc.value.status == 400


class TestServeGateway:
    def test_serve_gateway_one_call(self, tiny_artifact):
        from repro.serve import serve_gateway

        path, engine = tiny_artifact
        gw = serve_gateway({"a": path, "b": path}, replicas=1, cache_entries=4)
        try:
            client = GatewayClient(gw.url)
            assert {m["name"] for m in client.models()} == {"a", "b"}
            x = np.zeros((3, 16, 16), dtype=np.float32)
            np.testing.assert_array_equal(
                np.asarray(client.predict("a", x), np.float32),
                engine(x[None])[0].astype(np.float32),
            )
        finally:
            gw.stop()

    def test_failed_load_stops_started_pools(self, tiny_artifact, tmp_path):
        from repro.serve import serve_gateway

        path, _ = tiny_artifact
        with pytest.raises(Exception):
            serve_gateway({"ok": path, "bad": tmp_path / "missing"})
