"""Binary ``/predict`` frames and persistent client connections.

Array inputs travel as one ``repro.serve.worker`` frame and come back as
one; nested lists keep the JSON exchange. Both must reach the engine and
the response cache as the same decoded payload, so their outputs agree
bitwise with each other and with a direct engine call.
"""

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.serve import Gateway, GatewayClient, GatewayHTTPError, ModelRegistry
from repro.serve.worker import FRAME_CONTENT_TYPE, encode_payload, pack_frame


def doubler(payloads):
    return [2 * np.asarray(p) for p in payloads]


def bits(a):
    a = np.ascontiguousarray(a)
    return a.dtype, a.shape, a.tobytes()


@pytest.fixture
def gateway():
    reg = ModelRegistry()
    reg.register("double", doubler, task="image", version="v1", max_batch_size=1)
    gw = Gateway(reg, cache_entries=8, predict_timeout_s=10.0).start()
    yield gw
    gw.stop()


@pytest.fixture
def client(gateway):
    with GatewayClient(gateway.url, timeout_s=10.0) as c:
        yield c


def accepted(client):
    return client.stats()["connections"]["accepted"]


def post(gateway, body: bytes, headers: dict):
    conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
    try:
        conn.request("POST", "/v1/models/double/predict", body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


@pytest.fixture
def tiny_engine(rng, tmp_path):
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
    return path, IntegerEngine.load(path, per_sample_scale=True, precision="float32")


class TestRoundTrip:
    def test_image_binary_equals_engine_and_json(self, gateway, client, tiny_engine):
        path, engine = tiny_engine
        client.load("tiny", str(path))
        x = np.linspace(-1, 1, 3 * 16 * 16, dtype=np.float32).reshape(3, 16, 16)
        direct = np.asarray(engine(x[None])[0])
        binary = client.predict("tiny", x)
        assert bits(binary) == bits(direct)  # the engine's dtype, every bit
        via_json = client.predict("tiny", x.tolist())
        assert bits(np.asarray(via_json, dtype=direct.dtype)) == bits(direct)

    def test_float64_input_is_cast_like_json(self, gateway, client):
        x = np.random.default_rng(3).standard_normal(5)  # float64, not float32-exact
        binary = client.predict("double", x)
        via_json = client.predict("double", x.tolist(), raw=True)
        assert binary.dtype == np.float32  # _decode_image's cast, then the model
        assert bits(binary) == bits(2 * x.astype(np.float32))
        assert bits(np.asarray(via_json["outputs"], dtype=np.float32)) == bits(binary)
        assert via_json["cached"] is True  # same decoded tensor, same cache entry

    def test_qa_tuple_dtypes_reach_the_engine(self, gateway, client):
        seen = []

        def spans(payloads):
            seen.extend(payloads)
            return [np.stack([p[0], p[0]]) for p in payloads]

        gateway.registry.register("qa", spans, task="qa", max_batch_size=1)
        tokens = np.arange(5, dtype=np.int32)
        mask = np.array([1, 1, 1, 0, 0], dtype=np.uint8)
        binary = client.predict("qa", (tokens, mask))
        via_json = client.predict("qa", [tokens.tolist(), mask.tolist()])
        for got_tokens, got_mask in seen:
            assert got_tokens.dtype == np.int64 and got_mask.dtype == bool
            np.testing.assert_array_equal(got_tokens, tokens)
            np.testing.assert_array_equal(got_mask, mask.astype(bool))
        assert binary.dtype == np.int64
        np.testing.assert_array_equal(binary, np.asarray(via_json))

    def test_trace_embeds_in_the_frame_header(self, client):
        body = client.predict("double", np.arange(3, dtype=np.float32),
                              trace=True, request_id="req-frame-1")
        assert isinstance(body["outputs"], np.ndarray)
        assert body["trace"]["request_id"] == "req-frame-1"
        names = [s["name"] for s in body["trace"]["spans"]]
        assert names[0] == "decode" and names[-1] == "encode"

    def test_raw_reply_fields_and_cached_hit(self, client):
        x = np.arange(4, dtype=np.float32)
        first = client.predict("double", x, raw=True)
        second = client.predict("double", x, raw=True)
        assert set(first) == {"model", "version", "outputs", "cached"}
        assert (first["model"], first["version"]) == ("double", "v1")
        assert first["cached"] is False and second["cached"] is True
        assert bits(first["outputs"]) == bits(second["outputs"]) == bits(2 * x)

    def test_object_outputs_fall_back_to_json(self, gateway, client):
        # a bare batch_fn may answer with Python objects: no raw bytes to ship
        gateway.registry.register("meta", lambda ps: [{"n": len(ps)} for _ in ps],
                                  task="image", max_batch_size=1)
        body = client.predict("meta", np.zeros(2, dtype=np.float32), raw=True)
        assert body["outputs"] == {"n": 1}


class TestErrors:
    @pytest.mark.parametrize("body", [
        b"\x00\x00",  # shorter than the prefix
        pack_frame({"inputs": encode_payload(np.ones(2))[0]}, []),  # blob missing
        pack_frame({"x": 1}, []),  # no inputs
        pack_frame({"inputs": {"kind": "array", "arrays": [
            {"dtype": "|O", "shape": [1]}]}}, [b"\x00" * 8]),  # object dtype
        pack_frame({"inputs": {"kind": "array", "arrays": [
            {"dtype": "<f4", "shape": [-1]}]}}, [b"\x00" * 8]),  # negative dimension
        pack_frame({"inputs": encode_payload(np.ones(2, dtype=np.float32))[0]},
                   encode_payload(np.ones(2, dtype=np.float32))[1]) + b"!",  # past prefix
        pack_frame({"inputs": encode_payload(np.ones(2, dtype=np.float32))[0]},
                   [b"\x00" * 12]),  # blob longer than the arrays
    ])
    def test_malformed_frame_400(self, gateway, body):
        status, headers, reply = post(gateway, body, {"Content-Type": FRAME_CONTENT_TYPE,
                                                      "Accept": FRAME_CONTENT_TYPE})
        assert status == 400
        assert headers["Content-Type"] == "application/json"  # errors stay JSON
        assert "malformed frame" in json.loads(reply)["error"]

    def test_oversized_binary_413_then_reconnects(self):
        reg = ModelRegistry()
        reg.register("double", doubler, task="image", max_batch_size=1)
        with Gateway(reg, max_body_bytes=2048) as gw, GatewayClient(gw.url) as client:
            base = accepted(client)
            with pytest.raises(GatewayHTTPError) as exc:
                client.predict("double", np.ones(1000, dtype=np.float32))
            assert exc.value.status == 413
            out = client.predict("double", np.ones(2))
            np.testing.assert_array_equal(out, [2.0, 2.0])
            assert accepted(client) == base + 1  # the 413 closed it; one redial
            header, blobs = encode_payload(np.ones(1000, dtype=np.float32))
            status, headers, _ = post(gw, pack_frame({"inputs": header}, blobs),
                                      {"Content-Type": FRAME_CONTENT_TYPE})
        assert status == 413 and headers["Connection"] == "close"


class TestConnections:
    def test_one_thread_reuses_one_connection(self, client):
        base = accepted(client)
        for i in range(10):
            client.predict("double", np.full(2, i, dtype=np.float32))
        assert accepted(client) == base
        assert client.stats()["connections"]["open"] == 1

    def test_two_threads_get_two_connections(self, client):
        base = accepted(client)
        barrier = threading.Barrier(2)
        errors = []

        def call(i):
            try:
                barrier.wait(5.0)
                for k in range(5):
                    client.predict("double", np.full(2, 10 * i + k, dtype=np.float32))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert not errors
        assert accepted(client) == base + 2

    def test_server_closed_idle_connection_is_redialed(self, gateway, client):
        client.predict("double", np.ones(2))
        base = accepted(client)
        for thread in gateway._httpd.close_connections():
            thread.join(5.0)
        np.testing.assert_array_equal(client.predict("double", np.ones(3)), [2.0] * 3)
        assert accepted(client) == base + 1

    def test_keepalive_predicts_do_not_stall(self):
        """Headers and body in separate sends on a socket without
        TCP_NODELAY made every reused-connection reply wait ~40 ms for a
        delayed ACK."""
        reg = ModelRegistry()
        reg.register("double", doubler, task="image", max_batch_size=1)
        with Gateway(reg) as gw, GatewayClient(gw.url) as client:
            client.predict("double", np.zeros(2))
            t0 = time.perf_counter()
            for i in range(20):
                client.predict("double", np.full(2, i, dtype=np.float32))
            elapsed = time.perf_counter() - t0
        assert elapsed < 20 * 0.040 / 2, elapsed
