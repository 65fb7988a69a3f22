"""Remote shards: ShardServer + RemoteReplica, remote pools behind the
registry/gateway, reconnect-style replacement after a shard restart, and
the tri-mode bitwise parity guarantee (thread == process == remote on
the golden pins).
"""

import multiprocessing as mp
import socket
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serve import (
    GatewayClient,
    ModelRegistry,
    ProcessReplica,
    RemoteReplica,
    ReplicaHandle,
    ReplicaPool,
    ServerClosed,
    ShardServer,
    SwapError,
    serve_gateway,
    serve_shard,
)
from repro.serve.runners import model_batch_fn

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "golden"))
from golden_common import CONFIGS, MODELS, golden_path  # noqa: E402

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="process replicas require the fork start method",
)

#: the golden case every parity assertion in this file is pinned to
GOLDEN_CASE = ("miniresnet", "w4a4_s4s4")


def wait_until(cond, timeout=10.0, step=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(step)
    return cond()


@pytest.fixture(scope="module")
def golden_artifact(tmp_path_factory):
    """The golden miniresnet case saved as an artifact + its pinned
    inputs and ``integer_prefolded`` (default ``auto`` backend) outputs
    (fixed bytes from the npz)."""
    from repro.deploy import save_artifact
    from repro.quant import quantize_model

    model_name, config_name = GOLDEN_CASE
    model, calib, inputs = MODELS[model_name]()
    model.eval()
    qmodel = quantize_model(model, CONFIGS[config_name](), calib_batches=[calib])
    path = tmp_path_factory.mktemp("shard-artifacts") / "golden"
    save_artifact(qmodel, path, task="image", input_shape=(3, 16, 16))
    pins = np.load(golden_path(model_name, config_name))
    return {"path": path, "inputs": inputs[0], "pinned": pins["integer_prefolded"]}


#: engine config the pins were computed under (build_integer_model
#: defaults: whole-batch scales, strict float64 glue) — serving parity
#: against the pins requires serving with the same knobs AND coalescing
#: the exact pinned batch, which `one_batch_kwargs` guarantees.
PIN_ENGINE = dict(per_sample_scale=False, precision="float64")


def one_batch_kwargs(n_rows):
    return dict(max_batch_size=n_rows, max_wait_ms=1000.0, num_workers=1)


def submit_pinned_batch(replica, inputs):
    """Submit every pinned row fast enough to coalesce into one batch."""
    handles = [replica.submit(np.asarray(row)) for row in inputs]
    return np.stack([h.wait(timeout=30.0) for h in handles])


@pytest.fixture
def shard(golden_artifact):
    shard = ShardServer(golden_artifact["path"], **PIN_ENGINE,
                        **one_batch_kwargs(len(golden_artifact["inputs"])))
    shard.start()
    yield shard
    shard.stop()


# ----------------------------------------------------------------------
# shard server + remote replica
# ----------------------------------------------------------------------
class TestShardRoundtrip:
    def test_remote_replica_implements_handle_contract(self, shard):
        replica = RemoteReplica(shard.address).start()
        try:
            assert isinstance(replica, ReplicaHandle)
            assert replica.alive and replica.healthy
        finally:
            replica.stop()

    def test_info_carries_artifact_metadata(self, shard):
        replica = RemoteReplica(shard.address).start()
        try:
            info = replica.info()
            assert info["task"] == "image"
            assert tuple(info["input_shape"]) == (3, 16, 16)
            assert len(info["version"]) == 12
        finally:
            replica.stop()

    def test_predictions_match_pins_bitwise(self, shard, golden_artifact):
        replica = RemoteReplica(shard.address).start()
        try:
            out = submit_pinned_batch(replica, golden_artifact["inputs"])
            assert out.dtype == np.float64
            np.testing.assert_array_equal(out, golden_artifact["pinned"])
            stats = replica.stats()
            assert stats.completed == len(golden_artifact["inputs"])
        finally:
            replica.stop()

    def test_stopping_the_link_leaves_the_shard_serving(self, shard, golden_artifact):
        first = RemoteReplica(shard.address).start()
        first.stop()
        second = RemoteReplica(shard.address).start()
        try:
            out = submit_pinned_batch(second, golden_artifact["inputs"])
            np.testing.assert_array_equal(out, golden_artifact["pinned"])
        finally:
            second.stop()

    def test_serve_shard_writes_ready_file(self, golden_artifact, tmp_path):
        ready = tmp_path / "shard.addr"
        shard = serve_shard(golden_artifact["path"], ready_file=str(ready))
        try:
            assert ready.read_text().strip() == shard.address
        finally:
            shard.stop()


# ----------------------------------------------------------------------
# remote pools: routing, shard-restart recovery, registry/gateway fronts
# ----------------------------------------------------------------------
class TestRemotePool:
    def test_pool_spans_multiple_shards(self, golden_artifact):
        n = len(golden_artifact["inputs"])
        shards = [
            ShardServer(golden_artifact["path"], **PIN_ENGINE,
                        **one_batch_kwargs(n)).start()
            for _ in range(2)
        ]
        try:
            pool = ReplicaPool(
                None, routing="round_robin",
                replica_mode=",".join(s.address for s in shards),
            )
            with pool:
                assert pool.replica_mode == "remote"
                assert len(pool._snapshot()) == 2
                x = np.asarray(golden_artifact["inputs"][0])
                for _ in range(4):
                    out = pool.submit(x, block=True).wait(timeout=30.0)
                    assert out.dtype == np.float64
                # round_robin spread the singles across both shards
                assert all(s.server.stats().completed >= 1 for s in shards)
        finally:
            for s in shards:
                s.stop()

    def test_replacement_reconnects_after_shard_restart(self, golden_artifact):
        """The remote healing story: a shard restart kills the link; the
        pool's replacement replica re-dials the *same* address."""
        shard = ShardServer(golden_artifact["path"], **PIN_ENGINE,
                            **one_batch_kwargs(4)).start()
        host, port = shard.address.rsplit(":", 1)
        pool = ReplicaPool(None, replica_mode=shard.address)
        pool.start()
        x = np.asarray(golden_artifact["inputs"][0])
        try:
            pool.submit(x, block=True).wait(timeout=30.0)
            shard.stop()
            old = pool._snapshot()[0]
            assert wait_until(lambda: not old.alive)
            # shard comes back on the same port (the deploy recipe)
            shard = ShardServer(golden_artifact["path"], host=host, port=int(port),
                                **PIN_ENGINE, **one_batch_kwargs(4)).start()
            replacement = pool.replace_replica(old)
            assert replacement.address == f"{host}:{port}"
            assert wait_until(lambda: replacement.alive)
            # whole-batch scales: parity needs the exact pinned batch
            out = submit_pinned_batch(pool, golden_artifact["inputs"])
            np.testing.assert_array_equal(out, golden_artifact["pinned"])
        finally:
            pool.stop(drain=False)
            shard.stop()

    def test_registry_load_remote_probes_shard_metadata(self, shard, golden_artifact):
        reg = ModelRegistry()
        try:
            entry = reg.load_remote("golden", shard.address)
            assert entry.task == "image"
            assert entry.pool.replica_mode == "remote"
            out = submit_pinned_batch(entry.pool, golden_artifact["inputs"])
            np.testing.assert_array_equal(out, golden_artifact["pinned"])
        finally:
            reg.stop_all()

    def test_swap_refuses_remote_pools(self, shard, golden_artifact):
        reg = ModelRegistry()
        try:
            reg.load_remote("golden", shard.address)
            with pytest.raises(SwapError, match="remote"):
                reg.swap("golden", golden_artifact["path"])
        finally:
            reg.stop_all()

    def test_gateway_fronts_a_remote_shard_over_http(self, shard, golden_artifact):
        gw = serve_gateway({"golden": shard.address})
        try:
            from repro.deploy import IntegerEngine

            client = GatewayClient(f"http://127.0.0.1:{gw.port}")
            models = {m["name"]: m for m in client.models()}
            assert "golden" in models
            x = np.asarray(golden_artifact["inputs"][0])
            out = client.predict("golden", x.tolist())
            # reference: the same single-row batch through a local engine,
            # after the gateway codec's float32 decode (whole-batch scales
            # make the output batch-composition dependent, so the pins'
            # 4-row bytes don't apply here)
            engine = IntegerEngine.load(golden_artifact["path"], **PIN_ENGINE)
            expect = np.asarray(
                engine(x.astype(np.float32)[None])[0], dtype=np.float64
            )
            # JSON round-trip: values survive exactly, dtype does not
            np.testing.assert_array_equal(np.asarray(out, dtype=np.float64), expect)
        finally:
            gw.stop()


# ----------------------------------------------------------------------
# tri-mode bitwise parity on the golden pins
# ----------------------------------------------------------------------
class TestTriModeGoldenParity:
    """thread == process == remote, bit for bit, against fixed bytes.

    Each mode serves the pins' exact engine config and coalesces the
    exact pinned batch; the wire codec must not perturb a single bit.
    """

    def _thread_outputs(self, golden_artifact):
        from repro.deploy import IntegerEngine
        from repro.serve import InferenceServer

        engine = IntegerEngine.load(golden_artifact["path"], **PIN_ENGINE)
        with InferenceServer(
            model_batch_fn(engine.model),
            **one_batch_kwargs(len(golden_artifact["inputs"])),
        ) as server:
            return submit_pinned_batch(server, golden_artifact["inputs"])

    def test_thread_mode_matches_pins(self, golden_artifact):
        out = self._thread_outputs(golden_artifact)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, golden_artifact["pinned"])

    @needs_fork
    def test_process_mode_matches_pins(self, golden_artifact):
        from repro.deploy import IntegerEngine

        engine = IntegerEngine.load(golden_artifact["path"], **PIN_ENGINE)
        with ProcessReplica(
            model_batch_fn(engine.model),
            **one_batch_kwargs(len(golden_artifact["inputs"])),
        ) as replica:
            out = submit_pinned_batch(replica, golden_artifact["inputs"])
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, golden_artifact["pinned"])

    def test_remote_mode_matches_pins(self, shard, golden_artifact):
        replica = RemoteReplica(shard.address).start()
        try:
            out = submit_pinned_batch(replica, golden_artifact["inputs"])
        finally:
            replica.stop()
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, golden_artifact["pinned"])
