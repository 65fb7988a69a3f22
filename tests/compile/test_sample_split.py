"""Sample-parallel compiled kernels: bitwise equal to the serial call.

``CompiledBackend.run_conv2d``/``run_linear`` and
``CompiledQuantizer._fake_quant_array`` split a per-sample batch across
the helper pool (``repro.utils.parallel``), passing each range to the
same kernel. These tests check each site against the same call with
the pool forced to one worker (B in {16, 17, 64}, 2 or 3 workers,
float32 and float64 serving), and the rules around it: per-tensor
scales never split, B <= 15 never touches the pool, perfbench-style
module timing still reconciles, a shared engine stays exact under 8
concurrent callers, and a forked process replica builds its own pool.
"""

import multiprocessing as mp
import sys
import threading
import time
from collections import defaultdict

import numpy as np
import pytest

import repro.compile.backend as compiled_backend
from repro.compile import compiler_available
from repro.deploy import IntegerEngine, save_artifact
from repro.models.bert import MiniBERT, MiniBERTConfig
from repro.models.resnet import MiniResNet
from repro.quant import PTQConfig, quant_layers, quantize_model
from repro.quant.qlayers import QuantMultiHeadAttention
from repro.serve import InferenceServer, ProcessReplica
from repro.tensor.tensor import Tensor, no_grad
from repro.utils import parallel

pytestmark = pytest.mark.skipif(
    not compiler_available(), reason="no working C compiler on this host"
)

BATCHES = [16, 17, 64]
WORKERS = [2, 3]
PRECISIONS = ["float32", "float64"]
BERT = MiniBERTConfig(
    name="split", vocab_size=40, max_seq_len=8, d_model=32, num_heads=2, num_layers=1, d_ff=64
)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A tiny MiniResNet and a tiny full-quantized MiniBERT artifact."""
    root = tmp_path_factory.mktemp("split")
    rng = np.random.default_rng(7)
    resnet = MiniResNet(num_classes=4, width=1, depth=1, seed=0)
    resnet.eval()
    q = quantize_model(
        resnet,
        PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4"),
        calib_batches=[(rng.standard_normal((4, 3, 16, 16)),)],
    )
    save_artifact(q, root / "resnet", task="image")
    bert = MiniBERT(BERT, seed=0)
    bert.eval()
    tokens, mask = _bert_inputs(rng, 4)
    q = quantize_model(
        bert,
        PTQConfig.vs_quant(
            4, 4, weight_scale="4", act_scale="4", embeddings=True, attention=True
        ),
        calib_batches=[(tokens, mask)],
    )
    save_artifact(q, root / "bert", task="qa")
    return root


def _bert_inputs(rng, n):
    tokens = rng.integers(0, BERT.vocab_size, (n, BERT.max_seq_len))
    lengths = rng.integers(2, BERT.max_seq_len + 1, n)
    return tokens, np.arange(BERT.max_seq_len)[None, :] < lengths[:, None]


def _inputs(model, rng, n):
    if model == "resnet":
        return (rng.standard_normal((n, 3, 16, 16)).astype(np.float32),)
    return _bert_inputs(rng, n)


def _load(artifacts, model, precision="float32", per_sample=True, backend="compiled"):
    return IntegerEngine.load(
        artifacts / model, per_sample_scale=per_sample, precision=precision, backend=backend
    )


def _count_splits(monkeypatch) -> list[int]:
    """Batch sizes the compiled sites hand to the helper."""
    calls = []
    real = compiled_backend.split_samples
    monkeypatch.setattr(
        compiled_backend, "split_samples", lambda fn, n: (calls.append(n), real(fn, n))
    )
    return calls


def _site(engine, kind):
    """A compiled callable of ``kind`` from ``engine`` and its input shape."""
    if kind == "quantize":
        attn = next(m for _, m in engine.model.named_modules()
                    if isinstance(m, QuantMultiHeadAttention))
        quantizer = attn.operand_quantizers["q"]
        assert isinstance(quantizer, compiled_backend.CompiledQuantizer)
        return quantizer, (2, BERT.max_seq_len, BERT.d_model // 2)
    layer = next(layer for _, layer in quant_layers(engine.model) if layer.kind == kind)
    assert layer.backend == "compiled" and compiled_backend.CompiledBackend.compiles(layer)
    if kind == "conv2d":
        return layer, (layer.in_channels, 16, 16)
    return layer, (BERT.max_seq_len, layer.in_features)


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("kind", ["conv2d", "linear", "quantize"])
def test_each_site_splits_bitwise_equal_to_one_worker(
    monkeypatch, artifacts, kind, batch, workers, precision
):
    engine = _load(artifacts, "resnet" if kind == "conv2d" else "bert", precision)
    site, shape = _site(engine, kind)
    x = (np.random.default_rng(batch).standard_normal((batch, *shape)) * 3).astype(
        np.float32 if precision == "float32" else np.float64
    )
    calls = _count_splits(monkeypatch)
    with no_grad():
        monkeypatch.setattr(parallel, "_WORKERS", 1)
        serial = site(Tensor(x)).data
        monkeypatch.setattr(parallel, "_WORKERS", workers)
        split = site(Tensor(x)).data
    assert calls == [batch, batch]  # the site hands its batch to the helper
    assert split.dtype == serial.dtype
    np.testing.assert_array_equal(split, serial)


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("model", ["resnet", "bert"])
def test_split_engines_equal_the_integer_reference(monkeypatch, artifacts, model, precision):
    monkeypatch.setattr(parallel, "_WORKERS", 3)
    x = _inputs(model, np.random.default_rng(3), 64)
    y = _load(artifacts, model, precision)(*x)
    monkeypatch.setattr(parallel, "_WORKERS", 1)
    y_ref = _load(artifacts, model, precision, backend="integer")(*x)
    assert y.dtype == y_ref.dtype
    np.testing.assert_array_equal(y, y_ref)


@pytest.mark.parametrize("model", ["resnet", "bert"])
def test_per_tensor_scales_never_split(monkeypatch, artifacts, model):
    """A per-tensor gamma spans the batch: the kernels see all of it."""
    monkeypatch.setattr(parallel, "_WORKERS", 2)
    calls = _count_splits(monkeypatch)
    engine = _load(artifacts, model, per_sample=False)
    x = _inputs(model, np.random.default_rng(4), 64)
    y = engine(*x)
    assert calls == []
    monkeypatch.setattr(parallel, "_WORKERS", 1)
    np.testing.assert_array_equal(y, engine(*x))


@pytest.mark.parametrize("model", ["resnet", "bert"])
def test_small_batches_never_touch_the_pool(monkeypatch, artifacts, model):
    monkeypatch.setattr(parallel, "_WORKERS", 2)
    engine = _load(artifacts, model)
    x = _inputs(model, np.random.default_rng(5), 15)
    y = engine(*x)

    def no_pool(count):
        raise AssertionError("B <= 15 must not touch the helper pool")

    monkeypatch.setattr(parallel, "_helpers", no_pool)
    np.testing.assert_array_equal(engine(*x), y)


class _Ledger:
    """Per-thread self time of nested wrapped calls, as perfbench's
    ``SelfTimeLedger`` keeps it, plus the threads the calls ran on."""

    def __init__(self):
        self.local = threading.local()
        self.self_s = defaultdict(float)
        self.root_s = 0.0
        self.threads = set()

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            stack = self.local.__dict__.setdefault("stack", [])
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                else:
                    self.root_s += duration
                self.self_s[name] += duration - children[0]
                self.threads.add(threading.get_ident())

        return timed


@pytest.mark.parametrize("model", ["resnet", "bert"])
def test_instrumented_forward_still_reconciles(monkeypatch, artifacts, model):
    """Module-level timing as ``perfbench/zoo.instrument`` wraps it: the
    helpers run no wrapped module, so self times add up to the forward."""
    monkeypatch.setattr(parallel, "_WORKERS", 2)
    engine = _load(artifacts, model)
    x = _inputs(model, np.random.default_rng(6), 64)
    engine(*x)  # warm: kernels compiled, pool started
    ledger = _Ledger()
    for name, module in engine.model.named_modules():
        object.__setattr__(module, "forward", ledger.wrap(name, module.forward))
        if isinstance(module, QuantMultiHeadAttention):
            object.__setattr__(module, "_operand", ledger.wrap(name + "#op", module._operand))
    start = time.perf_counter()
    engine(*x)
    forward_s = time.perf_counter() - start
    assert ledger.threads == {threading.get_ident()}
    assert abs(sum(ledger.self_s.values()) - ledger.root_s) <= 1e-9 + 1e-6 * ledger.root_s
    assert abs(ledger.root_s / forward_s - 1.0) <= 0.05


@pytest.mark.parametrize("model", ["resnet", "bert"])
def test_shared_engine_under_eight_callers_is_exact(monkeypatch, artifacts, model):
    monkeypatch.setattr(parallel, "_WORKERS", 2)
    engine = _load(artifacts, model)
    rng = np.random.default_rng(8)
    batches = [_inputs(model, rng, 32) for _ in range(8)]
    monkeypatch.setattr(parallel, "_WORKERS", 1)
    expected = [engine(*b) for b in batches]
    monkeypatch.setattr(parallel, "_WORKERS", 2)
    results: dict[int, list] = defaultdict(list)
    errors = []

    def caller(i):
        try:
            for _ in range(3):
                results[i].append(engine(*batches[i]))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many more thread switches inside each call
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for i, outs in results.items():
        assert len(outs) == 3
        for out in outs:
            np.testing.assert_array_equal(out, expected[i])
    assert len(results) == 8


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="process replicas need fork"
)
def test_process_replica_forked_after_a_split_builds_its_own_pool(monkeypatch, artifacts):
    """The parent's helper threads do not survive fork: a child that kept
    the parent's pool would queue ranges no thread serves."""
    monkeypatch.setattr(parallel, "_WORKERS", 2)
    engine = _load(artifacts, "resnet")
    rng = np.random.default_rng(9)
    engine(*_inputs("resnet", rng, 64))
    assert parallel._pool is not None  # the parent's pool exists at fork

    def helpers():
        return sum(t.name.startswith("repro-samples") for t in threading.enumerate())

    def batch_fn(payloads):
        return [(engine(p), np.asarray(helpers())) for p in payloads]

    x = _inputs("resnet", rng, 32)[0]
    with InferenceServer(batch_fn) as server:
        y_thread, _ = server.infer(x, timeout=60)
    with ProcessReplica(batch_fn) as replica:
        y_process, child_helpers = replica.infer(x, timeout=60)
    assert int(child_helpers) == 1  # the child split too, on helpers of its own
    assert y_process.dtype == y_thread.dtype
    np.testing.assert_array_equal(y_process, y_thread)
