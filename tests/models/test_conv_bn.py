"""``nn.conv_bn`` keeps MiniResNet's training graph bit for bit.

MiniResNet's stem and ``BasicBlock`` call :func:`repro.nn.conv_bn`.
Outside the fused inference case its generic path must be exactly the
expression the model used before, ``relu(bn(conv(x)) + skip)``: the same
outputs, input and parameter gradients, and BatchNorm running stats, in
training and in eval mode, for identity-skip and projection blocks.
"""

import copy

import numpy as np
import pytest

from repro import nn
from repro.models import BasicBlock, MiniResNet
from repro.tensor import Tensor, ops


def _reference_block(block: BasicBlock, x: Tensor) -> Tensor:
    out = ops.relu(block.bn1(block.conv1(x)))
    out = block.bn2(block.conv2(out))
    skip = x if block.proj is None else block.proj_bn(block.proj(x))
    return ops.relu(out + skip)


def _reference_model(model: MiniResNet, x: Tensor) -> Tensor:
    out = ops.relu(model.stem_bn(model.stem(x)))
    for block in model.blocks:
        out = _reference_block(block, out)
    return model.head(model.pool(out))


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


def _run(module, forward, x: np.ndarray, g: np.ndarray):
    xt = Tensor(x, requires_grad=True)
    out = forward(module, xt)
    (out * Tensor(g)).sum().backward()
    grads = {name: p.grad for name, p in module.named_parameters()}
    buffers = {name: b for name, b in module.named_buffers()}
    return out.data, xt.grad, grads, buffers


def _assert_same(a, b) -> None:
    out_a, dx_a, grads_a, bufs_a = a
    out_b, dx_b, grads_b, bufs_b = b
    np.testing.assert_array_equal(_bits(out_a), _bits(out_b))
    np.testing.assert_array_equal(_bits(dx_a), _bits(dx_b))
    assert grads_a.keys() == grads_b.keys()
    for name in grads_a:
        assert grads_a[name] is not None, name
        np.testing.assert_array_equal(_bits(grads_a[name]), _bits(grads_b[name]), err_msg=name)
    for name in bufs_a:
        np.testing.assert_array_equal(_bits(bufs_a[name]), _bits(bufs_b[name]), err_msg=name)


def _randomize_stats(module, rng) -> None:
    for _, m in module.named_modules():
        if isinstance(m, nn.BatchNorm2d):
            m.set_buffer("running_mean", rng.standard_normal(m.num_features))
            m.set_buffer("running_var", rng.uniform(0.5, 2.0, m.num_features))


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("in_ch,out_ch,stride", [(8, 8, 1), (8, 16, 2)])
def test_block_matches_the_reference_expression(training, in_ch, out_ch, stride):
    rng = np.random.default_rng(0)
    block = BasicBlock(in_ch, out_ch, stride, rng)
    assert (block.proj is None) == (in_ch == out_ch and stride == 1)
    _randomize_stats(block, rng)
    block.train(training)
    twin = copy.deepcopy(block)
    x = rng.standard_normal((4, in_ch, 8, 8))
    g = rng.standard_normal((4, out_ch, 8 // stride, 8 // stride))
    _assert_same(
        _run(block, lambda m, t: m(t), x, g),
        _run(twin, _reference_block, x, g),
    )


@pytest.mark.parametrize("training", [True, False])
def test_model_matches_the_reference_expression(training):
    rng = np.random.default_rng(1)
    model = MiniResNet(num_classes=4, width=1, depth=1, seed=3)
    _randomize_stats(model, rng)
    model.train(training)
    twin = copy.deepcopy(model)
    x = rng.standard_normal((3, 3, 16, 16))
    g = rng.standard_normal((3, 4))
    _assert_same(
        _run(model, lambda m, t: m(t), x, g),
        _run(twin, _reference_model, x, g),
    )
