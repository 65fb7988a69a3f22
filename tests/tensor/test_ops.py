"""Gradient checks and value checks for every differentiable op."""

import numpy as np
import pytest
from scipy import special

from repro.tensor import Tensor, gradcheck, ops


def t(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestUnaryValues:
    def test_exp_log_sqrt(self, rng):
        x = np.abs(rng.standard_normal(10)) + 0.5
        np.testing.assert_allclose(ops.exp(t(x)).data, np.exp(x))
        np.testing.assert_allclose(ops.log(t(x)).data, np.log(x))
        np.testing.assert_allclose(ops.sqrt(t(x)).data, np.sqrt(x))

    def test_tanh_sigmoid(self, rng):
        x = rng.standard_normal(10)
        np.testing.assert_allclose(ops.tanh(t(x)).data, np.tanh(x))
        np.testing.assert_allclose(ops.sigmoid(t(x)).data, special.expit(x))

    def test_relu(self):
        np.testing.assert_allclose(ops.relu(t([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_gelu_known_points(self):
        # gelu(0) = 0, gelu(large) ~ x, gelu(-large) ~ 0
        out = ops.gelu(t([0.0, 10.0, -10.0])).data
        np.testing.assert_allclose(out[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(out[1], 10.0, rtol=1e-6)
        np.testing.assert_allclose(out[2], 0.0, atol=1e-6)

    def test_abs(self):
        np.testing.assert_allclose(ops.abs(t([-2.0, 3.0])).data, [2.0, 3.0])

    def test_clip_values_and_zero_grad_outside(self):
        x = t([-2.0, 0.5, 2.0])
        y = ops.clip(x, -1.0, 1.0)
        np.testing.assert_allclose(y.data, [-1.0, 0.5, 1.0])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestUnaryGrads:
    @pytest.mark.parametrize(
        "fn",
        [ops.exp, ops.tanh, ops.sigmoid, ops.gelu, ops.relu, ops.abs],
        ids=["exp", "tanh", "sigmoid", "gelu", "relu", "abs"],
    )
    def test_gradcheck(self, fn, rng):
        x = t(rng.standard_normal((4, 5)) + 0.1)
        assert gradcheck(fn, [x], eps=1e-6)

    def test_log_sqrt_grad_positive_domain(self, rng):
        x = t(np.abs(rng.standard_normal((3, 3))) + 0.5)
        assert gradcheck(ops.log, [x])
        x2 = t(np.abs(rng.standard_normal((3, 3))) + 0.5)
        assert gradcheck(ops.sqrt, [x2])


class TestBinary:
    def test_maximum_minimum_values(self, rng):
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        np.testing.assert_allclose(ops.maximum(t(a), t(b)).data, np.maximum(a, b))
        np.testing.assert_allclose(ops.minimum(t(a), t(b)).data, np.minimum(a, b))

    def test_maximum_grad_goes_to_winner(self):
        a, b = t([1.0, 5.0]), t([2.0, 3.0])
        ops.maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0])

    def test_where_values_and_grads(self):
        cond = np.array([True, False, True])
        a, b = t([1.0, 2.0, 3.0]), t([10.0, 20.0, 30.0])
        y = ops.where(cond, a, b)
        np.testing.assert_allclose(y.data, [1.0, 20.0, 3.0])
        y.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])

    def test_where_broadcasts(self, rng):
        cond = rng.standard_normal((3, 4)) > 0
        a = t(rng.standard_normal((3, 4)))
        b = t(rng.standard_normal((1, 4)))
        assert gradcheck(lambda a, b: ops.where(cond, a, b), [a, b])


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self, rng):
        y = ops.softmax(t(rng.standard_normal((5, 7)) * 10)).data
        np.testing.assert_allclose(y.sum(axis=-1), np.ones(5))
        assert (y >= 0).all()

    def test_softmax_shift_invariance(self, rng):
        x = rng.standard_normal((3, 4))
        a = ops.softmax(t(x)).data
        b = ops.softmax(t(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_array_is_bitwise_the_textbook_form(self, rng, dtype):
        x = (rng.standard_normal((3, 2, 5, 48)) * 8).astype(dtype)
        x[0, 1, 2, :7] = -1e9
        x[1, 0, 3] = -np.abs(x[1, 0, 3])
        x[1, 0, 3, ::3] = -0.0  # a zero max of either sign
        x[1, 0, 3, 1::5] = 0.0
        x[2, 1, 4, 9] = np.nan
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        want = e / e.sum(axis=-1, keepdims=True)
        nan = np.isnan(want)
        assert nan.sum() == 48
        y = x.copy()
        in_place = ops.softmax_array(y, out=y)
        assert in_place is y
        for got in (ops.softmax_array(x), in_place):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(np.isnan(got), nan)
            bits = f"u{got.itemsize}"
            np.testing.assert_array_equal(got[~nan].view(bits), want[~nan].view(bits))

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = rng.standard_normal((3, 4))
        np.testing.assert_allclose(
            ops.log_softmax(t(x)).data, np.log(ops.softmax(t(x)).data), atol=1e-12
        )

    def test_logsumexp_matches_scipy(self, rng):
        x = rng.standard_normal((4, 6)) * 5
        np.testing.assert_allclose(
            ops.logsumexp(t(x), axis=1).data, special.logsumexp(x, axis=1)
        )

    def test_logsumexp_keepdims(self, rng):
        x = rng.standard_normal((4, 6))
        assert ops.logsumexp(t(x), axis=1, keepdims=True).shape == (4, 1)

    def test_grads(self, rng):
        w = Tensor(rng.standard_normal((3, 4)))
        x = t(rng.standard_normal((3, 4)))
        assert gradcheck(lambda x: ops.softmax(x) * w, [x])
        x2 = t(rng.standard_normal((3, 4)))
        assert gradcheck(lambda x: ops.log_softmax(x) * w, [x2])
        x3 = t(rng.standard_normal((3, 4)))
        assert gradcheck(lambda x: ops.logsumexp(x, axis=0), [x3])


class TestStructural:
    def test_concatenate_values(self, rng):
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((4, 3))
        np.testing.assert_allclose(
            ops.concatenate([t(a), t(b)], axis=0).data, np.concatenate([a, b])
        )

    def test_concatenate_grad_splits(self):
        a, b = t(np.zeros(2)), t(np.zeros(3))
        ops.concatenate([a, b]).backward(np.arange(5.0))
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0, 4.0])

    def test_stack_values_and_grad(self, rng):
        a, b = t(rng.standard_normal(4)), t(rng.standard_normal(4))
        y = ops.stack([a, b], axis=0)
        assert y.shape == (2, 4)
        assert gradcheck(lambda a, b: ops.stack([a, b], axis=1), [a, b])

    def test_pad2d_shape_and_grad(self, rng):
        x = t(rng.standard_normal((1, 2, 3, 3)))
        y = ops.pad2d(x, 2)
        assert y.shape == (1, 2, 7, 7)
        assert gradcheck(lambda x: ops.pad2d(x, 1), [x])

    def test_pad2d_zero_is_identity(self):
        x = t(np.ones((1, 1, 2, 2)))
        assert ops.pad2d(x, 0) is x


class TestConv2d:
    def test_matches_direct_convolution(self, rng):
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        out = ops.conv2d(Tensor(x), Tensor(w), stride=1, padding=0).data
        # Direct loop reference
        ref = np.zeros((2, 4, 4, 4))
        for b in range(2):
            for k in range(4):
                for p in range(4):
                    for q in range(4):
                        ref[b, k, p, q] = (x[b, :, p : p + 3, q : q + 3] * w[k]).sum()
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_stride_and_padding_shapes(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 8, 8)))
        w = Tensor(rng.standard_normal((5, 2, 3, 3)))
        assert ops.conv2d(x, w, stride=2, padding=1).shape == (1, 5, 4, 4)
        assert ops.conv2d(x, w, stride=1, padding=1).shape == (1, 5, 8, 8)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 8, 8)))
        w = Tensor(rng.standard_normal((5, 2, 3, 3)))
        with pytest.raises(ValueError):
            ops.conv2d(x, w)

    def test_bias_broadcast(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)))
        w = Tensor(np.zeros((2, 1, 1, 1)))
        b = Tensor(np.array([1.0, -1.0]))
        out = ops.conv2d(x, w, b).data
        np.testing.assert_allclose(out[0, 0], np.ones((4, 4)))
        np.testing.assert_allclose(out[0, 1], -np.ones((4, 4)))

    def test_gradcheck_full(self, rng):
        x = t(rng.standard_normal((2, 2, 5, 5)))
        w = t(rng.standard_normal((3, 2, 3, 3)) * 0.3)
        b = t(rng.standard_normal(3))
        assert gradcheck(
            lambda x, w, b: ops.conv2d(x, w, b, stride=2, padding=1), [x, w, b], atol=3e-4
        )


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = ops.max_pool2d(x, 2).data
        np.testing.assert_allclose(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_avg_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = ops.avg_pool2d(x, 2).data
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_grad_to_argmax_only(self):
        x = t(np.arange(16.0).reshape(1, 1, 4, 4))
        ops.max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(x.grad[0, 0], expected)

    def test_overlapping_stride(self, rng):
        x = t(rng.standard_normal((1, 1, 5, 5)))
        assert ops.max_pool2d(x, 3, stride=1).shape == (1, 1, 3, 3)
        assert gradcheck(lambda x: ops.avg_pool2d(x, 3, stride=1), [x], atol=3e-4)


class TestTrainingHelpers:
    def test_embedding_lookup_values_and_grad(self, rng):
        table = t(rng.standard_normal((5, 3)))
        idx = np.array([[0, 2], [4, 0]])
        out = ops.embedding_lookup(table, idx)
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        # Row 0 used twice
        np.testing.assert_allclose(table.grad[0], 2 * np.ones(3))
        np.testing.assert_allclose(table.grad[1], np.zeros(3))

    def test_cross_entropy_uniform_logits(self):
        logits = t(np.zeros((2, 4)))
        loss = ops.cross_entropy(logits, np.array([0, 3]))
        np.testing.assert_allclose(loss.item(), np.log(4.0))

    def test_cross_entropy_ignores_masked_targets(self):
        logits = t(np.zeros((3, 4)))
        full = ops.cross_entropy(logits, np.array([0, 1, 2])).item()
        masked = ops.cross_entropy(logits, np.array([0, 1, -1])).item()
        np.testing.assert_allclose(full, masked)

    def test_cross_entropy_grad_sums_to_zero_per_row(self, rng):
        logits = t(rng.standard_normal((4, 5)))
        ops.cross_entropy(logits, np.array([0, 1, 2, 3])).backward()
        np.testing.assert_allclose(logits.grad.sum(axis=1), np.zeros(4), atol=1e-12)

    def test_cross_entropy_perfect_prediction_low_loss(self):
        logits = np.full((1, 3), -100.0)
        logits[0, 1] = 100.0
        loss = ops.cross_entropy(t(logits), np.array([1]))
        assert loss.item() < 1e-6

    def test_dropout_eval_is_identity(self, rng):
        x = t(rng.standard_normal(100))
        assert ops.dropout(x, 0.5, training=False) is x
        assert ops.dropout(x, 0.0, training=True) is x

    def test_dropout_preserves_expectation(self, rng):
        x = Tensor(np.ones(20000))
        y = ops.dropout(x, 0.3, training=True, rng=rng).data
        assert abs(y.mean() - 1.0) < 0.02
        assert (y == 0).mean() == pytest.approx(0.3, abs=0.02)
