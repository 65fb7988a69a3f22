"""Integer execution engine: Eq. 5 equivalence with the fake-quant path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant import IntFormat, VectorLayout
from repro.quant.integer_exec import (
    QuantizedTensor,
    integer_linear,
    quantize_tensor,
    round_scale_product,
)
from repro.quant.two_level import fake_quant_two_level

S4 = IntFormat(4, signed=True)
S8 = IntFormat(8, signed=True)
U4 = IntFormat(4, signed=False)
U6 = IntFormat(6, signed=False)


def fake_quant_linear_reference(x_real, w_real, vector_size, fmt, scale_fmt):
    """Float-side reference: fake-quantize operands, then a real matmul.

    ``integer_linear`` must match this bit-exactly when no scale-product
    rounding is applied — the equivalence test of Eq. 5 vs Eq. 7j.
    """
    xl = VectorLayout(axis=-1, vector_size=vector_size)
    wl = VectorLayout(axis=1, vector_size=vector_size)
    xq = fake_quant_two_level(x_real, xl, fmt, scale_fmt, channel_axes=())
    wq = fake_quant_two_level(w_real, wl, fmt, scale_fmt, channel_axes=(0,))
    return xq @ wq.T


class TestQuantizedTensor:
    def test_codes_are_integers_in_range(self, rng):
        x = rng.standard_normal((3, 32))
        qt = quantize_tensor(x, VectorLayout(-1, 8), S4, U4)
        np.testing.assert_array_equal(qt.codes, np.rint(qt.codes))
        assert qt.codes.min() >= S4.qmin and qt.codes.max() <= S4.qmax
        assert qt.sq.min() >= 0 and qt.sq.max() <= 15

    def test_dequantize_matches_fake_quant(self, rng):
        from repro.quant.two_level import fake_quant_two_level

        x = rng.standard_normal((4, 24))
        layout = VectorLayout(-1, 8)
        qt = quantize_tensor(x, layout, S4, U6, channel_axes=(0,))
        ref = fake_quant_two_level(x, layout, S4, U6, channel_axes=(0,))
        np.testing.assert_allclose(qt.dequantize(), ref, atol=1e-12)

    def test_vector_padding_handled(self, rng):
        x = rng.standard_normal((2, 13))  # 13 is not a multiple of 8
        qt = quantize_tensor(x, VectorLayout(-1, 8), S4, U4)
        assert qt.codes.shape == (2, 2, 8)
        assert qt.dequantize().shape == (2, 13)


class TestRoundScaleProduct:
    def test_identity_when_none_or_wide(self):
        p = np.array([3.0, 100.0])
        np.testing.assert_array_equal(round_scale_product(p, 8, None), p)
        np.testing.assert_array_equal(round_scale_product(p, 8, 8), p)
        np.testing.assert_array_equal(round_scale_product(p, 8, 12), p)

    def test_drops_lsbs(self):
        # full 8 bits -> 4 bits: quantum is 16, round-half-to-even.
        p = np.array([7.0, 8.0, 24.0, 100.0])
        out = round_scale_product(p, 8, 4)
        np.testing.assert_array_equal(out, [0.0, 0.0, 32.0, 96.0])

    def test_small_products_gate_to_zero(self):
        p = np.array([1.0, 2.0, 3.0])
        out = round_scale_product(p, 8, 2)  # quantum 64
        np.testing.assert_array_equal(out, np.zeros(3))


class TestIntegerLinearEquivalence:
    @given(st.integers(0, 2**16), st.sampled_from([4, 8, 16]), st.sampled_from([3, 4, 6, 8]))
    @settings(max_examples=30, deadline=None)
    def test_matches_fake_quant_reference_bit_exactly(self, seed, V, bits):
        """Eq. 5 (integer path) == Eq. 7j fake-quant + fp matmul."""
        rng = np.random.default_rng(seed)
        fmt = IntFormat(bits, signed=True)
        x = rng.standard_normal((5, 32))
        w = rng.standard_normal((7, 32))
        xq = quantize_tensor(x, VectorLayout(-1, V), fmt, U6, channel_axes=())
        wq = quantize_tensor(w, VectorLayout(1, V), fmt, U6, channel_axes=(0,))
        got = integer_linear(xq, wq)
        ref = fake_quant_linear_reference(x, w, V, fmt, U6)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)

    def test_batched_inputs(self, rng):
        x = rng.standard_normal((2, 3, 16))
        w = rng.standard_normal((5, 16))
        xq = quantize_tensor(x, VectorLayout(-1, 8), S8, U6)
        wq = quantize_tensor(w, VectorLayout(1, 8), S8, U6, channel_axes=(0,))
        out = integer_linear(xq, wq)
        assert out.shape == (2, 3, 5)
        ref = fake_quant_linear_reference(x, w, 8, S8, U6)
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_geometry_mismatch_rejected(self, rng):
        x = rng.standard_normal((2, 16))
        w = rng.standard_normal((3, 32))
        xq = quantize_tensor(x, VectorLayout(-1, 8), S4, U4)
        wq = quantize_tensor(w, VectorLayout(1, 8), S4, U4, channel_axes=(0,))
        with pytest.raises(ValueError):
            integer_linear(xq, wq)


class TestScaleProductRoundingAccuracy:
    def test_rounding_adds_bounded_error(self, rng):
        """Rounding sw*sa perturbs outputs but does not destroy them."""
        x = rng.standard_normal((8, 64))
        w = rng.standard_normal((16, 64))
        xq = quantize_tensor(x, VectorLayout(-1, 16), S8, U6)
        wq = quantize_tensor(w, VectorLayout(1, 16), S8, U6, channel_axes=(0,))
        exact = integer_linear(xq, wq)
        rounded6 = integer_linear(xq, wq, scale_product_bits=6)
        rounded4 = integer_linear(xq, wq, scale_product_bits=4)
        err6 = np.abs(rounded6 - exact).mean()
        err4 = np.abs(rounded4 - exact).mean()
        assert err4 >= err6  # coarser rounding, larger error
        assert err4 < np.abs(exact).mean()  # but outputs remain correlated

    def test_full_width_is_exact(self, rng):
        x = rng.standard_normal((4, 32))
        w = rng.standard_normal((6, 32))
        xq = quantize_tensor(x, VectorLayout(-1, 16), S4, U4)
        wq = quantize_tensor(w, VectorLayout(1, 16), S4, U4, channel_axes=(0,))
        np.testing.assert_array_equal(
            integer_linear(xq, wq), integer_linear(xq, wq, scale_product_bits=8)
        )
