"""Cross-module integration: fake-quant layer == packed integer execution.

Ties four subsystems together: the PTQ layer (qlayers), the integer engine
(integer_exec), the bit-packing export (export), and the vector granularity
machinery — asserting the full deployment path reproduces the simulation.
"""

import numpy as np
import pytest

from repro import nn
from repro.quant import (
    Granularity,
    IntFormat,
    LayerQuantSpec,
    QuantSpec,
    ScaleFormat,
    VectorLayout,
)
from repro.quant.export import pack_tensor, unpack_tensor
from repro.quant.integer_exec import integer_linear, quantize_tensor
from repro.quant.plan import get_handler
from repro.tensor import Tensor
from repro.tensor.tensor import no_grad

V = 16
BITS = 4
SBITS = 6


@pytest.fixture
def layer_and_input(rng):
    base = nn.Linear(64, 12, bias=False, rng=rng)
    wq = QuantSpec(
        bits=BITS,
        granularity=Granularity.PER_VECTOR,
        vector_size=V,
        vector_axis=1,
        channel_axes=(0,),
        scale=ScaleFormat.parse(str(SBITS)),
    )
    aq = QuantSpec(
        bits=BITS,
        granularity=Granularity.PER_VECTOR,
        vector_size=V,
        vector_axis=-1,
        channel_axes=(),
        scale=ScaleFormat.parse(str(SBITS)),
    )
    spec = LayerQuantSpec(
        name="", kind="linear", geometry={"in_features": 64, "out_features": 12},
        weight=wq, inputs=aq,
    )
    qlayer = get_handler("linear").build(base, spec)
    x = rng.standard_normal((5, 64))
    return qlayer, base, x


def test_full_deployment_path_matches_simulation(layer_and_input):
    qlayer, base, x = layer_and_input
    fmt = IntFormat(BITS, signed=True)
    sfmt = IntFormat(SBITS, signed=False)

    # Simulation path: fake-quant layer forward.
    with no_grad():
        simulated = qlayer(Tensor(x)).data

    # Deployment path: quantize -> pack -> unpack -> integer GEMM.
    wq = quantize_tensor(
        base.weight.data, VectorLayout(1, V), fmt, sfmt, channel_axes=(0,)
    )
    wq = unpack_tensor(pack_tensor(wq))  # through the byte format
    xq = quantize_tensor(x, VectorLayout(-1, V), fmt, sfmt, channel_axes=())
    deployed = integer_linear(xq, wq)

    # gamma rides through fp32 in the packed format: ~1e-7 relative noise.
    np.testing.assert_allclose(deployed, simulated, rtol=1e-6, atol=1e-6)


def test_deployment_path_diverges_only_via_rounding(layer_and_input):
    qlayer, base, x = layer_and_input
    fmt = IntFormat(BITS, signed=True)
    sfmt = IntFormat(SBITS, signed=False)
    wq = quantize_tensor(base.weight.data, VectorLayout(1, V), fmt, sfmt, channel_axes=(0,))
    xq = quantize_tensor(x, VectorLayout(-1, V), fmt, sfmt)
    exact = integer_linear(xq, wq)
    rounded = integer_linear(xq, wq, scale_product_bits=4)
    assert not np.allclose(exact, rounded)
    # Correlation stays high: rounding is a perturbation, not corruption.
    corr = np.corrcoef(exact.reshape(-1), rounded.reshape(-1))[0, 1]
    assert corr > 0.95
