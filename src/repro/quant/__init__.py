"""VS-Quant: per-vector scaled quantization (the paper's contribution).

Layout:

- :mod:`repro.quant.formats` — integer formats, Eq. 1–3 primitives
- :mod:`repro.quant.granularity` — per-tensor / per-channel / per-vector
  grouping machinery (vector views along the dot-product reduction axis)
- :mod:`repro.quant.calibration` — max / percentile / entropy / MSE
  calibrators (Table 2's methods)
- :mod:`repro.quant.vsquant` — single-level per-vector quantization (Table 3)
- :mod:`repro.quant.two_level` — the two-level scheme, Eq. 7a–7j (Tables 5–7)
- :mod:`repro.quant.quantizer` — stateful quantizer objects with STE
- :mod:`repro.quant.plan` — QuantPlan: declarative per-model quantization
  plans from a layer-handler registry (the stack's shared contract)
- :mod:`repro.quant.backends` — pluggable execution backends
  (fakequant / integer / compiled)
- :mod:`repro.quant.qlayers` — the unified QuantizedLayer (+ quantized
  attention)
- :mod:`repro.quant.ptq` — post-training quantization pipeline
- :mod:`repro.quant.qat` — quantization-aware finetuning (Table 9)
- :mod:`repro.quant.integer_exec` — true integer execution (Eq. 5) with
  scale-product rounding, bit-exact vs the fake-quant path
- :mod:`repro.quant.export` — exact-bit-width packing for deployment
- :mod:`repro.quant.analysis` — error/sensitivity diagnostics
- :mod:`repro.quant.learned` — LSQ learned per-vector scales (§8 future work)
"""

from repro.quant.formats import IntFormat, int_range, quantize, dequantize, fake_quantize
from repro.quant.granularity import Granularity, VectorLayout, group_reduce_absmax
from repro.quant.calibration import (
    Calibrator,
    MaxCalibrator,
    PercentileCalibrator,
    EntropyCalibrator,
    MSECalibrator,
    make_calibrator,
    CALIBRATION_METHODS,
)
from repro.quant.vsquant import per_vector_scales, fake_quant_per_vector
from repro.quant.two_level import (
    TwoLevelScales,
    decompose_scales,
    fake_quant_two_level,
    scale_memory_overhead_bits,
)
from repro.quant.quantizer import (
    QuantSpec,
    Quantizer,
    ScaleFormat,
    set_weight_cache_enabled,
    weight_cache_enabled,
)
from repro.quant.plan import (
    LayerHandler,
    LayerQuantSpec,
    QuantPlan,
    apply_plan,
    build_plan,
    get_handler,
    plan_from_model,
    register_handler,
)
from repro.quant.backends import (
    ExecutionBackend,
    QuantBackendError,
    backend_names,
    get_backend,
    register_backend,
)
from repro.quant.qlayers import (
    QuantizedLayer,
    QuantMultiHeadAttention,
    attention_layers,
    quant_layers,
    weight_cache_stats,
)
from repro.quant.ptq import quantize_model, PTQConfig
from repro.quant.qat import qat_finetune_image, qat_finetune_qa
from repro.quant.integer_exec import (
    QuantizedTensor,
    quantize_tensor,
    integer_linear,
    integer_conv2d,
    round_scale_product,
)
from repro.quant.export import PackedTensor, pack_tensor, unpack_tensor
from repro.quant.analysis import (
    ErrorStats,
    quant_error_stats,
    weight_error_table,
    layer_sensitivity,
    activation_range_profile,
    vector_range_spread,
)

__all__ = [
    "IntFormat",
    "int_range",
    "quantize",
    "dequantize",
    "fake_quantize",
    "Granularity",
    "VectorLayout",
    "group_reduce_absmax",
    "Calibrator",
    "MaxCalibrator",
    "PercentileCalibrator",
    "EntropyCalibrator",
    "MSECalibrator",
    "make_calibrator",
    "CALIBRATION_METHODS",
    "per_vector_scales",
    "fake_quant_per_vector",
    "TwoLevelScales",
    "decompose_scales",
    "fake_quant_two_level",
    "scale_memory_overhead_bits",
    "QuantSpec",
    "Quantizer",
    "ScaleFormat",
    "set_weight_cache_enabled",
    "weight_cache_enabled",
    "LayerHandler",
    "LayerQuantSpec",
    "QuantPlan",
    "apply_plan",
    "build_plan",
    "get_handler",
    "plan_from_model",
    "register_handler",
    "ExecutionBackend",
    "QuantBackendError",
    "backend_names",
    "get_backend",
    "register_backend",
    "QuantizedLayer",
    "QuantMultiHeadAttention",
    "attention_layers",
    "quant_layers",
    "weight_cache_stats",
    "quantize_model",
    "PTQConfig",
    "qat_finetune_image",
    "qat_finetune_qa",
    "QuantizedTensor",
    "quantize_tensor",
    "integer_linear",
    "integer_conv2d",
    "round_scale_product",
    "PackedTensor",
    "pack_tensor",
    "unpack_tensor",
    "ErrorStats",
    "quant_error_stats",
    "weight_error_table",
    "layer_sensitivity",
    "activation_range_profile",
    "vector_range_spread",
]
