"""Runtime-compiled kernel backend: quantized layers -> fused C via cc + ctypes.

Linear and conv layers compile, each kind to one kernel; embeddings run
the numpy ``integer`` path they match bitwise. A third kernel
fake-quantizes the attention operands of ``compiled`` engines
(:class:`CompiledQuantizer`), and a fourth runs their float32 GELU on
libmvec's vector erf (:class:`CompiledGELU`). See ``docs/compile.md``
for why, the kernel, the C ABI, cache layout, and the graceful-fallback
contract. Importing this package registers the ``"compiled"`` execution
backend in :mod:`repro.quant.backends` (the registry also imports it, so
either import order works).
"""

from .backend import (
    CompiledBackend,
    CompiledGELU,
    CompiledQuantizer,
    gelu_kernel,
    operand_quantizer,
)
from .renderer import (
    ConvSpec,
    KernelSpec,
    QuantizeSpec,
    render,
    render_conv,
    render_gelu,
    render_quantize,
    source_fingerprint,
)
from .runtime import (
    CompileError,
    KernelCache,
    compiler_available,
    compiler_probe,
    default_cache_dir,
    find_toolchain,
    kernel_cache,
    kernel_cache_stats,
    reset_compiler_probe,
    reset_kernel_cache,
)
