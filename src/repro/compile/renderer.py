"""C renderer: lowers one quantized linear layer to a flat-loop kernel.

Every layer the compiled backend lowers runs the same fixed pipeline::

    quantize -> clamp -> fold -> gemm -> scale [-> bias]

so a :class:`KernelSpec` (dtypes, integer formats, baked geometry, the
per-sample and bias flags) is the whole description of a kernel. The
renderer emits one self-contained C translation unit exporting::

    int repro_kernel(const void *x, const void *wf, const double *gw,
                     const void *bias, void *out,
                     long long B, long long T);

Returns 0 on success, 1 on scratch-allocation failure. ``x`` is the
C-contiguous float input (row-major ``(..., F)``), ``wf`` the pre-folded
integer weight matrix ``(K, C2)``, ``gw`` the per-output-channel coarse
weight scales (float64), ``bias`` the bias vector in the output dtype
(NULL when the layer has none), ``out`` the pre-allocated output array.

Bitwise parity with the numpy ``integer`` backend is the whole game, so
every floating-point rounding site replicates the eager pipeline
exactly (same dtypes, same operation order, same ``rint`` half-to-even
rounding, same epsilon clamps); the integer GEMM itself is exact in any
order while the operand/accumulator bounds hold (checked by the backend
before it selects the integer types in the spec). No ``-ffast-math``.

The prologue (quantize/clamp/fold) is ONE pass over the input after the
absmax reduction, and the epilogue (scale, bias) is emitted inside the
GEMM's output write, so the accumulator is finished while still in a
register.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

_CTYPES = {"float", "double"}
_INT_OPERANDS = {"int16_t", "int32_t", "double"}
_ACCUMULATORS = {"int32_t", "int64_t", "double"}


@dataclass(frozen=True)
class KernelSpec:
    """Everything baked into a rendered linear kernel."""

    xin: str              # input storage C type: float | double
    sdt: str              # scale compute C type (policy-resolved)
    out: str              # output C type
    fused: bool           # fused low-precision epilogue vs f64 reference order
    per_sample: bool
    has_bias: bool
    xt: str               # folded activation operand type
    wt: str               # folded weight operand type
    acct: str             # accumulator type
    F: int                # reduction feature count (in_features)
    K: int                # output features
    V: int                # vector size
    aqmin: int            # activation code clamp bounds
    aqmax: int
    asqmax: int           # activation per-vector scale max (2**bits - 1)

    def __post_init__(self) -> None:
        for name in ("xin", "sdt", "out"):
            if getattr(self, name) not in _CTYPES:
                raise ValueError(f"{name} must be float/double, got "
                                 f"{getattr(self, name)!r}")
        if self.xt not in _INT_OPERANDS or self.wt not in _INT_OPERANDS:
            raise ValueError(f"bad operand types {self.xt}/{self.wt}")
        if self.acct not in _ACCUMULATORS:
            raise ValueError(f"bad accumulator type {self.acct!r}")

    @property
    def cdt(self) -> str:
        """Code compute type: numpy's promote(input dtype, scale dtype)."""
        return "double" if "double" in (self.xin, self.sdt) else "float"

    @property
    def nv(self) -> int:
        return -(-self.F // self.V)

    @property
    def c2(self) -> int:
        return self.nv * self.V


def _rint(ctype: str) -> str:
    return "rint" if ctype == "double" else "rintf"


def _lit(value: str, ctype: str) -> str:
    """A float literal in the right precision (1e-12 vs 1e-12f)."""
    return value if ctype == "double" else value + "f"


def _epilogue(spec: KernelSpec, acc: str, gx: str, dst: str, indent: str,
              suffix: str = "") -> list[str]:
    """Emit the fused GEMM epilogue for one output element.

    ``acc`` holds the exact integer accumulator, ``gx`` a ``double``
    holding the activation coarse scale for this sample, ``dst`` the
    output lvalue. ``suffix`` uniquifies the locals inside the
    row-blocked GEMM body.
    """
    o = spec.out
    sc, ov = f"sc{suffix}", f"ov{suffix}"
    lines: list[str] = []
    if spec.fused:
        # numpy: scale = (gamma_x * gamma_w).astype(out); out = acc * scale
        # (one low-precision multiply; the f64 product rounds to out first).
        lines.append(f"{o} {sc} = ({o})({gx} * gw[k]);")
        lines.append(f"{o} {ov} = ({o}){acc} * {sc};")
    elif spec.per_sample:
        # numpy reference order: (acc_f64 * gamma_w) * gamma_x
        lines.append(f"double {ov} = ((double){acc} * gw[k]) * {gx};")
    else:
        # numpy reference order: (acc_f64 * gamma_x) * gamma_w
        lines.append(f"double {ov} = ((double){acc} * {gx}) * gw[k];")
    if spec.has_bias:
        lines.append(f"{ov} += bias[k];")
    lines.append(f"{dst} = {ov};")
    return [indent + ln for ln in lines]


def render(spec: KernelSpec) -> str:
    """Lower a :class:`KernelSpec` to a C translation unit."""
    x, s, o, c = spec.xin, spec.sdt, spec.out, spec.cdt
    xt, wt, at = spec.xt, spec.wt, spec.acct
    eps12, eps30 = _lit("1e-12", s), _lit("1e-30", s)
    epi_blk = "\n".join(
        line
        for i in range(4)
        for line in _epilogue(spec, f"a{i}", f"g{i}", f"o{i}[k]", " " * 16,
                              suffix=str(i))
    )
    epi_tail = "\n".join(_epilogue(spec, "a", "gr", "or_[k]", " " * 12))

    if spec.per_sample:
        gamma_body = f"""\
    for (long long b = 0; b < NB; b++) {{
        const {s} *sb = sv + b * NT * NV;
        {s} m = 0;
        for (long long i = 0; i < NT * NV; i++)
            if (sb[i] > m) m = sb[i];
        {s} g = m / ({s})ASQMAX;
        gamma[b] = g > {eps30} ? g : {eps30};
    }}"""
        gx_row = "gamma[r / NT]"
        gx_sample = "r / NT"
    else:
        gamma_body = f"""\
    {{
        {s} m = 0;
        for (long long i = 0; i < rows * NV; i++)
            if (sv[i] > m) m = sv[i];
        {s} g = m / ({s})ASQMAX;
        gamma[0] = g > {eps30} ? g : {eps30};
    }}"""
        gx_row = "gamma[0]"
        gx_sample = "0"

    return f"""\
/* generated by repro.compile - do not edit */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define F {spec.F}
#define K {spec.K}
#define V {spec.V}
#define NV {spec.nv}
#define C2 {spec.c2}
#define AQMIN ({spec.aqmin})
#define AQMAX {spec.aqmax}
#define ASQMAX {spec.asqmax}

static void *xmalloc(size_t n) {{ return malloc(n > 0 ? n : 1); }}

int repro_kernel(const void *x_, const void *wf_, const double *gw,
                 const void *bias_, void *out_,
                 long long NB, long long NT)
{{
    const {x} *x = (const {x} *)x_;
    const {wt} *wf = (const {wt} *)wf_;
    const {o} *bias = (const {o} *)bias_;
    {o} *out = ({o} *)out_;
    const long long rows = NB * NT;
    {xt} *xf = ({xt} *)xmalloc((size_t)rows * C2 * sizeof({xt}));
    {s} *sv = ({s} *)xmalloc((size_t)rows * NV * sizeof({s}));
    {s} *gamma = ({s} *)xmalloc((size_t)(NB > 0 ? NB : 1) * sizeof({s}));
    if (!xf || !sv || !gamma) {{ free(xf); free(sv); free(gamma); return 1; }}
    (void)bias;

    /* prologue 1/2: per-vector absmax -> scales (max(max, -min) / qmax) */
    for (long long r = 0; r < rows; r++) {{
        const {x} *xr = x + r * F;
        {s} *svr = sv + r * NV;
        for (long long v = 0; v < NV; v++) {{
            long long base = v * V;
            long long n = base + V <= F ? V : F - base;
            {x} a = 0;
            for (long long j = 0; j < n; j++) {{
                {x} t = xr[base + j];
                if (t > a) a = t;
                if (-t > a) a = -t;
            }}
            {s} sa = ({s})a / ({s})AQMAX;
            svr[v] = sa > {eps12} ? sa : {eps12};
        }}
    }}

    /* coarse scale (gamma = max(smax / sqmax, 1e-30)) */
{gamma_body}

    /* prologue 2/2: fused quantize -> clamp -> scale-fold; the
       zero-padded tail of the last vector is written explicitly */
    for (long long r = 0; r < rows; r++) {{
        const {x} *xr = x + r * F;
        const {s} *svr = sv + r * NV;
        {s} g = {gx_row};
        {xt} *dst = xf + r * C2;
        for (long long v = 0; v < NV; v++) {{
            {s} qs = {_rint(s)}(svr[v] / g);
            if (qs < ({s})0) qs = ({s})0;
            if (qs > ({s})ASQMAX) qs = ({s})ASQMAX;
            long long base = v * V;
            long long n = base + V <= F ? V : F - base;
            {c} sc = ({c})svr[v];
            for (long long j = 0; j < n; j++) {{
                {c} cd = {_rint(c)}(({c})xr[base + j] / sc);
                if (cd < ({c})AQMIN) cd = ({c})AQMIN;
                if (cd > ({c})AQMAX) cd = ({c})AQMAX;
                dst[base + j] = ({xt})(cd * ({c})qs);
            }}
            for (long long j = n; j < V; j++) dst[base + j] = 0;
        }}
    }}

    /* matmul: 4-row-blocked GEMM with fused epilogue */
    long long r0 = 0;
    for (; r0 + 4 <= rows; r0 += 4) {{
        const {xt} *x0 = xf + (r0 + 0) * C2;
        const {xt} *x1 = xf + (r0 + 1) * C2;
        const {xt} *x2 = xf + (r0 + 2) * C2;
        const {xt} *x3 = xf + (r0 + 3) * C2;
        {o} *o0 = out + (r0 + 0) * K;
        {o} *o1 = out + (r0 + 1) * K;
        {o} *o2 = out + (r0 + 2) * K;
        {o} *o3 = out + (r0 + 3) * K;
        const double g0 = (double)gamma[{gx_sample.replace("r /", "(r0 + 0) /")}];
        const double g1 = (double)gamma[{gx_sample.replace("r /", "(r0 + 1) /")}];
        const double g2 = (double)gamma[{gx_sample.replace("r /", "(r0 + 2) /")}];
        const double g3 = (double)gamma[{gx_sample.replace("r /", "(r0 + 3) /")}];
        for (long long k = 0; k < K; k++) {{
            const {wt} *wk = wf + k * C2;
            {at} a0 = 0, a1 = 0, a2 = 0, a3 = 0;
            for (long long f = 0; f < C2; f++) {{
                {at} w = ({at})wk[f];
                a0 += ({at})x0[f] * w;
                a1 += ({at})x1[f] * w;
                a2 += ({at})x2[f] * w;
                a3 += ({at})x3[f] * w;
            }}
            {{
{epi_blk}
            }}
        }}
    }}
    for (; r0 < rows; r0++) {{
        const {xt} *xr = xf + r0 * C2;
        {o} *or_ = out + r0 * K;
        const double gr = (double)gamma[{gx_sample.replace("r /", "r0 /")}];
        for (long long k = 0; k < K; k++) {{
            const {wt} *wk = wf + k * C2;
            {at} a = 0;
            for (long long f = 0; f < C2; f++)
                a += ({at})xr[f] * ({at})wk[f];
{epi_tail}
        }}
    }}
    free(xf); free(sv); free(gamma);
    return 0;
}}
"""


def source_fingerprint(source: str, toolchain: str) -> str:
    """Cache key: hash of the rendered source + the compiler identity."""
    h = hashlib.sha256()
    h.update(source.encode())
    h.update(b"\x00")
    h.update(toolchain.encode())
    return h.hexdigest()[:24]
