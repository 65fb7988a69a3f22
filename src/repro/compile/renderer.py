"""C renderer: flat-loop kernels for quantized layers and operands.

Three kernels share one per-vector quantize prologue (:class:`Prologue`,
the dynamic half of Eq. 7): :func:`render` lowers a linear layer,
:func:`render_conv` a conv layer, and :func:`render_quantize` a
standalone fake-quantizer for any activation (the attention operands).
:func:`render_gelu` is the float32 GELU on libmvec's vector erf.

Every layer the compiled backend lowers runs the same fixed pipeline::

    quantize -> clamp -> fold -> gemm -> scale [-> bias]

so a :class:`KernelSpec` (dtypes, integer formats, baked geometry, the
per-sample and bias flags) is the whole description of a linear kernel,
and a :class:`ConvSpec` (dtypes and flags only; geometry and formats are
runtime arguments) of a conv kernel. A conv call may add an output
pass, also passed at run time::

    [-> * bn_scale] [-> + bn_shift] [-> + residual] [-> relu]

The linear renderer emits one
self-contained C translation unit exporting::

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
before it selects the operand types in the spec). No ``-ffast-math``.

The prologue (quantize/clamp/fold) is ONE pass over the input after the
absmax reduction, and the coarse scales are applied inside the GEMM's
output write, so the accumulator is finished while still in a register.
The bias is added in a pass of its own (:func:`_bias_pass`), and the conv
output pass (:func:`_output_pass`) multiplies in a pass of its own too.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

_CTYPES = {"float", "double"}
#: Unsigned type of a float type's bit pattern, and the mask that clears its sign.
_BITS = {"float": ("uint32_t", "0x7fffffffu"), "double": ("uint64_t", "0x7fffffffffffffffull")}
_INT_OPERANDS = {"int16_t", "int32_t", "double"}
_ACCUMULATORS = {"int32_t", "int64_t", "double"}


@dataclass(frozen=True)
class _GemmSpec:
    """What every GEMM kernel bakes in: the prologue's input and scale
    types, and the epilogue's output type, order and bias flag."""

    xin: str              # input storage C type: float | double
    sdt: str              # scale compute C type (policy-resolved)
    out: str              # output C type
    fused: bool           # fused low-precision epilogue vs f64 reference order
    per_sample: bool
    has_bias: bool

    def __post_init__(self) -> None:
        for name in ("xin", "sdt", "out"):
            if getattr(self, name) not in _CTYPES:
                raise ValueError(f"{name} must be float/double, got "
                                 f"{getattr(self, name)!r}")

    @property
    def cdt(self) -> str:
        """Code compute type: numpy's promote(input dtype, scale dtype)."""
        return "double" if "double" in (self.xin, self.sdt) else "float"

    def prologue(self, L: str, M: str, N: str = "1") -> "Prologue":
        return Prologue(x=self.xin, s=self.sdt, c=self.cdt,
                        per_sample=self.per_sample, L=L, M=M, N=N)


@dataclass(frozen=True)
class KernelSpec(_GemmSpec):
    """Everything baked into a rendered linear kernel."""

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
        super().__post_init__()
        if self.xt not in _INT_OPERANDS or self.wt not in _INT_OPERANDS:
            raise ValueError(f"bad operand types {self.xt}/{self.wt}")
        if self.acct not in _ACCUMULATORS:
            raise ValueError(f"bad accumulator type {self.acct!r}")

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


def _epilogue(spec: _GemmSpec, acc: str, gx: str, dst: str, indent: str,
              suffix: str = "") -> list[str]:
    """Emit the fused GEMM epilogue (the coarse scales) for one output.

    ``acc`` holds the exact integer accumulator, ``gx`` a ``double``
    holding the activation coarse scale for this sample, ``dst`` the
    output lvalue and ``gw[k]`` the weight coarse scale. ``suffix``
    uniquifies the locals inside a register-blocked GEMM body. The bias
    is not added here: see :func:`_bias_pass`.
    """
    o, sc = spec.out, f"sc{suffix}"
    if spec.fused:
        # numpy: scale = (gamma_x * gamma_w).astype(out); out = acc * scale
        # (one low-precision multiply; the f64 product rounds to out first).
        lines = [f"{o} {sc} = ({o})({gx} * gw[k]);",
                 f"{dst} = ({o}){acc} * {sc};"]
    elif spec.per_sample:
        # numpy reference order: (acc_f64 * gamma_w) * gamma_x
        lines = [f"{dst} = ((double){acc} * gw[k]) * {gx};"]
    else:
        # numpy reference order: (acc_f64 * gamma_x) * gamma_w
        lines = [f"{dst} = ((double){acc} * {gx}) * gw[k];"]
    return [indent + ln for ln in lines]


def _bias_pass(spec: _GemmSpec, loops: tuple[tuple[str, str], ...], index: str,
               indent: str) -> str:
    """Add ``bias[k]`` to ``out[index]`` over the ``(variable, bound)``
    ``loops`` (outermost first; one of them is ``k``).

    numpy adds the bias to the already-rounded scaled output. Inside the
    epilogue, ``ov = acc * sc; ov += b`` is contracted by ``-O3
    -march=native`` into one fused multiply-add that rounds once, so the
    add gets its own pass over the stored outputs (emitted right after a
    block of them, while they are still in cache), which no compiler
    contracts. The GEMM itself keeps its FMAs: its partial sums are
    exact integers.
    """
    if not spec.has_bias:
        return ""
    lines = [f"{indent}{'    ' * d}for (long long {v} = 0; {v} < {n}; {v}++)"
             for d, (v, n) in enumerate(loops)]
    lines.append(f"{indent}{'    ' * len(loops)}out[{index}] += bias[k];")
    return "\n".join(lines)


def _output_pass(o: str) -> str:
    """Finish one sample's ``(K, PQ)`` conv outputs (``out``) with the
    runtime post-ops :func:`repro.nn.conv_bn` hands the kernel:
    ``* scale[k]``, ``+ shift[k]``, ``+ res[...]``, then ReLU, each
    skipped when its pointer (or the ``RELU`` flag) is zero.

    Every op rounds on its own, in numpy's order, over a row still in
    L1. The multiply gets a loop of its own, so ``-O3`` cannot contract
    it with the adds into one FMA (the hazard :func:`_bias_pass`
    documents); the adds and the ReLU share the second loop, whose
    invariant branches the compiler unswitches. The ReLU is
    ``np.maximum(v, 0.0)`` bit for bit: a NaN passes through and
    ``-0.0`` becomes ``+0.0``.
    """
    return f"""\
        for (long long k = 0; k < K; k++) {{
            {o} *ok = out + k * PQ;
            if (scale) {{
                const {o} sk = scale[k];
                for (long long i = 0; i < PQ; i++) ok[i] *= sk;
            }}
            if (!shift && !res && !RELU) continue;
            const {o} hk = shift ? shift[k] : 0;
            const {o} *rk = res ? res + (b * K + k) * PQ : ok;
            for (long long i = 0; i < PQ; i++) {{
                {o} v = ok[i];
                if (shift) v += hk;
                if (res) v += rk[i];
                if (RELU) v = v <= 0 ? 0 : v;
                ok[i] = v;
            }}
        }}"""


@dataclass(frozen=True)
class Prologue:
    """The per-vector quantize prologue every rendered kernel shares.

    It views the input as C-contiguous ``(B, M, L, N)`` with vectors of
    ``V`` elements along ``L``, and emits the dynamic half of Eq. 7 in
    three C fragments over ``rows = B * M``:

    1. :meth:`scales` — per-vector absmax, ``s = max(a / qmax, 1e-12)``;
    2. :meth:`gamma` — ``gamma = max(smax / sqmax, 1e-30)`` per sample
       (``B`` index) or per tensor;
    3. :meth:`codes` — ``sq = clamp(rint(s / gamma), 0, sqmax)`` per
       vector and ``code = clamp(rint(x / s), qmin, qmax)`` per element,
       handed to a caller-supplied store.

    ``L``/``M``/``N`` are C expressions (macros or runtime arguments);
    ``N == "1"`` emits contiguous-vector loops. The fragments read
    ``x``, ``rows``, ``NV`` and the formats ``V``, ``QMIN``, ``QMAX``
    and ``SQMAX`` (macros or runtime values, like the shapes) and
    write the scratch arrays ``sv``
    (``rows * NV * N`` scales), ``gamma`` (``B`` or 1) and, for strided
    vectors, ``qv`` (``N`` integer scales).
    """

    x: str            # input C type
    s: str            # scale compute C type
    c: str            # code compute C type
    per_sample: bool
    L: str
    M: str
    N: str = "1"

    @property
    def contiguous(self) -> bool:
        return self.N == "1"

    def _row_scales(self) -> str:
        return "NV" if self.contiguous else "NV * N"

    def _row_elems(self) -> str:
        return self.L if self.contiguous else f"{self.L} * N"

    def _vector_bounds(self, indent: str) -> str:
        return (f"{indent}long long base = v * V;\n"
                f"{indent}long long n = base + V <= {self.L} ? V : {self.L} - base;")

    def scales(self) -> str:
        # Both absmax loops run on bit patterns with the sign cleared:
        # non-negative floats order like their bits and a NaN sorts above
        # +inf, so an integer max (which vectorizes) gives numpy's absmax,
        # NaN included.
        x, s = self.x, self.s
        eps12 = _lit("1e-12", s)
        head = f"""\
    /* per-vector absmax -> scales (max(max, -min) / qmax) */
    for (long long r = 0; r < rows; r++) {{
        const {x} *xr = x + r * {self._row_elems()};
        {s} *svr = sv + r * {self._row_scales()};
        for (long long v = 0; v < NV; v++) {{
{self._vector_bounds(" " * 12)}
"""
        if self.contiguous:
            u, mask = _BITS[x]
            body = f"""\
            {u} a = 0;
            for (long long j = 0; j < n; j++) {{
                {u} t;
                memcpy(&t, xr + base + j, sizeof t);
                t &= {mask};
                a = t > a ? t : a;
            }}
            {x} af;
            memcpy(&af, &a, sizeof af);
            {s} sa = ({s})af / ({s})QMAX;
            svr[v] = sa < {eps12} ? {eps12} : sa;
"""
        else:
            # Rounding is monotone, so the absmax of the values cast to
            # the scale type is the cast of the absmax.
            us, smask = _BITS[s]
            body = f"""\
            {s} *sr = svr + v * N;
            for (long long i = 0; i < N; i++) sr[i] = 0;
            for (long long j = 0; j < n; j++) {{
                const {x} *xj = xr + (base + j) * N;
                for (long long i = 0; i < N; i++) {{
                    {s} t = ({s})xj[i];
                    {us} a, b;
                    memcpy(&a, sr + i, sizeof a);
                    memcpy(&b, &t, sizeof b);
                    b &= {smask};
                    a = b > a ? b : a;
                    memcpy(sr + i, &a, sizeof a);
                }}
            }}
            for (long long i = 0; i < N; i++) {{
                {s} sa = sr[i] / ({s})QMAX;
                sr[i] = sa < {eps12} ? {eps12} : sa;
            }}
"""
        return head + body + "        }\n    }"

    def gamma(self) -> str:
        # The scales are positive or NaN, so their bit patterns order
        # like their values with a NaN on top (see :meth:`scales`).
        s = self.s
        u = _BITS[s][0]
        eps30 = _lit("1e-30", s)
        if self.per_sample:
            count = f"{self.M} * {self._row_scales()}"
            label, loop, dst = "one per sample", "for (long long b = 0; b < NB; b++) ", "gamma[b]"
            base = f"sv + b * {count}"
        else:
            count = f"rows * {self._row_scales()}"
            label, loop, dst, base = "one per tensor", "", "gamma[0]", "sv"
        return f"""\
    /* coarse scale (gamma = max(smax / sqmax, 1e-30)), {label} */
    {loop}{{
        const {s} *sb = {base};
        {u} m = 0;
        for (long long i = 0; i < {count}; i++) {{
            {u} t;
            memcpy(&t, sb + i, sizeof t);
            m = t > m ? t : m;
        }}
        {s} mf;
        memcpy(&mf, &m, sizeof mf);
        {s} g = mf / ({s})SQMAX;
        {dst} = g < {eps30} ? {eps30} : g;
    }}"""

    def gamma_index(self, row: str) -> str:
        """The ``gamma`` index of row ``row``."""
        return f"{row} / {self.M}" if self.per_sample else "0"

    # The lower clamps of ``_sq`` and ``_code`` send a NaN to the bound:
    # an integer fold must never cast one (undefined in C), and a NaN
    # input still reaches every output of its sample through gamma.
    def _sq(self, dst: str, scale: str, indent: str) -> str:
        s = self.s
        return (f"{indent}{s} {dst} = {_rint(s)}({scale} / g);\n"
                f"{indent}if (!({dst} >= ({s})0)) {dst} = ({s})0;\n"
                f"{indent}if ({dst} > ({s})SQMAX) {dst} = ({s})SQMAX;")

    def _code(self, value: str, scale: str, indent: str) -> str:
        c = self.c
        return (f"{indent}{c} cd = {_rint(c)}(({c}){value} / {scale});\n"
                f"{indent}if (!(cd >= ({c})QMIN)) cd = ({c})QMIN;\n"
                f"{indent}if (cd > ({c})QMAX) cd = ({c})QMAX;")

    def codes(self, dst_row: str, store, pad: bool = False, index=None,
              row: str | None = None) -> str:
        """Quantize every element; ``store(code, sq)`` is the C
        expression written to ``dst[...]``, where ``dst`` is the
        ``dst_row`` declaration's pointer (a row of ``rows``).
        ``pad`` zero-fills each vector's tail past ``L`` (honoured by
        the contiguous loops, the only ones that need it). ``index(l,
        i)`` is the strided loops' ``dst`` index of element ``l`` along
        ``L`` at position ``i`` along ``N`` (default: the input's own
        layout). ``row`` quantizes that one row instead of all ``rows``.
        """
        x, s, c = self.x, self.s, self.c
        at = index or (lambda l, i: f"({l}) * N + {i}")
        loop = ("for (long long r = 0; r < rows; r++) {" if row is None
                else f"{{ const long long r = {row};")
        head = f"""\
    {loop}
        const {x} *xr = x + r * {self._row_elems()};
        const {s} *svr = sv + r * {self._row_scales()};
        {s} g = gamma[{self.gamma_index("r")}];
        {dst_row}
        for (long long v = 0; v < NV; v++) {{
"""
        if self.contiguous:
            tail = ("\n            for (long long j = n; j < V; j++) dst[base + j] = 0;"
                    if pad else "")
            body = f"""\
{self._sq("qs", "svr[v]", " " * 12)}
{self._vector_bounds(" " * 12)}
            {c} sc = ({c})svr[v];
            for (long long j = 0; j < n; j++) {{
{self._code("xr[base + j]", "sc", " " * 16)}
                dst[base + j] = {store("cd", "qs")};
            }}{tail}
"""
        else:
            body = f"""\
            const {s} *sr = svr + v * N;
            for (long long i = 0; i < N; i++) {{
{self._sq("q", "sr[i]", " " * 16)}
                qv[i] = q;
            }}
{self._vector_bounds(" " * 12)}
            for (long long j = 0; j < n; j++) {{
                const {x} *xj = xr + (base + j) * N;
                for (long long i = 0; i < N; i++) {{
{self._code("xj[i]", f"({c})sr[i]", " " * 20)}
                    dst[{at("base + j", "i")}] = {store("cd", "qv[i]")};
                }}
            }}
"""
        return head + body + "        }\n    }"


def _defines(**values) -> str:
    return "\n".join(f"#define {k} {v}" for k, v in values.items())


_HEADER = """\
/* generated by repro.compile - do not edit */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
"""

_XMALLOC = "static void *xmalloc(size_t n) { return malloc(n > 0 ? n : 1); }"


def render(spec: KernelSpec) -> str:
    """Lower a :class:`KernelSpec` to a C translation unit."""
    x, s, o, c = spec.xin, spec.sdt, spec.out, spec.cdt
    xt, wt, at = spec.xt, spec.wt, spec.acct
    pro = spec.prologue(L="F", M="NT")
    epi_blk = "\n".join(
        line
        for i in range(4)
        for line in _epilogue(spec, f"a{i}", f"g{i}", f"o{i}[k]", " " * 16,
                              suffix=str(i))
    )
    epi_tail = "\n".join(_epilogue(spec, "a", "gr", "or_[k]", " " * 12))
    gxb = [pro.gamma_index(f"(r0 + {i})") for i in range(4)]
    # The fold: codes * sq are exact small integers in the operand type.
    fold = pro.codes(f"{xt} *dst = xf + r * C2;",
                     lambda cd, qs: f"({xt})({cd} * ({c}){qs})", pad=True)

    return f"""\
{_HEADER}
{_defines(F=spec.F, K=spec.K, V=spec.V, NV=spec.nv, C2=spec.c2,
          QMIN=f"({spec.aqmin})", QMAX=spec.aqmax, SQMAX=spec.asqmax)}

{_XMALLOC}

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

{pro.scales()}

{pro.gamma()}

    /* prologue 2/2: fused quantize -> clamp -> scale-fold; the
       zero-padded tail of the last vector is written explicitly */
{fold}

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
        const double g0 = (double)gamma[{gxb[0]}];
        const double g1 = (double)gamma[{gxb[1]}];
        const double g2 = (double)gamma[{gxb[2]}];
        const double g3 = (double)gamma[{gxb[3]}];
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
{_bias_pass(spec, (("i", "4"), ("k", "K")), "(r0 + i) * K + k", "        ")}
    }}
    for (; r0 < rows; r0++) {{
        const {xt} *xr = xf + r0 * C2;
        {o} *or_ = out + r0 * K;
        const double gr = (double)gamma[{pro.gamma_index("r0")}];
        for (long long k = 0; k < K; k++) {{
            const {wt} *wk = wf + k * C2;
            {at} a = 0;
            for (long long f = 0; f < C2; f++)
                a += ({at})xr[f] * ({at})wk[f];
{epi_tail}
        }}
{_bias_pass(spec, (("k", "K"),), "r0 * K + k", "        ")}
    }}
    free(xf); free(sv); free(gamma);
    return 0;
}}
"""


#: Output channels per register block of the conv GEMM; the conv weight
#: matrix is zero-padded to a multiple of it.
CONV_KB = 16


@dataclass(frozen=True)
class ConvSpec(_GemmSpec):
    """Everything baked into a rendered conv kernel. The geometry and the
    activation formats are runtime arguments, so the conv layers of a
    model that share dtypes and flags share one compiled kernel."""

    ct: str               # folded operand and accumulator type: float | double

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.ct not in _CTYPES:
            raise ValueError(f"ct must be float/double, got {self.ct!r}")


def _conv_block(t: str, nw: int, epi: str) -> str:
    """The conv GEMM over output channels ``k0..`` in blocks of ``nw *
    KB``: each pass over the weights accumulates ``PB`` output pixels x
    ``NA`` vectors of ``VL`` channels in registers."""
    return f"""\
        for (; k0 + {nw} * KB <= KP; k0 += {nw} * KB) {{
            enum {{ NA = {nw} * KB / VL, PB = ACC_VECS / NA < 8 ? ACC_VECS / NA : 8 }};
            const long long kn = K - k0 < {nw} * KB ? K - k0 : {nw} * KB;
            for (long long p0 = 0; p0 < PQ; p0 += PB) {{
                const long long pn = PQ - p0 < PB ? PQ - p0 : PB;
                const {t} *xp[PB];
                for (int j = 0; j < PB; j++)
                    xp[j] = tile + win[p0 + (j < pn ? j : pn - 1)];
                vec acc[PB][NA];
                for (int j = 0; j < PB; j++)
                    for (int i = 0; i < NA; i++) acc[j][i] = (vec){{0}};
                for (long long r = 0; r < R; r++) {{
                    const {t} *wr = wk + r * SC * KP + k0;
                    const long long xo = r * Wp * C;
                    for (long long e = 0; e < SC; e++) {{
                        vec w[NA];
                        for (int i = 0; i < NA; i++)
                            w[i] = *(const uvec *)(wr + e * KP + i * VL);
                        for (int j = 0; j < PB; j++) {{
                            const {t} a = xp[j][xo + e];
                            for (int i = 0; i < NA; i++) acc[j][i] += a * w[i];
                        }}
                    }}
                }}
                for (int kk = 0; kk < kn; kk++) {{
                    const long long k = k0 + kk;
                    for (int j = 0; j < pn; j++) {{
{epi}
                    }}
                }}
            }}
        }}"""


def render_conv(spec: ConvSpec) -> str:
    """Lower a :class:`ConvSpec` to a C translation unit exporting::

        int repro_conv(const void *x, const void *wk, const double *gw,
                       const void *bias, const void *scale,
                       const void *shift, const void *res, void *out,
                       long long B, long long C, long long H, long long W,
                       long long K, long long R, long long S,
                       long long stride, long long pad, long long V,
                       long long qmin, long long qmax, long long sqmax,
                       long long relu);

    ``x`` is the C-contiguous NCHW input, ``wk`` the folded weights
    laid out ``(R, S, C, KP)`` with ``KP`` the output channels rounded
    up to :data:`CONV_KB` (zero columns), ``gw``/``bias`` as in
    :func:`render`, and ``out`` the C-contiguous ``(B, K, P, Q)`` output.
    ``V``/``qmin``/``qmax``/``sqmax`` are the activation vector size,
    code bounds and per-vector scale max. ``scale``/``shift`` (``K``
    values each), ``res`` (shaped like ``out``) and ``relu`` are the
    optional output pass (:func:`_output_pass`); NULL or 0 skips a
    step. Returns 0, or 1 on scratch-allocation failure.

    Per sample, the prologue writes the folded codes ``codes * sq`` into
    a zero-padded NHWC tile, so the GEMM reads each window row's
    ``S * C`` inputs contiguously (an implicit im2col: the patch matrix
    is never built) and accumulates a register block of ``PB`` output
    pixels x ``KB`` or ``2 * KB`` output channels per pass over the
    weights (:func:`_conv_block`).
    """
    o, c, t = spec.out, spec.cdt, spec.ct
    pro = spec.prologue(L="C", M="1", N="N")
    fold = pro.codes(
        f"{t} *dst = tile;",
        lambda cd, qs: f"({t})({cd} * ({c}){qs})",
        index=lambda l, i: f"pix[{i}] + {l}",
        row="b",
    )
    epi = "\n".join(_epilogue(spec, "acc[j][kk / VL][kk % VL]", "gx",
                              "out[k * PQ + p0 + j]", " " * 24))
    return f"""\
{_HEADER}
{_defines(KB=CONV_KB)}
/* 64-byte vectors of VL lanes; the accumulators may take half the
   vector register file (ACC_VECS of them) */
#define VL (64 / (int)sizeof({t}))
#if defined(__AVX512F__)
#define ACC_VECS 16
#else
#define ACC_VECS 4
#endif
typedef {t} vec __attribute__((vector_size(64)));
typedef {t} uvec __attribute__((vector_size(64), aligned(sizeof({t}))));

int repro_conv(const void *x_, const void *wk_, const double *gw,
               const void *bias_, const void *scale_, const void *shift_,
               const void *res_, void *out_,
               long long NB, long long C, long long H, long long W,
               long long K, long long R, long long S,
               long long stride, long long pad,
               long long V, long long QMIN, long long QMAX, long long SQMAX,
               long long RELU)
{{
    const {spec.xin} *x = (const {spec.xin} *)x_;
    const {t} *wk = (const {t} *)wk_;
    const {o} *bias = (const {o} *)bias_;
    const {o} *scale = (const {o} *)scale_, *shift = (const {o} *)shift_;
    const {o} *res = (const {o} *)res_;
    {o} *out_all = ({o} *)out_;
    const long long N = H * W, rows = NB, NV = (C + V - 1) / V;
    const long long Hp = H + 2 * pad, Wp = W + 2 * pad;
    const long long P = (Hp - R) / stride + 1, Q = (Wp - S) / stride + 1;
    const long long PQ = P * Q, KP = (K + KB - 1) / KB * KB, SC = S * C;
    {spec.sdt} *sv = malloc((size_t)(rows * NV * N + 1) * sizeof({spec.sdt}));
    {spec.sdt} *gamma = malloc((size_t)(NB + 1) * sizeof({spec.sdt}));
    {spec.sdt} *qv = malloc((size_t)(N + 1) * sizeof({spec.sdt}));
    {t} *tile = calloc((size_t)(Hp * Wp * C + 1), sizeof({t}));
    long long *pix = malloc((size_t)(N + 1) * sizeof(long long));
    long long *win = malloc((size_t)(PQ + 1) * sizeof(long long));
    if (!sv || !gamma || !qv || !tile || !pix || !win) {{
        free(sv); free(gamma); free(qv); free(tile); free(pix); free(win);
        return 1;
    }}
    (void)bias;
    /* tile offsets: input pixel i, and the window origin of output pixel i */
    for (long long h = 0; h < H; h++)
        for (long long w = 0; w < W; w++)
            pix[h * W + w] = ((h + pad) * Wp + w + pad) * C;
    for (long long p = 0; p < P; p++)
        for (long long q = 0; q < Q; q++)
            win[p * Q + q] = (p * stride * Wp + q * stride) * C;

    /* the whole batch's scales and gammas first (per-tensor gamma needs
       every sample), then one sample at a time through the tile */
{pro.scales()}

{pro.gamma()}

    for (long long b = 0; b < NB; b++) {{
        /* folded codes into the tile interior; its border stays zero */
{_indent(fold)}
        const double gx = (double)gamma[{pro.gamma_index("b")}];
        {o} *out = out_all + b * K * PQ;
        long long k0 = 0;
{_conv_block(t, 2, epi)}
{_conv_block(t, 1, epi)}
{_bias_pass(spec, (("k", "K"), ("i", "PQ")), "k * PQ + i", "        ")}
{_output_pass(o)}
    }}
    free(sv); free(gamma); free(qv); free(tile); free(pix); free(win);
    return 0;
}}
"""


@dataclass(frozen=True)
class QuantizeSpec:
    """Everything baked into a rendered fake-quantize kernel.

    One element/scale C type (numpy's ``preserve`` policy computes a
    float32 tensor's scales in float32), the integer formats, and the
    coarse-scale grouping. Shapes are runtime arguments.
    """

    t: str                # element, scale and code C type: float | double
    V: int
    qmin: int
    qmax: int
    sqmax: int            # per-vector scale max (2**bits - 1)
    per_sample: bool      # one gamma per leading index vs one per tensor

    def __post_init__(self) -> None:
        if self.t not in _CTYPES:
            raise ValueError(f"t must be float/double, got {self.t!r}")
        if self.V < 1:
            raise ValueError(f"vector size must be >= 1, got {self.V}")


def render_quantize(spec: QuantizeSpec) -> str:
    """Lower a :class:`QuantizeSpec` to a C translation unit exporting::

        int repro_quantize(const void *x, void *out,
                           long long B, long long M, long long L, long long N);

    It writes the two-level fake-quant ``code * (sq * gamma)`` (Eq. 7j)
    of the C-contiguous ``(B, M, L, N)`` input to ``out`` (same shape,
    C-contiguous). Returns 0, or 1 on scratch-allocation failure.
    """
    t = spec.t
    pro = Prologue(x=t, s=t, c=t, per_sample=spec.per_sample, L="L", M="M", N="N")
    flat = replace(pro, N="1")

    def fakequant(cd: str, sq: str) -> str:
        return f"{cd} * ({sq} * g)"  # numpy: xq * (sq * gamma)

    def branch(contig: str, strided: str) -> str:
        return (f"    if (N == 1) {{\n{_indent(contig)}\n    }} else {{\n"
                f"{_indent(strided)}\n    }}")

    dst = f"{t} *dst = out + r * L * N;"
    return f"""\
{_HEADER}
{_defines(V=spec.V, QMIN=f"({spec.qmin})", QMAX=spec.qmax, SQMAX=spec.sqmax)}

{_XMALLOC}

int repro_quantize(const void *x_, void *out_,
                   long long NB, long long M, long long L, long long N)
{{
    const {t} *x = (const {t} *)x_;
    {t} *out = ({t} *)out_;
    const long long rows = NB * M;
    const long long NV = (L + V - 1) / V;
    {t} *sv = ({t} *)xmalloc((size_t)(rows * NV * N) * sizeof({t}));
    {t} *gamma = ({t} *)xmalloc((size_t)(NB > 0 ? NB : 1) * sizeof({t}));
    {t} *qv = ({t} *)xmalloc((size_t)N * sizeof({t}));
    if (!sv || !gamma || !qv) {{ free(sv); free(gamma); free(qv); return 1; }}

{branch(flat.scales(), pro.scales())}

{pro.gamma()}

{branch(flat.codes(dst, fakequant), pro.codes(dst, fakequant))}

    free(sv); free(gamma); free(qv);
    return 0;
}}
"""


#: The vector GELU kernels, by width: the ISA macro that admits each, its
#: float and double vector types, intrinsic prefixes, and libmvec's
#: double-precision erf of that width (vector-function ABI names).
GELU_VARIANTS = {
    8: dict(isa="__AVX512F__", vf="__m256", vd="__m512d", ps="_mm256", pd="_mm512",
            erf="_ZGVeN8v_erf"),
    4: dict(isa="__AVX2__", vf="__m128", vd="__m256d", ps="_mm", pd="_mm256",
            erf="_ZGVdN4v_erf"),
}


def _gelu_variant(width: int) -> str:
    v = GELU_VARIANTS[width]
    vf, ps = v["vf"], v["ps"]
    return f"""\
#define W {width}
{v["vd"]} {v["erf"]}({v["vd"]});

static inline void gelu(const float *src, float *dst)
{{
    const {vf} x = {ps}_loadu_ps(src);
    const {vf} t = {ps}_div_ps(x, {ps}_set1_ps(SQRT2));
    const {vf} e = {v["pd"]}_cvtpd_ps({v["erf"]}({v["pd"]}_cvtps_pd(t)));
    const {vf} c = {ps}_mul_ps({ps}_set1_ps(0.5f), {ps}_add_ps({ps}_set1_ps(1.0f), e));
    {ps}_storeu_ps(dst, {ps}_mul_ps(x, c));
}}"""


def render_gelu(width: int | None = None) -> str:
    """The float32 GELU kernel, a C translation unit exporting::

        int repro_gelu(const void *x, void *out, long long n);
        int repro_gelu_width(void);

    ``repro_gelu`` writes ``x * (0.5 * (1 + erf(x / sqrt2)))`` of ``n``
    floats to ``out`` and returns 0; ``repro_gelu_width`` returns the
    vector width that was built. Each step rounds to float32 in numpy's
    order (``ops._gelu`` on a float32 array), and erf is libmvec's double
    erf of the float32 quotient, rounded to float32: the value scipy's
    float32 ``erf`` loop computes. The steps are separate intrinsics, so
    there is no multiply-add for the compiler to contract. Link with
    ``-lmvec``.

    ``width`` 8 (AVX-512) or 4 (AVX2) builds that variant only; ``None``
    builds the widest one the target admits. A target that admits none
    fails to compile (``#error``), which sends the caller to numpy.
    """
    widths = sorted(GELU_VARIANTS, reverse=True) if width is None else [width]
    branches = "".join(
        f"#{'if' if i == 0 else 'elif'} defined({GELU_VARIANTS[w]['isa']})\n"
        f"{_gelu_variant(w)}\n"
        for i, w in enumerate(widths)
    )
    return f"""\
/* generated by repro.compile - do not edit */
#include <immintrin.h>
#include <string.h>

/* numpy divides a float32 array by the Python float sqrt(2) rounded to float32 */
#define SQRT2 ((float){math.sqrt(2.0)!r})

{branches}#else
#error "no libmvec erf for this target"
#endif

int repro_gelu_width(void) {{ return W; }}

int repro_gelu(const void *x_, void *out_, long long n)
{{
    const float *x = (const float *)x_;
    float *out = (float *)out_;
    long long i = 0;
    for (; i + W <= n; i += W) gelu(x + i, out + i);
    if (i < n) {{
        float buf[W] = {{0}};
        memcpy(buf, x + i, (size_t)(n - i) * sizeof(float));
        gelu(buf, buf);
        memcpy(out + i, buf, (size_t)(n - i) * sizeof(float));
    }}
    return 0;
}}
"""


def _indent(block: str, by: str = "    ") -> str:
    return "\n".join(by + line if line else line for line in block.split("\n"))


def source_fingerprint(source: str, toolchain: str) -> str:
    """Cache key: hash of the rendered source + the compiler identity."""
    h = hashlib.sha256()
    h.update(source.encode())
    h.update(b"\x00")
    h.update(toolchain.encode())
    return h.hexdigest()[:24]
