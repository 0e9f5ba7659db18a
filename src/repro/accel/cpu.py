"""Runtime-compiled fused C kernels for float32 CPU inference.

The float32 fast path (``InferenceEngine(dtype=np.float32)``) spends its
time in small-width GEMMs (edge rows × 16..128) and memory-bound
elementwise glue (bias + ReLU, LayerNorm, gather-add, segment-sum) where
NumPy pays one full pass over the array per ufunc. This module fuses the
glue into single-pass C loops and, for the common widths, a whole
LayerNorm MLP with its gather, receiver sum and residual into one
register-blocked kernel (:meth:`CpuKernels.mlp`). Everything is compiled
once per machine with the system ``cc`` through cffi's ABI mode.

Gating and fallback
-------------------
* ``kernels()`` returns a :class:`CpuKernels` handle, or ``None`` when the
  toolchain is unavailable (no compiler, no cffi, sandboxed tmpdir, ...).
  Call sites must treat ``None`` as "use the NumPy path".
* ``REPRO_NO_CKERNELS=1`` is the one kill switch, for debugging or
  reproducing pure-NumPy numbers. It is read on every call, so setting
  it also masks kernels that were already compiled earlier in the
  process.
* The float64 inference path never dispatches here: its contract is
  bitwise equality with the legacy per-op implementation, which only the
  NumPy kernels guarantee.

Numerics
--------
Three translation units with different flag sets:

* strict IEEE (``relu``/``bias_relu``/``gather2_add_relu``/``segment_sum``):
  plain ``-O3``; ReLU uses ``v > 0 ? v : 0*v`` so NaNs propagate exactly
  like ``np.maximum`` (the ``0*v`` keeps NaN; only the sign of zero can
  differ from NumPy, which compares equal).  The segment sum accumulates
  rows in edge order — the same order as the CSR matmul it replaces.
* reassociation-enabled (``ln``/``bias_ln``): ``-fassociative-math`` and
  friends, required for the compiler to vectorize the float reductions in
  LayerNorm (4x faster than NumPy's multi-pass version).  NaNs still
  propagate (``-ffinite-math-only`` is *not* enabled), but the summation
  order inside a row is unspecified, so results differ from NumPy in the
  last ulp or two.
* the fused LayerNorm MLP (``mlp``): plain ``-O3``, so the C compiler
  contracts each multiply-add into an FMA. A group of R rows runs every
  layer while its accumulators stay in registers; LayerNorm's two row
  sums use a fixed lane tree rather than NumPy's order. Results therefore
  differ from the NumPy float32 path by rounding (a few ulp per layer),
  not bitwise. NaNs propagate exactly as in NumPy (the ReLU is the same
  ``0*v`` select), and each row's arithmetic is the same wherever the row
  sits: the last, partial group runs the same vector code on a
  zero-padded copy.

All kernels require C-contiguous float32 arrays and int64 indices; the
wrappers validate this and raise rather than fall back, because a silent
copy would hide the performance bug the caller is trying to avoid.
"""

# repro-lint: fp32-ok

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
from string import Template

import numpy as np

__all__ = ["CpuKernels", "MLP_WIDTHS", "available", "kernels"]

#: hidden/output widths the fused MLP kernel is specialized for
MLP_WIDTHS = (16, 32, 64, 128)

_CDEF = """
void repro_relu32(float* h, long long n);
void repro_bias_relu32(float* h, long long n, long long w, const float* bias);
void repro_gather2_add_relu32(float* h, long long e, long long w,
                              const float* ps, const float* pr,
                              const long long* senders,
                              const long long* receivers, int relu);
void repro_segsum32(const float* msgs, long long w, const long long* indptr,
                    long long n, float* out);
void repro_ln32(float* h, long long n, long long w, const float* gamma,
                const float* beta, float eps);
void repro_bias_ln32(float* h, long long n, long long w, const float* bias,
                     const float* gamma, const float* beta, float eps);
int repro_mlp32(long long w, long long n, long long din, long long din2,
                long long rows0, long long depth, const float* params,
                const float* x, const float* x2, const float* ps,
                const float* pr, long long nsrc, const long long* senders,
                const long long* receivers, float* agg, long long nagg,
                float* out, int residual, float eps);
"""

# Translation unit 1: strict IEEE semantics (no reassociation). The ReLU
# branches multiply by zero instead of loading a zero constant so that a
# NaN input stays NaN, matching np.maximum(h, 0).
_SRC_STRICT = r"""
#include <stdint.h>

typedef long long i64;

void repro_relu32(float* restrict h, i64 n)
{
    for (i64 i = 0; i < n; i++) {
        float v = h[i];
        h[i] = v > 0.0f ? v : 0.0f * v;
    }
}

void repro_bias_relu32(float* restrict h, i64 n, i64 w,
                       const float* restrict bias)
{
    for (i64 i = 0; i < n; i++) {
        float* row = h + i * w;
        for (i64 j = 0; j < w; j++) {
            float v = row[j] + bias[j];
            row[j] = v > 0.0f ? v : 0.0f * v;
        }
    }
}

void repro_gather2_add_relu32(float* restrict h, i64 e, i64 w,
                              const float* restrict ps,
                              const float* restrict pr,
                              const i64* restrict senders,
                              const i64* restrict receivers, int relu)
{
    for (i64 i = 0; i < e; i++) {
        float* row = h + i * w;
        const float* s = ps + senders[i] * w;
        const float* r = pr + receivers[i] * w;
        if (relu) {
            for (i64 j = 0; j < w; j++) {
                float v = row[j] + s[j] + r[j];
                row[j] = v > 0.0f ? v : 0.0f * v;
            }
        } else {
            /* left-associated like the NumPy reference (h + s) + r */
            for (i64 j = 0; j < w; j++)
                row[j] = row[j] + s[j] + r[j];
        }
    }
}

/* Rows of a segment accumulate in edge order: identical order to the CSR
 * matmul (scipy csr_matrix @ dense walks column indices sequentially per
 * output row), so the result is bitwise-equal to the NumPy plan path. */
void repro_segsum32(const float* restrict msgs, i64 w,
                    const i64* restrict indptr, i64 n, float* restrict out)
{
    for (i64 i = 0; i < n; i++) {
        float* o = out + i * w;
        for (i64 j = 0; j < w; j++)
            o[j] = 0.0f;
        for (i64 k = indptr[i]; k < indptr[i + 1]; k++) {
            const float* m = msgs + k * w;
            for (i64 j = 0; j < w; j++)
                o[j] += m[j];
        }
    }
}
"""

# Translation unit 2: LayerNorm. Compiled with reassociation so the two
# row reductions (mean, variance) vectorize; see the module docstring for
# the numerics contract.
_SRC_LN = r"""
#include <stdint.h>
#include <math.h>

typedef long long i64;

void repro_ln32(float* restrict h, i64 n, i64 w, const float* restrict gamma,
                const float* restrict beta, float eps)
{
    for (i64 i = 0; i < n; i++) {
        float* row = h + i * w;
        float mu = 0.0f;
        for (i64 j = 0; j < w; j++)
            mu += row[j];
        mu /= (float)w;
        float var = 0.0f;
        for (i64 j = 0; j < w; j++) {
            float c = row[j] - mu;
            var += c * c;
        }
        float inv = 1.0f / sqrtf(var / (float)w + eps);
        for (i64 j = 0; j < w; j++)
            row[j] = (row[j] - mu) * inv * gamma[j] + beta[j];
    }
}

void repro_bias_ln32(float* restrict h, i64 n, i64 w,
                     const float* restrict bias, const float* restrict gamma,
                     const float* restrict beta, float eps)
{
    for (i64 i = 0; i < n; i++) {
        float* row = h + i * w;
        float mu = 0.0f;
        for (i64 j = 0; j < w; j++) {
            row[j] += bias[j];
            mu += row[j];
        }
        mu /= (float)w;
        float var = 0.0f;
        for (i64 j = 0; j < w; j++) {
            float c = row[j] - mu;
            var += c * c;
        }
        float inv = 1.0f / sqrtf(var / (float)w + eps);
        for (i64 j = 0; j < w; j++)
            row[j] = (row[j] - mu) * inv * gamma[j] + beta[j];
    }
}
"""

# Translation unit 3: the fused LayerNorm MLP. The head picks the vector
# length for the target ISA and the register budget: NACC vector
# accumulators (R rows x VB vectors) stay live in the inner loop next to
# VB weight vectors and one broadcast, within the 32 (AVX-512) or 16
# (AVX2/SSE) vector registers.
_SRC_MLP_HEAD = r"""
#include <math.h>
#include <stdlib.h>
#include <string.h>

typedef long long i64;

#if defined(__AVX512F__)
#define VL 16
#define NACC 24
#define VBMAX 4
#elif defined(__AVX__)
#define VL 8
#define NACC 12
#define VBMAX 2
#else
#define VL 4
#define NACC 12
#define VBMAX 2
#endif

typedef float vf __attribute__((vector_size(4 * VL)));
typedef float vfu __attribute__((vector_size(4 * VL), aligned(4)));
typedef int vi __attribute__((vector_size(4 * VL)));

#define INL static inline __attribute__((always_inline))

INL vf ld(const float* p) { return *(const vfu*)p; }
INL void st(float* p, vf v) { *(vfu*)p = v; }

INL vf bc(float a)
{
    vf v = {a};
    return __builtin_shuffle(v, (vi){0});
}

/* max(v, 0) keeping NaN, like np.maximum: the else-branch is 0*v */
INL vf relu(vf v)
{
    vi m = v > (vf){0};
    vf z = v * 0.0f;
    return (vf)(((vi)v & m) | ((vi)z & ~m));
}

/* lane sum in a fixed tree: lane 0 collects the even lanes, lane 1 the
 * odd ones */
INL float hsum(vf v)
{
#if VL == 16
    v += __builtin_shuffle(v, (vi){8, 9, 10, 11, 12, 13, 14, 15,
                                   0, 1, 2, 3, 4, 5, 6, 7});
    v += __builtin_shuffle(v, (vi){4, 5, 6, 7, 0, 1, 2, 3,
                                   12, 13, 14, 15, 8, 9, 10, 11});
    v += __builtin_shuffle(v, (vi){2, 3, 0, 1, 6, 7, 4, 5,
                                   10, 11, 8, 9, 14, 15, 12, 13});
#elif VL == 8
    v += __builtin_shuffle(v, (vi){4, 5, 6, 7, 0, 1, 2, 3});
    v += __builtin_shuffle(v, (vi){2, 3, 0, 1, 6, 7, 4, 5});
#else
    v += __builtin_shuffle(v, (vi){2, 3, 0, 1});
#endif
    return v[0] + v[1];
}

/* gather source for the padding rows of a partial group */
static const float ZERO_ROW[128];
"""

# One specialization per width $W (string.Template): V vectors per row,
# processed VB at a time for R rows.
_SRC_MLP_WIDTH = r"""
enum { V_$W = $W / VL, VB_$W = V_$W < VBMAX ? V_$W : VBMAX,
       R_$W = NACC / VB_$W < 16 ? NACC / VB_$W : 16 };

/* dst[r] = act(init[r] + a[r] @ w[:ka] + b[r] @ w[ka:ka+kb]) for the R
 * rows of a group; ldi = 0 broadcasts one init row (the bias) */
INL void layer_$W(const float* a, i64 lda, i64 ka,
                  const float* b, i64 ldb, i64 kb,
                  const float* w, const float* init, i64 ldi,
                  float* dst, int act)
{
    enum { W = $W, V = V_$W, VB = VB_$W, R = R_$W };
    for (int cb = 0; cb < V; cb += VB) {
        vf acc[R][VB];
        for (int r = 0; r < R; r++)
            for (int j = 0; j < VB; j++)
                acc[r][j] = ld(init + r * ldi + VL * (cb + j));
        const float* wk = w + VL * cb;
        for (i64 k = 0; k < ka; k++, wk += W) {
            vf wv[VB];
            for (int j = 0; j < VB; j++)
                wv[j] = ld(wk + VL * j);
            for (int r = 0; r < R; r++) {
                vf s = bc(a[r * lda + k]);
                for (int j = 0; j < VB; j++)
                    acc[r][j] += s * wv[j];
            }
        }
        for (i64 k = 0; k < kb; k++, wk += W) {
            vf wv[VB];
            for (int j = 0; j < VB; j++)
                wv[j] = ld(wk + VL * j);
            for (int r = 0; r < R; r++) {
                vf s = bc(b[r * ldb + k]);
                for (int j = 0; j < VB; j++)
                    acc[r][j] += s * wv[j];
            }
        }
        for (int r = 0; r < R; r++)
            for (int j = 0; j < VB; j++)
                st(dst + r * W + VL * (cb + j),
                   act ? relu(acc[r][j]) : acc[r][j]);
    }
}

static int mlp_$W(i64 n, i64 din, i64 din2, i64 rows0, i64 depth,
                  const float* P, const float* x, const float* x2,
                  const float* ps, const float* pr, const i64* snd,
                  const i64* rcv, float* agg, float* out, int residual,
                  float eps)
{
    enum { W = $W, V = V_$W, R = R_$W };
    float t0[R * W] __attribute__((aligned(64)));
    float t1[R * W] __attribute__((aligned(64)));
    /* zero-padded copy of a partial group's input rows */
    float* pad = calloc((size_t)(R * (din + din2) + 1), sizeof(float));
    if (!pad)
        return -2;
    const float* b0 = P + rows0 * W;
    for (i64 i0 = 0; i0 < n; i0 += R) {
        i64 nv = n - i0 < R ? n - i0 : R;
        const float* xb = x + i0 * din;
        const float* x2b = x2 ? x2 + i0 * din2 : pad;
        if (nv < R) {
            memset(pad, 0, sizeof(float) * R * (din + din2));
            memcpy(pad, xb, sizeof(float) * nv * din);
            if (x2)
                memcpy(pad + R * din, x2b, sizeof(float) * nv * din2);
            xb = pad;
            x2b = pad + R * din;
        }
        /* layer 0: bias, plus the gathered node projections */
        const float* init = b0;
        i64 ldi = 0;
        if (ps) {
            for (int r = 0; r < R; r++) {
                const float* gs = r < nv ? ps + snd[i0 + r] * W : ZERO_ROW;
                const float* gr = r < nv ? pr + rcv[i0 + r] * W : ZERO_ROW;
                for (int j = 0; j < V; j++)
                    st(t1 + r * W + VL * j, ld(b0 + VL * j)
                       + ld(gs + VL * j) + ld(gr + VL * j));
            }
            init = t1;
            ldi = W;
        }
        layer_$W(xb, din, din, x2b, din2, din2, P, init, ldi, t0, depth > 1);
        const float* L = b0 + W;
        float* cur = t0;
        float* nxt = t1;
        for (i64 l = 1; l < depth; l++) {
            layer_$W(cur, W, W, cur, 0, 0, L, L + W * W, 0, nxt,
                     l + 1 < depth);
            L += W * W + W;
            float* sw = cur;
            cur = nxt;
            nxt = sw;
        }
        /* LayerNorm, then aggregate (edge order) and store each row */
        const float* gamma = L;
        const float* beta = L + W;
        for (int r = 0; r < nv; r++) {
            const float* y = cur + r * W;
            vf s = ld(y);
            for (int j = 1; j < V; j++)
                s += ld(y + VL * j);
            vf mu = bc(hsum(s) * (1.0f / W));
            vf c[V];
            for (int j = 0; j < V; j++)
                c[j] = ld(y + VL * j) - mu;
            vf q = c[0] * c[0];
            for (int j = 1; j < V; j++)
                q += c[j] * c[j];
            vf inv = bc(1.0f / sqrtf(hsum(q) * (1.0f / W) + eps));
            i64 i = i0 + r;
            float* ar = agg ? agg + rcv[i] * W : 0;
            float* o = out ? out + i * W : 0;
            for (int j = 0; j < V; j++) {
                vf v = c[j] * inv * ld(gamma + VL * j) + ld(beta + VL * j);
                if (ar)
                    st(ar + VL * j, ld(ar + VL * j) + v);
                if (o)
                    st(o + VL * j, residual ? ld(o + VL * j) + v : v);
            }
        }
    }
    free(pad);
    return 0;
}
"""

# Entry point: validates the indices before anything is written, zeroes
# ``agg`` and dispatches on the width.
_SRC_MLP_ENTRY = r"""
int repro_mlp32(i64 w, i64 n, i64 din, i64 din2, i64 rows0, i64 depth,
                const float* params, const float* x, const float* x2,
                const float* ps, const float* pr, i64 nsrc,
                const i64* snd, const i64* rcv, float* agg, i64 nagg,
                float* out, int residual, float eps)
{
    if (snd) {
        for (i64 i = 0; i < n; i++)
            if (snd[i] < 0 || snd[i] >= nsrc || rcv[i] < 0
                || rcv[i] >= nsrc || (agg && rcv[i] >= nagg))
                return -1;
    }
    if (agg)
        memset(agg, 0, sizeof(float) * nagg * w);
    switch (w) {
$CASES    }
    return -3;
}
"""


def _mlp_source() -> str:
    cases = "".join(
        f"    case {w}: return mlp_{w}(n, din, din2, rows0, depth, params, "
        "x, x2, ps, pr, snd, rcv, agg, out, residual, eps);\n"
        for w in MLP_WIDTHS)
    return (_SRC_MLP_HEAD
            + "".join(Template(_SRC_MLP_WIDTH).substitute(W=w)
                      for w in MLP_WIDTHS)
            + Template(_SRC_MLP_ENTRY).substitute(CASES=cases))


_FLAGS_COMMON = ["-O3", "-march=native", "-fPIC"]
_FLAGS_LN = ["-fno-math-errno", "-fassociative-math", "-fno-signed-zeros",
             "-fno-trapping-math", "-freciprocal-math"]


def _build_dir() -> str:
    override = os.environ.get("REPRO_CKERNEL_CACHE")
    if override:
        os.makedirs(override, exist_ok=True)
        return override
    path = os.path.join(tempfile.gettempdir(),
                        f"repro-ckernels-{os.getuid()}")
    os.makedirs(path, mode=0o700, exist_ok=True)
    return path


def _compile() -> str:
    """Compile the three translation units into one shared library;
    return its path. Cached on disk by content hash, so the compiler runs
    at most once per machine per source revision."""
    cc = os.environ.get("CC", "cc")
    units = [("strict", _SRC_STRICT, _FLAGS_COMMON),
             ("ln", _SRC_LN, _FLAGS_COMMON + _FLAGS_LN),
             ("mlp", _mlp_source(), _FLAGS_COMMON)]
    tag = hashlib.sha256(
        "\x00".join([cc] + [f"{src}\x00{' '.join(flags)}"
                            for _, src, flags in units]).encode()
    ).hexdigest()[:16]
    build = _build_dir()
    so_path = os.path.join(build, f"repro_ckernels_{tag}.so")
    if os.path.exists(so_path):
        return so_path
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        objs = []
        for name, src, flags in units:
            c_path = os.path.join(tmp, f"{name}.c")
            with open(c_path, "w") as fh:
                fh.write(src)
            objs.append(os.path.join(tmp, f"{name}.o"))
            subprocess.run([cc, *flags, "-c", c_path, "-o", objs[-1]],
                           check=True, capture_output=True)
        tmp_so = os.path.join(tmp, "out.so")
        subprocess.run([cc, "-shared", *objs, "-o", tmp_so, "-lm"],
                       check=True, capture_output=True)
        # atomic publish so concurrent processes never dlopen a partial file
        os.replace(tmp_so, so_path)
    return so_path


class CpuKernels:
    """Thin validating wrappers over the compiled kernels.

    Every method mutates its first argument in place (except
    :meth:`segment_sum`, which fills ``out``). Arrays must be
    C-contiguous float32; index arrays must be int64 (``np.intp`` on all
    supported platforms).
    """

    def __init__(self, ffi, lib):
        self._ffi = ffi
        self._lib = lib

    # from_buffer: a pointer to the array's first element, ~4x cheaper
    # than casting ``a.ctypes.data``
    def _f32(self, a: np.ndarray):
        if a.dtype != np.float32 or not a.flags.c_contiguous:
            raise TypeError("accel kernels need C-contiguous float32 arrays")
        return self._ffi.from_buffer("float[]", a)

    def _i64(self, a: np.ndarray):
        if a.dtype != np.int64 or not a.flags.c_contiguous:
            raise TypeError("accel kernels need C-contiguous int64 indices")
        return self._ffi.from_buffer("long long[]", a)

    def relu(self, h: np.ndarray) -> np.ndarray:
        """In-place ``h = max(h, 0)`` (NaN-propagating)."""
        self._lib.repro_relu32(self._f32(h), h.size)
        return h

    def bias_relu(self, h: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """In-place ``h = max(h + bias, 0)`` over rows."""
        n, w = h.shape
        self._lib.repro_bias_relu32(self._f32(h), n, w, self._f32(bias))
        return h

    def ln(self, h: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
           eps: float) -> np.ndarray:
        """In-place LayerNorm over the last axis."""
        n, w = h.shape
        self._lib.repro_ln32(self._f32(h), n, w, self._f32(gamma),
                             self._f32(beta), eps)
        return h

    def bias_ln(self, h: np.ndarray, bias: np.ndarray, gamma: np.ndarray,
                beta: np.ndarray, eps: float) -> np.ndarray:
        """In-place ``LayerNorm(h + bias)`` over rows."""
        n, w = h.shape
        self._lib.repro_bias_ln32(self._f32(h), n, w, self._f32(bias),
                                  self._f32(gamma), self._f32(beta), eps)
        return h

    def gather2_add_relu(self, h: np.ndarray, proj_s: np.ndarray,
                         proj_r: np.ndarray, senders: np.ndarray,
                         receivers: np.ndarray, relu: bool = True
                         ) -> np.ndarray:
        """In-place ``h += proj_s[senders] + proj_r[receivers]`` with an
        optional fused ReLU — the edge-MLP first layer in one pass."""
        e, w = h.shape
        if proj_s.shape[1] != w or proj_r.shape[1] != w:
            raise ValueError("projection width mismatch")
        self._lib.repro_gather2_add_relu32(
            self._f32(h), e, w, self._f32(proj_s), self._f32(proj_r),
            self._i64(senders), self._i64(receivers), 1 if relu else 0)
        return h

    def segment_sum(self, msgs: np.ndarray, indptr: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
        """``out[i] = msgs[indptr[i]:indptr[i+1]].sum(axis=0)`` — the CSR
        aggregation for receiver-sorted edges, bitwise-equal to the scipy
        matmul path (same accumulation order)."""
        e, w = msgs.shape
        n = out.shape[0]
        if indptr.shape[0] != n + 1 or out.shape[1] != w:
            raise ValueError("segment_sum plan/output shape mismatch")
        if e and int(indptr[-1]) != e:
            raise ValueError("indptr does not cover all edges")
        self._lib.repro_segsum32(self._f32(msgs), w, self._i64(indptr), n,
                                 self._f32(out))
        return out

    def mlp(self, params: np.ndarray, sizes, eps: float, x: np.ndarray,
            x2: np.ndarray | None = None, gather=None,
            agg: np.ndarray | None = None, out: np.ndarray | None = None,
            residual: bool = False) -> np.ndarray:
        """Whole LayerNorm MLP ``y = LN(φ([x, x2, ...]))`` per row, fused.

        ``params`` is the MLP's flat float32 parameter vector
        (:meth:`repro.nn.MLP.packed`: ``W0, b0, W1, b1, ..., gamma,
        beta``, each weight row-major) and ``sizes`` its layer widths
        ``[in, w, ..., w]`` with ``w`` in :data:`MLP_WIDTHS`. The first
        layer reads ``x`` against weight rows ``[0, x.shape[1])`` and
        ``x2`` against the rows after those; any remaining rows are left
        to the caller (the edge MLP's node projections). With
        ``gather=(ps, pr, senders, receivers)`` row ``i`` also adds
        ``ps[senders[i]] + pr[receivers[i]]`` to its first layer.

        Each output row goes to ``agg[receivers[i]] +=`` (``agg`` is
        zeroed first, rows add in edge order) and/or ``out[i]`` —
        overwritten, or ``+=`` with ``residual``. ``out`` may be ``x``
        itself (the same array object); no other buffers may overlap.
        Returns ``out``, else ``agg``.
        """
        w, depth, rows0 = int(sizes[-1]), len(sizes) - 1, int(sizes[0])
        if w not in MLP_WIDTHS or depth < 1 or any(
                int(s) != w for s in sizes[1:]):
            raise ValueError(f"no fused MLP kernel for sizes {list(sizes)}")
        if params.ndim != 1 or params.size != (
                rows0 * w + w + (depth - 1) * (w * w + w) + 2 * w):
            raise ValueError("params do not match the MLP sizes")
        n, din = self._rows(x, None)
        din2 = 0 if x2 is None else self._rows(x2, n)[1]
        if din + din2 > rows0:
            raise ValueError("inputs wider than the first layer")
        if out is None and agg is None:
            raise ValueError("mlp needs out, agg or both")
        if agg is not None and gather is None:
            raise ValueError("agg needs gather's receivers")
        null = self._ffi.NULL
        ps = pr = snd = rcv = null
        nsrc = nagg = 0
        ins = [] if x2 is None else [x2]
        if gather is not None:
            gs, gr, senders, receivers = gather
            nsrc = self._rows(gs, None, w)[0]
            self._rows(gr, nsrc, w)
            if senders.shape != (n,) or receivers.shape != (n,):
                raise ValueError("one sender and receiver per row")
            ps, pr = self._f32(gs), self._f32(gr)
            snd, rcv = self._i64(senders), self._i64(receivers)
            ins += [gs, gr]
        if agg is not None:
            nagg = self._rows(agg, None, w)[0]
            if any(np.may_share_memory(agg, a) for a in ins + [x, out]
                   if a is not None):
                raise ValueError("agg overlaps another buffer")
        if out is not None:
            self._rows(out, n, w)
            if out is not x and np.may_share_memory(out, x):
                raise ValueError("out overlaps x without being x")
            if any(np.may_share_memory(out, a) for a in ins):
                raise ValueError("out overlaps an input")
        rc = self._lib.repro_mlp32(
            w, n, din, din2, rows0, depth, self._f32(params), self._f32(x),
            null if x2 is None else self._f32(x2), ps, pr, nsrc, snd, rcv,
            null if agg is None else self._f32(agg), nagg,
            null if out is None else self._f32(out), int(residual), eps)
        if rc == -1:
            raise IndexError("sender/receiver index out of range")
        if rc == -2:
            raise MemoryError("mlp kernel scratch")
        return out if out is not None else agg

    def _rows(self, a: np.ndarray, n: int | None,
              w: int | None = None) -> tuple[int, int]:
        """``a.shape`` of a 2-D row array, checked against ``n`` rows and
        ``w`` columns when given (dtype and layout are checked when
        ``_f32`` casts it)."""
        if a.ndim != 2 or (n is not None and a.shape[0] != n) or (
                w is not None and a.shape[1] != w):
            raise ValueError(f"bad row array shape {a.shape}")
        return a.shape


_KERNELS: CpuKernels | None = None
_TRIED = False


def kernels() -> CpuKernels | None:
    """Compiled kernel handle, or ``None`` when unavailable.

    The first call pays for (cached) compilation; later calls are an
    environment read plus a global read. Failure is remembered — one
    broken toolchain probe per process, not one per forward pass.
    """
    global _KERNELS, _TRIED
    if os.environ.get("REPRO_NO_CKERNELS"):
        return None
    if _TRIED:
        return _KERNELS
    _TRIED = True
    try:
        import cffi
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        lib = ffi.dlopen(_compile())
        _KERNELS = CpuKernels(ffi, lib)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception:
        # any toolchain failure (no gcc, no cffi, sandboxed tmpdir, bad
        # dlopen) falls back to the numpy path
        _KERNELS = None
    return _KERNELS


def available() -> bool:
    """True when the compiled float32 kernels can be used."""
    return kernels() is not None
