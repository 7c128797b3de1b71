"""Compiled learn kernel: one fused SGNS/CBOW mini-batch update in C.

The walk hot loops have been compiled since the walk kernels landed;
this is the same treatment for the learn phase, where the pipeline's
wall time goes. One C routine, :c:func:`w2v_batch`, performs the
mini-batch update that :func:`repro.embedding.word2vec.sgns_batch` and
:func:`~repro.embedding.word2vec.cbow_batch` define in NumPy — those
stay, as the reference the tests compare against and as the only path
on a host without a C compiler.

Design rule, as for the walk kernels: **every random draw stays in the
trainer's per-block Python generator**. The kernel is a pure function of
``(w_in, w_out, input rows, positive rows, pre-drawn negative uniforms +
the sampler's CDF, lr, max_row_step)`` with exactly the reference's
mini-batch semantics: gradients at the stale pre-batch weights, a
per-row segment sum in :data:`ACCUM_DTYPE`, a per-row step-norm clip,
one add per touched row, the mean loss returned. A batch is a list of
*groups*: each averages ``sizes[g]`` input rows into ``h``, scores it
against one positive and ``negative`` sampled output rows, and spreads
the gradient back. CBOW is that directly; skip-gram is the group-size-1
case (the mean of one row is the row, exactly), so one entry point
serves both modes.

What is exact and what is toleranced. Integers are identical to the
reference: the C inverse-CDF search equals
:meth:`NegativeSampler.indices` for every ``u``, ties included. Floats
are a function of the source alone — single-threaded, every reduction's
order written out as fixed-lane partial sums, built without
``-ffast-math`` or FMA contraction — so a fit repeats bitwise run to
run, for any stream sharding and any BLAS thread count. Against the
NumPy reference they differ by summation order (``einsum`` and scipy
pick their own) and the last ulp of ``exp``/``log``: about float32 eps
× dim on one batch.

Selection takes no option: :func:`resolve_train_kernel` returns the C
kernel when :func:`~repro.utils.cbuild.find_compiler` finds a compiler
and the ``.so`` builds and loads, and ``None`` (the caller trains
through NumPy) otherwise. A compiler that is present but fails is
reported once through :mod:`warnings`; it never fails a fit.
"""

from __future__ import annotations

import ctypes
import time
import warnings

import numpy as np

from repro.errors import ConfigError, TrainingError
from repro.utils.cbuild import compile_cached, find_compiler

#: Dtype of the per-row segment sums and step norms of a batch update, in
#: the reference and (as ``acc_t``) in the kernel: a small vocabulary
#: sums hundreds of float32 pair gradients into one row before the clip,
#: and float64 keeps that sum independent of how the pairs are ordered to
#: well below a float32 ulp.
ACCUM_DTYPE = np.float64

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef double acc_t; /* ACCUM_DTYPE */

#define LOSS_EPS 1e-10f

/* Reductions run over fixed lanes so that their order is part of this
   source, not of the optimiser: 16 float (8 acc_t) strided partial sums
   as one GNU vector, the tail folded into the low lanes, then the
   pairwise tree in tree8(). Lane arithmetic is plain IEEE per element. */
#define VF 16
#define VA 8
typedef float vf_t __attribute__((vector_size(VF * sizeof(float))));
typedef acc_t va_t __attribute__((vector_size(VA * sizeof(acc_t))));

static inline vf_t load_vf(const float *p) { vf_t v; memcpy(&v, p, sizeof v); return v; }
static inline va_t load_va(const acc_t *p) { va_t v; memcpy(&v, p, sizeof v); return v; }

#define tree8(r) (((r[0] + r[4]) + (r[2] + r[6])) + ((r[1] + r[5]) + (r[3] + r[7])))

static inline float dot_f32(const float *a, const float *b, int64_t d) {
    vf_t lanes = {0};
    int64_t i = 0;
    for (; i + VF <= d; i += VF) lanes += load_vf(a + i) * load_vf(b + i);
    float s[VF], r[8];
    memcpy(s, &lanes, sizeof lanes);
    for (int l = 0; i < d; i++, l++) s[l] += a[i] * b[i];
    for (int l = 0; l < 8; l++) r[l] = s[l] + s[l + 8];
    return tree8(r);
}

static inline acc_t sumsq_acc(const acc_t *a, int64_t d) {
    va_t lanes = {0};
    int64_t i = 0;
    for (; i + VA <= d; i += VA) lanes += load_va(a + i) * load_va(a + i);
    acc_t s[VA];
    memcpy(s, &lanes, sizeof lanes);
    for (int l = 0; i < d; i++, l++) s[l] += a[i] * a[i];
    return tree8(s);
}

/* count of cdf entries <= u, i.e. np.searchsorted(cdf, u, side="right");
   branch-free, the answer staying within [lo, lo + n] */
static inline int64_t cdf_upper(const double *cdf, int64_t n, double u) {
    int64_t lo = 0;
    while (n > 1) {
        int64_t half = n >> 1;
        lo = (cdf[lo + half - 1] <= u) ? lo + half : lo;
        n -= half;
    }
    return lo + (cdf[lo] <= u);
}

void cdf_search(const double *cdf, int64_t vocab, const double *u,
                int64_t n, int64_t *out) {
    for (int64_t i = 0; i < n; i++) out[i] = cdf_upper(cdf, vocab, u[i]);
}

/* accumulator of `row`, zeroed and registered at its first touch */
static inline acc_t *acc_row(int32_t *slot, int64_t *touched, int64_t *count,
                             acc_t *acc, int64_t row, int64_t d) {
    int32_t s = slot[row];
    if (s < 0) {
        s = (int32_t)(*count);
        slot[row] = s;
        touched[(*count)++] = row;
        memset(acc + (int64_t)s * d, 0, (size_t)d * sizeof(acc_t));
    }
    return acc + (int64_t)s * d;
}

/* a += (acc_t)(coef * x) * neg_lr : the float32 gradient, the step in acc_t */
static inline void add_step(acc_t *restrict a, const float *restrict x,
                            float coef, double neg_lr, int64_t d) {
    for (int64_t i = 0; i < d; i++) a[i] += (acc_t)(coef * x[i]) * neg_lr;
}

/* clip each touched row's summed step, add it once, release the slot */
static void apply_rows(float *w, int64_t d, int32_t *slot,
                       const int64_t *touched, int64_t count,
                       const acc_t *acc, double clip) {
    for (int64_t t = 0; t < count; t++) {
        int64_t row = touched[t];
        const acc_t *restrict a = acc + t * d;
        float *restrict wr = w + row * d;
        acc_t scale = 1.0;
        if (clip >= 0.0) {
            acc_t norm = sqrt(sumsq_acc(a, d));
            acc_t ratio = clip / (norm > 1e-12 ? norm : 1e-12);
            scale = ratio < 1.0 ? ratio : 1.0;
        }
        for (int64_t i = 0; i < d; i++) wr[i] += (float)(a[i] * scale);
        slot[row] = -1;
    }
}

/* One mini-batch of `groups` groups. Group g averages its sizes[g]
   input rows (consecutive in in_rows; sizes == NULL means one each)
   into h, scores h against w_out[out_pos[g]] and `negative` sampled
   rows, and accumulates every step against the pre-batch weights;
   the weights change only in apply_rows. slot_* are all -1 on entry
   and on return. Returns the batch's mean loss. */
double w2v_batch(float *w_in, float *w_out, int64_t vocab, int64_t d,
                 int64_t groups, const int32_t *in_rows,
                 const int64_t *sizes, const int32_t *out_pos,
                 int64_t negative, const double *u, const double *cdf,
                 double neg_lr, double clip,
                 int64_t *neg, int32_t *slot_in, int32_t *slot_out,
                 int64_t *touched_in, int64_t *touched_out,
                 acc_t *acc_in, acc_t *acc_out, float *work) {
    if (groups == 0) return NAN;
    /* work: d floats of h, d of its gradient, 1 + negative coefficients */
    float *h = work, *gh = work + d, *coef = work + 2 * d;
    cdf_search(cdf, vocab, u, groups * negative, neg);
    int64_t n_in = 0, n_out = 0;
    double loss_pos = 0.0, loss_neg = 0.0;
    const int32_t *rows = in_rows;
    for (int64_t g = 0; g < groups; g++) {
        int64_t m = sizes ? sizes[g] : 1;
        const float *hp;
        if (m == 1) {
            hp = w_in + (int64_t)rows[0] * d;
        } else {
            float inv = (float)(1.0 / (double)m);
            memset(h, 0, (size_t)d * sizeof(float));
            for (int64_t j = 0; j < m; j++) {
                const float *x = w_in + (int64_t)rows[j] * d;
                for (int64_t i = 0; i < d; i++) h[i] += inv * x[i];
            }
            hp = h;
        }
        /* three passes over the 1 + negative targets, so that the
           independent dot products overlap in the pipeline */
        const int64_t *gneg = neg + g * negative;
        for (int64_t t = 0; t <= negative; t++) {
            int64_t row = t == 0 ? out_pos[g] : gneg[t - 1];
            coef[t] = dot_f32(hp, w_out + row * d, d);
        }
        for (int64_t t = 0; t <= negative; t++) {
            float f = coef[t];
            float x = f < -8.0f ? -8.0f : (f > 8.0f ? 8.0f : f);
            float s = 1.0f / (1.0f + expf(-x));
            if (t == 0) {
                coef[t] = s - 1.0f;
                loss_pos += (double)logf(s + LOSS_EPS);
            } else {
                coef[t] = s;
                loss_neg += (double)logf(1.0f - s + LOSS_EPS);
            }
        }
        for (int64_t t = 0; t <= negative; t++) {
            int64_t row = t == 0 ? out_pos[g] : gneg[t - 1];
            const float *restrict v = w_out + row * d;
            float c = coef[t];
            if (t == 0)
                for (int64_t i = 0; i < d; i++) gh[i] = c * v[i];
            else
                for (int64_t i = 0; i < d; i++) gh[i] += c * v[i];
            add_step(acc_row(slot_out, touched_out, &n_out, acc_out, row, d),
                     hp, c, neg_lr, d);
        }
        if (m == 1) {
            add_step(acc_row(slot_in, touched_in, &n_in, acc_in, rows[0], d),
                     gh, 1.0f, neg_lr, d);
        } else {
            /* every input row of the group receives the mean gradient */
            double count = (double)m;
            for (int64_t j = 0; j < m; j++) {
                acc_t *restrict a =
                    acc_row(slot_in, touched_in, &n_in, acc_in, rows[j], d);
                for (int64_t i = 0; i < d; i++)
                    a[i] += ((acc_t)gh[i] / count) * neg_lr;
            }
        }
        rows += m;
    }
    apply_rows(w_in, d, slot_in, touched_in, n_in, acc_in, clip);
    apply_rows(w_out, d, slot_out, touched_out, n_out, acc_out, clip);
    return -(loss_pos / (double)groups) - (loss_neg / (double)groups);
}
"""

_F32P = ctypes.POINTER(ctypes.c_float)
_F64P = ctypes.POINTER(ctypes.c_double)
_I32P = ctypes.POINTER(ctypes.c_int32)
_I64P = ctypes.POINTER(ctypes.c_int64)


def _load(so_path: str):
    lib = ctypes.CDLL(so_path)
    lib.cdf_search.restype = None
    lib.cdf_search.argtypes = [_F64P, ctypes.c_int64, _F64P, ctypes.c_int64, _I64P]
    lib.w2v_batch.restype = ctypes.c_double
    lib.w2v_batch.argtypes = [
        _F32P, _F32P, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, _I32P, _I64P, _I32P,
        ctypes.c_int64, _F64P, _F64P,
        ctypes.c_double, ctypes.c_double,
        _I64P, _I32P, _I32P, _I64P, _I64P,
        _F64P, _F64P, _F32P,
    ]
    return lib


def _check_array(name: str, arr, dtype, ndim: int) -> None:
    if not (
        isinstance(arr, np.ndarray)
        and arr.dtype == dtype
        and arr.ndim == ndim
        and arr.flags.c_contiguous
    ):
        raise TrainingError(
            f"learn kernel: {name} must be a C-contiguous {ndim}-D "
            f"{np.dtype(dtype).name} array"
        )


def _check_rows(name: str, rows: np.ndarray, vocab: int) -> None:
    _check_array(name, rows, np.int32, 1)
    # one unsigned comparison covers both ends: a negative index wraps high
    if rows.size and int(rows.view(np.uint32).max()) >= vocab:
        raise TrainingError(f"learn kernel: {name} holds an index outside [0, {vocab})")


class BatchScratch:
    """Work buffers of the C batch update, owned by one trainer.

    Sized from the vocabulary, the dimension and the largest batch the
    trainer will issue (``max_in_rows`` input rows in ``max_groups``
    groups with ``negative`` negatives each): row → accumulator slot maps
    over the vocabulary, and one :data:`ACCUM_DTYPE` accumulator per row
    a batch can touch. A trainer rebuilds it when ``expand_vocab`` swaps
    its matrices.
    """

    def __init__(self, vocab: int, dim: int, max_in_rows: int, max_groups: int, negative: int):
        self.vocab = vocab
        self.dim = dim
        self.max_in_rows = max_in_rows
        self.max_groups = max_groups
        self.negative = negative
        in_cap = min(vocab, max_in_rows)
        out_cap = min(vocab, max_groups * (1 + negative))
        self.slot_in = np.full(vocab, -1, dtype=np.int32)
        self.slot_out = np.full(vocab, -1, dtype=np.int32)
        self.touched_in = np.empty(in_cap, dtype=np.int64)
        self.touched_out = np.empty(out_cap, dtype=np.int64)
        self.acc_in = np.empty((in_cap, dim), dtype=ACCUM_DTYPE)
        self.acc_out = np.empty((out_cap, dim), dtype=ACCUM_DTYPE)
        #: negative indices of the last batch, ``(groups, negative)`` row-major
        self.neg = np.empty(max_groups * negative, dtype=np.int64)
        self.work = np.empty(2 * dim + 1 + negative, dtype=np.float32)
        #: the buffers above as the trailing arguments of ``w2v_batch``,
        #: converted once: they live, unmoved, as long as this object
        self.pointers = (
            self.neg.ctypes.data_as(_I64P),
            self.slot_in.ctypes.data_as(_I32P), self.slot_out.ctypes.data_as(_I32P),
            self.touched_in.ctypes.data_as(_I64P), self.touched_out.ctypes.data_as(_I64P),
            self.acc_in.ctypes.data_as(_F64P), self.acc_out.ctypes.data_as(_F64P),
            self.work.ctypes.data_as(_F32P),
        )


class CTrainKernel:
    """ctypes-driven C batch update (see the module docstring)."""

    name = "cnative"

    def __init__(self, compiler: str):
        t0 = time.perf_counter()
        self._lib = _load(compile_cached(_C_SOURCE, "repro-learn-kernel", compiler, libs=("-lm",)))
        #: one-off compile (or cache hit) + load seconds
        self.compile_seconds = time.perf_counter() - t0

    def search(self, cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The kernel's inverse-CDF search over ``u`` (flat float64)."""
        _check_array("cdf", cdf, np.float64, 1)
        _check_array("u", u, np.float64, 1)
        if cdf.size == 0:
            raise TrainingError("learn kernel: empty cdf")
        out = np.empty(u.size, dtype=np.int64)
        self._lib.cdf_search(
            cdf.ctypes.data_as(_F64P), cdf.size, u.ctypes.data_as(_F64P), u.size,
            out.ctypes.data_as(_I64P),
        )
        return out

    def batch(
        self, w_in, w_out, in_rows, sizes, out_pos, u, cdf, lr, max_row_step, scratch: BatchScratch
    ) -> float:
        """One mini-batch update in place; returns its mean loss.

        ``in_rows`` (int32) are the input rows of all groups back to
        back, ``sizes`` (int64, or ``None`` for one row per group —
        skip-gram) how many each group owns, ``out_pos`` (int32) each
        group's positive output row, ``u`` the ``(groups, negative)``
        float64 uniforms the negatives are read from through ``cdf``.
        Afterwards ``scratch.neg[: u.size]`` holds the negative indices
        used. Every precondition the C code relies on is checked here;
        a violation raises :class:`~repro.errors.TrainingError`.
        """
        vocab, dim = scratch.vocab, scratch.dim
        for name, w in (("w_in", w_in), ("w_out", w_out)):
            _check_array(name, w, np.float32, 2)
            if w.shape != (vocab, dim) or not w.flags.writeable:
                raise TrainingError(
                    f"learn kernel: {name} must be a writeable ({vocab}, {dim}) matrix"
                )
        _check_rows("out_pos", out_pos, vocab)
        _check_rows("in_rows", in_rows, vocab)
        groups = out_pos.size
        if sizes is None:
            sizes_p = None  # NULL: one input row per group
            if in_rows.size != groups:
                raise TrainingError("learn kernel: one input row per group expected")
        else:
            _check_array("sizes", sizes, np.int64, 1)
            if sizes.size != groups or (groups and sizes.min() < 1) or sizes.sum() != in_rows.size:
                raise TrainingError("learn kernel: sizes must be >= 1 and sum to in_rows.size")
            sizes_p = sizes.ctypes.data_as(_I64P)
        _check_array("u", u, np.float64, 2)
        if u.shape != (groups, scratch.negative):
            raise TrainingError(
                f"learn kernel: u must have shape ({groups}, {scratch.negative})"
            )
        # written so that a NaN fails too
        if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
            raise TrainingError("learn kernel: uniforms must lie in [0, 1)")
        _check_array("cdf", cdf, np.float64, 1)
        if cdf.size != vocab or cdf[-1] != 1.0:
            raise TrainingError(f"learn kernel: cdf must have {vocab} entries ending at 1.0")
        if groups > scratch.max_groups or in_rows.size > scratch.max_in_rows:
            raise TrainingError("learn kernel: batch larger than the scratch was sized for")
        if max_row_step is not None and not max_row_step >= 0.0:
            raise TrainingError("learn kernel: max_row_step must be >= 0 or None")
        return self._lib.w2v_batch(
            w_in.ctypes.data_as(_F32P), w_out.ctypes.data_as(_F32P), vocab, dim,
            groups, in_rows.ctypes.data_as(_I32P), sizes_p, out_pos.ctypes.data_as(_I32P),
            scratch.negative, u.ctypes.data_as(_F64P), cdf.ctypes.data_as(_F64P),
            -float(lr), -1.0 if max_row_step is None else float(max_row_step),
            *scratch.pointers,
        )


def resolve_train_kernel() -> CTrainKernel | None:
    """The C learn kernel when this host can build and load it, else None.

    ``None`` means "train through the NumPy reference". No compiler is
    the quiet case; a compiler that is present but fails to build or
    load the kernel is reported once as a :class:`RuntimeWarning` naming
    the error, and the caller still trains.
    """
    compiler = find_compiler()
    if compiler is None:
        return None
    try:
        return CTrainKernel(compiler)
    except (ConfigError, OSError) as err:
        warnings.warn(
            f"compiled learn kernel unavailable, training through numpy: {err}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


__all__ = ["ACCUM_DTYPE", "BatchScratch", "CTrainKernel", "resolve_train_kernel"]
