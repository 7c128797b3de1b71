"""Compiled learn kernel: runs of fused SGNS/CBOW mini-batch updates in C.

The walk hot loops have been compiled since the walk kernels landed;
this is the same treatment for the learn phase, where the pipeline's
wall time goes. One C routine, :c:func:`w2v_run`, performs a *run* of
consecutive mini-batch updates, each the update that
:func:`repro.embedding.word2vec.sgns_batch` and
:func:`~repro.embedding.word2vec.cbow_batch` define in NumPy — those
stay, as the reference the tests compare against and as the only path
on a host without a C compiler.

Design rule, as for the walk kernels: **every random draw stays in the
trainer's per-block Python generator**. Two index routines, with no
float and no draw in them, do the trainer's work between its draws and
the update: :c:func:`w2v_windows` turns a block's encoded tokens and
its window-mask uniforms into the windows, and :c:func:`w2v_gather` a
permuted slice of them into one run's groups, each equal, array for
array, to the NumPy it replaces. The update is a pure function of
``(w_in, w_out, input rows, positive rows, pre-drawn negative uniforms +
the sampler's CDF, batch offsets, learning rates, max_row_step)`` with
exactly the reference's mini-batch semantics: gradients at the stale
pre-batch weights, a per-row segment sum in :data:`ACCUM_DTYPE`, a
per-row step-norm clip, one add per touched row, the mean loss of every
batch returned. A batch is a list of *groups*, one window each: one
center occurrence's ``sizes[g]`` context rows, one positive output row
(the center) and ``negative`` output rows sampled once for the group.
CBOW averages the rows into ``h`` and scores that; skip-gram scores each
row on its own against the same targets — pWord2Vec's window-shared
negatives (Ji et al., arXiv:1604.04661) — and sums the rows' float32
gradients per target (in float32, in row order) before phase 2, which so
meets ``1 + negative`` output contributions per window, not per pair.

Threads, and why their number cannot change a result. A call uses as
many threads as the caller's CPU affinity mask holds, fewer when a batch
is too small to share (``MIN_WORK_PER_THREAD`` in the source), never
more than there are column panels; they live for the call and are
joined before it returns, so nothing outlives it: no pool, no lock held
across calls, nothing a ``fork`` could copy half-way. A batch is shared
by *columns*: the columns come in fixed panels of :data:`PANEL_COLUMNS`,
each thread takes a run of them and does every unit's work (a unit is
the CBOW mean, or a skip-gram row) in its own columns alone, in its own
gradient and accumulator rows and, unless the vocabulary is too large
for a call to pay for it, on its own copy of the weights' columns, so
that no cache line holds two threads' columns. Per batch a
thread draws the groups' negatives and computes each unit's partial dot
products with its ``1 + negative`` targets, one per panel, at the
pre-batch weights; after a barrier the threads turn units, by range,
into coefficients and log terms, each dot product the sum of its
panels' partials in panel order; after a second barrier each steps
every touched row's :data:`ACCUM_DTYPE` accumulator in the order one
thread meets the contributions (group, then target or row) and notes its
partial sum of squares per panel; with the clip on, a third barrier
lets every thread combine a row's panels, in panel order, into the norm
it clips its own columns by. The loss is summed serially in unit order.
Partial dot products, coefficients, log terms and partial norms are all
that cross between CPUs. Every float is so produced from the same
operands in the same order, an order that depends on ``d`` alone, and
which thread does it decides only when. (Barriers are waited at by
spinning, then yielding, and sleeping only when a partner is
milliseconds behind.)

What is exact and what is toleranced. Integers are identical to the
reference: the C inverse-CDF search (a guide table, :func:`cdf_guide`,
then a short scan) equals :meth:`NegativeSampler.indices` for every
``u``, ties included. Floats are a function of the source alone — every
reduction's order written out (fixed-lane partial sums within a vector,
panels in order across threads), ``exp`` and ``log`` too (Cephes'
polynomials, not libm's), built without ``-ffast-math`` or FMA
contraction — so a fit repeats bitwise run to run, for any stream
sharding, BLAS thread count, number of CPUs or libm. Against the NumPy
reference they differ by summation order (``einsum`` and scipy pick
their own; a skip-gram window's per-target sums are float32, not
acc_t, which stays inside the reference tolerance) and about an ulp of
``exp``/``log``: about float32 eps × dim on one batch.

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
from repro.utils.cthreads import C_THREADS, MAX_THREADS

#: Dtype of the per-row segment sums and step norms of a batch update, in
#: the reference and (as ``acc_t``) in the kernel: a small vocabulary
#: sums hundreds of float32 pair gradients into one row before the clip,
#: and float64 keeps that sum independent of how the pairs are ordered to
#: well below a float32 ulp.
ACCUM_DTYPE = np.float64

#: Columns of one panel, the unit in which the kernel's threads share a
#: batch (a source constant: see the module docstring). At d = 128, 64
#: gives two CPUs a panel each; 32 (two each, so twice the partials a dot
#: product) took 1.2x as long on two CPUs.
PANEL_COLUMNS = 64

_C_SOURCE = C_THREADS + r"""
typedef double acc_t; /* ACCUM_DTYPE */

#define LOSS_EPS 1e-10f

/* Reductions run over fixed lanes so that their order is part of this
   source, not of the optimiser: 16 float (8 acc_t) strided partial sums
   as one GNU vector, the tail folded into the low lanes, then halved
   (lane l plus lane l + half) down to one. Lane arithmetic is plain IEEE
   per element. */
#define VF 16
#define VA 8
typedef float vf_t __attribute__((vector_size(VF * sizeof(float))));
typedef float v8f_t __attribute__((vector_size(8 * sizeof(float))));
typedef float v4f_t __attribute__((vector_size(4 * sizeof(float))));
typedef acc_t va_t __attribute__((vector_size(VA * sizeof(acc_t))));
typedef acc_t v4a_t __attribute__((vector_size(4 * sizeof(acc_t))));
typedef acc_t vd_t __attribute__((vector_size(VF * sizeof(acc_t))));

/* the vector at p, unaligned; typed, so that a store through it may
   alias only its element type, and the compiler keeps the rest in
   registers (a macro: a function returning a vector wider than the
   baseline ISA changes the ABI, -Wpsabi) */
typedef float vf_u __attribute__((vector_size(VF * sizeof(float)), aligned(sizeof(float))));
typedef acc_t va_u __attribute__((vector_size(VA * sizeof(acc_t)), aligned(sizeof(acc_t))));
typedef acc_t vd_u __attribute__((vector_size(VF * sizeof(acc_t)), aligned(sizeof(acc_t))));
#define VEC(type, p) (*(type##_u *)(p))
typedef int32_t vi_t __attribute__((vector_size(VF * sizeof(int32_t))));
/* the bits of x as a value of another type of its size */
#define BITS(type, x) ({ __typeof__(x) x_ = (x); type b_; memcpy(&b_, &x_, sizeof b_); b_; })
/* the sum of the halves of vector x, as a vector of type `half` */
#define FOLD(half, x) ({ half lo_, hi_; memcpy(&lo_, &(x), sizeof lo_); \
    memcpy(&hi_, (char *)&(x) + sizeof lo_, sizeof hi_); lo_ + hi_; })

/* The columns come in panels of PANEL (the last one narrower), and a
   dot product or a row's sum of squares is the sum of its panels'
   partials, each reduced as above, added in panel order: a function of
   d alone, whichever thread computes which panel. */
#define PANEL @PANEL@

/* Phase 1 works on TILE of a group's targets at a time, their vectors
   (and a skip-gram window's sums) held in registers; nt <= TILE is the
   tile in hand, and BY_TILE calls a function made for it, so that each
   is compiled for a constant nt. */
#define TILE 6
#define BY_TILE(nt, CALL) switch (nt) { case 1: CALL(1); break; case 2: CALL(2); break; \
    case 3: CALL(3); break; case 4: CALL(4); break; case 5: CALL(5); break; default: CALL(TILE); }
#define INLINE static inline __attribute__((always_inline))

/* out[q] = the dot product of x and v_of[q], q < nt, x read once */
INLINE void dot_tile(const float *x, const float *const *v_of, int64_t d, float *out,
                     const int nt) {
    vf_t lanes[TILE], xv;
    for (int q = 0; q < nt; q++) lanes[q] = (vf_t){0};
    int64_t i = 0;
    for (; i + VF <= d; i += VF) {
        xv = VEC(vf, x + i);
        for (int q = 0; q < nt; q++) lanes[q] += xv * VEC(vf, v_of[q] + i);
    }
    for (int q = 0; q < nt; q++) {
        vf_t sum = lanes[q]; /* a copy, so that lanes stay in registers */
        if (i < d) {
            float s[VF];
            memcpy(s, &sum, sizeof s);
            for (int64_t k = i, l = 0; k < d; k++, l++) s[l] += x[k] * v_of[q][k];
            memcpy(&sum, s, sizeof s);
        }
        v8f_t r = FOLD(v8f_t, sum);
        v4f_t s = FOLD(v4f_t, r);
        out[q] = (s[0] + s[2]) + (s[1] + s[3]);
    }
}

static inline acc_t sumsq_acc(const acc_t *a, int64_t d) {
    va_t lanes = {0};
    int64_t i = 0;
    for (; i + VA <= d; i += VA) lanes += VEC(va, a + i) * VEC(va, a + i);
    for (int l = 0; i < d; i++, l++) lanes[l] += a[i] * a[i];
    v4a_t s = FOLD(v4a_t, lanes);
    return (s[0] + s[2]) + (s[1] + s[3]);
}

/* count of cdf entries <= u, i.e. np.searchsorted(cdf, u, side="right"),
   through a guide table (Chen and Asau): `buckets` is a power of two, so
   k = u * buckets is exact, and guide[k], the count at u = k / buckets,
   is where the answer for any u of bucket k starts; the scan meets
   n / buckets <= 1 entries on average */
static inline int64_t cdf_upper(const double *cdf, int64_t n, const int32_t *guide,
                                int64_t buckets, double u) {
    int64_t i = guide[(int64_t)(u * (double)buckets)];
    while (i < n && cdf[i] <= u) i++;
    return i;
}

void cdf_search(const double *cdf, int64_t vocab, const int32_t *guide, int64_t buckets,
                const double *u, int64_t n, int64_t *out) {
    for (int64_t i = 0; i < n; i++) out[i] = cdf_upper(cdf, vocab, guide, buckets, u[i]);
}

/* ---- threads ---------------------------------------------------------
   Nothing below decides a float: which thread computes a panel, or the
   terms of a unit, changes when the work is done, never its operands or
   their order. The barrier and the helpers' placement are the shared
   prologue's (repro.utils.cthreads). */
/* One more thread per this much of a mean batch, counted as d times the
   d-wide vectors it passes over (one per target of a unit, one per input
   row), and never more threads than panels.
   Below it the barriers of a batch cost what a thread saves:
   measured at d = 128, a second thread gained nothing on batches of 128
   skip-gram pairs (1.75 of these units) and 27 % on batches of 256. */
#define MIN_WORK_PER_THREAD (1 << 16)

/* One call's inputs, and what the threads share of the batch in hand. A
   *unit* is what phase 1 scores against a group's 1 + negative targets:
   the group's mean in CBOW, each of its input rows in skip-gram. dots
   holds its panels' partial dot products, panel by panel; coefs and
   logs, the 1 + negative coefficients and log terms it yields; norms,
   the partial sums of squares of the rows the batch touches. */
typedef struct {
    float *w_in, *w_out;
    int64_t vocab, d, panels, negative, batches;
    int64_t cbow; /* 1: a group's rows are averaged into h; 0: each row is scored */
    const int64_t *batch_off; /* batches + 1 group offsets */
    const int32_t *in_rows;
    const int64_t *row_start; /* groups + 1 offsets into in_rows */
    const int32_t *out_pos;
    const double *u, *cdf, *lr;
    const int32_t *guide;
    int64_t buckets;
    double clip;
    double *losses;
    float *dots, *coefs, *logs;
    int64_t dot_stride, norm_stride;
    acc_t *norms;
    team_t team;
} run_t;

/* One thread's own memory and its columns, [c0, c0 + cols): panels [p0,
   p1). Everything it writes per column is its own, in rows of its
   columns alone, so that no cache line holds two threads' columns: the
   weights (a copy, unless it holds every column), h (the mean of a CBOW
   group's input rows, per group of the batch), gh (the float32 gradient
   of what a unit scored, per unit of the group in hand) and acc (the
   summed step of every row the batch touches). Every thread with panels
   draws the batch's negatives and numbers the touched rows itself, in
   the order they are met, so that all of them number them alike; slot
   maps a row of w_out, then of w_in, to its number, and holds -1
   between batches. */
typedef struct {
    _Alignas(64) run_t *run; /* a line of its own: rows grows as rows are met */
    int64_t id, p0, p1, c0, cols, ws, rows;
    double neg_lr;   /* of the batch in hand */
    float *in, *out; /* column c0 of row 0 of w_in, w_out, whose row stride is ws */
    int64_t *negs;
    float *h, *gh;
    acc_t *acc, **to_in;
    int32_t *slot;
    int64_t *row; /* per touched row: its index into slot */
} worker_t;

static inline int64_t group_size(const run_t *r, int64_t g) { return r->row_start[g + 1] - r->row_start[g]; }

/* the first unit of group g of the batch starting at g0 */
static inline int64_t first_unit(const run_t *r, int64_t g0, int64_t g) {
    return r->cbow ? g - g0 : r->row_start[g] - r->row_start[g0];
}

static inline float *coefs_of(const run_t *r, int64_t unit) { return r->coefs + unit * (r->negative + 1); }

/* target t of group g, the lg-th of its batch: its positive, then its negatives */
static inline int64_t target(const worker_t *w, int64_t g, int64_t lg, int64_t t) {
    return t == 0 ? w->run->out_pos[g] : w->negs[lg * w->run->negative + t - 1];
}

/* this thread's columns of the vectors of targets t0 .. t0 + nt - 1 of
   group g; returns nt */
static inline int tile_targets(const worker_t *w, int64_t g, int64_t lg, int64_t t0,
                               const float **v_of) {
    int64_t left = w->run->negative + 1 - t0;
    int nt = left < TILE ? (int)left : TILE;
    for (int q = 0; q < nt; q++) v_of[q] = w->out + target(w, g, lg, t0 + q) * w->ws;
    return nt;
}

/* this thread's columns of the vector CBOW group g (the lg-th of its
   batch) scores its targets with: the mean of its input rows, which for
   one row is the row itself */
static inline const float *hidden(const worker_t *w, int64_t g, int64_t lg) {
    const run_t *r = w->run;
    if (group_size(r, g) == 1) return w->in + (int64_t)r->in_rows[r->row_start[g]] * w->ws;
    return w->h + lg * w->cols;
}

static inline int64_t panel_width(const run_t *r, int64_t p) {
    return r->d - p * PANEL < PANEL ? r->d - p * PANEL : PANEL;
}

/* this thread's acc row of touched row `row` of w_out (in = 0) or w_in
   (in = 1), zeroed when the batch first meets it */
static inline acc_t *step_of(worker_t *w, int64_t in, int64_t row) {
    int32_t *slot = w->slot + in * w->run->vocab + row;
    if (*slot < 0) {
        *slot = (int32_t)w->rows;
        w->row[w->rows] = in * w->run->vocab + row;
        memset(w->acc + w->rows * w->cols, 0, (size_t)w->cols * sizeof(acc_t));
        w->rows++;
    }
    return w->acc + (int64_t)*slot * w->cols;
}

static inline void prefetch_vector(const float *x, int64_t d) {
    for (int64_t i = 0; i < d; i += 16) __builtin_prefetch(x + i);
}

/* vectors are asked for a group ahead of their use: those group g reads,
   and the acc rows of those the batch has met */
static void prefetch_group(const worker_t *w, int64_t g, int64_t lg) {
    const run_t *r = w->run;
    const int32_t *rows = r->in_rows + r->row_start[g];
    for (int64_t j = 0; j < group_size(r, g) + r->negative + 1; j++) {
        int64_t in = j < group_size(r, g), row = in ? rows[j] : target(w, g, lg, j - group_size(r, g));
        int32_t s = w->slot[in * r->vocab + row];
        prefetch_vector((in ? w->in : w->out) + row * w->ws, w->cols);
        if (s >= 0) prefetch_vector((float *)(w->acc + s * w->cols), 2 * w->cols);
    }
}

/* the partial dot products of unit `unit`'s vector (x: this thread's
   columns) with targets t0 .. t0 + nt - 1 (v_of) over this thread's
   panels, read at the pre-batch weights */
static void panel_dots(const worker_t *w, const float *x, const float *const *v_of, int nt,
                       int64_t unit, int64_t t0) {
    const run_t *r = w->run;
    const float *v[TILE];
    for (int64_t p = w->p0; p < w->p1; p++) {
        int64_t c = p * PANEL - w->c0;
        float *out = r->dots + p * r->dot_stride + unit * (r->negative + 1) + t0;
        for (int q = 0; q < nt; q++) v[q] = v_of[q] + c;
#define DOTS(n) dot_tile(x + c, v, panel_width(r, p), out, n)
        BY_TILE(nt, DOTS)
#undef DOTS
    }
}

/* exp and log over VF lanes in float32, in place: Cephes' expf and logf,
   within about an ulp on the ranges used here (x in [-8, 8]; a log
   term's argument in [3e-4, 1]), and a function of this source alone,
   as libm's are not */

INLINE void exp_lanes(vf_t *v) {
    vf_t x = *v, fx = x * 1.44269504088896341f + 0.5f;
    vf_t n = __builtin_convertvector(__builtin_convertvector(fx, vi_t), vf_t);
    n += __builtin_convertvector(n > fx, vf_t); /* the truncation, floored */
    x -= n * 0.693359375f;
    x -= n * -2.12194440e-4f;
    vf_t z = x * x, p = 1.9875691500E-4f * x + 1.3981999507E-3f;
    p = p * x + 8.3334519073E-3f, p = p * x + 4.1665795894E-2f;
    p = p * x + 1.6666665459E-1f, p = p * x + 5.0000001201E-1f;
    vi_t scale = (__builtin_convertvector(n, vi_t) + 127) << 23;
    *v = (p * z + x + 1.0f) * BITS(vf_t, scale);
}

INLINE void log_lanes(vf_t *v) {
    vi_t bits = BITS(vi_t, *v), e = ((bits >> 23) & 0xff) - 126;
    bits = (bits & 0x807fffff) | 0x3f000000; /* the mantissa, in [1/2, 1) */
    vf_t m = BITS(vf_t, bits);
    vi_t low = m < 0.707106781186547524f;
    e += low;
    bits &= low;
    m = m + BITS(vf_t, bits) - 1.0f;
    vf_t fe = __builtin_convertvector(e, vf_t), z = m * m, y = 7.0376836292E-2f * m - 1.1514610310E-1f;
    y = y * m + 1.1676998740E-1f, y = y * m - 1.2420140846E-1f;
    y = y * m + 1.4249322787E-1f, y = y * m - 1.6668057665E-1f;
    y = y * m + 2.0000714765E-1f, y = y * m - 2.4999993993E-1f;
    y = y * m + 3.3333331174E-1f, y = y * m * z;
    y += -2.12194440e-4f * fe, y += -0.5f * z;
    *v = m + y + 0.693359375f * fe;
}

/* units [u0, u1), VF (unit, target) pairs at a time: the dot product,
   the sum of its panels' partials in panel order, clamped to [-8, 8];
   then s = sigmoid(f), the coefficient s - 1 for the positive and s for
   a negative, and the log term log(s + LOSS_EPS), or log(1 - s + ...) */
static void unit_terms(const run_t *r, int64_t u0, int64_t u1) {
    int64_t targets = r->negative + 1, k1 = u1 * targets;
    for (int64_t k0 = u0 * targets; k0 < k1; k0 += VF) {
        int64_t n = k1 - k0 < VF ? k1 - k0 : VF;
        vf_t f = {0}, s;
        vi_t pos;
        for (int64_t l = 0, t = k0 % targets; l < VF; l++, t = t + 1 < targets ? t + 1 : 0)
            pos[l] = -(t == 0);
        for (int64_t p = 0; p < r->panels; p++) {
            const float *part = r->dots + p * r->dot_stride + k0;
            if (n == VF)
                f = p ? f + VEC(vf, part) : VEC(vf, part);
            else
                for (int64_t l = 0; l < n; l++) f[l] = p ? f[l] + part[l] : part[l];
        }
        vi_t high = f > 8.0f, low = f < -8.0f;
        f = BITS(vf_t, (BITS(vi_t, f) & ~(high | low)) | (BITS(vi_t, (vf_t){0} + 8.0f) & high)
                 | (BITS(vi_t, (vf_t){0} - 8.0f) & low));
        s = -f;
        exp_lanes(&s);
        s = 1.0f / (1.0f + s);
        vf_t coef = s + __builtin_convertvector(pos, vf_t), term = 1.0f - s;
        term = BITS(vf_t, (BITS(vi_t, s) & pos) | (BITS(vi_t, term) & ~pos)) + LOSS_EPS;
        log_lanes(&term);
        if (n == VF) {
            VEC(vf, r->coefs + k0) = coef;
            VEC(vf, r->logs + k0) = term;
        }
        for (int64_t l = 0; n < VF && l < n; l++) {
            r->coefs[k0 + l] = coef[l];
            r->logs[k0 + l] = term[l];
        }
    }
}

/* a[i] += (acc_t)x[i] * neg_lr, VF lanes: a float32 gradient's step */
#define ADD_STEP(a, x, neg_lr) (VEC(vd, a) += __builtin_convertvector(x, vd_t) * (neg_lr))

/* For targets t0 .. t0 + nt - 1 of window g (vectors v_of, acc rows
   to), VF lanes at a time over this thread's columns: each target's sum
   of the rows' float32 gradients, summed in row order and stepped into
   the target's row; and each row's gh, summed in target order, and on
   the last tile stepped into the row's own. */
INLINE void spread_tile(worker_t *w, int64_t g, int64_t unit0, int64_t t0,
                        const float *const *v_of, acc_t *const *to, const int nt) {
    const run_t *r = w->run;
    int64_t m = group_size(r, g), i0 = 0, cols = w->cols, last = t0 + nt == r->negative + 1;
    const int32_t *rows = r->in_rows + r->row_start[g];
    const float *in = w->in;
    float *gh_of = w->gh;
    acc_t *const *to_in = w->to_in;
    int64_t ws = w->ws;
    double neg_lr = w->neg_lr;
    for (; i0 + VF <= cols; i0 += VF) {
        vf_t v[TILE], sum[TILE];
        for (int q = 0; q < nt; q++) {
            v[q] = VEC(vf, v_of[q] + i0);
            sum[q] = (vf_t){0};
        }
        for (int64_t j = 0; j < m; j++) {
            vf_t x = VEC(vf, in + (int64_t)rows[j] * ws + i0), gh = {0};
            float *at = gh_of + j * cols + i0;
            const float *c = coefs_of(r, unit0 + j) + t0;
            if (t0 > 0) gh = VEC(vf, at);
            for (int q = 0; q < nt; q++) {
                gh += c[q] * v[q];
                sum[q] += c[q] * x;
            }
            if (last) ADD_STEP(to_in[j] + i0, gh, neg_lr);
            else VEC(vf, at) = gh;
        }
        for (int q = 0; q < nt; q++) ADD_STEP(to[q] + i0, sum[q], neg_lr);
    }
    for (; i0 < cols; i0++) {
        float sum[TILE] = {0};
        for (int64_t j = 0; j < m; j++) {
            float x = in[(int64_t)rows[j] * ws + i0], *at = gh_of + j * cols + i0;
            float gh = t0 > 0 ? *at : 0.0f;
            const float *c = coefs_of(r, unit0 + j) + t0;
            for (int q = 0; q < nt; q++) {
                gh += c[q] * v_of[q][i0];
                sum[q] += c[q] * x;
            }
            if (last) to_in[j][i0] += (acc_t)gh * neg_lr;
            else *at = gh;
        }
        for (int q = 0; q < nt; q++) to[q][i0] += (acc_t)sum[q] * neg_lr;
    }
}

/* Phase 1 of group g of the batch starting at g0, up to the terms, in
   this thread's panels: a CBOW group's mean of its input rows, then the
   partial dot products of each of its units. */
static void group_dots(const worker_t *w, int64_t g0, int64_t g) {
    const run_t *r = w->run;
    int64_t m = group_size(r, g), lg = g - g0, unit0 = first_unit(r, g0, g);
    const int32_t *rows = r->in_rows + r->row_start[g];
    const float *v_of[TILE];
    if (r->cbow && m > 1) {
        float *restrict mean = w->h + lg * w->cols;
        float inv = (float)(1.0 / (double)m);
        memset(mean, 0, (size_t)w->cols * sizeof(float));
        for (int64_t j = 0; j < m; j++) {
            const float *x = w->in + (int64_t)rows[j] * w->ws;
            for (int64_t i = 0; i < w->cols; i++) mean[i] += inv * x[i];
        }
    }
    for (int64_t t0 = 0; t0 <= r->negative; t0 += TILE) {
        int nt = tile_targets(w, g, lg, t0, v_of);
        for (int64_t j = 0; j < (r->cbow ? 1 : m); j++)
            panel_dots(w, r->cbow ? hidden(w, g, lg) : w->in + (int64_t)rows[j] * w->ws, v_of, nt,
                       unit0 + j, t0);
    }
}

/* ... and after the terms, in this thread's columns, the steps of group
   g into the acc rows, in the order a single thread meets them: a
   skip-gram window's by spread_tile; a CBOW group's output rows
   receiving each a coefficient times h, then its input rows each the
   group's gh over the group's size. */
static void group_steps(worker_t *w, int64_t g0, int64_t g) {
    const run_t *r = w->run;
    int64_t lg = g - g0, targets = r->negative + 1, m = group_size(r, g), cols = w->cols;
    const int32_t *rows = r->in_rows + r->row_start[g];
    const float *v_of[TILE];
    acc_t *to[TILE];
    if (!r->cbow) {
        for (int64_t t0 = 0; t0 < targets; t0 += TILE) {
            int nt = tile_targets(w, g, lg, t0, v_of);
            for (int q = 0; q < nt; q++) to[q] = step_of(w, 0, target(w, g, lg, t0 + q));
            for (int64_t j = 0; t0 + nt == targets && j < m; j++) w->to_in[j] = step_of(w, 1, rows[j]);
#define SPREAD(n) spread_tile(w, g, first_unit(r, g0, g), t0, v_of, to, n)
            BY_TILE(nt, SPREAD)
#undef SPREAD
        }
        return;
    }
    float *restrict gh = w->gh;
    const float *restrict h = hidden(w, g, lg), *coef = coefs_of(r, lg);
    double neg_lr = w->neg_lr, count = (double)m;
    for (int64_t t = 0; t < targets; t++) {
        const float *restrict v = w->out + target(w, g, lg, t) * w->ws;
        acc_t *restrict a = step_of(w, 0, target(w, g, lg, t));
        float c = coef[t];
        if (t == 0)
            for (int64_t i = 0; i < cols; i++) gh[i] = c * v[i];
        else
            for (int64_t i = 0; i < cols; i++) gh[i] += c * v[i];
        for (int64_t i = 0; i < cols; i++) a[i] += (acc_t)(c * h[i]) * neg_lr;
    }
    for (int64_t j = 0; j < m; j++) {
        acc_t *restrict a = step_of(w, 1, rows[j]);
        /* every input row of the group receives the mean gradient */
        for (int64_t i = 0; i < cols; i++)
            a[i] += (m == 1 ? (acc_t)gh[i] : (acc_t)gh[i] / count) * neg_lr;
    }
}

/* mean loss of the batch in hand over its `units` units, summed in unit order */
static double batch_loss(const run_t *r, int64_t units) {
    double loss_pos = 0.0, loss_neg = 0.0;
    for (int64_t k = 0; k < units; k++) {
        const float *logs = r->logs + k * (r->negative + 1);
        loss_pos += (double)logs[0];
        for (int64_t t = 1; t <= r->negative; t++) loss_neg += (double)logs[t];
    }
    return -(loss_pos / (double)units) - (loss_neg / (double)units);
}

/* each touched row's summed step, clipped by the norm its panels'
   partials make, added in panel order, and added in this thread's
   columns; the slots are cleared for the next batch */
static void add_rows(worker_t *w) {
    const run_t *r = w->run;
    for (int64_t s = 0; s < w->rows; s++) {
        const acc_t *acc = w->acc + s * w->cols;
        acc_t scale = 1.0;
        if (r->clip >= 0.0) {
            acc_t sq = r->norms[s];
            for (int64_t p = 1; p < r->panels; p++) sq += r->norms[p * r->norm_stride + s];
            acc_t norm = sqrt(sq), ratio = r->clip / (norm > 1e-12 ? norm : 1e-12);
            scale = ratio < 1.0 ? ratio : 1.0;
        }
        int64_t in = w->row[s] >= r->vocab, row = w->row[s] - in * r->vocab;
        float *restrict to = (in ? w->in : w->out) + row * w->ws;
        for (int64_t i = 0; i < w->cols; i++) to[i] += (float)(acc[i] * scale);
        w->slot[w->row[s]] = -1;
    }
}

/* a thread with a copy of its columns fills it first and writes it back last */
static void copy_columns(const worker_t *w, int back) {
    const run_t *r = w->run;
    size_t bytes = (size_t)w->cols * sizeof(float);
    for (int64_t row = 0; w->ws != r->d && row < r->vocab; row++) {
        float *in = r->w_in + row * r->d + w->c0, *out = r->w_out + row * r->d + w->c0;
        memcpy(back ? in : w->in + row * w->ws, back ? w->in + row * w->ws : in, bytes);
        memcpy(back ? out : w->out + row * w->ws, back ? w->out + row * w->ws : out, bytes);
    }
}

/* What every thread of a call runs, batch after batch. With more than
   one, phase 1 meets two barriers: after the partial dot products, and
   after the terms, which the threads share by unit range; and a clip a
   third, once every touched row's partial norms are in. Rows are added
   at the end of a batch, all of whose steps read the pre-batch weights.
   A thread past the last panel only takes its share of terms. */
static void train_batches(worker_t *w) {
    run_t *r = w->run;
    int64_t threads = r->team.threads, own = w->p0 < w->p1;
    if (own) copy_columns(w, 0);
    for (int64_t b = 0; b < r->batches; b++) {
        int64_t g0 = r->batch_off[b], g1 = r->batch_off[b + 1], units = first_unit(r, g0, g1);
        w->neg_lr = -r->lr[b];
        w->rows = 0;
        for (int64_t g = g0; own && g <= g1; g++) {
            if (g < g1) {
                cdf_search(r->cdf, r->vocab, r->guide, r->buckets, r->u + g * r->negative,
                           r->negative, w->negs + (g - g0) * r->negative);
                prefetch_group(w, g, g - g0);
            }
            if (g > g0) group_dots(w, g0, g - 1);
        }
        barrier_wait(&r->team.barrier);
        unit_terms(r, units * w->id / threads, units * (w->id + 1) / threads);
        barrier_wait(&r->team.barrier);
        for (int64_t g = g0; own && g < g1; g++) {
            if (g + 1 < g1) prefetch_group(w, g + 1, g + 1 - g0);
            group_steps(w, g0, g);
        }
        if (w->id == b % threads) r->losses[b] = batch_loss(r, units);
        for (int64_t s = 0; own && r->clip >= 0.0 && s < w->rows; s++)
            for (int64_t p = w->p0; p < w->p1; p++)
                r->norms[p * r->norm_stride + s] = sumsq_acc(w->acc + s * w->cols + p * PANEL - w->c0,
                                                             panel_width(r, p));
        if (threads > 1 && r->clip >= 0.0) barrier_wait(&r->team.barrier);
        if (own) add_rows(w);
    }
    if (own) copy_columns(w, 1);
}

static void *helper_main(void *arg) {
    worker_t *w = arg;
    team_ready(&w->run->team);
    train_batches(w);
    return NULL;
}

static inline size_t round64(size_t n) { return (n + 63) & ~(size_t)63; }

/* Trains batches [batch_off[b], batch_off[b + 1]) of groups, b <
   `batches` (>= 1), one after the other, each against the weights the
   one before left; losses[b] is batch b's mean loss. `threads` > 0 is
   used as given; otherwise the number of CPUs in the caller's affinity
   mask, limited by MIN_WORK_PER_THREAD, the panels and MAX_THREADS; the
   first threads take the panels, in as even runs as may be. negs ends
   holding the last batch's negatives. Returns the number of threads
   used, or -1 when memory ran out (before anything was touched). */
int64_t w2v_run(float *w_in, float *w_out, int64_t vocab, int64_t d, int64_t cbow,
                int64_t batches, const int64_t *batch_off,
                const int32_t *in_rows, const int64_t *row_start,
                const int32_t *out_pos, int64_t negative,
                const double *u, const double *cdf, const int32_t *guide, int64_t buckets,
                const double *lr, double clip, double *losses, int64_t threads,
                int64_t *negs) {
    run_t run = {
        .w_in = w_in, .w_out = w_out, .vocab = vocab, .d = d, .panels = (d + PANEL - 1) / PANEL,
        .negative = negative, .batches = batches, .cbow = cbow, .batch_off = batch_off,
        .in_rows = in_rows, .row_start = row_start, .out_pos = out_pos, .u = u, .cdf = cdf,
        .guide = guide, .buckets = buckets, .lr = lr, .clip = clip, .losses = losses,
    };
    worker_t workers[MAX_THREADS];
    int64_t groups = batch_off[batches], rows = row_start[groups];
    int64_t max_groups = 0, max_rows = 0, max_size = 0;
    int64_t vectors = (cbow ? groups : rows) * (1 + negative) + rows;
    int64_t shares = vectors / batches * d / MIN_WORK_PER_THREAD;
    threads = team_size(&run.team, threads, shares < run.panels ? shares : run.panels);
    for (int64_t b = 0; b < batches; b++) {
        int64_t g0 = batch_off[b], g1 = batch_off[b + 1], n = row_start[g1] - row_start[g0];
        max_groups = g1 - g0 > max_groups ? g1 - g0 : max_groups;
        max_rows = n > max_rows ? n : max_rows;
    }
    for (int64_t g = 0; g < groups; g++)
        max_size = group_size(&run, g) > max_size ? group_size(&run, g) : max_size;
    int64_t max_targets = max_groups * (1 + negative), units = cbow ? max_groups : max_rows;
    int64_t touched = (max_targets < vocab ? max_targets : vocab) + (max_rows < vocab ? max_rows : vocab);
    run.dot_stride = (int64_t)(round64((size_t)(units * (1 + negative)) * sizeof(float)) / sizeof(float));
    run.norm_stride = (int64_t)(round64((size_t)touched * sizeof(acc_t)) / sizeof(acc_t));

    for (int64_t t = 0; t < threads; t++)
        workers[t] = (worker_t){.run = &run, .id = t};
    threads = team_start(&run.team, threads, helper_main, workers, sizeof *workers);
    int64_t cols = (run.panels + threads - 1) / threads * PANEL;
    cols = cols < d ? cols : d;
    /* threads sharing rows work on copies of their columns, unless the
       copies (in, and back out: four passes over the rows) would cost
       more than an eighth of the call's vector passes: at d = 128 on two
       threads, copies took 0.7x the time in place at 450 rows, 0.8x at
       16 k and 1.5x at 262 k (one call of 514 skip-gram batches) */
    int64_t copy = cols < d && 4 * 8 * vocab <= vectors;
    size_t sizes[] = { /* a thread's: */
        (size_t)(touched * cols) * sizeof(acc_t),            /* acc */
        (size_t)(copy ? vocab * cols : 0) * sizeof(float), /* the weights' copies */
        (size_t)(copy ? vocab * cols : 0) * sizeof(float),
        (size_t)((cbow ? max_groups : 0) * cols) * sizeof(float), /* h */
        (size_t)(max_size * cols) * sizeof(float),           /* gh */
        (size_t)max_size * sizeof(acc_t *),                  /* to_in */
        (size_t)(max_groups * negative) * sizeof(int64_t),   /* negs */
        (size_t)touched * sizeof(int64_t),                   /* row */
        (size_t)(2 * vocab) * sizeof(int32_t),               /* slot */
    };
    size_t shared = (size_t)((run.panels + 2) * run.dot_stride) * sizeof(float)
        + (size_t)(run.panels * run.norm_stride) * sizeof(acc_t), own_bytes = 0;
    for (size_t k = 0; k < sizeof sizes / sizeof *sizes; k++) own_bytes += round64(sizes[k]);
    void *block = NULL;
    int64_t ok = posix_memalign(&block, 64, shared + (size_t)threads * own_bytes) == 0;
    if (!ok) {
        block = NULL;
        run.batches = 0; /* the helpers start and stop at once */
    } else {
        run.dots = block;
        run.coefs = run.dots + run.panels * run.dot_stride;
        run.logs = run.coefs + run.dot_stride;
        run.norms = (acc_t *)(run.logs + run.dot_stride);
    }
    for (int64_t t = 0; ok && t < threads; t++) {
        worker_t *w = workers + t;
        char *at[sizeof sizes / sizeof *sizes], *own = (char *)block + shared + (size_t)t * own_bytes;
        for (size_t k = 0; k < sizeof sizes / sizeof *sizes; own += round64(sizes[k]), k++) at[k] = own;
        w->p0 = (t * run.panels + threads - 1) / threads;
        w->p1 = ((t + 1) * run.panels + threads - 1) / threads;
        w->c0 = w->p0 * PANEL < d ? w->p0 * PANEL : d;
        w->cols = (w->p1 * PANEL < d ? w->p1 * PANEL : d) - w->c0;
        w->ws = copy ? w->cols : d;
        w->acc = (acc_t *)at[0];
        w->in = copy ? (float *)at[1] : w_in + w->c0;
        w->out = copy ? (float *)at[2] : w_out + w->c0;
        w->h = (float *)at[3];
        w->gh = (float *)at[4];
        w->to_in = (acc_t **)at[5];
        w->negs = t == 0 ? negs : (int64_t *)at[6];
        w->row = (int64_t *)at[7];
        w->slot = (int32_t *)at[8];
        memset(w->slot, 0xff, sizes[8]);
    }
    team_go(&run.team);
    train_batches(workers);
    team_join(&run.team);
    free(block);
    return ok ? threads : -1;
}

/* ---- a block's windows and a run's groups ----------------------------
   The index work between the trainer's draws and w2v_run: no float is
   computed and nothing is drawn here. */

/* The windows of `rows` rows of `length` encoded tokens (-1: absent), as
   Word2Vec._windows builds them: the pair of positions i and i + d of a
   row is in when both are present and, for d >= 2, its uniform is below
   (window - d + 1) / window; u holds one per left position i < length -
   d of every row, row-major, distance after distance. Every position
   with a pair is a window, in corpus order: its center, its size and its
   contexts, at +1, -1, +2, -2, ... With centers NULL, counts[0] and
   counts[1] are set to how many windows and contexts there are;
   otherwise they are what centers and sizes, and contexts, hold, and the
   windows are written. Returns -1 when memory ran out or the windows do
   not fit, else 0. */
int64_t w2v_windows(const int32_t *tokens, int64_t rows, int64_t length, int64_t window,
                    const double *u, int64_t *counts, int32_t *centers, int64_t *sizes,
                    int32_t *contexts) {
    /* distances past the row hold no pair */
    int64_t far = window < length - 1 ? window : (length > 1 ? length - 1 : 0);
    /* keep + d * stride + far: whether the pair at distance d with left
       end i is in, 0 for i outside [0, length - d); tok + far: the row
       in hand, -1 beyond its ends; many: its positions' context counts;
       ctx: one position's contexts, where contexts cannot take them */
    int64_t stride = length + 2 * far + 1;
    uint8_t *keep = calloc((size_t)((far + 1) * stride), 1);
    int32_t *tok = malloc((size_t)stride * sizeof(int32_t));
    int32_t *many = malloc((size_t)stride * sizeof(int32_t));
    int32_t *ctx = malloc((size_t)(2 * far + 1) * sizeof(int32_t));
    double *p = malloc((size_t)(far + 1) * sizeof(double));
    int64_t windows = 0, pairs = 0, ok = keep && tok && many && ctx && p;
    for (int64_t d = 2; ok && d <= far; d++) p[d] = (double)(window - d + 1) / (double)window;
    for (int64_t i = 0; ok && i < far; i++) tok[i] = tok[far + length + i] = -1;
    for (int64_t r = 0; ok && r < rows; r++) {
        int32_t *row = tok + far;
        memcpy(row, tokens + r * length, (size_t)length * sizeof(int32_t));
        const double *ud = u;
        for (int64_t d = 1; d <= far; d++) {
            uint8_t *restrict k = keep + d * stride + far;
            int64_t left = length - d;
            if (d == 1)
                for (int64_t i = 0; i < left; i++) k[i] = (row[i] >= 0) & (row[i + 1] >= 0);
            else {
                for (int64_t i = 0; i < left; i++)
                    k[i] = (row[i] >= 0) & (row[i + d] >= 0) & (ud[r * left + i] < p[d]);
                ud += rows * left;
            }
        }
        if (!centers) {
            memset(many, 0, (size_t)length * sizeof(int32_t));
            for (int64_t d = 1; d <= far; d++) {
                const uint8_t *restrict k = keep + d * stride + far;
                for (int64_t i = 0; i < length; i++) many[i] += k[i] + k[i - d];
            }
            for (int64_t i = 0; i < length; i++) windows += many[i] > 0, pairs += many[i];
            continue;
        }
        for (int64_t i = 0; ok && i < length; i++) {
            /* every slot is written and the next one taken when its pair is
               in: straight into contexts while 2 * far more entries fit */
            int32_t *out = 2 * far <= counts[1] - pairs ? contexts + pairs : ctx;
            int64_t n = 0;
            for (int64_t d = 1; d <= far; d++) {
                const uint8_t *k = keep + d * stride + far;
                out[n] = row[i + d];
                n += k[i];
                out[n] = row[i - d];
                n += k[i - d];
            }
            ok = n <= counts[1] - pairs && (n == 0 || windows < counts[0]);
            if (ok && out == ctx) memcpy(contexts + pairs, ctx, (size_t)n * sizeof(int32_t));
            /* a position without a pair leaves what the next window overwrites */
            if (ok && windows < counts[0]) centers[windows] = row[i], sizes[windows] = n;
            windows += n > 0;
            pairs += n;
        }
    }
    if (ok && !centers) counts[0] = windows, counts[1] = pairs;
    free(keep), free(tok), free(many), free(ctx), free(p);
    return ok && windows == counts[0] && pairs == counts[1] ? 0 : -1;
}

/* One run's groups: for j < n, of window k = perm[j] of `windows`,
   whose contexts are contexts[starts[k] .. starts[k] + sizes[k]) of
   `pairs`, its size, its center, and its contexts back to back in rows,
   which holds `capacity`. Returns the rows written, or -1 (before writing
   past any end) when a window, its contexts or the rows are out of range. */
#define AHEAD 16
int64_t w2v_gather(const int64_t *perm, int64_t n, int64_t windows, const int64_t *starts,
                   const int64_t *sizes, const int32_t *centers, const int32_t *contexts,
                   int64_t pairs, int64_t *run_sizes, int32_t *run_pos, int32_t *rows,
                   int64_t capacity) {
    int64_t at = 0;
    for (int64_t j = 0; j < n; j++) {
        /* the windows come in random order, so each one's entries are
           asked for AHEAD windows early, and its contexts, whose start is
           one of them, AHEAD / 2 windows early */
        int64_t a = j + AHEAD < n ? perm[j + AHEAD] : -1;
        int64_t b = j + AHEAD / 2 < n ? perm[j + AHEAD / 2] : -1;
        if (a >= 0 && a < windows)
            __builtin_prefetch(starts + a), __builtin_prefetch(sizes + a), __builtin_prefetch(centers + a);
        if (b >= 0 && b < windows && starts[b] >= 0 && starts[b] < pairs)
            __builtin_prefetch(contexts + starts[b]);
        int64_t k = perm[j];
        if (k < 0 || k >= windows) return -1;
        int64_t s = starts[k], m = sizes[k];
        if (s < 0 || m < 0 || s > pairs || m > pairs - s || m > capacity - at) return -1;
        run_sizes[j] = m;
        run_pos[j] = centers[k];
        memcpy(rows + at, contexts + s, (size_t)m * sizeof(int32_t));
        at += m;
    }
    return at;
}
""".replace("@PANEL@", str(PANEL_COLUMNS))

_F32P = ctypes.POINTER(ctypes.c_float)
_F64P = ctypes.POINTER(ctypes.c_double)
_I32P = ctypes.POINTER(ctypes.c_int32)
_I64P = ctypes.POINTER(ctypes.c_int64)


def _load(so_path: str):
    lib = ctypes.CDLL(so_path)
    lib.w2v_run.restype = ctypes.c_int64
    lib.w2v_run.argtypes = [
        _F32P, _F32P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, _I64P, _I32P, _I64P, _I32P, ctypes.c_int64,
        _F64P, _F64P, _I32P, ctypes.c_int64, _F64P, ctypes.c_double, _F64P, ctypes.c_int64, _I64P,
    ]
    lib.w2v_windows.restype = ctypes.c_int64
    lib.w2v_windows.argtypes = [
        _I32P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _F64P, _I64P, _I32P, _I64P, _I32P,
    ]
    lib.w2v_gather.restype = ctypes.c_int64
    lib.w2v_gather.argtypes = [
        _I64P, ctypes.c_int64, ctypes.c_int64, _I64P, _I64P, _I32P, _I32P, ctypes.c_int64,
        _I64P, _I32P, _I32P, ctypes.c_int64,
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


def window_draws(shape: tuple[int, int], window: int) -> int:
    """Uniforms a block of ``shape`` (rows, width) draws for its window
    masks: one per left position of a pair at each distance 2..``window``
    that fits in a row (distance 1 is always in)."""
    rows, width = shape
    return rows * sum(width - dist for dist in range(2, min(window, width - 1) + 1))


def cdf_guide(cdf: np.ndarray) -> np.ndarray:
    """The guide table of the kernel's inverse-CDF search: for ``K``, the
    power of two at or above ``cdf.size``, entry ``k`` is the count of
    ``cdf`` entries ``<= k / K`` (int32: the kernel's rows are)."""
    buckets = 1 << (cdf.size - 1).bit_length()
    return np.searchsorted(cdf, np.arange(buckets) / buckets, side="right").astype(np.int32)


class BatchScratch:
    """What the C batch update keeps between calls, owned by one trainer.

    Sized from the vocabulary, the dimension, the trainer's ``mode`` and
    the largest batch it will issue (``max_in_rows`` input rows in
    ``max_groups`` groups with ``negative`` negatives each): the
    negatives of the last batch and the guide table of the last CDF
    searched. What a batch needs besides (the panels' partials, the
    units' terms, and each thread's vectors and accumulators in its
    columns) is allocated by the call, which knows the thread count. A
    trainer rebuilds the scratch when ``expand_vocab`` swaps its matrices.
    """

    def __init__(
        self, vocab: int, dim: int, max_in_rows: int, max_groups: int, negative: int, mode: str
    ):
        if mode not in ("skipgram", "cbow"):
            raise TrainingError(f"learn kernel: mode must be skipgram or cbow, got {mode!r}")
        if max_in_rows + max_groups * (negative + 1) >= 2**31:
            raise TrainingError("learn kernel: a batch must stay below 2**31 targets and rows")
        self.vocab = vocab
        self.dim = dim
        self.max_in_rows = max_in_rows
        self.max_groups = max_groups
        self.negative = negative
        self.mode = mode
        self._cdf = self._guide = None
        #: negative indices of the last batch, one row per group
        self.neg = np.empty((max_groups, negative), dtype=np.int64)
        #: threads the last run used (1: no helper thread was created)
        self.threads = 0

    def guide(self, cdf: np.ndarray) -> np.ndarray:
        """:func:`cdf_guide` of ``cdf``, built once for a read-only CDF
        (a sampler's) and again for every call with a writeable one."""
        if cdf is not self._cdf or cdf.flags.writeable:
            self._cdf, self._guide = cdf, cdf_guide(cdf)
        return self._guide


class CTrainKernel:
    """ctypes-driven C batch update (see the module docstring)."""

    name = "cnative"

    def __init__(self, compiler: str):
        t0 = time.perf_counter()
        self._lib = _load(
            compile_cached(_C_SOURCE, "repro-learn-kernel", compiler, libs=("-lm", "-pthread"))
        )
        #: one-off compile (or cache hit) + load seconds
        self.compile_seconds = time.perf_counter() - t0

    def run(
        self, w_in, w_out, in_rows, sizes, out_pos, u, cdf, offsets, lrs, max_row_step,
        scratch: BatchScratch, *, threads: int | None = None,
    ) -> np.ndarray:
        """A run of consecutive mini-batch updates in place; returns the
        mean loss of each.

        ``in_rows`` (int32) are the input rows of all groups back to
        back, ``sizes`` (int64) how many each group owns, ``out_pos``
        (int32) each group's positive output row (a CBOW window's center,
        or the center a skip-gram window's rows are each scored against),
        ``u`` the ``(groups, negative)`` float64 uniforms the group's
        negatives are read from through ``cdf``; ``scratch.mode`` says
        which update. Batch ``b`` is groups ``offsets[b]:offsets[b + 1]``
        (int64) and steps at ``lrs[b]`` (float64) against the weights
        batch ``b - 1`` left. Afterwards ``scratch.neg[:k]`` holds the
        negative indices of the last batch's ``k`` groups and
        ``scratch.threads`` how many threads ran.
        ``threads`` forces that number, for tests and benchmarks: the
        results do not depend on it, and a trainer never passes it.
        Every precondition the C code relies on is checked here, over
        the whole run; a violation raises
        :class:`~repro.errors.TrainingError` before anything is touched.
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
        _check_array("sizes", sizes, np.int64, 1)
        if sizes.size != groups or (groups and sizes.min() < 1) or sizes.sum() != in_rows.size:
            raise TrainingError("learn kernel: sizes must be >= 1 and sum to in_rows.size")
        row_start = np.zeros(groups + 1, dtype=np.int64)
        np.cumsum(sizes, out=row_start[1:])
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
        _check_array("offsets", offsets, np.int64, 1)
        batch_groups = np.diff(offsets)
        if (
            offsets.size == 0 or offsets[0] != 0 or offsets[-1] != groups
            or (batch_groups.size and batch_groups.min() < 1)
        ):
            raise TrainingError(
                f"learn kernel: batch offsets must start at 0, increase strictly and end at {groups}"
            )
        _check_array("lrs", lrs, np.float64, 1)
        if lrs.size != batch_groups.size:
            raise TrainingError("learn kernel: one learning rate per batch expected")
        if max_row_step is not None and not max_row_step >= 0.0:
            raise TrainingError("learn kernel: max_row_step must be >= 0 or None")
        if threads is not None and not 1 <= threads <= MAX_THREADS:
            raise TrainingError(f"learn kernel: threads must lie in [1, {MAX_THREADS}]")
        losses = np.empty(batch_groups.size, dtype=np.float64)
        if losses.size == 0:
            return losses
        batch_rows = np.diff(row_start[offsets])
        if batch_groups.max() > scratch.max_groups or batch_rows.max() > scratch.max_in_rows:
            raise TrainingError("learn kernel: batch larger than the scratch was sized for")
        guide = scratch.guide(cdf)
        used = self._lib.w2v_run(
            w_in.ctypes.data_as(_F32P), w_out.ctypes.data_as(_F32P), vocab, dim,
            int(scratch.mode == "cbow"), losses.size, offsets.ctypes.data_as(_I64P),
            in_rows.ctypes.data_as(_I32P), row_start.ctypes.data_as(_I64P),
            out_pos.ctypes.data_as(_I32P), scratch.negative,
            u.ctypes.data_as(_F64P), cdf.ctypes.data_as(_F64P),
            guide.ctypes.data_as(_I32P), guide.size, lrs.ctypes.data_as(_F64P),
            -1.0 if max_row_step is None else float(max_row_step),
            losses.ctypes.data_as(_F64P), threads or 0, scratch.neg.ctypes.data_as(_I64P),
        )
        if used < 1:
            raise TrainingError("learn kernel: out of memory for the threads' work buffers")
        scratch.threads = used
        return losses

    def windows(self, encoded: np.ndarray, window: int, u: np.ndarray):
        """:meth:`Word2Vec._windows <repro.embedding.word2vec.Word2Vec._windows>`
        of an encoded block (int32, -1 absent), from the uniforms it
        draws, one :func:`window_draws` stream, distance after distance:
        ``(centers, sizes, contexts)``, counted first so that each is
        exactly as long as it needs to be."""
        _check_array("encoded", encoded, np.int32, 2)
        _check_array("u", u, np.float64, 1)
        if not window >= 1:
            raise TrainingError(f"learn kernel: window must be >= 1, got {window!r}")
        draws = window_draws(encoded.shape, int(window))
        if u.size != draws:
            raise TrainingError(f"learn kernel: u must hold {draws} uniforms, got {u.size}")
        counts = np.empty(2, dtype=np.int64)
        args = [encoded.ctypes.data_as(_I32P), *encoded.shape, int(window), u.ctypes.data_as(_F64P),
                counts.ctypes.data_as(_I64P)]
        if self._lib.w2v_windows(*args, None, None, None) < 0:
            raise TrainingError("learn kernel: out of memory for the window masks")
        centers = np.empty(counts[0], dtype=np.int32)
        sizes = np.empty(counts[0], dtype=np.int64)
        contexts = np.empty(counts[1], dtype=np.int32)
        if self._lib.w2v_windows(
            *args, centers.ctypes.data_as(_I32P), sizes.ctypes.data_as(_I64P),
            contexts.ctypes.data_as(_I32P),
        ) < 0:
            raise TrainingError("learn kernel: out of memory for the window masks")
        return centers, sizes, contexts

    def gather(self, perm, starts, sizes, centers, contexts, out: np.ndarray):
        """One run's ``(in_rows, sizes, out_pos)`` for :meth:`run`: the
        windows ``perm`` names, in its order, of a block whose window
        ``k`` owns ``contexts[starts[k] : starts[k] + sizes[k]]`` — what
        ``contexts[concat_ranges(starts[perm], sizes[perm])[0]]``,
        ``sizes[perm]`` and ``centers[perm]`` are. ``in_rows`` is the
        head of ``out`` (int32), which must hold them; an index out of
        range raises :class:`~repro.errors.TrainingError`."""
        for name, arr, dtype in (
            ("perm", perm, np.int64), ("starts", starts, np.int64), ("sizes", sizes, np.int64),
            ("centers", centers, np.int32), ("contexts", contexts, np.int32), ("out", out, np.int32),
        ):
            _check_array(name, arr, dtype, 1)
        if not starts.size == sizes.size == centers.size or not out.flags.writeable:
            raise TrainingError(
                "learn kernel: one start, size and center per window, into a writeable out"
            )
        run_sizes = np.empty(perm.size, dtype=np.int64)
        out_pos = np.empty(perm.size, dtype=np.int32)
        rows = self._lib.w2v_gather(
            perm.ctypes.data_as(_I64P), perm.size, centers.size, starts.ctypes.data_as(_I64P),
            sizes.ctypes.data_as(_I64P), centers.ctypes.data_as(_I32P),
            contexts.ctypes.data_as(_I32P), contexts.size, run_sizes.ctypes.data_as(_I64P),
            out_pos.ctypes.data_as(_I32P), out.ctypes.data_as(_I32P), out.size,
        )
        if rows < 0:
            raise TrainingError(
                "learn kernel: a window, its contexts or the run's rows out of range"
            )
        return out[:rows], run_sizes, out_pos


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


__all__ = [
    "ACCUM_DTYPE", "BatchScratch", "CTrainKernel", "MAX_THREADS", "PANEL_COLUMNS",
    "cdf_guide", "resolve_train_kernel", "window_draws",
]
