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
trainer's per-block Python generator**. The kernel is a pure function of
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
is too small to share (``MIN_WORK_PER_THREAD`` in the source); they
live for the call and are joined before it returns, so nothing outlives
it: no pool, no lock held across calls, nothing a ``fork`` could copy
half-way. Every row of either matrix belongs to one thread (``row %
threads``). Within a batch, phase 1 is parallel over *groups*: a
group's negatives, and per *unit* (the CBOW mean, or a skip-gram row)
the ``1 + negative`` coefficients, log terms and float32 gradient, are
stored, all read at the pre-batch weights. After a
barrier, phase 2 is parallel over *rows*: every touched output row, and
after a second barrier every touched input row, is summed by its owner
from zero in (group, target) order — the order a single thread meets the
contributions in — into the thread's own :data:`ACCUM_DTYPE`
accumulator, clipped and added to the weights once; the loss is summed
serially in unit order. Every float is therefore produced from the
same operands in the same order whatever the thread count, and which
thread does it decides only when. (What the threads cost is in the
source too: three barriers a batch, waited at by spinning, then
yielding, and sleeping only when a partner is milliseconds behind; and
with two threads the rows of a small vocabulary cross between the CPUs'
caches once per batch, which is why vectors are prefetched a few steps
ahead.)

What is exact and what is toleranced. Integers are identical to the
reference: the C inverse-CDF search equals
:meth:`NegativeSampler.indices` for every ``u``, ties included. Floats
are a function of the source alone — every reduction's order written
out (fixed-lane partial sums within a vector, row ownership across
threads), built without ``-ffast-math`` or FMA contraction — so a fit
repeats bitwise run to run, for any stream sharding, any BLAS thread
count and any number of CPUs. Against the NumPy reference they differ
by summation order (``einsum`` and scipy pick their own; a skip-gram
window's per-target sums are float32, not acc_t: in acc_t they took a
quarter of phase 1 on the ``train_e2e`` shape, and float32 stays inside
the reference tolerance) and the last ulp of ``exp``/``log``: about
float32 eps × dim on one batch.

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

_C_SOURCE = C_THREADS + r"""
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

/* an unaligned vector load; a macro because a function returning a
   vector wider than the baseline ISA changes the ABI (-Wpsabi) */
#define LOAD(v, p) memcpy(&(v), (p), sizeof(v))

#define tree8(r) (((r[0] + r[4]) + (r[2] + r[6])) + ((r[1] + r[5]) + (r[3] + r[7])))

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
    vf_t lanes[TILE], xv, y;
    for (int q = 0; q < nt; q++) lanes[q] = (vf_t){0};
    int64_t i = 0;
    for (; i + VF <= d; i += VF) {
        LOAD(xv, x + i);
        for (int q = 0; q < nt; q++) {
            LOAD(y, v_of[q] + i);
            lanes[q] += xv * y;
        }
    }
    for (int q = 0; q < nt; q++) {
        float s[VF], r[8];
        memcpy(s, &lanes[q], sizeof lanes[q]);
        for (int64_t k = i, l = 0; k < d; k++, l++) s[l] += x[k] * v_of[q][k];
        for (int l = 0; l < 8; l++) r[l] = s[l] + s[l + 8];
        out[q] = tree8(r);
    }
}

static inline acc_t sumsq_acc(const acc_t *a, int64_t d) {
    va_t lanes = {0}, x;
    int64_t i = 0;
    for (; i + VA <= d; i += VA) {
        LOAD(x, a + i);
        lanes += x * x;
    }
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

/* a += (acc_t)(coef * x) * neg_lr : the float32 gradient, the step in acc_t */
static inline void add_step(acc_t *restrict a, const float *restrict x,
                            float coef, double neg_lr, int64_t d) {
    for (int64_t i = 0; i < d; i++) a[i] += (acc_t)(coef * x[i]) * neg_lr;
}

/* clip one row's summed step and add it, once */
static inline void apply_row(float *restrict w, const acc_t *restrict a,
                             int64_t d, double clip) {
    acc_t scale = 1.0;
    if (clip >= 0.0) {
        acc_t norm = sqrt(sumsq_acc(a, d));
        acc_t ratio = clip / (norm > 1e-12 ? norm : 1e-12);
        scale = ratio < 1.0 ? ratio : 1.0;
    }
    for (int64_t i = 0; i < d; i++) w[i] += (float)(a[i] * scale);
}

/* ---- threads ---------------------------------------------------------
   Nothing below decides a float: which thread scores a group or sums a
   row changes when the work is done, never its operands or their order.
   The barrier and the helpers' placement are the shared prologue's
   (repro.utils.cthreads). */
/* One more thread per this much of a mean batch, counted as d times the
   d-wide vectors it passes over (one per target of a unit, one per input
   row).
   Below it the three barriers of a batch cost what a thread saves:
   measured at d = 128, a second thread gained nothing on batches of 128
   skip-gram pairs (1.75 of these units) and 27 % on batches of 256. */
#define MIN_WORK_PER_THREAD (1 << 16)

/* One call's inputs, and what phase 1 stores for the batch in hand. A
   *unit* is what phase 1 scores against a group's 1 + negative targets:
   the group's mean in CBOW, each of its input rows in skip-gram. The
   small things a unit yields (1 + negative coefficients and as many log
   terms) make one record of whole cache lines, so that two threads scoring
   neighbouring units never write to one line; gh (the float32 gradient
   of what a unit scored) is a d-wide row per unit. Per group there are
   its negatives and, in CBOW, h (the mean of its input rows); in
   skip-gram, sums: per target, the float32 gradients of the group's rows
   summed in float32, in row order. */
typedef struct {
    float *w_in, *w_out;
    int64_t vocab, d, negative, batches;
    int64_t cbow; /* 1: a group's rows are averaged into h; 0: each row is scored */
    const int64_t *batch_off; /* batches + 1 group offsets */
    const int32_t *in_rows;
    const int64_t *row_start; /* groups + 1 offsets into in_rows */
    const int32_t *out_pos;
    const double *u, *cdf, *lr;
    double clip;
    double *losses;
    float *records;
    int64_t record_floats;
    int64_t *negs;
    float *h, *gh, *sums;
    uint64_t magic; /* 2^64 / threads rounded up: row / threads by one multiply */
    team_t team;
} run_t;

/* One thread's own memory: the accumulator of the row it is summing and
   the contributions to the rows it owns (row % threads == id), first as
   met, in (group, target) or (unit) order, then sorted by row, stably.
   slot[row / threads] is an owned row's place in `row` while that is
   being done, and -1 otherwise. */
typedef struct {
    run_t *run;
    int64_t id, rows;
    acc_t *acc;
    int32_t *slot;
    int32_t *quot, *grp, *ent; /* as met: row / threads, the group or unit, its vector */
    int32_t *row_grp, *row_ent; /* by row: the same */
    int32_t *row, *end; /* per touched row, in first-touch order: where its contributions end */
} worker_t;

static inline int64_t group_size(const run_t *r, int64_t g) {
    return r->row_start[g + 1] - r->row_start[g];
}

static inline float *coefs_of(const run_t *r, int64_t unit) {
    return r->records + unit * r->record_floats;
}

static inline float *logs_of(const run_t *r, int64_t unit) {
    return coefs_of(r, unit) + r->negative + 1;
}

static inline const int64_t *negatives_of(const run_t *r, int64_t lg) {
    return r->negs + lg * r->negative;
}

/* target t of group g, the lg-th of its batch: its positive, then its negatives */
static inline int64_t target(const run_t *r, int64_t g, int64_t lg, int64_t t) {
    return t == 0 ? r->out_pos[g] : negatives_of(r, lg)[t - 1];
}

/* the vectors of targets t0 .. t0 + nt - 1 of group g; returns nt */
static inline int tile_targets(const run_t *r, int64_t g, int64_t lg, int64_t t0,
                               const float **v_of) {
    int64_t left = r->negative + 1 - t0;
    int nt = left < TILE ? (int)left : TILE;
    for (int q = 0; q < nt; q++) v_of[q] = r->w_out + target(r, g, lg, t0 + q) * r->d;
    return nt;
}

/* the vector CBOW group g (the lg-th of its batch) scores its targets
   with: the mean of its input rows, which for one row is the row itself */
static inline const float *hidden(const run_t *r, int64_t g, int64_t lg) {
    if (group_size(r, g) == 1) return r->w_in + (int64_t)r->in_rows[r->row_start[g]] * r->d;
    return r->h + lg * r->d;
}

/* row / threads, exactly, for any int32 row: the error of the rounded-up
   reciprocal stays below 1 / threads as long as row * threads < 2^64 */
static inline int64_t row_div(const run_t *r, int64_t row) {
    if (r->team.threads == 1) return row;
    return (int64_t)(((unsigned __int128)(uint64_t)row * r->magic) >> 64);
}

/* A row another CPU wrote in the last batch is some hundred ns away, so
   vectors are asked for a few steps before they are used. */
#define AHEAD 4
static inline void prefetch_vector(const float *x, int64_t d, int for_write) {
    for (int64_t i = 0; i < d; i += 16) __builtin_prefetch(x + i, for_write);
}

/* Phase 1 for group g, the lg-th of its batch, comes in two steps so that
   the rows of one group travel while the group before is scored. First
   its negatives, and a prefetch of every vector the second step reads. */
static void draw_negatives(const run_t *r, int64_t g, int64_t lg) {
    int64_t d = r->d, negative = r->negative, m = group_size(r, g);
    const int32_t *rows = r->in_rows + r->row_start[g];
    cdf_search(r->cdf, r->vocab, r->u + g * negative, negative, r->negs + lg * negative);
    for (int64_t j = 0; j < m; j++) prefetch_vector(r->w_in + (int64_t)rows[j] * d, d, 0);
    for (int64_t t = 0; t <= negative; t++) prefetch_vector(r->w_out + target(r, g, lg, t) * d, d, 0);
}

/* A unit's dot products with its targets, the positive first, become in
   place the coefficients of its gradient, and its log terms are set. */
static void sigmoid_terms(float *coef, float *logs, int64_t targets) {
    for (int64_t t = 0; t < targets; t++) {
        float f = coef[t];
        float x = f < -8.0f ? -8.0f : (f > 8.0f ? 8.0f : f);
        float s = 1.0f / (1.0f + expf(-x));
        coef[t] = t == 0 ? s - 1.0f : s;
        logs[t] = logf((t == 0 ? s : 1.0f - s) + LOSS_EPS);
    }
}

/* CBOW: unit `unit` scores the vector h against group g's targets, read at the
   pre-batch weights: its coefficients, log terms and gh, in three passes
   over the 1 + negative targets. */
static void score_unit(const run_t *r, const float *restrict h, int64_t g, int64_t lg,
                       int64_t unit) {
    int64_t d = r->d, negative = r->negative;
    float *restrict gh = r->gh + unit * d;
    float *coef = coefs_of(r, unit), *logs = logs_of(r, unit);
    const float *v_of[TILE];
    for (int64_t t0 = 0; t0 <= negative; t0 += TILE) {
#define DOTS(n) dot_tile(h, v_of, d, coef + t0, n)
        BY_TILE(tile_targets(r, g, lg, t0, v_of), DOTS)
#undef DOTS
    }
    sigmoid_terms(coef, logs, negative + 1);
    for (int64_t t = 0; t <= negative; t++) {
        const float *restrict v = r->w_out + target(r, g, lg, t) * d;
        float c = coef[t];
        if (t == 0)
            for (int64_t i = 0; i < d; i++) gh[i] = c * v[i];
        else
            for (int64_t i = 0; i < d; i++) gh[i] += c * v[i];
    }
}

/* For targets t0 .. t0 + nt - 1 of window g (vectors v_of), VF lanes at
   a time: each row's gh, summed in target order, and each target's sum
   of the rows' float32 gradients, in row order. */
INLINE void spread_tile(const run_t *r, int64_t g, int64_t lg, int64_t unit0, int64_t t0,
                        const float *const *v_of, const int nt) {
    int64_t d = r->d, m = group_size(r, g), i0 = 0;
    const int32_t *rows = r->in_rows + r->row_start[g];
    float *sums = r->sums + (lg * (r->negative + 1) + t0) * d;
    for (; i0 + VF <= d; i0 += VF) {
        vf_t v[TILE], sum[TILE];
        for (int q = 0; q < nt; q++) {
            LOAD(v[q], v_of[q] + i0);
            sum[q] = (vf_t){0};
        }
        for (int64_t j = 0; j < m; j++) {
            vf_t x, gh = {0};
            LOAD(x, r->w_in + (int64_t)rows[j] * d + i0);
            float *to = r->gh + (unit0 + j) * d + i0;
            const float *c = coefs_of(r, unit0 + j) + t0;
            if (t0 > 0) LOAD(gh, to);
            for (int q = 0; q < nt; q++) {
                gh += c[q] * v[q];
                sum[q] += c[q] * x;
            }
            memcpy(to, &gh, sizeof gh);
        }
        for (int q = 0; q < nt; q++) memcpy(sums + q * d + i0, &sum[q], sizeof sum[q]);
    }
    for (; i0 < d; i0++) {
        for (int q = 0; q < nt; q++) sums[q * d + i0] = 0.0f;
        for (int64_t j = 0; j < m; j++) {
            float x = r->w_in[(int64_t)rows[j] * d + i0], *to = r->gh + (unit0 + j) * d + i0;
            float gh = t0 > 0 ? *to : 0.0f;
            const float *c = coefs_of(r, unit0 + j) + t0;
            for (int q = 0; q < nt; q++) {
                gh += c[q] * v_of[q][i0];
                sums[q * d + i0] += c[q] * x;
            }
            *to = gh;
        }
    }
}

/* Skip-gram phase 1 for window g, the lg-th of its batch, whose rows are
   units unit0, unit0 + 1, ...: first each row's coefficients and log
   terms against the window's targets, as a CBOW unit's; then spread_tile. */
static void score_window(const run_t *r, int64_t g, int64_t lg, int64_t unit0) {
    int64_t d = r->d, targets = r->negative + 1, m = group_size(r, g);
    const int32_t *rows = r->in_rows + r->row_start[g];
    const float *v_of[TILE];
    for (int64_t j = 0; j < m; j++) {
        const float *x = r->w_in + (int64_t)rows[j] * d;
        float *coef = coefs_of(r, unit0 + j), *logs = logs_of(r, unit0 + j);
        for (int64_t t0 = 0; t0 < targets; t0 += TILE) {
#define DOTS(n) dot_tile(x, v_of, d, coef + t0, n)
            BY_TILE(tile_targets(r, g, lg, t0, v_of), DOTS)
#undef DOTS
        }
        sigmoid_terms(coef, logs, targets);
    }
    for (int64_t t0 = 0; t0 < targets; t0 += TILE) {
#define SPREAD(n) spread_tile(r, g, lg, unit0, t0, v_of, n)
        BY_TILE(tile_targets(r, g, lg, t0, v_of), SPREAD)
#undef SPREAD
    }
}

/* Then everything else: a skip-gram window as above, a CBOW group as the
   mean of its input rows, scored as one unit. */
static void score_group(const run_t *r, int64_t g0, int64_t g) {
    int64_t d = r->d, m = group_size(r, g), lg = g - g0;
    if (!r->cbow) {
        score_window(r, g, lg, r->row_start[g] - r->row_start[g0]);
        return;
    }
    if (m > 1) {
        const int32_t *rows = r->in_rows + r->row_start[g];
        float *restrict mean = r->h + lg * d;
        float inv = (float)(1.0 / (double)m);
        memset(mean, 0, (size_t)d * sizeof(float));
        for (int64_t j = 0; j < m; j++) {
            const float *x = r->w_in + (int64_t)rows[j] * d;
            for (int64_t i = 0; i < d; i++) mean[i] += inv * x[i];
        }
    }
    score_unit(r, hidden(r, g, lg), g, lg, lg);
}

/* mean loss of the batch in hand over its `units` units, summed in unit order */
static double batch_loss(const run_t *r, int64_t units) {
    double loss_pos = 0.0, loss_neg = 0.0;
    for (int64_t k = 0; k < units; k++) {
        const float *logs = logs_of(r, k);
        loss_pos += (double)logs[0];
        for (int64_t t = 1; t <= r->negative; t++) loss_neg += (double)logs[t];
    }
    return -(loss_pos / (double)units) - (loss_neg / (double)units);
}

/* note contribution k (group or unit lg, vector e) to `row`; it is kept,
   and the next free k returned, only if this thread owns the row. No
   branch: which rows a thread owns is as good as random. */
static inline int32_t keep_owned(worker_t *w, int64_t row, int64_t lg, int64_t e, int32_t k) {
    int64_t q = row_div(w->run, row);
    w->quot[k] = (int32_t)q;
    w->grp[k] = (int32_t)lg;
    w->ent[k] = (int32_t)e;
    return k + (row - q * w->run->team.threads == w->id);
}

/* sort the n kept contributions by row, keeping the order they were met
   in within a row: a counting sort over the rows touched */
static void sort_by_row(worker_t *w, int32_t n) {
    const run_t *r = w->run;
    w->rows = 0;
    for (int32_t k = 0; k < n; k++) {
        int32_t s = w->slot[w->quot[k]];
        if (s < 0) {
            s = (int32_t)w->rows++;
            w->slot[w->quot[k]] = s;
            w->row[s] = (int32_t)(w->quot[k] * r->team.threads + w->id);
            w->end[s] = 0;
        }
        w->end[s]++;
        w->quot[k] = s;
    }
    int32_t at = 0;
    for (int64_t s = 0; s < w->rows; s++) {
        int32_t count = w->end[s];
        w->end[s] = at;
        at += count;
        w->slot[row_div(r, w->row[s])] = -1;
    }
    for (int32_t k = 0; k < n; k++) {
        int32_t to = w->end[w->quot[k]]++;
        w->row_grp[to] = w->grp[k];
        w->row_ent[to] = w->ent[k];
    }
}

/* Phase 2 of batch b, groups [g0, g0 + groups), for the output rows this
   thread owns: each is summed from zero in (group, target) order,
   clipped and added to the weights. A CBOW contribution is a record's
   coefficient times h, a skip-gram one a group's sum for the target.
   Reads w_in, writes w_out. */
static void update_out_rows(worker_t *w, int64_t b, int64_t g0, int64_t groups) {
    const run_t *r = w->run;
    int64_t d = r->d, targets = r->negative + 1;
    double neg_lr = -r->lr[b];
    acc_t *restrict acc = w->acc;
    int32_t n = 0;
    for (int64_t lg = 0; lg < groups; lg++) {
        int64_t e = r->cbow ? lg * r->record_floats : lg * targets;
        for (int64_t t = 0; t < targets; t++)
            n = keep_owned(w, target(r, g0 + lg, lg, t), lg, e + t, n);
    }
    sort_by_row(w, n);
    for (int64_t s = 0, i = 0; s < w->rows; s++) {
        int64_t next_row = s + 1 < w->rows ? s + 1 : s;
        prefetch_vector(r->w_out + (int64_t)w->row[next_row] * d, d, 1);
        memset(acc, 0, (size_t)d * sizeof(acc_t));
        for (; i < w->end[s]; i++) {
            int64_t a = i + AHEAD < n ? i + AHEAD : n - 1;
            if (r->cbow) {
                prefetch_vector(hidden(r, g0 + w->row_grp[a], w->row_grp[a]), d, 0);
                __builtin_prefetch(r->records + w->row_ent[a]);
                add_step(acc, hidden(r, g0 + w->row_grp[i], w->row_grp[i]),
                         r->records[w->row_ent[i]], neg_lr, d);
            } else {
                prefetch_vector(r->sums + (int64_t)w->row_ent[a] * d, d, 0);
                add_step(acc, r->sums + (int64_t)w->row_ent[i] * d, 1.0f, neg_lr, d);
            }
        }
        apply_row(r->w_out + (int64_t)w->row[s] * d, acc, d, r->clip);
    }
}

/* The same for the input rows this thread owns: a CBOW row receives its
   group's gh over the group's size, a skip-gram row its own unit's gh.
   Reads gh, writes w_in. */
static void update_in_rows(worker_t *w, int64_t b, int64_t g0, int64_t groups) {
    const run_t *r = w->run;
    int64_t d = r->d;
    double neg_lr = -r->lr[b];
    acc_t *restrict acc = w->acc;
    int32_t n = 0;
    for (int64_t lg = 0, unit = 0; lg < groups; lg++) {
        const int32_t *rows = r->in_rows + r->row_start[g0 + lg];
        int64_t m = group_size(r, g0 + lg);
        for (int64_t j = 0; j < m; j++, unit++) n = keep_owned(w, rows[j], r->cbow ? lg : unit, 0, n);
    }
    sort_by_row(w, n);
    for (int64_t s = 0, i = 0; s < w->rows; s++) {
        int64_t next_row = s + AHEAD < w->rows ? s + AHEAD : w->rows - 1;
        prefetch_vector(r->w_in + (int64_t)w->row[next_row] * d, d, 1);
        memset(acc, 0, (size_t)d * sizeof(acc_t));
        for (; i < w->end[s]; i++) {
            int64_t a = i + AHEAD < n ? i + AHEAD : n - 1;
            prefetch_vector(r->gh + (int64_t)w->row_grp[a] * d, d, 0);
            const float *restrict gh = r->gh + (int64_t)w->row_grp[i] * d;
            int64_t m = r->cbow ? group_size(r, g0 + w->row_grp[i]) : 1;
            if (m == 1) {
                add_step(acc, gh, 1.0f, neg_lr, d);
            } else {
                /* every input row of the group receives the mean gradient */
                double count = (double)m;
                for (int64_t j = 0; j < d; j++)
                    acc[j] += ((acc_t)gh[j] / count) * neg_lr;
            }
        }
        apply_row(r->w_in + (int64_t)w->row[s] * d, acc, d, r->clip);
    }
}

/* Which thread scores group g of the batch starting at g0: a CBOW group
   goes to the owner of its first input row, so that a lone row and its
   gradient stay in one CPU's cache; skip-gram groups are dealt out in
   consecutive runs of about the same number of rows, since a group's
   work grows with its rows and the rows of a window are many owners'. */
static inline int64_t scorer(const run_t *r, int64_t g0, int64_t g, int64_t batch_rows) {
    if (r->cbow) {
        int64_t row = r->in_rows[r->row_start[g]];
        return row - row_div(r, row) * r->team.threads;
    }
    return (r->row_start[g] - r->row_start[g0]) * r->team.threads / batch_rows;
}

/* What every thread of a call runs, batch after batch. Output rows are
   summed while w_in still holds the pre-batch rows they read, input rows
   after. */
static void train_batches(worker_t *w) {
    run_t *r = w->run;
    for (int64_t b = 0; b < r->batches; b++) {
        int64_t g0 = r->batch_off[b], g1 = r->batch_off[b + 1];
        int64_t batch_rows = r->row_start[g1] - r->row_start[g0];
        int64_t drawn = -1;
        for (int64_t g = g0; g < g1; g++) {
            if (scorer(r, g0, g, batch_rows) != w->id) continue;
            draw_negatives(r, g, g - g0);
            if (drawn >= 0) score_group(r, g0, drawn);
            drawn = g;
        }
        if (drawn >= 0) score_group(r, g0, drawn);
        barrier_wait(&r->team.barrier);
        if (w->id == b % r->team.threads)
            r->losses[b] = batch_loss(r, r->cbow ? g1 - g0 : batch_rows);
        update_out_rows(w, b, g0, g1 - g0);
        barrier_wait(&r->team.barrier);
        update_in_rows(w, b, g0, g1 - g0);
        barrier_wait(&r->team.barrier);
    }
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
   mask, limited by MIN_WORK_PER_THREAD and MAX_THREADS. max_kept bounds
   the output targets, and the input rows, of any one batch. slot is all -1
   on entry and on return, and holds vocab + 16 * MAX_THREADS entries.
   Returns the number of threads used, or -1 when memory ran out (before
   anything was touched). */
int64_t w2v_run(float *w_in, float *w_out, int64_t vocab, int64_t d, int64_t cbow,
                int64_t batches, const int64_t *batch_off,
                const int32_t *in_rows, const int64_t *row_start,
                const int32_t *out_pos, int64_t negative,
                const double *u, const double *cdf, const double *lr,
                double clip, double *losses, int64_t threads, int64_t max_kept,
                int32_t *slot, float *records, int64_t record_floats,
                int64_t *negs, float *h, float *gh, float *sums) {
    run_t run = {
        .w_in = w_in, .w_out = w_out, .vocab = vocab, .d = d, .negative = negative,
        .batches = batches, .cbow = cbow, .batch_off = batch_off, .in_rows = in_rows,
        .row_start = row_start, .out_pos = out_pos, .u = u, .cdf = cdf, .lr = lr,
        .clip = clip, .losses = losses, .records = records,
        .record_floats = record_floats, .negs = negs, .h = h, .gh = gh, .sums = sums,
    };
    worker_t workers[MAX_THREADS];
    int64_t groups = batch_off[batches], rows = row_start[groups];
    int64_t vectors = (cbow ? groups : rows) * (1 + negative) + rows;
    threads = team_size(&run.team, threads, vectors / batches * d / MIN_WORK_PER_THREAD);

    int64_t max_rows = max_kept < vocab ? max_kept : vocab;
    size_t acc_bytes = round64((size_t)d * sizeof(acc_t));
    size_t own_bytes = acc_bytes
        + round64((size_t)(5 * max_kept + 2 * max_rows) * sizeof(int32_t));
    void *block;
    if (posix_memalign(&block, 64, (size_t)threads * own_bytes)) return -1;
    char *memory = block;

    for (int64_t t = 0; t < threads; t++) {
        workers[t].run = &run;
        workers[t].id = t;
    }
    threads = team_start(&run.team, threads, helper_main, workers, sizeof *workers);
    run.magic = UINT64_MAX / (uint64_t)threads + 1;
    /* each thread's slots are whole cache lines of the shared map */
    int64_t slots = ((vocab + threads - 1) / threads + 15) & ~(int64_t)15;
    for (int64_t t = 0; t < threads; t++) {
        worker_t *w = workers + t;
        char *own = memory + (size_t)t * own_bytes;
        w->acc = (acc_t *)own;
        w->quot = (int32_t *)(own + acc_bytes);
        w->grp = w->quot + max_kept;
        w->ent = w->grp + max_kept;
        w->row_grp = w->ent + max_kept;
        w->row_ent = w->row_grp + max_kept;
        w->row = w->row_ent + max_kept;
        w->end = w->row + max_rows;
        w->slot = slot + t * slots;
    }
    team_go(&run.team);
    train_batches(workers);
    team_join(&run.team);
    free(block);
    return threads;
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
    lib.w2v_run.restype = ctypes.c_int64
    lib.w2v_run.argtypes = [
        _F32P, _F32P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, _I64P, _I32P, _I64P, _I32P, ctypes.c_int64,
        _F64P, _F64P, _F64P, ctypes.c_double, _F64P, ctypes.c_int64, ctypes.c_int64,
        _I32P, _F32P, ctypes.c_int64, _I64P, _F32P, _F32P, _F32P,
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


def _cache_aligned(count: int, dtype) -> np.ndarray:
    """``count`` uninitialised items starting on a 64-byte cache line, so
    that rows written by different threads share as few lines as may be."""
    nbytes = count * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(dtype)


class BatchScratch:
    """Work buffers of the C batch update, owned by one trainer.

    Sized from the vocabulary, the dimension, the trainer's ``mode`` and
    the largest batch it will issue (``max_in_rows`` input rows in
    ``max_groups`` groups with ``negative`` negatives each): what phase 1
    stores per unit of a batch (coefficients, log terms and the gradient
    of what it scored; a unit is a CBOW group or a skip-gram input row),
    per group (its negatives; the mean of its rows in CBOW, its summed
    target gradients in skip-gram) and the map from a row to its place
    among the rows a batch touches. Nothing here depends on the thread
    count; what does (one accumulator row and the sorted contributions
    per thread) is allocated by the call that knows it. A trainer
    rebuilds the scratch when ``expand_vocab`` swaps its matrices.
    """

    def __init__(
        self, vocab: int, dim: int, max_in_rows: int, max_groups: int, negative: int, mode: str
    ):
        if mode not in ("skipgram", "cbow"):
            raise TrainingError(f"learn kernel: mode must be skipgram or cbow, got {mode!r}")
        cbow = mode == "cbow"
        units = max_groups if cbow else max_in_rows
        # a unit's record: 1 + negative float32 coefficients and as many
        # log terms; whole cache lines
        record_floats = -(-(2 * negative + 2) // 16) * 16
        if max(units * record_floats, max_in_rows, max_groups * (negative + 1)) >= 2**31:
            raise TrainingError("learn kernel: a batch must stay below 2**31 targets and rows")
        self.vocab = vocab
        self.dim = dim
        self.max_in_rows = max_in_rows
        self.max_groups = max_groups
        self.negative = negative
        self.mode = mode
        #: all -1 between calls; padded so every thread's share can start
        #: on a cache line
        self.slot = _cache_aligned(vocab + 16 * MAX_THREADS, np.int32)
        self.slot.fill(-1)
        self.records = _cache_aligned(units * record_floats, np.float32)
        #: negative indices of the last batch, one row per group
        self.neg = _cache_aligned(max_groups * negative, np.int64).reshape(max_groups, negative)
        self.h = _cache_aligned(max_groups * dim if cbow else 0, np.float32)
        self.gh = _cache_aligned(units * dim, np.float32)
        self.sums = _cache_aligned(0 if cbow else max_groups * (negative + 1) * dim, np.float32)
        #: threads the last run used (1: no helper thread was created)
        self.threads = 0
        #: the buffers above as the trailing arguments of ``w2v_run``,
        #: converted once: they live, unmoved, as long as this object
        self.pointers = (
            self.slot.ctypes.data_as(_I32P), self.records.ctypes.data_as(_F32P), record_floats,
            self.neg.ctypes.data_as(_I64P), self.h.ctypes.data_as(_F32P),
            self.gh.ctypes.data_as(_F32P), self.sums.ctypes.data_as(_F32P),
        )


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
        max_kept = max(int(batch_groups.max()) * (1 + scratch.negative), int(batch_rows.max()))
        used = self._lib.w2v_run(
            w_in.ctypes.data_as(_F32P), w_out.ctypes.data_as(_F32P), vocab, dim,
            int(scratch.mode == "cbow"), losses.size, offsets.ctypes.data_as(_I64P),
            in_rows.ctypes.data_as(_I32P), row_start.ctypes.data_as(_I64P),
            out_pos.ctypes.data_as(_I32P), scratch.negative,
            u.ctypes.data_as(_F64P), cdf.ctypes.data_as(_F64P), lrs.ctypes.data_as(_F64P),
            -1.0 if max_row_step is None else float(max_row_step),
            losses.ctypes.data_as(_F64P), threads or 0, max_kept,
            *scratch.pointers,
        )
        if used < 1:
            raise TrainingError("learn kernel: out of memory for the threads' work buffers")
        scratch.threads = used
        return losses

    def batch(
        self, w_in, w_out, in_rows, sizes, out_pos, u, cdf, lr, max_row_step, scratch: BatchScratch
    ) -> float:
        """One mini-batch update in place, as the run of one (see
        :meth:`run`); returns its mean loss, ``nan`` for an empty batch."""
        groups = np.size(out_pos)
        offsets = np.arange(0, groups + 1, max(groups, 1), dtype=np.int64)
        lrs = np.full(offsets.size - 1, lr, dtype=np.float64)
        losses = self.run(
            w_in, w_out, in_rows, sizes, out_pos, u, cdf, offsets, lrs, max_row_step, scratch
        )
        return float(losses[0]) if losses.size else float("nan")


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


__all__ = ["ACCUM_DTYPE", "BatchScratch", "CTrainKernel", "MAX_THREADS", "resolve_train_kernel"]
