"""Compiled C step kernels loaded through ctypes.

A single small translation unit with one plain loop per kernel, compiled
and cached at first use by :mod:`repro.utils.cbuild` (shared with the
learn kernel) and loaded via ctypes.

Bitwise parity with :class:`~repro.walks.kernels.numpy_backend.NumpyKernels`
is a hard requirement (the parity suite sweeps every sampler): the loops
use the same IEEE double expressions in the same association order as
the NumPy formulas, and ``-ffast-math`` is deliberately absent.

Only models with a compiled weight rule (``static`` / ``node2vec``) are
supported; the engine falls back to the NumPy backend for anything whose
:meth:`kernel_spec` says ``generic``.
"""

from __future__ import annotations

import ctypes
import time

import numpy as np

from repro.errors import ConfigError, WalkError
from repro.graph.csr import FILTER_MIN_ROW
from repro.tokens import TOKEN_DTYPE
from repro.utils.cbuild import compile_cached, find_compiler
from repro.utils.cthreads import C_THREADS, MAX_THREADS

_C_SOURCE = C_THREADS + f"""typedef int{8 * TOKEN_DTYPE.itemsize}_t token_t; /* a walk token */
#define FILTER_MIN_ROW {FILTER_MIN_ROW}
""" + r"""
#define NO_EDGE (-1)

#ifdef __GNUC__
#define PREFETCH(addr) __builtin_prefetch(addr)
#else
#define PREFETCH(addr)
#endif

/* Probe of the graph's negative-first adjacency filter
   (repro.graph.csr.CSRGraph.edge_filter, built there): a blocked Bloom
   filter over the (source, target) keys of every edge entry, two bits
   of one 64-bit word per key, so a probe touches one cache line. A miss
   proves "not an edge"; a hit proves nothing and falls through to the
   exact test, so has_edge returns the same boolean with or without it.
   edge_hash and FILTER_BITS are the Python edge_hash / filter_bits. */
#define FILTER_BITS(h) ((1ULL << ((h) >> 58)) | (1ULL << (((h) >> 52) & 63)))

static inline uint64_t edge_hash(int64_t v, int64_t u) {
    uint64_t h = (uint64_t)v * 0x9E3779B97F4A7C15ULL + (uint64_t)u;
    h ^= h >> 32;
    h *= 0xD6E8FEB86659FD93ULL;
    h ^= h >> 32;
    return h;
}

static int has_edge(const int64_t *offsets, const int64_t *targets,
                    const uint64_t *filt, uint64_t fmask,
                    int64_t v, int64_t u) {
    int64_t lo = offsets[v], hi = offsets[v + 1];
    if (filt && hi - lo > FILTER_MIN_ROW) {
        /* most alpha tests on hub rows come back "not an edge": answer
           those from the filter instead of searching the row */
        uint64_t h = edge_hash(v, u), bits = FILTER_BITS(h);
        if ((filt[h & fmask] & bits) != bits) return 0;
    }
    if (hi - lo <= 64) {
        /* small rows: branchless linear scan vectorizes and avoids the
           binary search's data-dependent mispredictions */
        int found = 0;
        for (int64_t e = lo; e < hi; e++) found |= (targets[e] == u);
        return found;
    }
    /* lower_bound over the sorted row of v, exactly edge_index_batch */
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (targets[mid] < u) lo = mid + 1; else hi = mid;
    }
    return lo < offsets[v + 1] && targets[lo] == u;
}

/* kind codes match repro.walks.kernels.state.KIND_CODES */
static double dyn_weight(int kind, double p, double q,
                         const uint64_t *filt, uint64_t fmask,
                         const int64_t *offsets, const int64_t *targets,
                         const double *weights, int64_t prev, int64_t e) {
    double w = weights ? weights[e] : 1.0;
    if (kind != 2) return w; /* static */
    int64_t u = targets[e];
    double alpha;
    if (prev < 0) alpha = 1.0;
    else if (u == prev) alpha = 1.0 / p;
    else if (has_edge(offsets, targets, filt, fmask, prev, u)) alpha = 1.0;
    else alpha = 1.0 / q;
    return w * alpha;
}

/* the edge entry a lane proposes, clamped into the edge arrays; the
   read-ahead computes it exactly as the lane's own step does */
static inline int64_t candidate(const int64_t *offsets, int64_t num_edges,
                                int64_t v, double u) {
    int64_t lo = offsets[v], deg = offsets[v + 1] - lo;
    int64_t c = lo + (int64_t)(u * (double)(deg > 0 ? deg : 1));
    if (c >= num_edges) c = num_edges - 1;
    return c < 0 ? 0 : c;
}

/* read-ahead distances in lanes of a step: the offsets entries of cur
   and prev, then the candidate's targets entry, then what prev's
   adjacency test will read. A read-ahead only prefetches, and a plain
   load it makes is one the lane's own step makes: live lanes only. */
#define AHEAD_FAR 16
#define AHEAD_MID 8
#define AHEAD_NEAR 3

void mh_step(int64_t n, const int64_t *offsets, const int64_t *targets,
             const double *weights, int64_t num_edges,
             int kind, double p, double q,
             const uint64_t *filt, uint64_t fmask,
             const int64_t *idx, const int64_t *prev, const int64_t *cur,
             const int64_t *last, const double *last_w, const uint8_t *dead,
             const double *u_cand, const double *u_acc,
             int64_t *chain_last, double *chain_last_w, double *new_w,
             int64_t *out_next, int64_t *counts) {
    /* the full Algorithm 1 step over the shared chain arrays:
       propose + accept + scatter LAST_x / cached weight back through
       idx in lane order (duplicate states resolve last-writer-wins for
       the pair, exactly the NumPy fancy-index scatter), or, with
       chain_last NULL, each lane's new weight left in new_w for a
       scatter after the step. Dead lanes are skipped entirely; their
       uniforms were still drawn by the driver, so RNG consumption
       matches the reference. */
    int64_t n_ok = 0, n_acc = 0;
    for (int64_t i = 0; i < n; i++) {
        if (i + AHEAD_FAR < n) {
            PREFETCH(&offsets[cur[i + AHEAD_FAR]]);
            if (prev[i + AHEAD_FAR] >= 0) PREFETCH(&offsets[prev[i + AHEAD_FAR]]);
        }
        if (i + AHEAD_MID < n && !dead[i + AHEAD_MID]) {
            int64_t j = i + AHEAD_MID, c = candidate(offsets, num_edges, cur[j], u_cand[j]);
            PREFETCH(&targets[c]);
            if (weights) PREFETCH(&weights[c]);
            if (kind == 2 && last_w[j] != last_w[j]) PREFETCH(&targets[last[j] > 0 ? last[j] : 0]);
        }
        if (kind == 2 && i + AHEAD_NEAR < n && !dead[i + AHEAD_NEAR] && prev[i + AHEAD_NEAR] >= 0) {
            int64_t j = i + AHEAD_NEAR, pv = prev[j];
            int64_t u = targets[candidate(offsets, num_edges, cur[j], u_cand[j])];
            if (u != pv) { /* has_edge(pv, u) will run: its filter word or its row */
                int64_t plo = offsets[pv], plen = offsets[pv + 1] - plo;
                if (plen <= FILTER_MIN_ROW)
                    for (int64_t e = 0; e < plen; e += 8) PREFETCH(&targets[plo + e]);
                else if (filt)
                    PREFETCH(&filt[edge_hash(pv, u) & fmask]);
            }
        }
        if (dead[i]) { out_next[i] = NO_EDGE; continue; }
        int64_t c = candidate(offsets, num_edges, cur[i], u_cand[i]);
        double wc = dyn_weight(kind, p, q, filt, fmask, offsets, targets, weights, prev[i], c);
        int64_t l = last[i] > 0 ? last[i] : 0;
        double wl = last_w[i];
        if (wl != wl) /* NaN sentinel: cache miss, evaluate the model */
            wl = dyn_weight(kind, p, q, filt, fmask, offsets, targets, weights, prev[i], l);
        int acc = (wc > 0.0) && ((wl <= 0.0) || (u_acc[i] * wl < wc));
        int64_t nl = acc ? c : last[i];
        if (chain_last) {
            chain_last[idx[i]] = nl;
            chain_last_w[idx[i]] = acc ? wc : wl;
        } else {
            new_w[i] = acc ? wc : wl;
        }
        out_next[i] = nl;
        n_ok++;
        n_acc += acc;
    }
    counts[0] = n_ok;
    counts[1] = n_acc;
}

void dyn_weights(int64_t n, const int64_t *offsets, const int64_t *targets,
                 const double *weights, int kind, double p, double q,
                 const uint64_t *filt, uint64_t fmask,
                 const int64_t *prev, const int64_t *offs, double *out) {
    /* bulk model-weight evaluation for the M-H initializers: same
       dyn_weight as the step kernels, over aligned (prev, offset) lanes */
    for (int64_t i = 0; i < n; i++)
        out[i] = dyn_weight(kind, p, q, filt, fmask, offsets, targets, weights, prev[i], offs[i]);
}

void mh_init_select(int64_t k, int64_t cap, int64_t num_nodes,
                    const int64_t *offsets,
                    const int64_t *targets, const double *weights,
                    int kind, double p, double q,
                    const uint64_t *filt, uint64_t fmask,
                    const int64_t *prev, const int64_t *cur, const double *u,
                    const int64_t *order, uint64_t *mark,
                    int64_t *out_c, double *out_w) {
    /* high-weight chain init: score `cap` uniform candidates per walker
       and keep the first argmax (np.argmax tie semantics). Lanes are
       visited through `order` (argsort by prev — each lane's output is
       independent, so visit order is parity-free): walkers sharing a
       prev amortize one marking pass of prev's adjacency into a
       node-indexed bitmap (num_nodes/8 bytes, L1-resident), making each
       node2vec membership test O(1). The mark/search decision weighs
       row degree against the whole group's candidate count, so hub rows
       with few walkers still use has_edge. Bits are cleared lazily when
       the marked row changes; the scratch is zeroed here. */
    int64_t marked = -1;   /* row currently in the bitmap */
    int64_t checked = -1;  /* group whose marking decision is cached */
    int use_mark_group = 0;
    if (kind == 2)
        for (int64_t n = 0; n < (num_nodes + 63) / 64; n++) mark[n] = 0;
    for (int64_t si = 0; si < k; si++) {
        int64_t i = order[si];
        /* far ahead the offsets entries and the uniforms, near ahead
           every candidate entry, computed as the lane computes them */
        if (si + AHEAD_MID < k) {
            int64_t f = order[si + AHEAD_MID];
            PREFETCH(&offsets[cur[f]]);
            for (int64_t j = 0; j < cap; j += 8) PREFETCH(&u[f * cap + j]);
        }
        if (si + AHEAD_NEAR < k) {
            int64_t f = order[si + AHEAD_NEAR], flo = offsets[cur[f]];
            int64_t fdeg = offsets[cur[f] + 1] - flo;
            for (int64_t j = 0; j < cap; j++) {
                int64_t c = flo + (int64_t)(u[f * cap + j] * (double)(fdeg > 0 ? fdeg : 1));
                PREFETCH(&targets[c]);
                if (weights) PREFETCH(&weights[c]);
            }
        }
        int64_t pv = prev[i];
        int use_mark = 0;
        if (kind == 2 && pv >= 0) {
            if (pv != checked) {
                /* new group: size it (the scan is O(k) overall) and
                   decide marking vs per-candidate binary search */
                int64_t glen = 1;
                while (si + glen < k && prev[order[si + glen]] == pv) glen++;
                int64_t pdeg = offsets[pv + 1] - offsets[pv];
                checked = pv;
                use_mark_group = pdeg <= 4 * cap * glen;
                if (use_mark_group) {
                    if (marked >= 0)
                        for (int64_t e = offsets[marked]; e < offsets[marked + 1]; e++)
                            mark[targets[e] >> 6] &= ~(1ULL << (targets[e] & 63));
                    for (int64_t e = offsets[pv]; e < offsets[pv + 1]; e++)
                        mark[targets[e] >> 6] |= 1ULL << (targets[e] & 63);
                    marked = pv;
                }
            }
            use_mark = use_mark_group;
        }
        int64_t lo = offsets[cur[i]];
        int64_t deg = offsets[cur[i] + 1] - lo;
        double d = (double)(deg > 0 ? deg : 1);
        const double *row_u = u + i * cap;
        int64_t best_c = lo;
        double best_w = 0.0;
        for (int64_t j = 0; j < cap; j++) {
            int64_t c = lo + (int64_t)(row_u[j] * d);
            double w = weights ? weights[c] : 1.0;
            if (kind == 2) {
                int64_t t = targets[c];
                double alpha;
                if (pv < 0) alpha = 1.0;
                else if (t == pv) alpha = 1.0 / p;
                else if (use_mark ? (int)((mark[t >> 6] >> (t & 63)) & 1)
                                  : has_edge(offsets, targets, filt, fmask, pv, t)) alpha = 1.0;
                else alpha = 1.0 / q;
                w = w * alpha;
            }
            if (j == 0 || w > best_w) { best_w = w; best_c = c; }
        }
        out_c[i] = best_c;
        out_w[i] = best_w;
    }
}

/* Step 0's index work (StepperBase.first_step, _race). row_offsets:
   the edge entries of n rows end to end, concat_ranges's offsets. */
void row_offsets(int64_t n, const int64_t *lo, const int64_t *deg, int64_t *out) {
    for (int64_t i = 0; i < n; i++)
        for (int64_t e = 0; e < deg[i]; e++) *out++ = lo[i] + e;
}

/* segment_race_argmin over rows of deg[i] keys laid end to end: each
   row's first smallest key, -1 for an empty row and for one whose
   smallest key is not finite (all +inf, -inf, or a NaN anywhere) */
void race_argmin(int64_t n, const int64_t *deg, const double *keys, int64_t *out) {
    for (int64_t i = 0; i < n; keys += deg[i++]) {
        int64_t best = -1;
        double least = INFINITY;
        int nan = 0;
        for (int64_t e = 0; e < deg[i]; e++) {
            nan |= keys[e] != keys[e];
            if (keys[e] < least) least = keys[e], best = e;
        }
        out[i] = nan || least == -INFINITY ? -1 : best;
    }
}

typedef double (*next_double_fn)(void *state);

typedef struct { int64_t prev, lane; } prev_lane_t;

static int by_prev_then_lane(const void *a, const void *b) {
    const prev_lane_t *x = a, *y = b;
    if (x->prev != y->prev) return x->prev < y->prev ? -1 : 1;
    return (x->lane > y->lane) - (x->lane < y->lane);
}

static int64_t exact_argmax(int kind, double p, double q,
                            const uint64_t *filt, uint64_t fmask,
                            const int64_t *offsets, const int64_t *targets,
                            const double *weights, int64_t prev, int64_t v) {
    /* first argmax of the row's dynamic weights, NO_EDGE when none is
       positive: _MHStepper._exact_argmax */
    int64_t best = NO_EDGE;
    double best_w = 0.0;
    for (int64_t e = offsets[v]; e < offsets[v + 1]; e++) {
        double w = dyn_weight(kind, p, q, filt, fmask, offsets, targets, weights, prev, e);
        if (w > best_w) { best_w = w; best = e; }
    }
    return best;
}

/* ---- one wave on threads ----------------------------------------------
   A step's lanes split into one contiguous block per thread. A lane's
   step depends on its gathered chain and its pre-drawn uniforms alone;
   what lanes share is done in the one-thread order: the draws (thread 0
   takes them all, in the base loop's order) and the chain scatter (a
   chain row's one owner applies the lanes that moved it in lane order,
   so the later lane still wins). Threads change when a lane is stepped,
   never what it draws or where it goes. A thread per this many lanes at
   most, by weight rule: on the 2-vCPU bench host, over graphs of as many
   nodes as lanes, a second thread broke even at 2 x 2,048 lanes of
   node2vec and about 2 x 16,384 of deepwalk, whose steps are cheaper
   than the draws and barriers they share, and saved a fifth at twice
   those. */
#define LANES_PER_THREAD(kind) ((kind) == 2 ? 4096 : 24576) /* node2vec : static */

/* columns of the step-major token block: one 64-byte line of a row */
#define TOKEN_COLS (64 / (int64_t)sizeof(token_t))

/* where a wave's walkers stand; ids are rows of `walks` and `lengths` */
typedef struct { int64_t *ids, *prev, *prev_off, *cur; } lanes_t;

/* one thread's share of a wave, on cache lines of its own */
typedef struct {
    _Alignas(64) int64_t fresh, kept; /* this step: fresh chains in its block, lanes kept */
    int64_t init_ns, init_total, proposals, accepts; /* init_ns this step's, the rest the wave's */
    uint64_t *mark;  /* mh_init_select's bitmap */
    int64_t *start;  /* where its block's lanes for each chain owner start in `sorted` */
    struct wave *wave;
    int64_t id;
} lane_worker_t;

typedef struct wave {
    int64_t n, rows, first_step, walk_length, num_nodes, num_edges, cap;
    int kind, order;
    double p, q;
    const int64_t *offsets, *targets;
    const double *weights;
    const uint64_t *filt;
    uint64_t fmask;
    next_double_fn next_double;
    void *rng_state;
    int64_t *chain_last, *lengths;
    token_t *walks;
    double *chain_last_w;
    lanes_t lanes[2]; /* a step reads one and compacts into the other (one thread: in place) */
    /* by lane, and by fresh chain in lane order (f_): */
    token_t *block;
    int64_t *idx, *last, *next, *fresh, *sorted, *f_prev, *f_cur, *f_order, *f_best;
    double *last_w, *u_cand, *u_acc, *new_w, *f_w, *f_u;
    prev_lane_t *f_sort;
    uint8_t *dead;
    int64_t initializations;
    uint64_t magic; /* 2^64 / threads rounded up: a division by one multiply */
    lane_worker_t *workers;
    team_t team;
} wave_t;

/* the thread that scatters lane i's chain row (rows go out a cache line
   of chain_last at a time), or `threads` when the lane moved none */
static inline int64_t owner_of(const wave_t *w, int64_t i) {
    if (w->next[i] == NO_EDGE) return w->team.threads;
    uint64_t line = (uint64_t)w->idx[i] >> 3;
    uint64_t q = (uint64_t)(((unsigned __int128)line * w->magic) >> 64);
    return (int64_t)(line - q * (uint64_t)w->team.threads);
}

/* _MHStepper.begin over lanes [lo, hi): gather every lane's chain and
   list the live lanes on a fresh chain at fresh[lo..]; returns how many */
static int64_t gather(wave_t *w, lanes_t in, int64_t lo, int64_t hi) {
    const int64_t *offsets = w->offsets, *chain_last = w->chain_last;
    const int64_t *state = w->order == 2 ? in.prev_off : in.cur;
    const double *chain_last_w = w->chain_last_w;
    int64_t *idx = w->idx, *last = w->last, *fresh = w->fresh + lo, nf = 0;
    double *last_w = w->last_w;
    uint8_t *dead = w->dead;
    for (int64_t i = lo; i < hi; i++) {
        if (i + AHEAD_MID < hi) {
            PREFETCH(&chain_last[state[i + AHEAD_MID]]);
            PREFETCH(&chain_last_w[state[i + AHEAD_MID]]);
            PREFETCH(&offsets[in.cur[i + AHEAD_MID]]);
        }
        int64_t v = in.cur[i], s = state[i];
        int alive = offsets[v + 1] > offsets[v];
        idx[i] = s;
        last[i] = chain_last[s];
        last_w[i] = chain_last_w[s];
        dead[i] = !alive;
        if (alive && last[i] == NO_EDGE) fresh[nf++] = i;
    }
    return nf;
}

/* _draw_init + init_high_weight for the nf fresh chains listed at
   fresh[lo..], which are fresh chains `before` onwards of the step */
static void init_fresh(wave_t *w, lanes_t in, uint64_t *mark,
                       int64_t lo, int64_t nf, int64_t before) {
    const int64_t *fresh = w->fresh + lo;
    int64_t *f_prev = w->f_prev + before, *f_cur = w->f_cur + before;
    int64_t *f_order = w->f_order + before, *f_best = w->f_best + before;
    prev_lane_t *f_sort = w->f_sort + before;
    double *f_w = w->f_w + before;
    for (int64_t f = 0; f < nf; f++) {
        f_prev[f] = in.prev[fresh[f]];
        f_cur[f] = in.cur[fresh[f]];
        f_w[f] = 0.0;
    }
    if (w->cap > 0) {
        for (int64_t f = 0; f < nf; f++) f_sort[f] = (prev_lane_t){f_prev[f], f};
        qsort(f_sort, (size_t)nf, sizeof *f_sort, by_prev_then_lane);
        for (int64_t f = 0; f < nf; f++) f_order[f] = f_sort[f].lane;
        mh_init_select(nf, w->cap, w->num_nodes, w->offsets, w->targets, w->weights,
                       w->kind, w->p, w->q, w->filt, w->fmask, f_prev, f_cur,
                       w->f_u + before * w->cap, f_order, mark, f_best, f_w);
    }
    for (int64_t f = 0; f < nf; f++) {
        /* the subsample may have missed the support entirely */
        if (f_w[f] <= 0.0)
            f_best[f] = exact_argmax(w->kind, w->p, w->q, w->filt, w->fmask, w->offsets,
                                     w->targets, w->weights, f_prev[f], f_cur[f]);
        w->last[fresh[f]] = f_best[f];
        w->last_w[fresh[f]] = NAN; /* fresh chains have no cached weight */
        w->dead[fresh[f]] = f_best[f] == NO_EDGE; /* no positive weight: retires */
    }
}

/* lanes [lo, hi) into `sorted` by their chain row's owner, each owner's
   in lane order (a counting sort) */
static void sort_by_owner(wave_t *w, int64_t *start, int64_t lo, int64_t hi) {
    int64_t at[MAX_THREADS + 1] = {0};
    for (int64_t i = lo; i < hi; i++) at[owner_of(w, i)]++;
    start[0] = lo;
    for (int64_t t = 0; t <= w->team.threads; t++) {
        start[t + 1] = start[t] + at[t];
        at[t] = start[t];
    }
    for (int64_t i = lo; i < hi; i++) w->sorted[at[owner_of(w, i)]++] = i;
}

/* the chain rows thread `id` owns, block after block, lane after lane */
static void scatter_owned(wave_t *w, int64_t id) {
    for (int64_t b = 0; b < w->team.threads; b++) {
        const int64_t *start = w->workers[b].start;
        for (int64_t k = start[id]; k < start[id + 1]; k++) {
            if (k + 8 < start[id + 1]) {
                PREFETCH(&w->chain_last[w->idx[w->sorted[k + 8]]]);
                PREFETCH(&w->chain_last_w[w->idx[w->sorted[k + 8]]]);
            }
            int64_t i = w->sorted[k];
            w->chain_last[w->idx[i]] = w->next[i];
            w->chain_last_w[w->idx[i]] = w->new_w[i];
        }
    }
}

/* the compaction of run_wave for lanes [lo, hi), into `out` from lane m
   on: lanes that drew no edge retire, the others leave a token */
static void compact(wave_t *w, lanes_t in, lanes_t out, int64_t lo, int64_t hi,
                    int64_t m, int64_t step) {
    token_t *column = w->block + ((step + 1) & (TOKEN_COLS - 1)) * w->rows;
    for (int64_t i = lo; i < hi; i++) {
        if (i + AHEAD_MID < hi && w->next[i + AHEAD_MID] != NO_EDGE) {
            int64_t row = in.ids[i + AHEAD_MID];
            PREFETCH(&w->targets[w->next[i + AHEAD_MID]]);
            PREFETCH(&w->lengths[row]);
            PREFETCH(&column[row]);
        }
        int64_t e = w->next[i];
        if (e == NO_EDGE) continue;
        int64_t row = in.ids[i], from = in.cur[i], to = w->targets[e];
        out.ids[m] = row;
        out.prev[m] = from;
        out.prev_off[m] = e;
        out.cur[m++] = to;
        column[row] = (token_t)to;
        w->lengths[row]++;
    }
}

/* how many of a count the threads before `id` hold, and all of them */
#define PREFIX(w, field, id, before, all) \
    for (int64_t t = 0; t < (w)->team.threads; t++) { \
        if (t == (id)) before = all; \
        all += (w)->workers[t].field; \
    }

/* What every thread of a call runs, step after step: (1) gather its
   block; (2) one thread draws; (3) initialise the block's fresh chains,
   propose and accept; (4) scatter the chain rows it owns and compact
   its block; then copy its range of rows out of the block when due. */
static void *walk_lanes(void *arg) {
    lane_worker_t *me = arg;
    wave_t *w = me->wave;
    if (me->id) team_ready(&w->team);
    int64_t threads = w->team.threads, id = me->id, n = w->n, rows = w->rows;
    int64_t flushed = w->first_step + 1; /* first column still in the block */
    int64_t row_lo = rows * id / threads, row_hi = rows * (id + 1) / threads;
    lanes_t in = w->lanes[0], out = w->lanes[threads > 1];
    for (int64_t step = w->first_step; step < w->walk_length - 1 && n > 0; step++) {
        int64_t lo = n * id / threads, hi = n * (id + 1) / threads;
        int64_t nf = me->fresh = gather(w, in, lo, hi);
        barrier_wait(&w->team.barrier);
        int64_t before = 0, fresh = 0;
        PREFIX(w, fresh, id, before, fresh);
        if (id == 0) {
            /* the base loop's draws: one (fresh, cap) block if any chain
               is fresh, then u_cand[n], then u_acc[n] */
            int64_t t0 = now_ns();
            for (int64_t j = 0; j < fresh * w->cap; j++) w->f_u[j] = w->next_double(w->rng_state);
            me->init_total += fresh ? now_ns() - t0 : 0;
            w->initializations += fresh;
            for (int64_t i = 0; i < n; i++) w->u_cand[i] = w->next_double(w->rng_state);
            for (int64_t i = 0; i < n; i++) w->u_acc[i] = w->next_double(w->rng_state);
        }
        barrier_wait(&w->team.barrier);
        int64_t t0 = now_ns();
        if (nf) init_fresh(w, in, me->mark, lo, nf, before);
        me->init_ns = nf ? now_ns() - t0 : 0;
        /* _MHStepper.finish; one thread scatters as it goes */
        int64_t stepped[2];
        mh_step(hi - lo, w->offsets, w->targets, w->weights, w->num_edges, w->kind, w->p,
                w->q, w->filt, w->fmask, w->idx + lo, in.prev + lo, in.cur + lo, w->last + lo,
                w->last_w + lo, w->dead + lo, w->u_cand + lo, w->u_acc + lo,
                threads == 1 ? w->chain_last : NULL, w->chain_last_w, w->new_w + lo,
                w->next + lo, stepped);
        me->proposals += stepped[0];
        me->accepts += stepped[1];
        me->kept = stepped[0];
        if (threads > 1) sort_by_owner(w, me->start, lo, hi);
        barrier_wait(&w->team.barrier);
        if (threads > 1) scatter_owned(w, id);
        int64_t slowest = 0; /* wall time, on thread 0: the step's slowest initialisation */
        for (int64_t t = 0; id == 0 && t < threads; t++)
            if (w->workers[t].init_ns > slowest) slowest = w->workers[t].init_ns;
        me->init_total += slowest;
        int64_t offset = 0, kept = 0;
        PREFIX(w, kept, id, offset, kept);
        compact(w, in, out, lo, hi, offset, step);
        barrier_wait(&w->team.barrier);
        lanes_t swap = in;
        in = out, out = swap, n = kept;
        int64_t end = step + 2; /* columns [flushed, end) are in the block */
        if ((end & (TOKEN_COLS - 1)) == 0 || end == w->walk_length || n == 0) {
            for (int64_t row = row_lo; row < row_hi; row++) {
                int64_t stop = w->lengths[row] < end ? w->lengths[row] : end;
                for (int64_t c = flushed; c < stop; c++)
                    w->walks[row * w->walk_length + c] = w->block[(c & (TOKEN_COLS - 1)) * rows + row];
            }
            flushed = end;
        }
    }
    return NULL;
}

int64_t mh_wave(int64_t n, int64_t rows, int64_t first_step, int64_t walk_length,
                const int64_t *offsets, const int64_t *targets,
                const double *weights, int64_t num_nodes, int64_t num_edges,
                int kind, double p, double q,
                const uint64_t *filt, uint64_t fmask,
                int order, int64_t cap,
                next_double_fn next_double, void *rng_state,
                int64_t *ids, int64_t *prev, int64_t *prev_off, int64_t *cur,
                int64_t *chain_last, double *chain_last_w,
                token_t *walks, int64_t *lengths, int64_t threads,
                int64_t *counts, double *init_seconds) {
    /* Steps first_step .. walk_length-2 of one wave over its n lanes
       (ids, prev, prev_off, cur: consumed), high-weight initializer with
       `cap` candidates (0: exact row argmax). Per step this is
       _MHStepper.step, then the compaction of StepperBase.run_wave,
       uniform for uniform: one (fresh, cap) block if any chain is
       fresh, then u_cand[n], then u_acc[n], dead-end lanes included;
       every lane's chain is gathered before any lane scatters, so two
       walkers on one chain read the pre-step state and the later lane
       wins. Tokens go to a step-major block of TOKEN_COLS columns (16
       four-byte tokens), copied into the walk rows a whole 64-byte line
       at a time. `threads` as team_size takes it. counts: proposals, accepts, initializations;
       init_seconds: wall time. Returns the threads used, or -1 when
       memory ran out (before anything was touched). */
    wave_t w = {
        .n = n, .rows = rows, .first_step = first_step, .walk_length = walk_length,
        .num_nodes = num_nodes, .num_edges = num_edges, .cap = cap > 0 ? cap : 0,
        .kind = kind, .order = order, .p = p, .q = q, .offsets = offsets,
        .targets = targets, .weights = weights, .filt = filt, .fmask = fmask,
        .next_double = next_double, .rng_state = rng_state, .chain_last = chain_last,
        .walks = walks, .lengths = lengths, .chain_last_w = chain_last_w,
    };
    lane_worker_t workers[MAX_THREADS];
    threads = team_size(&w.team, threads, n / LANES_PER_THREAD(kind));

    /* one thread compacts in place and scatters as it goes; more need a
       second lane buffer, the lanes sorted by owner and their weights */
    size_t lanes = (size_t)n, split = threads > 1, icap = (size_t)w.cap;
    size_t words = kind == 2 ? ((size_t)(num_nodes + 63) / 64 + 7) & ~(size_t)7 : 0;
    size_t eights = 8 * (size_t)rows + lanes * (14 + 6 * split + icap)
                    + (size_t)threads * (words + (size_t)threads + 2);
    int64_t *at = malloc(eights * 8 + lanes);
    if (!at) return -1;
    void *memory = at;
#define CARVE(field, count) (w.field = (void *)at, at += (count))
    /* the token block: TOKEN_COLS tokens, one 64-byte line, a row */
    CARVE(block, 8 * rows), CARVE(idx, lanes), CARVE(last, lanes), CARVE(next, lanes);
    CARVE(fresh, lanes), CARVE(f_prev, lanes), CARVE(f_cur, lanes), CARVE(f_order, lanes);
    CARVE(f_best, lanes), CARVE(f_sort, 2 * lanes), CARVE(last_w, lanes);
    CARVE(u_cand, lanes), CARVE(u_acc, lanes), CARVE(f_w, lanes), CARVE(f_u, lanes * icap);
    CARVE(new_w, split * lanes), CARVE(sorted, split * lanes);
    w.lanes[0] = w.lanes[1] = (lanes_t){ids, prev, prev_off, cur};
    if (split) {
        CARVE(lanes[1].ids, lanes), CARVE(lanes[1].prev, lanes);
        CARVE(lanes[1].prev_off, lanes), CARVE(lanes[1].cur, lanes);
    }
#undef CARVE
    uint64_t *marks = (uint64_t *)at;
    int64_t *starts = at + threads * words;
    w.dead = (uint8_t *)(starts + threads * (threads + 2));

    w.workers = workers;
    for (int64_t t = 0; t < threads; t++)
        workers[t] = (lane_worker_t){
            .mark = marks + t * words, .start = starts + t * (threads + 2), .wave = &w, .id = t,
        };
    threads = team_start(&w.team, threads, walk_lanes, workers, sizeof *workers);
    w.magic = UINT64_MAX / (uint64_t)threads + 1;
    team_go(&w.team);
    walk_lanes(workers);
    team_join(&w.team);
    for (int64_t t = 0; t < threads; t++) {
        counts[0] += workers[t].proposals;
        counts[1] += workers[t].accepts;
    }
    counts[2] += w.initializations;
    *init_seconds += 1e-9 * (double)workers[0].init_total;
    free(memory);
    return threads;
}

/* One alias store (repro.sampling.alias.AliasTables): state s's table
   is table_deg[s] slots from base[s], each a threshold and a position
   local to the row; thresh is NULL for a uniform store (an unweighted
   graph's static tables), which draws the row's slot alone. */
typedef struct {
    const int64_t *base;
    const double *thresh;
    const int64_t *alias_local;
    const int64_t *table_deg;
    const uint8_t *has;
} alias_tables_t;

/* The alias gather: the edge offset state s draws over the row of v,
   NO_EDGE where the row is empty or the state has no table. */
static inline int64_t alias_gather(const alias_tables_t *t, const int64_t *offsets,
                                   int64_t s, int64_t v, double u_slot, double u_keep) {
    int64_t lo = offsets[v];
    if (!t->thresh) {
        int64_t deg = offsets[v + 1] - lo;
        return deg > 0 ? lo + (int64_t)(u_slot * (double)deg) : NO_EDGE;
    }
    if (!t->has[s]) return NO_EDGE;
    int64_t k = (int64_t)(u_slot * (double)t->table_deg[s]);
    int64_t slot = t->base[s] + k;
    return lo + ((u_keep < t->thresh[slot]) ? k : t->alias_local[slot]);
}

void alias_draw(int64_t n, const int64_t *offsets,
                const int64_t *base, const double *thresh, const int64_t *alias_local,
                const int64_t *table_deg, const uint8_t *has,
                const int64_t *state_idx, const int64_t *cur,
                const double *u_slot, const double *u_keep, int64_t *out) {
    alias_tables_t t = {base, thresh, alias_local, table_deg, has};
    for (int64_t i = 0; i < n; i++)
        out[i] = alias_gather(&t, offsets, state_idx[i], cur[i], u_slot[i],
                              u_keep ? u_keep[i] : 0.0);
}

void rejection_round(int64_t n, const int64_t *offsets, const int64_t *targets,
                     const double *weights, int kind, double p, double q,
                     const uint64_t *filt, uint64_t fmask,
                     const int64_t *base, const double *thresh, const int64_t *alias_local,
                     const int64_t *table_deg, const uint8_t *has,
                     const int64_t *prev, const int64_t *cur,
                     const double *u_prop, const double *u_keep,
                     const double *u_acc, double bound, int clip,
                     int64_t *out_off, uint8_t *out_accept) {
    alias_tables_t t = {base, thresh, alias_local, table_deg, has};
    for (int64_t i = 0; i < n; i++) {
        int64_t off = alias_gather(&t, offsets, cur[i], cur[i], u_prop[i],
                                   u_keep ? u_keep[i] : 0.0);
        out_off[i] = off;
        int64_t e = off > 0 ? off : 0;
        double ws = weights ? weights[e] : 1.0;
        double wd = dyn_weight(kind, p, q, filt, fmask, offsets, targets, weights, prev[i], e);
        if (clip) {
            double cl = bound * ws;
            if (wd > cl) wd = cl;
        }
        out_accept[i] = (off >= 0) && (u_acc[i] * bound * ws < wd);
    }
}
"""

_I64P = ctypes.POINTER(ctypes.c_int64)
_F64P = ctypes.POINTER(ctypes.c_double)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_U64P = ctypes.POINTER(ctypes.c_uint64)
_TOKP = ctypes.POINTER(np.ctypeslib.as_ctypes_type(TOKEN_DTYPE))
#: the weight rule as every alpha-evaluating entry takes it:
#: kind, p, q, the adjacency filter's words and its word mask
_RULE = (ctypes.c_int, ctypes.c_double, ctypes.c_double, _U64P, ctypes.c_uint64)
#: an alias store as the gathers take it: base, thresholds, local
#: aliases, table degrees and has-table flags (all NULL: uniform)
_TABLES = (_I64P, _F64P, _I64P, _I64P, _U8P)


def _load(so_path: str):
    lib = ctypes.CDLL(so_path)
    lib.mh_step.restype = None
    lib.mh_step.argtypes = [
        ctypes.c_int64, _I64P, _I64P, _F64P, ctypes.c_int64, *_RULE,
        _I64P, _I64P, _I64P, _I64P, _F64P, _U8P, _F64P, _F64P,
        _I64P, _F64P, _F64P, _I64P, _I64P,
    ]
    lib.dyn_weights.restype = None
    lib.dyn_weights.argtypes = [
        ctypes.c_int64, _I64P, _I64P, _F64P, *_RULE,
        _I64P, _I64P, _F64P,
    ]
    lib.mh_init_select.restype = None
    lib.mh_init_select.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _I64P, _I64P, _F64P, *_RULE,
        _I64P, _I64P, _F64P, _I64P, _U64P, _I64P, _F64P,
    ]
    lib.row_offsets.restype = None
    lib.race_argmin.restype = None
    lib.row_offsets.argtypes = [ctypes.c_int64, _I64P, _I64P, _I64P]
    lib.race_argmin.argtypes = [ctypes.c_int64, _I64P, _F64P, _I64P]
    lib.mh_wave.restype = ctypes.c_int64
    lib.mh_wave.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _I64P, _I64P, _F64P,
        ctypes.c_int64, ctypes.c_int64, *_RULE, ctypes.c_int, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_void_p,
        _I64P, _I64P, _I64P, _I64P, _I64P, _F64P, _TOKP, _I64P, ctypes.c_int64, _I64P, _F64P,
    ]
    lib.alias_draw.restype = None
    lib.alias_draw.argtypes = [
        ctypes.c_int64, _I64P, *_TABLES, _I64P, _I64P, _F64P, _F64P, _I64P,
    ]
    lib.rejection_round.restype = None
    lib.rejection_round.argtypes = [
        ctypes.c_int64, _I64P, _I64P, _F64P, *_RULE, *_TABLES,
        _I64P, _I64P, _F64P, _F64P, _F64P,
        ctypes.c_double, ctypes.c_int,
        _I64P, _U8P,
    ]
    return lib


def _i64(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64)


def _f64(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64)


def _ip(arr: np.ndarray):
    return arr.ctypes.data_as(_I64P)


def _fp(arr):
    if arr is None:
        return ctypes.cast(None, _F64P)
    return arr.ctypes.data_as(_F64P)


def _up(arr: np.ndarray):
    return arr.ctypes.data_as(_U8P)


def _rule(ks) -> tuple:
    """``ks``'s weight rule in ``_RULE`` order (no filter: NULL, mask 0)."""
    filt = ks.edge_filter
    if filt is None:
        return ks.kind_code, ks.p, ks.q, None, 0
    return ks.kind_code, ks.p, ks.q, filt.ctypes.data_as(_U64P), filt.size - 1


def _tables(tables) -> tuple:
    """The store ``tables`` in ``_TABLES`` order (a uniform one: NULLs)."""
    if tables.uniform:
        return (None,) * len(_TABLES)
    return (
        _ip(tables.base), _fp(tables.threshold), _ip(tables.alias_local),
        _ip(tables.table_deg), _up(tables.has_table.view(np.uint8)),
    )


class CNativeKernels:
    """ctypes-driven C loops for the walk hot path."""

    name = "cnative"
    compiled = True

    def __init__(self):
        self._compiler = find_compiler()
        if self._compiler is None:
            raise ConfigError(
                "kernel backend 'cnative' needs a system C compiler (cc/gcc/"
                "clang); none found on PATH — use backend='numpy' instead"
            )
        self._lib = None
        self._mark = None  # node-indexed scratch for mh_init_select

    def supports(self, spec) -> bool:
        return spec.get("kind") in ("static", "node2vec")

    def warmup(self) -> float:
        """Compile + load the shared object; returns the seconds spent."""
        if self._lib is not None:
            return 0.0
        t0 = time.perf_counter()
        so_path = compile_cached(_C_SOURCE, "repro-walk-kernels", self._compiler, libs=("-pthread",))
        self._lib = _load(so_path)
        return time.perf_counter() - t0

    def _ensure(self):
        if self._lib is None:
            self.warmup()
        return self._lib

    # ------------------------------------------------------------------
    def mh_step(self, ks, idx, prev, cur, last, last_w, dead, u_cand, u_acc, weight_fn):
        lib = self._ensure()
        n = cur.size
        idx = _i64(idx)
        prev = _i64(prev)
        cur = _i64(cur)
        last = _i64(last)
        last_w = _f64(last_w)
        dead = np.ascontiguousarray(dead, dtype=np.uint8)
        u_cand = _f64(u_cand)
        u_acc = _f64(u_acc)
        out_next = np.empty(n, dtype=np.int64)
        counts = np.zeros(2, dtype=np.int64)
        lib.mh_step(
            n, _ip(ks.offsets), _ip(ks.targets), _fp(ks.weights),
            ks.targets.size, *_rule(ks),
            _ip(idx), _ip(prev), _ip(cur), _ip(last), _fp(last_w),
            _up(dead), _fp(u_cand), _fp(u_acc),
            _ip(ks.chain_last), _fp(ks.chain_last_w), _fp(None),
            _ip(out_next), _ip(counts),
        )
        return out_next, int(counts[0]), int(counts[1])

    def dyn_weights(self, ks, prev, offs, weight_fn):
        lib = self._ensure()
        prev = _i64(prev)
        offs = _i64(offs)
        out = np.empty(offs.size, dtype=np.float64)
        lib.dyn_weights(
            offs.size, _ip(ks.offsets), _ip(ks.targets), _fp(ks.weights),
            *_rule(ks), _ip(prev), _ip(offs), _fp(out),
        )
        return out

    def mh_init_select(self, ks, prev, cur, u, weight_fn):
        lib = self._ensure()
        prev = _i64(prev)
        cur = _i64(cur)
        u = _f64(u)
        k, cap = u.shape
        num_nodes = ks.offsets.size - 1
        words = (num_nodes + 63) // 64
        if self._mark is None or self._mark.size < words:
            self._mark = np.zeros(words, dtype=np.uint64)
        out_c = np.empty(k, dtype=np.int64)
        out_w = np.empty(k, dtype=np.float64)
        # lanes sorted by prev amortize membership marking across the
        # walkers sharing a row; outputs are per-lane, so the visit
        # order cannot affect results
        order = np.argsort(prev, kind="stable")
        lib.mh_init_select(
            k, cap, num_nodes, _ip(ks.offsets), _ip(ks.targets), _fp(ks.weights),
            *_rule(ks),
            _ip(prev), _ip(cur), _fp(u), _ip(order),
            self._mark.ctypes.data_as(_U64P),
            _ip(out_c), _fp(out_w),
        )
        return out_c, out_w

    def row_offsets(self, lo, deg):
        lo, deg = _i64(lo), _i64(deg)
        if lo.size != deg.size or (deg < 0).any():
            raise WalkError(f"row_offsets: {lo.size} row starts for {deg.size} degrees >= 0")
        out = np.empty(int(deg.sum()), dtype=np.int64)
        self._ensure().row_offsets(deg.size, _ip(lo), _ip(deg), _ip(out))
        return out

    def race_argmin(self, keys, deg):
        keys, deg = _f64(keys), _i64(deg)
        if (deg < 0).any() or keys.size != deg.sum():
            raise WalkError(f"race_argmin: {keys.size} keys for rows of {deg.sum()} entries")
        out = np.empty(deg.size, dtype=np.int64)
        self._ensure().race_argmin(deg.size, _ip(deg), _fp(keys), _ip(out))
        return out

    def mh_wave(self, ks, order, cap, rng, lanes, first_step, walks, lengths, *, threads=None):
        """Steps ``first_step`` onwards of one M-H wave, in one call.

        ``lanes`` are the wave's ``(ids, prev, prev_off, cur)`` before
        that step (consumed: the call compacts them as it goes);
        ``walks`` (a ``TOKEN_DTYPE`` matrix) / ``lengths`` are the
        wave's rows, indexed by ``ids``.
        ``order`` picks a lane's chain (1: its node, 2: the edge it
        arrived by), ``cap`` is the high-weight initializer's (None:
        exact row argmax). Uniforms come from ``rng``'s BitGenerator in
        the order the stepper's ``rng.random`` calls take them, and
        ``rng`` carries on from there. A step's lanes are shared out to
        as many threads as the CPU affinity mask holds, fewer on a small
        wave; ``threads`` forces that number, for tests and benchmarks
        (the results do not depend on it; a stepper never passes it).
        Returns ``(proposals, accepts, initializations, init_seconds,
        threads)``, ``init_seconds`` in wall time.
        """
        lib = self._ensure()
        ids, prev, prev_off, cur = lanes
        # written in place, from several threads: no copy can stand in
        typed = [(arr, np.int64) for arr in (*lanes, lengths, ks.chain_last)]
        typed += [(walks, TOKEN_DTYPE), (ks.chain_last_w, np.float64)]
        for arr, dtype in typed:
            if arr.dtype != dtype or not arr.flags.c_contiguous:
                raise WalkError(f"mh_wave needs C-contiguous {TOKEN_DTYPE} walks, int64 lanes, "
                                "lengths, chain_last and a float64 chain_last_w")
        if threads is not None and not 1 <= threads <= MAX_THREADS:
            raise WalkError(f"mh_wave: threads must lie in [1, {MAX_THREADS}]")
        counts = np.zeros(3, dtype=np.int64)
        init_seconds = ctypes.c_double(0.0)
        bit_generator = rng.bit_generator
        draw = bit_generator.ctypes
        with bit_generator.lock:
            used = lib.mh_wave(
                ids.size, walks.shape[0], first_step, walks.shape[1],
                _ip(ks.offsets), _ip(ks.targets), _fp(ks.weights),
                ks.offsets.size - 1, ks.targets.size, *_rule(ks),
                order, 0 if cap is None else cap,
                ctypes.cast(draw.next_double, ctypes.c_void_p), draw.state,
                _ip(ids), _ip(prev), _ip(prev_off), _ip(cur),
                _ip(ks.chain_last), _fp(ks.chain_last_w),
                walks.ctypes.data_as(_TOKP), _ip(lengths), threads or 0, _ip(counts),
                ctypes.byref(init_seconds),
            )
        if used < 1:
            raise MemoryError(f"mh_wave: no scratch for {ids.size} lanes")
        return int(counts[0]), int(counts[1]), int(counts[2]), init_seconds.value, used

    def alias_draw(self, ks, tables, state_idx, cur, u_slot, u_keep):
        lib = self._ensure()
        n = cur.size
        state_idx = _i64(state_idx)
        cur = _i64(cur)
        out = np.empty(n, dtype=np.int64)
        lib.alias_draw(
            n, _ip(ks.offsets), *_tables(tables), _ip(state_idx), _ip(cur),
            _fp(_f64(u_slot)), None if u_keep is None else _fp(_f64(u_keep)), _ip(out),
        )
        return out

    def rejection_round(
        self, ks, proposal, prev, cur, u_prop, u_keep, u_acc, bound, clip, weight_fn
    ):
        lib = self._ensure()
        n = cur.size
        prev = _i64(prev)
        cur = _i64(cur)
        out_off = np.empty(n, dtype=np.int64)
        accept = np.empty(n, dtype=np.uint8)
        lib.rejection_round(
            n, _ip(ks.offsets), _ip(ks.targets), _fp(ks.weights), *_rule(ks),
            *_tables(proposal), _ip(prev), _ip(cur), _fp(_f64(u_prop)),
            None if u_keep is None else _fp(_f64(u_keep)), _fp(_f64(u_acc)),
            float(bound), int(clip), _ip(out_off), _up(accept),
        )
        return out_off, accept.view(bool)


__all__ = ["CNativeKernels", "find_compiler"]
