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
from repro.utils.cbuild import compile_cached, find_compiler
from repro.utils.cthreads import C_THREADS, MAX_THREADS
from repro.walks.kernels.state import KIND_NODE2VEC

_C_SOURCE = C_THREADS + r"""
#define NO_EDGE (-1)

#ifdef __GNUC__
#define PREFETCH(addr) __builtin_prefetch(addr)
#else
#define PREFETCH(addr)
#endif

/* Negative-first adjacency filter: a blocked Bloom filter over the
   (source, target) keys of every edge entry, two bits of one 64-bit
   word per key, so a probe touches one cache line. A miss proves "not
   an edge"; a hit proves nothing and falls through to the exact test,
   so has_edge returns the same boolean with or without it. */
#define FILTER_MIN_ROW 16
#define FILTER_BITS(h) ((1ULL << ((h) >> 58)) | (1ULL << (((h) >> 52) & 63)))

static inline uint64_t edge_hash(int64_t v, int64_t u) {
    uint64_t h = (uint64_t)v * 0x9E3779B97F4A7C15ULL + (uint64_t)u;
    h ^= h >> 32;
    h *= 0xD6E8FEB86659FD93ULL;
    h ^= h >> 32;
    return h;
}

void edge_filter_build(int64_t num_nodes, const int64_t *offsets,
                       const int64_t *targets, uint64_t *filt, uint64_t fmask) {
    for (int64_t v = 0; v < num_nodes; v++)
        for (int64_t e = offsets[v]; e < offsets[v + 1]; e++) {
            uint64_t h = edge_hash(v, targets[e]);
            filt[h & fmask] |= FILTER_BITS(h);
        }
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
        /* two-stage software pipeline against the random-row latency:
           far ahead fetch the offsets entries, near ahead the rows */
        if (i + 8 < n) {
            PREFETCH(&offsets[cur[i + 8]]);
            if (prev[i + 8] >= 0) PREFETCH(&offsets[prev[i + 8]]);
        }
        if (i + 3 < n && !dead[i + 3]) {
            int64_t nlo = offsets[cur[i + 3]];
            PREFETCH(&targets[nlo]);
            if (weights) PREFETCH(&weights[nlo]);
            if (prev[i + 3] >= 0) PREFETCH(&targets[offsets[prev[i + 3]]]);
        }
        if (dead[i]) { out_next[i] = NO_EDGE; continue; }
        int64_t v = cur[i];
        int64_t lo = offsets[v], deg = offsets[v + 1] - lo;
        int64_t c = lo + (int64_t)(u_cand[i] * (double)(deg > 0 ? deg : 1));
        if (c >= num_edges) c = num_edges - 1;
        if (c < 0) c = 0;
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
        /* two-stage software pipeline against the random-row latency:
           far ahead fetch the offsets entries, near ahead the rows */
        if (si + 8 < k) {
            int64_t f = order[si + 8];
            PREFETCH(&offsets[cur[f]]);
            PREFETCH(&u[f * cap]);
        }
        if (si + 3 < k) {
            int64_t nlo = offsets[cur[order[si + 3]]];
            PREFETCH(&targets[nlo]);
            if (weights) PREFETCH(&weights[nlo]);
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
    int64_t *chain_last, *walks, *lengths;
    double *chain_last_w;
    lanes_t lanes[2]; /* a step reads one and compacts into the other (one thread: in place) */
    /* by lane, and by fresh chain in lane order (f_): */
    int64_t *block, *idx, *last, *next, *fresh, *sorted, *f_prev, *f_cur, *f_order, *f_best;
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
    int64_t *column = w->block + ((step + 1) & 7) * w->rows;
    for (int64_t i = lo; i < hi; i++) {
        int64_t e = w->next[i];
        if (e == NO_EDGE) continue;
        int64_t row = in.ids[i], from = in.cur[i], to = w->targets[e];
        out.ids[m] = row;
        out.prev[m] = from;
        out.prev_off[m] = e;
        out.cur[m++] = to;
        column[row] = to;
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
        if ((end & 7) == 0 || end == w->walk_length || n == 0) {
            for (int64_t row = row_lo; row < row_hi; row++) {
                int64_t stop = w->lengths[row] < end ? w->lengths[row] : end;
                for (int64_t c = flushed; c < stop; c++)
                    w->walks[row * w->walk_length + c] = w->block[(c & 7) * rows + row];
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
                int64_t *walks, int64_t *lengths, int64_t threads,
                int64_t *counts, double *init_seconds) {
    /* Steps first_step .. walk_length-2 of one wave over its n lanes
       (ids, prev, prev_off, cur: consumed), high-weight initializer with
       `cap` candidates (0: exact row argmax). Per step this is
       _MHStepper.step, then the compaction of StepperBase.run_wave,
       uniform for uniform: one (fresh, cap) block if any chain is
       fresh, then u_cand[n], then u_acc[n], dead-end lanes included;
       every lane's chain is gathered before any lane scatters, so two
       walkers on one chain read the pre-step state and the later lane
       wins. Tokens go to a step-major block of 8 columns, copied into
       the walk rows a whole 64-byte line at a time. `threads` as
       team_size takes it. counts: proposals, accepts, initializations;
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

void alias_draw(int64_t n, const int64_t *offsets,
                const double *thresh, const int64_t *alias, int64_t tsize,
                const int64_t *nodes, const double *u_slot, const double *u_keep,
                int64_t *out) {
    for (int64_t i = 0; i < n; i++) {
        int64_t v = nodes[i];
        int64_t lo = offsets[v], deg = offsets[v + 1] - lo;
        int64_t k = lo + (int64_t)(u_slot[i] * (double)(deg > 0 ? deg : 1));
        if (thresh) {
            int64_t kk = k < tsize - 1 ? k : tsize - 1;
            if (!(u_keep[i] < thresh[kk])) k = alias[kk];
        }
        out[i] = deg > 0 ? k : NO_EDGE;
    }
}

void state_alias_draw(int64_t n, const int64_t *offsets,
                      const int64_t *base, const double *thresh,
                      const int64_t *alias_local, const int64_t *tab_deg,
                      const uint8_t *has, int64_t tsize,
                      const int64_t *state_idx, const int64_t *cur,
                      const double *u_slot, const double *u_keep,
                      int64_t *out) {
    for (int64_t i = 0; i < n; i++) {
        int64_t s = state_idx[i];
        if (!has[s]) { out[i] = NO_EDGE; continue; }
        int64_t deg = tab_deg[s];
        int64_t k = (int64_t)(u_slot[i] * (double)(deg > 0 ? deg : 1));
        int64_t slot = base[s] + k;
        int64_t cap = tsize - 1 > 0 ? tsize - 1 : 0;
        if (slot > cap) slot = cap;
        int64_t pos = (u_keep[i] < thresh[slot]) ? k : alias_local[slot];
        out[i] = offsets[cur[i]] + pos;
    }
}

void rejection_round(int64_t n, const int64_t *offsets, const int64_t *targets,
                     const double *weights, int kind, double p, double q,
                     const uint64_t *filt, uint64_t fmask,
                     const double *prop_thresh, const int64_t *prop_alias,
                     int64_t tsize,
                     const int64_t *prev, const int64_t *cur,
                     const double *u_prop, const double *u_keep,
                     const double *u_acc, double bound, int clip,
                     int64_t *out_off, uint8_t *out_accept) {
    for (int64_t i = 0; i < n; i++) {
        int64_t v = cur[i];
        int64_t lo = offsets[v], deg = offsets[v + 1] - lo;
        int64_t k = lo + (int64_t)(u_prop[i] * (double)(deg > 0 ? deg : 1));
        if (prop_thresh) {
            int64_t kk = k < tsize - 1 ? k : tsize - 1;
            if (!(u_keep[i] < prop_thresh[kk])) k = prop_alias[kk];
        }
        int64_t off = deg > 0 ? k : NO_EDGE;
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
#: the weight rule as every alpha-evaluating entry takes it:
#: kind, p, q, the adjacency filter's words and its word mask
_RULE = (ctypes.c_int, ctypes.c_double, ctypes.c_double, _U64P, ctypes.c_uint64)


def _load(so_path: str):
    lib = ctypes.CDLL(so_path)
    lib.edge_filter_build.restype = None
    lib.edge_filter_build.argtypes = [ctypes.c_int64, _I64P, _I64P, _U64P, ctypes.c_uint64]
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
    lib.mh_wave.restype = ctypes.c_int64
    lib.mh_wave.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _I64P, _I64P, _F64P,
        ctypes.c_int64, ctypes.c_int64, *_RULE, ctypes.c_int, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_void_p,
        _I64P, _I64P, _I64P, _I64P, _I64P, _F64P, _I64P, _I64P, ctypes.c_int64, _I64P, _F64P,
    ]
    lib.alias_draw.restype = None
    lib.alias_draw.argtypes = [
        ctypes.c_int64, _I64P, _F64P, _I64P, ctypes.c_int64,
        _I64P, _F64P, _F64P, _I64P,
    ]
    lib.state_alias_draw.restype = None
    lib.state_alias_draw.argtypes = [
        ctypes.c_int64, _I64P, _I64P, _F64P, _I64P, _I64P, _U8P,
        ctypes.c_int64, _I64P, _I64P, _F64P, _F64P, _I64P,
    ]
    lib.rejection_round.restype = None
    lib.rejection_round.argtypes = [
        ctypes.c_int64, _I64P, _I64P, _F64P, *_RULE,
        _F64P, _I64P, ctypes.c_int64,
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

    def build_edge_filter(self, ks):
        """``has_edge``'s prefilter: every ``(source, target)`` key in
        ``next_pow2(|E| / 4)`` words (16-32 bits per edge entry); None
        unless the weight rule tests adjacency (node2vec's alpha)."""
        if ks.kind != KIND_NODE2VEC or ks.targets.size == 0:
            return None
        words = max(1 << (ks.targets.size // 4 - 1).bit_length(), 8)
        filt = np.zeros(words, dtype=np.uint64)
        self._ensure().edge_filter_build(
            ks.offsets.size - 1, _ip(ks.offsets), _ip(ks.targets),
            filt.ctypes.data_as(_U64P), words - 1,
        )
        return filt

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

    def mh_wave(self, ks, order, cap, rng, lanes, first_step, walks, lengths, *, threads=None):
        """Steps ``first_step`` onwards of one M-H wave, in one call.

        ``lanes`` are the wave's ``(ids, prev, prev_off, cur)`` before
        that step (consumed: the call compacts them as it goes);
        ``walks`` / ``lengths`` are the wave's rows, indexed by ``ids``.
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
        for arr in (*lanes, walks, lengths, ks.chain_last, ks.chain_last_w):
            if arr.dtype != (np.float64 if arr is ks.chain_last_w else np.int64) or not arr.flags.c_contiguous:
                raise WalkError("mh_wave needs C-contiguous int64 lanes, walks, lengths, chain_last "
                                "and a C-contiguous float64 chain_last_w")
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
                _ip(walks), _ip(lengths), threads or 0, _ip(counts), ctypes.byref(init_seconds),
            )
        if used < 1:
            raise MemoryError(f"mh_wave: no scratch for {ids.size} lanes")
        return int(counts[0]), int(counts[1]), int(counts[2]), init_seconds.value, used

    def alias_draw(self, ks, nodes, u_slot, u_keep):
        lib = self._ensure()
        n = nodes.size
        nodes = _i64(nodes)
        u_slot = _f64(u_slot)
        out = np.empty(n, dtype=np.int64)
        if u_keep is None:
            thresh_p, alias_p, tsize, keep_p = _fp(None), _ip(out), 0, _fp(u_slot)
        else:
            u_keep = _f64(u_keep)
            thresh_p = _fp(ks.prop_threshold)
            alias_p = _ip(ks.prop_alias)
            tsize = ks.prop_threshold.size
            keep_p = _fp(u_keep)
        lib.alias_draw(
            n, _ip(ks.offsets), thresh_p, alias_p, tsize,
            _ip(nodes), _fp(u_slot), keep_p, _ip(out),
        )
        return out

    def state_alias_draw(self, ks, state_idx, cur, u_slot, u_keep):
        lib = self._ensure()
        n = state_idx.size
        state_idx = _i64(state_idx)
        cur = _i64(cur)
        u_slot = _f64(u_slot)
        u_keep = _f64(u_keep)
        has = np.ascontiguousarray(ks.tab_has, dtype=np.uint8)
        out = np.empty(n, dtype=np.int64)
        lib.state_alias_draw(
            n, _ip(ks.offsets), _ip(ks.tab_base), _fp(ks.tab_threshold),
            _ip(ks.tab_alias), _ip(ks.tab_deg), _up(has),
            ks.tab_threshold.size, _ip(state_idx), _ip(cur),
            _fp(u_slot), _fp(u_keep), _ip(out),
        )
        return out

    def rejection_round(self, ks, prev, cur, u_prop, u_keep, u_acc, bound, clip, weight_fn):
        lib = self._ensure()
        n = cur.size
        prev = _i64(prev)
        cur = _i64(cur)
        u_prop = _f64(u_prop)
        u_acc = _f64(u_acc)
        out_off = np.empty(n, dtype=np.int64)
        accept = np.empty(n, dtype=np.uint8)
        if u_keep is None:
            thresh_p, alias_p, tsize, keep_p = _fp(None), _ip(out_off), 0, _fp(u_prop)
        else:
            u_keep = _f64(u_keep)
            thresh_p = _fp(ks.prop_threshold)
            alias_p = _ip(ks.prop_alias)
            tsize = ks.prop_threshold.size
            keep_p = _fp(u_keep)
        lib.rejection_round(
            n, _ip(ks.offsets), _ip(ks.targets), _fp(ks.weights),
            *_rule(ks),
            thresh_p, alias_p, tsize,
            _ip(prev), _ip(cur), _fp(u_prop), keep_p, _fp(u_acc),
            float(bound), int(clip),
            _ip(out_off), _up(accept),
        )
        return out_off, accept.view(bool)


__all__ = ["CNativeKernels", "find_compiler"]
