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
from repro.walks.kernels.state import KIND_NODE2VEC

_C_SOURCE = r"""
#define _POSIX_C_SOURCE 199309L
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <time.h>

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
             int64_t *chain_last, double *chain_last_w,
             int64_t *out_next, int64_t *counts) {
    /* the full Algorithm 1 step over the shared chain arrays:
       propose + accept + scatter LAST_x / cached weight back through
       idx in lane order (duplicate states resolve last-writer-wins for
       the pair, exactly the NumPy fancy-index scatter). Dead lanes are
       skipped entirely; their uniforms were still drawn by the driver,
       so RNG consumption matches the reference. */
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
        chain_last[idx[i]] = nl;
        chain_last_w[idx[i]] = acc ? wc : wl;
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

static double now_seconds(void) {
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;
}

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

int mh_wave(int64_t n, int64_t rows, int64_t first_step, int64_t walk_length,
            const int64_t *offsets, const int64_t *targets,
            const double *weights, int64_t num_nodes, int64_t num_edges,
            int kind, double p, double q,
            const uint64_t *filt, uint64_t fmask,
            int order, int64_t cap,
            next_double_fn next_double, void *rng_state,
            int64_t *ids, int64_t *prev, int64_t *prev_off, int64_t *cur,
            int64_t *chain_last, double *chain_last_w,
            int64_t *walks, int64_t *lengths,
            int64_t *counts, double *init_seconds) {
    /* Steps first_step .. walk_length-2 of one wave over its n lanes
       (ids, prev, prev_off, cur: compacted in place; ids are rows of
       `walks` and `lengths`), high-weight initializer with `cap`
       candidates (0: exact row argmax). Per step this is
       _MHStepper.step, then the compaction of StepperBase.run_wave,
       uniform for uniform: one (fresh, cap) block if any chain is
       fresh, then u_cand[n], then u_acc[n], dead-end lanes included;
       every lane's chain is gathered before any lane scatters, so two
       walkers on one chain read the pre-step state and the later lane
       wins. Tokens go to a step-major block of 8 columns, copied into
       the walk rows a whole 64-byte line at a time, up to each row's
       length. counts: proposals, accepts, initializations. */
    size_t words = kind == 2 ? (size_t)(num_nodes + 63) / 64 : 0;
    size_t lanes = (size_t)n, icap = (size_t)(cap > 0 ? cap : 0);
    char *memory = malloc(lanes * ((10 * sizeof(int64_t)) + (4 + icap) * sizeof(double) + 1)
                          + (8 * (size_t)rows) * sizeof(int64_t) + words * sizeof(uint64_t));
    if (!memory) return -1;
    int64_t *block = (int64_t *)memory, *idx = block + 8 * rows;
    int64_t *last = idx + lanes, *next = last + lanes;
    int64_t *fresh = next + lanes, *f_prev = fresh + lanes, *f_cur = f_prev + lanes;
    int64_t *f_order = f_cur + lanes, *f_best = f_order + lanes;
    prev_lane_t *f_sort = (prev_lane_t *)(f_best + lanes);
    double *last_w = (double *)(f_sort + lanes), *u_cand = last_w + lanes;
    double *u_acc = u_cand + lanes, *f_w = u_acc + lanes, *f_u = f_w + lanes;
    uint64_t *mark = (uint64_t *)(f_u + lanes * icap);
    uint8_t *dead = (uint8_t *)(mark + words);
    int64_t flushed = first_step + 1; /* first column still in the block */

    for (int64_t step = first_step; step < walk_length - 1 && n > 0; step++) {
        /* pass 1 (_MHStepper.begin): gather the lanes' chains */
        int64_t nf = 0;
        for (int64_t i = 0; i < n; i++) {
            int64_t v = cur[i], s = order == 2 ? prev_off[i] : v;
            int alive = offsets[v + 1] > offsets[v];
            idx[i] = s;
            last[i] = chain_last[s];
            last_w[i] = chain_last_w[s];
            dead[i] = !alive;
            if (alive && last[i] == NO_EDGE) fresh[nf++] = i;
        }
        if (nf) {
            /* _draw_init + init_high_weight over the fresh lanes */
            double t0 = now_seconds();
            for (int64_t f = 0; f < nf; f++) {
                f_prev[f] = prev[fresh[f]];
                f_cur[f] = cur[fresh[f]];
                f_w[f] = 0.0;
            }
            if (cap > 0) {
                for (int64_t j = 0; j < nf * cap; j++) f_u[j] = next_double(rng_state);
                for (int64_t f = 0; f < nf; f++) {
                    f_sort[f].prev = f_prev[f];
                    f_sort[f].lane = f;
                }
                qsort(f_sort, (size_t)nf, sizeof *f_sort, by_prev_then_lane);
                for (int64_t f = 0; f < nf; f++) f_order[f] = f_sort[f].lane;
                mh_init_select(nf, cap, num_nodes, offsets, targets, weights,
                               kind, p, q, filt, fmask, f_prev, f_cur, f_u,
                               f_order, mark, f_best, f_w);
            }
            for (int64_t f = 0; f < nf; f++) {
                /* the subsample may have missed the support entirely */
                if (f_w[f] <= 0.0)
                    f_best[f] = exact_argmax(kind, p, q, filt, fmask, offsets, targets,
                                             weights, f_prev[f], f_cur[f]);
                last[fresh[f]] = f_best[f];
                last_w[fresh[f]] = NAN; /* fresh chains have no cached weight */
            }
            counts[2] += nf;
            *init_seconds += now_seconds() - t0;
        }
        for (int64_t i = 0; i < n; i++) dead[i] |= last[i] == NO_EDGE;
        for (int64_t i = 0; i < n; i++) u_cand[i] = next_double(rng_state);
        for (int64_t i = 0; i < n; i++) u_acc[i] = next_double(rng_state);
        /* pass 2 (_MHStepper.finish): propose, accept, scatter in lane order */
        int64_t stepped[2];
        mh_step(n, offsets, targets, weights, num_edges, kind, p, q, filt, fmask,
                idx, prev, cur, last, last_w, dead, u_cand, u_acc,
                chain_last, chain_last_w, next, stepped);
        counts[0] += stepped[0];
        counts[1] += stepped[1];
        /* the compaction of run_wave: lanes that drew no edge retire */
        int64_t m = 0;
        for (int64_t i = 0; i < n; i++) {
            int64_t e = next[i];
            if (e == NO_EDGE) continue;
            int64_t row = ids[i], from = cur[i], to = targets[e];
            ids[m] = row;
            prev[m] = from;
            prev_off[m] = e;
            cur[m] = to;
            m++;
            block[((step + 1) & 7) * rows + row] = to;
            lengths[row]++;
        }
        n = m;
        int64_t end = step + 2; /* columns [flushed, end) are in the block */
        if ((end & 7) == 0 || end == walk_length || n == 0) {
            for (int64_t row = 0; row < rows; row++) {
                int64_t stop = lengths[row] < end ? lengths[row] : end;
                for (int64_t c = flushed; c < stop; c++)
                    walks[row * walk_length + c] = block[(c & 7) * rows + row];
            }
            flushed = end;
        }
    }
    free(memory);
    return 0;
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
        _I64P, _F64P, _I64P, _I64P,
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
    lib.mh_wave.restype = ctypes.c_int
    lib.mh_wave.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _I64P, _I64P, _F64P,
        ctypes.c_int64, ctypes.c_int64, *_RULE, ctypes.c_int, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_void_p,
        _I64P, _I64P, _I64P, _I64P, _I64P, _F64P, _I64P, _I64P, _I64P, _F64P,
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
        self._lib = _load(compile_cached(_C_SOURCE, "repro-walk-kernels", self._compiler))
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
            _ip(ks.chain_last), _fp(ks.chain_last_w),
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

    def mh_wave(self, ks, order, cap, rng, lanes, first_step, walks, lengths):
        """Steps ``first_step`` onwards of one M-H wave, in one call.

        ``lanes`` are the wave's ``(ids, prev, prev_off, cur)`` before
        that step (consumed: compacted in place); ``walks`` / ``lengths``
        are the wave's rows, indexed by ``ids``. ``order`` picks a
        lane's chain (1: its node, 2: the edge it arrived by), ``cap``
        is the high-weight initializer's (None: exact row argmax).
        Uniforms come from ``rng``'s BitGenerator in the order the
        stepper's ``rng.random`` calls take them, and ``rng`` carries
        on from there. Returns ``(proposals, accepts, initializations,
        init_seconds)``.
        """
        lib = self._ensure()
        ids, prev, prev_off, cur = lanes
        for arr in (*lanes, walks, lengths):  # written in place: no copy can stand in
            if arr.dtype != np.int64 or not arr.flags.c_contiguous:
                raise WalkError("mh_wave needs C-contiguous int64 lanes, walks and lengths")
        counts = np.zeros(3, dtype=np.int64)
        init_seconds = ctypes.c_double(0.0)
        bit_generator = rng.bit_generator
        draw = bit_generator.ctypes
        with bit_generator.lock:
            failed = lib.mh_wave(
                ids.size, walks.shape[0], first_step, walks.shape[1],
                _ip(ks.offsets), _ip(ks.targets), _fp(ks.weights),
                ks.offsets.size - 1, ks.targets.size, *_rule(ks),
                order, 0 if cap is None else cap,
                ctypes.cast(draw.next_double, ctypes.c_void_p), draw.state,
                _ip(ids), _ip(prev), _ip(prev_off), _ip(cur),
                _ip(ks.chain_last), _fp(ks.chain_last_w),
                _ip(walks), _ip(lengths), _ip(counts), ctypes.byref(init_seconds),
            )
        if failed:
            raise MemoryError(f"mh_wave: no scratch for {ids.size} lanes")
        return int(counts[0]), int(counts[1]), int(counts[2]), init_seconds.value

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
