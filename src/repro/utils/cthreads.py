"""The threading pieces both compiled kernels share, as one C prologue.

The learn kernel (:mod:`repro.embedding.kernels`) and the wave kernel
(:mod:`repro.walks.kernels.cnative_backend`) each run one call's work on
pthreads created and joined inside that call. What they have in common is
here, once, and each C source string starts with :data:`C_THREADS`: the
feature macro and headers, a spin-yield-sleep barrier, and a *team*: a
thread count taken from the caller's CPU affinity mask, helper threads
started on the next CPUs of that mask, joined before the call returns.
The prologue decides no result: it only says when a thread runs.
"""

from __future__ import annotations

#: Most threads one kernel call uses, whatever the affinity mask holds.
MAX_THREADS = 64

C_THREADS = r"""
#define _GNU_SOURCE
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

#define MAX_THREADS @MAX_THREADS@
/* a waiter spins this many times, then yields for this long, then sleeps */
#define SPIN_LIMIT 1024
#define YIELD_NS 200000

static inline void cpu_relax(void) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#endif
}

static inline int64_t now_ns(void) {
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (int64_t)t.tv_sec * 1000000000 + t.tv_nsec;
}

/* Waking a sleeping thread on another CPU costs more than a phase of
   work takes, so a waiter spins, and then yields in case its partner is
   waiting for this very CPU. But a partner whose CPU the host has taken
   away stays behind for milliseconds, and a guest that spins or yields
   through those burns the CPU time the partner is short of: after about
   what a sleep and a wake-up cost, the waiter sleeps. */
typedef struct {
    int64_t parties;
    atomic_int_fast64_t arrived, sleepers;
    _Alignas(64) atomic_int_fast64_t phase; /* what waiters read, on a line of its own */
    pthread_mutex_t lock;
    pthread_cond_t wake;
} barrier_t;

static void barrier_open(barrier_t *b, int64_t parties) {
    b->parties = parties;
    atomic_init(&b->arrived, 0);
    atomic_init(&b->sleepers, 0);
    atomic_init(&b->phase, 0);
    pthread_mutex_init(&b->lock, NULL);
    pthread_cond_init(&b->wake, NULL);
}

static void barrier_close(barrier_t *b) {
    pthread_cond_destroy(&b->wake);
    pthread_mutex_destroy(&b->lock);
}

static void barrier_wait(barrier_t *b) {
    if (b->parties == 1) return;
    int64_t phase = atomic_load_explicit(&b->phase, memory_order_relaxed);
    if (atomic_fetch_add_explicit(&b->arrived, 1, memory_order_acq_rel)
            == b->parties - 1) {
        atomic_store_explicit(&b->arrived, 0, memory_order_relaxed);
        /* sequentially consistent with the sleeper's side: either it sees
           the new phase or its count is seen here */
        atomic_store(&b->phase, phase + 1);
        if (atomic_load(&b->sleepers)) {
            pthread_mutex_lock(&b->lock);
            pthread_cond_broadcast(&b->wake);
            pthread_mutex_unlock(&b->lock);
        }
        return;
    }
    for (int64_t spins = 0; spins < SPIN_LIMIT; spins++, cpu_relax())
        if (atomic_load_explicit(&b->phase, memory_order_acquire) != phase) return;
    for (int64_t deadline = now_ns() + YIELD_NS; now_ns() < deadline; sched_yield())
        if (atomic_load_explicit(&b->phase, memory_order_acquire) != phase) return;
    pthread_mutex_lock(&b->lock);
    atomic_fetch_add(&b->sleepers, 1);
    while (atomic_load(&b->phase) == phase) pthread_cond_wait(&b->wake, &b->lock);
    atomic_fetch_sub(&b->sleepers, 1);
    pthread_mutex_unlock(&b->lock);
}

/* A call's threads: the caller, and helpers that start, wait for
   team_go, and are joined before the call returns. Nothing outlives the
   call: no pool, no lock held across calls, nothing a fork could copy
   half-way. */
typedef struct {
    int64_t threads, cpus; /* threads started, CPUs in the caller's mask */
    int cpu;               /* the CPU the last thread started on */
#ifdef __linux__
    cpu_set_t mask;        /* the caller's; empty when it could not be read */
#endif
    atomic_int go;
    barrier_t barrier;
    pthread_t helpers[MAX_THREADS];
} team_t;

/* How many threads a call uses: `threads` > 0 as given, otherwise one
   per share of the work up to the CPUs of the caller's affinity mask;
   never more than MAX_THREADS. */
static int64_t team_size(team_t *team, int64_t threads, int64_t shares) {
    team->cpus = 1;
#ifdef __linux__
    if (sched_getaffinity(0, sizeof team->mask, &team->mask) == 0)
        team->cpus = CPU_COUNT(&team->mask);
    else
        CPU_ZERO(&team->mask);
    team->cpu = sched_getcpu();
#else
    team->cpus = sysconf(_SC_NPROCESSORS_ONLN);
#endif
    if (threads <= 0) threads = shares < team->cpus ? shares : team->cpus;
    if (threads < 1) threads = 1;
    return threads < MAX_THREADS ? threads : MAX_THREADS;
}

/* Starts helpers 1 .. threads - 1, helper k on body(args + k * stride);
   fewer may start than asked. A new thread left to the scheduler can
   share the caller's CPU for a second while another idles, so each
   starts on the next CPU of the mask after the caller's (after the
   helper before it). Returns how many threads run, the caller's
   included. */
static int64_t team_start(team_t *team, int64_t threads, void *(*body)(void *),
                          void *args, size_t stride) {
    int64_t started = 1;
    for (; started < threads; started++) {
        pthread_attr_t attr;
        pthread_attr_init(&attr);
#ifdef __linux__
        if (CPU_COUNT(&team->mask)) {
            do team->cpu = (team->cpu + 1) % CPU_SETSIZE; while (!CPU_ISSET(team->cpu, &team->mask));
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(team->cpu, &one);
            pthread_attr_setaffinity_np(&attr, sizeof one, &one);
        }
#endif
        int failed = pthread_create(team->helpers + started, &attr, body,
                                    (char *)args + (size_t)started * stride);
        pthread_attr_destroy(&attr);
        if (failed) break;
    }
    team->threads = started;
    barrier_open(&team->barrier, started);
    return started;
}

static void team_go(team_t *team) {
    atomic_store_explicit(&team->go, 1, memory_order_release);
}

/* A helper's first act: free to move from the CPU it started on, it
   waits until the caller knows how many threads did start. */
static void team_ready(team_t *team) {
#ifdef __linux__
    if (CPU_COUNT(&team->mask))
        pthread_setaffinity_np(pthread_self(), sizeof team->mask, &team->mask);
#endif
    while (!atomic_load_explicit(&team->go, memory_order_acquire)) sched_yield();
}

static void team_join(team_t *team) {
    for (int64_t t = 1; t < team->threads; t++) pthread_join(team->helpers[t], NULL);
    barrier_close(&team->barrier);
}
""".replace("@MAX_THREADS@", str(MAX_THREADS))

__all__ = ["C_THREADS", "MAX_THREADS"]
