"""``serve_openloop``: the query server under an arrival schedule.

An in-process ``QueryServer`` (bruteforce index, result cache off) over
a synthetic clustered store, driven **open loop**: Poisson arrivals of
single-key top-10 ``most_similar`` requests with Zipf(1.2) keys, issued
from one asyncio task through ``submit`` whether or not earlier replies
came back, each latency timed from the request's *due* time — so a
stall is charged to every request it delayed (no coordinated omission).

The headline latency is read in a long *base* phase at a rate the
server answers about a quarter busy: there latency follows the speed of
a scan, while near the knee it follows the length of the queue and a
10 % slower scan reads as 20-40 %. Read-only phases then climb a ladder
of fixed rates to past the knee, a phase repeats the first rung while a
writer thread upserts (a read-path gain that slows publish shows), and
a **closed loop** of a fixed number of callers, each sending its next
request when its reply is in, measures what the server can answer per
second. Only ``serving`` works here.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import threading
import time

import numpy as np

from e2e_common import OUT_DIR, Tracer, median, windowed_p99

NAME = "serve_openloop"

SIZES = {
    # 16 384 x 128 float32 is an 8 MB matrix. Over the 25 MB of 50 000
    # rows the same phases spread three times as wide between processes
    # (median latency 12 % against 4 %, quartiles over ten seeds): how
    # fast a matrix that size streams depends on the pages a process gets.
    "full": dict(
        vectors=16_384, dimensions=128, clusters=200, warmup_s=1.0,
        base_rate=600, ladder=(2000, 4000, 8000, 16000), clients=64,
        upsert_rows=256, upsert_every_s=0.5, samples=200, probe_requests=300,
    ),
    "smoke": dict(
        vectors=2_000, dimensions=32, clusters=16, warmup_s=0.2,
        base_rate=200, ladder=(250, 500, 1000, 2000), clients=8,
        upsert_rows=32, upsert_every_s=0.1, samples=50, probe_requests=40,
    ),
}

#: ladder slots, named after the full-size rates
RUNGS = ("r2000", "r4000", "r8000", "r16000")
#: share of ``--seconds`` per phase; the ladder has four rungs
_SHARES = dict(base=0.4, rung=0.075, mixed=0.2, closed=0.1)
ZIPF_A = 1.2
TOPN = 10
#: a ladder rate is sustained when these hold
MAX_FAILED_FRACTION = 0.001
MAX_P99_MS = 100.0
MAX_DRAIN_S = 1.0
WINDOW_S = 1.0
CLOSED_WINDOW_S = 0.25

SERVER = dict(index="bruteforce", max_batch=256, max_wait_us=500.0, queue_size=1024)


class Schedule:
    """Arrival times and keys of one phase, fixed before the phase runs."""

    def __init__(self, rng, rate: float, seconds: float, key_of_rank: np.ndarray):
        # toy run lengths still get a phase with requests in it
        seconds = max(seconds, 30.0 / rate)
        due = np.cumsum(rng.exponential(1.0 / rate, size=int(rate * seconds * 1.3) + 16))
        self.due = due[due < seconds]
        ranks = np.minimum(rng.zipf(ZIPF_A, size=self.due.size), key_of_rank.size) - 1
        self.keys = key_of_rank[ranks]
        self.rate = rate
        self.seconds = seconds


class PhaseResult:
    def __init__(self, schedule: Schedule):
        n = schedule.due.size
        self.schedule = schedule
        self.issued = np.zeros(n)
        self.done = np.full(n, np.nan)
        self.ok = np.zeros(n, dtype=bool)
        self.version_regressed = False
        self.kept: dict[int, list] = {}
        self.origin = 0.0
        self.drain_s = 0.0
        self.mean_batch = 0.0

    @property
    def latency_ms(self) -> np.ndarray:
        return 1000.0 * (self.done - self.schedule.due)

    def summary(self) -> dict:
        lat = self.latency_ms[self.ok]
        late = 1000.0 * (self.issued - self.schedule.due)
        return {
            "rate": self.schedule.rate,
            "seconds": self.schedule.seconds,
            "sent": int(self.ok.size),
            "succeeded": int(self.ok.sum()),
            "failed": int((~self.ok).sum()),
            "p50_ms": float(np.median(lat)) if lat.size else float("inf"),
            "p99_ms": float(np.percentile(lat, 99)) if lat.size else float("inf"),
            "windowed_p99_ms": (
                windowed_p99(self.schedule.due[self.ok], lat, WINDOW_S, self.schedule.seconds)
                if lat.size else float("inf")
            ),
            "drain_s": self.drain_s,
            "mean_batch": self.mean_batch,
            "gen_late_p50_ms": float(np.median(late)),
            "gen_late_p99_ms": float(np.percentile(late, 99)),
        }


async def run_phase(server, schedule: Schedule, keep=()) -> PhaseResult:
    """Issue ``schedule`` open loop; returns when every reply is in.

    Requests that are due are issued back to back; between them the
    generator sleeps until the next due time. How late each request left
    is recorded, and is inside its latency because latency starts at the
    due time.
    """
    loop = asyncio.get_running_loop()
    out = PhaseResult(schedule)
    due, keys, n = schedule.due, schedule.keys.tolist(), schedule.due.size
    keep = set(keep)
    live: set = set()
    last_version = [-1]
    before = server.stats()
    out.origin = origin = time.perf_counter()

    def finished(i, task):
        out.done[i] = time.perf_counter() - origin
        live.discard(task)
        reply = task.result()
        if reply.get("ok"):
            out.ok[i] = True
            if reply["version"] < last_version[0]:
                out.version_regressed = True
            last_version[0] = reply["version"]
            if i in keep:
                out.kept[i] = reply["result"][0]

    i = 0
    while i < n:
        now = time.perf_counter() - origin
        while i < n and due[i] <= now:
            task = loop.create_task(
                server.submit({"op": "most_similar", "keys": [keys[i]], "topn": TOPN})
            )
            task.add_done_callback(lambda t, i=i: finished(i, t))
            live.add(task)
            out.issued[i] = now
            i += 1
        if i < n:
            await asyncio.sleep(max(due[i] - (time.perf_counter() - origin), 0.0))
    while live:
        await asyncio.wait(live)
    out.drain_s = max(time.perf_counter() - origin - float(due[-1]), 0.0)
    after = server.stats()
    out.mean_batch = (after["batched_requests"] - before["batched_requests"]) / max(
        after["batches"] - before["batches"], 1
    )
    return out


async def run_closed(server, keys, clients: int, seconds: float) -> dict:
    """``clients`` callers, each sending its next request when its reply is in.

    A closed loop offers a slow server less load, so it says nothing
    about latency under a given demand; it does say how many requests a
    second the server answers when there is always work waiting, without
    the on/off of admission control an overloaded open loop adds. The
    rate reported is the median over quarter-second windows, so a stall
    of the machine costs the windows it falls in and no more.
    """
    sent_at, done_at, failed = [], [], 0
    origin = time.perf_counter()
    end = origin + seconds
    feed = itertools.cycle(keys.tolist())

    async def caller():
        nonlocal failed
        while (now := time.perf_counter()) < end:
            reply = await server.submit({"op": "most_similar", "keys": [next(feed)], "topn": TOPN})
            if reply.get("ok"):
                sent_at.append(now)
                done_at.append(time.perf_counter())
            else:
                failed += 1

    before = server.stats()
    await asyncio.gather(*(caller() for __ in range(clients)))
    wall = time.perf_counter() - origin
    after = server.stats()
    done = np.asarray(done_at) - origin
    took = done - (np.asarray(sent_at) - origin)
    windows = int(seconds // CLOSED_WINDOW_S)
    if windows >= 2:
        counts = np.histogram(done, bins=windows, range=(0.0, windows * CLOSED_WINDOW_S))[0]
        replies_per_s = float(np.median(counts)) / CLOSED_WINDOW_S
    else:
        replies_per_s = done.size / wall
    return {
        "clients": clients,
        "seconds": wall,
        "sent": done.size + failed,
        "succeeded": int(done.size),
        "failed": failed,
        "replies_per_s": replies_per_s,
        "whole_phase_replies_per_s": done.size / wall,
        "p50_ms": 1000.0 * float(np.median(took)) if done.size else float("inf"),
        "mean_batch": (after["batched_requests"] - before["batched_requests"])
        / max(after["batches"] - before["batches"], 1),
    }


def _make_server(store, cache_size: int):
    from repro.serving import QueryServer

    return QueryServer(store, cache_size=cache_size, **SERVER)


def setup(seed: int, size: dict, tracer) -> dict:
    from repro.serving import EmbeddingStore

    rng = np.random.default_rng(seed)
    n, d = size["vectors"], size["dimensions"]
    with tracer.span("vectors.synthesize", "core"):
        centers = rng.standard_normal((size["clusters"], d))
        assign = rng.integers(0, size["clusters"], n)
        vectors = (centers[assign] + 0.4 * rng.standard_normal((n, d))).astype(np.float32)
        key_of_rank = rng.permutation(n)
    path = OUT_DIR / "tmp" / f"serve_openloop-{seed}.embstore"
    with tracer.span("store.export", "serving"):
        EmbeddingStore(np.arange(n, dtype=np.int64), vectors).save(path)
    with tracer.span("store.open", "serving"):
        store = EmbeddingStore.open(path)
    with tracer.span("index.build", "serving"):
        server = _make_server(store, cache_size=0)
    loop = asyncio.new_event_loop()
    loop.run_until_complete(server.start())
    ctx = {
        "seed": seed, "size": size, "backend": "none", "rng": rng, "store": store,
        "store_path": path, "server": server, "loop": loop, "key_of_rank": key_of_rank,
    }
    with tracer.span("warmup.phase", "serving"):
        warm = Schedule(rng, size["ladder"][0], size["warmup_s"], key_of_rank)
        loop.run_until_complete(run_phase(server, warm))
    # Set-up objects are long-lived: keeping the collector from
    # re-scanning them bounds the pauses it adds to the timed phases.
    gc.collect()
    gc.freeze()
    return ctx


def teardown(ctx) -> None:
    ctx["loop"].run_until_complete(ctx["server"].stop())
    ctx["loop"].close()
    ctx["store_path"].unlink(missing_ok=True)


def _upsert_writer(server, size, seed, stop, took_ms):
    rng = np.random.default_rng(seed)
    while True:
        keys = rng.choice(size["vectors"], size["upsert_rows"], replace=False)
        rows = rng.standard_normal((size["upsert_rows"], size["dimensions"])).astype(np.float32)
        t0 = time.perf_counter()
        server.upsert(keys, rows)
        took_ms.append(1000.0 * (time.perf_counter() - t0))
        if stop.wait(size["upsert_every_s"]):
            return


def _run_schedule(ctx, seconds: float, tracer) -> dict:
    """Base phase, ladder, mixed phase, closed loop.

    Returns the ``PhaseResult`` per open-loop phase name, the closed
    loop's summary, the store version the base phase was served from,
    and the upsert durations.
    """
    size, rng, loop, server = ctx["size"], ctx["rng"], ctx["loop"], ctx["server"]
    key_of_rank = ctx["key_of_rank"]

    def open_loop(name, rate, share, samples=0):
        schedule = Schedule(rng, rate, share * seconds, key_of_rank)
        keep = rng.choice(schedule.due.size, min(samples, schedule.due.size), replace=False)
        with tracer.span(f"phase.{name}", "serving") as span:
            result = loop.run_until_complete(run_phase(server, schedule, keep))
        _request_spans(tracer, span, result)
        return result

    phases = {"base": open_loop("base", size["base_rate"], _SHARES["base"], size["samples"])}
    # upserts publish copies, so this version stays as served
    base_store = server.snapshots.current.store
    for name, rate in zip(RUNGS, size["ladder"]):
        phases[name] = open_loop(name, rate, _SHARES["rung"])

    stop, upsert_ms = threading.Event(), []
    writer = threading.Thread(
        target=_upsert_writer, args=(server, size, ctx["seed"] + 1, stop, upsert_ms)
    )
    writer.start()
    try:
        phases["mixed"] = open_loop("mixed", size["ladder"][0], _SHARES["mixed"])
    finally:
        stop.set()
        writer.join()

    ranks = np.minimum(rng.zipf(ZIPF_A, size=1 << 16), key_of_rank.size) - 1
    with tracer.span("phase.closed", "serving"):
        closed = loop.run_until_complete(
            run_closed(server, key_of_rank[ranks], size["clients"], _SHARES["closed"] * seconds)
        )
    return {"phases": phases, "closed": closed, "base_store": base_store, "upsert_ms": upsert_ms}


def _request_spans(tracer, phase_span, result: PhaseResult) -> None:
    """One span per request, from issue to reply, under its phase span."""
    if tracer.enabled:
        tracer.add_many(
            "request", "serving", result.origin + result.issued, result.origin + result.done,
            parent=phase_span["id"],
        )


def _replies_match_direct(store, result: PhaseResult) -> bool:
    """Sampled server replies equal a direct ``most_similar_batch``.

    Scores are compared to 1e-4 because the server scanned each key in
    whatever batch it landed in and BLAS rounds differently per batch
    shape; neighbour keys must match except across such a near-tie.
    """
    from repro.serving import QueryService

    if not result.kept:
        return False
    service = QueryService(store, index="bruteforce", cache_size=0)
    order = sorted(result.kept)
    direct = service.most_similar_batch(result.schedule.keys[order], topn=TOPN)
    for i, want in zip(order, direct):
        got = result.kept[i]
        if len(got) != len(want):
            return False
        if not np.allclose([s for __, s in got], [s for __, s in want], atol=1e-4):
            return False
        got_keys, want_keys = [k for k, __ in got], [k for k, __ in want]
        if set(got_keys) != set(want_keys) and set(got_keys[:-1]) != set(want_keys[:-1]):
            return False
    return True


def _sustained(summary: dict) -> bool:
    return (
        summary["failed"] <= MAX_FAILED_FRACTION * summary["sent"]
        and summary["p99_ms"] <= MAX_P99_MS
        and summary["drain_s"] <= MAX_DRAIN_S
    )


def _evaluate(ctx, ran: dict) -> dict:
    ladder = ctx["size"]["ladder"]
    results, closed, upsert_ms = ran["phases"], ran["closed"], ran["upsert_ms"]
    summaries = {name: p.summary() for name, p in results.items()}
    max_ok = 0
    for name, rate in zip(RUNGS, ladder):
        if not _sustained(summaries[name]):
            break
        max_ok = rate
    # The rungs above the first are offered to find the knee: shedding
    # there is what admission control is for, and on a slower minute the
    # knee moves down a rung. Operations are the requests of the phases
    # that stay far below it, where none may fail.
    counted = [summaries["base"], summaries[RUNGS[0]], summaries["mixed"], closed]
    attempted = sum(s["sent"] for s in counted)
    failed = sum(s["failed"] for s in counted)
    checks = {
        "replies_equal_direct_query": _replies_match_direct(ran["base_store"], results["base"]),
        "versions_never_decrease": not any(p.version_regressed for p in results.values()),
        "no_failures_far_below_the_knee": failed == 0,
        "upserts_published": len(upsert_ms) > 0,
    }
    return {
        "values": {"op_p50_ms": summaries["base"]["p50_ms"]},
        "attempted": attempted,
        "failed": failed + sum(not ok for ok in checks.values()),
        "checks": checks,
        "detail": {
            "phases": summaries, "closed": closed, "max_rate_ok_rps": max_ok,
            "upserts": len(upsert_ms),
        },
    }


def measure(ctx, seconds: float) -> dict:
    return _evaluate(ctx, _run_schedule(ctx, seconds, Tracer(NAME, enabled=False)))


# ---------------------------------------------------------------------------
# traced run: the same schedule with spans, then single-purpose probes
# ---------------------------------------------------------------------------
async def _inproc_rtt_ms(server, keys) -> float:
    took = []
    for key in keys:
        t0 = time.perf_counter()
        await server.submit({"op": "most_similar", "keys": [int(key)], "topn": TOPN})
        took.append(1000.0 * (time.perf_counter() - t0))
    return median(took)


async def _tcp_rtt_ms(server, keys) -> float:
    from repro.serving import QueryClient

    host, port = await server.start_tcp()

    async def closed_loop(chunk):
        client = await QueryClient.connect(host, port)
        took = []
        try:
            for key in chunk:
                t0 = time.perf_counter()
                await client.most_similar(int(key), topn=TOPN)
                took.append(1000.0 * (time.perf_counter() - t0))
        finally:
            await client.close()
        return took

    halves = await asyncio.gather(*(closed_loop(c) for c in np.array_split(keys, 2)))
    return median(halves[0] + halves[1])


def _scan_ms(ctx, batch: int) -> float:
    from repro.serving import QueryService

    service = QueryService(ctx["store"], index="bruteforce", cache_size=0)
    took = []
    for __ in range(7):
        keys = ctx["rng"].choice(ctx["size"]["vectors"], batch, replace=False)
        t0 = time.perf_counter()
        service.most_similar_batch(keys, topn=TOPN)
        took.append(1000.0 * (time.perf_counter() - t0))
    return median(took)


def trace(ctx, seconds: float, tracer, untraced: dict) -> dict:
    size, loop, server = ctx["size"], ctx["loop"], ctx["server"]
    published_before = server.snapshots.stats()["published"]
    ran = _run_schedule(ctx, seconds, tracer)
    traced = _evaluate(ctx, ran)
    summaries, closed = traced["detail"]["phases"], traced["detail"]["closed"]

    probe_keys = ctx["key_of_rank"][: size["probe_requests"]]
    with tracer.span("probe.inproc_rtt", "serving"):
        inproc_rtt = loop.run_until_complete(_inproc_rtt_ms(server, probe_keys))
    with tracer.span("probe.tcp_rtt", "serving"):
        tcp_rtt = loop.run_until_complete(_tcp_rtt_ms(server, probe_keys))
    with tracer.span("probe.scan", "serving"):
        scan = {b: _scan_ms(ctx, min(b, size["vectors"])) for b in (1, 16, 256)}

    # the first rung again with the default result cache: the cache's own effect
    cached_server = _make_server(ctx["store"], cache_size=4096)
    loop.run_until_complete(cached_server.start())
    try:
        with tracer.span("phase.cached", "serving"):
            schedule = Schedule(
                ctx["rng"], size["ladder"][0], 2 * _SHARES["rung"] * seconds, ctx["key_of_rank"]
            )
            cached = loop.run_until_complete(run_phase(cached_server, schedule))
        cache_stats = cached_server.snapshots.current.service.stats()
    finally:
        loop.run_until_complete(cached_server.stop())

    untraced_p50 = untraced["values"]["op_p50_ms"]
    metrics = {
        "serving.export_s": tracer.total("store.export"),
        "serving.open_s": tracer.total("store.open"),
        "serving.index_build_s": tracer.total("index.build"),
        "serving.p50_ms.base": summaries["base"]["p50_ms"],
        "serving.p99_ms.base": summaries["base"]["p99_ms"],
        "serving.mean_batch.base": summaries["base"]["mean_batch"],
        "serving.gen_late_p99_ms": summaries["base"]["gen_late_p99_ms"],
        "serving.mixed_p50_ms": summaries["mixed"]["p50_ms"],
        "serving.mixed_p99_ms": summaries["mixed"]["windowed_p99_ms"],
        "serving.max_rate_ok_rps": traced["detail"]["max_rate_ok_rps"],
        f"serving.shed.{RUNGS[-1]}": summaries[RUNGS[-1]]["failed"],
        "serving.closed_rps": closed["replies_per_s"],
        "serving.closed_p50_ms": closed["p50_ms"],
        "serving.closed_mean_batch": closed["mean_batch"],
        "serving.inproc_rtt_ms": inproc_rtt,
        "serving.tcp_rtt_ms": tcp_rtt,
        "serving.upsert_ms": median(ran["upsert_ms"]),
        "serving.versions_published": server.snapshots.stats()["published"] - published_before,
        "serving.cache_hit_rate": cache_stats["cache_hit_rate"],
        "serving.cached_p50_ms": cached.summary()["p50_ms"],
        "trace.overhead_frac": (traced["values"]["op_p50_ms"] - untraced_p50) / untraced_p50,
    }
    for name in RUNGS:
        metrics[f"serving.p50_ms.{name}"] = summaries[name]["p50_ms"]
        metrics[f"serving.p99_ms.{name}"] = summaries[name]["p99_ms"]
    metrics.update({f"serving.scan_ms.b{b}": ms for b, ms in scan.items()})
    return {"checks": traced["checks"], "metrics": metrics, "detail": traced["detail"]}
