"""The compiled M-H wave against the one wave loop in Python.

``_MHStepper.run_wave`` hands a wave to ``kernels.mh_wave`` (one C call,
uniforms drawn from the engine's own BitGenerator) when the backend is
compiled and the initializer is the built-in high-weight; everything
else runs ``StepperBase.run_wave``. The contract is bitwise: corpus,
lengths, chain arrays, counters and the generator's state after the run
are the base loop's. The base loop is forced on a second engine built
from the same arguments by clearing ``stepper.wave_kernel``. The kernel
shares a step's lanes out to threads; the contract holds at any count,
so the differential tests force 1, 2, 3 and 7 (``force_wave_threads``).

Without a C compiler the base loop is the only path: the differential
tests skip, the rest still run.
"""

import hashlib
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import WalkError
from repro.graph import GraphDelta, generators
from repro.graph.builder import from_edge_arrays
from repro.registry import register_sampler, unregister_sampler
from repro.sampling.base import NO_EDGE
from repro.sharding import ShardedWalkEngine
from repro.walks.kernels import available_backends, resolve_backend
from repro.walks.kernels.state import KernelState
from repro.walks.models import make_model
from repro.walks.vectorized import StepperBase, VectorizedWalkEngine

needs_cnative = pytest.mark.skipif(
    not available_backends().get("cnative", False), reason="no C compiler: no wave kernel"
)

NODE2VEC = {"p": 0.25, "q": 4.0}
MODELS = {"deepwalk": {}, "node2vec": NODE2VEC}
COUNTERS = ("samples", "proposals", "accepts", "initializations")
#: thread counts every differential test runs at: one, the bench host's
#: two, and counts that leave blocks uneven and CPUs oversubscribed
THREADS = (1, 2, 3, 7)


def _walk(graph, model, *, base_loop, layout="all", bit_generator=np.random.PCG64,
          walk_length=12, waves=2, params=None, **engine_kw):
    """One run; everything the contract names, in comparable form."""
    rng = np.random.Generator(bit_generator(5))
    engine = VectorizedWalkEngine(
        graph, model, sampler="mh", backend="cnative", seed=rng,
        **(MODELS[model] if params is None else params), **engine_kw,
    )
    assert engine.stats()["wave_kernel"]
    if base_loop:
        engine.stepper.wave_kernel = False
    if layout == "stream":
        parts = list(engine.generate_stream(waves, walk_length, shard_walks=7))
        walks = np.concatenate([part.walks for part in parts])
        lengths = np.concatenate([part.lengths for part in parts])
    else:
        starts = None if layout == "all" else np.arange(0, graph.num_nodes, 3)
        corpus = engine.generate(waves, walk_length, start_nodes=starts)
        walks, lengths = corpus.walks, corpus.lengths
    stats = engine.stats()
    assert stats["wave_kernel"] is not base_loop
    chains = engine.stepper.chains
    return {
        "walks": walks,
        "lengths": lengths,
        "last": chains.last,
        "last_w": chains.last_w,
        "counters": [stats[name] for name in COUNTERS],
        "rng": repr(rng.bit_generator.state),
    }


def _assert_same_run(got, want):
    np.testing.assert_array_equal(got["walks"], want["walks"])
    np.testing.assert_array_equal(got["lengths"], want["lengths"])
    np.testing.assert_array_equal(got["last"], want["last"])
    np.testing.assert_array_equal(got["last_w"], want["last_w"])  # NaN == NaN here
    assert got["counters"] == want["counters"]
    assert got["rng"] == want["rng"]


def _both(graph, model, **kw):
    got = _walk(graph, model, base_loop=False, **kw)
    _assert_same_run(got, _walk(graph, model, base_loop=True, **kw))
    return got


# ---------------------------------------------------------------------------
# (1) the matrix: model x weights x cap x layout x BitGenerator, two waves
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def graphs():
    return {
        True: generators.chung_lu_power_law(150, 6.0, seed=11, weight_mode="uniform"),
        False: generators.chung_lu_power_law(150, 6.0, seed=11),
    }


@needs_cnative
@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize(
    "bit_generator", (np.random.PCG64, np.random.Philox, np.random.MT19937, np.random.SFC64)
)
@pytest.mark.parametrize("layout", ("all", "subset", "stream"))
@pytest.mark.parametrize("cap", (16, 1, None))
@pytest.mark.parametrize("weighted", (True, False))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_wave_equals_base_loop(
    graphs, force_wave_threads, model, weighted, cap, layout, bit_generator, threads
):
    used = force_wave_threads(threads)
    run = _both(
        graphs[weighted], model, layout=layout, bit_generator=bit_generator,
        init_sample_cap=cap,
    )
    assert (run["last"] != NO_EDGE).any()  # the second wave met warm chains
    assert set(used) == {threads}


# ---------------------------------------------------------------------------
# (2) lanes that retire at different steps; (3) the exact-argmax fallback
# ---------------------------------------------------------------------------

@needs_cnative
@pytest.mark.parametrize("model", sorted(MODELS))
def test_sinks_and_isolated_start(model):
    # 0 -> 1 -> 2 -> 3 (sink); 4 -> 3; 5 <-> 6 cycle; 5 -> 0; 7 isolated
    src = np.array([0, 1, 2, 4, 5, 6, 5])
    dst = np.array([1, 2, 3, 3, 6, 5, 0])
    graph = from_edge_arrays(src, dst, num_nodes=8, directed=True)
    run = _both(graph, model, walk_length=11)
    lengths = run["lengths"][:8]
    assert lengths.tolist()[:5] == [4, 3, 2, 1, 2] and lengths[7] == 1
    assert lengths[5] > 4 or lengths[6] > 4  # somebody stayed on the cycle a while
    for row, length in zip(run["walks"], run["lengths"]):
        assert (row[:length] >= 0).all() and (row[length:] == -1).all()


@needs_cnative
@pytest.mark.parametrize("cap", (1, 2, None))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_zero_weight_edges_take_the_exact_argmax(model, cap):
    # a hub whose rows carry one positive weight among many zeros (a
    # capped subsample mostly misses it), plus node 1 with no support
    n = 40
    src = np.concatenate([np.zeros(n - 1, np.int64), np.arange(1, n), [1]])
    dst = np.concatenate([np.arange(1, n), np.zeros(n - 1, np.int64), [2]])
    weights = np.zeros(src.size)
    weights[5] = 2.0  # 0 -> 6
    weights[n - 1 + 5] = 1.0  # 6 -> 0
    weights[n - 1 + 8] = 3.0  # 9 -> 0
    graph = from_edge_arrays(src, dst, weights, num_nodes=n, directed=True)
    run = _both(graph, model, init_sample_cap=cap, walk_length=8)
    walk_from_9 = run["walks"][9]
    if model == "deepwalk":
        assert walk_from_9[:4].tolist() == [9, 0, 6, 0]
    assert run["lengths"][1] <= 2  # node 1: no positive weight, chain stays NO_EDGE


# ---------------------------------------------------------------------------
# (4) differential property over small random digraphs
# ---------------------------------------------------------------------------

@st.composite
def digraphs(draw):
    """Self-loops, rows of many degrees, sinks and optional weights."""
    n = draw(st.integers(3, 24))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = set(draw(st.lists(pairs, min_size=1, max_size=5 * n)))
    hub = draw(st.integers(0, n - 1))
    edges |= {(hub, v) for v in range(draw(st.integers(0, n)))}
    src, dst = (np.array(col, dtype=np.int64) for col in zip(*sorted(edges)))
    weights = None
    if draw(st.booleans()):
        weights = draw(st.integers(0, 10_000)) % (np.arange(src.size) + 2) + 0.0
    return from_edge_arrays(
        src, dst, weights, num_nodes=n, directed=True,
        duplicate_policy="first", allow_self_loops=True,
    )


@needs_cnative
@pytest.mark.parametrize("threads", THREADS)
# the fixture is shared by the examples, each of which forces the same count
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    graph=digraphs(),
    p=st.sampled_from((0.25, 1.0, 3.0)),
    q=st.sampled_from((0.5, 1.0, 4.0)),
    walk_length=st.integers(1, 20),
    waves=st.integers(1, 3),
    cap=st.sampled_from((None, 1, 3, 16)),
    model=st.sampled_from(("deepwalk", "node2vec")),
)
def test_property_wave_equals_base_loop(
    force_wave_threads, threads, graph, p, q, walk_length, waves, cap, model
):
    force_wave_threads(threads)
    _both(
        graph, model, params={"p": p, "q": q} if model == "node2vec" else {},
        walk_length=walk_length, waves=waves, init_sample_cap=cap,
    )


# ---------------------------------------------------------------------------
# (5) the adjacency filter
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def hub_graph():
    """Rows on both sides of the filter's 16-entry and the scan's 64-entry line."""
    graph = generators.chung_lu_power_law(400, 30.0, seed=3)
    degrees = np.diff(graph.offsets)
    assert (degrees <= 16).any() and ((degrees > 16) & (degrees <= 64)).any()
    assert (degrees > 64).any()
    return graph


def _filtered_state(graph):
    kernels = resolve_backend("cnative")
    ks = KernelState.for_graph(graph, make_model("node2vec", graph, **NODE2VEC))
    ks.edge_filter = kernels.build_edge_filter(ks)
    return kernels, ks


@needs_cnative
def test_filter_passes_every_edge(hub_graph):
    # alpha of edge e = (v, u) as seen from prev = v is 1 iff the filter
    # lets (v, u) through to the exact search: a false negative reads 1/q
    kernels, ks = _filtered_state(hub_graph)
    filt = ks.edge_filter
    assert filt.dtype == np.uint64 and filt.size & (filt.size - 1) == 0
    assert 16 <= 64 * filt.size / hub_graph.targets.size <= 32  # bits per edge entry
    set_bits = int(np.unpackbits(filt.view(np.uint8)).sum())
    assert 0.9 * 2 * hub_graph.targets.size < set_bits <= 2 * hub_graph.targets.size
    offs = np.arange(hub_graph.targets.size)
    sources = np.repeat(np.arange(hub_graph.num_nodes), np.diff(hub_graph.offsets))
    alpha = kernels.dyn_weights(ks, sources, offs, None)
    np.testing.assert_array_equal(alpha, np.ones(offs.size))


@needs_cnative
def test_filtered_weights_equal_numpy(hub_graph):
    kernels, ks = _filtered_state(hub_graph)
    model = make_model("node2vec", hub_graph, **NODE2VEC)
    rng = np.random.default_rng(1)
    prev = rng.integers(0, hub_graph.num_nodes, 10_000)
    offs = rng.integers(0, hub_graph.targets.size, 10_000)
    want = model.batch_dynamic_weight(prev, None, None, 1, offs)
    np.testing.assert_array_equal(kernels.dyn_weights(ks, prev, offs, None), want)
    assert len(np.unique(want)) == 3  # 1/p, 1 and 1/q all occur
    ks.edge_filter = None
    np.testing.assert_array_equal(kernels.dyn_weights(ks, prev, offs, None), want)


@needs_cnative
@pytest.mark.parametrize("sampler", ("mh", "rejection"))
def test_filter_is_rebuilt_on_delta(hub_graph, sampler):
    hub = int(np.argmax(np.diff(hub_graph.offsets)))
    strangers = np.setdiff1d(np.arange(hub_graph.num_nodes), hub_graph.neighbors(hub))
    strangers = strangers[strangers != hub][:60]
    delta = GraphDelta.add_edges(np.full(strangers.size, hub), strangers)

    def corpus(backend):
        engine = VectorizedWalkEngine(
            hub_graph, "node2vec", sampler=sampler, backend=backend, seed=4, **NODE2VEC
        )
        engine.apply_delta(delta)
        return engine.generate(3, 15)

    # a stale filter answers "not an edge" for the new (hub, stranger) pairs
    got, want = corpus("cnative"), corpus("numpy")
    np.testing.assert_array_equal(got.walks, want.walks)
    np.testing.assert_array_equal(got.lengths, want.lengths)


@needs_cnative
def test_filter_is_counted(hub_graph):
    sizes = {}
    for backend in ("numpy", "cnative"):
        engine = VectorizedWalkEngine(hub_graph, "node2vec", backend=backend, **NODE2VEC)
        sizes[backend] = engine.memory_bytes()
        assert engine.stats()["edge_filter_bytes"] == engine.stepper.edge_filter_bytes
    assert engine.stepper.edge_filter_bytes > 0
    assert sizes["cnative"] - sizes["numpy"] == engine.stepper.edge_filter_bytes
    # no adjacency test in the rule, or no kernel that evaluates it per draw: no filter
    for model, sampler in (("deepwalk", "mh"), ("node2vec", "direct")):
        params = NODE2VEC if model == "node2vec" else {}
        engine = VectorizedWalkEngine(hub_graph, model, sampler, backend="cnative", **params)
        assert engine.stats()["edge_filter_bytes"] == 0


# ---------------------------------------------------------------------------
# (6) who keeps the base loop
# ---------------------------------------------------------------------------

def _digest(corpus) -> str:
    h = hashlib.sha256(np.ascontiguousarray(corpus.walks))
    h.update(np.ascontiguousarray(corpus.lengths))
    return h.hexdigest()


@needs_cnative
@pytest.mark.parametrize("initializer", ("random", "burn-in"))
def test_other_initializers_keep_the_base_loop(small_power_law_graph, initializer):
    def run(backend):
        engine = VectorizedWalkEngine(
            small_power_law_graph, "node2vec", backend=backend, seed=6,
            initializer=initializer, burn_in_iterations=4, **NODE2VEC,
        )
        corpus = engine.generate(2, 10)
        assert engine.stats()["wave_kernel"] is False
        return corpus

    assert _digest(run("cnative")) == _digest(run("numpy"))


@needs_cnative
def test_bound_initializer_instance_keeps_the_base_loop(small_power_law_graph):
    from repro.sampling.initialization import make_initializer

    engine = VectorizedWalkEngine(
        small_power_law_graph, "deepwalk", backend="cnative",
        initializer=make_initializer("high-weight"),
    )
    assert engine.stats()["wave_kernel"] is False


@pytest.mark.parametrize("backend", ("numpy", "cnative"))
def test_sharded_driver_keeps_the_base_loop(small_power_law_graph, backend):
    if not available_backends().get(backend, False):
        pytest.skip(f"kernel backend {backend!r} is not available here")
    kw = dict(seed=8, **NODE2VEC)
    mono = VectorizedWalkEngine(small_power_law_graph, "node2vec", backend="numpy", **kw)
    want = mono.generate(2, 10)
    assert mono.stats()["wave_kernel"] is False
    with ShardedWalkEngine(
        small_power_law_graph, "node2vec", num_shards=2, backend=backend, **kw
    ) as sharded:
        got = sharded.generate(2, 10)
        stats = sharded.stats()
    assert stats["wave_kernel"] is False and stats["migrated_walkers"] > 0
    assert _digest(got) == _digest(want)


class _UniformStepper(StepperBase):
    name = "uniform-wave-test"

    def __init__(self, graph, model, ctx):
        super().__init__(graph, model, ctx.kernels)

    def step(self, prev, prev_off, cur, step, rng):
        lo, deg = self._rows(cur)
        cand = lo + (rng.random(cur.size) * np.maximum(deg, 1)).astype(np.int64)
        self.proposals += cur.size
        return np.where(deg > 0, cand, NO_EDGE)


@pytest.mark.parametrize("backend", ("numpy", "cnative"))
def test_third_party_stepper_keeps_the_base_loop(small_unweighted_graph, backend):
    if not available_backends().get(backend, False):
        pytest.skip(f"kernel backend {backend!r} is not available here")
    register_sampler(_UniformStepper.name, _UniformStepper)
    try:
        engine = VectorizedWalkEngine(
            small_unweighted_graph, "deepwalk", sampler=_UniformStepper.name,
            backend=backend, seed=21,
        )
        corpus = engine.generate(2, 9)
    finally:
        unregister_sampler(_UniformStepper.name)
    stats = engine.stats()
    assert stats["wave_kernel"] is False and stats["edge_filter_bytes"] == 0
    # recorded at the parent commit (the loop then lived in the engine)
    assert _digest(corpus) == "6ea1538ac164f57ab1b5fb9e558d08a36f3a24af21d026a91bfa1bdf27e06703"


# ---------------------------------------------------------------------------
# (7) threads: their count, their time, what they may share
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def wide_graph():
    """Enough start nodes that a wave shares out to two threads unforced."""
    return generators.chung_lu_power_law(9000, 4.0, seed=2)


def _wide_run(graph, model="node2vec", seed=3):
    engine = VectorizedWalkEngine(
        graph, model, sampler="mh", backend="cnative", seed=seed,
        **(NODE2VEC if model == "node2vec" else {}),
    )
    return engine, _digest(engine.generate(2, 6))


@needs_cnative
@pytest.mark.parametrize("threads", THREADS)
def test_init_seconds_are_wall_time(small_power_law_graph, force_wave_threads, threads):
    # Ti is setup + init seconds and Tw the rest of the walk's wall time:
    # per-thread seconds added up would overstate the one, clamp the other
    force_wave_threads(threads)
    engine = VectorizedWalkEngine(
        small_power_law_graph, "node2vec", backend="cnative", seed=2, **NODE2VEC
    )
    start = time.perf_counter()
    engine.generate(3, 20)
    wall = time.perf_counter() - start
    assert 0.0 < engine.stats()["init_seconds"] <= wall


@needs_cnative
def test_wave_threads_are_reported(small_power_law_graph, wide_graph, force_wave_threads):
    engine, __ = _wide_run(wide_graph)
    assert 1 <= engine.stats()["wave_threads"] <= len(os.sched_getaffinity(0))
    force_wave_threads(3)
    engine, __ = _wide_run(wide_graph)
    assert engine.stats()["wave_threads"] == 3
    engine.stepper.wave_kernel = False
    engine.generate(1, 4)
    assert engine.stats()["wave_threads"] == 0  # the last wave ran the base loop
    numpy_engine = VectorizedWalkEngine(small_power_law_graph, "deepwalk", backend="numpy")
    numpy_engine.generate(1, 4)
    assert numpy_engine.stats()["wave_threads"] == 0


@needs_cnative
@pytest.mark.parametrize(
    "chain, bad",
    [
        ("last", lambda a: a.astype(np.int32)),
        ("last", lambda a: np.repeat(a, 2)[::2]),
        ("last_w", lambda a: a.astype(np.float32)),
        ("last_w", lambda a: np.repeat(a, 2)[::2]),
    ],
    ids=("last-int32", "last-strided", "last_w-float32", "last_w-strided"),
)
def test_chain_arrays_are_checked(small_power_law_graph, chain, bad):
    # threads write them in place: a converted copy would swallow the walk
    engine = VectorizedWalkEngine(small_power_law_graph, "deepwalk", backend="cnative", seed=1)
    setattr(engine.stepper.chains, chain, bad(getattr(engine.stepper.chains, chain)))
    with pytest.raises(WalkError, match="chain_last"):
        engine.generate(1, 5)


@needs_cnative
def test_two_engines_at_once(wide_graph, force_wave_threads):
    # ctypes drops the GIL, so two Python threads can be inside mh_wave
    # together: each call's threads, barrier and scratch are its own
    force_wave_threads(2)
    cases = (("node2vec", 3), ("deepwalk", 4))
    want = {case: _wide_run(wide_graph, *case)[1] for case in cases}
    together = threading.Barrier(len(cases), timeout=60.0)

    def runs(case):
        together.wait()
        return [_wide_run(wide_graph, *case)[1] for __ in range(3)]

    with ThreadPoolExecutor(len(cases)) as pool:
        results = {case: pool.submit(runs, case) for case in cases}
        for case, result in results.items():
            assert result.result(timeout=120.0) == [want[case]] * 3


@needs_cnative
def test_after_a_fork(wide_graph, force_wave_threads):
    # helper threads have been created and joined in this process; a
    # forked child must find nothing of them (no pool, no lock held)
    force_wave_threads(2)
    __, want = _wide_run(wide_graph)
    child = os.fork()
    if child == 0:
        status = 1
        try:
            status = int(_wide_run(wide_graph)[1] != want)
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        done, status = os.waitpid(child, os.WNOHANG)
        if done:
            break
        time.sleep(0.02)
    else:
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
        pytest.fail("the forked child did not finish its walk")
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


@needs_cnative
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls here")
def test_one_cpu_means_one_thread(wide_graph, force_wave_threads):
    used = force_wave_threads(None)
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        __, one = _wide_run(wide_graph)
    finally:
        os.sched_setaffinity(0, allowed)
    assert set(used) == {1}  # no helper thread was created
    if len(allowed) > 1:
        # the same walk shares its lanes out as soon as it may
        del used[:]
        assert _wide_run(wide_graph)[1] == one
        assert max(used) > 1
