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
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ShardError, WalkError
from repro.graph import GraphDelta, generators
from repro.graph.builder import from_edge_arrays
from repro.registry import register_sampler, unregister_sampler
from repro.sampling.base import NO_EDGE
from repro.sharding import ShardedWalkEngine
from repro.tokens import TOKEN_DTYPE
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
          walk_length=12, waves=2, params=None, starts=None, **engine_kw):
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
        if layout == "subset":
            starts = np.arange(0, graph.num_nodes, 3)
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
# (4b) the read-ahead's edges: every load a read-ahead makes is one the
# lane's own step makes, so none may reach past a wave, a block or the
# edge arrays (the sanitizer job runs these too)
# ---------------------------------------------------------------------------

READ_AHEAD_THREADS = (1, 2, 3)


def _ends_graph(n=30, seed=0):
    """Rows with no entry at both ends of ``offsets``, the graph's last
    entry alone in its row (so every draw there proposes it), and a hub
    row that reaches every node, the last one included."""
    rng = np.random.default_rng(seed)
    src, dst = [n - 2, 1], [1, 0]  # into node 0's empty row; the last entry
    for v in range(1, n - 2):
        row = rng.choice(np.arange(n), size=int(rng.integers(1, 6)), replace=False)
        src += [v] * row.size
        dst += row.tolist()
    src += [1] * (n - 1)  # node 1: a hub whose row also reaches node n - 1
    dst += list(range(1, n))
    graph = from_edge_arrays(np.array(src), np.array(dst), num_nodes=n, directed=True,
                             duplicate_policy="first", allow_self_loops=True)
    degrees = np.diff(graph.offsets)
    assert degrees[0] == degrees[-1] == 0 and degrees[-2] == 1 and degrees[1] == n
    return graph


@needs_cnative
@pytest.mark.parametrize("threads", READ_AHEAD_THREADS)
@pytest.mark.parametrize("model", sorted(MODELS))
def test_waves_shorter_than_the_read_ahead(graphs, force_wave_threads, model, threads):
    # 1 to 40 lanes: fewer than every distance, and a few past each
    force_wave_threads(threads)
    graph = graphs[True]
    starts = np.random.default_rng(4).permutation(graph.num_nodes)
    for lanes in range(1, 41):
        _both(graph, model, starts=starts[:lanes], walk_length=6)


@needs_cnative
@pytest.mark.parametrize("threads", READ_AHEAD_THREADS)
@pytest.mark.parametrize("live", ("first", "middle", "last"))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_every_lane_dead_but_one(force_wave_threads, model, live, threads):
    # every node steps into one sink but the live one, which loops on
    # itself: from the first kernel step on, one lane of 40 is alive
    force_wave_threads(threads)
    n, sink = 41, 40
    keep = {"first": 0, "middle": 20, "last": 39}[live]
    src = np.arange(sink)
    dst = np.where(src == keep, keep, sink)
    graph = from_edge_arrays(src, dst, num_nodes=n, directed=True, allow_self_loops=True)
    run = _both(graph, model, walk_length=7)
    lengths = run["lengths"][:n]
    assert lengths[keep] == 7 and lengths[sink] == 1
    assert (np.delete(lengths, [keep, sink]) == 2).all()


@needs_cnative
@pytest.mark.parametrize("threads", READ_AHEAD_THREADS)
@pytest.mark.parametrize("weighted", (False, True))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_empty_rows_at_both_ends_and_the_last_entry(force_wave_threads, model, weighted, threads):
    force_wave_threads(threads)
    graph = _ends_graph()
    if weighted:
        graph = type(graph)(graph.offsets, graph.targets, np.arange(graph.targets.size) % 3 + 0.5)
    run = _both(graph, model, walk_length=9, waves=3)
    # walkers reached node 0 and node n - 1, and took the graph's last entry
    visited = run["walks"][run["walks"] >= 0]
    n = graph.num_nodes
    assert {0, n - 1} <= set(visited.tolist())
    pairs = zip(run["walks"][:, :-1].ravel(), run["walks"][:, 1:].ravel())
    assert (n - 2, 1) in set(pairs)


@needs_cnative
@pytest.mark.parametrize("threads", READ_AHEAD_THREADS)
@pytest.mark.parametrize("walk_length", (1, 2))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_walks_of_one_and_two_nodes(graphs, force_wave_threads, model, walk_length, threads):
    force_wave_threads(threads)
    run = _both(graphs[False], model, walk_length=walk_length)
    assert run["lengths"].max() == walk_length


@st.composite
def race_rows(draw):
    """Race keys laid out row after row: empty rows, all-inf rows, ties,
    signed zeros, and the non-keys the NumPy reduction also sees."""
    keys = st.sampled_from((0.0, -0.0, 0.5, 0.5, 1.0, np.inf)) | st.floats()
    rows = draw(st.lists(st.lists(keys, max_size=9), max_size=12))
    deg = np.array([len(row) for row in rows], dtype=np.int64)
    return np.array([k for row in rows for k in row], dtype=np.float64), deg


@needs_cnative
@settings(max_examples=300, deadline=None)
@given(rows=race_rows())
def test_race_argmin_equals_numpy(rows):
    keys, deg = rows
    compiled, reference = resolve_backend("cnative"), resolve_backend("numpy")
    want = reference.race_argmin(keys, deg)
    np.testing.assert_array_equal(compiled.race_argmin(keys, deg), want)
    lo = np.cumsum(deg) * 7  # any row starts
    np.testing.assert_array_equal(compiled.row_offsets(lo, deg), reference.row_offsets(lo, deg))


@needs_cnative
def test_rows_of_another_layout_are_refused():
    # the C loops trust the row layout: a mismatch would read or write
    # past a buffer
    compiled = resolve_backend("cnative")
    with pytest.raises(WalkError, match="3 keys for rows of 4 entries"):
        compiled.race_argmin(np.zeros(3), np.array([1, 3]))
    with pytest.raises(WalkError, match="keys for rows of"):
        compiled.race_argmin(np.zeros(2), np.array([-3, 5]))
    for lo, deg in (([0, 4], [1]), ([0, 4], [-3, 5])):
        with pytest.raises(WalkError, match="row_offsets"):
            compiled.row_offsets(np.array(lo), np.array(deg))


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
    assert ks.edge_filter is graph.edge_filter()  # the graph's, built in NumPy
    return kernels, ks


@needs_cnative
def test_filter_passes_every_edge(hub_graph):
    # alpha of edge e = (v, u) as seen from prev = v is 1 iff the C probe
    # lets (v, u) through the NumPy-built filter to the exact search: a
    # false negative (a hash or layout the two sides disagree on) reads 1/q
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
        old_filter = engine.stepper.kernel_state.edge_filter
        engine.apply_delta(delta)
        # the new graph owns a filter of its own, holding the new edges
        new = engine.stepper.graph
        assert new is not hub_graph and old_filter is hub_graph.edge_filter()
        assert engine.stepper.kernel_state.edge_filter is new.edge_filter()
        np.testing.assert_array_equal(
            new.edge_filter(), type(new)(new.offsets, new.targets).edge_filter()
        )
        assert new.has_edge_batch(np.full(strangers.size, hub), strangers).all()
        return engine.generate(3, 15)

    # a stale filter answers "not an edge" for the new (hub, stranger) pairs
    got, want = corpus("cnative"), corpus("numpy")
    np.testing.assert_array_equal(got.walks, want.walks)
    np.testing.assert_array_equal(got.lengths, want.lengths)


@needs_cnative
def test_filter_is_counted(hub_graph):
    filter_bytes = hub_graph.edge_filter().nbytes
    sizes = {}
    for backend in ("numpy", "cnative"):
        for sampler in ("mh", "direct"):
            engine = VectorizedWalkEngine(hub_graph, "node2vec", sampler, backend=backend,
                                          **NODE2VEC)
            # every backend and sampler probes the one filter the graph owns
            assert engine.stats()["edge_filter_bytes"] == filter_bytes > 0
        engine = VectorizedWalkEngine(hub_graph, "node2vec", backend=backend, **NODE2VEC)
        sizes[backend] = engine.memory_bytes()
    # counted once, by the sampler whose compiled kernels probe it per draw
    assert sizes["cnative"] - sizes["numpy"] == filter_bytes
    # no adjacency test in the rule: no filter
    engine = VectorizedWalkEngine(hub_graph, "deepwalk", backend="cnative")
    assert engine.stats()["edge_filter_bytes"] == 0


# ---------------------------------------------------------------------------
# (6) who keeps the base loop
# ---------------------------------------------------------------------------

def _digest(corpus) -> str:
    """SHA-256 of the corpus's values, widened to int64 as recorded."""
    h = hashlib.sha256(np.ascontiguousarray(corpus.walks, dtype=np.int64))
    h.update(np.ascontiguousarray(corpus.lengths, dtype=np.int64))
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
def test_an_initializer_instance_is_refused(small_power_law_graph):
    from repro.sampling.initialization import HighWeightInit

    with pytest.raises(WalkError, match="initializer must be a registered name"):
        VectorizedWalkEngine(
            small_power_law_graph, "deepwalk", backend="cnative", initializer=HighWeightInit()
        )


@needs_cnative
def test_a_replaced_high_weight_keeps_the_base_loop(small_power_law_graph):
    """Only the built-in high-weight entry gets the wave (and the shards)."""
    from repro.registry import INITIALIZER_REGISTRY, register_initializer
    from repro.sampling.initialization import HighWeightInit

    class Copy(HighWeightInit):
        pass

    def run():
        engine = VectorizedWalkEngine(small_power_law_graph, "deepwalk", backend="cnative", seed=2)
        return _digest(engine.generate(2, 10)), engine.stats()["wave_kernel"]

    builtin = INITIALIZER_REGISTRY.entry("high-weight")
    register_initializer("high-weight", Copy, aliases=builtin.aliases, replace=True)
    try:
        replaced = run()
        with pytest.raises(ShardError, match="built-in initializer"):
            ShardedWalkEngine(small_power_law_graph, "deepwalk", num_shards=2)
    finally:
        register_initializer("high-weight", HighWeightInit, aliases=builtin.aliases, replace=True)
    # the same draws on the base loop: the same corpus
    assert replaced == (run()[0], False)


@pytest.mark.parametrize("backend", ("numpy", "cnative"))
def test_sharded_driver_keeps_the_base_loop(small_power_law_graph, backend):
    if not available_backends().get(backend, False):
        pytest.skip(f"kernel backend {backend!r} is not available here")
    mono = VectorizedWalkEngine(small_power_law_graph, "deepwalk", backend="numpy", seed=8)
    want = mono.generate(2, 10)
    assert mono.stats()["wave_kernel"] is False
    with ShardedWalkEngine(
        small_power_law_graph, "deepwalk", num_shards=2, backend=backend, seed=8
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
    assert corpus.walks.dtype == TOKEN_DTYPE
    # recorded when the loop lived in the engine and tokens were int64
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
@pytest.mark.parametrize("dtype", (np.int64, np.int16))
def test_walk_matrix_is_token_dtype(small_power_law_graph, dtype):
    # the kernel writes token_t in place: any other matrix is refused
    engine = VectorizedWalkEngine(small_power_law_graph, "deepwalk", backend="cnative", seed=1)
    starts = engine.model.valid_start_nodes()
    walks = np.full((starts.size, 5), -1, dtype=dtype)
    with pytest.raises(WalkError, match=f"{TOKEN_DTYPE} walks"):
        engine.stepper.run_wave(starts, 5, walks, 0, engine.rng)


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


# ---------------------------------------------------------------------------
# (8) the wave's threads under ThreadSanitizer
# ---------------------------------------------------------------------------

#: a standalone driver for the wave kernel's C: a generated graph, the
#: harness's own generator, both weight rules, two waves each; every
#: forced thread count must give the one-thread run bit for bit
TSAN_MAIN = r"""
enum { N = 700, L = 16, HUBS = 4, MAXE = 16384 };
static int64_t offsets[N + 1], targets[MAXE];
static double weights[MAXE];
static uint64_t filt[MAXE / 4];

/* splitmix64: the uniforms, read through the kernel's next_double_fn */
static double next_double(void *state) {
    uint64_t z = (*(uint64_t *)state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return (double)((z ^ (z >> 31)) >> 11) * 0x1.0p-53;
}

typedef struct {
    token_t walks[2 * N * L];
    int64_t lengths[2 * N], chain_last[MAXE], counts[3];
    double chain_last_w[MAXE];
} run_t;

/* two waves of a walk from every node; node2vec's step 0 is the row's
   entry v % deg, the static rule starts at step 0, sinks included */
static int walk(run_t *r, int kind, const double *w, int64_t cap, uint64_t fmask,
                int64_t threads) {
    static int64_t ids[N], prev[N], prev_off[N], cur[N];
    int order = kind == 2 ? 2 : 1;
    uint64_t rng = 42;
    double init_seconds = 0.0;
    memset(r, 0, sizeof *r);
    for (int64_t k = 0; k < 2 * N * L; k++) r->walks[k] = -1;
    for (int64_t s = 0; s < MAXE; s++) r->chain_last[s] = -1, r->chain_last_w[s] = NAN;
    for (int64_t wave = 0, n = 0; wave < 2; wave++, n = 0) {
        token_t *walks = r->walks + wave * N * L;
        int64_t *lengths = r->lengths + wave * N;
        for (int64_t v = 0; v < N; v++) {
            int64_t deg = offsets[v + 1] - offsets[v];
            walks[v * L] = (token_t)v;
            lengths[v] = 1;
            if (order == 2 && deg == 0) continue;
            ids[n] = v, prev[n] = -1, prev_off[n] = -1, cur[n] = v;
            if (order == 2) {
                prev[n] = v, prev_off[n] = offsets[v] + v % deg, cur[n] = targets[prev_off[n]];
                walks[v * L + 1] = (token_t)cur[n];
                lengths[v] = 2;
            }
            n++;
        }
        if (mh_wave(n, N, order - 1, L, offsets, targets, w, N, offsets[N], kind, 0.25, 4.0,
                    kind == 2 ? filt : NULL, fmask, order, cap, next_double, &rng,
                    ids, prev, prev_off, cur, r->chain_last, r->chain_last_w, walks, lengths,
                    threads, r->counts, &init_seconds) != threads)
            return 0;
    }
    return 1;
}

int main(int argc, char **argv) {
    uint64_t x = 0x2545F4914F6CDD1DULL;
#define NEXT() (x ^= x << 13, x ^= x >> 7, x ^= x << 17, (int64_t)(x >> 1))
    int64_t e = 0;
    for (int64_t v = 0; v < N; v++) {
        /* hubs of over 64 entries; sinks; isolated nodes (no row and no
           edge in); the last row empty. Rows sorted, some weights zero */
        int64_t sink = v % 11 == 5 || v % 13 == 7 || v == N - 1;
        int64_t deg = v < HUBS ? 70 + 40 * v : sink ? 0 : 1 + NEXT() % 9;
        offsets[v] = e;
        for (int64_t t = NEXT() % 3, k = 0; k < deg && t < N; t += 1 + NEXT() % 3)
            if (t % 13 != 7) targets[e] = t, weights[e++] = 0.5 * (double)(NEXT() % 5), k++;
    }
    offsets[N] = e;
    uint64_t words = 8;
    while (words < (uint64_t)e / 4) words *= 2;
    for (int64_t v = 0; v < N; v++)
        for (int64_t k = offsets[v]; k < offsets[v + 1]; k++) {
            uint64_t h = edge_hash(v, targets[k]);
            filt[h & (words - 1)] |= FILTER_BITS(h);
        }
    static run_t one, many;
    for (int kind = 1; kind <= 2; kind++)
        for (int weighted = 0; weighted < 2; weighted++) {
            const double *w = weighted ? weights : NULL;
            int64_t cap = weighted ? 0 : 16;
            if (!walk(&one, kind, w, cap, words - 1, 1)) return 2;
            for (int a = 1; a < argc; a++) {
                if (!walk(&many, kind, w, cap, words - 1, atoi(argv[a]))) return 2;
                if (memcmp(&one, &many, sizeof one)) return 3;
            }
        }
    return 0;
}
"""


@needs_cnative
def test_no_data_race_under_thread_sanitizer(tmp_path):
    """The wave's threads, built with ``-fsanitize=thread``: any two of them
    touching one location without a barrier between them is a reported
    race, and a failure here (exit 3: a thread count changed the walk)."""
    from repro.utils.cbuild import find_compiler
    from repro.walks.kernels.cnative_backend import _C_SOURCE

    compiler = find_compiler()
    source = tmp_path / "wave_tsan.c"
    source.write_text(_C_SOURCE + TSAN_MAIN)
    binary = tmp_path / "wave_tsan"
    build = subprocess.run(
        [compiler, "-fsanitize=thread", "-O1", "-g", "-ffp-contract=off", "-o", str(binary),
         str(source), "-pthread"],
        capture_output=True, text=True, timeout=120,
    )
    if build.returncode != 0:
        pytest.skip(f"{compiler} cannot build with -fsanitize=thread: {build.stderr[:200]}")
    env = {**os.environ, "TSAN_OPTIONS": "halt_on_error=1 exitcode=66"}
    run = subprocess.run(
        [str(binary), "2", "3", "7"], capture_output=True, text=True, timeout=300, env=env
    )
    if run.returncode != 0 and "FATAL: ThreadSanitizer" in run.stderr:
        pytest.skip(f"ThreadSanitizer cannot run here: {run.stderr[:200]}")
    assert run.returncode == 0, run.stderr[-4000:]
    assert "WARNING: ThreadSanitizer" not in run.stderr
