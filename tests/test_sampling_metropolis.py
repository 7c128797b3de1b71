"""Tests for the M-H stepper and its initialization strategies.

The chain mechanics run on the ``mh`` stepper of the walk engine, on
both kernel backends: ``stepper.step(prev, prev_off, cur, step, rng)``
advances one chain per lane and ``engine.stats()`` counts what it did.
The initializers are the registered strategies, called as the stepper
calls them: ``init_chains(stepper, stepper.begin(...), rng)``. The
per-state law is fitted in ``tests/test_statistical.py``.
"""

import numpy as np
import pytest

from repro.errors import WalkError
from repro.graph.builder import from_edge_arrays
from repro.registry import INITIALIZER_REGISTRY, register_initializer
from repro.sampling.base import NO_EDGE
from repro.sampling.memory_model import sampler_memory_estimate
from repro.walks.manager import ChainStore
from repro.walks.models import make_model
from repro.walks.vectorized import VectorizedWalkEngine

INITIALIZERS = ("random", "high-weight", "burn-in")


def tv_distance(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def lanes_at(graph, cur, prev=-1, count=1):
    """``count`` lanes at the state ``(prev, cur)``: ``(prev, prev_off, cur)``."""
    c = np.full(count, cur, dtype=np.int64)
    p = np.full(count, prev, dtype=np.int64)
    p_off = np.full(count, graph.edge_index(prev, cur) if prev >= 0 else -1, dtype=np.int64)
    return p, p_off, c


@pytest.fixture
def n2v_state(tiny_weighted_graph):
    """The node2vec state (3 -> 0) of the tiny weighted graph."""
    return lanes_at(tiny_weighted_graph, 0, prev=3)


def mh_engine(graph, model, backend, **keywords):
    return VectorizedWalkEngine(graph, model, sampler="mh", backend=backend, seed=5, **keywords)


def init_chains(name, graph, model, backend, lanes, step, **keywords):
    """The registered strategy ``name`` on the fresh chains of ``lanes``
    (``(prev, prev_off, cur)``), through a new engine's M-H stepper."""
    eng = mh_engine(graph, model, backend, initializer=name, **keywords)
    m = eng.stepper.begin(*lanes, step)
    assert m["uninit"].all()
    return INITIALIZER_REGISTRY.get(name).init_chains(eng.stepper, m, eng.rng)


class TestConvergence:
    def test_uniform_target_exact_immediately(self, small_unweighted_graph, kernel_backend):
        """For deepwalk on unweighted graphs every proposal is accepted,
        so each lane's draw is its own uniform candidate: lanes sharing
        one state draw iid from the uniform law."""
        g = small_unweighted_graph
        v = int(np.argmax(g.degrees()))
        eng = mh_engine(g, "deepwalk", kernel_backend)
        off = eng.stepper.step(*lanes_at(g, v, count=30_000), 1, eng.rng)
        stats = eng.stats()
        assert stats["accepts"] == stats["proposals"] == 30_000
        lo, hi = g.edge_range(v)
        counts = np.bincount(off - lo, minlength=hi - lo)
        assert tv_distance(counts / counts.sum(), np.full(hi - lo, 1.0 / (hi - lo))) < 0.03

    def test_metapath_chain_stays_in_support(self, academic, kernel_backend):
        """Zero-weight (wrong-type) edges must never be emitted."""
        graph, __ = academic
        eng = mh_engine(graph, "metapath2vec", kernel_backend, initializer="random", metapath="APA")
        cur = np.flatnonzero(graph.node_types == 0)[:30].astype(np.int64)
        none = np.full(cur.size, -1, dtype=np.int64)
        for __ in range(20):
            off = eng.stepper.step(none, none, cur, 0, eng.rng)
            # step 0 of APA targets type P(=1)
            assert np.all(graph.node_types[graph.targets[off[off != NO_EDGE]]] == 1)


class TestChainMechanics:
    def test_memory_is_one_slot_per_state(self, tiny_weighted_graph):
        g = tiny_weighted_graph
        eng = mh_engine(g, make_model("node2vec", g, p=0.25, q=4.0), "numpy")
        assert eng.stepper.chains.last.size == g.num_edge_entries
        assert eng.memory_bytes() == 16 * g.num_edge_entries
        assert sampler_memory_estimate("mh", g, eng.model) == 16 * g.num_edge_entries

    def test_lazy_initialization_counted(self, tiny_weighted_graph, n2v_state, kernel_backend):
        eng = mh_engine(tiny_weighted_graph, "node2vec", kernel_backend, p=0.25, q=4.0)
        chains = eng.stepper.chains
        assert chains.num_initialized == 0
        eng.stepper.step(*n2v_state, 1, eng.rng)
        assert chains.num_initialized == 1
        assert eng.stats()["initializations"] == 1
        eng.stepper.step(*n2v_state, 1, eng.rng)
        assert eng.stats()["initializations"] == 1  # only first touch

    def test_reset_chains(self, tiny_weighted_graph, n2v_state):
        eng = mh_engine(tiny_weighted_graph, "node2vec", "numpy", p=0.25, q=4.0)
        eng.stepper.step(*n2v_state, 1, eng.rng)
        eng.stepper.chains.reset()
        assert eng.stepper.chains.num_initialized == 0
        eng.stepper.step(*n2v_state, 1, eng.rng)
        assert eng.stats()["initializations"] == 2  # a reset chain starts again

    def test_isolated_node_returns_no_edge(self, kernel_backend):
        g = from_edge_arrays([0], [1], num_nodes=3)
        eng = mh_engine(g, "deepwalk", kernel_backend)
        none = np.full(2, -1, dtype=np.int64)
        off = eng.stepper.step(none, none, np.array([2, 0]), 1, eng.rng)
        assert off[0] == NO_EDGE and off[1] == g.edge_index(0, 1)

    def test_shared_chain_store(self, tiny_weighted_graph, n2v_state):
        g = tiny_weighted_graph
        model = make_model("node2vec", g, p=0.25, q=4.0)
        store = ChainStore(g, model)
        eng = VectorizedWalkEngine(g, model, sampler="mh", chain_store=store, seed=1)
        eng.stepper.step(*n2v_state, 1, eng.rng)
        assert store.num_initialized == 1

    def test_mismatched_chain_store_rejected(self, tiny_weighted_graph):
        g = tiny_weighted_graph
        store = ChainStore(g, make_model("deepwalk", g))
        with pytest.raises(WalkError, match="chain_store"):
            VectorizedWalkEngine(g, "node2vec", sampler="mh", chain_store=store)


class TestInitializers:
    def test_random_never_returns_a_zero_weight_edge(self, academic, kernel_backend):
        """APA at step 1 walks paper -> author, so a paper's venue edges
        weigh zero; a slot that lands on one draws again in the support."""
        graph, __ = academic
        model = make_model("metapath2vec", graph, metapath="APA")
        papers = np.flatnonzero(graph.node_types == 1)
        cur = papers[graph.degrees()[papers] > 0].astype(np.int64)
        lanes = lanes_at(graph, 0, count=cur.size)[:2] + (cur,)
        rows = [model.dynamic_weights_row(int(v), step=1) for v in cur]
        assert any((row == 0.0).any() for row in rows)  # the fallback has work
        off = init_chains("random", graph, model, kernel_backend, lanes, 1)
        assert np.all(off != NO_EDGE)
        assert np.all(model.batch_dynamic_weight(*lanes, 1, off) > 0.0)

    def test_no_cap_takes_the_exact_row_argmax(self, tiny_weighted_graph, n2v_state, kernel_backend):
        g = tiny_weighted_graph
        model = make_model("node2vec", g, p=0.25, q=4.0)
        (off,) = init_chains(
            "high-weight", g, model, kernel_backend, n2v_state, 1, init_sample_cap=None
        )
        weights = model.dynamic_weights_row(0, 3, g.edge_index(3, 0), 1)
        assert off - g.offsets[0] == int(np.argmax(weights))

    def test_capped_draw_returns_a_positive_weight_edge(self, small_power_law_graph, kernel_backend):
        g = small_power_law_graph
        v = int(np.argmax(g.degrees()))
        off = init_chains(
            "high-weight", g, "deepwalk", kernel_backend, lanes_at(g, v, count=50), 1,
            init_sample_cap=4,
        )
        lo, hi = g.edge_range(v)
        assert np.all((off >= lo) & (off < hi))
        assert np.all(g.edge_weight_at(off) > 0)

    def test_capped_draw_samples_with_replacement_on_short_rows(self, kernel_backend):
        """A row of 3 edges under a cap of 4: a chain misses the heaviest
        edge with probability (2/3)^4, so some of 400 chains start elsewhere."""
        g = from_edge_arrays([0, 0, 0], [1, 2, 3], [1.0, 5.0, 1.0], num_nodes=4)
        off = init_chains(
            "high-weight", g, "deepwalk", kernel_backend, lanes_at(g, 0, count=400), 1,
            init_sample_cap=4,
        )
        best = g.edge_index(0, 2)
        assert 0 < np.count_nonzero(off != best) < 400

    def test_burn_in_moves_the_chain(self, tiny_weighted_graph, n2v_state, kernel_backend):
        """Burn-in starts where random does on the same draws, then moves."""
        g = tiny_weighted_graph
        lanes = tuple(np.repeat(a, 200) for a in n2v_state)
        run = {
            iterations: init_chains(
                "burn-in", g, "node2vec", kernel_backend, lanes, 1,
                burn_in_iterations=iterations, p=0.25, q=4.0,
            )
            for iterations in (0, 50)
        }
        start = init_chains("random", g, "node2vec", kernel_backend, lanes, 1, p=0.25, q=4.0)
        np.testing.assert_array_equal(run[0], start)
        assert np.any(run[50] != start)
        lo, hi = g.edge_range(0)
        assert np.all((run[50] >= lo) & (run[50] < hi))

    @pytest.mark.parametrize("name", INITIALIZERS)
    def test_a_dead_state_gives_no_edge(self, name, kernel_backend):
        g = from_edge_arrays([0], [1], num_nodes=3)
        typed = g.with_node_types(np.array([0, 0, 1], dtype=np.int16))
        model = make_model("metapath2vec", typed, metapath=[0, 1, 0])
        # node 0 must move to type 1 but its only neighbour has type 0
        off = init_chains(name, typed, model, kernel_backend, lanes_at(typed, 0), 0)
        assert off.tolist() == [NO_EDGE]

    @pytest.mark.parametrize("name", INITIALIZERS)
    def test_a_replaced_builtin_is_the_strategy_walks_run(
        self, name, small_power_law_graph, kernel_backend
    ):
        calls = []

        class FirstEdge:
            @staticmethod
            def init_chains(stepper, m, rng):
                cur = stepper.fresh_lanes(m)[2]
                calls.append(cur.size)
                return stepper.graph.offsets[cur]

        builtin = INITIALIZER_REGISTRY.entry(name)
        register_initializer(name, FirstEdge, aliases=builtin.aliases, replace=True)
        try:
            eng = mh_engine(small_power_law_graph, "deepwalk", kernel_backend, initializer=name)
            eng.generate(num_walks=1, walk_length=5)
        finally:
            register_initializer(name, builtin.obj, aliases=builtin.aliases, replace=True)
        stats = eng.stats()
        assert sum(calls) == stats["initializations"] > 0
        assert stats["wave_kernel"] is False
        assert INITIALIZER_REGISTRY.entry(name) == builtin


class TestHighWeightVsRandomAccuracy:
    def test_high_weight_better_on_skewed_target(self, kernel_backend):
        """Early-sample accuracy: high-weight starts in the high-probability
        region, so short sample runs approximate skewed targets better
        (the Fig. 1 / Theorem 3 effect at the sampler level).

        200 copies of a star row (one dominant edge among 20) are 200
        fresh chains; each takes 10 draws and is scored alone."""
        copies, leaves = 200, 20
        hubs = np.arange(copies, dtype=np.int64) * (leaves + 1)
        w = np.full(leaves, 0.01)
        w[7] = 10.0
        g = from_edge_arrays(
            np.repeat(hubs, leaves), (hubs[:, None] + np.arange(1, leaves + 1)).ravel(),
            np.tile(w, copies), num_nodes=copies * (leaves + 1), duplicate_policy="first",
        )
        exact = w / w.sum()
        none = np.full(copies, -1, dtype=np.int64)
        errors = {}
        for strategy in ("random", "high-weight"):
            eng = mh_engine(g, "deepwalk", kernel_backend, initializer=strategy)
            counts = np.zeros((copies, leaves))
            for __ in range(10):  # short run: init effects dominate
                off = eng.stepper.step(none, none, hubs, 1, eng.rng)
                counts[np.arange(copies), off - g.offsets[hubs]] += 1
            errors[strategy] = np.mean(
                [tv_distance(row / row.sum(), exact) for row in counts]
            )
        assert errors["high-weight"] < errors["random"]
