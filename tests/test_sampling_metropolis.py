"""Tests for the M-H stepper and its initialization strategies.

The chain mechanics run on the ``mh`` stepper of the walk engine, on
both kernel backends: ``stepper.step(prev, prev_off, cur, step, rng)``
advances one chain per lane and ``engine.stats()`` counts what it did.
Its per-state law is fitted in ``tests/test_statistical.py``.
"""

import numpy as np
import pytest

from repro.errors import SamplerError, WalkError
from repro.graph.builder import from_edge_arrays
from repro.sampling.base import NO_EDGE
from repro.sampling.initialization import (
    BurnInInitializer,
    HighWeightInitializer,
    RandomInitializer,
    make_initializer,
)
from repro.sampling.memory_model import sampler_memory_estimate
from repro.walks.manager import ChainStore
from repro.walks.models import make_model
from repro.walks.state import WalkerState
from repro.walks.vectorized import VectorizedWalkEngine


def tv_distance(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def lanes_at(graph, cur, prev=-1, count=1):
    """``count`` lanes at the state ``(prev, cur)``: ``(prev, prev_off, cur)``."""
    c = np.full(count, cur, dtype=np.int64)
    p = np.full(count, prev, dtype=np.int64)
    p_off = np.full(count, graph.edge_index(prev, cur) if prev >= 0 else -1, dtype=np.int64)
    return p, p_off, c


@pytest.fixture
def n2v_setup(tiny_weighted_graph):
    g = tiny_weighted_graph
    model = make_model("node2vec", g, p=0.25, q=4.0)
    state = WalkerState(current=0, previous=3, prev_edge_offset=g.edge_index(3, 0), step=1)
    return g, model, state


@pytest.fixture
def n2v_state(tiny_weighted_graph):
    """The node2vec state (3 -> 0) of the tiny weighted graph."""
    return lanes_at(tiny_weighted_graph, 0, prev=3)


def mh_engine(graph, model, backend, **keywords):
    return VectorizedWalkEngine(graph, model, sampler="mh", backend=backend, seed=5, **keywords)


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
    def test_make_initializer_names(self):
        assert isinstance(make_initializer("random"), RandomInitializer)
        assert isinstance(make_initializer("high-weight"), HighWeightInitializer)
        assert isinstance(make_initializer("burn-in"), BurnInInitializer)
        custom = RandomInitializer()
        assert make_initializer(custom) is custom

    def test_make_initializer_unknown(self):
        with pytest.raises(SamplerError):
            make_initializer("bogus")
        with pytest.raises(SamplerError):
            make_initializer(42)

    def test_high_weight_picks_argmax(self, n2v_setup, rng):
        g, model, state = n2v_setup
        init = HighWeightInitializer(sample_cap=None)
        off = init.initialize(g, model, state, rng)
        weights = model.dynamic_weights_row(g, state)
        lo, __ = g.edge_range(state.current)
        assert off - lo == int(np.argmax(weights))

    def test_high_weight_capped_returns_positive(self, small_power_law_graph, rng):
        g = small_power_law_graph
        model = make_model("deepwalk", g)
        init = HighWeightInitializer(sample_cap=4)
        v = int(np.argmax(g.degrees()))
        off = init.initialize(g, model, WalkerState(current=v), rng)
        assert off != NO_EDGE
        assert g.edge_weight_at(off) > 0

    def test_high_weight_invalid_cap(self):
        with pytest.raises(SamplerError):
            HighWeightInitializer(sample_cap=0)

    def test_random_init_avoids_zero_weight(self, academic, rng):
        graph, __ = academic
        model = make_model("metapath2vec", graph, metapath="APA")
        init = RandomInitializer()
        authors = np.flatnonzero(graph.node_types == 0)
        for a in authors[:20]:
            state = WalkerState(current=int(a), step=0)
            off = init.initialize(graph, model, state, rng)
            if off != NO_EDGE:
                assert model.dynamic_weight(graph, state, off) > 0

    def test_burn_in_iterations_validated(self):
        with pytest.raises(SamplerError):
            BurnInInitializer(iterations=-1)

    def test_burn_in_runs(self, n2v_setup, rng):
        g, model, state = n2v_setup
        init = BurnInInitializer(iterations=50)
        off = init.initialize(g, model, state, rng)
        assert off != NO_EDGE

    def test_dead_state_returns_no_edge(self, rng):
        from repro.graph.builder import from_edge_arrays

        g = from_edge_arrays([0], [1], num_nodes=3)
        typed = g.with_node_types(np.array([0, 0, 1], dtype=np.int16))
        model = make_model("metapath2vec", typed, metapath=[0, 1, 0])
        # node 0 must move to type 1 but its only neighbour has type 0
        state = WalkerState(current=0, step=0)
        for strategy in ("random", "high-weight", "burn-in"):
            init = make_initializer(strategy)
            assert init.initialize(typed, model, state, rng) == NO_EDGE


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
