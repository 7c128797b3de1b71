"""Additional vectorized-engine tests: stepper internals and edge cases."""

import numpy as np
import pytest

from repro.graph.builder import from_edge_arrays
from repro.graph.hetero import assign_random_types
from repro.sampling.base import NO_EDGE
from repro.walks._segments import race_keys, segment_race_argmin
from repro.walks.models import make_model
from repro.walks.vectorized import VectorizedWalkEngine


class TestFirstStepSemantics:
    def test_fairwalk_first_step_is_group_fair(self):
        """Step 0 must use the model's law, not the static distribution."""
        src = np.zeros(10, dtype=np.int64)
        dst = np.arange(1, 11)
        g = from_edge_arrays(src, dst, num_nodes=11)
        types = np.zeros(11, dtype=np.int16)
        types[1:10] = 1  # nine of type 1
        types[10] = 2  # one of type 2
        typed = g.with_node_types(types)
        eng = VectorizedWalkEngine(typed, "fairwalk", sampler="direct", p=1, q=1, seed=1)
        corpus = eng.generate(num_walks=800, walk_length=2, start_nodes=[0])
        frac_type2 = float((corpus.walks[:, 1] == 10).mean())
        assert abs(frac_type2 - 0.5) < 0.05  # static law would give 0.1

    def test_node2vec_first_step_is_static(self, tiny_weighted_graph):
        g = tiny_weighted_graph
        eng = VectorizedWalkEngine(g, "node2vec", sampler="mh", p=0.01, q=100.0, seed=2)
        corpus = eng.generate(num_walks=2000, walk_length=2, start_nodes=[0])
        counts = np.bincount(corpus.walks[:, 1], minlength=5)[1:]
        w = g.neighbor_weights(0)
        expected = w / w.sum()
        assert 0.5 * np.abs(counts / counts.sum() - expected).sum() < 0.05

    @pytest.mark.parametrize("model", ("node2vec", "edge2vec", "fairwalk"))
    def test_first_step_is_one_draw_then_one_race(self, typed_graph, model, kernel_backend):
        """Step 0 takes one uniform per edge entry of the rows, drawn at
        once, and races the start-state law over them: nothing else
        touches the generator, and zero-degree rows choose no edge."""
        engine = VectorizedWalkEngine(
            typed_graph, model, sampler="mh", backend=kernel_backend, p=0.5, q=2.0, seed=5
        )
        cur = np.arange(typed_graph.num_nodes, dtype=np.int64)
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        chosen = engine.stepper.first_step(cur, rng)
        deg = typed_graph.degrees()
        u = twin.random(int(deg.sum()))
        assert rng.bit_generator.state == twin.bit_generator.state
        weights = np.concatenate([engine.model.dynamic_weights_row(v) for v in cur])
        pos = segment_race_argmin(race_keys(weights, u), deg)
        want = np.where(pos >= 0, typed_graph.offsets[cur] + pos, NO_EDGE)
        assert np.array_equal(chosen, want)
        assert (chosen[deg == 0] == NO_EDGE).all()


class TestDeadEndsVectorized:
    def test_walkers_terminate_at_sinks(self):
        # directed chain 0 -> 1 -> 2 with no way out of 2
        g = from_edge_arrays([0, 1], [1, 2], num_nodes=3, directed=True)
        eng = VectorizedWalkEngine(g, "deepwalk", sampler="mh", seed=3)
        corpus = eng.generate(num_walks=1, walk_length=10)
        walks = {tuple(w.tolist()) for w in corpus.iter_walks()}
        assert (0, 1, 2) in walks
        assert corpus.lengths.max() == 3

    def test_metapath_dead_end_terminates(self, academic):
        graph, __ = academic
        # APAPA... but venues break the chain; walks stop instead of
        # traversing forbidden edges
        eng = VectorizedWalkEngine(graph, "metapath2vec", metapath="APA", seed=4)
        corpus = eng.generate(num_walks=1, walk_length=15)
        for walk in corpus.iter_walks():
            types = graph.node_types[walk]
            expected = [0, 1] * 8
            assert types.tolist() == expected[: walk.size]


class TestChainSharing:
    def test_same_chain_store_shared_between_engines(self, small_power_law_graph):
        from repro.walks.manager import ChainStore

        g = small_power_law_graph
        model = make_model("node2vec", g, p=0.5, q=2.0)
        store = ChainStore(g, model)
        eng1 = VectorizedWalkEngine(g, model, sampler="mh", chain_store=store, seed=5)
        eng1.generate(num_walks=1, walk_length=10)
        initialized = store.num_initialized
        assert initialized > 0
        eng2 = VectorizedWalkEngine(g, model, sampler="mh", chain_store=store, seed=6)
        eng2.generate(num_walks=1, walk_length=10)
        assert store.num_initialized >= initialized


class TestRejectionInternals:
    def test_knightking_falls_back_without_folding_support(self, small_power_law_graph):
        """deepwalk has no outliers: KK must behave as plain rejection."""
        g = small_power_law_graph
        eng = VectorizedWalkEngine(g, "deepwalk", sampler="knightking", seed=7)
        assert not eng.stepper.fold
        corpus = eng.generate(num_walks=1, walk_length=10)
        assert corpus.token_count > 0

    def test_knightking_folds_for_small_p(self, small_power_law_graph):
        g = small_power_law_graph
        eng = VectorizedWalkEngine(
            g, "node2vec", sampler="knightking", p=0.1, q=1.0, seed=8
        )
        assert eng.stepper.fold

    def test_folded_distribution_correct(self, tiny_weighted_graph):
        """End-to-end check that folding samples the exact node2vec law."""
        g = tiny_weighted_graph
        p, q = 0.1, 1.0
        model = make_model("node2vec", g, p=p, q=q)
        exact = model.dynamic_weights_row(0, 3, g.edge_index(3, 0), 1)
        exact = exact / exact.sum()
        eng = VectorizedWalkEngine(g, "node2vec", sampler="knightking", p=p, q=q, seed=9)
        prev = np.full(30000, 3, dtype=np.int64)
        prev_off = np.full(30000, g.edge_index(3, 0), dtype=np.int64)
        cur = np.zeros(30000, dtype=np.int64)
        rng = np.random.default_rng(10)
        chosen = eng.stepper.step(prev, prev_off, cur, 1, rng)
        lo, __ = g.edge_range(0)
        counts = np.bincount(chosen - lo, minlength=g.degree(0))
        assert 0.5 * np.abs(counts / counts.sum() - exact).sum() < 0.02


class TestMemoryAwareStepperInternals:
    def test_budget_splits_alias_and_direct(self, small_power_law_graph):
        g = small_power_law_graph
        model = make_model("node2vec", g, p=0.5, q=2.0)
        full_bytes = model.alias_entries(g) * 16
        eng = VectorizedWalkEngine(
            g, model, sampler="memory-aware", table_budget_bytes=full_bytes // 4, seed=11
        )
        assigned = int(eng.stepper.assigned.sum())
        assert 0 < assigned < model.state_space_size(g)
        corpus = eng.generate(num_walks=1, walk_length=10)
        assert corpus.token_count > 0

    def test_full_budget_behaves_like_alias(self, tiny_weighted_graph, rng):
        g = tiny_weighted_graph
        model = make_model("node2vec", g, p=0.25, q=4.0)
        eng = VectorizedWalkEngine(
            g, model, sampler="memory-aware",
            table_budget_bytes=model.alias_entries(g) * 16 + 1024, seed=12,
        )
        assert eng.stepper.assigned.all()
        assert eng.stepper.tables.num_tables == g.num_edge_entries


class TestStatsAccounting:
    def test_mh_acceptance_tracked(self, small_power_law_graph):
        eng = VectorizedWalkEngine(
            small_power_law_graph, "node2vec", sampler="mh", p=0.25, q=4.0, seed=13
        )
        eng.generate(num_walks=1, walk_length=15)
        stats = eng.stats()
        assert 0 < stats["accepts"] <= stats["proposals"]
        assert stats["initializations"] > 0

    def test_mh_acceptance_ratio_counts_accepts(self, small_power_law_graph, kernel_backend):
        """A rejected M-H step still emits a sample, so ``samples /
        proposals`` reads 1.0 on every run; the ratio is ``accepts /
        proposals``, on both backends."""
        eng = VectorizedWalkEngine(
            small_power_law_graph, "node2vec", sampler="mh", p=0.25, q=4.0, seed=13,
            backend=kernel_backend,
        )
        eng.generate(num_walks=1, walk_length=15)
        stats = eng.stats()
        assert stats["samples"] == stats["proposals"]
        assert stats["acceptance_ratio"] == stats["accepts"] / stats["proposals"] < 1.0

    def test_setup_seconds_for_eager_samplers(self, small_power_law_graph):
        eng = VectorizedWalkEngine(
            small_power_law_graph, "node2vec", sampler="alias", p=0.5, q=2.0, seed=14
        )
        assert eng.setup_seconds > 0
        assert eng.memory_bytes() > 0


class TestDeadEnds:
    @pytest.mark.parametrize("model, params", [("deepwalk", {}), ("node2vec", {"p": 0.5, "q": 2.0})])
    def test_walkers_arriving_at_a_trailing_dead_end(self, model, params):
        """A dead lane must not index one past the edge arrays.

        On a directed graph walkers *arrive* at the last node, whose row
        is empty and starts at ``offsets[-1]``; the NumPy M-H proposal
        used to evaluate the model there.
        """
        g = from_edge_arrays(
            np.array([0, 0, 0, 1, 2]), np.array([1, 2, 3, 2, 0]),
            np.array([1.0, 2.0, 3.0, 1.0, 1.0]),
            num_nodes=4, directed=True, duplicate_policy="first",
        )
        assert g.degree(3) == 0
        corpus = VectorizedWalkEngine(g, model, sampler="mh", seed=1, **params).generate(2, 6)
        ends = corpus.walks[np.arange(corpus.num_walks), corpus.lengths - 1]
        assert (ends[corpus.lengths < 6] == 3).all()  # only the dead end stops a walk
