"""Tests for the alias tables and the alias and direct steppers.

Table construction is checked analytically; the steppers' mechanics run
through ``stepper.step`` on both kernel backends. Their per-state laws
are fitted in ``tests/test_statistical.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SamplerError
from repro.graph.builder import from_edge_arrays
from repro.registry import SAMPLER_REGISTRY
from repro.sampling.alias import AliasTables, build_alias_table
from repro.sampling.base import NO_EDGE
from repro.walks.models import make_model
from repro.walks.vectorized import VectorizedWalkEngine


def tv_distance(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def node_lanes(nodes):
    """Lanes at the given nodes with no previous edge: ``(prev, prev_off, cur)``."""
    cur = np.asarray(nodes, dtype=np.int64)
    none = np.full(cur.size, -1, dtype=np.int64)
    return none, none, cur


def row_frequencies(graph, v, offsets):
    lo, hi = graph.edge_range(v)
    counts = np.bincount(offsets - lo, minlength=hi - lo)
    return counts / counts.sum()


def alias_exact_probs(threshold, alias):
    """Analytic outcome distribution implied by an alias table."""
    d = threshold.size
    probs = np.zeros(d)
    for k in range(d):
        probs[k] += threshold[k] / d
        probs[alias[k]] += (1.0 - threshold[k]) / d
    return probs


class TestBuildAliasTable:
    @pytest.mark.parametrize(
        "weights",
        [
            [1.0],
            [1.0, 1.0],
            [0.1, 0.9],
            [5.0, 1.0, 1.0, 1.0],
            [0.0, 1.0, 0.0, 3.0],
            list(range(1, 20)),
        ],
    )
    def test_tables_encode_exact_distribution(self, weights):
        w = np.asarray(weights, dtype=float)
        threshold, alias = build_alias_table(w)
        assert tv_distance(alias_exact_probs(threshold, alias), w / w.sum()) < 1e-12

    def test_rejects_empty(self):
        with pytest.raises(SamplerError):
            build_alias_table(np.array([]))

    def test_rejects_negative(self):
        with pytest.raises(SamplerError):
            build_alias_table(np.array([1.0, -0.5]))

    def test_rejects_all_zero(self):
        with pytest.raises(SamplerError):
            build_alias_table(np.array([0.0, 0.0]))

    @settings(max_examples=50, deadline=None)
    @given(
        weights=st.lists(
            st.floats(0.0, 100.0), min_size=1, max_size=30
        ).filter(lambda w: sum(w) > 1e-9)
    )
    def test_property_exactness(self, weights):
        w = np.asarray(weights)
        threshold, alias = build_alias_table(w)
        assert tv_distance(alias_exact_probs(threshold, alias), w / w.sum()) < 1e-9


class TestStaticAliasTables:
    def test_uniform_for_unweighted(self, small_unweighted_graph, kernel_backend):
        """An unweighted graph builds no table; the stepper draws uniformly."""
        g = small_unweighted_graph
        store = AliasTables(g)
        assert store.uniform and store.threshold is None and store.has_table is None
        assert store.memory_bytes() == 0
        eng = VectorizedWalkEngine(
            g, "deepwalk", sampler="alias-first-order", backend=kernel_backend, seed=1
        )
        assert eng.memory_bytes() == 0
        v = int(np.argmax(g.degrees()))
        freq = row_frequencies(g, v, eng.stepper.step(*node_lanes([v] * 20_000), 1, eng.rng))
        assert tv_distance(freq, np.full(freq.size, 1.0 / freq.size)) < 0.03

    def test_weighted_distribution(self, tiny_weighted_graph, kernel_backend):
        g = tiny_weighted_graph
        eng = VectorizedWalkEngine(
            g, "deepwalk", sampler="alias-first-order", backend=kernel_backend, seed=2
        )
        freq = row_frequencies(g, 0, eng.stepper.step(*node_lanes([0] * 40_000), 1, eng.rng))
        w = g.neighbor_weights(0)
        assert tv_distance(freq, w / w.sum()) < 0.02

    def test_static_tables_are_deepwalks_state_tables(self, small_power_law_graph):
        """Per-node tables over the graph's weights are the per-state
        tables of a static model: the same layout, the same bits."""
        g = small_power_law_graph
        assert g.is_weighted
        static = AliasTables(g)
        per_state = AliasTables(g, make_model("deepwalk", g))
        assert static.base is g.offsets
        for field in ("base", "table_deg", "has_table", "threshold", "alias_local"):
            assert np.array_equal(getattr(static, field), getattr(per_state, field)), field
        assert static.memory_bytes() == per_state.memory_bytes() == 16 * g.num_edge_entries

    def test_zero_weight_row_has_no_table(self):
        g = from_edge_arrays([0, 1, 2], [1, 2, 3], [1.0, 1.0, 0.0])
        store = AliasTables(g)
        assert store.has_table.tolist() == [True, True, True, False]
        assert store.num_tables == 3


class TestDeadStates:
    """Every sampler answers NO_EDGE for a state with nowhere to go."""

    SAMPLERS = ["mh", "direct", "alias", "rejection", "knightking", "memory-aware"]

    @pytest.mark.parametrize("sampler", [*SAMPLERS, "alias-first-order"])
    def test_isolated_node_gives_no_edge(self, sampler, kernel_backend):
        g = from_edge_arrays([0], [1], [1.0], num_nodes=3)
        eng = VectorizedWalkEngine(
            g, "deepwalk", sampler=sampler, backend=kernel_backend, table_budget_bytes=64,
            seed=3,
        )
        off = eng.stepper.step(*node_lanes([2, 0]), 1, eng.rng)
        assert off[0] == NO_EDGE and off[1] == g.edge_index(0, 1)

    @pytest.mark.parametrize("sampler", SAMPLER_REGISTRY.names())
    def test_zero_weight_row_ends_the_walk(self, sampler, kernel_backend):
        """A row whose edges all weigh 0 has no edge under the model: a
        walk that starts there has length 1, whatever the sampler."""
        g = from_edge_arrays([0, 1, 2], [1, 2, 3], [1.0, 1.0, 0.0])
        assert g.neighbor_weights(3).tolist() == [0.0]
        eng = VectorizedWalkEngine(
            g, "deepwalk", sampler=sampler, backend=kernel_backend, table_budget_bytes=1 << 20,
            seed=7,
        )
        corpus = eng.generate(num_walks=3, walk_length=5, start_nodes=[3])
        assert corpus.lengths.tolist() == [1, 1, 1]
        assert np.all(corpus.walks[:, 0] == 3)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_metapath_dead_state_gives_no_edge(self, academic, sampler, kernel_backend):
        graph, __ = academic
        eng = VectorizedWalkEngine(
            graph, "metapath2vec", sampler=sampler, metapath="APA", backend=kernel_backend,
            table_budget_bytes=1 << 20, seed=4,
        )
        # at step 1 "APA" targets authors, but a venue only touches papers
        venues = np.flatnonzero(graph.node_types == 2)[:5]
        off = eng.stepper.step(*node_lanes(venues), 1, eng.rng)
        assert np.all(off == NO_EDGE)


class TestDirectSampler:
    def test_stats_counting(self, tiny_weighted_graph, kernel_backend):
        eng = VectorizedWalkEngine(
            tiny_weighted_graph, "deepwalk", sampler="direct", backend=kernel_backend, seed=5
        )
        eng.stepper.step(*node_lanes([0] * 10), 1, eng.rng)
        assert eng.stats()["samples"] == 10


class TestSecondOrderAliasSampler:
    def test_tables_cached_per_state(self, tiny_weighted_graph, kernel_backend):
        """One table per state, built at construction, none while stepping."""
        g = tiny_weighted_graph
        eng = VectorizedWalkEngine(
            g, "node2vec", sampler="alias", backend=kernel_backend, p=0.5, q=2.0, seed=6
        )
        built = eng.stats()["initializations"]
        assert built == eng.stepper.tables.num_tables == g.num_edge_entries
        prev = np.full(5, 3, dtype=np.int64)
        lanes = (prev, np.full(5, g.edge_index(3, 0)), np.zeros(5, dtype=np.int64))
        for __ in range(5):
            eng.stepper.step(*lanes, 1, eng.rng)
        assert eng.stats()["initializations"] == built
