"""Tests for the walk engine.

The key scientific checks: walks respect model constraints, every
sampler's corpus follows the exact per-state law, and per-sampler
behaviour (acceptance, table counts, first-step handling) matches the
design.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import WalkError
from repro.tokens import TOKEN_DTYPE, TOKEN_LIMIT
from repro.sampling.alias import AliasTables
from repro.walks.kernels import KernelState, available_backends, resolve_backend
from repro.walks.models import make_model
from repro.walks.vectorized import VectorizedWalkEngine


def state_rows(corpus, model):
    """The corpus's transitions grouped by walker state.

    A state is the model's flat state index (``cur`` for a static model,
    the taken edge ``(prev, cur)`` for node2vec, ``cur`` with the
    metapath position for metapath2vec); step 0 of a second-order walk
    is the start state of ``cur``. Yields ``(state, counts)`` per state:
    the ``(cur, prev, prev_off, step)`` standing for it and the visit
    counts of each out-edge of its node, in row order.
    """
    graph = model.graph
    walks, lengths = corpus.walks.astype(np.int64), corpus.lengths
    rows, step = np.nonzero(np.arange(walks.shape[1] - 1) < (lengths - 1)[:, None])
    cur, nxt = walks[rows, step], walks[rows, step + 1]
    prev = np.where(step > 0, walks[rows, np.maximum(step - 1, 0)], -1)
    prev_off = np.where(prev >= 0, graph.edge_index_batch(np.maximum(prev, 0), cur), -1)
    start = (prev < 0) & (model.order == 2)
    key = np.where(start, -1 - cur, model.batch_state_index(prev_off, cur, step))
    __, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    taken = graph.edge_index_batch(cur, nxt) - graph.offsets[cur]
    for k, i in enumerate(first):
        counts = np.bincount(taken[inverse == k], minlength=graph.degree(int(cur[i])))
        yield (int(cur[i]), int(prev[i]), int(prev_off[i]), int(step[i])), counts


def mean_tv_to_exact(corpus, model, min_visits=50):
    """Mean TV distance between each well-visited state's empirical row
    and its exact law ``model.dynamic_weights_row``."""
    tvs = []
    for state, counts in state_rows(corpus, model):
        if counts.sum() < min_visits:
            continue
        exact = model.dynamic_weights_row(*state)
        tvs.append(0.5 * np.abs(counts / counts.sum() - exact / exact.sum()).sum())
    assert len(tvs) >= 3, "too few well-visited states to compare"
    return float(np.mean(tvs))


class TestEngineBasics:
    def test_walk_lengths(self, small_unweighted_graph):
        eng = VectorizedWalkEngine(small_unweighted_graph, "deepwalk", seed=1)
        corpus = eng.generate(num_walks=2, walk_length=15)
        assert corpus.num_walks == 2 * small_unweighted_graph.num_nodes
        assert corpus.lengths.max() <= 15

    def test_start_nodes_respected(self, small_unweighted_graph):
        eng = VectorizedWalkEngine(small_unweighted_graph, "deepwalk", seed=3)
        corpus = eng.generate(num_walks=3, walk_length=5, start_nodes=[7, 9])
        assert set(corpus.walks[:, 0].tolist()) == {7, 9}

    @pytest.mark.parametrize("sampler", ["mh", "direct", "alias", "rejection"])
    def test_dead_end_terminates_walk(self, sampler):
        from repro.graph.builder import from_edge_arrays

        g = from_edge_arrays([0], [1], num_nodes=2, directed=True)
        eng = VectorizedWalkEngine(g, "deepwalk", sampler=sampler, seed=4)
        corpus = eng.generate(num_walks=1, walk_length=10, start_nodes=[0])
        assert corpus.lengths.tolist() == [2]
        assert corpus.walks[0, :2].tolist() == [0, 1]


class TestVectorizedEngine:
    @pytest.mark.parametrize("sampler", ["mh", "direct", "rejection", "knightking", "alias"])
    def test_all_samplers_produce_valid_walks(self, small_power_law_graph, sampler):
        g = small_power_law_graph
        eng = VectorizedWalkEngine(g, "node2vec", sampler=sampler, p=0.5, q=2.0, seed=5)
        corpus = eng.generate(num_walks=1, walk_length=12)
        assert corpus.num_walks == g.num_nodes
        for walk in list(corpus.iter_walks())[:30]:
            for a, b in zip(walk[:-1], walk[1:]):
                assert g.has_edge(int(a), int(b))

    @pytest.mark.parametrize("engine", ["monolithic", "sharded"])
    def test_refuses_node_ids_a_token_cannot_hold(self, engine):
        """A stub stands in for a 2**31-node graph: the engine refuses it
        before it reads anything else of it."""
        from repro.sharding import ShardedWalkEngine

        cls = VectorizedWalkEngine if engine == "monolithic" else ShardedWalkEngine
        with pytest.raises(WalkError, match="nodes"):
            cls(SimpleNamespace(num_nodes=TOKEN_LIMIT), "deepwalk")

    def test_generate_writes_tokens(self, small_power_law_graph):
        corpus = VectorizedWalkEngine(small_power_law_graph, "deepwalk", seed=1).generate(1, 5)
        assert corpus.walks.dtype == TOKEN_DTYPE

    def test_alias_first_order_restricted_to_static(self, small_power_law_graph):
        with pytest.raises(WalkError):
            VectorizedWalkEngine(
                small_power_law_graph, "node2vec", sampler="alias-first-order"
            )

    def test_deepwalk_alias_builds_static_tables(self, small_power_law_graph):
        """A static model's per-state tables are the per-node static ones,
        so ``alias`` and ``alias-first-order`` walk the same corpus."""
        g = small_power_law_graph
        corpora = []
        for sampler in ("alias", "alias-first-order"):
            eng = VectorizedWalkEngine(g, "deepwalk", sampler=sampler, seed=3)
            assert eng.stepper.tables.static and eng.stepper.tables.base is g.offsets
            corpora.append(eng.generate(num_walks=1, walk_length=8).walks)
        assert np.array_equal(*corpora)

    def test_memory_aware_requires_budget(self, small_power_law_graph):
        with pytest.raises(WalkError):
            VectorizedWalkEngine(small_power_law_graph, "node2vec", sampler="memory-aware")

    def test_stats_exposed(self, small_power_law_graph):
        eng = VectorizedWalkEngine(
            small_power_law_graph, "node2vec", sampler="rejection", p=0.25, q=1.0, seed=6
        )
        eng.generate(num_walks=1, walk_length=10)
        stats = eng.stats()
        assert 0 < stats["acceptance_ratio"] <= 1.0
        assert stats["setup_seconds"] >= 0.0

    def test_mh_chains_persist_across_waves(self, small_power_law_graph):
        eng = VectorizedWalkEngine(small_power_law_graph, "node2vec", sampler="mh", seed=7)
        eng.generate(num_walks=1, walk_length=10)
        first = eng.stepper.chains.num_initialized
        eng.generate(num_walks=1, walk_length=10)
        assert eng.stepper.chains.num_initialized >= first

    def test_empty_start_set_rejected(self, academic):
        graph, __ = academic
        eng = VectorizedWalkEngine(graph, "metapath2vec", metapath="APA", seed=8)
        with pytest.raises(WalkError):
            eng.generate(num_walks=1, walk_length=5, start_nodes=np.array([], dtype=np.int64))

    @pytest.mark.parametrize("engine_kind", ("numpy", "cnative", "sharded"))
    @pytest.mark.parametrize("bad", ([-1, 0], ["n"], [1.7, 2.2]))
    def test_start_nodes_are_validated(self, small_unweighted_graph, engine_kind, bad):
        # -1 used to wrap to the last node and put a padding value in
        # column 0, num_nodes was a bare IndexError, 1.7 was truncated
        graph = small_unweighted_graph
        if engine_kind == "cnative" and not available_backends().get("cnative", False):
            pytest.skip("kernel backend 'cnative' is not available here")
        bad = [graph.num_nodes if v == "n" else v for v in bad]
        if engine_kind == "sharded":
            from repro.sharding import ShardedWalkEngine

            eng = ShardedWalkEngine(graph, "deepwalk", sampler="mh", num_shards=2, seed=1)
        else:
            eng = VectorizedWalkEngine(
                graph, "deepwalk", sampler="mh", backend=engine_kind, seed=1
            )
        match = "integer" if isinstance(bad[0], float) else rf"start node {bad[0]} is outside"
        try:
            with pytest.raises(WalkError, match=match):
                eng.generate(1, 5, start_nodes=bad)
            with pytest.raises(WalkError, match=match):
                next(eng.generate_stream(1, 5, start_nodes=bad))
            assert eng.generate(1, 5, start_nodes=[3, 0]).walks[:, 0].tolist() == [3, 0]
        finally:
            if engine_kind == "sharded":
                eng.close()

    def test_metapath_walks_respect_types(self, academic):
        graph, __ = academic
        eng = VectorizedWalkEngine(graph, "metapath2vec", metapath="APVPA", seed=9)
        corpus = eng.generate(num_walks=1, walk_length=9)
        pattern = [0, 1, 2, 1, 0, 1, 2, 1, 0]
        for walk in list(corpus.iter_walks())[:40]:
            types = graph.node_types[walk]
            assert types.tolist() == pattern[: walk.size]

    def test_fairwalk_group_balance(self):
        """Fairwalk must equalise visits across neighbour groups."""
        from repro.graph.builder import from_edge_arrays

        # node 0: nine type-1 neighbours, one type-2 neighbour
        src = np.zeros(10, dtype=np.int64)
        dst = np.arange(1, 11)
        g = from_edge_arrays(src, dst, num_nodes=11)
        types = np.zeros(11, dtype=np.int16)
        types[1:10] = 1
        types[10] = 2
        typed = g.with_node_types(types)
        eng = VectorizedWalkEngine(typed, "fairwalk", sampler="direct", p=1, q=1, seed=10)
        corpus = eng.generate(num_walks=400, walk_length=2, start_nodes=[0])
        seconds = corpus.walks[:, 1]
        frac_type2 = float((seconds == 10).mean())
        assert abs(frac_type2 - 0.5) < 0.06  # two groups -> ~half each

    @pytest.mark.parametrize("initializer", ["random", "high-weight", "burn-in"])
    def test_mh_initializers_run(self, small_power_law_graph, initializer):
        eng = VectorizedWalkEngine(
            small_power_law_graph,
            "node2vec",
            sampler="mh",
            initializer=initializer,
            p=0.5,
            q=2.0,
            seed=11,
        )
        corpus = eng.generate(num_walks=1, walk_length=8)
        assert corpus.token_count > 0
        assert eng.stats()["init_seconds"] >= 0.0

    def test_unknown_initializer(self, small_power_law_graph):
        with pytest.raises(WalkError):
            VectorizedWalkEngine(small_power_law_graph, "node2vec", initializer="bogus")


class TestEngineAgreement:
    """Every engine corpus follows the exact per-state transition law.

    The baseline is the model's own law, not a second sampler: each
    state visited at least 50 times has its empirical row compared with
    ``model.dynamic_weights_row``, on both kernel backends (the
    compiled M-H wave included).
    """

    @pytest.mark.parametrize(
        "model_name,params,samplers",
        [
            ("deepwalk", {}, ["mh", "direct", "alias"]),
            ("node2vec", {"p": 0.25, "q": 4.0}, ["mh", "direct", "alias", "rejection"]),
        ],
    )
    def test_transition_statistics_match(
        self, tiny_weighted_graph, model_name, params, samplers, kernel_backend
    ):
        for sampler in samplers:
            eng = VectorizedWalkEngine(
                tiny_weighted_graph, model_name, sampler=sampler, backend=kernel_backend,
                seed=2, **params,
            )
            corpus = eng.generate(num_walks=250, walk_length=12)
            # M-H draws are *dependent* (one chain per state), so its
            # empirical rows carry autocorrelation-inflated variance;
            # exact samplers get a tight bound.
            tolerance = 0.09 if sampler == "mh" else 0.05
            assert mean_tv_to_exact(corpus, eng.model) < tolerance, sampler

    def test_metapath_walks_follow_the_exact_law(self, academic, kernel_backend):
        graph, __ = academic
        eng = VectorizedWalkEngine(
            graph, "metapath2vec", sampler="mh", metapath="APA", backend=kernel_backend, seed=4
        )
        corpus = eng.generate(num_walks=20, walk_length=9)
        assert mean_tv_to_exact(corpus, eng.model) < 0.12


class TestPerStateAliasTables:
    def test_tables_built_for_valid_states(self, tiny_weighted_graph):
        g = tiny_weighted_graph
        model = make_model("node2vec", g, p=0.5, q=2.0)
        tables = AliasTables(g, model)
        assert tables.num_tables == g.num_edge_entries
        assert tables.memory_bytes() == model.alias_entries(g) * 16

    def test_mask_restricts_tables(self, tiny_weighted_graph):
        g = tiny_weighted_graph
        model = make_model("node2vec", g, p=0.5, q=2.0)
        mask = np.zeros(g.num_edge_entries, dtype=bool)
        mask[:4] = True
        tables = AliasTables(g, model, state_mask=mask)
        assert tables.num_tables <= 4

    def test_draw_distribution(self, tiny_weighted_graph, rng, kernel_backend):
        """The backend's one gather draws a state's law from its table."""
        g = tiny_weighted_graph
        model = make_model("node2vec", g, p=0.25, q=4.0)
        tables = AliasTables(g, model)
        idx = g.edge_index(3, 0)  # state (3 -> 0)
        exact = model.dynamic_weights_row(0, 3, idx, 1)
        exact = exact / exact.sum()
        lo, __ = g.edge_range(0)
        n = 40_000
        draws = resolve_backend(kernel_backend).alias_draw(
            KernelState.for_graph(g), tables, np.full(n, idx), np.zeros(n, dtype=np.int64),
            rng.random(n), rng.random(n),
        )
        counts = np.bincount(draws - lo, minlength=g.degree(0))
        assert 0.5 * np.abs(counts / counts.sum() - exact).sum() < 0.02
