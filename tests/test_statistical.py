"""Statistical test harness for the samplers (chi-square goodness of fit).

The paper's correctness claim is distributional: M-H walks *converge* to
the same laws the exact (alias/direct) samplers draw from. Unit tests
elsewhere check mechanics; this module checks the distributions
themselves, with fixed seeds (the draws are deterministic, so there is no
flake risk) and a generous alpha — a test fails only when the sampled
distribution is decisively wrong, not on ordinary sampling noise. Each
fit test is paired with a power check that the same statistic *rejects* a
wrong law, so a vacuously-passing harness cannot go unnoticed.
"""

import numpy as np
import pytest
from scipy import stats

from repro.graph import generators
from repro.graph.builder import from_edge_arrays
from repro.sampling.alias import SecondOrderAliasSampler
from repro.sampling.metropolis import MetropolisHastingsSampler
from repro.walks.vectorized import VectorizedWalkEngine
from repro.walks.models import make_model

#: reject the null only below this p-value. Generous on purpose: the
#: seeds are fixed, so this guards against decisive mismatches without
#: tripping on the sampling noise a tighter alpha would flag.
ALPHA = 1e-4


def _irregular_connected_graph(n: int = 24, extra: int = 30, seed: int = 99):
    """Connected, aperiodic, degree-diverse unweighted test graph.

    A path spine guarantees connectivity, two chords off the head create
    triangles (aperiodicity), and random extra edges spread the degrees
    so the degree-proportional law is far from uniform.
    """
    rng = np.random.default_rng(seed)
    src = list(range(n - 1)) + [0, 1]
    dst = list(range(1, n)) + [2, 3]
    for a, b in rng.integers(0, n, size=(extra, 2)):
        if a != b:
            src.append(int(a))
            dst.append(int(b))
    return from_edge_arrays(
        np.array(src), np.array(dst), None, num_nodes=n, duplicate_policy="first"
    )


def _endpoint_counts(graph, *, num_walks: int, walk_length: int, seed: int) -> np.ndarray:
    """Visit counts of walk *endpoints* — one ~independent draw per walk."""
    engine = VectorizedWalkEngine(graph, "deepwalk", sampler="mh", seed=seed)
    corpus = engine.generate(num_walks=num_walks, walk_length=walk_length)
    ends = corpus.walks[np.arange(corpus.num_walks), corpus.lengths - 1]
    return np.bincount(ends, minlength=graph.num_nodes).astype(np.float64)


class TestMHStationaryDistribution:
    """Long M-H walks converge to the degree-proportional stationary law."""

    @pytest.mark.parametrize(
        "graph_factory, seed",
        [
            (lambda: _irregular_connected_graph(), 7),
            (lambda: generators.barbell_graph(8, 3), 11),
        ],
        ids=["irregular", "barbell"],
    )
    def test_endpoints_match_degree_distribution(self, graph_factory, seed):
        graph = graph_factory()
        obs = _endpoint_counts(graph, num_walks=400, walk_length=60, seed=seed)
        degrees = graph.degrees().astype(np.float64)
        expected = degrees / degrees.sum() * obs.sum()
        assert expected.min() > 5, "chi-square needs >= 5 expected per cell"
        __, p = stats.chisquare(obs, expected)
        assert p > ALPHA, f"endpoint distribution rejects degree-proportional (p={p:.2e})"

    def test_thinned_visits_match_degree_distribution(self):
        graph = _irregular_connected_graph()
        engine = VectorizedWalkEngine(graph, "deepwalk", sampler="mh", seed=13)
        corpus = engine.generate(num_walks=400, walk_length=60)
        # drop a burn-in prefix and thin to tame the walk's autocorrelation
        visits = corpus.walks[:, 10::7]
        visits = visits[visits >= 0]
        obs = np.bincount(visits, minlength=graph.num_nodes).astype(np.float64)
        degrees = graph.degrees().astype(np.float64)
        expected = degrees / degrees.sum() * obs.sum()
        __, p = stats.chisquare(obs, expected)
        assert p > ALPHA
        tv = 0.5 * np.abs(obs / obs.sum() - degrees / degrees.sum()).sum()
        assert tv < 0.02

    def test_power_rejects_uniform(self):
        """The harness has teeth: the same statistic rejects a wrong law."""
        graph = _irregular_connected_graph()
        obs = _endpoint_counts(graph, num_walks=400, walk_length=60, seed=7)
        uniform = np.full(graph.num_nodes, obs.sum() / graph.num_nodes)
        __, p = stats.chisquare(obs, uniform)
        assert p < ALPHA


class TestNode2VecTransitionDistribution:
    """M-H acceptance reproduces the exact per-state transition law.

    For one fixed walker state, repeated M-H draws form a chain whose
    marginal converges to the normalised dynamic weights — the *same*
    distribution the per-state alias table samples exactly. Both samplers
    are compared against the analytic law and against each other.
    """

    @pytest.fixture
    def weighted_graph(self):
        src = np.array([0, 0, 0, 0, 1, 2, 3, 1, 3, 3])
        dst = np.array([1, 2, 3, 4, 2, 4, 1, 4, 2, 4])
        w = np.array([1.0, 2.0, 0.5, 3.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0])
        return from_edge_arrays(src, dst, w, num_nodes=5, duplicate_policy="first")

    def _state(self, graph, model, prev: int, current: int):
        offset = graph.edge_index(prev, current)
        assert offset >= 0
        return model.update_state(model.initial_state(prev), offset)

    def _frequencies(self, graph, model, sampler, state, *, draws: int, seed: int):
        lo, hi = graph.edge_range(state.current)
        counts = np.zeros(hi - lo)
        rng = np.random.default_rng(seed)
        for __ in range(draws):
            off = sampler.sample(graph, model, state, rng)
            counts[off - lo] += 1
        return counts

    @pytest.mark.parametrize("p,q", [(0.25, 4.0), (4.0, 0.25)])
    def test_mh_matches_alias_frequencies(self, weighted_graph, p, q):
        graph = weighted_graph
        model = make_model("node2vec", graph, p=p, q=q)
        state = self._state(graph, model, prev=1, current=0)
        weights = model.dynamic_weights_row(graph, state)
        exact = weights / weights.sum()
        draws = 60_000

        mh = MetropolisHastingsSampler(graph, model, initializer="random")
        mh_counts = self._frequencies(graph, model, mh, state, draws=draws, seed=42)
        alias = SecondOrderAliasSampler(graph, model)
        alias_counts = self._frequencies(graph, model, alias, state, draws=draws, seed=43)

        # alias draws are iid from the exact law: a clean chi-square fit
        __, p_alias = stats.chisquare(alias_counts, exact * draws)
        assert p_alias > ALPHA
        # M-H draws are a (fast-mixing) chain targeting the same law
        __, p_mh = stats.chisquare(mh_counts, exact * draws)
        assert p_mh > ALPHA
        # and the two samplers agree with each other within tolerance
        tv = 0.5 * np.abs(mh_counts / draws - alias_counts / draws).sum()
        assert tv < 0.02

    def test_power_mh_rejects_static_law_when_biased(self, weighted_graph):
        """With p, q far from 1 the dynamic law differs from the static
        weights — and the chi-square against the *static* law rejects."""
        graph = weighted_graph
        model = make_model("node2vec", graph, p=0.25, q=4.0)
        state = self._state(graph, model, prev=1, current=0)
        draws = 60_000
        mh = MetropolisHastingsSampler(graph, model, initializer="random")
        counts = self._frequencies(graph, model, mh, state, draws=draws, seed=44)
        static = graph.neighbor_weights(state.current)
        static = static / static.sum()
        __, p_static = stats.chisquare(counts, static * draws)
        assert p_static < ALPHA


class TestMutatedGraphDistribution:
    """Walks on a delta-mutated graph match walks on a cold-built one.

    The dynamic-graph claim is distributional: after ``apply_delta`` +
    affected-only sampler revalidation, the *surviving* M-H chain state
    must not bias the walk law — endpoints still follow the mutated
    graph's degree-proportional stationary distribution, and agree with
    an engine built fresh on the same edge set.
    """

    def _mutate(self, graph, seed: int):
        """A symmetric delta (the storage convention the degree law needs):
        3 undirected removals off the spine + 3 undirected additions."""
        from repro.graph.delta import DeltaPlan, GraphDelta

        rng = np.random.default_rng(seed)
        rem_src, rem_dst = [], []
        while len(rem_src) < 3:
            u = int(rng.integers(graph.num_nodes))
            for v in graph.neighbors(u):
                v = int(v)
                # keep the path spine (connectivity) and avoid duplicates
                if abs(u - v) != 1 and u < v and (u, v) not in zip(rem_src, rem_dst):
                    rem_src.append(u)
                    rem_dst.append(v)
                    break
        add_src, add_dst = [], []
        while len(add_src) < 3:
            u, v = int(rng.integers(graph.num_nodes)), int(rng.integers(graph.num_nodes))
            if u < v and not graph.has_edge(u, v) and (u, v) not in zip(add_src, add_dst):
                add_src.append(u)
                add_dst.append(v)
        delta = GraphDelta.remove_edges(rem_src, rem_dst, symmetric=True).compose(
            GraphDelta.add_edges(add_src, add_dst, symmetric=True)
        )
        return DeltaPlan.build(graph, delta), delta

    def test_mutated_endpoints_match_degree_distribution(self):
        graph = _irregular_connected_graph()
        plan, delta = self._mutate(graph, seed=23)
        engine = VectorizedWalkEngine(graph, "deepwalk", sampler="mh", seed=17)
        engine.generate(num_walks=50, walk_length=30)  # warm the chains
        engine.apply_delta(plan)

        corpus = engine.generate(num_walks=400, walk_length=60)
        ends = corpus.walks[np.arange(corpus.num_walks), corpus.lengths - 1]
        obs = np.bincount(ends, minlength=plan.new_graph.num_nodes).astype(np.float64)
        degrees = plan.new_graph.degrees().astype(np.float64)
        expected = degrees / degrees.sum() * obs.sum()
        keep = expected >= 5  # isolated leftovers fall out of the test
        __, p = stats.chisquare(obs[keep], expected[keep] / expected[keep].sum() * obs[keep].sum())
        assert p > ALPHA, f"mutated-graph endpoints reject degree law (p={p:.2e})"

        # and the surviving chains do not bias the walks relative to a
        # cold engine on the identical edge set
        cold = VectorizedWalkEngine(plan.new_graph, "deepwalk", sampler="mh", seed=91)
        cold_corpus = cold.generate(num_walks=400, walk_length=60)
        cold_ends = cold_corpus.walks[
            np.arange(cold_corpus.num_walks), cold_corpus.lengths - 1
        ]
        cold_obs = np.bincount(cold_ends, minlength=plan.new_graph.num_nodes).astype(np.float64)
        tv = 0.5 * np.abs(obs / obs.sum() - cold_obs / cold_obs.sum()).sum()
        assert tv < 0.05

    def test_power_mutated_walks_reject_premutation_law(self):
        """Teeth: walks on the mutated graph reject the *old* degree law
        when the delta moves enough mass."""
        graph = _irregular_connected_graph()
        from repro.graph.delta import DeltaPlan, GraphDelta

        hub = int(np.argmax(graph.degrees()))
        others = [v for v in range(graph.num_nodes) if v != hub and not graph.has_edge(hub, v)]
        delta = GraphDelta(
            add_src=[hub] * len(others) + others,
            add_dst=others + [hub] * len(others),
        )
        plan = DeltaPlan.build(graph, delta)
        engine = VectorizedWalkEngine(graph, "deepwalk", sampler="mh", seed=29)
        engine.generate(num_walks=20, walk_length=20)
        engine.apply_delta(plan)
        corpus = engine.generate(num_walks=400, walk_length=60)
        ends = corpus.walks[np.arange(corpus.num_walks), corpus.lengths - 1]
        obs = np.bincount(ends, minlength=graph.num_nodes).astype(np.float64)
        old_deg = graph.degrees().astype(np.float64)
        expected = old_deg / old_deg.sum() * obs.sum()
        __, p = stats.chisquare(obs, expected)
        assert p < ALPHA


class TestQuantizedDynamicServing:
    """The dynamic path composed with the codec path stays faithful.

    PR 4's contract is that ``update()`` + ``refresh_embeddings()``
    produces embeddings equivalent to a retrain; PR 5's is that a
    quantized export preserves the similarity structure. This check ties
    them together: after a delta + incremental refresh, the top-k
    neighbour sets served from int8/PQ re-exports must overlap the
    float32 read path above fixed-seed floors (generous slack — the
    draws are deterministic, so a failure is a decisive codec or
    dynamic-path defect, not noise).
    """

    def _refreshed_net(self):
        from repro import UniNet
        from repro.graph.delta import GraphDelta

        graph = generators.chung_lu_power_law(300, 8.0, seed=11, weight_mode="uniform")
        net = UniNet(graph, model="deepwalk", sampler="mh", seed=13)
        net.train(num_walks=6, walk_length=20, dimensions=32, epochs=2)
        rng = np.random.default_rng(3)
        src = rng.integers(0, graph.num_nodes, size=12)
        dst = rng.integers(0, graph.num_nodes, size=12)
        keep = src != dst
        net.update(GraphDelta.add_edges(src[keep], dst[keep], symmetric=True))
        net.refresh_embeddings(num_walks=2)
        assert not net.embeddings_stale
        return net

    @staticmethod
    def _overlap(a, b):
        from repro.serving import topk_overlap

        return topk_overlap(a, b)

    def test_quantized_reexport_preserves_topk(self):
        net = self._refreshed_net()
        keys = np.asarray(net.last_embeddings.keys)
        exact = net.serve(cache_size=0).most_similar_batch(keys, topn=10)

        int8 = net.serve(codec="int8", cache_size=0)
        assert int8.store.is_quantized
        got = int8.most_similar_batch(keys, topn=10)
        overlap = self._overlap(exact, got)
        assert overlap >= 0.75, f"int8 top-10 overlap {overlap:.3f} after refresh"

        pq = net.serve(codec="pq", codec_params={"m": 8, "seed": 0}, cache_size=0)
        got = pq.most_similar_batch(keys, topn=10)
        overlap = self._overlap(exact, got)
        assert overlap >= 0.45, f"pq top-10 overlap {overlap:.3f} after refresh"

    def test_power_shuffled_codes_destroy_overlap(self):
        """Teeth: the same statistic rejects a store whose codes are
        misassigned, so a vacuously-high floor cannot hide breakage."""
        net = self._refreshed_net()
        keys = np.asarray(net.last_embeddings.keys)
        exact = net.serve(cache_size=0).most_similar_batch(keys, topn=10)
        service = net.serve(codec="int8", cache_size=0)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(service.store))
        service.store.codes = np.asarray(service.store.codes)[perm]
        service.refresh()
        got = service.most_similar_batch(keys, topn=10)
        assert self._overlap(exact, got) < 0.3
