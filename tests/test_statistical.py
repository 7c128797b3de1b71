"""Statistical test harness for the samplers (chi-square goodness of fit).

The paper's correctness claim is distributional: M-H walks *converge* to
the same laws the exact (alias/direct) samplers draw from. Unit tests
elsewhere check mechanics; this module checks the distributions
themselves, on the registered steppers that walk and on both kernel
backends, against each walker state's exact law
``model.dynamic_weights_row`` rather than against a second sampler. The
seeds are fixed (the draws are deterministic, so there is no flake risk)
and alpha is generous — a test fails only when the sampled distribution
is decisively wrong, not on ordinary sampling noise. Each fit test is
paired with a power check that the same statistic *rejects* a wrong law,
so a vacuously-passing harness cannot go unnoticed.
"""

import numpy as np
import pytest
from scipy import stats

from repro.graph import generators
from repro.graph.builder import from_edge_arrays
from repro.registry import register_sampler, unregister_sampler
from repro.sampling.base import NO_EDGE
from repro.serving import QueryService
from repro.walks._segments import concat_ranges
from repro.walks.kernels import available_backends
from repro.walks.vectorized import StepperBase, VectorizedWalkEngine

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


#: The 5-node weighted gadget of the per-state tests: K5 without the
#: edge 1-4. At the state (1 -> 0), node 0's row holds all three node2vec
#: alpha classes: the return edge to 1 (1/p), two neighbours of 1 (2 and
#: 3: alpha 1) and a non-neighbour (4: 1/q), with weights far from
#: uniform, so p and q both move the exact law away from the static one.
GADGET = (
    [0, 0, 0, 0, 1, 2, 3, 3, 3],
    [1, 2, 3, 4, 2, 4, 1, 2, 4],
    [1.0, 2.0, 0.5, 3.0, 1.0, 1.0, 2.0, 1.0, 1.0],
)
GADGET_NODES = 5

#: Every sampler of ``SAMPLER_REGISTRY`` on a second-order model, as
#: (sampler, walk keywords); ``alias-first-order`` is exact only for
#: static models and has its fit in ``STATIC_CASES``. memory-aware runs
#: in both regimes: every state on the rejection fallback (no budget)
#: and every state on its alias table (a budget that covers them all).
SECOND_ORDER_CASES = [
    ("mh", {"initializer": "random"}),
    ("mh", {"initializer": "high-weight"}),
    ("mh", {"initializer": "burn-in"}),
    ("direct", {}),
    ("alias", {}),
    ("rejection", {}),
    ("knightking", {}),
    ("memory-aware", {"table_budget_bytes": 0}),
    ("memory-aware", {"table_budget_bytes": 10_000_000}),
]
STATIC_CASES = [("alias-first-order", {}), ("mh", {"initializer": "high-weight"})]

#: M-H draws come from K independent chains, one per gadget copy: this
#: many copies, rounds discarded while the fresh chains mix, rounds
#: counted (COPIES * ROUNDS draws in all). Without the warm-up the
#: high-weight and burn-in fits at (4, 0.25) read p ~ 0.002: all chains
#: start on the same edge. The iid samplers draw as many in one call of
#: that many lanes on a single copy, rather than in 60,000 one-lane
#: calls.
COPIES, WARMUP, ROUNDS = 1_000, 10, 60
DRAWS = COPIES * ROUNDS


def _case_id(case):
    name, keywords = case
    return "-".join([name, *(str(v) for v in keywords.values())])


def gadget_copies(copies: int = 1):
    """``copies`` disjoint copies of :data:`GADGET`; copy k holds nodes
    ``5k .. 5k + 4``, so each copy's rows are the gadget's, shifted."""
    src, dst, w = (np.asarray(a) for a in GADGET)
    shift = (np.arange(copies) * GADGET_NODES)[:, None]
    return from_edge_arrays(
        (src + shift).ravel(), (dst + shift).ravel(), np.tile(w, copies),
        num_nodes=GADGET_NODES * copies, duplicate_policy="first",
    )


def exact_law(model, graph, prev: int, cur: int, step: int = 1) -> np.ndarray:
    """The normalised dynamic-weight row of one walker state."""
    prev_off = graph.edge_index(prev, cur) if prev >= 0 else -1
    weights = model.dynamic_weights_row(cur, prev, prev_off, step)
    return weights / weights.sum()


def state_counts(engine, prev: int, cur: int, *, copies: int, lanes: int, rounds: int,
                 warmup: int = 0, first: bool = False) -> np.ndarray:
    """Outcome counts of ``stepper.step`` at the state ``(prev, cur)``.

    One call advances ``lanes`` lanes on each of ``copies`` copies of the
    state (node ids shifted by the gadget size per copy), so an M-H
    stepper moves ``copies`` independent chains once per call; the first
    ``warmup`` calls are discarded. ``first`` draws through
    ``stepper.first_step`` (step 0 of a second-order walk) instead.
    Counts are by position in ``cur``'s row, which every copy shares.
    """
    graph, stepper = engine.graph, engine.stepper
    size = graph.num_nodes // copies
    base = np.repeat(np.arange(copies, dtype=np.int64) * size, lanes)
    c = cur + base
    p = prev + base if prev >= 0 else np.full(c.size, -1, dtype=np.int64)
    p_off = graph.edge_index_batch(p, c) if prev >= 0 else p.copy()
    lo = graph.offsets[c]
    counts = np.zeros(graph.degree(cur))
    for r in range(warmup + rounds):
        if first:
            out = stepper.first_step(c, engine.rng)
        else:
            out = stepper.step(p, p_off, c, 1, engine.rng)
        assert np.all(out != NO_EDGE)
        if r >= warmup:
            counts += np.bincount(out - lo, minlength=counts.size)
    return counts


def per_state_counts(sampler, backend, model_name, *, prev=1, cur=0, seed=42, **keywords):
    """:data:`DRAWS` draws at the gadget state ``(prev, cur)``:
    ``(counts, model)``. Chains (M-H) run on :data:`COPIES` copies, iid
    samplers on one copy."""
    chained = sampler == "mh"
    graph = gadget_copies(COPIES if chained else 1)
    engine = VectorizedWalkEngine(
        graph, model_name, sampler=sampler, backend=backend, seed=seed, **keywords
    )
    if chained:
        counts = state_counts(
            engine, prev, cur, copies=COPIES, lanes=1, rounds=ROUNDS, warmup=WARMUP
        )
    else:
        counts = state_counts(engine, prev, cur, copies=1, lanes=DRAWS, rounds=1)
    return counts, engine.model


def fit_p(counts, law) -> float:
    """Chi-square goodness-of-fit p-value of ``counts`` against ``law``."""
    return stats.chisquare(counts, np.asarray(law) * counts.sum())[1]


class TestStepperStateLaw:
    """Each registered stepper draws the exact per-state transition law.

    For one fixed walker state the target is the normalised dynamic
    weight row, ``model.dynamic_weights_row``. Exact samplers (direct,
    alias, rejection, KnightKing, memory-aware) draw from it iid; M-H
    draws form a chain that converges to it, read after a warm-up on
    many independent chains at once. Every fit is paired with a power
    check: with (p, q) far from 1 the same counts reject the *static*
    law, so a stepper that ignored the dynamic weights would fail.
    """

    @pytest.mark.parametrize("p,q", [(0.25, 4.0), (4.0, 0.25)])
    @pytest.mark.parametrize("case", SECOND_ORDER_CASES, ids=_case_id)
    def test_node2vec_state_law(self, case, p, q, kernel_backend):
        sampler, keywords = case
        counts, model = per_state_counts(sampler, kernel_backend, "node2vec", p=p, q=q, **keywords)
        graph = model.graph
        exact = exact_law(model, graph, prev=1, cur=0)
        assert fit_p(counts, exact) > ALPHA, f"{sampler} rejects the exact law"
        static = graph.neighbor_weights(0) / graph.neighbor_weights(0).sum()
        assert fit_p(counts, static) < ALPHA, "the static law is not rejected"

    @pytest.mark.parametrize("case", STATIC_CASES, ids=_case_id)
    def test_static_state_law(self, case, kernel_backend):
        sampler, keywords = case
        counts, model = per_state_counts(sampler, kernel_backend, "deepwalk", prev=-1, **keywords)
        exact = exact_law(model, model.graph, prev=-1, cur=0)
        assert fit_p(counts, exact) > ALPHA
        assert fit_p(counts, np.full(exact.size, 1.0 / exact.size)) < ALPHA

    def test_backends_draw_the_same_counts(self):
        """The draws are bitwise the same on both backends, so the two
        fits above test one sample twice, through two kernels."""
        if not available_backends().get("cnative", False):
            pytest.skip("kernel backend 'cnative' is not available here")
        for sampler, keywords in (("mh", {"initializer": "high-weight"}), ("rejection", {})):
            ref, __ = per_state_counts(sampler, "numpy", "node2vec", p=0.25, q=4.0, **keywords)
            got, __ = per_state_counts(sampler, "cnative", "node2vec", p=0.25, q=4.0, **keywords)
            np.testing.assert_array_equal(ref, got)


class TestFirstStepLaw:
    """Step 0 of a second-order walk draws the model's start-state law.

    With no previous edge the models define alpha = 1: the static law for
    node2vec, but fairwalk keeps its group discounting there. Every
    stepper inherits ``first_step``; the M-H stepper's is the one that
    walks. Draws at step 0 are iid, so lanes on one node stand for
    copies of the state.
    """

    def test_node2vec_first_step_is_the_static_law(self, kernel_backend):
        engine = VectorizedWalkEngine(
            gadget_copies(), "node2vec", sampler="mh", backend=kernel_backend, p=0.25, q=4.0, seed=3
        )
        counts = state_counts(engine, -1, 0, copies=1, lanes=DRAWS, rounds=1, first=True)
        start = exact_law(engine.model, engine.graph, prev=-1, cur=0, step=0)
        static = engine.graph.neighbor_weights(0) / engine.graph.neighbor_weights(0).sum()
        np.testing.assert_allclose(start, static)
        assert fit_p(counts, start) > ALPHA
        assert fit_p(counts, np.full(4, 0.25)) < ALPHA

    def test_fairwalk_first_step_keeps_group_discounting(self, kernel_backend):
        """Node 0 has nine type-1 neighbours and one type-2: the start law
        gives the lone type-2 neighbour half the mass, not a tenth."""
        graph = from_edge_arrays(np.zeros(10, dtype=np.int64), np.arange(1, 11), num_nodes=11)
        types = np.ones(11, dtype=np.int16)
        types[0], types[10] = 0, 2
        engine = VectorizedWalkEngine(
            graph.with_node_types(types), "fairwalk", sampler="mh", backend=kernel_backend,
            p=1, q=1, seed=4,
        )
        counts = state_counts(engine, -1, 0, copies=1, lanes=DRAWS, rounds=1, first=True)
        start = exact_law(engine.model, engine.graph, prev=-1, cur=0, step=0)
        assert start[-1] == pytest.approx(0.5)
        assert fit_p(counts, start) > ALPHA
        assert fit_p(counts, np.full(10, 0.1)) < ALPHA


class StaticLawStepper(StepperBase):
    """A deliberately wrong sampler: draws by static weight, ignores alpha."""

    name = "static-law-test"

    def __init__(self, graph, model, ctx):
        super().__init__(graph, model, ctx.kernels)

    def step(self, prev, prev_off, cur, step, rng):
        lo, deg = self._rows(cur)
        flat, __ = concat_ranges(lo, deg)
        weights = np.asarray(self.graph.edge_weight_at(flat), dtype=np.float64)
        return self._race(cur, weights, rng.random(flat.size))


class TestHarnessTeeth:
    def test_per_state_fit_rejects_a_stepper_that_ignores_alpha(self):
        """Registered like any third-party stepper, the static-law
        stepper walks, but the per-state fit rejects it at (0.25, 4)."""
        register_sampler("static-law-test", StaticLawStepper)
        try:
            counts, model = per_state_counts("static-law-test", "numpy", "node2vec", p=0.25, q=4.0)
            assert fit_p(counts, exact_law(model, model.graph, prev=1, cur=0)) < ALPHA
            static = model.graph.neighbor_weights(0)
            assert fit_p(counts, static / static.sum()) > ALPHA
        finally:
            unregister_sampler("static-law-test")


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
        store = net.serve(codec="int8", cache_size=0).store
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(store))
        store.codes = np.asarray(store.codes)[perm]
        got = QueryService(store, cache_size=0).most_similar_batch(keys, topn=10)
        assert self._overlap(exact, got) < 0.3
