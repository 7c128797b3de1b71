"""Dynamic-graph API tests: GraphDelta, stepper on_delta,
UniNet.update / refresh_embeddings, and the serving write path.

``apply_delta`` and the plan's edge remap are checked by a Hypothesis
differential against a from-scratch build; the other property-style
tests are randomized with fixed seeds, and failures print the seed that
produced them.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeltaError, ServingError, TrainingError, WalkError
from repro.graph import CSRGraph, GraphDelta, apply_delta, load_deltas, save_deltas
from repro.graph.builder import from_edge_arrays
from repro.graph.delta import DeltaPlan
from repro.graph.generators import erdos_renyi
from repro.sampling.alias import AliasTables
from repro.walks.kernels import available_backends
from repro.walks.models import make_model
from repro.walks.vectorized import VectorizedWalkEngine


def graphs_equal(a: CSRGraph, b: CSRGraph) -> bool:
    """Bitwise CSR equality, None-aware for the optional arrays."""
    if not (np.array_equal(a.offsets, b.offsets) and np.array_equal(a.targets, b.targets)):
        return False
    for x, y in ((a.weights, b.weights), (a.node_types, b.node_types), (a.edge_types, b.edge_types)):
        if (x is None) != (y is None):
            return False
        if x is not None and not np.array_equal(x, y):
            return False
    return True


def random_graph(seed: int, n: int = 30, weighted: bool = True) -> CSRGraph:
    """Connected-ish random test graph; weights avoid exactly 1.0."""
    rng = np.random.default_rng(seed)
    src = list(range(n - 1))
    dst = list(range(1, n))
    for a, b in rng.integers(0, n, size=(2 * n, 2)):
        if a != b:
            src.append(int(a))
            dst.append(int(b))
    w = rng.uniform(0.5, 2.0, size=len(src)) if weighted else None
    return from_edge_arrays(
        np.array(src), np.array(dst), w, num_nodes=n, duplicate_policy="first"
    )


def random_delta(graph: CSRGraph, rng, *, add_nodes: int = 0) -> GraphDelta:
    """A random valid delta: removes, reweights, and absent-pair adds."""
    m = graph.num_edge_entries
    n = graph.num_nodes
    src_all = graph.edge_sources()
    k = max(1, m // 10)
    picks = rng.choice(m, size=min(2 * k, m), replace=False)
    rem, rw = picks[:k], picks[k:]
    add_src, add_dst = [], []
    seen = set()
    for __ in range(3 * k):
        u, v = int(rng.integers(0, n + add_nodes)), int(rng.integers(0, n))
        if u == v or (u, v) in seen:
            continue
        if u < n and graph.has_edge(u, v):
            continue
        seen.add((u, v))
        add_src.append(u)
        add_dst.append(v)
        if len(add_src) == k:
            break
    return GraphDelta(
        add_src=add_src,
        add_dst=add_dst,
        add_weights=rng.uniform(0.5, 2.0, size=len(add_src)),
        remove_src=src_all[rem],
        remove_dst=graph.targets[rem],
        reweight_src=src_all[rw],
        reweight_dst=graph.targets[rw],
        reweight_weights=rng.uniform(0.5, 2.0, size=rw.size),
        add_nodes=add_nodes,
    )


# ----------------------------------------------------------------------
# GraphDelta validation and algebra
# ----------------------------------------------------------------------
class TestGraphDeltaValidation:
    def test_misaligned_arrays_raise(self):
        with pytest.raises(DeltaError, match="align"):
            GraphDelta(add_src=[0, 1], add_dst=[2])
        with pytest.raises(DeltaError, match="align"):
            GraphDelta(reweight_src=[0], reweight_dst=[1], reweight_weights=[1.0, 2.0])

    def test_duplicate_pairs_raise(self):
        with pytest.raises(DeltaError, match="duplicate"):
            GraphDelta(add_src=[0, 0], add_dst=[1, 1])

    def test_overlapping_ops_raise(self):
        with pytest.raises(DeltaError, match="overlap"):
            GraphDelta(add_src=[0], add_dst=[1], remove_src=[0], remove_dst=[1])
        with pytest.raises(DeltaError, match="overlap"):
            GraphDelta(
                remove_src=[0], remove_dst=[1],
                reweight_src=[0], reweight_dst=[1], reweight_weights=[2.0],
            )

    def test_bad_weights_raise(self):
        with pytest.raises(DeltaError, match="finite"):
            GraphDelta(add_src=[0], add_dst=[1], add_weights=[-1.0])
        with pytest.raises(DeltaError, match="finite"):
            GraphDelta(add_src=[0], add_dst=[1], add_weights=[np.inf])

    def test_symmetric_self_loop_raises(self):
        with pytest.raises(DeltaError, match="self-loop"):
            GraphDelta.add_edges([3], [3])

    def test_node_type_shape_enforced(self):
        with pytest.raises(DeltaError, match="one entry per added node"):
            GraphDelta(add_nodes=2, add_node_types=[0])

    def test_apply_missing_remove_raises(self):
        g = random_graph(0)
        missing = GraphDelta(remove_src=[0], remove_dst=[0])
        with pytest.raises(DeltaError, match="not present"):
            g.apply_delta(missing)

    def test_apply_existing_add_raises(self):
        g = random_graph(0)
        s, d = int(g.edge_sources()[0]), int(g.targets[0])
        with pytest.raises(DeltaError, match="already present"):
            g.apply_delta(GraphDelta(add_src=[s], add_dst=[d]))

    def test_apply_out_of_range_raises(self):
        g = random_graph(0)
        with pytest.raises(DeltaError, match="outside"):
            g.apply_delta(GraphDelta(add_src=[g.num_nodes + 5], add_dst=[0]))

    def test_a_stale_remove_last_nodes_key_is_refused(self):
        with pytest.raises(DeltaError, match="remove_last_nodes"):
            GraphDelta.from_dict({"remove_last_nodes": 1})


class TestApplyDelta:
    def test_add_remove_reweight_semantics(self):
        g = from_edge_arrays([0, 1, 2], [1, 2, 3], [2.0, 3.0, 4.0], num_nodes=5)
        delta = GraphDelta(
            add_src=[0], add_dst=[3], add_weights=[1.5],
            remove_src=[1], remove_dst=[2],
            reweight_src=[2], reweight_dst=[3], reweight_weights=[9.0],
        )
        g2 = g.apply_delta(delta)
        assert g2.has_edge(0, 3) and not g2.has_edge(1, 2)
        assert g2.weights[g2.edge_index(0, 3)] == 1.5
        assert g2.weights[g2.edge_index(2, 3)] == 9.0
        assert g2.has_edge(2, 1)  # the reverse entry survives
        # the original graph is untouched
        assert g.has_edge(1, 2) and not g.has_edge(0, 3)

    def test_matches_cold_rebuild(self):
        for seed in range(6):
            g = random_graph(seed, weighted=seed % 2 == 0)
            rng = np.random.default_rng(seed + 100)
            delta = random_delta(g, rng, add_nodes=seed % 3)
            g2 = g.apply_delta(delta)
            # rebuild cold from the resulting edge list
            src, dst, w = g2.edge_list()
            cold = from_edge_arrays(
                src, dst, w if g2.weights is not None else None,
                num_nodes=g2.num_nodes, directed=True,
            )
            assert graphs_equal(g2, cold), f"seed {seed}"

    def test_unit_weights_canonicalise_to_none(self):
        g = from_edge_arrays([0, 1], [1, 2], None, num_nodes=3)
        g2 = g.apply_delta(GraphDelta(add_src=[0], add_dst=[2], add_weights=[2.0]))
        assert g2.is_weighted
        g3 = g2.apply_delta(GraphDelta(remove_src=[0], remove_dst=[2]))
        assert not g3.is_weighted  # all-ones array demoted to None

    def test_node_and_edge_types_preserved(self):
        g = from_edge_arrays(
            [0, 1], [1, 2], [2.0, 3.0], num_nodes=3,
            node_types=[0, 1, 0], edge_types=[1, 2],
        )
        delta = GraphDelta(
            add_nodes=1, add_node_types=[1],
            add_src=[3], add_dst=[0], add_weights=[1.5], add_edge_types=[2],
        )
        g2 = g.apply_delta(delta)
        assert g2.node_types.tolist() == [0, 1, 0, 1]
        assert g2.edge_types[g2.edge_index(3, 0)] == 2
        assert g2.num_edge_types == 3

    def test_grow(self):
        g = random_graph(1)
        n = g.num_nodes
        g2 = g.apply_delta(GraphDelta.grow(3))
        assert g2.num_nodes == n + 3 and g2.degree(n + 2) == 0
        assert np.array_equal(g2.offsets[: n + 1], g.offsets)


@st.composite
def graphs_and_deltas(draw):
    """A sorted graph (empty rows possible at both ends, weighted or not,
    typed or not) and a valid delta over it: removes and reweights of
    existing entries, adds of absent pairs, appended nodes."""
    lead, core, trail = draw(st.integers(0, 2)), draw(st.integers(0, 8)), draw(st.integers(0, 2))
    n = lead + core + trail
    weighted, typed = draw(st.booleans()), draw(st.booleans())
    weight = st.sampled_from([1.0, 0.5, 2.0, 3.25])
    core_ids = st.integers(lead, max(lead + core - 1, lead))
    entries = sorted(draw(st.sets(st.tuples(core_ids, core_ids), max_size=30 if core else 0)))
    src = np.array([s for s, __ in entries], dtype=np.int64)
    dst = np.array([d for __, d in entries], dtype=np.int64)
    weights = np.array([draw(weight) for __ in entries]) if weighted else None
    etypes = np.array([draw(st.integers(0, 2)) for __ in entries]) if typed else None
    node_types = np.array([draw(st.integers(0, 2)) for __ in range(n)]) if typed else None
    graph = from_edge_arrays(
        src, dst, weights, num_nodes=n, directed=True, node_types=node_types,
        edge_types=etypes, duplicate_policy="error", allow_self_loops=True,
    )

    # edits in any order: the merge must sort what it inserts
    ops = [draw(st.sampled_from("kkrw")) for __ in entries]
    removed = draw(st.permutations([e for e, op in zip(entries, ops) if op == "r"]))
    reweighted = draw(st.permutations([e for e, op in zip(entries, ops) if op == "w"]))
    add_nodes = draw(st.integers(0, 3))
    grown = st.integers(0, max(n + add_nodes - 1, 0))
    pairs = draw(st.sets(st.tuples(grown, grown), max_size=12 if n + add_nodes else 0))
    added = draw(st.permutations(sorted(pairs - set(entries))))
    delta = GraphDelta(
        add_src=[s for s, __ in added], add_dst=[d for __, d in added],
        add_weights=[draw(weight) for __ in added],
        add_edge_types=[draw(st.integers(0, 2)) if typed or draw(st.booleans()) else 0 for __ in added],
        remove_src=[s for s, __ in removed], remove_dst=[d for __, d in removed],
        reweight_src=[s for s, __ in reweighted], reweight_dst=[d for __, d in reweighted],
        reweight_weights=[draw(weight) for __ in reweighted],
        add_nodes=add_nodes,
        add_node_types=[draw(st.integers(0, 2)) for __ in range(add_nodes)] if typed else None,
    )
    return graph, delta


def rebuilt_from_scratch(graph: CSRGraph, delta: GraphDelta) -> CSRGraph:
    """The edited edge list built cold, in ``apply_delta``'s canonical form."""
    src, dst, w = graph.edge_list()
    et = np.zeros(src.size, np.int32) if graph.edge_types is None else graph.edge_types
    edges = {(int(s), int(d)): (float(x), int(t)) for s, d, x, t in zip(src, dst, w, et)}
    for s, d in zip(delta.remove_src, delta.remove_dst):
        del edges[int(s), int(d)]
    for s, d, x in zip(delta.reweight_src, delta.reweight_dst, delta.reweight_weights):
        edges[int(s), int(d)] = (float(x), edges[int(s), int(d)][1])
    for s, d, x, t in zip(delta.add_src, delta.add_dst, delta.add_weights, delta.add_edge_types):
        edges[int(s), int(d)] = (float(x), int(t))
    keys = sorted(edges)
    w = np.array([edges[k][0] for k in keys], dtype=np.float64)
    et = np.array([edges[k][1] for k in keys], dtype=np.int32)
    typed = graph.edge_types is not None or bool(np.any(et != 0))
    node_types = graph.node_types
    if node_types is not None:
        extra = np.zeros(delta.add_nodes) if delta.add_node_types is None else delta.add_node_types
        node_types = np.concatenate([node_types, extra])
    cold = from_edge_arrays(
        [k[0] for k in keys], [k[1] for k in keys], w if np.any(w != 1.0) else None,
        num_nodes=graph.num_nodes + delta.add_nodes, directed=True, node_types=node_types,
        edge_types=et if typed else None, duplicate_policy="error", allow_self_loops=True,
    )
    if typed and cold.edge_types is None:  # the builder keeps no types for no edges
        cold = cold.with_node_types(cold.node_types, np.zeros(0, dtype=np.int32))
    return cold


class TestApplyDeltaDifferential:
    @settings(max_examples=300, deadline=None)
    @given(graphs_and_deltas())
    def test_apply_delta_is_a_cold_rebuild_bitwise(self, case):
        graph, delta = case
        assert graphs_equal(graph.apply_delta(delta), rebuilt_from_scratch(graph, delta))

    @settings(max_examples=300, deadline=None)
    @given(graphs_and_deltas())
    def test_edge_remap_is_the_new_graph_search(self, case):
        graph, delta = case
        plan = DeltaPlan.build(graph, delta)
        remap = plan.edge_remap()
        assert np.array_equal(
            remap, plan.new_graph.edge_index_batch(graph.edge_sources(), graph.targets)
        )
        assert np.all(remap[graph.edge_index_batch(delta.remove_src, delta.remove_dst)] == -1)


class TestDeltaAlgebra:
    @pytest.mark.parametrize("seed", range(5))
    def test_compose_equals_sequential_apply(self, seed):
        g = random_graph(seed)
        rng = np.random.default_rng(seed + 77)
        d1 = random_delta(g, rng)
        g1 = g.apply_delta(d1)
        d2 = random_delta(g1, rng)
        sequential = g1.apply_delta(d2)
        squashed = g.apply_delta(d1.compose(d2))
        assert graphs_equal(sequential, squashed), f"seed {seed}"

    def test_compose_cancels_add_then_remove(self):
        d1 = GraphDelta(add_src=[0], add_dst=[9])
        d2 = GraphDelta(remove_src=[0], remove_dst=[9])
        net = d1.compose(d2)
        assert net.is_empty()

    def test_dict_roundtrip_and_io(self, tmp_path):
        d = GraphDelta(
            add_src=[0], add_dst=[1], add_weights=[2.5],
            remove_src=[2], remove_dst=[3],
            reweight_src=[4], reweight_dst=[5], reweight_weights=[0.5],
            add_nodes=2,
        )
        d2 = GraphDelta.from_dict(d.to_dict())
        assert np.array_equal(d2.add_weights, d.add_weights)
        assert d2.add_nodes == 2
        path = tmp_path / "stream.jsonl"
        save_deltas([d, GraphDelta.remove_edges([1], [2])], path)
        loaded = load_deltas(path)
        assert len(loaded) == 2 and loaded[1].remove_src.size == 2

    def test_a_binary_delta_file_is_refused(self, tmp_path):
        path = tmp_path / "delta.npz"
        np.savez(path, add_src=[0], add_dst=[2])
        with pytest.raises(DeltaError, match="not a JSONL"):
            load_deltas(path)

    def test_bad_jsonl_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"add": [[0]]}\n')
        with pytest.raises(DeltaError, match="fields"):
            load_deltas(path)


# ----------------------------------------------------------------------
# DeltaPlan / sampler refresh
# ----------------------------------------------------------------------
class TestDeltaPlan:
    @pytest.mark.parametrize("seed", range(4))
    def test_edge_remap_agrees_with_new_graph_search(self, seed):
        g = random_graph(seed)
        delta = random_delta(g, np.random.default_rng(seed + 3))
        plan = DeltaPlan.build(g, delta)
        remap = plan.edge_remap()
        src = g.edge_sources()
        removed = set(map(tuple, np.stack([delta.remove_src, delta.remove_dst], axis=1).tolist()))
        for o in range(g.num_edge_entries):
            pair = (int(src[o]), int(g.targets[o]))
            if pair in removed:
                assert remap[o] == -1
            else:
                assert remap[o] == plan.new_graph.edge_index(*pair), (seed, o)


class TestSamplerOnDelta:
    @pytest.fixture
    def setting(self):
        g = erdos_renyi(150, 6.0, seed=2, weight_mode="uniform")
        delta = random_delta(g, np.random.default_rng(8))
        return g, delta, DeltaPlan.build(g, delta)

    @pytest.mark.parametrize(
        "sampler", ["mh", "direct", "alias", "rejection", "knightking"]
    )
    def test_engine_apply_delta_walks_stay_valid(self, setting, sampler):
        g, delta, plan = setting
        model = make_model("node2vec", g, p=0.5, q=2.0)
        engine = VectorizedWalkEngine(g, model, sampler=sampler, seed=6)
        engine.generate(num_walks=1, walk_length=10)
        new_g = engine.apply_delta(DeltaPlan(g, plan.new_graph, delta))
        corpus = engine.generate(num_walks=1, walk_length=10)
        # every consecutive pair in every walk is an edge of the new graph
        for row, ln in zip(corpus.walks, corpus.lengths):
            for a, b in zip(row[: ln - 1], row[1:ln]):
                assert new_g.has_edge(int(a), int(b)), (sampler, a, b)
        stats = engine.stats()
        assert stats["delta_seconds"] >= 0.0
        if sampler == "alias":
            assert stats["rebuilt_nodes"] > 0 and stats["rebuild_cost_bytes"] > 0
        if sampler == "mh":
            assert stats["rebuild_cost_bytes"] == 0

    @staticmethod
    def assert_same_tables(tables, fresh):
        for field in ("base", "table_deg", "has_table", "threshold", "alias_local"):
            assert np.array_equal(getattr(tables, field), getattr(fresh, field)), field

    def test_per_state_tables_on_delta_match_fresh_build(self, setting):
        g, delta, plan = setting
        model = make_model("node2vec", g, p=0.5, q=2.0)
        tables = AliasTables(g, model)
        tables.on_delta(plan, model.rebind(plan.new_graph))
        fresh = AliasTables(plan.new_graph, make_model("node2vec", plan.new_graph, p=0.5, q=2.0))
        self.assert_same_tables(tables, fresh)

    def test_static_tables_on_delta_match_fresh_build(self, setting):
        g, delta, plan = setting
        store = AliasTables(g)
        info = store.on_delta(plan)
        fresh = AliasTables(plan.new_graph)
        self.assert_same_tables(store, fresh)
        # affected-only: no more rows rebuilt than the delta touched
        assert 0 < info["rebuilt_nodes"] <= plan.touched_nodes().size
        assert info["rebuild_cost_bytes"] == 16 * int(
            plan.new_graph.degrees()[plan.touched_nodes()].sum()
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_knightking_on_delta_matches_fresh_build(self, seed):
        g = erdos_renyi(300, 8.0, seed=seed, weight_mode="exponential")
        plan = DeltaPlan.build(g, random_delta(g, np.random.default_rng(seed)))
        engine = VectorizedWalkEngine(g, "node2vec", sampler="knightking", p=0.5, q=2.0, seed=6)
        engine.apply_delta(plan)
        fresh = VectorizedWalkEngine(
            plan.new_graph, "node2vec", sampler="knightking", p=0.5, q=2.0, seed=6
        )
        assert engine.stepper.fold
        assert np.array_equal(engine.stepper.row_totals, fresh.stepper.row_totals)
        walked, expected = engine.generate(1, 10), fresh.generate(1, 10)
        assert np.array_equal(walked.walks, expected.walks)

    def test_memory_aware_rebuild_cost_is_the_same_on_every_backend(self):
        if not available_backends()["cnative"]:
            pytest.skip("no C compiler")
        g = erdos_renyi(150, 6.0, seed=2)
        plan = DeltaPlan.build(g, random_delta(g, np.random.default_rng(8)))
        costs = []
        for backend in ("numpy", "cnative"):
            engine = VectorizedWalkEngine(
                g, "node2vec", sampler="memory-aware", table_budget_bytes=20_000,
                backend=backend, p=0.5, q=2.0, seed=6,
            )
            engine.apply_delta(plan)
            stepper = engine.stepper
            rebuilt = stepper.tables.memory_bytes() + stepper.proposal.memory_bytes()
            assert engine.stats()["rebuild_cost_bytes"] == rebuilt
            costs.append(rebuilt)
        assert costs[0] == costs[1]

    @staticmethod
    def trailing_node_stripped_and_appended():
        g = from_edge_arrays([0, 1, 0], [1, 2, 2], [2.0, 3.0, 4.0], num_nodes=3)
        # strip node 2 of its edges, then append node 3 wired to 0 and 1
        delta = GraphDelta(
            remove_src=[0, 1, 2, 2], remove_dst=[2, 2, 0, 1],
            add_src=[3, 0, 3, 1], add_dst=[0, 3, 1, 3], add_weights=[1.5, 1.5, 2.5, 2.5],
            add_nodes=1,
        )
        plan = DeltaPlan.build(g, delta)
        assert plan.new_graph.num_nodes == 4 and plan.new_graph.degree(2) == 0
        return g, plan

    def test_on_delta_survives_a_stripped_and_an_appended_node(self):
        g, plan = self.trailing_node_stripped_and_appended()
        store = AliasTables(g)
        store.on_delta(plan)  # touched node 3 did not exist before the delta
        self.assert_same_tables(store, AliasTables(plan.new_graph))

    @pytest.mark.parametrize(
        "sampler", ["knightking", "rejection", "alias", "mh", "memory-aware"]
    )
    def test_engine_apply_delta_survives_a_stripped_and_an_appended_node(self, sampler):
        g, plan = self.trailing_node_stripped_and_appended()
        engine = VectorizedWalkEngine(
            g, make_model("node2vec", g, p=0.5, q=2.0), sampler=sampler, seed=6,
            table_budget_bytes=64 if sampler == "memory-aware" else None,
        )
        engine.generate(num_walks=2, walk_length=6)
        new_g = engine.apply_delta(plan)
        corpus = engine.generate(num_walks=2, walk_length=6)
        assert corpus.walks[corpus.walks >= 0].max() < new_g.num_nodes == 4
        assert np.any(corpus.walks[:, 1:] == 3)  # the appended node is walked onto
        for row, ln in zip(corpus.walks, corpus.lengths):
            for a, b in zip(row[: ln - 1], row[1:ln]):
                assert new_g.has_edge(int(a), int(b)), (sampler, a, b)
            if row[0] == 2:  # the stripped node walks nowhere
                assert ln == 1, (sampler, row)

    def test_mh_chain_remap_only_touches_affected(self, setting):
        g, __, ___ = setting
        # a genuinely small delta: one removed entry, one added entry
        s, d = int(g.edge_sources()[0]), int(g.targets[0])
        u = 0
        while g.has_edge(10, u) or u == 10:
            u += 1
        delta = GraphDelta(remove_src=[s], remove_dst=[d], add_src=[10], add_dst=[u])
        plan = DeltaPlan.build(g, delta)
        model = make_model("node2vec", g, p=0.5, q=2.0)
        engine = VectorizedWalkEngine(g, model, sampler="mh", seed=3)
        engine.generate(num_walks=2, walk_length=20)
        chains = engine.stepper.chains
        before = chains.last.copy()
        initialized_before = int((before != -1).sum())
        engine.apply_delta(DeltaPlan(g, plan.new_graph, delta))
        after = chains.last
        new_g = plan.new_graph
        assert after.size == new_g.num_edge_entries
        # every surviving resident edge is a valid out-edge of its state's node
        live = np.flatnonzero(after != -1)
        resident = after[live]
        cur = new_g.targets[live]  # state = edge (s -> v); draws come from N(v)
        lo = new_g.offsets[cur]
        hi = new_g.offsets[cur + 1]
        assert np.all((resident >= lo) & (resident < hi))
        # a single-edge delta touches almost nothing
        survived = int((after != -1).sum())
        assert survived > 0.95 * initialized_before
        invalidated = engine.stats()["invalidated_states"]
        assert invalidated < 0.05 * initialized_before

    def test_fairwalk_rebind_refreshes_type_counts(self):
        g = random_graph(4, weighted=False)
        types = np.arange(g.num_nodes, dtype=np.int16) % 2
        g = g.with_node_types(types)
        model = make_model("fairwalk", g, p=1.0, q=1.0)
        delta = GraphDelta(add_nodes=1, add_node_types=[1], add_src=[g.num_nodes], add_dst=[0])
        g2 = g.apply_delta(delta)
        model.rebind(g2)
        assert model.type_counts.shape[0] == g2.num_nodes
        fresh = make_model("fairwalk", g2, p=1.0, q=1.0)
        assert np.array_equal(model.type_counts, fresh.type_counts)


# ----------------------------------------------------------------------
# UniNet facade lifecycle
# ----------------------------------------------------------------------
class TestUniNetDynamic:
    @pytest.fixture
    def net(self):
        from repro import UniNet

        g = erdos_renyi(120, 5.0, seed=4)
        net = UniNet(g, model="deepwalk", seed=7)
        net.train(num_walks=2, walk_length=10, dimensions=8)
        return net

    def test_serve_raises_when_stale_and_recovers(self, net):
        net.serve()  # fresh: fine
        net.update(GraphDelta.add_edges([0], [100]))
        assert net.embeddings_stale
        with pytest.raises(ServingError, match="stale"):
            net.serve()
        # explicit embeddings bypass the guard
        net.serve(embeddings=net.last_embeddings)
        net.refresh_embeddings(num_walks=1, walk_length=8)
        assert not net.embeddings_stale
        net.serve()

    def test_update_returns_affected_and_retrains(self, net):
        n = net.graph.num_nodes
        result = net.update(
            GraphDelta(add_nodes=2, add_src=[n, n + 1], add_dst=[0, 1],
                       add_weights=[1.0, 1.0]),
            retrain=True, num_walks=1, walk_length=6,
        )
        assert {n, n + 1} <= set(result.affected_nodes.tolist())
        assert result.retrain is not None
        # the new nodes got embedded
        assert n in net.last_embeddings and (n + 1) in net.last_embeddings
        assert net.graph.num_nodes == n + 2

    def test_refresh_without_train_raises(self):
        from repro import UniNet

        net = UniNet(erdos_renyi(30, 4.0, seed=1), model="deepwalk", seed=0)
        net.update(GraphDelta.add_edges([0], [20]))
        with pytest.raises(TrainingError, match="prior train"):
            net.refresh_embeddings()

    def test_affected_start_nodes_horizon(self, net):
        net.update(GraphDelta.add_edges([3], [50]))
        one_hop = net.affected_start_nodes(2)
        deep = net.affected_start_nodes(20)
        assert {3, 50} <= set(one_hop.tolist())
        assert one_hop.size <= deep.size
        expected_one_hop = set(net.graph.neighbors(3).tolist()) | set(
            net.graph.neighbors(50).tolist()
        ) | {3, 50}
        assert set(one_hop.tolist()) == expected_one_hop

    @pytest.mark.parametrize("horizon", [-3, 0, True, 2.5, "2"])
    def test_a_horizon_that_is_no_count_is_refused(self, net, horizon):
        net.update(GraphDelta.add_edges([3], [50]))
        with pytest.raises(WalkError, match="horizon must be an integer >= 1"):
            net.affected_start_nodes(horizon)
        with pytest.raises(WalkError, match="horizon must be an integer >= 1"):
            net.refresh_embeddings(num_walks=1, horizon=horizon)
        assert net.affected_start_nodes(1).tolist() == [3, 50]

    def test_update_accepts_dict(self, net):
        net.update({"add": [[0, 101], [101, 0]]})
        assert net.graph.has_edge(0, 101)

    @pytest.mark.parametrize(
        "keywords, match",
        [
            ({"retrain": False, "num_walks": 3}, "retrain=True"),
            ({"num_walks": 3}, "retrain=True"),
            ({"refresh": "full"}, "refresh"),
            ({"retrain": True, "refresh": "full"}, "refresh"),
        ],
    )
    def test_update_refuses_keywords_it_would_drop(self, net, keywords, match):
        graph = net.graph
        with pytest.raises(DeltaError, match=match):
            net.update(GraphDelta.add_edges([0], [101]), **keywords)
        assert net.graph is graph and not net.embeddings_stale

    def test_chains_persist_across_refreshes(self, net):
        net.refresh_embeddings(num_walks=1, walk_length=6, start_nodes=np.arange(50))
        assert net._chain_store is not None
        touched_before = net._chain_store.num_initialized
        assert touched_before > 0
        ur = net.update(GraphDelta.add_edges([0], [110]))
        # remap happened on the live store (counts reported)
        assert "invalidated_states" in ur.sampler_refresh
        assert net._chain_store.num_initialized > 0

    def test_refresh_trains_at_alpha_not_min_alpha(self):
        """A refresh after ``finalize`` must still learn: new nodes land
        next to their graph neighbours and the old nodes lose nothing.
        (With the planned stream's decay left in force every refresh
        batch ran at ``min_alpha``: recall 0.0, old rows all but frozen.)"""
        from repro import UniNet, datasets
        from repro.evaluation import classification_sweep

        graph, labels = datasets.load("blogcatalog", scale=0.3, seed=3)
        net = UniNet(graph, model="deepwalk", seed=3)
        net.train(num_walks=10, walk_length=40, dimensions=64)

        def micro_f1(kv):
            sweep = classification_sweep(kv, labels, train_fractions=(0.5,), trials=3, seed=0)
            return sweep[0]["micro_f1_mean"]

        f1_before = micro_f1(net.last_embeddings)
        n = graph.num_nodes
        rng = np.random.default_rng(0)
        wired = {}
        for new in range(n, n + 5):
            hosts_neighbours = graph.neighbors(int(rng.integers(n)))
            wired[new] = rng.choice(hosts_neighbours, size=6, replace=False).tolist()
        src = [new for new, nbrs in wired.items() for __ in nbrs]
        dst = [nbr for nbrs in wired.values() for nbr in nbrs]
        net.update(GraphDelta(
            add_nodes=5, add_src=src + dst, add_dst=dst + src,
            add_weights=[1.0] * (2 * len(src)),
        ))
        net.refresh_embeddings(num_walks=10, horizon=3)
        kv = net.last_embeddings
        hits = sum(
            len(set(nbrs) & {key for key, __ in kv.most_similar(new, topn=10)})
            for new, nbrs in wired.items()
        )
        assert hits / len(src) >= 0.25
        assert micro_f1(kv) >= f1_before


class TestBudgetedFacade:
    @pytest.fixture
    def graph(self):
        from repro import datasets

        return datasets.load("blogcatalog", scale=0.1, seed=0)[0]

    def test_each_call_hands_its_engine_charge_back(self, graph):
        from repro import UniNet
        from repro.sampling.memory_model import MemoryBudget, mh_bytes

        engine_bytes = mh_bytes(graph, make_model("deepwalk", graph))
        budget = MemoryBudget(int(1.5 * engine_bytes))
        net = UniNet(graph, "deepwalk", budget=budget, seed=1)
        net.generate_walks(1, 5)
        net.generate_walks(1, 5)
        net.train(1, 5, dimensions=8)
        assert budget.used_bytes == 0
        for hub in range(3):
            absent = next(
                v for v in range(graph.num_nodes) if v != hub and not net.graph.has_edge(hub, v)
            )
            net.update(GraphDelta.add_edges([hub], [absent]))
            net.refresh_embeddings(num_walks=1, walk_length=5)
            # the persistent chain store, charged once when it was created
            assert budget.used_bytes == engine_bytes

    def test_a_budget_below_one_engine_raises_on_the_first_walk(self, graph):
        from repro import UniNet
        from repro.errors import SimulatedOutOfMemoryError
        from repro.sampling.memory_model import MemoryBudget, mh_bytes

        engine_bytes = mh_bytes(graph, make_model("deepwalk", graph))
        net = UniNet(graph, "deepwalk", budget=MemoryBudget(engine_bytes - 1), seed=1)
        with pytest.raises(SimulatedOutOfMemoryError):
            net.generate_walks(1, 5)


# ----------------------------------------------------------------------
# serving write path
# ----------------------------------------------------------------------
class TestServingDynamic:
    def test_upsert_updates_and_inserts(self):
        from repro.serving import EmbeddingStore, SnapshotManager

        rng = np.random.default_rng(3)
        store = EmbeddingStore(np.arange(10), rng.normal(size=(10, 4)).astype(np.float32))
        snapshots = SnapshotManager(store, index="bruteforce", cache_size=8)
        snapshots.current.service.most_similar_batch([0, 1], topn=3)
        replacement = rng.normal(size=4).astype(np.float32)
        info = store.upsert([4, 99], np.stack([replacement, replacement]))
        assert info == {"updated": 1, "inserted": 1}
        assert 99 in store and np.allclose(store.vector(4), replacement)
        assert store.norms[store.rows_for(99)[0]] == pytest.approx(
            float(np.linalg.norm(replacement))
        )
        snapshots.publish(store)
        # the two identical vectors must now be each other's top neighbour
        (top,) = snapshots.current.service.most_similar_batch([99], topn=1)
        assert top[0][0] == 4 and top[0][1] == pytest.approx(1.0, abs=1e-5)
        assert snapshots.stats()["published"] == 1

    def test_upsert_shape_and_duplicate_checks(self):
        from repro.serving import EmbeddingStore

        store = EmbeddingStore(np.arange(4), np.eye(4, dtype=np.float32))
        with pytest.raises(ServingError, match="must be"):
            store.upsert([0], np.zeros((1, 3), np.float32))
        with pytest.raises(ServingError, match="unique"):
            store.upsert([1, 1], np.zeros((2, 4), np.float32))

    def test_readonly_mmap_upsert_raises(self, tmp_path):
        from repro.serving import EmbeddingStore

        store = EmbeddingStore(np.arange(4), np.eye(4, dtype=np.float32))
        path = tmp_path / "s.embstore"
        store.save(path)
        opened = EmbeddingStore.open(path)
        with pytest.raises(ServingError, match="read-only"):
            opened.upsert([0], np.zeros((1, 4), np.float32))
        # the documented escape hatch works
        writable = EmbeddingStore.open(path, mmap=False)
        writable.upsert([0], np.ones((1, 4), np.float32))
        writable.save(path)
        assert np.allclose(EmbeddingStore.open(path).vector(0), 1.0)

    def test_publish_a_replacement_store(self):
        from repro.serving import EmbeddingStore, SnapshotManager

        a = EmbeddingStore(np.arange(5), np.eye(5, dtype=np.float32))
        b = EmbeddingStore(np.arange(7), np.eye(7, dtype=np.float32))
        snapshots = SnapshotManager(a, index="bruteforce", cache_size=4)
        assert snapshots.publish(b).version == 1
        assert snapshots.current.service.stats()["store_count"] == 7


# ----------------------------------------------------------------------
# declarative + CLI surface
# ----------------------------------------------------------------------
class TestUpdatesSpec:
    def base_spec(self):
        return {
            "graph": {"dataset": "amazon", "scale": 0.05, "seed": 1},
            "walk": {"num_walks": 1, "walk_length": 8},
            "train": {"dimensions": 8},
            "updates": {
                "steps": [{"add": [[0, 40]]}, {"remove": [[0, 40]]}],
                "symmetric": True,
                "num_walks": 1,
                "walk_length": 6,
            },
        }

    def test_roundtrip_and_validation(self):
        from repro import RunSpec
        from repro.errors import SpecError

        spec = RunSpec.from_dict(self.base_spec())
        again = RunSpec.from_dict(spec.to_dict())
        assert again.updates.steps == spec.updates.steps
        bad = self.base_spec()
        bad["updates"]["refresh"] = "sometimes"
        with pytest.raises(SpecError, match="refresh"):
            RunSpec.from_dict(bad)
        bad = self.base_spec()
        bad["updates"]["steps"] = [{"add": [[0]]}]
        with pytest.raises(SpecError, match="invalid updates step"):
            RunSpec.from_dict(bad)
        bad = self.base_spec()
        bad["train"] = None
        with pytest.raises(SpecError, match="train"):
            RunSpec.from_dict(bad)
        # retrain=false + serving would silently serve stale vectors
        bad = self.base_spec()
        bad["updates"]["retrain"] = False
        bad["serving"] = {"probe_queries": 4}
        with pytest.raises(SpecError, match="stale"):
            RunSpec.from_dict(bad)

    def test_run_replays_schedule(self):
        from repro import run

        report = run(self.base_spec())
        rows = report.metrics["updates"]
        assert len(rows) == 2
        assert rows[0]["added"] == 2 and rows[1]["removed"] == 2
        assert all("update_s" in row and "refresh_s" in row for row in rows)
        assert report.embeddings is not None

    def test_cli_update_verb(self, tmp_path, capsys):
        from repro.cli import main

        deltas = tmp_path / "d.jsonl"
        deltas.write_text(
            json.dumps({"add": [[0, 50]], "symmetric": True}) + "\n"
            + json.dumps({"remove": [[0, 50]], "symmetric": True}) + "\n"
        )
        out = tmp_path / "v.npz"
        code = main([
            "update", "--dataset", "amazon", "--scale", "0.05", "--seed", "2",
            "--num-walks", "1", "--walk-length", "8", "--dimensions", "8",
            "--deltas", str(deltas), "--update-num-walks", "1",
            "--output", str(out),
        ])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "replayed 2 delta(s)" in captured

    def test_cli_update_missing_deltas(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "update", "--dataset", "amazon", "--scale", "0.05",
            "--deltas", str(tmp_path / "absent.jsonl"),
        ])
        assert code == 2
        assert "cannot load deltas" in capsys.readouterr().err
