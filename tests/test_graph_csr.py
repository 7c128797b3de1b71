"""Tests for the CSR graph storage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.builder import from_edge_arrays
from repro.graph.csr import FILTER_MIN_ROW, CSRGraph
from repro.graph.delta import DeltaPlan, GraphDelta
from repro.graph.generators import complete_graph, cycle_graph, path_graph


class TestConstruction:
    def test_basic_counts(self, tiny_weighted_graph):
        g = tiny_weighted_graph
        assert g.num_nodes == 5
        assert g.num_edge_entries == 20
        assert g.num_undirected_edges == 10

    def test_offsets_validation(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([1, 2]), np.array([0]))
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2]), np.array([0]))

    def test_targets_out_of_range(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_unsorted_rows_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2]), np.array([1, 0]))

    def test_negative_weights_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([0]), weights=np.array([-1.0]))

    def test_misaligned_weights_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([0]), weights=np.array([1.0, 2.0]))

    def test_empty_graph(self):
        g = CSRGraph(np.array([0]), np.array([], dtype=np.int64))
        assert g.num_nodes == 0
        assert g.num_edge_entries == 0
        assert g.mean_degree == 0.0


class TestAccessors:
    def test_degree_matches_neighbors(self, tiny_weighted_graph):
        g = tiny_weighted_graph
        for v in range(g.num_nodes):
            assert g.degree(v) == g.neighbors(v).size
        assert np.array_equal(g.degrees(), [g.degree(v) for v in range(5)])

    def test_neighbors_sorted(self, small_power_law_graph):
        g = small_power_law_graph
        for v in range(g.num_nodes):
            nbrs = g.neighbors(v)
            assert np.all(np.diff(nbrs) > 0)

    def test_neighbor_weights_unweighted_defaults_to_ones(self):
        g = path_graph(4)
        assert np.array_equal(g.neighbor_weights(1), [1.0, 1.0])

    def test_edge_weight_at_scalar_and_array(self, tiny_weighted_graph):
        g = tiny_weighted_graph
        off = g.edge_index(0, 2)
        assert g.edge_weight_at(off) == 2.0
        arr = g.edge_weight_at(np.array([off, off]))
        assert np.array_equal(arr, [2.0, 2.0])

    def test_edge_range(self, tiny_weighted_graph):
        g = tiny_weighted_graph
        lo, hi = g.edge_range(0)
        assert hi - lo == g.degree(0)

    def test_mean_degree(self):
        g = cycle_graph(10)
        assert g.mean_degree == 2.0

    def test_weight_row_sums(self, tiny_weighted_graph):
        g = tiny_weighted_graph
        sums = g.weight_row_sums()
        for v in range(g.num_nodes):
            assert sums[v] == pytest.approx(g.neighbor_weights(v).sum())

    def test_weight_row_sums_with_isolated_node(self):
        g = from_edge_arrays([0], [1], [2.5], num_nodes=3)
        sums = g.weight_row_sums()
        assert sums[2] == 0.0
        assert sums[0] == 2.5

    def test_edge_sources(self, tiny_weighted_graph):
        g = tiny_weighted_graph
        src = g.edge_sources()
        for v in range(g.num_nodes):
            lo, hi = g.edge_range(v)
            assert np.all(src[lo:hi] == v)


class TestEdgeLookup:
    def test_edge_index_present_and_absent(self, tiny_weighted_graph):
        g = tiny_weighted_graph
        off = g.edge_index(0, 3)
        assert g.targets[off] == 3
        assert g.edge_index(0, 0) == -1

    def test_has_edge_symmetry_for_undirected(self, small_power_law_graph):
        g = small_power_law_graph
        rng = np.random.default_rng(0)
        for __ in range(50):
            v = int(rng.integers(g.num_nodes))
            if g.degree(v) == 0:
                continue
            u = int(g.neighbors(v)[0])
            assert g.has_edge(v, u) and g.has_edge(u, v)

    def test_edge_index_batch_agrees_with_scalar(self, small_power_law_graph):
        g = small_power_law_graph
        rng = np.random.default_rng(1)
        src = rng.integers(0, g.num_nodes, 200)
        dst = rng.integers(0, g.num_nodes, 200)
        batch = g.edge_index_batch(src, dst)
        scalar = np.array([g.edge_index(int(s), int(d)) for s, d in zip(src, dst)])
        assert np.array_equal(batch, scalar)

    def test_edge_index_batch_on_real_edges(self, small_power_law_graph):
        g = small_power_law_graph
        src = g.edge_sources()[:100]
        dst = g.targets[:100]
        offs = g.edge_index_batch(src, dst)
        assert np.array_equal(offs, np.arange(100))

    def test_has_edge_batch(self, tiny_weighted_graph):
        g = tiny_weighted_graph
        out = g.has_edge_batch(np.array([0, 0]), np.array([1, 0]))
        assert out.tolist() == [True, False]

    def test_edgeless_graph_answers_absent(self):
        g = CSRGraph(np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert g.edge_index_batch([0, 2], [1, 2]).tolist() == [-1, -1]
        assert g.has_edge_batch([0, 2], [1, 2]).tolist() == [False, False]
        assert g.edge_index_batch([0, 2], [1, 2]).tolist() == [-1, -1]  # filter built
        # the delta path looks its additions up before merging them
        delta = GraphDelta(add_src=[0], add_dst=[1])
        assert g.apply_delta(delta).has_edge(0, 1)
        assert DeltaPlan.build(g, delta).new_graph.edge_index(0, 1) == 0

    def test_row_lower_bound_is_the_insertion_point(self):
        # rows: 0 empty, 1 -> [2, 3], 2 empty, 3 -> [0]; node 4 is past the last
        g = from_edge_arrays([1, 1, 3], [2, 3, 0], num_nodes=4, directed=True)
        got = g.row_lower_bound([0, 1, 1, 1, 2, 3, 3, 4], [3, 1, 3, 5, 0, 0, 1, 0])
        assert got.tolist() == [0, 0, 1, 2, 2, 2, 3, 3]
        edgeless = CSRGraph(np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert edgeless.row_lower_bound([0, 2, 7], [1, 0, 1]).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("filtered", (False, True))
    @pytest.mark.parametrize("src,dst", [([-1], [0]), ([3], [0]), ([0], [-1]), ([0], [3])])
    def test_out_of_range_ids_are_refused(self, filtered, src, dst):
        g = from_edge_arrays([0, 1], [1, 2], num_nodes=3)
        if filtered:
            g.edge_filter()
        with pytest.raises(GraphError, match="outside"):
            g.has_edge_batch(src, dst)
        with pytest.raises(GraphError, match="outside"):
            g.edge_index_batch(src, dst)
        with pytest.raises(GraphError, match="outside"):
            g.edge_index(src[0], dst[0])


class TestInterop:
    def test_networkx_round_trip(self, tiny_weighted_graph):
        nx_graph = tiny_weighted_graph.to_networkx()
        back = CSRGraph.from_networkx(nx_graph)
        assert back.num_nodes == tiny_weighted_graph.num_nodes
        assert np.array_equal(back.targets, tiny_weighted_graph.targets)
        assert np.allclose(back.weights, tiny_weighted_graph.weights)

    def test_degrees_match_networkx(self, small_power_law_graph):
        g = small_power_law_graph
        nx_graph = g.to_networkx()
        for v in range(g.num_nodes):
            assert nx_graph.out_degree(v) == g.degree(v)

    def test_edge_list_shapes(self, tiny_weighted_graph):
        src, dst, w = tiny_weighted_graph.edge_list()
        assert src.size == dst.size == w.size == 20

    def test_memory_bytes_positive(self, tiny_weighted_graph):
        assert tiny_weighted_graph.memory_bytes() > 0

    def test_with_node_types(self, small_unweighted_graph):
        g = small_unweighted_graph
        types = np.zeros(g.num_nodes, dtype=np.int16)
        typed = g.with_node_types(types)
        assert typed.is_heterogeneous
        assert typed.num_node_types == 1
        assert not g.is_heterogeneous

    def test_repr_mentions_kind(self, tiny_weighted_graph):
        assert "weighted=True" in repr(tiny_weighted_graph)


@settings(max_examples=30, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=60,
    )
)
def test_property_round_trip_edges(edges):
    """Building from edges and reading them back yields the same set."""
    src = np.array([e[0] for e in edges])
    dst = np.array([e[1] for e in edges])
    g = from_edge_arrays(src, dst, num_nodes=15, duplicate_policy="first")
    expected = set()
    for s, d in edges:
        expected.add((s, d))
        expected.add((d, s))
    got_src, got_dst, __ = g.edge_list()
    got = set(zip(got_src.tolist(), got_dst.tolist()))
    assert got == expected


@settings(max_examples=30, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=40,
    ),
    queries=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=20),
)
def test_property_edge_index_batch_matches_scalar(edges, queries):
    src = np.array([e[0] for e in edges])
    dst = np.array([e[1] for e in edges])
    g = from_edge_arrays(src, dst, num_nodes=10, duplicate_policy="first")
    qs = np.array([q[0] for q in queries])
    qd = np.array([q[1] for q in queries])
    batch = g.edge_index_batch(qs, qd)
    scalar = [g.edge_index(int(a), int(b)) for a, b in zip(qs, qd)]
    assert batch.tolist() == scalar


def test_complete_graph_edge_lookup_total():
    g = complete_graph(8)
    assert g.num_edge_entries == 8 * 7
    for v in range(8):
        for u in range(8):
            assert g.has_edge(v, u) == (u != v)


# ---------------------------------------------------------------------------
# the adjacency filter against the scalar lookup and a pure-Python build
# ---------------------------------------------------------------------------

#: row lengths on each side of the filter's probe line and the C kernel's
#: 64-entry scan line
ROW_BANDS = ((0, 0), (1, FILTER_MIN_ROW), (FILTER_MIN_ROW + 1, 64), (65, 90))
_MASK64 = (1 << 64) - 1


def _py_filter(graph) -> list:
    """The filter of ``graph`` from the C kernels' ``edge_hash`` and
    ``FILTER_BITS``, written out on Python integers."""
    words = 8
    while words < graph.num_edge_entries // 4:
        words *= 2
    filt = [0] * words
    for v in range(graph.num_nodes):
        for u in graph.neighbors(v).tolist():
            h = (v * 0x9E3779B97F4A7C15 + u) & _MASK64
            h ^= h >> 32
            h = (h * 0xD6E8FEB86659FD93) & _MASK64
            h ^= h >> 32
            filt[h & (words - 1)] |= (1 << (h >> 58)) | (1 << ((h >> 52) & 63))
    return filt


@st.composite
def sorted_csr_graphs(draw):
    """Sorted CSR graphs whose rows come from the drawn ``ROW_BANDS``
    (only the empty one: edgeless), some with self-loops."""
    bands = sorted(draw(st.sets(st.sampled_from(range(len(ROW_BANDS))), min_size=1)))
    n = draw(st.integers(ROW_BANDS[bands[-1]][0] + 1, ROW_BANDS[-1][1]))
    loops = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for v in range(n):
        lo, hi = ROW_BANDS[bands[rng.integers(len(bands))]]
        row = rng.choice(n, size=min(int(rng.integers(lo, hi + 1)), n), replace=False)
        if loops and row.size:
            row[0] = v
        rows.append(np.unique(row))
    offsets = np.concatenate(([0], np.cumsum([row.size for row in rows])))
    targets = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    return CSRGraph(offsets, targets), rng


@settings(max_examples=40, deadline=None)
@given(case=sorted_csr_graphs())
def test_property_filtered_lookups_match_scalar(case):
    g, rng = case
    # every edge, then as many random pairs (mostly absent)
    extra = rng.integers(0, g.num_nodes, (2, g.num_edge_entries + 8))
    src = np.concatenate((g.edge_sources(), extra[0]))
    dst = np.concatenate((g.targets, extra[1]))
    want = [g.edge_index(int(a), int(b)) for a, b in zip(src, dst)]
    assert g.edge_index_batch(src, dst).tolist() == want  # no filter yet
    assert g.has_edge_batch(src, dst).tolist() == [off >= 0 for off in want]
    assert g.edge_index_batch(src, dst).tolist() == want  # filtered
    assert g.edge_filter().tolist() == _py_filter(g)
