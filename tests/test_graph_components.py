"""Tests for connectivity utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.builder import from_edge_arrays
from repro.graph.components import (
    component_sizes,
    connected_components,
    induced_subgraph,
    largest_component,
    remap_labels,
)
from repro.graph.generators import barbell_graph, cycle_graph
from repro.graph.labels import NodeLabels


def _two_islands():
    """Triangle {0,1,2} plus edge {3,4} plus isolated node 5."""
    return from_edge_arrays([0, 1, 2, 3], [1, 2, 0, 4], num_nodes=6)


class TestConnectedComponents:
    def test_single_component(self):
        labels = connected_components(cycle_graph(8))
        assert np.all(labels == 0)

    def test_islands(self):
        labels = connected_components(_two_islands())
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]
        assert labels[5] not in (labels[0], labels[3])

    def test_sizes(self):
        sizes = component_sizes(connected_components(_two_islands()))
        assert sorted(sizes.tolist()) == [1, 2, 3]

    def test_matches_networkx(self, small_unweighted_graph):
        import networkx as nx

        labels = connected_components(small_unweighted_graph)
        nx_graph = small_unweighted_graph.to_networkx().to_undirected()
        nx_comps = list(nx.connected_components(nx_graph))
        assert int(labels.max()) + 1 == len(nx_comps)
        for comp in nx_comps:
            ids = {int(labels[v]) for v in comp}
            assert len(ids) == 1


class TestInducedSubgraph:
    def test_extraction_preserves_edges(self):
        sub, kept = induced_subgraph(_two_islands(), [0, 1, 2])
        assert kept.tolist() == [0, 1, 2]
        assert sub.num_edge_entries == 6  # the triangle

    def test_cross_edges_dropped(self):
        sub, kept = induced_subgraph(_two_islands(), [0, 1, 3])
        assert sub.has_edge(0, 1)
        assert sub.degree(2) == 0  # node 3 lost its only neighbour

    def test_weights_and_types_carried(self, academic):
        graph, __ = academic
        nodes = np.arange(graph.num_nodes // 2)
        sub, kept = induced_subgraph(graph, nodes)
        assert sub.node_types is not None
        assert np.array_equal(sub.node_types, graph.node_types[kept])
        assert sub.edge_types is not None

    def test_the_type_universe_is_the_parent_graphs(self, academic):
        """Counted from the parent graph, not from the types the subgraph
        happens to keep: a type-conditioned model sees the same universe."""
        graph, __ = academic
        kept_types = np.flatnonzero(graph.node_types == 0)
        sub, kept = induced_subgraph(graph, kept_types)
        assert int(sub.node_types.max()) + 1 < graph.num_node_types
        assert (sub.num_node_types, sub.num_edge_types) == (
            graph.num_node_types, graph.num_edge_types,
        )
        assert np.array_equal(kept, kept_types)

    def test_keeps_exactly_the_edges_inside_the_set(self, academic):
        graph, __ = academic
        nodes = np.random.default_rng(5).choice(graph.num_nodes, graph.num_nodes // 3, replace=False)
        sub, kept = induced_subgraph(graph, nodes)
        src, dst, weights = graph.edge_list()
        inside = np.isin(src, nodes) & np.isin(dst, nodes)
        sub_src, sub_dst, sub_weights = sub.edge_list()
        assert np.array_equal(kept[sub_src], src[inside])
        assert np.array_equal(kept[sub_dst], dst[inside])
        assert np.array_equal(sub_weights, weights[inside])
        assert np.array_equal(sub.edge_types, graph.edge_types[inside])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            induced_subgraph(_two_islands(), [99])
        with pytest.raises(GraphError):
            induced_subgraph(_two_islands(), [])


class TestLargestComponent:
    def test_picks_triangle(self):
        sub, kept = largest_component(_two_islands())
        assert kept.tolist() == [0, 1, 2]
        assert sub.num_nodes == 3

    def test_connected_graph_unchanged(self):
        g = barbell_graph(6, 2)
        sub, kept = largest_component(g)
        assert sub.num_nodes == g.num_nodes
        assert np.array_equal(sub.targets, g.targets)

    def test_walkable_after_extraction(self):
        from repro.walks.vectorized import VectorizedWalkEngine

        sub, __ = largest_component(_two_islands())
        corpus = VectorizedWalkEngine(sub, "deepwalk", seed=0).generate(1, 5)
        assert corpus.lengths.min() == 5  # no dead ends in the triangle


class TestRemapLabels:
    def test_single_label_remap(self):
        labels = NodeLabels([0, 2, 3], [1, 0, 1])
        remapped = remap_labels(labels, np.array([0, 1, 2]))
        assert remapped.node_ids.tolist() == [0, 2]
        assert remapped.class_ids().tolist() == [1, 0]

    def test_multilabel_remap(self):
        y = np.array([[1, 0], [0, 1], [1, 1]], dtype=bool)
        labels = NodeLabels([0, 3, 4], y)
        remapped = remap_labels(labels, np.array([3, 4]))
        assert remapped.node_ids.tolist() == [0, 1]
        assert remapped.indicator_matrix().tolist() == [[False, True], [True, True]]

    def test_no_overlap_rejected(self):
        labels = NodeLabels([9], [0])
        with pytest.raises(GraphError):
            remap_labels(labels, np.array([0, 1]))


@settings(max_examples=25, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=25,
    )
)
def test_property_components_partition_nodes(edges):
    src = np.array([e[0] for e in edges])
    dst = np.array([e[1] for e in edges])
    g = from_edge_arrays(src, dst, num_nodes=10, duplicate_policy="first")
    labels = connected_components(g)
    # every node labelled; endpoints of every edge share a component
    assert np.all(labels >= 0)
    assert component_sizes(labels).sum() == 10
    for s, d in edges:
        assert labels[s] == labels[d]
