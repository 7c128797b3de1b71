"""Tests for the five random-walk models and the unified abstraction.

A model is its ``batch_dynamic_weight``; ``TestTableI`` pins each
model's weights on one hand-built gadget to the literal values of the
paper's Table I formulas, through the NumPy rule and, where the model
has a compiled kind, through the C kernel's.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.graph.builder import from_edge_arrays
from repro.walks.kernels import KernelState, available_backends, resolve_backend
from repro.walks.models import MODELS, make_model
from repro.walks.state import NO_PREVIOUS


@pytest.fixture
def gadget():
    """The walker has come 0 -> 1. From node 1, candidate 0 is the
    return (node2vec's 1/p class), 2 is adjacent to 0 (the 1 class), and
    3 and 4 are two hops from 0 (the 1/q class). Node types 0, 2, 0, 1, 1
    put two of node 1's neighbours in each of types 0 and 1; edge types
    0, 1, 0, 1 on the edges to 0, 2, 3, 4, and 0 on the edge taken."""
    src, dst = [0, 1, 1, 0, 1], [1, 2, 3, 2, 4]
    weights, edge_types = [2.0, 3.0, 4.0, 1.0, 5.0], [0, 1, 0, 1, 1]
    return from_edge_arrays(
        src, dst, weights, num_nodes=5, edge_types=edge_types,
        node_types=np.array([0, 2, 0, 1, 1], dtype=np.int16),
    )


def gadget_weights(model, prev=0, step=1, backend=None):
    """Weights of node 1's four edges in the state ``(prev -> 1, step)``."""
    g = model.graph
    offs = np.arange(*g.edge_range(1))
    assert g.targets[offs].tolist() == [0, 2, 3, 4]
    prev_off = g.edge_index(prev, 1) if prev != NO_PREVIOUS else NO_PREVIOUS
    lanes = [np.full(offs.size, v) for v in (prev, prev_off, 1)]
    if backend is None:
        return model.batch_dynamic_weight(*lanes, step, offs)
    ks = KernelState.for_graph(g, model)
    return resolve_backend(backend).dyn_weights(ks, lanes[0], offs, None)


needs_cnative = pytest.mark.skipif(
    not available_backends().get("cnative", False), reason="no C compiler"
)


class TestTableI:
    """w' per model from the gadget state 0 -> 1: literal Table I values."""

    def test_deepwalk_is_the_static_weight(self, gadget):
        model = make_model("deepwalk", gadget)
        for prev in (0, NO_PREVIOUS):
            assert gadget_weights(model, prev).tolist() == [2.0, 3.0, 4.0, 5.0]

    def test_node2vec_alpha_classes(self, gadget):
        # alpha = 1/p = 2, 1, 1/q = 1/4, 1/4; alpha = 1 before the first step
        model = make_model("node2vec", gadget, p=0.5, q=4.0)
        assert gadget_weights(model).tolist() == [4.0, 3.0, 1.0, 1.25]
        assert gadget_weights(model, NO_PREVIOUS, step=0).tolist() == [2.0, 3.0, 4.0, 5.0]

    @needs_cnative
    @pytest.mark.parametrize(
        "name, params, kind",
        [("deepwalk", {}, "static"), ("node2vec", {"p": 0.5, "q": 4.0}, "node2vec")],
        ids=("deepwalk", "node2vec"),
    )
    def test_the_compiled_kinds_agree(self, gadget, name, params, kind):
        model = make_model(name, gadget, **params)
        assert model.kernel_spec()["kind"] == kind
        for prev in (0, 2, 3, NO_PREVIOUS):
            step = 0 if prev == NO_PREVIOUS else 1
            np.testing.assert_array_equal(
                gadget_weights(model, prev, step, backend="cnative"),
                gadget_weights(model, prev, step),
            )

    def test_edge2vec_scales_alpha_by_the_type_transition(self, gadget):
        # the edge taken has type 0: M[0, 0] = 0.5 for types 0, M[0, 1] = 2 for types 1
        matrix = np.array([[0.5, 2.0], [1.0, 1.0]])
        model = make_model("edge2vec", gadget, p=0.5, q=4.0, transition_matrix=matrix)
        assert gadget_weights(model).tolist() == [2.0, 6.0, 0.5, 2.5]
        assert gadget_weights(model, NO_PREVIOUS, step=0).tolist() == [2.0, 3.0, 4.0, 5.0]

    def test_fairwalk_divides_by_the_group_size(self, gadget):
        # node2vec's weights over |K_type| = 2 for both types at node 1
        model = make_model("fairwalk", gadget, p=0.5, q=4.0)
        assert gadget_weights(model).tolist() == [2.0, 1.5, 0.5, 0.625]
        assert gadget_weights(model, NO_PREVIOUS, step=0).tolist() == [1.0, 1.5, 2.0, 2.5]

    def test_metapath2vec_keeps_the_wanted_type_only(self, gadget):
        # the path 2-0-1-2 wants types 0, 1, 2 at steps 0, 1, 2
        model = make_model("metapath2vec", gadget, metapath=[2, 0, 1, 2])
        want = {0: [2.0, 3.0, 0.0, 0.0], 1: [0.0, 0.0, 4.0, 5.0], 2: [0.0] * 4}
        for step, row in want.items():
            assert gadget_weights(model, NO_PREVIOUS, step).tolist() == row
            assert gadget_weights(model, NO_PREVIOUS, step + 3).tolist() == row


class TestRegistry:
    def test_all_five_models_present(self):
        assert set(MODELS) == {"deepwalk", "node2vec", "metapath2vec", "edge2vec", "fairwalk"}

    def test_make_model_by_name(self, small_unweighted_graph):
        model = make_model("deepwalk", small_unweighted_graph)
        assert model.name == "deepwalk"

    def test_make_model_passthrough(self, small_unweighted_graph):
        model = make_model("deepwalk", small_unweighted_graph)
        assert make_model(model, small_unweighted_graph) is model

    def test_unknown_model(self, small_unweighted_graph):
        with pytest.raises(ModelError):
            make_model("gnn", small_unweighted_graph)

    def test_heterogeneous_models_need_types(self, small_unweighted_graph):
        for name in ("metapath2vec", "fairwalk"):
            with pytest.raises(ModelError):
                make_model(name, small_unweighted_graph)

    def test_edge2vec_needs_edge_types(self, typed_graph):
        # typed_graph has node+edge types, so this works
        make_model("edge2vec", typed_graph)
        # but a graph with node types only does not
        bare = typed_graph.with_node_types(typed_graph.node_types, None)
        with pytest.raises(ModelError):
            make_model("edge2vec", bare)


@pytest.mark.parametrize("name", ("node2vec", "edge2vec", "fairwalk"))
@pytest.mark.parametrize("param", ("p", "q"))
@pytest.mark.parametrize("value", (float("nan"), float("inf"), 0.0, -1.0))
def test_second_order_bias_must_be_finite_and_positive(typed_graph, name, param, value):
    """A NaN ``p`` passes a ``p <= 0`` test and walks to full length; the
    one shared check refuses it with the other non-finite and
    non-positive values."""
    with pytest.raises(ModelError, match=rf"{name} {param} must be a finite real in \(0, inf\)"):
        make_model(name, typed_graph, **{param: value})


class TestDeepWalk:
    def test_dynamic_equals_static(self, tiny_weighted_graph):
        model = make_model("deepwalk", tiny_weighted_graph)
        row = model.dynamic_weights_row(0)
        assert np.allclose(row, tiny_weighted_graph.neighbor_weights(0))

    def test_state_space_is_nodes(self, tiny_weighted_graph):
        model = make_model("deepwalk", tiny_weighted_graph)
        assert model.state_space_size(tiny_weighted_graph) == 5
        cur = np.array([3, 0])
        assert model.batch_state_index(np.array([7, -1]), cur, 1).tolist() == [3, 0]

    def test_is_static_flag(self, tiny_weighted_graph):
        assert make_model("deepwalk", tiny_weighted_graph).is_static
        assert not make_model("node2vec", tiny_weighted_graph).is_static


class TestNode2Vec:
    def test_first_step_uses_static(self, tiny_weighted_graph):
        g = tiny_weighted_graph
        model = make_model("node2vec", g, p=0.1, q=10.0)
        row = model.dynamic_weights_row(0)
        assert np.allclose(row, g.neighbor_weights(0))

    def test_state_space_is_edges(self, tiny_weighted_graph):
        model = make_model("node2vec", tiny_weighted_graph)
        assert model.state_space_size(tiny_weighted_graph) == tiny_weighted_graph.num_edge_entries

    def test_state_index_is_the_taken_edge(self, tiny_weighted_graph):
        model = make_model("node2vec", tiny_weighted_graph)
        prev_off = np.array([4, 0, 9])
        assert model.batch_state_index(prev_off, np.array([1, 2, 3]), 1).tolist() == [4, 0, 9]

    def test_invalid_params(self, tiny_weighted_graph):
        with pytest.raises(ModelError):
            make_model("node2vec", tiny_weighted_graph, p=0.0)
        with pytest.raises(ModelError):
            make_model("node2vec", tiny_weighted_graph, q=-1.0)

    def test_alpha_bound(self, tiny_weighted_graph):
        model = make_model("node2vec", tiny_weighted_graph, p=0.25, q=4.0)
        assert model.alpha_bound(tiny_weighted_graph) == 4.0

    def test_folds_the_return_edge_only_when_profitable(self, gadget):
        """1/p above the bulk bound max(1, 1/q) makes the return edge the
        one outlier; its excess over the bulk is w * (1/p - bulk)."""
        prev, cur = np.array([0, NO_PREVIOUS]), np.array([1, 1])
        folding = make_model("node2vec", gadget, p=0.1, q=1.0)
        assert folding.supports_folding and folding.bulk_bound == 1.0
        rev, excess = folding.batch_outlier_excess(prev, cur)
        assert rev.tolist() == [gadget.edge_index(1, 0), -1]
        assert excess.tolist() == [pytest.approx(2.0 * 9.0), 0.0]
        no_fold = make_model("node2vec", gadget, p=2.0, q=1.0)
        assert not no_fold.supports_folding
        assert no_fold.batch_outlier_excess(prev, cur)[1].tolist() == [0.0, 0.0]


class TestMetaPath2Vec:
    def test_target_type_cycles(self, academic):
        graph, __ = academic
        model = make_model("metapath2vec", graph, metapath="APVPA")
        expected = [1, 2, 1, 0, 1, 2, 1, 0]  # P V P A repeating
        assert [model.target_type(s) for s in range(8)] == expected

    def test_non_cyclic_rejected(self, academic):
        graph, __ = academic
        with pytest.raises(ModelError):
            make_model("metapath2vec", graph, metapath="AP")

    def test_type_out_of_range_rejected(self, academic):
        graph, __ = academic
        with pytest.raises(ModelError):
            make_model("metapath2vec", graph, metapath=[0, 7, 0])

    def test_valid_start_nodes(self, academic):
        graph, __ = academic
        model = make_model("metapath2vec", graph, metapath="APA")
        starts = model.valid_start_nodes()
        assert np.all(graph.node_types[starts] == 0)

    def test_weights_zero_off_path(self, academic):
        graph, __ = academic
        model = make_model("metapath2vec", graph, metapath="APA")
        author = int(np.flatnonzero(graph.node_types == 0)[0])
        row = model.dynamic_weights_row(author, step=0)
        nbr_types = graph.node_types[graph.neighbors(author)]
        assert np.all((row > 0) == (nbr_types == 1))

    def test_state_space_size(self, academic):
        graph, __ = academic
        model = make_model("metapath2vec", graph, metapath="APA")
        assert model.state_space_size(graph) == graph.num_nodes * graph.num_node_types

    def test_batch_state_index_layout(self, academic):
        """idx = current * |types| + the type the step wants (P=1, then A=0)."""
        graph, __ = academic
        model = make_model("metapath2vec", graph, metapath="APA")
        num_types = graph.num_node_types
        none = np.full(2, NO_PREVIOUS)
        idx = model.batch_state_index(none, np.array([5, 5]), np.array([0, 1]))
        assert idx.tolist() == [5 * num_types + 1, 5 * num_types + 0]


class TestEdge2Vec:
    def test_matrix_modulates_weight(self, academic):
        graph, __ = academic
        t = graph.num_edge_types
        matrix = np.ones((t, t))
        # author-paper edges have the symmetric pair id of types (0, 1)
        ap = 1
        matrix[ap, ap] = 0.0
        model = make_model("edge2vec", graph, p=1.0, q=1.0, transition_matrix=matrix)
        author = int(np.flatnonzero(graph.node_types == 0)[0])
        paper = int(graph.neighbors(author)[0])
        off_in = graph.edge_index(author, paper)
        row = model.dynamic_weights_row(paper, author, off_in, 1)
        nbr_types = graph.node_types[graph.neighbors(paper)]
        # transitions AP -> PA are zeroed; AP -> PV keep weight
        assert np.all(row[nbr_types == 0] == 0)
        assert np.all(row[nbr_types == 2] > 0)

    def test_bad_matrix_shape(self, academic):
        graph, __ = academic
        with pytest.raises(ModelError):
            make_model("edge2vec", graph, transition_matrix=np.ones((2, 2)))

    def test_negative_matrix_rejected(self, academic):
        graph, __ = academic
        t = graph.num_edge_types
        with pytest.raises(ModelError):
            make_model("edge2vec", graph, transition_matrix=-np.ones((t, t)))

    def test_alpha_bound_includes_matrix(self, academic):
        graph, __ = academic
        t = graph.num_edge_types
        matrix = np.full((t, t), 0.5)
        model = make_model("edge2vec", graph, p=0.25, q=1.0, transition_matrix=matrix)
        assert model.alpha_bound(graph) == pytest.approx(2.0)

    def test_default_matrix_reduces_to_node2vec(self, academic):
        graph, __ = academic
        e2v = make_model("edge2vec", graph, p=0.5, q=2.0)
        n2v = make_model("node2vec", graph, p=0.5, q=2.0)
        author = int(np.flatnonzero(graph.node_types == 0)[0])
        paper = int(graph.neighbors(author)[0])
        state = (paper, author, graph.edge_index(author, paper), 1)
        assert np.allclose(e2v.dynamic_weights_row(*state), n2v.dynamic_weights_row(*state))


class TestFairWalk:
    def test_group_mass_equalised(self):
        """Eq. 5: each neighbour *type* gets equal total unnormalised mass."""
        # node 0 has 3 neighbours of type 1 and 1 neighbour of type 2
        g = from_edge_arrays([0, 0, 0, 0], [1, 2, 3, 4], num_nodes=5)
        typed = g.with_node_types(np.array([0, 1, 1, 1, 2], dtype=np.int16))
        model = make_model("fairwalk", typed, p=1.0, q=1.0)
        row = model.dynamic_weights_row(0)
        nbr_types = typed.node_types[typed.neighbors(0)]
        mass_t1 = row[nbr_types == 1].sum()
        mass_t2 = row[nbr_types == 2].sum()
        assert mass_t1 == pytest.approx(mass_t2)

    def test_type_counts_precomputed(self, academic):
        graph, __ = academic
        model = make_model("fairwalk", graph)
        paper = int(np.flatnonzero(graph.node_types == 1)[0])
        nbr_types = graph.node_types[graph.neighbors(paper)]
        for t in range(graph.num_node_types):
            assert model.type_counts[paper, t] == (nbr_types == t).sum()

    def test_alpha_bound(self, academic):
        graph, __ = academic
        model = make_model("fairwalk", graph, p=0.2, q=2.0)
        assert model.alpha_bound(graph) == pytest.approx(5.0)


class TestStateContexts:
    @pytest.mark.parametrize("name", ["deepwalk", "node2vec"])
    def test_context_shapes(self, small_unweighted_graph, name):
        g = small_unweighted_graph
        model = make_model(name, g)
        ctx = model.enumerate_state_contexts(g)
        size = model.state_space_size(g)
        for key in ("prev", "prev_off", "cur", "step", "valid"):
            assert ctx[key].shape == (size,)

    def test_second_order_contexts_consistent(self, small_unweighted_graph):
        g = small_unweighted_graph
        model = make_model("node2vec", g)
        ctx = model.enumerate_state_contexts(g)
        # state e = directed edge (prev -> cur)
        assert np.array_equal(ctx["cur"], g.targets)
        assert np.array_equal(ctx["prev"], g.edge_sources())

    def test_metapath_contexts_mark_offpath_invalid(self, academic):
        graph, __ = academic
        model = make_model("metapath2vec", graph, metapath="APA")
        ctx = model.enumerate_state_contexts(graph)
        # type V(=2) never appears as a target of "APA"
        idx_type = np.tile(np.arange(graph.num_node_types), graph.num_nodes)
        assert not ctx["valid"][idx_type == 2].any()

    def test_state_table_degrees(self, small_unweighted_graph):
        g = small_unweighted_graph
        model = make_model("node2vec", g)
        table_deg = model.state_table_degrees(g)
        assert np.array_equal(table_deg, g.degrees()[g.targets])
        assert model.alias_entries(g) == int(table_deg.sum())
