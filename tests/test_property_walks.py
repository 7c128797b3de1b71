"""Property-based tests on walk/sampler invariants (hypothesis).

The sampler properties run on the registered steppers, the code that
walks, on both kernel backends: ``stepper.step`` advances one lane per
walker state and returns each lane's edge offset.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import from_edge_arrays
from repro.sampling.base import NO_EDGE
from repro.walks.vectorized import VectorizedWalkEngine


def _graph_from_edges(edges, n):
    src = np.array([e[0] for e in edges])
    dst = np.array([e[1] for e in edges])
    return from_edge_arrays(src, dst, num_nodes=n, duplicate_policy="first")


def _second_order_lanes(g):
    """One lane per node with an out-edge, arrived from its first
    neighbour: ``(prev, prev_off, cur)``."""
    cur = np.flatnonzero(g.degrees() > 0).astype(np.int64)
    prev = g.targets[g.offsets[cur]].astype(np.int64)
    return prev, g.edge_index_batch(prev, cur), cur


edges_strategy = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1]),
    min_size=3,
    max_size=25,
)


@settings(max_examples=30, deadline=None)
@given(edges=edges_strategy, seed=st.integers(0, 500))
def test_property_mh_samples_stay_in_row(kernel_backend, edges, seed):
    """Every M-H sample must be an out-edge of the walker's current node."""
    g = _graph_from_edges(edges, 8)
    eng = VectorizedWalkEngine(
        g, "node2vec", sampler="mh", initializer="random", backend=kernel_backend,
        p=0.5, q=2.0, seed=seed,
    )
    prev, prev_off, cur = _second_order_lanes(g)
    lo, hi = g.offsets[cur], g.offsets[cur + 1]
    for __ in range(5):
        off = eng.stepper.step(prev, prev_off, cur, 1, eng.rng)
        live = off != NO_EDGE
        assert np.all((lo[live] <= off[live]) & (off[live] < hi[live]))


@settings(max_examples=25, deadline=None)
@given(edges=edges_strategy, seed=st.integers(0, 500))
def test_property_walks_are_paths(edges, seed):
    """Every consecutive pair of a generated walk must be an edge."""
    g = _graph_from_edges(edges, 8)
    eng = VectorizedWalkEngine(g, "deepwalk", sampler="mh", seed=seed)
    corpus = eng.generate(num_walks=1, walk_length=6)
    for walk in corpus.iter_walks():
        for a, b in zip(walk[:-1], walk[1:]):
            assert g.has_edge(int(a), int(b))


@settings(max_examples=25, deadline=None)
@given(
    edges=edges_strategy,
    seed=st.integers(0, 500),
    p=st.floats(0.1, 10.0),
    q=st.floats(0.1, 10.0),
)
def test_property_direct_sampler_support(kernel_backend, edges, seed, p, q):
    """Direct samples land only on positive-dynamic-weight edges."""
    g = _graph_from_edges(edges, 8)
    eng = VectorizedWalkEngine(
        g, "node2vec", sampler="direct", backend=kernel_backend, p=p, q=q, seed=seed
    )
    prev, prev_off, cur = _second_order_lanes(g)
    off = eng.stepper.step(prev, prev_off, cur, 1, eng.rng)
    live = off != NO_EDGE
    weights = eng.model.batch_dynamic_weight(
        prev[live], prev_off[live], cur[live], 1, off[live]
    )
    assert np.all(weights > 0)


@settings(max_examples=20, deadline=None)
@given(edges=edges_strategy, seed=st.integers(0, 200), length=st.integers(1, 8))
def test_property_corpus_shape_invariants(edges, seed, length):
    """Corpus lengths are within [1, walk_length]; padding only after end."""
    g = _graph_from_edges(edges, 8)
    eng = VectorizedWalkEngine(g, "deepwalk", sampler="direct", seed=seed)
    corpus = eng.generate(num_walks=1, walk_length=length)
    assert corpus.lengths.min() >= 1
    assert corpus.lengths.max() <= length
    for i, walk_len in enumerate(corpus.lengths):
        row = corpus.walks[i]
        assert np.all(row[:walk_len] >= 0)
        assert np.all(row[walk_len:] == -1)


@settings(max_examples=20, deadline=None)
@given(
    weights=st.lists(st.floats(0.01, 100.0), min_size=2, max_size=20),
    seed=st.integers(0, 300),
)
def test_property_mh_chain_matches_exact_law_on_star(kernel_backend, weights, seed):
    """On a star row, long-run M-H frequencies approximate the exact law.

    100 copies of the star carry 100 independent chains at the hub; 40
    calls of ``stepper.step`` give 4,000 draws.
    """
    n, copies, rounds = len(weights), 100, 40
    hubs = np.arange(copies, dtype=np.int64) * (n + 1)
    src = np.repeat(hubs, n)
    dst = (hubs[:, None] + np.arange(1, n + 1)).ravel()
    g = from_edge_arrays(src, dst, np.tile(weights, copies), num_nodes=copies * (n + 1),
                         duplicate_policy="first")
    eng = VectorizedWalkEngine(
        g, "deepwalk", sampler="mh", initializer="high-weight", backend=kernel_backend, seed=seed
    )
    none = np.full(copies, -1, dtype=np.int64)
    counts = np.zeros(n)
    for __ in range(rounds):
        off = eng.stepper.step(none, none, hubs, 1, eng.rng)
        counts += np.bincount(off - g.offsets[hubs], minlength=n)
    expected = np.array(weights) / np.sum(weights)
    # loose bound: dependent samples, small run
    assert 0.5 * np.abs(counts / counts.sum() - expected).sum() < 0.25
