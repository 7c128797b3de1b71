"""Compiled walk kernels: parity and fallback guarantees.

The contract under test is strict *bitwise* parity: every RNG draw stays
in the Python driver in a fixed order, so a compiled backend must emit
the identical corpus (and identical M-H chain state) as the NumPy
reference for every sampler, model and seed — the gate that lets the
engine swap hot loops without changing any published number.
"""

import numpy as np
import pytest

from repro.core.config import WalkConfig
from repro.core.pipeline import generate_walk_result
from repro.errors import ConfigError, WalkError
from repro.graph import generators
from repro.sampling.base import NO_EDGE
from repro.walks.kernels import (
    KERNEL_REGISTRY,
    available_backends,
    default_backend,
    resolve_backend,
)
from repro.walks.models import make_model
from repro.walks.models.node2vec import Node2Vec
from repro.walks.vectorized import VectorizedWalkEngine

AVAILABLE = available_backends()
COMPILED = sorted(name for name, ok in AVAILABLE.items() if ok and name != "numpy")

SAMPLERS = (
    "mh", "direct", "alias", "alias-first-order",
    "rejection", "knightking", "memory-aware",
)

needs_compiled = pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel backend available"
)


@pytest.fixture(scope="module")
def weighted_graph():
    return generators.chung_lu_power_law(150, 6.0, seed=11, weight_mode="uniform")


@pytest.fixture(scope="module")
def unweighted_graph():
    return generators.chung_lu_power_law(150, 6.0, seed=11)


def generate(graph, model, sampler, backend, seed, **model_params):
    if sampler == "memory-aware":
        # a partial budget so both the table path and the rejection
        # fallback rounds run inside one corpus
        model_params["table_budget_bytes"] = 20_000
    try:
        engine = VectorizedWalkEngine(
            graph, model, sampler=sampler, seed=seed, backend=backend,
            **model_params,
        )
    except WalkError as err:
        pytest.skip(f"{sampler} x {model}: {err}")
    corpus = engine.generate(num_walks=2, walk_length=12)
    return engine, corpus


# ---------------------------------------------------------------------------
# bitwise parity: compiled backends vs the NumPy reference
# ---------------------------------------------------------------------------

@needs_compiled
@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("seed", [0, 123])
@pytest.mark.parametrize("model", ["deepwalk", "node2vec"])
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_weighted_parity(weighted_graph, sampler, model, seed, backend):
    params = {"p": 0.25, "q": 4.0} if model == "node2vec" else {}
    __, ref = generate(weighted_graph, model, sampler, "numpy", seed, **params)
    __, got = generate(weighted_graph, model, sampler, backend, seed, **params)
    np.testing.assert_array_equal(ref.walks, got.walks)
    np.testing.assert_array_equal(ref.lengths, got.lengths)


@needs_compiled
@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("model", ["deepwalk", "node2vec"])
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_unweighted_parity(unweighted_graph, sampler, model, backend):
    params = {"p": 2.0, "q": 0.5} if model == "node2vec" else {}
    __, ref = generate(unweighted_graph, model, sampler, "numpy", 7, **params)
    __, got = generate(unweighted_graph, model, sampler, backend, 7, **params)
    np.testing.assert_array_equal(ref.walks, got.walks)
    np.testing.assert_array_equal(ref.lengths, got.lengths)


@needs_compiled
@pytest.mark.parametrize("backend", COMPILED)
def test_mh_chain_state_parity(weighted_graph, backend):
    """The persisted chains (LAST_x and the weight cache) match too."""
    ref_eng, __ = generate(weighted_graph, "node2vec", "mh", "numpy", 3,
                           p=0.5, q=2.0)
    got_eng, __ = generate(weighted_graph, "node2vec", "mh", backend, 3,
                           p=0.5, q=2.0)
    ref_c, got_c = ref_eng.stepper.chains, got_eng.stepper.chains
    np.testing.assert_array_equal(ref_c.last, got_c.last)
    np.testing.assert_array_equal(ref_c.last_w, got_c.last_w)


# ---------------------------------------------------------------------------
# backend selection, fallback and error surfaces
# ---------------------------------------------------------------------------

def test_registry_names_and_aliases():
    assert sorted(KERNEL_REGISTRY.names()) == ["cnative", "numpy"]
    assert KERNEL_REGISTRY.canonical("np") == "numpy"
    assert KERNEL_REGISTRY.canonical("c") == "cnative"
    assert default_backend().name == "numpy"
    assert AVAILABLE["numpy"] is True


def test_unknown_backend_is_a_walk_error(weighted_graph):
    with pytest.raises(WalkError):
        VectorizedWalkEngine(weighted_graph, "deepwalk", backend="fortran")
    with pytest.raises(WalkError):
        WalkConfig(backend="fortran")
    # an unregistered name fails with the registered ones in the message
    registered = r"registered: \['cnative', 'numpy'\]"
    with pytest.raises(WalkError, match=registered):
        WalkConfig(backend="numba")
    with pytest.raises(WalkError, match=registered):
        VectorizedWalkEngine(weighted_graph, "deepwalk", backend="jit")


def test_unavailable_backend_is_a_config_error(weighted_graph, monkeypatch):
    """A missing *dependency* is ConfigError (not ImportError), and only
    at engine-build time — authoring the config still works."""
    from repro.walks.kernels import backends, cnative_backend

    monkeypatch.setattr(cnative_backend, "find_compiler", lambda: None)
    monkeypatch.delitem(backends._INSTANCES, "cnative", raising=False)
    cfg = WalkConfig(backend="cnative")  # config-time: fine
    assert cfg.backend == "cnative"
    with pytest.raises(ConfigError):
        VectorizedWalkEngine(weighted_graph, "deepwalk", backend="cnative")
    with pytest.raises(ConfigError):
        resolve_backend("cnative")


@needs_compiled
def test_generic_model_falls_back_to_numpy(weighted_graph):
    """A model with no compiled weight rule silently demotes the engine
    to NumPy — and the corpus equals the plain compiled run, because the
    weights are the same function either way."""

    class OpaqueNode2Vec(Node2Vec):
        def kernel_spec(self):
            return {"kind": "generic"}

    backend = COMPILED[0]
    opaque = OpaqueNode2Vec(weighted_graph, p=0.25, q=4.0)
    eng = VectorizedWalkEngine(weighted_graph, opaque, sampler="rejection",
                               seed=9, backend=backend)
    assert eng.backend == "numpy"
    assert eng.config.backend == backend
    got = eng.generate(num_walks=2, walk_length=12)

    plain = make_model("node2vec", weighted_graph, p=0.25, q=4.0)
    ref = VectorizedWalkEngine(weighted_graph, plain, sampler="rejection",
                               seed=9, backend=backend).generate(
        num_walks=2, walk_length=12)
    np.testing.assert_array_equal(ref.walks, got.walks)


def test_stats_report_backend_and_compile_seconds(weighted_graph):
    eng, __ = generate(weighted_graph, "deepwalk", "mh", "numpy", 1)
    stats = eng.stats()
    assert stats["backend"] == "numpy"
    assert stats["requested_backend"] == "numpy"
    assert stats["compile_seconds"] == 0.0

    if COMPILED:
        eng2, __ = generate(weighted_graph, "deepwalk", "mh", COMPILED[0], 1)
        s2 = eng2.stats()
        assert s2["backend"] == COMPILED[0]
        assert s2["compile_seconds"] >= 0.0
        assert s2["compile_seconds"] <= eng2.setup_seconds


def test_walk_result_stats_carry_backend(weighted_graph):
    result = generate_walk_result(
        weighted_graph, make_model("deepwalk", weighted_graph),
        WalkConfig(num_walks=1, walk_length=8, sampler="alias"), seed=2,
    )
    assert result.stats["backend"] == "numpy"
    assert "compile_seconds" in result.stats


# ---------------------------------------------------------------------------
# M-H weight cache consistency
# ---------------------------------------------------------------------------

def test_mh_last_w_cache_matches_static_weights(weighted_graph):
    """Cached w'(LAST_x) entries are either the NaN sentinel or exactly
    the model's weight for the cached edge (static model: the edge
    weight itself)."""
    eng, __ = generate(weighted_graph, "deepwalk", "mh", "numpy", 4)
    chains = eng.stepper.chains
    live = chains.last != NO_EDGE
    cached = live & ~np.isnan(chains.last_w)
    assert cached.any()
    np.testing.assert_array_equal(
        chains.last_w[cached], weighted_graph.weights[chains.last[cached]]
    )
    # never a cached weight without a cached edge
    assert np.isnan(chains.last_w[~live]).all()
