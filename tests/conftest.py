"""Shared fixtures: small deterministic graphs used across the suite,
and the Hypothesis profiles.

Tier-1 is a function of the source: the ``tier1`` profile, loaded here
by default, derives every property's examples from the test itself
(``derandomize``) and keeps no example database, so a red run
reproduces from the commit alone and a green one cannot be turned red
by a ``.hypothesis/`` directory left by an earlier run. The search for
new counterexamples is the ``randomised`` profile's job (CI leg
``property-search``): ``--hypothesis-profile randomised
--hypothesis-seed N``, the seed printed so a failure can be replayed;
what it finds is pinned as an ``@example`` on the property.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.graph import generators
from repro.graph.builder import from_edge_arrays
from repro.graph.hetero import academic_graph, assign_random_types

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("randomised", derandomize=False, database=None, print_blob=True)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_weighted_graph():
    """5-node weighted graph: a K5 (all ten pairs) with unequal weights.

    From node 0 after any predecessor, a candidate is the predecessor
    itself (node2vec's 1/p class) or adjacent to it (the 1 class): every
    pair is an edge, so no candidate is two hops from a predecessor and
    the 1/q class never occurs on this graph.
    """
    src = np.array([0, 0, 0, 0, 1, 2, 3, 1, 3, 3])
    dst = np.array([1, 2, 3, 4, 2, 4, 1, 4, 2, 4])
    w = np.array([1.0, 2.0, 0.5, 3.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0])
    return from_edge_arrays(src, dst, w, num_nodes=5, duplicate_policy="first")


@pytest.fixture
def small_power_law_graph():
    return generators.chung_lu_power_law(300, 8.0, seed=42, weight_mode="uniform")


@pytest.fixture
def small_unweighted_graph():
    return generators.chung_lu_power_law(200, 6.0, seed=7)


@pytest.fixture
def typed_graph():
    """Random-typed homogeneous graph (the paper's Section V-D device)."""
    base = generators.chung_lu_power_law(200, 8.0, seed=3)
    return assign_random_types(base, num_types=3, seed=3)


@pytest.fixture
def academic():
    """Small author/paper/venue network plus author-area labels."""
    return academic_graph(num_authors=120, num_papers=200, num_venues=8, seed=5)


@pytest.fixture
def barbell():
    return generators.barbell_graph(10, 3)


@pytest.fixture(scope="module", params=("numpy", "cnative"))
def kernel_backend(request):
    """Each walk-kernel backend in turn; ``cnative`` skips on a host with
    no C compiler, where NumPy is the only backend. Module-scoped so that
    Hypothesis properties can take it."""
    from repro.walks.kernels import available_backends

    if not available_backends().get(request.param, False):
        pytest.skip(f"kernel backend {request.param!r} is not available here")
    return request.param


@pytest.fixture
def force_wave_threads(monkeypatch):
    """``force_wave_threads(count)`` makes every compiled M-H wave of the
    test run on ``count`` threads (``None``: the kernel's own choice) and
    returns the list that collects how many each wave used. Nothing
    outside the tests passes a count: a stepper cannot."""
    from repro.walks.kernels.cnative_backend import CNativeKernels

    original = CNativeKernels.mh_wave

    def force(count):
        used = []

        def mh_wave(self, *args):
            result = original(self, *args, threads=count)
            used.append(result[-1])
            return result

        monkeypatch.setattr(CNativeKernels, "mh_wave", mh_wave)
        return used

    return force
