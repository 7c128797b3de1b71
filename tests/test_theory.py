"""Tests for the theory toolkit: Theorems 1-3 and the Fig. 1 machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.theory import (
    empirical_distribution,
    fig1_simulation,
    high_weight_preferred,
    kappa_high_weight,
    kappa_random,
    kl_divergence,
    make_target_distribution,
    mh_chain_sample,
    profile_model_states,
    theorem1_bound,
    theorem3_condition,
)
from repro.theory.convergence import mh_chain_batch
from repro.walks.models import make_model


class TestTargetDistributions:
    def test_parameters_respected(self):
        pi = make_target_distribution(100, 5, 50.0, rng=0)
        assert pi.size == 100
        assert pi.sum() == pytest.approx(1.0)
        assert (pi == pi.max()).sum() == 5
        assert pi.max() / pi.min() == pytest.approx(50.0)

    def test_uniform_when_ratio_one(self):
        pi = make_target_distribution(10, 3, 1.0, rng=1)
        assert np.allclose(pi, 0.1)

    @pytest.mark.parametrize("bad", [(1, 1, 2.0), (10, 0, 2.0), (10, 10, 2.0), (10, 2, 0.5)])
    def test_invalid_parameters(self, bad):
        n, t, ratio = bad
        with pytest.raises(ValueError):
            make_target_distribution(n, t, ratio)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 200),
        t_frac=st.floats(0.01, 0.9),
        ratio=st.floats(1.0, 1e5),
        seed=st.integers(0, 1000),
    )
    def test_property_valid_distribution(self, n, t_frac, ratio, seed):
        t = max(int(t_frac * n), 1)
        if t >= n:
            t = n - 1
        pi = make_target_distribution(n, t, ratio, rng=seed)
        assert pi.min() > 0
        assert pi.sum() == pytest.approx(1.0)
        # Lemma 1: the max of any n-point distribution is >= 1/n
        assert pi.max() >= 1.0 / n - 1e-12


class TestKL:
    def test_zero_for_identical(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == pytest.approx(0.0)

    def test_positive_for_different(self):
        assert kl_divergence(np.array([0.9, 0.1]), np.array([0.5, 0.5])) > 0

    def test_zero_p_entries_ignored(self):
        p = np.array([0.0, 1.0])
        q = np.array([0.5, 0.5])
        assert kl_divergence(p, q) == pytest.approx(np.log(2.0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(np.array([1.0]), np.array([0.5, 0.5]))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 500), n=st.integers(2, 50))
    def test_property_nonnegative(self, seed, n):
        rng = np.random.default_rng(seed)
        p = rng.random(n) + 1e-3
        q = rng.random(n) + 1e-3
        p /= p.sum()
        q /= q.sum()
        assert kl_divergence(p, q) >= -1e-12


class TestChainSimulation:
    def test_chain_converges(self, rng):
        pi = make_target_distribution(20, 2, 10.0, rng=rng)
        samples = mh_chain_sample(pi, 60000, init="random", rng=rng)
        emp = empirical_distribution(samples, 20)
        assert 0.5 * np.abs(emp - pi).sum() < 0.03

    def test_high_weight_starts_at_max(self, rng):
        pi = make_target_distribution(50, 1, 100.0, rng=3)
        samples = mh_chain_sample(pi, 1, init="high-weight", rng=rng)
        assert pi[samples[0]] == pi.max() or True  # first emission may move
        # starting state check via batch internals: draw zero-step init
        from repro.theory.convergence import _chain_starts

        starts = _chain_starts(pi[None, :], "high-weight", rng, 0)
        assert pi[starts[0]] == pi.max()

    def test_burn_in_init_runs(self, rng):
        pi = make_target_distribution(20, 2, 5.0, rng=4)
        samples = mh_chain_sample(pi, 100, init="burn-in", burn_in_iterations=50, rng=rng)
        assert samples.size == 100

    def test_batch_counts_shape(self, rng):
        targets = np.stack([make_target_distribution(10, 1, 5.0, rng=i) for i in range(4)])
        counts = mh_chain_batch(targets, 200, rng=rng)
        assert counts.shape == (4, 10)
        assert np.all(counts.sum(axis=1) == 200)

    def test_invalid_init(self, rng):
        with pytest.raises(ValueError):
            mh_chain_batch(np.ones((1, 4)) / 4, 10, init="bogus", rng=rng)

    def test_empirical_distribution_empty(self):
        assert np.allclose(empirical_distribution(np.array([], dtype=int), 4), 0.25)


class TestTheorems:
    def test_theorem1_bound_decreasing(self):
        values = [theorem1_bound(5.0, 0.8, i) for i in range(10)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_kappa_formulas_match_definition(self):
        """κ = ||π0/π − 1||∞ computed directly vs the closed forms."""
        rng = np.random.default_rng(0)
        for __ in range(50):
            n = int(rng.integers(3, 40))
            t = int(rng.integers(1, n - 1))
            ratio = float(rng.uniform(1.1, 1e4))
            pi = make_target_distribution(n, t, ratio, rng=rng)
            p_max = pi.max()
            # direct computation of the sup norms
            pi0_random = np.full(n, 1.0 / n)
            kappa_r_direct = np.abs(pi0_random / pi - 1.0).max()
            pi0_high = np.where(pi == p_max, 1.0 / t, 0.0)
            kappa_h_direct = np.abs(pi0_high / pi - 1.0).max()
            assert kappa_random(pi) == pytest.approx(kappa_r_direct, rel=1e-9)
            assert kappa_high_weight(pi) == pytest.approx(kappa_h_direct, rel=1e-9)

    def test_theorem3_matches_kappa_comparison(self):
        """Eq. 12 must agree with the exact κ_h < κ_r comparison."""
        rng = np.random.default_rng(1)
        agreements = 0
        total = 0
        for __ in range(200):
            n = int(rng.integers(4, 60))
            t = int(rng.integers(1, max(n // 2, 2)))
            ratio = float(rng.uniform(1.05, 1e5))
            pi = make_target_distribution(n, t, ratio, rng=rng)
            predicted = theorem3_condition(float(pi.max()), float(pi.min()), n, t)
            actual = high_weight_preferred(pi)
            total += 1
            agreements += predicted == actual
        assert agreements / total > 0.95

    def test_skewed_distribution_prefers_high_weight(self):
        pi = make_target_distribution(100, 1, 1e4, rng=2)
        assert theorem3_condition(float(pi.max()), float(pi.min()), 100, 1)
        assert high_weight_preferred(pi)

    def test_flat_distribution_prefers_random(self):
        pi = make_target_distribution(100, 30, 1.5, rng=3)
        assert not theorem3_condition(float(pi.max()), float(pi.min()), 100, 30)


class TestFig1Simulation:
    def test_output_structure(self):
        results = fig1_simulation(
            20, [1, 4], [2.0, 100.0], num_distributions=5, repeats=2, seed=0
        )
        assert len(results) == 4
        for row in results:
            assert row["kl_random"] > 0
            assert row["kl_high_weight"] > 0
            assert row["kl_ratio"] > 0

    def test_high_skew_favours_high_weight(self):
        """The Fig. 1 signature: KL_r/KL_h grows with skew (t small)."""
        results = fig1_simulation(
            60, [1], [1.2, 5e3], num_distributions=60, repeats=6, seed=1
        )
        flat, skewed = results[0], results[1]
        assert skewed["kl_ratio"] > flat["kl_ratio"] - 0.01
        assert skewed["theorem3_predicts_high_weight"]


class TestProfileModelStates:
    def test_profile_outputs(self, small_power_law_graph):
        model = make_model("node2vec", small_power_law_graph, p=0.25, q=4.0)
        out = profile_model_states(small_power_law_graph, model, num_states=100, seed=0)
        assert 0.0 <= out["fraction_satisfied"] <= 1.0
        assert out["num_checked"] > 0

    def test_uniform_model_rarely_satisfies(self, small_unweighted_graph):
        """deepwalk on an unweighted graph has uniform targets: condition
        (12) needs skew, so almost no state should satisfy it."""
        model = make_model("deepwalk", small_unweighted_graph)
        out = profile_model_states(small_unweighted_graph, model, num_states=150, seed=1)
        assert out["fraction_satisfied"] < 0.2

    def test_skewed_node2vec_satisfies_more(self, small_unweighted_graph):
        flat = profile_model_states(
            small_unweighted_graph,
            make_model("node2vec", small_unweighted_graph, p=1.0, q=1.0),
            num_states=150,
            seed=2,
        )
        skewed = profile_model_states(
            small_unweighted_graph,
            make_model("node2vec", small_unweighted_graph, p=0.05, q=1.0),
            num_states=150,
            seed=2,
        )
        assert skewed["fraction_satisfied"] >= flat["fraction_satisfied"]
