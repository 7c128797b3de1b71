"""Tests for the memory-aware stepper and the simulated memory budget.

Budgets are charged by the walk engine's steppers
(``VectorizedWalkEngine(..., budget=)``); the memory-aware stepper's
per-state law, in both regimes, is fitted in ``tests/test_statistical.py``.
"""

import numpy as np
import pytest

from repro.errors import SimulatedOutOfMemoryError
from repro.graph.generators import chung_lu_power_law
from repro.sampling import MemoryBudget, sampler_memory_estimate
from repro.sampling.memory_aware import assign_states_greedily
from repro.sampling.memory_model import (
    ALIAS_ENTRY_BYTES,
    first_order_alias_bytes,
    mh_bytes,
    rejection_bytes,
    second_order_alias_bytes,
)
from repro.walks.models import make_model
from repro.walks.vectorized import VectorizedWalkEngine


class TestMemoryBudget:
    def test_charge_within_budget(self):
        budget = MemoryBudget(1000)
        budget.charge(600)
        assert budget.remaining_bytes == 400

    def test_charge_over_budget_raises(self):
        budget = MemoryBudget(1000)
        with pytest.raises(SimulatedOutOfMemoryError) as err:
            budget.charge(1500, "alias")
        assert err.value.required_bytes == 1500
        assert err.value.what == "alias"

    def test_cumulative_charges(self):
        budget = MemoryBudget(1000)
        budget.charge(600)
        with pytest.raises(SimulatedOutOfMemoryError):
            budget.charge(600)

    def test_release(self):
        budget = MemoryBudget(1000)
        budget.charge(800)
        budget.release(500)
        budget.charge(600)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            MemoryBudget(10).charge(-1)


class TestEstimates:
    def test_ordering_matches_paper(self, small_power_law_graph):
        """alias(2nd) >> rejection >= M-H-scale structures >> direct."""
        g = small_power_law_graph
        model = make_model("node2vec", g, p=0.5, q=2.0)
        alias2 = sampler_memory_estimate("alias", g, model)
        rej = sampler_memory_estimate("rejection", g, model)
        mh = sampler_memory_estimate("mh", g, model)
        direct = sampler_memory_estimate("direct", g, model)
        assert alias2 > rej > direct
        assert alias2 > mh > direct
        # M-H stores one int per state; rejection needs a full alias table
        assert rej > mh / 2

    def test_mh_bytes_formula(self, small_power_law_graph):
        g = small_power_law_graph
        model = make_model("node2vec", g, p=1, q=1)
        assert mh_bytes(g, model) == 16 * g.num_edge_entries

    def test_alias_second_order_formula(self, small_power_law_graph):
        g = small_power_law_graph
        model = make_model("node2vec", g, p=1, q=1)
        degrees = g.degrees()
        expected = int(degrees[g.targets].sum()) * ALIAS_ENTRY_BYTES
        assert second_order_alias_bytes(g, model) == expected

    def test_rejection_free_for_unweighted(self, small_unweighted_graph):
        assert rejection_bytes(small_unweighted_graph) < 1024

    def test_rejection_costs_alias_for_weighted(self, small_power_law_graph):
        assert rejection_bytes(small_power_law_graph) == first_order_alias_bytes(
            small_power_law_graph
        )

    def test_unknown_kind(self, small_power_law_graph):
        model = make_model("deepwalk", small_power_law_graph)
        with pytest.raises(ValueError):
            sampler_memory_estimate("bogus", small_power_law_graph, model)


class TestBudgetEnforcement:
    def test_alias_ooms_under_tight_budget(self, small_power_law_graph, kernel_backend):
        g = small_power_law_graph
        model = make_model("node2vec", g, p=0.5, q=2.0)
        budget = MemoryBudget(second_order_alias_bytes(g, model) // 2)
        with pytest.raises(SimulatedOutOfMemoryError):
            VectorizedWalkEngine(g, model, sampler="alias", backend=kernel_backend, budget=budget)

    def test_mh_fits_where_alias_ooms(self, small_power_law_graph, kernel_backend):
        g = small_power_law_graph
        model = make_model("node2vec", g, p=0.5, q=2.0)
        budget = MemoryBudget(second_order_alias_bytes(g, model) // 2)
        VectorizedWalkEngine(g, model, sampler="mh", backend=kernel_backend, budget=budget)
        assert budget.used_bytes == mh_bytes(g, model)

    def test_rejection_charges_budget(self, small_power_law_graph, kernel_backend):
        g = small_power_law_graph
        budget = MemoryBudget(rejection_bytes(g) + 64)
        VectorizedWalkEngine(
            g, "node2vec", sampler="rejection", backend=kernel_backend, budget=budget
        )
        assert budget.used_bytes >= rejection_bytes(g)

    @pytest.mark.parametrize("weight_mode", ["uniform", None], ids=["weighted", "unweighted"])
    def test_first_order_alias_charges_what_it_builds(self, weight_mode, kernel_backend):
        """An unweighted graph builds no table and is charged none; a
        1 KiB budget used to be refused 18,560 bytes for it."""
        g = chung_lu_power_law(200, 6.0, seed=7, weight_mode=weight_mode)
        budget = MemoryBudget(1 << 20)
        eng = VectorizedWalkEngine(
            g, "deepwalk", sampler="alias-first-order", backend=kernel_backend, budget=budget
        )
        model = eng.model
        assert sampler_memory_estimate("alias-first-order", g, model) == budget.used_bytes
        assert budget.used_bytes == eng.stepper.memory_bytes()
        assert (budget.used_bytes > 0) == g.is_weighted
        if not g.is_weighted:
            VectorizedWalkEngine(g, "deepwalk", sampler="alias", budget=MemoryBudget(1024))


class TestMemoryAwareSampler:
    def test_assignment_respects_budget(self, small_power_law_graph):
        g = small_power_law_graph
        model = make_model("node2vec", g, p=0.5, q=2.0)
        budget_bytes = 40_000
        mask = assign_states_greedily(g, model, budget_bytes)
        cost = int(model.state_table_degrees(g)[mask].sum()) * ALIAS_ENTRY_BYTES
        assert cost <= budget_bytes

    def test_assignment_prefers_high_degree_states(self, small_power_law_graph):
        g = small_power_law_graph
        model = make_model("node2vec", g, p=0.5, q=2.0)
        mask = assign_states_greedily(g, model, 20_000)
        table_degrees = model.state_table_degrees(g)
        if mask.any() and not mask.all():
            assert table_degrees[mask].min() >= np.median(table_degrees[~mask])

    def test_zero_budget_means_all_rejection(self, tiny_weighted_graph, kernel_backend):
        g = tiny_weighted_graph
        eng = VectorizedWalkEngine(
            g, "node2vec", sampler="memory-aware", table_budget_bytes=0,
            backend=kernel_backend, p=0.5, q=2.0, seed=1,
        )
        assert not eng.stepper.assigned.any()
        assert eng.stepper.tables.num_tables == 0
        lanes = (np.array([3]), np.array([g.edge_index(3, 0)]), np.array([0]))
        assert eng.stepper.step(*lanes, 1, eng.rng)[0] >= 0
