"""Tests for repro.utils: rng plumbing, validation helpers."""

import numpy as np
import pytest

from repro.utils.rng import as_rng, spawn_rngs
from repro.errors import ConfigError, ModelError, SpecError
from repro.utils.validation import check_fraction, check_positive


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        assert as_rng(7).integers(1 << 30) == as_rng(7).integers(1 << 30)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert as_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(5)
        a = as_rng(seq).integers(1 << 30)
        b = as_rng(np.random.SeedSequence(5)).integers(1 << 30)
        assert a == b

    def test_different_seeds_differ(self):
        draws_a = as_rng(1).random(8)
        draws_b = as_rng(2).random(8)
        assert not np.allclose(draws_a, draws_b)


class TestSpawnRngs:
    def test_count_and_type(self):
        rngs = spawn_rngs(3, 5)
        assert len(rngs) == 5
        assert all(isinstance(r, np.random.Generator) for r in rngs)

    def test_children_are_independent_streams(self):
        a, b = spawn_rngs(3, 2)
        assert not np.allclose(a.random(16), b.random(16))

    def test_deterministic_given_seed(self):
        first = [r.random() for r in spawn_rngs(9, 3)]
        second = [r.random() for r in spawn_rngs(9, 3)]
        assert first == second

    def test_spawn_from_generator(self):
        gen = np.random.default_rng(4)
        children = spawn_rngs(gen, 2)
        assert len(children) == 2

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)

    def test_zero_count(self):
        assert spawn_rngs(1, 0) == []


class TestValidation:
    def test_check_positive_accepts(self):
        check_positive("x", 0.1)

    @pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf"), "2", None, [1.0], 1j])
    def test_check_positive_rejects(self, bad):
        with pytest.raises(ValueError):
            check_positive("x", bad)

    def test_check_fraction_open_interval(self):
        check_fraction("f", 0.5)
        with pytest.raises(ValueError):
            check_fraction("f", 0.0)
        with pytest.raises(ValueError):
            check_fraction("f", 1.0)

    def test_the_error_class_is_the_callers(self):
        with pytest.raises(ConfigError):
            check_positive("x", 0)
        with pytest.raises(ModelError, match="x must be positive"):
            check_positive("x", 0, ModelError)
        with pytest.raises(SpecError, match=r"f must lie in \(0, 1\)"):
            check_fraction("f", 1.0, SpecError)
