"""Tests for repro.utils (rng plumbing) and the real-value check."""

import re
from dataclasses import dataclass

import numpy as np
import pytest

from repro.config import check_reals
from repro.utils.rng import as_rng, spawn_rngs
from repro.errors import ConfigError, ModelError, SpecError, WalkError


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


@dataclass
class Knobs:
    rate: float = 1.0
    cap: float | None = None


class TestCheckReals:
    @pytest.mark.parametrize(
        "interval, inside, outside",
        [
            ("(0, inf)", [1e-300, 0.5, 7], [0, 0.0, -1]),
            ("[0, inf)", [0, 0.0, 2.5], [-1e-9, -1]),
            ("(0, 1)", [1e-9, 0.5, np.float32(0.25)], [0, 1, 1.0, 1.5]),
            ("[0, 1]", [0, 0.5, 1], [-0.1, 1.1]),
            ("(1, inf)", [1.5, 2], [1, 0.5]),
        ],
    )
    def test_open_and_closed_ends(self, interval, inside, outside):
        for value in inside:
            check_reals({"x": value}, ("x",), interval=interval)
        for value in outside:
            with pytest.raises(WalkError, match=re.escape(f"x must be a finite real in {interval}")):
                check_reals({"x": value}, ("x",), interval=interval)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf"), True, False, "2", None, [1.0], 1j, object()]
    )
    def test_only_a_finite_real_passes(self, bad):
        with pytest.raises(WalkError, match=r"x must be a finite real in \[0, inf\), got "):
            check_reals({"x": bad}, ("x",), interval="[0, inf)")

    def test_none_passes_for_an_optional_field_only(self):
        check_reals(Knobs(), ("rate", "cap"), "knobs.")
        with pytest.raises(WalkError, match=r"knobs.rate must be a finite real in \(0, inf\), got None"):
            check_reals(Knobs(rate=None), ("rate", "cap"), "knobs.")
        with pytest.raises(WalkError, match=r"knobs.cap must be a finite real in \(0, inf\) or None, got -1"):
            check_reals(Knobs(cap=-1), ("rate", "cap"), "knobs.")
        # in a keyword mapping, a name it lacks passes and None does not
        check_reals({}, ("rate",))
        with pytest.raises(WalkError, match="rate"):
            check_reals({"rate": None}, ("rate",))

    def test_the_error_class_is_the_callers(self):
        for error in (ConfigError, ModelError, SpecError):
            with pytest.raises(error, match=r"section.x must be a finite real in \(0, 1\), got 1.0"):
                check_reals({"x": 1.0}, ("x",), "section.", error, "(0, 1)")
