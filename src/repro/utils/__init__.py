"""Shared utilities: deterministic RNG handling, validation."""

from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.validation import check_fraction, check_positive

__all__ = [
    "as_rng",
    "spawn_rngs",
    "check_positive",
    "check_fraction",
]
