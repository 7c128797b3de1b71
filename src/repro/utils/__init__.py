"""Shared utilities: deterministic RNG handling."""

from repro.utils.rng import as_rng, spawn_rngs

__all__ = [
    "as_rng",
    "spawn_rngs",
]
