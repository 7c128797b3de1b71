"""Deterministic random-number-generator plumbing.

Every stochastic component in the library accepts either a seed or an
existing :class:`numpy.random.Generator`. Centralising the conversion here
keeps seeding behaviour uniform and makes parallel reproducibility easy:
:func:`spawn_rngs` derives independent child generators from one parent via
the ``SeedSequence.spawn`` mechanism, so worker streams never overlap.
"""

from __future__ import annotations

import numpy as np

from repro.config import check_counts
from repro.errors import ConfigError


def as_rng(seed=None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts ``None`` (fresh entropy), an integer seed, a ``SeedSequence``
    or an existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.default_rng(seed)


def spawn_rngs(seed, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from ``seed``.

    Independence comes from ``SeedSequence.spawn``; passing an existing
    ``Generator`` spawns from its internal bit generator seed sequence.
    """
    check_counts({"count": count}, error=ConfigError, minimum=0)
    if isinstance(seed, np.random.Generator):
        seq = seed.bit_generator.seed_seq
    elif isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(child)) for child in seq.spawn(count)]
