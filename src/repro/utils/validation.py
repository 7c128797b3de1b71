"""Small argument-validation helpers used across the library.

These raise the caller's error class (:class:`~repro.errors.ConfigError`,
a ``ReproError`` that is also a ``ValueError``, unless told otherwise)
with a consistent message format so user-facing API errors read the
same everywhere.
"""

from __future__ import annotations

from numbers import Real

import numpy as np

from repro.errors import ConfigError


def check_positive(name: str, value, error=ConfigError) -> None:
    """Raise ``error`` unless ``value`` is a finite real number > 0."""
    if not isinstance(value, Real) or not np.isfinite(value) or value <= 0:
        raise error(f"{name} must be positive and finite, got {value!r}")


def check_fraction(name: str, value, error=ConfigError) -> None:
    """Raise ``error`` unless ``value`` lies in (0, 1)."""
    if not 0.0 < value < 1.0:
        raise error(f"{name} must lie in (0, 1), got {value!r}")
