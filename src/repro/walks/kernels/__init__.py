"""Compiled walk-step kernels behind a pluggable backend registry.

The walk engine's hot path — the M-H chain step (Algorithm 1), the
alias gather and the rejection/KnightKing acceptance round — is factored
into *kernels* operating on the flat array
bundle of :class:`~repro.walks.kernels.state.KernelState`. Two
backends implement them:

``numpy``
    Always available; the default. Reproduces the pre-kernel stepper
    formulas operation-for-operation and handles *generic* models via a
    driver-supplied weight callback.
``cnative``
    C loops compiled at first use with the system compiler and loaded
    through ctypes; requested explicitly via ``backend="cnative"``
    (ConfigError when no compiler is found).

All randomness stays in the driver (the stepper pre-draws every uniform
in the engine's historical call order), so kernels are deterministic
pure functions and every backend yields bitwise-identical corpora for a
fixed seed — the property ``tests/test_kernels.py`` sweeps.
"""

from __future__ import annotations

from repro.registry import KERNEL_REGISTRY
from repro.walks.kernels.state import KernelState


def resolve_backend(name: str = "numpy"):
    """Kernel backend instance for ``name`` (alias-aware).

    Raises :class:`~repro.errors.WalkError` for unknown names and
    :class:`~repro.errors.ConfigError` when the backend exists but its
    dependency (a C compiler) is missing.
    """
    return KERNEL_REGISTRY.create(name)


def default_backend():
    """The always-available NumPy backend singleton."""
    return resolve_backend("numpy")


def available_backends() -> dict[str, bool]:
    """Map of registered backend names to cheap availability probes."""
    from repro.walks.kernels.backends import backend_available

    return {name: backend_available(name) for name in KERNEL_REGISTRY.names()}


__all__ = [
    "KernelState",
    "KERNEL_REGISTRY",
    "resolve_backend",
    "default_backend",
    "available_backends",
]
