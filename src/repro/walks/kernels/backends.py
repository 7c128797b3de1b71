"""Registry home for kernel backends (``KERNEL_REGISTRY`` built-ins).

Factories take no arguments and return a process-wide singleton backend
(the compiled backend caches its machine code, so one instance per
process is the right granularity). An unavailable backend raises
:class:`~repro.errors.ConfigError` — *not* ImportError — so a RunSpec or
CLI request for ``cnative`` on a host without a C compiler surfaces as a
configuration problem with remediation text.
"""

from __future__ import annotations

from repro.registry import KERNEL_REGISTRY
from repro.walks.kernels.cnative_backend import CNativeKernels, find_compiler
from repro.walks.kernels.numpy_backend import NumpyKernels

_INSTANCES: dict[str, object] = {}


def _singleton(name: str, cls):
    backend = _INSTANCES.get(name)
    if backend is None:
        backend = cls()  # may raise ConfigError when unavailable
        _INSTANCES[name] = backend
    return backend


def _numpy_factory():
    return _singleton("numpy", NumpyKernels)


def _cnative_factory():
    return _singleton("cnative", CNativeKernels)


def backend_available(name: str) -> bool:
    """Cheap availability probe (no compilation, no instantiation)."""
    if name == "cnative":
        return find_compiler() is not None
    return name == "numpy"


KERNEL_REGISTRY.register(
    "numpy",
    _numpy_factory,
    aliases=("np", "fallback"),
    compiled=False,
    kinds=("generic", "static", "node2vec"),
)
KERNEL_REGISTRY.register(
    "cnative",
    _cnative_factory,
    aliases=("c", "native"),
    compiled=True,
    kinds=("static", "node2vec"),
)

__all__ = ["backend_available"]
