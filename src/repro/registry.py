"""The registry subsystem: decorator-based component registration.

UniNet's pitch is a *unified* framework — any random-walk model plugs
into any edge sampler. This module makes that pluggability a first-class
API instead of a set of hardcoded dispatch tables: every component family
(models, edge samplers, vectorized steppers, M-H initializers) lives in a
:class:`Registry`, and third-party code extends the framework without
touching package internals::

    from repro import register_model, register_sampler
    from repro.walks.models.base import RandomWalkModel

    @register_model("teleport", param_spec={"restart": {"type": "float",
                                                        "default": 0.1}})
    class TeleportWalk(RandomWalkModel):
        ...

    @register_sampler("my-sampler", aliases=("mys",))
    class MyStepper(StepperBase):
        def __init__(self, graph, model, ctx):
            ...

Registered names immediately work everywhere a built-in name does:
``UniNet(graph, model="teleport", restart=0.2)``, ``WalkConfig(
sampler="my-sampler")``, :func:`repro.run` specs, and the CLI.

A registry behaves like a read-only mapping from *canonical* names to the
registered objects; aliases resolve on lookup but are not iterated, so
``sorted(MODEL_REGISTRY)`` lists each component exactly once. Unknown
names raise the family's error type with the full list of registered
names plus near-miss suggestions.

Each registry lazily imports its *home module* on first lookup so the
built-in components are always present, regardless of import order.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from importlib import import_module
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.errors import ModelError, ReproError, SamplerError, WalkError

if TYPE_CHECKING:
    from repro.config import WalkConfig


class RegistryError(ReproError):
    """Raised for invalid registrations (duplicates, bad names)."""


def _norm(name: object) -> str:
    return str(name).strip().lower()


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: the object plus its self-description."""

    name: str
    obj: Any
    aliases: tuple[str, ...] = ()
    #: Capability metadata declared at registration (``second_order``,
    #: ``needs_hetero``, ``param_spec``, ``factory``, ...). Read-only.
    capabilities: Any = field(default_factory=dict)


class Registry:
    """A named component family with alias-aware, self-describing lookup.

    Parameters
    ----------
    kind:
        Human-readable component kind used in error messages
        (``"model"``, ``"sampler"``, ...).
    error_cls:
        Exception class raised for unknown names and duplicate
        registrations (defaults to :class:`RegistryError`).
    home:
        Dotted module path that registers the built-in components.
        Imported lazily on first lookup so the registry is never empty
        just because of import order.
    """

    def __init__(self, kind: str, *, error_cls=RegistryError, home: str | None = None):
        self.kind = kind
        self._error_cls = error_cls
        self._home = home
        self._home_loaded = home is None
        self._entries: dict[str, RegistryEntry] = {}
        # every accepted lookup name (canonical + aliases) -> canonical
        self._names: dict[str, str] = {}

    # -- registration ---------------------------------------------------
    def register(
        self,
        name: str,
        obj: Any = None,
        *,
        aliases: tuple[str, ...] = (),
        replace: bool = False,
        **capabilities,
    ):
        """Register ``obj`` under ``name`` (usable as a decorator).

        ``aliases`` are alternative lookup names; ``capabilities`` is
        free-form metadata describing the component (``second_order``,
        ``needs_hetero``, ``param_spec``, ...). Re-using a taken name
        raises; ``replace=True`` permits replacing the entry registered
        under the *same canonical name* only — colliding with a name
        owned by a different entry always raises (so a replacement can
        never silently deregister an unrelated component).
        """
        if obj is None:
            def decorator(target):
                self.register(
                    name, target, aliases=aliases, replace=replace, **capabilities
                )
                return target

            return decorator

        canonical = _norm(name)
        if not canonical:
            raise RegistryError(f"{self.kind} names must be non-empty strings")
        lookup_names = (canonical, *(_norm(a) for a in aliases))
        for taken in lookup_names:
            owner = self._names.get(taken)
            if owner is None or owner == canonical:
                continue
            raise self._error_cls(
                f"{self.kind} name {taken!r} is already registered "
                f"(to {owner!r}); unregister {owner!r} first"
            )
        if canonical in self._entries:
            if not replace:
                raise self._error_cls(
                    f"{self.kind} name {canonical!r} is already registered; "
                    f"pass replace=True to override"
                )
            self.unregister(canonical)
        entry = RegistryEntry(
            name=canonical,
            obj=obj,
            aliases=tuple(_norm(a) for a in aliases),
            capabilities=MappingProxyType(dict(capabilities)),
        )
        self._entries[canonical] = entry
        for lookup in lookup_names:
            self._names[lookup] = canonical
        return obj

    def unregister(self, name: str) -> None:
        """Remove a registration and all of its aliases."""
        canonical = self.canonical(name)
        entry = self._entries.pop(canonical)
        for lookup in (canonical, *entry.aliases):
            self._names.pop(lookup, None)

    # -- lookup ---------------------------------------------------------
    def _ensure_home_loaded(self) -> None:
        if self._home_loaded:
            return
        # mark loaded *before* importing so registrations performed by the
        # home module's own body don't recurse back in here; roll the flag
        # back (in finally, whatever the failure) if the import dies so a
        # later lookup retries instead of serving a half-registered family
        self._home_loaded = True
        imported = False
        try:
            import_module(self._home)
            imported = True
        finally:
            self._home_loaded = imported

    def canonical(self, name: str) -> str:
        """Canonical name for ``name`` (which may be an alias)."""
        self._ensure_home_loaded()
        key = _norm(name)
        try:
            return self._names[key]
        except KeyError:
            raise self._error_cls(self._unknown_message(name)) from None

    def entry(self, name: str) -> RegistryEntry:
        """Full :class:`RegistryEntry` for a name or alias."""
        return self._entries[self.canonical(name)]

    def get(self, name: str) -> Any:
        """The registered object for a name or alias."""
        return self.entry(name).obj

    def create(self, name: str, *args, **kwargs) -> Any:
        """Instantiate the registered object (``get(name)(*args, **kwargs)``)."""
        return self.get(name)(*args, **kwargs)

    def capabilities(self, name: str):
        """Capability metadata declared for ``name`` (read-only mapping)."""
        return self.entry(name).capabilities

    def _unknown_message(self, name: object) -> str:
        known = self.names()
        message = f"unknown {self.kind} {name!r}; registered: {known}"
        close = difflib.get_close_matches(_norm(name), sorted(self._names), n=3, cutoff=0.6)
        if close:
            suggestions = " or ".join(repr(c) for c in close)
            message += f" — did you mean {suggestions}?"
        return message

    # -- mapping protocol (canonical names only) ------------------------
    def names(self) -> list[str]:
        """Sorted canonical names (aliases excluded)."""
        self._ensure_home_loaded()
        return sorted(self._entries)

    def keys(self) -> list[str]:
        return self.names()

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_home_loaded()
        return len(self._entries)

    def __contains__(self, name: object) -> bool:
        self._ensure_home_loaded()
        return _norm(name) in self._names

    def __getitem__(self, name: str) -> Any:
        return self.get(name)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, names={self.names()})"


@dataclass
class SamplerContext:
    """What a sampler factory is built from: ``factory(graph, model, ctx)``.

    The walk's :class:`~repro.config.WalkConfig` plus the live objects a
    config cannot hold. The config's fields read as the context's own
    (``ctx.initializer``, ``ctx.init_sample_cap``,
    ``ctx.max_reject_rounds``, ...), already validated and canonical;
    each factory picks what it understands. The engine and every shard
    worker build one.
    """

    config: WalkConfig
    #: Kernel backend instance driving the stepper's hot loops
    #: (:mod:`repro.walks.kernels`); ``None`` means the NumPy default.
    kernels: Any = None
    #: A persistent :class:`~repro.walks.manager.ChainStore` to walk on.
    chain_store: Any = None
    #: A :class:`~repro.sampling.memory_model.MemoryBudget` to charge.
    budget: Any = None

    def __getattr__(self, name: str) -> Any:
        if name == "config":  # not set yet (copy / unpickle): no recursion
            raise AttributeError(name)
        return getattr(self.config, name)


#: Random-walk model classes (``repro.walks.models``). Capabilities:
#: ``second_order``, ``needs_hetero``, ``param_spec``.
MODEL_REGISTRY = Registry("model", error_cls=ModelError, home="repro.walks.models")

#: Edge samplers (vectorized per-step steppers) — the walk engine's dispatch and
#: the namespace ``WalkConfig.sampler`` / ``RunSpec`` names resolve in.
#: Entries are factories ``(graph, model, ctx: SamplerContext) -> stepper``.
SAMPLER_REGISTRY = Registry("sampler", error_cls=WalkError, home="repro.walks.vectorized")

#: M-H chain initialization strategies (``repro.sampling.initialization``):
#: classes whose static ``init_chains(stepper, m, rng)`` starts a batch of chains.
INITIALIZER_REGISTRY = Registry(
    "initialization strategy", error_cls=SamplerError, home="repro.sampling.initialization"
)

#: Walk-step kernel backends (``repro.walks.kernels``): factories
#: ``() -> backend`` implementing the kernel protocol. Capabilities:
#: ``compiled``, ``kinds``.
KERNEL_REGISTRY = Registry(
    "kernel backend", error_cls=WalkError, home="repro.walks.kernels.backends"
)


def register_model(name: str, cls: Any = None, *, aliases=(), replace=False, **capabilities):
    """Register a :class:`RandomWalkModel` subclass under ``name``.

    Declare a ``param_spec`` capability to describe constructor
    parameters (drives CLI flags and :class:`~repro.core.spec.RunSpec`
    validation)::

        @register_model("teleport", param_spec={
            "restart": {"type": "float", "default": 0.1, "help": "..."},
        })
        class TeleportWalk(RandomWalkModel): ...
    """
    return MODEL_REGISTRY.register(
        name, cls, aliases=aliases, replace=replace, **capabilities
    )


def register_initializer(name: str, cls: Any = None, *, aliases=(), replace=False, **capabilities):
    """Register an M-H initialization strategy under ``name``.

    ``cls`` provides a static ``init_chains(stepper, m, rng)`` returning
    the first edge of every fresh chain of one M-H step (the protocol of
    :mod:`repro.sampling.initialization`); the stepper calls it on the
    class, never on an instance. ``replace=True`` over a built-in name
    changes what every walk by that name runs.
    """
    return INITIALIZER_REGISTRY.register(
        name, cls, aliases=aliases, replace=replace, **capabilities
    )


def register_sampler(
    name: str, factory: Callable | None = None, *, aliases=(), replace=False, **capabilities
):
    """Register an edge sampler for the walk engine under ``name``.

    ``factory`` is called as ``factory(graph, model, ctx)`` with a
    :class:`SamplerContext`; a stepper class whose ``__init__`` takes
    ``(graph, model, ctx)`` works directly.
    """
    return SAMPLER_REGISTRY.register(
        name, factory, aliases=aliases, replace=replace, **capabilities
    )


def unregister_sampler(name: str) -> None:
    """Remove a sampler from the registry (test cleanup helper)."""
    SAMPLER_REGISTRY.unregister(name)


__all__ = [
    "Registry",
    "RegistryEntry",
    "RegistryError",
    "SamplerContext",
    "MODEL_REGISTRY",
    "SAMPLER_REGISTRY",
    "INITIALIZER_REGISTRY",
    "KERNEL_REGISTRY",
    "register_model",
    "register_sampler",
    "register_initializer",
    "unregister_sampler",
]
