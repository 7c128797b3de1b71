"""The lint rules RPR001-RPR006, run in the order of :data:`RULES`.

Each rule encodes one repo invariant that a generic linter cannot see;
the module docstrings below say *why* the invariant exists, because a
finding a maintainer cannot justify gets suppressed instead of fixed.
"""

from __future__ import annotations

import ast

from repro.analysis.core import LintRule
from repro.analysis.project import (
    FuncSig,
    dotted_name,
    relpath_matches,
)

# ---------------------------------------------------------------------------
# RPR001: rng-discipline
# ---------------------------------------------------------------------------

#: numpy global-state RNG surface (module-level functions + RandomState).
_LEGACY_RNG = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "lognormal", "binomial", "poisson", "beta", "gamma",
    "exponential", "geometric", "multinomial", "dirichlet", "bytes",
    "get_state", "set_state", "RandomState",
})

#: the one module allowed to touch numpy RNG construction directly.
_RNG_HOME = ("utils/rng.py",)


class RngDisciplineRule(LintRule):
    """No numpy global-state RNG; seeds flow through ``as_rng``.

    Every reproducibility guarantee in this repo — seeded walks, the
    streaming/dynamic bitwise-parity tests, spawn-keyed per-walker
    generators — assumes all randomness descends from one
    ``SeedSequence``. A single ``np.random.seed()`` or stray
    ``default_rng()`` reintroduces hidden global state (or fresh OS
    entropy) and silently breaks determinism for every caller sharing
    the process.
    """

    code = "RPR001"
    name = "rng-discipline"

    def check_module(self, module, project):
        if relpath_matches(module.relpath, _RNG_HOME):
            return
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            resolved = module.resolve(name)
            if resolved.startswith("numpy.random."):
                leaf = resolved[len("numpy.random."):]
                if leaf in _LEGACY_RNG:
                    yield self.finding(
                        module, node,
                        f"numpy.random.{leaf} uses process-global RNG state; "
                        "derive a Generator via repro.utils.rng.as_rng / "
                        "spawn_rngs instead",
                    )
                elif leaf == "default_rng":
                    how = (
                        "seeds from fresh OS entropy (non-reproducible)"
                        if not node.args and not node.keywords
                        else "bypasses the repo's single SeedSequence root"
                    )
                    yield self.finding(
                        module, node,
                        f"numpy.random.default_rng {how}; construct "
                        "generators via repro.utils.rng.as_rng / spawn_rngs",
                    )


# ---------------------------------------------------------------------------
# RPR002: registry-contract
# ---------------------------------------------------------------------------

#: family -> methods a registered class must provide (directly or via a
#: project-resolvable base). Families whose registrations are factory
#: functions (vectorized samplers) are checked only when the registered
#: target resolves to a class.
_FAMILY_PROTOCOLS = {
    "model": ("batch_dynamic_weight",),
    "sampler": ("step",),
    "initialization strategy": ("init_chains",),
    "codec": ("fit", "encode", "decode", "state", "from_state"),
    "index": ("topk", "memory_bytes"),
}


class RegistryContractRule(LintRule):
    """Registered components honour their family's contract.

    A registry entry is a promise: ``create()`` will hand back an object
    the engine can drive, and ``param_spec`` tells the CLI/RunSpec layer
    which constructor knobs exist and what they default to. A missing
    protocol method or a ``param_spec`` key the ``__init__`` does not
    accept only surfaces at run time, deep inside a training run.
    """

    code = "RPR002"
    name = "registry-contract"

    def check_project(self, project):
        yield from self._check_collisions(project)
        for reg in project.registrations:
            info = project.lookup_class(reg.target)
            if info is None:
                continue  # factory / function / external target
            yield from self._check_protocol(project, reg, info)
            if reg.param_spec is not None:
                yield from self._check_param_spec(project, reg, info)

    def _check_collisions(self, project):
        taken: dict[tuple[str, str], object] = {}
        for reg in project.registrations:
            if reg.name is None:
                continue
            for token in (reg.name, *reg.aliases):
                key = (reg.family, token)
                prior = taken.get(key)
                if prior is not None and not reg.replace:
                    yield self.finding(
                        reg.module, reg,
                        f"{reg.family} name/alias {token!r} already "
                        f"registered at {prior.module.relpath}:{prior.lineno} "
                        "(pass replace=True to override deliberately)",
                    )
                elif prior is None:
                    taken[key] = reg

    def _check_protocol(self, project, reg, info):
        required = _FAMILY_PROTOCOLS.get(reg.family, ())
        if not required:
            return
        _, complete = project.base_chain(info)
        for method in required:
            found = project.find_method(info, method)
            if found is not None and not found[1].is_abstract:
                continue
            if found is None and not complete:
                continue  # an unresolved base may provide it
            yield self.finding(
                reg.module, reg,
                f"{reg.family} {reg.name or info.name!r}: registered class "
                f"{info.qualname} does not implement required method "
                f"{method}()",
            )

    def _check_param_spec(self, project, reg, info):
        found = project.find_method(info, "__init__")
        if found is None:
            _, complete = project.base_chain(info)
            if not complete:
                return
            sig = None
        else:
            sig = found[1]
        for key, spec in reg.param_spec.items():
            if sig is None or sig.has_kwarg:
                accepted = True
            else:
                accepted = key in sig.callable_positional or key in sig.kwonly
            if not accepted:
                yield self.finding(
                    reg.module, reg,
                    f"{reg.family} {reg.name!r}: param_spec key {key!r} is "
                    f"not a parameter of {info.qualname}.__init__",
                )
                continue
            if (
                sig is not None
                and isinstance(spec, dict)
                and "default" in spec
                and key in sig.default_literals
                and spec["default"] != sig.default_literals[key]
            ):
                yield self.finding(
                    reg.module, reg,
                    f"{reg.family} {reg.name!r}: param_spec default for "
                    f"{key!r} is {spec['default']!r} but "
                    f"{info.qualname}.__init__ defaults it to "
                    f"{sig.default_literals[key]!r}",
                )


# ---------------------------------------------------------------------------
# RPR003: protocol-signature-drift
# ---------------------------------------------------------------------------

#: methods whose overrides must stay call-compatible with their base.
_CHECKED_METHODS = frozenset({
    "on_delta", "step", "encode", "decode", "sample", "fit",
    "init_chains", "topk", "from_state", "_refresh",
})

#: the canonical dynamic-update protocol every ``on_delta`` answers to.
_ON_DELTA_CANON = FuncSig(
    name="on_delta",
    lineno=0,
    positional=("self", "plan", "model"),
    pos_defaults=1,
    kwonly=(),
    kwonly_required=(),
    has_vararg=False,
    has_kwarg=False,
)


def signature_problems(base: FuncSig, override: FuncSig) -> list[str]:
    """Why ``override`` cannot take every call ``base`` accepts.

    Positional names must match in order (callers use keywords);
    override extras need defaults; base keyword-only names must be
    accepted; override-required keyword-onlys must exist in the base;
    ``*args``/``**kwargs`` in the base require the same in the override.
    """
    if override.has_vararg and override.has_kwarg:
        return []  # accepts anything
    problems: list[str] = []
    bpos = base.callable_positional
    opos = override.callable_positional
    shared = min(len(bpos), len(opos))
    for i in range(shared):
        if bpos[i] != opos[i]:
            problems.append(
                f"positional parameter {i + 1} is {opos[i]!r}, base has "
                f"{bpos[i]!r} (keyword callers break)"
            )
    if len(opos) < len(bpos) and not override.has_vararg:
        for name in bpos[len(opos):]:
            if name not in override.kwonly:
                problems.append(f"missing base parameter {name!r}")
    b_required = len(bpos) - base.pos_defaults
    o_required = len(opos) - override.pos_defaults
    if o_required > max(b_required, 0):
        for name in opos[max(b_required, 0):o_required]:
            if name in bpos:
                problems.append(
                    f"parameter {name!r} is optional for base callers but "
                    "required here"
                )
            else:
                problems.append(
                    f"extra required parameter {name!r} (base callers omit it)"
                )
    for name in base.kwonly:
        accepted = (
            name in override.kwonly
            or name in opos
            or override.has_kwarg
        )
        if not accepted:
            problems.append(f"missing base keyword-only parameter {name!r}")
    base_names = set(bpos) | set(base.kwonly)
    for name in override.kwonly_required:
        if name not in base_names:
            problems.append(
                f"extra required keyword-only parameter {name!r}"
            )
    if base.has_vararg and not override.has_vararg:
        problems.append("base accepts *args, override does not")
    if base.has_kwarg and not override.has_kwarg:
        problems.append("base accepts **kwargs, override does not")
    return problems


class SignatureDriftRule(LintRule):
    """Overrides stay call-compatible with the base / canonical protocol.

    The engines dispatch on these methods polymorphically —
    ``stepper.on_delta(plan, model=model)`` must work for every stepper
    ever registered. Signature drift (the pre-tentpole ``plan`` vs
    ``graph, delta`` vs ``plan, model, state_mask`` spread) turns a
    working call site into a ``TypeError`` the moment the registry
    resolves a different implementation.
    """

    code = "RPR003"
    name = "signature-drift"

    def check_module(self, module, project):
        for info in module.classes.values():
            for name, sig in info.methods.items():
                if name == "on_delta":
                    for problem in signature_problems(_ON_DELTA_CANON, sig):
                        yield self.finding(
                            module, sig,
                            f"{info.name}.on_delta is not call-compatible "
                            f"with the canonical on_delta(plan, model=None) "
                            f"protocol: {problem}",
                        )
                    continue
                if name not in _CHECKED_METHODS:
                    continue
                inherited = project.inherited_method(info, name)
                if inherited is None:
                    continue
                owner, base_sig = inherited
                for problem in signature_problems(base_sig, sig):
                    yield self.finding(
                        module, sig,
                        f"{info.name}.{name} drifts from "
                        f"{owner.name}.{name}: {problem}",
                    )


# ---------------------------------------------------------------------------
# RPR004: error-taxonomy
# ---------------------------------------------------------------------------

#: builtin exceptions library code must not raise directly — each has a
#: ``ReproError`` counterpart carrying the taxonomy the CLI/RunSpec
#: error handling keys on.
_FORBIDDEN_RAISES = frozenset({
    "ValueError", "TypeError", "KeyError", "IndexError", "AttributeError",
    "RuntimeError", "Exception", "BaseException", "LookupError",
    "ArithmeticError", "OSError", "IOError", "EOFError",
    "ZeroDivisionError", "OverflowError", "FloatingPointError",
    # the connection-layer builtins: the serving tier maps these to its
    # typed wire errors (ServerError and friends) instead of raising raw
    "ConnectionError", "ConnectionResetError", "ConnectionAbortedError",
    "ConnectionRefusedError", "BrokenPipeError", "TimeoutError",
})

_BROAD_EXCEPTS = frozenset({"Exception", "BaseException"})

#: connection-layer modules: code speaking sockets/pipes, where except
#: tuples historically accreted redundant ``ConnectionError`` subclasses
#: (``except (OSError, BrokenPipeError)`` — the second member is dead).
_CONNECTION_MODULES = (
    "serving/server.py",
    "serving/framing.py",
    "sharding/transport.py",
    "sharding/socket_worker.py",
    "sharding/wire.py",
)

#: builtin exception -> its builtin base chain; enough of the OSError
#: family to spot a subclass shadowed by its base in the same tuple.
_BUILTIN_EXC_BASES = {
    "BrokenPipeError": ("ConnectionError", "OSError"),
    "ConnectionResetError": ("ConnectionError", "OSError"),
    "ConnectionAbortedError": ("ConnectionError", "OSError"),
    "ConnectionRefusedError": ("ConnectionError", "OSError"),
    "ConnectionError": ("OSError",),
    "TimeoutError": ("OSError",),
    "InterruptedError": ("OSError",),
    "IOError": ("OSError",),
    "EnvironmentError": ("OSError",),
}

#: dunder -> builtins its *protocol* requires (``__getattr__`` must raise
#: AttributeError for ``hasattr`` to work; these are not taxonomy leaks).
_DUNDER_PROTOCOL_RAISES = {
    "__getattr__": frozenset({"AttributeError"}),
    "__getattribute__": frozenset({"AttributeError"}),
    "__setattr__": frozenset({"AttributeError"}),
    "__delattr__": frozenset({"AttributeError"}),
    "__getitem__": frozenset({"KeyError", "IndexError", "TypeError"}),
    "__delitem__": frozenset({"KeyError", "IndexError"}),
    "__missing__": frozenset({"KeyError"}),
    "__index__": frozenset({"TypeError"}),
}


class ErrorTaxonomyRule(LintRule):
    """Raises use the ``ReproError`` taxonomy; no swallowed broad excepts.

    The CLI and the RunSpec runner catch :class:`~repro.errors.ReproError`
    to turn failures into clean exit codes; a bare ``ValueError`` from
    library code escapes that net as a traceback. Conversely a broad
    ``except Exception`` that does not re-raise converts genuine bugs
    into silent misbehaviour. Classes *named* like errors must also join
    the taxonomy: an ``XyzError`` outside ``ReproError`` can never carry
    the stable wire ``code`` the query server's protocol responses key
    on, and callers catching the base class would silently miss it.
    """

    code = "RPR004"
    name = "error-taxonomy"

    def check_module(self, module, project):
        yield from self._visit(module, project, module.tree, None)
        for info in module.classes.values():
            if not info.name.endswith("Error") or info.name == "ReproError":
                continue
            if project.derives_from(info, "ReproError") is False:
                yield self.finding(
                    module, info,
                    f"class {info.name} does not derive from ReproError; "
                    "error types must join the repro.errors taxonomy so "
                    "typed handling (CLI exit codes, server wire codes) "
                    "sees them",
                )

    def _visit(self, module, project, node, func_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._visit(module, project, child, child.name)
                continue
            if isinstance(child, ast.Raise):
                yield from self._check_raise(module, project, child, func_name)
            elif isinstance(child, ast.ExceptHandler):
                yield from self._check_handler(module, child)
            yield from self._visit(module, project, child, func_name)

    def _check_raise(self, module, project, node, func_name=None):
        if node.exc is None:
            return  # bare re-raise — always fine
        target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = dotted_name(target)
        if name is None:
            return  # raise type(exc)(...) and friends — unknowable
        resolved = module.resolve(name)
        leaf = resolved.split(".")[-1]
        if func_name in _DUNDER_PROTOCOL_RAISES and leaf in _DUNDER_PROTOCOL_RAISES[func_name]:
            return
        if resolved in _FORBIDDEN_RAISES:
            yield self.finding(
                module, node,
                f"raises builtin {resolved}; use a ReproError subclass "
                f"(e.g. ConfigError for bad arguments, SerializationError "
                f"for format violations) so the CLI error handling sees it",
            )
            return
        info = project.lookup_class(resolved)
        if info is None:
            return  # external class — benefit of the doubt
        derives = project.derives_from(info, "ReproError")
        if derives is False:
            yield self.finding(
                module, node,
                f"raises {leaf}, which does not derive from ReproError; "
                "library errors must join the repro.errors taxonomy",
            )

    def _check_handler(self, module, node):
        if node.type is None:
            yield self.finding(
                module, node,
                "bare except: catches SystemExit/KeyboardInterrupt; name "
                "the exceptions (or `except Exception` with a re-raise)",
            )
            return
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if len(types) > 1 and relpath_matches(module.relpath, _CONNECTION_MODULES):
            leaves = []
            for t in types:
                name = dotted_name(t)
                leaves.append(None if name is None else module.resolve(name).split(".")[-1])
            present = {leaf for leaf in leaves if leaf}
            for leaf in leaves:
                if leaf is None:
                    continue
                shadow = next(
                    (b for b in _BUILTIN_EXC_BASES.get(leaf, ()) if b in present), None
                )
                if shadow is not None:
                    yield self.finding(
                        module, node,
                        f"`except` tuple lists {leaf} alongside its base "
                        f"class {shadow}; the subclass is dead weight — "
                        "connection-layer handlers name each failure "
                        "class exactly once",
                    )
        for t in types:
            name = dotted_name(t)
            if name is None:
                continue
            if module.resolve(name) in _BROAD_EXCEPTS:
                reraises = any(
                    isinstance(child, ast.Raise) for child in ast.walk(node)
                )
                if reraises:
                    yield self.finding(
                        module, node,
                        f"broad `except {name}` — narrow to the exceptions "
                        "this block can actually recover from",
                    )
                else:
                    yield self.finding(
                        module, node,
                        f"`except {name}` without re-raise swallows "
                        "unexpected failures; narrow it or re-raise",
                    )


# ---------------------------------------------------------------------------
# RPR005: serialization-dtype
# ---------------------------------------------------------------------------

#: format-defining modules: anything writing/reading bytes whose layout
#: other processes (or future versions) must reproduce.
_FORMAT_MODULES = ("serving/store.py", "serving/codec.py", "graph/io.py", "walks/corpus.py")

#: numpy constructor -> positional index where dtype may legally appear.
_DTYPE_FUNCS = {
    "frombuffer": 1,
    "fromfile": 1,
    "zeros": 1,
    "empty": 1,
    "ones": 1,
    "full": 2,
    "memmap": 1,
}


class SerializationDtypeRule(LintRule):
    """Format-defining numpy calls pass an explicit ``dtype=``.

    ``np.zeros(n)`` is float64 today, on this platform, under this numpy
    — the v1/v2 store format and codec byte layouts are only stable if
    every array that touches the wire states its dtype in source. A
    dtype-less ``frombuffer`` is a file-format bug waiting for a numpy
    default to shift.
    """

    code = "RPR005"
    name = "serialization-dtype"

    def check_module(self, module, project):
        if not relpath_matches(module.relpath, _FORMAT_MODULES):
            return
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            resolved = module.resolve(name)
            leaf = resolved.split(".")[-1]
            if leaf not in _DTYPE_FUNCS or not resolved.startswith("numpy."):
                continue
            pos = _DTYPE_FUNCS[leaf]
            has_dtype = len(node.args) > pos or any(
                kw.arg == "dtype" for kw in node.keywords
            )
            if not has_dtype:
                yield self.finding(
                    module, node,
                    f"{leaf}() without explicit dtype= in a format-defining "
                    "module; byte layouts must not depend on numpy defaults",
                )


# ---------------------------------------------------------------------------
# RPR006: hot-path-purity
# ---------------------------------------------------------------------------

#: the vectorized kernels: per-element Python here multiplies by |V|/|E|.
_KERNEL_MODULES = (
    "walks/vectorized.py",
    "sampling/alias.py",
    "walks/kernels/",
    "embedding/kernels.py",
    "sharding/worker.py",
    "sharding/engine.py",
)

_ARRAY_PRODUCERS = frozenset({
    "flatnonzero", "nonzero", "unique", "arange", "argsort", "where",
})


def _mentions_array_size(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and child.attr in ("size", "shape"):
            return True
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "len"
        ):
            return True
    return False


class HotPathPurityRule(LintRule):
    """No per-element Python loops / ``tolist`` in kernel modules.

    The lock-step engine's whole premise is that each step costs a few
    numpy kernel launches, not |walkers| interpreter iterations. A
    ``for i in range(arr.size)`` or ``.tolist()`` in these modules is
    either setup code (fine — suppress it inline, saying why) or an
    accidental O(n) fallback on the sampling path (the thing this rule
    exists to catch). A ``range`` whose step is not a literal 1 walks
    chunks, not elements, and passes.
    """

    code = "RPR006"
    name = "hot-path-purity"

    def check_module(self, module, project):
        if not relpath_matches(module.relpath, _KERNEL_MODULES):
            return
        for node in module.walk():
            if isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "tolist"
                ):
                    yield self.finding(
                        module, node,
                        ".tolist() materialises Python objects per element; "
                        "stay in numpy",
                    )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_loop(module, node)

    def _check_loop(self, module, node):
        it = node.iter
        if not isinstance(it, ast.Call):
            return
        func = dotted_name(it.func)
        leaf = func.split(".")[-1] if func else None
        if leaf in ("enumerate", "zip"):
            yield self.finding(
                module, node,
                f"per-element {leaf}() loop in a kernel module; vectorize "
                "or hoist out of the hot path",
            )
        elif (
            leaf == "range"
            and any(_mentions_array_size(a) for a in it.args)
            # a step other than a literal 1 walks chunks, not elements
            and (len(it.args) < 3 or (
                isinstance(it.args[2], ast.Constant) and it.args[2].value == 1
            ))
        ):
            yield self.finding(
                module, node,
                "range() loop over an array extent in a kernel module; "
                "vectorize or hoist out of the hot path",
            )
        elif leaf in _ARRAY_PRODUCERS:
            yield self.finding(
                module, node,
                f"Python iteration over np.{leaf}() output in a kernel "
                "module; vectorize or hoist out of the hot path",
            )


RULES = (
    RngDisciplineRule(),
    RegistryContractRule(),
    SignatureDriftRule(),
    ErrorTaxonomyRule(),
    SerializationDtypeRule(),
    HotPathPurityRule(),
)
