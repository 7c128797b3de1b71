"""Project symbol table for the lint rules.

The interesting invariants are *cross-module*: a stepper registered
with ``register_sampler`` in one module inherits its protocol methods
from ``StepperBase`` in ``repro.walks.vectorized``, and a
``param_spec`` declared in ``repro.walks.models.__init__`` describes a
constructor defined three files away. This module parses every linted
file once and builds the index the rules query:

* :class:`ModuleInfo` — one parsed file: AST, source lines, dotted
  module name, import aliases, classes, inline lint suppressions.
* :class:`ClassInfo` / :class:`FuncSig` — classes with their (resolved
  where possible) base names and per-method signature summaries.
* :class:`Registration` — every ``@register_model(...)`` decoration,
  ``register_codec("name", Cls)`` call or ``X_REGISTRY.register(...)``
  call, normalised to (family, name, aliases, target, param_spec).
* :class:`ProjectIndex` — lookup across modules: resolve a class name
  through imports, walk a project-internal MRO, decide whether a class
  derives from :class:`~repro.errors.ReproError`.

Resolution is deliberately best-effort: anything that leaves the parsed
file set (external bases, ``importlib`` tricks) resolves to ``None`` and
the rules give the benefit of the doubt rather than guessing.
"""

from __future__ import annotations

import ast
import builtins
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

#: Marker object for constructor defaults that are not simple literals.
NOT_LITERAL = object()

#: ``register_<x>`` helper / ``<X>_REGISTRY`` variable -> family name.
#: Family names mirror ``Registry.kind`` of the live registries.
REGISTRY_FAMILIES = {
    "register_model": "model",
    "register_sampler": "sampler",
    "register_initializer": "initialization strategy",
    "register_codec": "codec",
    "register_index": "index",
    "MODEL_REGISTRY": "model",
    "SAMPLER_REGISTRY": "sampler",
    "INITIALIZER_REGISTRY": "initialization strategy",
    "CODEC_REGISTRY": "codec",
    "INDEX_REGISTRY": "index",
}

#: an inline suppression; only a comment token counts, not a string
_SUPPRESSION = re.compile(r"repro-lint:\s*ignore\[([^\]]*)\]")

#: Base names that resolve *outside* the parsed file set but whose
#: ancestry is still fully known: structural bases with no methods of
#: interest, plus every builtin exception. A class whose bases all land
#: here has a *complete* chain — it provably does not reach a project
#: class such as ``ReproError``.
KNOWN_EXTERNAL_BASES = frozenset({
    "object", "abc.ABC", "ABC", "Protocol", "typing.Protocol",
    "Generic", "typing.Generic",
}) | frozenset(
    name
    for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
)


def _literal(node: ast.AST):
    """Evaluate ``node`` as a literal, or :data:`NOT_LITERAL`."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return NOT_LITERAL


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass(frozen=True)
class FuncSig:
    """Call-compatibility summary of one ``def``."""

    name: str
    lineno: int
    #: positional parameters in order (pos-only then pos-or-keyword).
    positional: tuple[str, ...]
    #: how many trailing ``positional`` entries carry defaults.
    pos_defaults: int
    kwonly: tuple[str, ...]
    #: the subset of ``kwonly`` without a default (call-required).
    kwonly_required: tuple[str, ...]
    has_vararg: bool
    has_kwarg: bool
    #: parameter name -> literal default (only literal defaults appear).
    default_literals: dict = field(default_factory=dict, compare=False)
    is_static: bool = False
    is_classmethod: bool = False
    is_abstract: bool = False

    @property
    def callable_positional(self) -> tuple[str, ...]:
        """Positional parameters as a caller sees them (implicit self/cls
        stripped)."""
        if self.is_static or not self.positional:
            return self.positional
        return self.positional[1:]


def _decorator_names(node) -> tuple[str, ...]:
    names = []
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted_name(target)
        if name:
            names.append(name)
    return tuple(names)


def funcsig(node: ast.FunctionDef | ast.AsyncFunctionDef) -> FuncSig:
    """Extract a :class:`FuncSig` from a function definition node."""
    args = node.args
    positional = tuple(p.arg for p in (*args.posonlyargs, *args.args))
    defaults = args.defaults
    literals: dict = {}
    for pname, default in zip(positional[len(positional) - len(defaults):], defaults):
        value = _literal(default)
        if value is not NOT_LITERAL:
            literals[pname] = value
    kwonly = tuple(p.arg for p in args.kwonlyargs)
    kwonly_required = tuple(
        p.arg for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is None
    )
    for p, d in zip(args.kwonlyargs, args.kw_defaults):
        if d is not None:
            value = _literal(d)
            if value is not NOT_LITERAL:
                literals[p.arg] = value
    decorators = _decorator_names(node)
    return FuncSig(
        name=node.name,
        lineno=node.lineno,
        positional=positional,
        pos_defaults=len(defaults),
        kwonly=kwonly,
        kwonly_required=kwonly_required,
        has_vararg=args.vararg is not None,
        has_kwarg=args.kwarg is not None,
        default_literals=literals,
        is_static=any(d.split(".")[-1] == "staticmethod" for d in decorators),
        is_classmethod=any(d.split(".")[-1] == "classmethod" for d in decorators),
        is_abstract=any(d.split(".")[-1] == "abstractmethod" for d in decorators),
    )


@dataclass
class ClassInfo:
    """One class definition with resolved-where-possible bases."""

    name: str
    qualname: str  # "<module>.<name>"
    module: "ModuleInfo"
    lineno: int
    col: int
    #: base expressions resolved through the module's imports
    #: (``"repro.walks.vectorized.StepperBase"``, ``"abc.ABC"``, ...).
    bases: tuple[str, ...]
    methods: dict[str, FuncSig]
    decorators: tuple[str, ...]


@dataclass
class Registration:
    """A component registration, whatever syntax produced it."""

    family: str
    name: str | None  # None when the name is not a literal
    aliases: tuple[str, ...]
    #: qualname of the registered class when resolvable, else None.
    target: str | None
    #: literal ``param_spec`` capability, when declared literally.
    param_spec: dict | None
    replace: bool
    module: "ModuleInfo"
    lineno: int
    col: int


class ModuleInfo:
    """One parsed source file plus the lookup tables rules need."""

    def __init__(self, path: Path, relpath: str, modname: str, tree: ast.Module, source: str):
        self.path = path
        self.relpath = relpath  # posix-style, as reported in findings
        self.modname = modname
        self.tree = tree
        self.imports: dict[str, str] = {}  # local name -> dotted origin
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FuncSig] = {}
        self.registrations: list[Registration] = []
        self.suppressions: dict[int, set[str]] = self._scan_suppressions(source)
        self._index()

    # -- construction ---------------------------------------------------
    def _scan_suppressions(self, source: str) -> dict[int, set[str]]:
        """``# repro-lint: ignore[RPR001,RPR006]`` -> {line: codes}."""
        out: dict[int, set[str]] = {}
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            match = token.type == tokenize.COMMENT and _SUPPRESSION.search(token.string)
            if match:
                codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
                out.setdefault(token.start[0], set()).update(codes)
        return out

    def _index(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = f"{base}.{alias.name}"
        for node in self.tree.body:
            self._index_statement(node)

    def _import_base(self, node: ast.ImportFrom) -> str | None:
        if not node.level:
            return node.module
        # relative import: resolve against this module's package
        parts = self.modname.split(".")
        drop = node.level if self.path.name == "__init__.py" else node.level
        # a module's package is everything but its last component, except
        # for packages themselves (__init__.py), whose package is modname
        if self.path.name != "__init__.py":
            parts = parts[:-1]
        if drop - 1 > 0:
            parts = parts[: len(parts) - (drop - 1)] if drop - 1 <= len(parts) else []
        base = ".".join(parts)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base or None

    def _index_statement(self, node: ast.stmt, prefix: str = "") -> None:
        if isinstance(node, ast.ClassDef):
            bases = tuple(
                resolved
                for b in node.bases
                if (resolved := self._resolve_expr_name(b)) is not None
            )
            info = ClassInfo(
                name=node.name,
                qualname=f"{self.modname}.{node.name}",
                module=self,
                lineno=node.lineno,
                col=node.col_offset,
                bases=bases,
                methods={
                    child.name: funcsig(child)
                    for child in node.body
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                },
                decorators=_decorator_names(node),
            )
            self.classes[node.name] = info
            self._collect_decorator_registrations(node, info)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.functions[node.name] = funcsig(node)
            self._collect_decorator_registrations(node, None)
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            self._collect_call_registration(node.value)
        elif isinstance(node, (ast.If, ast.Try)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._index_statement(child)

    def _resolve_expr_name(self, node: ast.AST) -> str | None:
        name = dotted_name(node)
        if name is None:
            return None
        return self.resolve(name)

    def resolve(self, name: str) -> str:
        """Fully-qualify ``name`` through this module's imports.

        Locally defined symbols resolve to ``<modname>.<name>``; imported
        symbols to their origin; everything else is returned unchanged.
        """
        head, _, tail = name.partition(".")
        if head in self.imports:
            origin = self.imports[head]
            return f"{origin}.{tail}" if tail else origin
        if head in self.classes or head in self.functions:
            return f"{self.modname}.{name}"
        return name

    # -- registrations --------------------------------------------------
    def _registration_family(self, func: ast.AST) -> str | None:
        """Family for a decorator/call target, or None if not a registration."""
        name = dotted_name(func)
        if name is None:
            return None
        leaf = name.split(".")[-1]
        if leaf == "register":
            # <X>_REGISTRY.register(...) — family from the variable name
            owner = name.split(".")[-2] if "." in name else None
            return REGISTRY_FAMILIES.get(owner or "")
        return REGISTRY_FAMILIES.get(leaf)

    def _collect_decorator_registrations(self, node, info: ClassInfo | None) -> None:
        for dec in node.decorator_list:
            if not isinstance(dec, ast.Call):
                continue
            family = self._registration_family(dec.func)
            if family is None:
                continue
            reg = self._registration_from_call(dec, family, skip_target=True)
            reg.target = info.qualname if info is not None else None
            self.registrations.append(reg)

    def _collect_call_registration(self, call: ast.Call) -> None:
        family = self._registration_family(call.func)
        if family is None:
            return
        self.registrations.append(self._registration_from_call(call, family))

    def _registration_from_call(
        self, call: ast.Call, family: str, *, skip_target: bool = False
    ) -> Registration:
        name = None
        if call.args:
            value = _literal(call.args[0])
            if isinstance(value, str):
                name = value.strip().lower()
        target = None
        if not skip_target and len(call.args) >= 2:
            target_name = dotted_name(call.args[1])
            if target_name is not None:
                target = self.resolve(target_name)
        aliases: tuple[str, ...] = ()
        param_spec = None
        replace = False
        for kw in call.keywords:
            if kw.arg == "aliases":
                value = _literal(kw.value)
                if isinstance(value, (tuple, list)):
                    aliases = tuple(str(a).strip().lower() for a in value)
            elif kw.arg == "param_spec":
                value = _literal(kw.value)
                if isinstance(value, dict):
                    param_spec = value
            elif kw.arg == "replace":
                replace = bool(_literal(kw.value) is True)
        return Registration(
            family=family,
            name=name,
            aliases=aliases,
            target=target,
            param_spec=param_spec,
            replace=replace,
            module=self,
            lineno=call.lineno,
            col=call.col_offset,
        )

    # -- convenience ----------------------------------------------------
    def walk(self):
        """``ast.walk`` over the module body."""
        return ast.walk(self.tree)

    def __repr__(self) -> str:
        return f"ModuleInfo({self.relpath!r}, modname={self.modname!r})"


def module_name_for(path: Path) -> str:
    """Dotted module name, walking up through ``__init__.py`` packages."""
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) if parts else path.stem


class ProjectIndex:
    """Cross-module lookups over a set of parsed :class:`ModuleInfo`."""

    def __init__(self, modules: list[ModuleInfo]):
        self.modules = modules
        self.classes: dict[str, ClassInfo] = {}
        for module in modules:
            for info in module.classes.values():
                self.classes[info.qualname] = info
        self.registrations: list[Registration] = [
            reg for module in modules for reg in module.registrations
        ]

    # -- class graph ----------------------------------------------------
    def lookup_class(self, qualname: str | None) -> ClassInfo | None:
        if qualname is None:
            return None
        return self.classes.get(qualname)

    def base_chain(self, info: ClassInfo) -> tuple[list[ClassInfo], bool]:
        """Project-resolvable ancestors (nearest first) and completeness.

        ``complete`` is False when any base anywhere up the chain could
        not be resolved inside the parsed file set (external classes,
        dynamic bases) — callers should then skip "missing method"
        style judgements.
        """
        out: list[ClassInfo] = []
        complete = True
        seen = {info.qualname}
        frontier = [info]
        while frontier:
            current = frontier.pop(0)
            for base in current.bases:
                if base in KNOWN_EXTERNAL_BASES:
                    continue
                resolved = self.classes.get(base)
                if resolved is None:
                    complete = False
                    continue
                if resolved.qualname in seen:
                    continue
                seen.add(resolved.qualname)
                out.append(resolved)
                frontier.append(resolved)
        return out, complete

    def find_method(self, info: ClassInfo, name: str) -> tuple[ClassInfo, FuncSig] | None:
        """Nearest definition of ``name`` in ``info``'s project MRO."""
        if name in info.methods:
            return info, info.methods[name]
        chain, _ = self.base_chain(info)
        for ancestor in chain:
            if name in ancestor.methods:
                return ancestor, ancestor.methods[name]
        return None

    def inherited_method(self, info: ClassInfo, name: str) -> tuple[ClassInfo, FuncSig] | None:
        """Nearest *ancestor* definition of ``name`` (excluding ``info``)."""
        chain, _ = self.base_chain(info)
        for ancestor in chain:
            if name in ancestor.methods:
                return ancestor, ancestor.methods[name]
        return None

    def derives_from(self, info: ClassInfo, qualname_leaf: str) -> bool | None:
        """Does ``info`` subclass a class whose (qual)name ends in
        ``qualname_leaf``?

        Returns True/False when the chain is fully resolved, None when an
        unresolved base leaves the answer unknowable.
        """
        chain, complete = self.base_chain(info)
        for candidate in (info, *chain):
            for base in (candidate.qualname, *candidate.bases):
                if base == qualname_leaf or base.endswith(f".{qualname_leaf}"):
                    return True
        return False if complete else None


def relpath_matches(relpath: str, suffixes: tuple[str, ...]) -> bool:
    """True when ``relpath`` names one of the modules in ``suffixes``.

    Matching is by posix path suffix on whole components, so a rule
    scoped to ``"serving/store.py"`` fires on
    ``src/repro/serving/store.py`` and on a fixture's
    ``serving/store.py`` but not on ``notserving/store.py``.

    An entry ending in ``"/"`` scopes a whole package: ``"walks/kernels/"``
    fires on every module whose *directory* path contains those
    components in order (``src/repro/walks/kernels/numpy_backend.py``),
    which plain suffix matching cannot express — the filename always
    occupies the final components.
    """
    parts = PurePosixPath(relpath).parts
    dirs = parts[:-1]
    for suffix in suffixes:
        want = PurePosixPath(suffix).parts
        if suffix.endswith("/"):
            if any(
                dirs[i : i + len(want)] == want
                for i in range(len(dirs) - len(want) + 1)
            ):
                return True
        elif len(parts) >= len(want) and parts[-len(want):] == want:
            return True
    return False
