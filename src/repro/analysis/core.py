"""Lint engine: findings, rule base class, registry, and the runner.

The engine is two-phase. Phase one parses every target file into a
:class:`~repro.analysis.project.ModuleInfo` and assembles the
:class:`~repro.analysis.project.ProjectIndex`; phase two hands each rule
the whole project (once, via :meth:`LintRule.check_project`) and each
module (via :meth:`LintRule.check_module`). Rules therefore see
cross-file facts — class hierarchies, registrations — not just one AST.

Rules are components of :data:`LINT_REGISTRY`, the same
:class:`repro.registry.Registry` machinery that hosts models, samplers
and codecs, so third-party rules arrive through :func:`register_rule`
and are selectable by code or name from the CLI with no engine edits.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError
from repro.registry import Registry

#: Findings at these severities fail the lint unconditionally; ``warn``
#: findings fail only against a baseline (new-debt detection).
SEVERITIES = ("error", "warn")


class AnalysisError(ReproError):
    """A lint rule or the lint engine was misused or misconfigured."""


#: The rule registry. ``home`` points at the built-in rules module so the
#: first ``LINT_REGISTRY.create(...)`` / ``names()`` call loads RPR001-006
#: lazily, exactly like the sampler and codec registries.
LINT_REGISTRY = Registry(
    "lint rule", error_cls=AnalysisError, home="repro.analysis.rules"
)


@dataclass(frozen=True)
class Finding:
    """One diagnostic, addressable and fingerprint-stable.

    The fingerprint (:meth:`key`) deliberately excludes the line number:
    unrelated edits move lines constantly, and a baseline keyed on
    position would go stale on every commit. Identity is
    (code, file, message); multiple same-message findings in one file are
    baselined by count.
    """

    code: str
    rule: str
    severity: str
    path: str  # posix-style path relative to the lint root
    line: int
    col: int
    message: str

    def key(self) -> tuple[str, str, str]:
        return (self.code, self.path, self.message)

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} {self.severity}: {self.message} [{self.rule}]"
        )

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class LintRule:
    """Base class for lint rules.

    Subclasses set ``code`` (stable ``RPR...``/``RPX...`` identifier,
    unique across the registry), ``severity`` (``"error"`` or
    ``"warn"``) and implement :meth:`check_module` and/or
    :meth:`check_project`, yielding findings built with
    :meth:`finding`. ``name`` is injected at registration time from the
    registry name, so one rule class could in principle be registered
    under several names/configs.
    """

    code = "RPR000"
    severity = "error"
    name = "unnamed"  # set by the registry factory
    description = ""

    def check_module(self, module, project):
        """Yield findings for one module. Default: none."""
        return ()

    def check_project(self, project):
        """Yield findings needing the whole project. Default: none."""
        return ()

    # -- helpers --------------------------------------------------------
    def finding(self, module, node, message: str, *, severity: str | None = None) -> Finding:
        """Build a :class:`Finding` anchored at ``node`` (or line 1)."""
        line = getattr(node, "lineno", 1) if node is not None else 1
        col = getattr(node, "col_offset", getattr(node, "col", 0)) + 1 if node is not None else 1
        return Finding(
            code=self.code,
            rule=self.name,
            severity=severity or self.severity,
            path=module.relpath,
            line=line,
            col=col,
            message=message,
        )


def register_rule(name: str, *, code: str | None = None, aliases=(), replace: bool = False):
    """Class decorator registering a :class:`LintRule` subclass.

    ``code`` overrides the class attribute; the registered name becomes
    the rule's ``name``. Codes must be unique across registered rules —
    ``--select RPR004`` must be unambiguous.
    """

    def _register(cls):
        if not (isinstance(cls, type) and issubclass(cls, LintRule)):
            raise AnalysisError(
                f"@register_rule target must be a LintRule subclass, got {cls!r}"
            )
        if code is not None:
            cls.code = code
        cls.name = name
        if cls.severity not in SEVERITIES:
            raise AnalysisError(
                f"rule {name!r}: severity must be one of {SEVERITIES}, "
                f"got {cls.severity!r}"
            )
        LINT_REGISTRY.register(
            name,
            cls,
            aliases=aliases,
            replace=replace,
            code=cls.code,
            severity=cls.severity,
        )
        return cls

    return _register


@dataclass
class LintReport:
    """Outcome of one :func:`run_lint` pass."""

    findings: list[Finding]
    #: findings suppressed by the baseline (still real, just accepted)
    baselined: list[Finding]
    #: rule names that ran, in registry order
    rules: list[str]
    #: number of files parsed
    files: int
    #: files that failed to parse, as (path, message) pairs — these are
    #: engine-level errors and always fail the lint.
    parse_errors: list[tuple[str, str]]
    #: baseline fingerprint -> the part of its count no live finding used
    unused_baseline: dict[tuple[str, str, str], int]

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warn"]

    def failed(self, *, baseline_mode: bool) -> bool:
        """Should the CLI exit nonzero?

        Errors and parse failures always fail. Warnings fail only in
        baseline mode, where every finding in ``findings`` is by
        construction *new* relative to the committed baseline; so does
        baseline budget that no live finding used.
        """
        if self.parse_errors or self.errors:
            return True
        return baseline_mode and bool(self.warnings or self.unused_baseline)


def iter_python_files(paths, *, root: Path) -> list[Path]:
    """Expand ``paths`` (files or directories) to sorted ``*.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            out.update(p for p in path.rglob("*.py") if p.is_file())
        elif path.is_file():
            out.add(path)
        else:
            raise AnalysisError(f"lint path does not exist: {raw}")
    return sorted(out)


def _instantiate_rules(select, ignore) -> list[LintRule]:
    """Resolve ``--select`` / ``--ignore`` tokens (codes or names)."""
    from repro.analysis.project import ProjectIndex  # noqa: F401  (home import cycle guard)

    names = LINT_REGISTRY.names()  # triggers the lazy home import
    by_token: dict[str, str] = {}
    rules: list[tuple[str, type]] = []
    for name in names:
        entry = LINT_REGISTRY.entry(name)
        cls = entry.obj
        rules.append((name, cls))
        by_token[name.lower()] = name
        code = entry.capabilities.get("code", getattr(cls, "code", ""))
        if code:
            by_token[str(code).lower()] = name

    def _resolve(tokens, flag):
        chosen = set()
        for token in tokens or ():
            key = str(token).strip().lower()
            if key not in by_token:
                raise AnalysisError(
                    f"{flag}: unknown rule {token!r} "
                    f"(known: {', '.join(sorted(set(by_token)))})"
                )
            chosen.add(by_token[key])
        return chosen

    selected = _resolve(select, "--select")
    ignored = _resolve(ignore, "--ignore")
    active = []
    for name, cls in rules:
        if selected and name not in selected:
            continue
        if name in ignored:
            continue
        rule = cls()
        rule.name = name
        active.append(rule)
    return active


def run_lint(
    paths,
    *,
    root: Path | None = None,
    select=None,
    ignore=None,
    baseline: dict | None = None,
) -> LintReport:
    """Run the active rules over ``paths`` and return a report.

    ``baseline`` is the mapping produced by
    :func:`repro.analysis.baseline.load_baseline`; matching findings are
    moved to ``report.baselined`` up to their recorded counts, and the
    counts left over land in ``report.unused_baseline``.
    """
    from repro.analysis.baseline import split_baseline
    from repro.analysis.project import ModuleInfo, ProjectIndex, module_name_for

    root = Path(root) if root is not None else Path.cwd()
    files = iter_python_files(paths, root=root)
    modules: list[ModuleInfo] = []
    parse_errors: list[tuple[str, str]] = []
    for path in files:
        try:
            rel = path.relative_to(root)
        except ValueError:
            rel = path
        relpath = rel.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, UnicodeDecodeError, ValueError) as exc:
            parse_errors.append((relpath, str(exc)))
            continue
        modules.append(ModuleInfo(path, relpath, module_name_for(path), tree, source))

    project = ProjectIndex(modules)
    rules = _instantiate_rules(select, ignore)

    findings: list[Finding] = []
    for rule in rules:
        for finding in rule.check_project(project):
            findings.append(finding)
        for module in modules:
            for finding in rule.check_module(module, project):
                findings.append(finding)

    # honour inline suppressions
    by_path = {m.relpath: m for m in modules}
    kept = []
    for finding in findings:
        module = by_path.get(finding.path)
        if module is not None and module.is_suppressed(finding.line, finding.code):
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.code, f.message))

    new, baselined, unused = split_baseline(kept, baseline or {})
    return LintReport(
        findings=new,
        baselined=baselined,
        rules=[rule.name for rule in rules],
        files=len(modules),
        parse_errors=parse_errors,
        unused_baseline=unused,
    )
