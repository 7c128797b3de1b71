"""Lint engine: findings, the rule base class, and the runner.

The engine is two-phase. Phase one parses every target file into a
:class:`~repro.analysis.project.ModuleInfo` and assembles the
:class:`~repro.analysis.project.ProjectIndex`; phase two hands each rule
of :data:`repro.analysis.rules.RULES` the whole project (once, via
:meth:`LintRule.check_project`) and each module (via
:meth:`LintRule.check_module`). Rules therefore see cross-file facts —
class hierarchies, registrations — not just one AST.

One policy: every finding fails the lint unless its line carries
``# repro-lint: ignore[CODE,...]``, and a suppression that silences
nothing is itself a finding, so a stale one cannot hide the next
regression on its line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError

#: the rule name of the finding a suppression that silences nothing gets
UNUSED_SUPPRESSION = "unused-suppression"


class AnalysisError(ReproError):
    """A lint rule or the lint engine was misused or misconfigured."""


@dataclass(frozen=True)
class Finding:
    """One diagnostic, anchored at a file position."""

    code: str
    rule: str
    path: str  # posix-style path relative to the lint root
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message} [{self.rule}]"


class LintRule:
    """Base class for lint rules.

    Subclasses set ``code`` (stable ``RPR...`` identifier) and ``name``
    and implement :meth:`check_module` and/or :meth:`check_project`,
    yielding findings built with :meth:`finding`.
    """

    code = "RPR000"
    name = "unnamed"

    def check_module(self, module, project):
        """Yield findings for one module. Default: none."""
        return ()

    def check_project(self, project):
        """Yield findings needing the whole project. Default: none."""
        return ()

    def finding(self, module, node, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            code=self.code,
            rule=self.name,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", getattr(node, "col", 0)) + 1,
            message=message,
        )


@dataclass
class LintReport:
    """Outcome of one :func:`run_lint` pass."""

    #: every unsuppressed finding, unused suppressions included
    findings: list[Finding]
    #: number of files parsed
    files: int
    #: files that failed to parse, as (path, message) pairs
    parse_errors: list[tuple[str, str]]

    @property
    def failed(self) -> bool:
        return bool(self.findings or self.parse_errors)


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


def run_lint(paths, *, root: Path | None = None) -> LintReport:
    """Run every rule of :data:`~repro.analysis.rules.RULES` over ``paths``."""
    from repro.analysis.project import ModuleInfo, ProjectIndex, module_name_for
    from repro.analysis.rules import RULES

    root = Path(root) if root is not None else Path.cwd()
    modules: list[ModuleInfo] = []
    parse_errors: list[tuple[str, str]] = []
    for path in iter_python_files(paths, root=root):
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
    findings: list[Finding] = []
    for rule in RULES:
        findings.extend(rule.check_project(project))
        for module in modules:
            findings.extend(rule.check_module(module, project))

    by_path = {m.relpath: m for m in modules}
    used: set[tuple[str, int, str]] = set()
    kept = []
    for finding in findings:
        module = by_path.get(finding.path)
        if module is not None and finding.code in module.suppressions.get(finding.line, ()):
            used.add((finding.path, finding.line, finding.code))
        else:
            kept.append(finding)
    for module in modules:
        for line, codes in module.suppressions.items():
            for code in sorted(codes):
                if (module.relpath, line, code) not in used:
                    kept.append(Finding(
                        code, UNUSED_SUPPRESSION, module.relpath, line, 1,
                        f"ignore[{code}] silences no finding on this line; remove it",
                    ))
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.code, f.message))
    return LintReport(findings=kept, files=len(modules), parse_errors=parse_errors)
