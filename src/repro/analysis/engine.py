"""The reprolint engine: modules, pragmas, rule running, reporting.

The engine is deliberately small and dependency-free: it parses every
``.py`` file under the given paths with :mod:`ast`, attaches the raw
source lines (for pragma detection), and hands the result to each
enabled :class:`Rule`, which overrides :meth:`Rule.check_module` and
sees one :class:`SourceModule` at a time (with the whole
:class:`Project` for context).

Suppression is explicit and auditable.  A finding on line *L* is
suppressed when line *L* carries::

    # reprolint: disable=R001            (one rule)
    # reprolint: disable=R001,R007       (several)
    # reprolint: disable=R005 - trusted local snapshot file

(anything after the rule list is a free-text reason, encouraged), and a
whole file opts out of a rule with::

    # reprolint: disable-file=R002 - single-threaded by construction

on any line of the file.  Suppressed findings are counted in the
report so a build can still surface how much is being waived.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: pragma grammar: ``# reprolint: disable=R001,R002 [free-text reason]``
#: and ``disable-file=`` for file scope.  The rule list is the first
#: whitespace-free token after ``=``; everything after it is the reason.
_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*(?P<scope>disable|disable-file)=(?P<rules>[^\s]+)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation anchored to ``path:line:col``."""

    rule: str
    message: str
    path: str
    line: int
    col: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


class SourceModule:
    """One parsed source file plus its pragma annotations."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        #: line number → rule ids disabled on that line ("*" = all)
        self.line_pragmas: Dict[int, Set[str]] = {}
        #: rule ids disabled for the whole file ("*" = all)
        self.file_pragmas: Set[str] = set()
        for lineno, line in enumerate(self.lines, 1):
            match = _PRAGMA_RE.search(line)
            if match is None:
                continue
            rules = {rule.strip() for rule in match.group("rules").split(",")}
            rules.discard("")
            if match.group("scope") == "disable-file":
                self.file_pragmas |= rules
            else:
                self.line_pragmas.setdefault(lineno, set()).update(rules)

    @property
    def basename(self) -> str:
        return self.path.rsplit("/", 1)[-1]

    def suppressed(self, finding: Finding) -> bool:
        if finding.rule in self.file_pragmas or "*" in self.file_pragmas:
            return True
        rules = self.line_pragmas.get(finding.line, ())
        return finding.rule in rules or "*" in rules


class Project:
    """Every module of one lint run, keyed by path."""

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        self.modules = list(modules)
        self._by_path = {module.path: module for module in self.modules}

    def __iter__(self) -> Iterator[SourceModule]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)

    def module(self, path: str) -> Optional[SourceModule]:
        return self._by_path.get(path.replace("\\", "/"))


class Rule:
    """Base class: one contract checked per module or across the project."""

    #: short stable identifier, e.g. ``"R001"`` (used by pragmas/--select)
    id: str = ""
    #: one-line human name shown by ``--list-rules``
    name: str = ""
    #: what the contract is and why it exists
    description: str = ""

    def check_module(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        return ()

    # ------------------------------------------------------------------
    def finding(
        self, module: SourceModule, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            message=message,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_scanned: int = 0
    parse_errors: List[Finding] = field(default_factory=list)
    rules_run: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if (self.findings or self.parse_errors) else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "rules_run": list(self.rules_run),
            "findings": [finding.to_dict() for finding in self.findings],
            "parse_errors": [finding.to_dict() for finding in self.parse_errors],
            "suppressed": self.suppressed,
        }

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.parse_errors]
        lines += [finding.render() for finding in self.findings]
        total = len(self.findings) + len(self.parse_errors)
        summary = (
            f"reprolint: {total} finding(s) in {self.files_scanned} file(s)"
            f" ({self.suppressed} suppressed by pragma)"
        )
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# discovery + running
# ----------------------------------------------------------------------
def iter_source_files(paths: Sequence[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files taken verbatim)."""
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate in seen:
                continue
            seen.add(candidate)
            yield candidate


def load_project(paths: Sequence[str]) -> Tuple[Project, List[Finding]]:
    """Parse every source file; syntax errors become PARSE findings."""
    modules: List[SourceModule] = []
    errors: List[Finding] = []
    for path in iter_source_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as error:
            errors.append(
                Finding("PARSE", f"cannot read file: {error}", str(path), 1)
            )
            continue
        try:
            modules.append(SourceModule(str(path), source))
        except SyntaxError as error:
            errors.append(
                Finding(
                    "PARSE",
                    f"syntax error: {error.msg}",
                    str(path),
                    error.lineno or 1,
                    (error.offset or 1) - 1,
                )
            )
    return Project(modules), errors


def resolve_rules(
    rules: Sequence[Rule],
    *,
    select: Optional[Sequence[str]] = None,
    disable: Optional[Sequence[str]] = None,
) -> List[Rule]:
    """Apply ``--select`` (whitelist) then ``--disable`` (blacklist)."""
    known = {rule.id for rule in rules}
    for requested in list(select or []) + list(disable or []):
        if requested not in known:
            raise ValueError(
                f"unknown rule {requested!r}; known rules: {', '.join(sorted(known))}"
            )
    chosen = list(rules)
    if select:
        wanted = set(select)
        chosen = [rule for rule in chosen if rule.id in wanted]
    if disable:
        dropped = set(disable)
        chosen = [rule for rule in chosen if rule.id not in dropped]
    return chosen


def run_rules(project: Project, rules: Sequence[Rule]) -> Tuple[List[Finding], int]:
    """Run every rule; returns (kept findings, suppressed count)."""
    kept: List[Finding] = []
    suppressed = 0
    for rule in rules:
        raw: List[Finding] = []
        for module in project:
            raw.extend(rule.check_module(module, project))
        for finding in raw:
            module = project.module(finding.path)
            if module is not None and module.suppressed(finding):
                suppressed += 1
            else:
                kept.append(finding)
    kept.sort(key=lambda finding: finding.sort_key)
    return kept, suppressed


def lint_paths(
    paths: Sequence[str],
    *,
    rules: Optional[Sequence[Rule]] = None,
    select: Optional[Sequence[str]] = None,
    disable: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint ``paths`` with the (filtered) rule set; the one-call API."""
    from repro.analysis.rules import default_rules

    active = resolve_rules(
        list(rules) if rules is not None else default_rules(),
        select=select,
        disable=disable,
    )
    project, parse_errors = load_project(paths)
    findings, suppressed = run_rules(project, active)
    return LintReport(
        findings=findings,
        suppressed=suppressed,
        files_scanned=len(project),
        parse_errors=parse_errors,
        rules_run=[rule.id for rule in active],
    )


__all__ = [
    "Finding",
    "LintReport",
    "Project",
    "Rule",
    "SourceModule",
    "iter_source_files",
    "lint_paths",
    "load_project",
    "resolve_rules",
    "run_rules",
]
