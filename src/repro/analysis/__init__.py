"""reprolint: repo-specific static analysis for the determinism, locking,
and protocol contracts.

The estimators in this library are trustworthy because every layer
preserves seeded, bit-identical sampling — and the serving stack piles
threads, worker processes, and a readers–writer gate on top of that
contract.  This package checks those invariants at *parse* time,
before an integration test has to catch them at runtime::

    repro lint src/                       # via the main CLI
    python -m repro.analysis src/          # standalone
    repro lint src/ --format json          # machine-readable (CI artifact)
    repro lint src/ --select R005          # one rule
    repro lint src/ --list-rules           # the rule table

Suppress a finding where the code is deliberately outside a contract::

    data = pickle.load(fh)  # reprolint: disable=R005 - trusted local snapshot

Adding a rule: subclass :class:`~repro.analysis.engine.Rule`, give it an
``id``/``name``/``description``, implement ``check_module`` (one file at
a time), and append it to :func:`~repro.analysis.rules.default_rules`.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from repro.analysis.engine import (
    Finding,
    LintReport,
    Project,
    Rule,
    SourceModule,
    lint_paths,
    load_project,
    resolve_rules,
    run_rules,
)
from repro.analysis.rules import default_rules


def build_lint_parser(
    parser: Optional[argparse.ArgumentParser] = None,
) -> argparse.ArgumentParser:
    """The lint argument surface (shared by ``repro lint`` and ``-m``)."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro lint",
            description="repo-specific static analysis (reprolint)",
        )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--select", nargs="+", default=None, metavar="RULE",
                        help="run only these rule ids (e.g. R001 R007)")
    parser.add_argument("--disable", nargs="+", default=None, metavar="RULE",
                        help="skip these rule ids")
    parser.add_argument("--output", default=None,
                        help="also write the report to this file")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    return parser


def render_rule_table(rules: Optional[Sequence[Rule]] = None) -> str:
    rows = rules if rules is not None else default_rules()
    width = max(len(rule.name) for rule in rows)
    lines = [
        f"{rule.id}  {rule.name.ljust(width)}  {rule.description}"
        for rule in rows
    ]
    return "\n".join(lines)


def run_lint(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code (0 = clean)."""
    args = build_lint_parser().parse_args(argv)
    return run_lint_from_args(args)


def _split_rule_ids(values: Optional[Sequence[str]]) -> Optional[List[str]]:
    # the pragma grammar is comma-separated (disable=R001,R002), so accept
    # commas on the CLI too alongside space-separated ids
    if values is None:
        return None
    return [rule for value in values for rule in value.split(",") if rule]


def run_lint_from_args(args: argparse.Namespace) -> int:
    """Run lint for parsed arguments (the ``repro lint`` hook)."""
    if args.list_rules:
        print(render_rule_table())  # noqa: T201 - CLI output
        return 0
    try:
        report = lint_paths(
            args.paths,
            select=_split_rule_ids(args.select),
            disable=_split_rule_ids(args.disable),
        )
    except ValueError as error:  # unknown rule id in --select/--disable
        print(f"error: {error}")  # noqa: T201 - CLI output
        return 2
    rendered = (
        report.render_json() if args.format == "json" else report.render_text()
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    print(rendered)  # noqa: T201 - CLI output
    return report.exit_code


__all__ = [
    "Finding",
    "LintReport",
    "Project",
    "Rule",
    "SourceModule",
    "build_lint_parser",
    "default_rules",
    "lint_paths",
    "load_project",
    "render_rule_table",
    "resolve_rules",
    "run_lint",
    "run_lint_from_args",
    "run_rules",
]
