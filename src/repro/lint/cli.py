"""Command-line front end: ``python -m repro.lint [paths...]``.

Exit codes: 0 — clean (warnings allowed); 1 — at least one error-severity
finding; 2 — usage error.  ``--format json`` emits a machine-readable
report (schema below) for CI; the default human format is one
``path:line:col: RULE [severity] message`` line per finding.  A path
argument that does not exist is a usage error, so a mistyped directory
cannot pass the lint by linting nothing.

JSON schema (``--format json``)::

    {
      "version": 2,
      "findings": [
        {"rule": "SIM001", "severity": "error", "path": "...",
         "line": 12, "col": 5, "message": "..."},
        ...
      ],
      "counts": {"error": 2, "warning": 0},
      "files_checked": 83,
      "rules": {"SIM001": {"seconds": 0.0123}, ...}
    }

``rules`` carries cumulative per-rule wall seconds (project rules also
share the whole-program corpus-build cost), so lint cost stays visible
in the CI trajectory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.lint.engine import LintReport, Severity, all_rules, iter_py_files, run_lint

#: Schema version of the JSON report (2: adds per-rule timing).
JSON_VERSION = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Simulator-aware static analysis for the RobuSTore repro.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules (with their scope) and exit",
    )
    return parser


def _report(report: LintReport, fmt: str, out) -> None:
    findings = report.findings
    counts = {
        "error": sum(1 for f in findings if f.severity is Severity.ERROR),
        "warning": sum(1 for f in findings if f.severity is Severity.WARNING),
    }
    if fmt == "json":
        json.dump(
            {
                "version": JSON_VERSION,
                "findings": [f.to_dict() for f in findings],
                "counts": counts,
                "files_checked": report.files_checked,
                "rules": {
                    rid: {"seconds": report.rule_seconds[rid]}
                    for rid in sorted(report.rule_seconds)
                },
            },
            out,
            indent=2,
        )
        out.write("\n")
        return
    for finding in findings:
        out.write(finding.render() + "\n")
    summary = (
        f"{counts['error']} error(s), {counts['warning']} warning(s) "
        f"in {report.files_checked} file(s)"
    )
    out.write(("" if not findings else "\n") + summary + "\n")


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    rules = all_rules()
    if args.list_rules:
        for rule in rules.values():
            out.write(
                f"{rule.id} [{rule.severity.value}] ({rule.scope}) {rule.summary}\n"
            )
        return 0

    select = None
    if args.select:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
        unknown = [r for r in select if r not in rules]
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(unknown)}")

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        parser.error(f"no such file or directory: {' '.join(missing)}")
    files = list(iter_py_files(args.paths))
    if not files:
        parser.error(f"no .py files found under: {' '.join(map(str, args.paths))}")
    report = run_lint(files, select)
    _report(report, args.format, out)
    return 1 if any(f.severity is Severity.ERROR for f in report.findings) else 0
