"""``repro.devtools.lint`` -- the project-invariant static analyzer.

Run it over the source tree::

    python -m repro.devtools.lint src/          # or: repro-lint src/

Exit status 0 means no findings; 1 means findings were printed; 2 is a
usage error.  The rules encode invariants specific to this project --
see each module in :mod:`repro.devtools.lint.rules` -- and the
sanctioned exceptions live in the explicit allowlist of
:mod:`repro.devtools.lint.allowlist` (never a blanket file or rule
skip).  The tier-1 suite runs the same scan as a pytest check
(``tests/devtools/test_tree_clean.py``), so CI fails on findings twice
over.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.devtools.lint.allowlist import (
    DEFAULT_ALLOWLIST,
    Allow,
    AllowlistResult,
    apply_allowlist,
)
from repro.devtools.lint.findings import (
    Finding,
    Project,
    Rule,
    SourceFile,
    iter_python_files,
    unique_findings,
)


def scan(paths: Sequence[Path]) -> Project:
    """Parse the tree and attach it to a :class:`Project`."""
    roots = [path if path.is_dir() else path.parent for path in paths]
    root = Path(roots[0]) if roots else Path.cwd()
    project = Project(root=root)
    for file_path in iter_python_files(paths):
        project.files.append(SourceFile.parse(file_path, root))
    return project


def run_rules(project: Project,
              rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """All raw findings of ``rules`` over a scanned project."""
    if rules is None:
        from repro.devtools.lint.rules import ALL_RULES
        rules = ALL_RULES
    findings: List[Finding] = []
    for rule in rules:
        for file in project.files:
            findings.extend(rule.check_file(project, file))
    return unique_findings(findings)


def run_lint(paths: Sequence[Path],
             rules: Optional[Sequence[Rule]] = None,
             allowlist: Optional[Iterable[Allow]] = None) -> AllowlistResult:
    """Scan, run every rule, and apply the allowlist.

    This is the library entry point the pytest check and the CLI
    share; ``result.findings`` is what fails the build.
    """
    project = scan(paths)
    raw = run_rules(project, rules=rules)
    entries = DEFAULT_ALLOWLIST if allowlist is None else allowlist
    return apply_allowlist(raw, project.files, entries)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=("Project-invariant static analyzer: determinism, "
                     "uint64 dtype discipline, task pickle-safety."))
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)")
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--no-allowlist", action="store_true",
        help="report sanctioned findings too (audit mode)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rules and exit")
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress the summary line (findings still print)")
    options = parser.parse_args(argv)

    from repro.devtools.lint.rules import ALL_RULES, rules_by_id
    if options.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}: {rule.description}")
        return 0

    rules: Sequence[Rule] = ALL_RULES
    if options.select:
        table = rules_by_id()
        selected = [token.strip() for token in options.select.split(",")
                    if token.strip()]
        unknown = [token for token in selected if token not in table]
        if unknown:
            parser.error(
                f"unknown rule(s) {', '.join(unknown)}; choose from "
                f"{', '.join(table)}")
        rules = [table[token] for token in selected]

    paths = [Path(path) for path in options.paths]
    missing = [path for path in paths if not path.exists()]
    if missing:
        parser.error(f"no such path: "
                     f"{', '.join(str(p) for p in missing)}")

    allowlist: Iterable[Allow] = \
        () if options.no_allowlist else DEFAULT_ALLOWLIST
    result = run_lint(paths, rules=rules, allowlist=allowlist)
    for finding in result.findings:
        print(finding.render())
    if not options.quiet:
        scanned = sum(1 for _ in iter_python_files(paths))
        suppressed = (f", {len(result.suppressed)} allowlisted"
                      if result.suppressed else "")
        print(f"repro-lint: {len(result.findings)} finding(s) in "
              f"{scanned} file(s){suppressed}", file=sys.stderr)
    return 1 if result.findings else 0


__all__ = ["main", "run_lint", "run_rules", "scan"]
