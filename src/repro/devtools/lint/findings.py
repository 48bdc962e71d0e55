"""Core data model of the project linter.

A rule inspects the parsed source tree and yields :class:`Finding`
objects; the runner collects them, subtracts the explicit allowlist,
and renders the rest.  Everything here is pure standard library so the
linter runs on the dependency-free core install.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``rule`` is the stable rule identifier (``"determinism"``,
    ``"dtype"``, ...) the allowlist keys on; ``path`` is the file the
    violation lives in (project-relative where possible) and ``line``
    its 1-based line number, 0 for project-wide findings that have no
    single source location.
    """

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        location = f"{self.path}:{self.line}" if self.line else self.path
        return f"{location}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    """One parsed file of the scanned tree."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module

    @classmethod
    def parse(cls, path: Path, root: Path) -> "SourceFile":
        source = path.read_text(encoding="utf-8")
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        return cls(path=path, relpath=relpath, source=source,
                   tree=ast.parse(source, filename=str(path)))

    def line(self, lineno: int) -> str:
        """The 1-based source line (for allowlist snippet matching)."""
        lines = self.source.splitlines()
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1]
        return ""


@dataclass
class Project:
    """Everything a rule may look at: the parsed files of one scan."""

    root: Path
    files: List[SourceFile] = field(default_factory=list)

    def finding(self, rule: str, file: SourceFile, node: ast.AST,
                message: str) -> Finding:
        return Finding(rule=rule, path=file.relpath,
                       line=getattr(node, "lineno", 0), message=message)


class Rule:
    """Base class of one lint rule: ``check_file`` runs once per parsed
    file."""

    #: Stable identifier, used in output and allowlist entries.
    id: str = ""
    #: One-line description shown by ``--list-rules``.
    description: str = ""

    def check_file(self, project: Project,
                   file: SourceFile) -> Iterator[Finding]:
        return iter(())


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into the .py files to scan, sorted."""
    for path in paths:
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py")
                              if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            yield path
        else:
            raise FileNotFoundError(
                f"{path}: not a Python file or directory")


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_keywords(node: ast.Call) -> dict:
    """Keyword arguments of a call as ``{name: value-node}``."""
    return {kw.arg: kw.value for kw in node.keywords if kw.arg is not None}


def import_aliases(tree: ast.Module, module: str) -> Tuple[set, set]:
    """Names a module and its members are bound to in one file.

    Returns ``(module_aliases, member_aliases)``: ``import random as r``
    puts ``"r"`` in the first set; ``from random import randint as ri``
    puts ``("ri", "randint")`` pairs in the second (as tuples of bound
    name and original member name).
    """
    module_aliases = set()
    member_aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    module_aliases.add(alias.asname or alias.name)
                elif alias.name.startswith(module + "."):
                    # ``import numpy.random`` binds ``numpy``.
                    module_aliases.add((alias.asname or
                                        alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.module == module:
                for alias in node.names:
                    member_aliases.add((alias.asname or alias.name,
                                        alias.name))
    return module_aliases, member_aliases


def decorator_names(node: ast.ClassDef) -> set:
    """Dotted names of a class's decorators (call or bare)."""
    names = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted_name(target)
        if name:
            names.add(name)
    return names


def unique_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Drop duplicates, keep (path, line, rule) order stable."""
    seen = set()
    out = []
    for finding in findings:
        key = (finding.rule, finding.path, finding.line, finding.message)
        if key not in seen:
            seen.add(key)
            out.append(finding)
    return sorted(out, key=lambda f: (f.path, f.line, f.rule))


__all__ = [
    "Finding",
    "Project",
    "Rule",
    "SourceFile",
    "call_keywords",
    "decorator_names",
    "dotted_name",
    "import_aliases",
    "iter_python_files",
    "unique_findings",
]
