"""Rule ``dtype``: word-pipeline ndarray constructors pin their dtype.

The SIMD word pipeline is pure uint64 end to end; numpy's default
dtypes (float64 for ``zeros``/``ones``/``full``, platform int for
``array`` of ints) silently upcast the first time a constructor forgets
``dtype=``, and the bug surfaces as a wrong *result* (XORs on floats,
truncated shifts) far from the construction site.  In the word-pipeline
modules every array constructor must therefore pass an explicit
``dtype=`` keyword.  ``*_like`` constructors inherit their prototype's
dtype and are exempt, as are pure index producers (``flatnonzero``,
``nonzero``) whose integer dtype is guaranteed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.findings import (
    Finding,
    Project,
    Rule,
    SourceFile,
    call_keywords,
    dotted_name,
    import_aliases,
)

#: Files (relpath suffixes) carrying the uint64 word-pipeline
#: discipline.
SCOPED_FILES = (
    "engines/jit.py",
    "engines/simd.py",
    "engines/summary.py",
    "faults/batch.py",
)

#: numpy constructors whose result dtype is ambient unless pinned.
CONSTRUCTORS = frozenset({
    "zeros", "ones", "empty", "full", "array", "asarray",
    "ascontiguousarray", "asfortranarray", "frombuffer", "fromiter",
    "fromstring", "arange", "linspace", "eye", "identity",
})


def in_scope(file: SourceFile) -> bool:
    return any(file.relpath.endswith(suffix) for suffix in SCOPED_FILES)


class DtypeRule(Rule):
    id = "dtype"
    description = ("ndarray constructors in the word-pipeline modules "
                   "(engines/jit.py, engines/simd.py, "
                   "engines/summary.py, faults/batch.py) must pass an "
                   "explicit dtype=")

    def check_file(self, project: Project,
                   file: SourceFile) -> Iterator[Finding]:
        if not in_scope(file):
            return
        numpy_mods, numpy_members = import_aliases(file.tree, "numpy")
        member_map = {bound: original
                      for bound, original in numpy_members}
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if len(parts) == 2 and parts[0] in numpy_mods:
                constructor = parts[1]
            elif len(parts) == 1 and parts[0] in member_map:
                constructor = member_map[parts[0]]
            else:
                continue
            if constructor not in CONSTRUCTORS:
                continue
            if "dtype" in call_keywords(node):
                continue
            # A second positional argument covers np.full(shape, fill)
            # only; dtype positionally is rare and unreadable -- still
            # require the keyword.
            yield project.finding(
                self.id, file, node,
                f"np.{constructor}(...) without an explicit dtype=: "
                f"the default dtype silently breaks the uint64 word "
                f"pipeline (int64/float upcasts change XOR/shift "
                f"semantics); pin it")


RULE = DtypeRule()

__all__ = ["DtypeRule", "RULE", "CONSTRUCTORS", "SCOPED_FILES"]
