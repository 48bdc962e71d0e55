"""Rule ``pickle``: campaign tasks stay process-pool safe.

The process pool ships every distinct task to the workers by
pickling it once per worker; a task carrying a lambda, a local
closure, or an open OS handle pickles never (lambdas, nested
functions) or wrongly (file positions, sockets), and the failure
surfaces only when someone first passes ``num_workers > 1`` -- often in
CI, long after the field landed.  This rule keeps the hazard out at
authoring time: for every ``CampaignTask`` subclass in the scanned
tree it flags

* dataclass fields whose *default* is a lambda or a nested function
  reference;
* dataclass fields whose annotation names an unpicklable family
  (``Callable``, ``IO``/``TextIO``/``BinaryIO``, generators, locks,
  sockets) -- duck-typed escape hatches belong in
  ``build_worker_state``, built worker-side;
* ``self.<attr> = lambda ...`` / ``self.<attr> = open(...)``
  assignments anywhere in the class body (the non-dataclass route to
  the same unpicklable state).

The persistent pools widened the blast radius: state stored in
:mod:`repro.campaigns.worker_cache` outlives single chunks inside
long-lived worker processes (and tasks themselves cross the process
boundary through the pool's incremental shipping), so
in the worker-cache module **every** class is checked -- not just
``CampaignTask`` subclasses.  A lambda smuggled into a cached
workspace would otherwise survive until some unrelated chunk, hours
into a campaign, first trips over it.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.devtools.lint.findings import (
    Finding,
    Project,
    Rule,
    SourceFile,
    dotted_name,
)

#: Root base class the rule keys on.
TASK_BASE = "CampaignTask"


def task_classes(tree: ast.Module) -> List[ast.ClassDef]:
    """ClassDefs deriving (transitively, within this file) from
    ``CampaignTask``, however the base was imported."""
    task_names: Set[str] = {TASK_BASE}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == TASK_BASE:
                    task_names.add(alias.asname or alias.name)
    found: List[ast.ClassDef] = []
    # Two passes resolve in-file subclass chains (A(CampaignTask),
    # B(A)); deeper chains converge because names only accumulate.
    for _ in range(2):
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or node in found:
                continue
            bases = {(dotted_name(base) or "").split(".")[-1]
                     for base in node.bases}
            if bases & task_names:
                found.append(node)
                task_names.add(node.name)
    return found

#: Annotation substrings that mark a field as unpicklable by design.
UNPICKLABLE_ANNOTATIONS = (
    "Callable", "LambdaType", "FunctionType", "Generator", "Iterator",
    "TextIO", "BinaryIO", "IO[", "IOBase", "Lock", "RLock", "Socket",
    "socket",
)


def _annotation_text(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return ast.dump(node)


def _unpicklable_family(annotation: ast.expr) -> Optional[str]:
    text = _annotation_text(annotation)
    for marker in UNPICKLABLE_ANNOTATIONS:
        if marker in text:
            return marker.rstrip("[")
    return None


#: Module whose every class is in scope: worker-cache state lives for
#: a whole worker process lifetime, so the same hazards apply to all
#: classes defined there, CampaignTask subclass or not.
WORKER_CACHE_MODULE = "campaigns/worker_cache.py"


class PickleSafetyRule(Rule):
    id = "pickle"
    description = ("CampaignTask subclasses (and all worker-cache "
                   "state classes) must not carry lambda, closure, or "
                   "open-handle fields (tasks are pickled to "
                   "process-pool workers; cached state outlives "
                   "chunks)")

    def check_file(self, project: Project,
                   file: SourceFile) -> Iterator[Finding]:
        for cls in self._classes_in_scope(file):
            yield from self._check_field_defaults(project, file, cls)
            yield from self._check_self_assignments(project, file, cls)

    @staticmethod
    def _classes_in_scope(file: SourceFile) -> "list[ast.ClassDef]":
        if file.relpath.endswith(WORKER_CACHE_MODULE):
            return [node for node in ast.walk(file.tree)
                    if isinstance(node, ast.ClassDef)]
        return task_classes(file.tree)

    def _check_field_defaults(self, project, file,
                              cls) -> Iterator[Finding]:
        for item in cls.body:
            if not isinstance(item, ast.AnnAssign) \
                    or not isinstance(item.target, ast.Name):
                continue
            name = item.target.id
            family = _unpicklable_family(item.annotation)
            if family is not None:
                yield project.finding(
                    self.id, file, item,
                    f"{cls.name}.{name} is annotated {family}-like: "
                    f"such fields do not survive pickling to "
                    f"process-pool workers; build it inside "
                    f"build_worker_state() instead")
            if isinstance(item.value, ast.Lambda):
                yield project.finding(
                    self.id, file, item,
                    f"{cls.name}.{name} defaults to a lambda: lambdas "
                    f"pickle never, so the process pool dies on "
                    f"the first num_workers > 1 run")

    def _check_self_assignments(self, project, file,
                                cls) -> Iterator[Finding]:
        for func in (item for item in cls.body
                     if isinstance(item, ast.FunctionDef)):
            for node in ast.walk(func):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    if isinstance(node.value, ast.Lambda):
                        yield project.finding(
                            self.id, file, node,
                            f"{cls.name}.{func.name} stores a lambda "
                            f"on self.{target.attr}: the task no "
                            f"longer pickles to process-pool workers")
                    elif isinstance(node.value, ast.Call) \
                            and dotted_name(node.value.func) == "open":
                        yield project.finding(
                            self.id, file, node,
                            f"{cls.name}.{func.name} stores an open "
                            f"file handle on self.{target.attr}: "
                            f"handles do not pickle; open (and close) "
                            f"inside run_chunk_on()")


RULE = PickleSafetyRule()

__all__ = ["PickleSafetyRule", "RULE", "UNPICKLABLE_ANNOTATIONS",
           "task_classes"]
