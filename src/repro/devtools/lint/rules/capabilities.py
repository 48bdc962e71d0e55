"""Rule ``capability``: EngineCapabilities flags match implementations.

An engine advertising ``summary=True`` without ``run_batch_summary``
(over a ``PatternBatch`` injection) crashes the first batched campaign
that selects it; the reverse -- an implemented summary pass behind a
``False`` flag -- is dead code that every consumer politely routes
around (capability gating means such an engine silently runs the
per-sequence batch forever).

The check runs twice, from two directions:

* **AST**: every direct ``SimulationEngine`` subclass in the scanned
  tree that assigns a literal ``capabilities =
  EngineCapabilities(...)`` must define exactly the methods its flags
  promise (``summary`` <=> ``run_batch_summary``).  This catches
  engines that are written but not yet registered.
* **Reflection**: every engine *registered* in
  :mod:`repro.engines.registry` is constructed against a minimal
  design and its class checked for actually-overridden methods -- the
  authoritative cross-check that also covers inheritance the AST
  cannot see.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.devtools.lint.findings import (
    Finding,
    Project,
    Rule,
    SourceFile,
    call_keywords,
    class_methods,
    dotted_name,
)

#: flag name -> methods whose overrides it promises.
FLAG_METHODS = {
    "summary": ("run_batch_summary",),
}


def _literal_flags(node: ast.Call) -> Optional[dict]:
    """``{flag: bool}`` of an ``EngineCapabilities(...)`` literal, or
    None when any value is not a plain True/False constant."""
    flags = dict.fromkeys(FLAG_METHODS, False)
    for name, value in call_keywords(node).items():
        if not (isinstance(value, ast.Constant)
                and isinstance(value.value, bool)):
            return None
        if name in flags:
            flags[name] = value.value
    if node.args:
        return None
    return flags


def _capabilities_assignment(cls: ast.ClassDef) -> Optional[ast.Call]:
    """The ``capabilities = EngineCapabilities(...)`` body assignment."""
    for item in cls.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(item, ast.Assign):
            targets, value = item.targets, item.value
        elif isinstance(item, ast.AnnAssign) and item.value is not None:
            targets, value = [item.target], item.value
        for target in targets:
            if isinstance(target, ast.Name) \
                    and target.id == "capabilities" \
                    and isinstance(value, ast.Call):
                callee = dotted_name(value.func) or ""
                if callee.split(".")[-1] == "EngineCapabilities":
                    return value
    return None


class CapabilityRule(Rule):
    id = "capability"
    description = ("EngineCapabilities flags must match the summary "
                   "methods an engine actually implements (both "
                   "directions, AST + registry reflection)")

    def check_file(self, project: Project,
                   file: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {(dotted_name(base) or "").split(".")[-1]
                     for base in node.bases}
            if "SimulationEngine" not in bases:
                continue
            call = _capabilities_assignment(node)
            if call is None:
                continue
            flags = _literal_flags(call)
            if flags is None:
                continue  # computed flags: the reflection pass decides
            methods = class_methods(node)
            yield from self._check_flags(
                project, file, node, node.name, flags,
                lambda name: name in methods)

    def _check_flags(self, project, file, node, class_name, flags,
                     implemented) -> Iterator[Finding]:
        for flag, required in FLAG_METHODS.items():
            missing = [m for m in required if not implemented(m)]
            present = [m for m in required if implemented(m)]
            if flags.get(flag) and missing:
                yield project.finding(
                    self.id, file, node,
                    f"{class_name} declares capabilities.{flag}=True "
                    f"but does not implement {', '.join(missing)}; the "
                    f"first consumer that trusts the flag will crash")
            elif not flags.get(flag) and len(present) == len(required):
                yield project.finding(
                    self.id, file, node,
                    f"{class_name} implements "
                    f"{', '.join(required)} but declares "
                    f"capabilities.{flag}=False -- dead code: every "
                    f"consumer gates on the flag and will never call it")

    # ------------------------------------------------------------------
    def check_project(self, project: Project) -> Iterator[Finding]:
        yield from check_registered_engines()
        yield from check_conditional_registration()


def _minimal_design():
    """A tiny ProtectedDesign to construct engines against."""
    from repro.circuit.fifo import SyncFIFO
    from repro.core.protected import ProtectedDesign
    return ProtectedDesign(SyncFIFO(4, 4, name="lint_probe"),
                           codes=["hamming(7,4)"], num_chains=4)


def check_registered_engines(engine_names: Optional[Tuple[str, ...]] = None
                             ) -> Iterator[Finding]:
    """Reflection pass over the live engine registry.

    Constructs each registered engine against a minimal design and
    compares its capability flags with the methods its class actually
    overrides.  ``engine_names`` narrows the check (used by the fixture
    tests to probe a deliberately inconsistent registration).
    """
    from repro.engines.base import SimulationEngine
    from repro.engines.registry import available_engines, get_engine

    names = engine_names if engine_names is not None else \
        available_engines()
    design = _minimal_design()
    for name in names:
        engine = get_engine(name, design)
        cls = type(engine)
        module = getattr(cls, "__module__", "<unknown>")
        for flag, required in FLAG_METHODS.items():
            overridden = [
                m for m in required
                if getattr(cls, m, None)
                is not getattr(SimulationEngine, m)]
            declared = bool(getattr(engine.capabilities, flag))
            if declared and len(overridden) != len(required):
                missing = sorted(set(required) - set(overridden))
                yield Finding(
                    rule="capability", path=module, line=0,
                    message=(
                        f"registered engine {name!r} ({cls.__name__}) "
                        f"declares capabilities.{flag}=True but "
                        f"inherits the base {', '.join(missing)} "
                        f"stub(s); the first consumer that trusts the "
                        f"flag will crash"))
            elif not declared and len(overridden) == len(required):
                yield Finding(
                    rule="capability", path=module, line=0,
                    message=(
                        f"registered engine {name!r} ({cls.__name__}) "
                        f"implements {', '.join(required)} but declares "
                        f"capabilities.{flag}=False -- dead code behind "
                        f"a disabled flag"))


def check_conditional_registration(
        conditional=None, engine_names: Optional[Tuple[str, ...]] = None
        ) -> Iterator[Finding]:
    """Gate-versus-registry cross-check for the conditionally
    registered built-ins (``simd``/``jit``).

    The reflection pass above only sees engines that *are* registered,
    so a rotted registration gate -- the dependency importable but the
    ``register_engine`` call gone or broken -- would silently shrink
    the registry.  This pass walks
    :data:`repro.engines.registry.CONDITIONAL_ENGINES` and fires when
    a gating module is importable but its engine is absent, and when
    an engine is registered although its gate is not importable (its
    factory would ImportError at first use).  A dependency that is
    simply not installed yields **nothing**: silent degradation is the
    contract, not a finding.  ``conditional``/``engine_names`` narrow
    the check (fixture-test hooks).
    """
    import importlib.util

    from repro.engines.registry import CONDITIONAL_ENGINES, \
        available_engines

    if conditional is None:
        conditional = CONDITIONAL_ENGINES
    names = engine_names if engine_names is not None else \
        available_engines()
    for name, (module, extra) in conditional.items():
        try:
            importable = importlib.util.find_spec(module) is not None
        except (ImportError, ValueError):
            importable = False
        registered = name in names
        if importable and not registered:
            yield Finding(
                rule="capability", path="repro.engines.registry", line=0,
                message=(
                    f"engine {name!r} is gated on {module} ({extra}), "
                    f"which is importable here, yet the registry does "
                    f"not list it -- the conditional registration has "
                    f"rotted"))
        elif registered and not importable:
            yield Finding(
                rule="capability", path="repro.engines.registry", line=0,
                message=(
                    f"engine {name!r} is registered although its "
                    f"gating module {module} is not importable -- its "
                    f"factory will raise ImportError at first use "
                    f"instead of degrading silently"))


RULE = CapabilityRule()

__all__ = ["CapabilityRule", "RULE", "check_registered_engines",
           "check_conditional_registration", "FLAG_METHODS"]
