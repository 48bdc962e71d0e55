"""Name-based registry of simulation engines.

The twin of :mod:`repro.codes.registry`, for engines: campaign drivers
and designs select an engine by name (``"reference"``, ``"packed"``,
``"simd"`` when numpy is installed, or anything registered by a third
party), and
:class:`~repro.core.protected.ProtectedDesign` resolves the name to a
constructed :class:`~repro.engines.base.SimulationEngine` through this
module.  Registering an engine here is the *only* step needed to make
it selectable everywhere -- ``ProtectedDesign(engine=...)``,
``validate_engine``/``available_engines``, the validation campaigns and
the sharded campaign tasks all source from this registry.

A factory receives the design being equipped and returns the engine
instance::

    from repro.engines import SimulationEngine, register_engine

    class MyEngine(SimulationEngine):
        def encode_pass(self, design): ...
        def decode_pass(self, design): ...

    register_engine("mine", lambda design: MyEngine())

Factories typically capture the design's ``monitor_bank`` and chain
geometry; the design caches the instance keyed on exactly those, so a
rebuilt bank or re-balanced chains trigger a fresh factory call.

One multiprocessing caveat: the registry lives in the interpreter that
imported it.  Sharded campaigns using the ``spawn`` start method (the
fallback where ``fork`` is unavailable) re-import this module in each
worker with only the built-ins registered, so third-party engines used
with ``num_workers > 1`` must be registered at import time of a module
the workers also import (e.g. the package defining the engine), not
inline in a script body.  ``fork`` workers inherit the parent's
registrations as-is.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.engines.base import SimulationEngine

EngineFactory = Callable[[object], SimulationEngine]

_FACTORIES: Dict[str, EngineFactory] = {}


def register_engine(name: str, factory: EngineFactory,
                    replace: bool = False) -> None:
    """Register an engine factory under a (lower-cased) name.

    Parameters
    ----------
    name:
        Selection name, as passed to ``ProtectedDesign(engine=...)``.
    factory:
        Callable receiving the design and returning the engine.
    replace:
        Allow overwriting an existing registration; without it a name
        collision raises (protecting the built-ins from accidental
        shadowing).
    """
    key = name.lower()
    if not replace and key in _FACTORIES:
        raise ValueError(
            f"engine {name!r} is already registered; pass replace=True "
            f"to overwrite it")
    _FACTORIES[key] = factory


def unregister_engine(name: str) -> None:
    """Remove a registered engine (mainly for test hygiene)."""
    key = name.lower()
    if key not in _FACTORIES:
        raise ValueError(f"engine {name!r} is not registered")
    del _FACTORIES[key]


def available_engines() -> Tuple[str, ...]:
    """Engine names resolvable by :func:`get_engine`, in registration
    order (the built-ins first)."""
    return tuple(_FACTORIES)


#: Built-in engines that register conditionally, mapped to the module
#: whose importability gates them.  Used below to turn "unknown engine"
#: into an actionable install hint when the name is merely *absent*,
#: not misspelled; the engine-registry tests pin registered <=>
#: importable for every entry.
CONDITIONAL_ENGINES = {
    "simd": ("numpy", "the [simd] packaging extra"),
    "jit": ("numba", "the [jit] packaging extra"),
}


def validate_engine(name: str) -> str:
    """Check an engine name, returning its canonical (lower-case) form;
    raise ``ValueError`` if unknown.

    The public eager-validation entry point: campaign drivers and
    sharded tasks call this at configuration time so a typo fails
    before any worker process is spawned.  The returned name is the
    registry key itself, so everything downstream (engine caches,
    ``design.engine``) speaks one spelling.  Optional engines
    (``"simd"``/``"jit"``) that are absent because their
    dependency is not installed fail with the dependency named, so a
    forced selection on a bare install is actionable rather than
    looking like a typo.
    """
    if not isinstance(name, str) or name.lower() not in _FACTORIES:
        hint = ""
        if isinstance(name, str) and name.lower() in CONDITIONAL_ENGINES:
            module, extra = CONDITIONAL_ENGINES[name.lower()]
            hint = (f"; engine {name.lower()!r} registers only when "
                    f"{module} is importable ({extra})")
        raise ValueError(
            f"unknown engine {name!r}; choose from "
            f"{available_engines()}{hint}")
    return name.lower()


def get_engine(name: str, design) -> SimulationEngine:
    """Resolve an engine name to a constructed engine for ``design``."""
    key = validate_engine(name)
    engine = _FACTORIES[key](design)
    if not isinstance(engine, SimulationEngine):
        raise TypeError(
            f"factory for engine {name!r} returned "
            f"{type(engine).__name__}, not a SimulationEngine")
    engine.name = key
    return engine


def _register_builtins() -> None:
    # Imported lazily so the registry module stays import-cycle-free
    # (engine modules import repro.core.monitor).
    def reference_factory(design):
        from repro.engines.reference import ReferenceEngine
        return ReferenceEngine()

    def packed_factory(design):
        from repro.engines.packed import PackedEngineAdapter
        return PackedEngineAdapter(design.monitor_bank,
                                   len(design.chains),
                                   len(design.chains[0]))

    def simd_factory(design):
        from repro.engines.simd import SimdBatchedEngine
        return SimdBatchedEngine(design.monitor_bank,
                                 len(design.chains),
                                 len(design.chains[0]))

    def jit_factory(design):  # pragma: no cover - exercised with numba
        from repro.engines.jit import JitFusedEngine
        return JitFusedEngine(design.monitor_bank,
                              len(design.chains),
                              len(design.chains[0]))

    register_engine("reference", reference_factory)
    register_engine("packed", packed_factory)
    # The numpy word-packed SIMD engine is part of the optional [simd]
    # extra; the core install stays pure Python, so the registration is
    # gated on numpy being importable (find_spec keeps the probe cheap
    # -- numpy itself is only imported when the engine is constructed).
    import importlib.util
    if importlib.util.find_spec("numpy") is not None:
        register_engine("simd", simd_factory)
        # The Numba-fused single-pass summary engine ([jit] extra),
        # gated identically: without numba there is simply no "jit"
        # entry -- no error, degrades silently (CI smokes this), and
        # the uncompiled kernels stay importable for the bit-identity
        # property suite.
        if importlib.util.find_spec("numba") is not None:
            register_engine("jit", jit_factory)


_register_builtins()

__all__ = [
    "CONDITIONAL_ENGINES",
    "EngineFactory",
    "register_engine",
    "unregister_engine",
    "available_engines",
    "validate_engine",
    "get_engine",
]
