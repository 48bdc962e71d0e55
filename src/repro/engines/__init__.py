"""Pluggable simulation engines for the monitored sleep/wake passes.

The subsystem has three parts:

* :mod:`repro.engines.base` -- the :class:`SimulationEngine` protocol
  (scalar ``encode_pass``/``decode_pass`` plus optional batch passes
  over one ``(C, L, W)`` uint64 word array and a columnar summary pass
  over a :class:`~repro.faults.batch.PatternBatch` injection, both
  advertised through :class:`EngineCapabilities`);
* :mod:`repro.engines.registry` -- name-based registration and lookup,
  mirroring :mod:`repro.codes.registry`; registering a factory is the
  only step needed for an engine to be selectable everywhere;
* the built-in engines: ``"reference"`` (bit-serial per-flop models),
  ``"packed"`` (packed-integer fast path,
  :mod:`repro.engines.packed`), ``"simd"`` (numpy word-packed fully
  vectorised batch engine simulating B sequences per pass,
  :mod:`repro.engines.simd`; registered only when numpy is importable
  -- the ``[simd]`` packaging extra), and ``"jit"`` (the simd engine
  with the summary pass replaced by Numba-fused single-pass kernels,
  :mod:`repro.engines.jit`; registered only when numba is importable
  -- the ``[jit]`` extra).

The batch engines (``"simd"`` and its ``"jit"`` subclass) build their
reports through :mod:`repro.engines.reporting` and their parities and
signatures from the GF(2) code matrices of :mod:`repro.codes.plane`,
so a report produced by any engine is bit-identical to the
reference's.  Engines advertising the *summary*
capability additionally run whole batches through
:meth:`SimulationEngine.run_batch_summary`, returning columnar
:class:`BatchOutcomeArrays` (one ndarray per outcome field) with no
per-sequence objects at all -- the campaign fast path; the shared
vectorised helpers live in :mod:`repro.engines.summary`.  The
array-native engines run on numpy directly.

See the README's "Engine architecture" section for when to pick which
engine and how to register a custom one.
"""

from repro.engines.base import (
    BatchDecodeResult,
    BatchOutcomeArrays,
    EngineCapabilities,
    SimulationEngine,
)
from repro.engines.registry import (
    available_engines,
    get_engine,
    register_engine,
    unregister_engine,
    validate_engine,
)

__all__ = [
    "BatchDecodeResult",
    "BatchOutcomeArrays",
    "EngineCapabilities",
    "SimulationEngine",
    "available_engines",
    "get_engine",
    "register_engine",
    "unregister_engine",
    "validate_engine",
]
