"""Pluggable simulation engines for the monitored sleep/wake passes.

The subsystem has three parts:

* :mod:`repro.engines.base` -- the :class:`SimulationEngine` protocol
  (scalar ``encode_pass``/``decode_pass`` plus an optional columnar
  summary pass over a :class:`~repro.faults.batch.PatternBatch`
  injection, supported by every engine that overrides it);
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

Every engine's scalar reports are bit-identical to the reference's
(the vectorised engines run their scalar passes on the packed engine).
Engines overriding the summary pass (``"simd"`` and its ``"jit"``
subclass) additionally run whole batches through
:meth:`SimulationEngine.run_batch_summary`, returning columnar
:class:`BatchOutcomeArrays` (one ndarray per outcome field, whose
:meth:`~BatchOutcomeArrays.tally` is the batch's :class:`BatchTally`
of counter increments) with no per-sequence objects at all -- the one
vectorised batch path; their
parities and signatures come from the GF(2) code matrices of
:mod:`repro.codes.plane` and the shared vectorised helpers live in
:mod:`repro.engines.summary`.

See the README's "Engine architecture" section for when to pick which
engine and how to register a custom one.
"""

from repro.engines.base import (
    BatchOutcomeArrays,
    BatchTally,
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
    "BatchOutcomeArrays",
    "BatchTally",
    "SimulationEngine",
    "available_engines",
    "get_engine",
    "register_engine",
    "unregister_engine",
    "validate_engine",
]
