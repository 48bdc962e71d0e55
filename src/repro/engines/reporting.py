"""Batch-decode result assembly for the batch engines.

The numpy SIMD engine (:mod:`repro.engines.simd`, and the jit engine
built on it) finishes a batched decode pass with per-monitor
detection/uncorrectable verdict arrays, per-sequence correction events
and bad-slice lists.  This module is the single implementation of
turning that bookkeeping
into a :class:`~repro.engines.base.BatchDecodeResult` with the exact
report layout of the reference engine -- clean sequences share one
cached report tuple, error-carrying sequences get materialised
:class:`~repro.core.monitor.MonitorReport` objects in the bank's block
order.

This is the **object path**: it exists for consumers that inspect
per-sequence reports and correction events (the scalar cycle, the
testbench result log, debugging).  Campaign statistics never read the
reports -- they reduce to a handful of counters -- so the engines also
implement the columnar *summary path*
(:meth:`~repro.engines.base.SimulationEngine.run_batch_summary`, with
the shared array kernels in :mod:`repro.engines.summary`), which skips
this module entirely; report materialisation then happens only where
something actually consumes the objects.

Bookkeeping layout (keyed by ``id(monitor_wrapper)``, the wrappers
produced by :func:`repro.engines.packed.classify_monitors`; monitors
that reported nothing are absent):

* ``block_results[id] = (detected, uncorrectable, corrections,
  bad_slices)`` where the first two are ``(B,)`` bool arrays,
  ``corrections`` maps sequence index to its
  :class:`~repro.core.corrector.CorrectionEvent` list (cycle order)
  and ``bad_slices`` maps sequence index to its cycle list;
* ``stream_results[id] = mismatch``, a ``(B,)`` bool array.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.monitor import MonitorReport
from repro.engines.base import BatchDecodeResult


def clean_report_tuple(
        order: Sequence[Tuple[str, object]]) -> Tuple[MonitorReport, ...]:
    """One cached all-clean report tuple in the bank's block order."""
    return tuple(
        MonitorReport(block_index=monitor.block.block_index,
                      error_detected=False)
        for _kind, monitor in order)


def assemble_batch_result(order: Sequence[Tuple[str, object]],
                          clean: Tuple[MonitorReport, ...],
                          block_results: Dict[int, tuple],
                          stream_results: Dict[int, np.ndarray],
                          corrected: np.ndarray, detected: np.ndarray,
                          uncorrectable: np.ndarray,
                          corrections: np.ndarray) -> BatchDecodeResult:
    """Assemble the engine-independent batch result; see the module
    docstring for the bookkeeping layout.

    ``detected`` / ``uncorrectable`` / ``corrections`` are the batch's
    aggregate ``(B,)`` verdicts and ``corrected`` its post-decode word
    array; they pass through to the result unchanged.

    Assembly cost is proportional to the number of *error events*, not
    ``batch_size x blocks``: detected sequences start as one copy of
    the clean tuple and only the blocks that actually reported get a
    materialised report written over their slot.  Stream-mismatch
    reports carry no per-sequence payload, so one instance per monitor
    is shared by every mismatching sequence of the batch (reports are
    frozen).  Dense-error batches -- where every sequence is detected
    -- stay dominated by the per-event work instead of per-sequence
    report construction.
    """
    reports: List[Tuple[MonitorReport, ...]] = [clean] * len(detected)
    rows = {b: list(clean) for b in np.flatnonzero(detected).tolist()}

    for slot, (kind, monitor) in enumerate(order):
        if kind == "block":
            entry = block_results.get(id(monitor))
            if entry is None:
                continue
            det, unc, corr, bad = entry
            block_index = monitor.block.block_index
            unc = unc.tolist()
            for b in np.flatnonzero(det).tolist():
                # Positional construction: report creation is the hot
                # term of dense batches (fields: block_index,
                # error_detected, corrections, uncorrectable,
                # slices_with_errors).
                rows[b][slot] = MonitorReport(
                    block_index, True, tuple(corr.get(b, ())), unc[b],
                    tuple(bad.get(b, ())))
        else:
            mismatch = stream_results.get(id(monitor))
            if mismatch is None:
                continue
            mismatch_report = MonitorReport(
                monitor.block.block_index, True, (), True)
            for b in np.flatnonzero(mismatch).tolist():
                rows[b][slot] = mismatch_report

    for b, row in rows.items():
        reports[b] = tuple(row)

    return BatchDecodeResult(
        reports=reports,
        corrected=corrected,
        detected_mask=detected,
        uncorrectable_mask=uncorrectable,
        corrections=corrections)


__all__ = ["clean_report_tuple", "assemble_batch_result"]
