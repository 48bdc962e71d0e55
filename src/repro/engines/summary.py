"""Shared vectorised helpers for the columnar summary passes.

The summary interface of :mod:`repro.engines.base`
(:meth:`~repro.engines.base.SimulationEngine.run_batch_summary`)
returns per-sequence verdicts as ndarrays; this module holds the
generic array kernels the SIMD engine (and the jit engine built on it)
builds that answer from:

* :func:`full_words` -- the all-sequences mask of a batch;
* :func:`bits_matrix` -- packed chain integers to a ``(C, L)`` boolean
  matrix (the replication/masking front end);
* :func:`replicate_state_words` -- that matrix broadcast into the
  ``(C, L, W)`` uint64 batch state every sequence starts from;
* :func:`residual_counts_words` -- the **vectorised state-domain
  comparator**: per-sequence Hamming distance between the corrected
  ``(C, L, W)`` word state and the packed pre-sleep state, with the
  scalar cycle's rule that unknown pre-sleep bits always count (the
  decode pass drives them, so they differ from X by definition).  It
  is the state comparator of the engines' dense summary passes, run
  on the decode pass's corrected word array.

Everything here requires numpy; callers gate on
:attr:`~repro.engines.base.SimulationEngine.supports_summary`, so a
pure-stdlib install never imports this module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def full_words(batch_size: int) -> np.ndarray:
    """The all-sequences mask as a ``(W,)`` word array (bit ``b`` of
    word ``w`` is batch sequence ``64 * w + b``)."""
    num_words = (batch_size + 63) // 64
    mask = np.full(num_words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    if batch_size % 64:
        mask[-1] = np.uint64((1 << (batch_size % 64)) - 1)
    return mask


def bits_matrix(values: Sequence[int], length: int) -> np.ndarray:
    """Expand packed per-chain integers into a ``(C, length)`` bool
    matrix (bit ``i`` of ``values[c]`` lands at ``[c, i]``)."""
    nbytes = (length + 7) // 8
    buf = b"".join(value.to_bytes(nbytes, "little") for value in values)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(values), nbytes)
    return np.unpackbits(packed, axis=1, count=length,
                         bitorder="little").astype(bool)


def replicate_state_words(state_bits: np.ndarray,
                          full: np.ndarray,
                          out: "np.ndarray | None" = None) -> np.ndarray:
    """Broadcast a ``(C, L)`` bool state into ``(C, L, W)`` uint64 words
    (every sequence of the batch starts from the same state).

    ``full`` is the all-sequences word mask (:func:`full_words`).
    ``out`` (shape ``(C, L, W)``, uint64) is fully overwritten when
    given -- the hook the simd engine's
    :class:`~repro.engines.simd.Workspace` buffers plug into.
    """
    if out is None:
        return np.where(state_bits[:, :, None], full, np.uint64(0))
    out[...] = np.uint64(0)
    out[state_bits] = full
    return out


#: Rows :func:`per_sequence_popcounts` sums per uint8 reduction: at
#: most 255 set bits, so no lane overflows.
_UINT8_ROWS = 255


def per_sequence_popcounts(words: np.ndarray,
                           batch_size: int) -> np.ndarray:
    """Per-sequence set-bit counts of an ``(..., W)`` word array.

    The leading axes are summed away: the result is ``(batch_size,)``
    with entry ``b`` counting the set bits belonging to sequence ``b``
    across every word row.  Rows that are entirely zero should be
    filtered by the caller first -- the unpack cost is proportional to
    the rows passed in.
    """
    flat = np.ascontiguousarray(words, dtype=np.uint64).reshape(
        -1, words.shape[-1])
    counts = np.zeros(flat.shape[1] * 64, dtype=np.int64)
    bits = np.unpackbits(flat.view(np.uint8), axis=-1, bitorder="little")
    # A uint8 sum (no widening cast) is several times faster than an
    # int64 one.
    for start in range(0, len(bits), _UINT8_ROWS):
        counts += np.add.reduce(bits[start:start + _UINT8_ROWS], axis=0,
                                dtype=np.uint8)
    return counts[:batch_size]


def residual_counts_words(states: Sequence[int], knowns: Sequence[int],
                          corrected: np.ndarray,
                          batch_size: int,
                          state_bits: "np.ndarray | None" = None,
                          known_bits: "np.ndarray | None" = None
                          ) -> np.ndarray:
    """Vectorised state-domain comparator over word-packed batch state.

    Returns the ``(batch_size,)`` per-sequence count of register bits
    whose post-decode value differs from the packed pre-sleep
    ``states``: known positions compare bit for bit, and every unknown
    pre-sleep position counts unconditionally (same rule as
    ``StateSnapshot.diff`` in the scalar path -- the decode pass drives
    unknown bits, so they differ from X by definition).

    Callers that already hold the expanded ``(C, L)`` bool matrices of
    ``states``/``knowns`` pass them via ``state_bits``/``known_bits``
    to skip the re-expansion; the comparison rule itself lives only
    here.
    """
    num_chains, length, _num_words = corrected.shape
    if state_bits is None:
        state_bits = bits_matrix(states, length)
    if known_bits is None:
        known_bits = bits_matrix(knowns, length)
    unknown_positions = int(known_bits.size - known_bits.sum())
    diff = np.where(state_bits[:, :, None], ~corrected, corrected)
    # The all-ones complement above sets the unused tail bits of the
    # last word; clear them so the `changed` filter stays proportional
    # to the cells that actually differ (the popcount slice would drop
    # them anyway, but only after unpacking every flagged row).
    if batch_size % 64:
        diff[..., -1] &= np.uint64((1 << (batch_size % 64)) - 1)
    diff[~known_bits] = 0
    changed = diff.any(axis=2)
    counts = per_sequence_popcounts(diff[changed], batch_size)
    return counts + unknown_positions


__all__ = [
    "full_words",
    "bits_matrix",
    "replicate_state_words",
    "per_sequence_popcounts",
    "residual_counts_words",
]
