"""The NumPy word-packed SIMD engine: fully vectorised batched passes.

The packed engine (:mod:`repro.fastpath.engine`) collapses the bit
axis -- one chain becomes one integer -- but still pays its per-pass
Python overhead once per test sequence, which is what dominates a
Monte-Carlo campaign at the paper's 10^8-sequence scale.  This engine
collapses the *sequence* axis as well, and keeps the entire pass
vectorised with **no per-sequence fallback at any error density** --
the dense-error workloads behind the paper's headline figures (burst
sweeps, droop storms, the multi-error Fig. 10 curves) corrupt
essentially every sequence of a batch:

* batch state is a ``(num_chains, chain_length, num_words)`` ndarray of
  little-endian ``uint64`` words -- bit ``b`` of word ``w`` is batch
  sequence ``64 * w + b``, the engine protocol's batch layout;
* parities and CRC signatures are GF(2) linear maps, evaluated as XOR
  folds over ndarray gathers using the shared matrices of
  :mod:`repro.codes.plane` (:func:`~repro.codes.plane.block_parity_matrix`
  / :func:`~repro.codes.plane.crc_stream_matrix`) -- no popcounts, no
  per-slice work;
* correcting blocks sharing one code are stacked on a leading *group*
  axis, so one kernel invocation decodes every Hamming block of the
  bank at once;
* correction itself is a vectorised syndrome -> systematic-position
  table lookup plus a masked XOR scatter (``np.bitwise_xor.at``) into
  the packed words -- one decode core serves the object pass and the
  dense summary alike; per-sequence Python work is limited to
  materialising the :class:`~repro.core.monitor.MonitorReport` objects
  the protocol requires, proportional to the number of *error events*,
  never the batch size.

The summary pass additionally carries a **sparse-delta fast path**
(:mod:`repro.engines.delta`): every registered code is GF(2)-linear
and the stored check words derive from the same replicated baseline,
so for sparse batches the whole replicate/encode/inject/decode/compare
chain collapses into O(#flips) LUT-XOR work over precomputed column
tables.  ``run_batch_summary(..., path="auto")`` picks the delta path
whenever the batch's mean flips per sequence is at or below
:data:`~repro.engines.delta.DELTA_CROSSOVER_FLIPS_PER_SEQ` (and the
bank structure supports superposition), falling back to the dense word
pipeline above it; ``path="delta"`` / ``path="dense"`` force either
side, and the path actually taken is published as
``engine.last_summary_path``.  The two paths are bit-identical
(property-tested in ``tests/engines/test_delta_path.py``).

Each engine reuses per-instance :class:`Workspace` buffers for the
decode core's and the dense summary pass's dominant arrays, so
steady-state equally-shaped batches stop allocating fresh state each
pass.

Bit-exactness with the reference engine is property-tested in
``tests/engines/test_simd_equivalence.py`` across all registered
codes, geometries, batch sizes and fault densities.  The engine
registers itself as ``"simd"`` only when numpy is importable (the
``[simd]`` extra); the core install stays pure Python.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codes.crc import CRCCode
from repro.codes.hamming import HammingCode
from repro.codes.parity import ParityCode
from repro.codes.plane import block_parity_matrix, crc_stream_matrix
from repro.codes.secded import SECDEDCode
from repro.core.corrector import CorrectionEvent
from repro.core.monitor import MonitorBank, MonitorReport
from repro.engines.base import (
    BatchDecodeResult,
    BatchOutcomeArrays,
    EngineCapabilities,
    SimulationEngine,
)
from repro.engines.delta import (
    DELTA_CROSSOVER_FLIPS_PER_SEQ,
    build_plan,
    correction_lut,
    delta_summary,
)
from repro.engines.packing import pack_chains, write_back_chains
from repro.engines.reporting import assemble_batch_result, clean_report_tuple
from repro.engines.summary import (
    bits_matrix,
    full_words,
    replicate_state_words,
    residual_counts_words,
)
from repro.fastpath.engine import classify_monitors

if not np.little_endian:  # pragma: no cover - no big-endian CI targets
    raise ImportError(
        "repro.engines.simd packs batch words little-endian and has "
        "only been validated on little-endian platforms")


#: The all-sequences mask of a batch of one.
_ONE_WORD = np.ones(1, dtype=np.uint64)


def _unpack_bits(words: np.ndarray, batch_size: int) -> np.ndarray:
    """Expand packed words ``(..., W)`` into per-sequence bits
    ``(..., B)`` (uint8 0/1)."""
    flat = np.ascontiguousarray(words, dtype=np.uint64)
    bits = np.unpackbits(flat.view(np.uint8), axis=-1, bitorder="little")
    return bits[..., :batch_size]


def _runs(group_idx: np.ndarray, seqs: np.ndarray):
    """Contiguous ``(g, b)`` runs of sorted nonzero coordinates.

    Yields ``(g, b, start, end)`` per distinct pair, assuming the
    arrays come from ``np.nonzero`` on a ``(G, B, ...)`` layout (so
    equal pairs are adjacent).
    """
    n = group_idx.size
    if not n:
        return
    change = (group_idx[1:] != group_idx[:-1]) | (seqs[1:] != seqs[:-1])
    starts = np.flatnonzero(change) + 1
    run_starts = np.concatenate(([0], starts))
    run_ends = np.concatenate((starts, [n]))
    yield from zip(group_idx[run_starts].tolist(),
                   seqs[run_starts].tolist(),
                   run_starts.tolist(), run_ends.tolist())


# ----------------------------------------------------------------------
# GF(2) kernels (one per structured code family)
# ----------------------------------------------------------------------
def _parity_words(rows: Sequence[np.ndarray], const: Sequence[int],
                  data: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Evaluate GF(2) matrix rows over grouped data words.

    ``data`` is ``(G, k, L, W)``; the result is ``(G, r, L, W)`` with
    row ``j`` the XOR fold of the data rows listed in ``rows[j]`` (plus
    the all-sequences mask for rows with a constant 1).
    """
    shape = (data.shape[0], len(rows)) + data.shape[2:]
    out = np.zeros(shape, dtype=np.uint64)
    for j, row in enumerate(rows):
        if row.size == 1:
            out[:, j] = data[:, row[0]]
        elif row.size:
            out[:, j] = np.bitwise_xor.reduce(data[:, row], axis=1)
        if const[j]:
            out[:, j] ^= full
    return out


def _fold_syndrome(bits: np.ndarray) -> np.ndarray:
    """Collapse mismatch bit rows ``(G, r, L, B)`` into syndrome values
    ``(G, L, B)`` (mismatch of parity ``j`` sets syndrome bit ``j``,
    the convention of the packed decoders)."""
    syn = bits[:, 0].astype(np.uint16)
    for j in range(1, bits.shape[1]):
        syn |= bits[:, j].astype(np.uint16) << j
    return syn


class _HammingKernel:
    """Vectorised Hamming parity/decode over grouped word arrays.

    Decode reports, per (group, position, sequence), the systematic
    position the scalar decoder would flip: ``-1`` clean, ``-2``
    detected-uncorrectable, ``0..n-1`` otherwise.  The caller turns
    positions into flips, events and padding verdicts.
    """

    def __init__(self, code: HammingCode):
        matrix = block_parity_matrix(code)
        self.code = code
        self.k = code.k
        self.r = code.r
        self.rows = tuple(np.array(row, dtype=np.int64)
                          for row in matrix.rows)
        self.const = matrix.const
        # Shared process-wide (read-only) so sharded workers rebuilding
        # engines per chunk stop re-deriving it per instance.
        self.lut = correction_lut(code)

    def encode(self, data: np.ndarray, full: np.ndarray) -> np.ndarray:
        return _parity_words(self.rows, self.const, data, full)

    def decode(self, data: np.ndarray, stored: np.ndarray,
               full: np.ndarray, batch_size: int):
        diff = self.encode(data, full)
        np.bitwise_xor(diff, stored, out=diff)
        if not diff.any():
            return None
        syn = _fold_syndrome(_unpack_bits(diff, batch_size))
        # np.take beats fancy indexing on a LUT this small.
        return syn != 0, np.take(self.lut, syn)


class _SECDEDKernel:
    """Vectorised extended-Hamming (SECDED) parity/decode.

    Mirrors :meth:`repro.codes.packed.PackedSECDED.decode_slice`: the
    observed overall parity folds the received data word with the
    *stored* base parity bits, so the four case splits (clean / overall
    bit flipped / single corrected / double detected) are mask algebra
    over two unpacked bit arrays (syndrome and overall-parity
    mismatch).
    """

    def __init__(self, code: SECDEDCode):
        matrix = block_parity_matrix(code)
        self.code = code
        self.k = code.k
        self.n = code.n                  # extended length (base + 1)
        self.r = code.n - code.k         # base parity bits + overall bit
        self.base_r = self.r - 1
        self.rows = tuple(np.array(row, dtype=np.int64)
                          for row in matrix.rows)
        self.const = matrix.const
        # Shared process-wide (read-only), like the Hamming kernel's.
        self.lut = correction_lut(code)

    def encode(self, data: np.ndarray, full: np.ndarray) -> np.ndarray:
        return _parity_words(self.rows, self.const, data, full)

    def decode(self, data: np.ndarray, stored: np.ndarray,
               full: np.ndarray, batch_size: int):
        base_r = self.base_r
        fresh_base = _parity_words(self.rows[:base_r], self.const[:base_r],
                                   data, full)
        stored_base = stored[:, :base_r]
        diff = fresh_base ^ stored_base
        pm_mismatch = np.bitwise_xor.reduce(data, axis=1)
        pm_mismatch = pm_mismatch ^ np.bitwise_xor.reduce(stored_base, axis=1)
        pm_mismatch ^= stored[:, base_r]
        if not (diff.any() or pm_mismatch.any()):
            return None
        syn = _fold_syndrome(_unpack_bits(diff, batch_size))
        mismatch = _unpack_bits(pm_mismatch, batch_size).astype(bool)
        nonzero = syn != 0
        err = nonzero | mismatch
        pos = np.full(syn.shape, -2, dtype=np.int16)
        pos[~err] = -1
        # Overall parity bit itself flipped: corrected, data intact.
        pos[mismatch & ~nonzero] = self.n - 1
        single = mismatch & nonzero
        pos[single] = self.lut[syn[single]]
        return err, pos


class _ParityKernel:
    """Vectorised single-parity-bit detection (never corrects)."""

    def __init__(self, code: ParityCode):
        matrix = block_parity_matrix(code)
        self.code = code
        self.k = code.k
        self.r = 1
        self.rows = (np.array(matrix.rows[0], dtype=np.int64),)
        self.const = matrix.const

    def encode(self, data: np.ndarray, full: np.ndarray) -> np.ndarray:
        return _parity_words(self.rows, self.const, data, full)

    def decode(self, data: np.ndarray, stored: np.ndarray,
               full: np.ndarray, batch_size: int):
        diff = self.encode(data, full)
        np.bitwise_xor(diff, stored, out=diff)
        if not diff.any():
            return None
        err = _unpack_bits(diff[:, 0], batch_size).astype(bool)
        pos = np.where(err, np.int16(-2), np.int16(-1))
        return err, pos


def _make_kernel(code):
    if isinstance(code, SECDEDCode):
        return _SECDEDKernel(code)
    if type(code) is HammingCode:
        return _HammingKernel(code)
    if isinstance(code, ParityCode):
        return _ParityKernel(code)
    raise ValueError(
        f"engine 'simd' has no vectorised decoder for "
        f"{type(code).__name__}; use engine='packed' for adapter codes")


# ----------------------------------------------------------------------
# Monitor wrappers and code groups
# ----------------------------------------------------------------------
class _SimdBlockMonitor:
    """One correcting block's structure (the kernel lives on its group)."""

    def __init__(self, block):
        _make_kernel(block.code)  # fail fast on unsupported codes
        self.block = block
        self.code = block.code
        self.chain_indices = block.chain_indices
        self.chain_idx_arr = np.array(block.chain_indices, dtype=np.int64)
        self.width = block.width


class _SimdStreamMonitor:
    """One detection-only (CRC) block's structure and stream matrix."""

    def __init__(self, block):
        if not isinstance(block.code, CRCCode):
            raise ValueError(
                f"engine 'simd' has no vectorised signature for "
                f"{type(block.code).__name__}; use engine='packed' for "
                f"adapter stream codes")
        self.block = block
        self.code = block.code
        self.chain_indices = block.chain_indices
        self.width = block.width
        # Filled by the engine once the chain length is known:
        self.rows_flat: Optional[List[np.ndarray]] = None
        self.const_idx: Optional[np.ndarray] = None
        #: Concatenated row indices + row offsets for one-shot
        #: gather + XOR-reduceat (None when a row is empty).
        self.gather_all: Optional[np.ndarray] = None
        self.offsets: Optional[np.ndarray] = None
        self.stored: Optional[np.ndarray] = None


class _BlockGroup:
    """All correcting monitors sharing one code, decoded in one shot."""

    def __init__(self, kernel, monitors: List[_SimdBlockMonitor]):
        self.kernel = kernel
        self.monitors = monitors
        k = kernel.k
        self.gather_idx = np.zeros((len(monitors), k), dtype=np.int64)
        pad = np.ones((len(monitors), k), dtype=bool)
        for g, monitor in enumerate(monitors):
            self.gather_idx[g, :monitor.width] = monitor.chain_idx_arr
            pad[g, :monitor.width] = False
        self.pad_mask = pad if pad.any() else None
        self.width = np.array([m.width for m in monitors], dtype=np.int16)
        self.stored: Optional[np.ndarray] = None


class Workspace:
    """Keyed reusable buffers for an engine's steady-state passes.

    ``take(key, shape, dtype)`` returns the buffer registered under
    ``key``, allocating (``np.empty``) only when the key is new or its
    shape/dtype changed -- so a campaign running equally-shaped batches
    through one engine allocates its large arrays once and then reuses
    them every pass.  Buffers come back **uninitialised**: the caller
    owns every element it reads (the word pipeline fully overwrites
    its buffers each pass).  One workspace belongs to one engine
    instance; buffers must never escape the pass that took them.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[object, np.ndarray] = {}

    def take(self, key: object, shape: Tuple[int, ...],
             dtype: object) -> np.ndarray:
        buffer = self._buffers.get(key)
        if (buffer is None or buffer.shape != tuple(shape)
                or buffer.dtype != dtype):
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[key] = buffer
        return buffer

    def clear(self) -> None:
        """Drop every buffer (e.g. before a geometry change)."""
        self._buffers.clear()


class SimdBatchedEngine(SimulationEngine):
    """NumPy word-packed simulation of B independent sequences per pass.

    Parameters
    ----------
    bank:
        The monitor bank whose structure (blocks, codes, chain
        assignments, report order) this engine mirrors.  Check words
        are stored inside the engine; the bank's blocks are untouched.
    num_chains, chain_length:
        Geometry of the chain set the passes run over.

    Raises ``ValueError`` at construction for codes without a
    structured GF(2) form (adapter-only codes) -- those run on the
    object-path engines (``"packed"``/``"reference"``) instead.
    """

    capabilities = EngineCapabilities(batch=True, summary=True)

    #: Delta/dense auto-crossover in mean flips per sequence; override
    #: per instance to re-tune without forcing a path.
    delta_crossover = DELTA_CROSSOVER_FLIPS_PER_SEQ

    def __init__(self, bank: MonitorBank, num_chains: int,
                 chain_length: int):
        self._workspace = Workspace()
        self.num_chains = num_chains
        self.chain_length = chain_length
        (self._order, self._correcting, self._observing,
         self._overlapping_correctors) = classify_monitors(
            bank, _SimdBlockMonitor, _SimdStreamMonitor)
        groups: Dict[object, List[_SimdBlockMonitor]] = {}
        for monitor in self._correcting:
            groups.setdefault(monitor.code, []).append(monitor)
        self._groups = [
            _BlockGroup(_make_kernel(code), monitors)
            for code, monitors in groups.items()]
        for monitor in self._observing:
            matrix = crc_stream_matrix(monitor.code,
                                       chain_length * monitor.width)
            length = chain_length
            indices = monitor.chain_indices
            width = monitor.width
            monitor.rows_flat = [
                np.fromiter(
                    (indices[s % width] * length + (length - 1 - s // width)
                     for s in row),
                    dtype=np.int64, count=len(row))
                for row in matrix.rows]
            monitor.const_idx = np.flatnonzero(np.array(matrix.const,
                                                         dtype=np.uint8))
            if all(row.size for row in monitor.rows_flat):
                sizes = [row.size for row in monitor.rows_flat]
                monitor.gather_all = np.concatenate(monitor.rows_flat)
                monitor.offsets = np.concatenate(
                    ([0], np.cumsum(sizes)[:-1]))
        self._encoded_batch: Optional[int] = None
        self._clean_reports: Optional[Tuple[MonitorReport, ...]] = None
        self._full_cache: Tuple[int, Optional[np.ndarray]] = (0, None)
        #: Built lazily on the first summary pass (None until then).
        self._delta_plan = None
        #: The path the last run_batch_summary call actually took
        #: ("delta" or "dense"); None before any summary pass.
        self.last_summary_path: Optional[str] = None

    # ------------------------------------------------------------------
    def _full_words(self, batch_size: int) -> np.ndarray:
        if self._full_cache[0] != batch_size:
            self._full_cache = (batch_size, full_words(batch_size))
        return self._full_cache[1]

    def _check_chains(self, **per_chain) -> None:
        """Raise ``ValueError`` naming the first per-chain argument
        whose length is not the engine's chain count."""
        for name, value in per_chain.items():
            if len(value) != self.num_chains:
                raise ValueError(
                    f"{name}: expected {self.num_chains} chains, got "
                    f"{len(value)}")

    def _check_words(self, words: np.ndarray, knowns: Sequence[int],
                     batch_size: int) -> None:
        """Validate the batch protocol's inputs: a ``(C, L, W)`` uint64
        word array with no bits past ``batch_size`` and all-zero words
        at unknown positions (the treat-X-as-0 rule)."""
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        self._check_chains(words=words, knowns=knowns)
        length = self.chain_length
        shape = (self.num_chains, length, (batch_size + 63) // 64)
        if (not isinstance(words, np.ndarray) or words.dtype != np.uint64
                or words.shape != shape):
            raise ValueError(
                f"words: expected a uint64 array of shape {shape}, got "
                f"{getattr(words, 'dtype', type(words).__name__)} "
                f"{np.shape(words)}")
        if not all(0 <= known < 1 << length for known in knowns):
            raise ValueError("known mask exceeds the chain length")
        if batch_size % 64 and (
                words[..., -1] >> np.uint64(batch_size % 64)).any():
            raise ValueError(
                f"words hold bits outside the {batch_size}-sequence batch")
        if words[~bits_matrix(knowns, length)].any():
            raise ValueError("unknown positions must hold all-zero words")

    def _gather(self, index: int, group: _BlockGroup,
                words: np.ndarray, key: str = "gather") -> np.ndarray:
        """Group ``index``'s data words ``(G, k, L, W)`` in the
        workspace buffer ``(key, index)`` (the gathered view never
        escapes the pass that took it); tied-off padding inputs are
        constant-zero rows."""
        idx = group.gather_idx.reshape(-1)
        buf = self._workspace.take(
            (key, index), (idx.size, self.chain_length, words.shape[2]),
            np.uint64)
        data = np.take(words, idx, axis=0, out=buf)
        data = data.reshape(len(group.monitors), group.kernel.k,
                            self.chain_length, -1)
        if group.pad_mask is not None:
            data[group.pad_mask] = 0
        return data

    def _stream_signature(self, monitor: _SimdStreamMonitor,
                          words_flat: np.ndarray,
                          full: np.ndarray) -> np.ndarray:
        """The batch's signature words of one stream block."""
        if monitor.gather_all is not None:
            sig = np.bitwise_xor.reduceat(words_flat[monitor.gather_all],
                                          monitor.offsets, axis=0)
        else:
            # A signature bit with no stream dependence (possible for
            # degenerate short streams): reduceat cannot express an
            # empty segment, so fold row by row.
            sig = np.zeros((len(monitor.rows_flat), words_flat.shape[1]),
                           dtype=np.uint64)
            for j, idx in enumerate(monitor.rows_flat):
                if idx.size:
                    sig[j] = np.bitwise_xor.reduce(words_flat[idx], axis=0)
        if monitor.const_idx.size:
            sig[monitor.const_idx] ^= full
        return sig

    # ------------------------------------------------------------------
    # Batch interface
    # ------------------------------------------------------------------
    def encode_pass_batch(self, words: np.ndarray, knowns: Sequence[int],
                          batch_size: int) -> int:
        """Run one batched encoding pass; returns the cycle count."""
        self._check_words(words, knowns, batch_size)
        return self._encode_words(words, batch_size)

    def _encode_words(self, words: np.ndarray, batch_size: int) -> int:
        """Encode a word-packed batch, storing the check words."""
        full = self._full_words(batch_size)
        for index, group in enumerate(self._groups):
            group.stored = group.kernel.encode(
                self._gather(index, group, words), full)
        words_flat = words.reshape(-1, words.shape[2])
        for monitor in self._observing:
            monitor.stored = self._stream_signature(monitor, words_flat,
                                                    full)
        self._encoded_batch = batch_size
        return self.chain_length

    def _encode_baseline(self, state_bits: np.ndarray,
                         batch_size: int) -> None:
        """Store the check words of ``batch_size`` copies of one state.

        Every sequence of a summary batch starts from the same
        replicated state, so its check bits are encoded once, as a
        batch of one, and each stored bit widens to all sequences
        (``full``) or none -- bit-identical to :meth:`_encode_words`
        on the replicated words.  The batch of one has its own
        workspace buffers, so the batch-wide ones keep their shapes.
        """
        full = self._full_words(batch_size)
        words = self._workspace.take("baseline_words",
                                     state_bits.shape + (1,), np.uint64)
        words[..., 0] = state_bits
        for index, group in enumerate(self._groups):
            group.stored = group.kernel.encode(
                self._gather(index, group, words, "baseline_gather"),
                _ONE_WORD) * full
        words_flat = words.reshape(-1, 1)
        for monitor in self._observing:
            monitor.stored = self._stream_signature(
                monitor, words_flat, _ONE_WORD) * full
        self._encoded_batch = batch_size

    def decode_pass_batch(self, words: np.ndarray, knowns: Sequence[int],
                          batch_size: int) -> BatchDecodeResult:
        """Run one batched decoding pass with on-the-fly correction.

        ``words`` is left untouched; the corrected state is a fresh
        array in the result."""
        if self._encoded_batch is None:
            raise RuntimeError("no stored check bits: encode first")
        if batch_size != self._encoded_batch:
            raise RuntimeError(
                f"decode batch size {batch_size} does not match the "
                f"encoded batch size {self._encoded_batch}")
        self._check_words(words, knowns, batch_size)
        corrected = words.copy()
        detected, uncorrectable, corrections, reported, mismatches = \
            self._decode_words(corrected, batch_size)
        block_results: Dict[int, tuple] = {}
        for decoded in reported:
            self._block_bookkeeping(*decoded, block_results)
        stream_results = {id(monitor): mismatch
                          for monitor, mismatch in mismatches}
        return assemble_batch_result(
            self._order, self._clean_report_tuple(), block_results,
            stream_results, corrected, detected, uncorrectable, corrections)

    # ------------------------------------------------------------------
    def _decode_words(self, words: np.ndarray, batch_size: int):
        """The decode pass over a word-packed batch, correcting
        ``words`` in place.

        Decodes every code group, XOR-scatters the corrections into
        ``words`` and checks every stream signature against the
        corrected state.  Returns ``(detected, uncorrectable,
        corrections, reported, mismatches)``: the three ``(B,)``
        aggregate verdict arrays, the ``(group, err, pos, uncorr, fix)``
        kernel outputs of every group that saw a mismatch, and the
        ``(monitor, mismatch)`` pairs of every stream block that did.
        The object pass and the dense summary share this core and
        differ only in what they build from those outputs.
        """
        length = self.chain_length
        num_words = words.shape[2]
        full = self._full_words(batch_size)
        detected = np.zeros(batch_size, dtype=bool)
        uncorrectable = np.zeros(batch_size, dtype=bool)
        corrections = np.zeros(batch_size, dtype=np.int64)
        overlap = self._overlapping_correctors
        if overlap:
            pre_correction = self._workspace.take("pre_correction",
                                                  words.shape, np.uint64)
            pre_correction[...] = words
        reported = []
        group_flips: List[Tuple[np.ndarray, np.ndarray]] = []
        monitor_flips: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for index, group in enumerate(self._groups):
            out = group.kernel.decode(self._gather(index, group, words),
                                      group.stored, full, batch_size)
            if out is None:
                continue
            err_b, pos = out
            k = group.kernel.k
            width = group.width[:, None, None]
            uncorr_b = err_b & ((pos == -2) | ((pos >= width) & (pos < k)))
            data_fix = err_b & (pos >= 0) & (pos < width)
            detected |= err_b.any(axis=(0, 1))
            uncorrectable |= uncorr_b.any(axis=(0, 1))
            corrections += data_fix.sum(axis=(0, 1), dtype=np.int64)
            reported.append((group, err_b, pos, uncorr_b, data_fix))
            group_idx, positions, seqs = np.nonzero(data_fix)
            if not group_idx.size:
                continue
            fix_pos = pos[group_idx, positions, seqs]
            chains = group.gather_idx[group_idx, fix_pos]
            flat = (chains * length + positions) * num_words + (seqs >> 6)
            bits = np.left_shift(np.uint64(1),
                                 (seqs & 63).astype(np.uint64))
            if overlap:
                for g, monitor in enumerate(group.monitors):
                    mask = group_idx == g
                    monitor_flips[id(monitor)] = (flat[mask], bits[mask])
            else:
                group_flips.append((flat, bits))

        words_flat = words.reshape(-1)
        if overlap:
            # Reference-faithful last-block-wins feedback: every
            # correcting block assigns its slice in bank order, so on a
            # shared chain the last block's (possibly uncorrected)
            # version survives.  Each block's flips were computed from
            # the pre-correction words, so reassign-then-flip per block.
            for monitor in self._correcting:
                idx = monitor.chain_idx_arr
                words[idx] = pre_correction[idx]
                if id(monitor) in monitor_flips:
                    np.bitwise_xor.at(words_flat, *monitor_flips[id(monitor)])
        else:
            for flat, bits in group_flips:
                np.bitwise_xor.at(words_flat, flat, bits)

        mismatches = []
        corrected_rows = words.reshape(-1, num_words)
        for monitor in self._observing:
            fresh = self._stream_signature(monitor, corrected_rows, full)
            mismatch = np.bitwise_or.reduce(fresh ^ monitor.stored, axis=0)
            if mismatch.any():
                mismatch_bits = _unpack_bits(mismatch,
                                             batch_size).astype(bool)
                detected |= mismatch_bits
                uncorrectable |= mismatch_bits
                mismatches.append((monitor, mismatch_bits))
        return detected, uncorrectable, corrections, reported, mismatches

    def _block_bookkeeping(self, group: _BlockGroup, err_b: np.ndarray,
                           pos: np.ndarray, uncorr_b: np.ndarray,
                           data_fix: np.ndarray,
                           block_results: Dict[int, tuple]) -> None:
        """The object pass's per-monitor verdicts, correction events and
        bad-slice lists for one reporting group (see
        :mod:`repro.engines.reporting` for the layout)."""
        monitors = group.monitors
        detected = err_b.any(axis=1)
        uncorrectable = uncorr_b.any(axis=1)

        # Sequence-major, cycle-ascending enumeration: transposing to
        # (G, B, cycle) makes np.nonzero emit each (monitor, sequence)
        # pair's entries contiguously, so the per-sequence lists are
        # built by slicing runs instead of appending per entry.
        bad: List[Dict[int, List[int]]] = [{} for _ in monitors]
        group_idx, seqs, cycles = np.nonzero(err_b.transpose(0, 2, 1)
                                             [:, :, ::-1])
        cycle_list = cycles.tolist()
        for g, b, start, end in _runs(group_idx, seqs):
            bad[g][b] = cycle_list[start:end]

        corr: List[Dict[int, List[CorrectionEvent]]] = [{} for _ in monitors]
        group_idx, seqs, cycles = np.nonzero(
            data_fix.transpose(0, 2, 1)[:, :, ::-1])
        if group_idx.size:
            fix_pos = pos.transpose(0, 2, 1)[:, :, ::-1][group_idx, seqs,
                                                         cycles]
            chain_list = group.gather_idx[group_idx, fix_pos].tolist()
            cycle_list = cycles.tolist()
            for g, b, start, end in _runs(group_idx, seqs):
                block_index = monitors[g].block.block_index
                # Positional construction (block_index, chain_index,
                # cycle): events are the hot term of dense batches.
                corr[g][b] = [
                    CorrectionEvent(block_index, chain_list[i],
                                    cycle_list[i])
                    for i in range(start, end)]

        for g, monitor in enumerate(monitors):
            block_results[id(monitor)] = (detected[g], uncorrectable[g],
                                          corr[g], bad[g])

    def _clean_report_tuple(self) -> Tuple[MonitorReport, ...]:
        if self._clean_reports is None:
            self._clean_reports = clean_report_tuple(self._order)
        return self._clean_reports

    # ------------------------------------------------------------------
    # Summary interface (columnar, never builds a report object)
    # ------------------------------------------------------------------
    def run_batch_summary(self, states: Sequence[int],
                          knowns: Sequence[int], flips,
                          batch_size: int,
                          path: str = "auto") -> BatchOutcomeArrays:
        """Replicate, encode, inject, decode and compare -- all in the
        word-packed layout, returning only columnar verdicts.

        The numbers are bit-identical to driving
        :meth:`encode_pass_batch` / :meth:`decode_pass_batch` with the
        replicated/injected words and folding the object results field
        by field; the summary pass simply skips every report and
        correction-event materialisation.

        ``path`` selects the implementation: ``"auto"`` (default)
        takes the sparse-delta fast path when the bank structure
        supports superposition and the batch's mean flips per sequence
        is at or below ``self.delta_crossover`` (exactly-at-threshold
        batches included), ``"delta"`` / ``"dense"`` force one side
        (``"delta"`` raises ``ValueError`` on unsupported structures).
        Both paths return bit-identical arrays; the one taken is
        published as ``self.last_summary_path``.
        """
        if path not in ("auto", "delta", "dense"):
            raise ValueError(
                f"unknown summary path {path!r}; choose 'auto', "
                f"'delta' or 'dense'")
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        self._check_chains(states=states, knowns=knowns)
        known_bits = bits_matrix(knowns, self.chain_length)
        use_delta = False
        if path != "dense":
            plan = self._delta_plan_for()
            if plan.supported:
                use_delta = (path == "delta"
                             or flips.num_flips
                             <= self.delta_crossover * batch_size)
            elif path == "delta":
                raise ValueError(
                    f"summary path 'delta' is unavailable for this "
                    f"monitor bank: {plan.reason}")
        if use_delta:
            self.last_summary_path = "delta"
            return self._delta_summary(plan, known_bits, flips, batch_size)
        self.last_summary_path = "dense"
        return self._dense_summary(states, knowns, known_bits, flips,
                                   batch_size)

    def _delta_plan_for(self):
        """The engine's delta plan, built lazily once per instance (the
        LUT/column tables inside are process-wide already)."""
        if self._delta_plan is None:
            self._delta_plan = build_plan(
                self._groups, self._observing,
                self._overlapping_correctors, self.num_chains,
                self.chain_length)
        return self._delta_plan

    def _delta_summary(self, plan, known_bits: np.ndarray, flips,
                       batch_size: int) -> BatchOutcomeArrays:
        """The sparse fast path: verdicts from flip coordinates alone
        (the baseline cancels by GF(2) superposition -- see
        :mod:`repro.engines.delta`)."""
        from repro.faults.batch import pattern_batch_coords

        seqs, cells, injected = pattern_batch_coords(flips, known_bits,
                                                     batch_size)
        return delta_summary(plan, known_bits, seqs, cells, injected,
                             batch_size)

    def _dense_summary(self, states: Sequence[int], knowns: Sequence[int],
                       known_bits: np.ndarray, flips,
                       batch_size: int) -> BatchOutcomeArrays:
        """The dense word pipeline (every density): workspace-backed
        replicate and inject around the shared decode core."""
        from repro.faults.batch import pattern_batch_arrays

        full = self._full_words(batch_size)
        state_bits = bits_matrix(states, self.chain_length)
        # Unknown positions hold all-zero words (the treat-X-as-0
        # rule), exactly like _check_words requires of protocol callers.
        state_bits &= known_bits
        words = replicate_state_words(
            state_bits, full,
            out=self._workspace.take(
                "summary_words", state_bits.shape + (full.size,),
                np.uint64))
        self._encode_baseline(state_bits, batch_size)
        flip_chains, flip_positions, flip_masks, injected = \
            pattern_batch_arrays(flips, knowns, batch_size)
        if flip_chains.size:
            words[flip_chains, flip_positions] ^= flip_masks
        detected, uncorrectable, corrections, _reported, _mismatches = \
            self._decode_words(words, batch_size)
        # Vectorised state-domain comparator against the replicated
        # pre-sleep state (the shared kernel; bit matrices are already
        # expanded, so pass them through).
        residuals = residual_counts_words(states, knowns, words,
                                          batch_size,
                                          state_bits=state_bits,
                                          known_bits=known_bits)
        return BatchOutcomeArrays(
            injected=injected.astype(np.int64),
            detected=detected,
            uncorrectable=uncorrectable,
            residual_errors=residuals,
            corrections_applied=corrections)

    # ------------------------------------------------------------------
    # Scalar interface (a batch of one, through the same word path)
    # ------------------------------------------------------------------
    def _single_words(self, states: Sequence[int]) -> np.ndarray:
        """Packed chain states as the word array of a batch of one."""
        return bits_matrix(states, self.chain_length)[:, :, None] \
            .astype(np.uint64)

    def encode_pass(self, design) -> int:
        states, knowns = pack_chains(design.chains)
        return self.encode_pass_batch(self._single_words(states), knowns, 1)

    def decode_pass(self, design) -> List[MonitorReport]:
        states, knowns = pack_chains(design.chains)
        result = self.decode_pass_batch(self._single_words(states),
                                        knowns, 1)
        rows = np.packbits(result.corrected[:, :, 0].astype(bool), axis=1,
                           bitorder="little")
        corrected_states = [int.from_bytes(row.tobytes(), "little")
                            for row in rows]
        write_back_chains(design.chains, states, knowns, corrected_states)
        return list(result.reports[0])


__all__ = [
    "SimdBatchedEngine",
    "Workspace",
    "full_words",
]
