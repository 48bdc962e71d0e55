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
  sequence ``64 * w + b``, the word-packed transposition of the engine
  protocol's bit planes;
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
  the packed words; per-sequence Python work is limited to
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
dense summary pass's dominant arrays, so steady-state equally-shaped
batches stop allocating fresh state each pass.

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
from repro.engines.packing import (
    pack_chains,
    replicate_states,
    states_from_planes,
    write_back_chains,
)
from repro.engines.reporting import assemble_batch_result, clean_report_tuple
from repro.fastpath.engine import classify_monitors

if not np.little_endian:  # pragma: no cover - no big-endian CI targets
    raise ImportError(
        "repro.engines.simd packs batch words little-endian and has "
        "only been validated on little-endian platforms")

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_NO_FLIPS: Tuple[np.ndarray, np.ndarray] = (
    np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64))


# ----------------------------------------------------------------------
# Plane <-> word-array boundary
# ----------------------------------------------------------------------
# The planes -> words packer is a generic array kernel, so its single
# implementation lives in repro.engines.summary; re-exported here
# because this module is the word layout's home.
from repro.engines.summary import planes_to_words  # noqa: E402


def words_to_planes(words: np.ndarray) -> List[List[int]]:
    """Unpack a ``(C, L, W)`` uint64 word array into protocol planes."""
    num_chains, length, num_words = words.shape
    nbytes = num_words * 8
    data = np.ascontiguousarray(words, dtype=np.uint64).tobytes()
    planes: List[List[int]] = []
    offset = 0
    for _chain in range(num_chains):
        chain_planes = []
        for _position in range(length):
            chain_planes.append(
                int.from_bytes(data[offset:offset + nbytes], "little"))
            offset += nbytes
        planes.append(chain_planes)
    return planes


def full_words(batch_size: int) -> np.ndarray:
    """The all-sequences mask as a ``(W,)`` word array."""
    num_words = (batch_size + 63) // 64
    mask = np.full(num_words, _ALL_ONES, dtype=np.uint64)
    if batch_size % 64:
        mask[-1] = np.uint64((1 << (batch_size % 64)) - 1)
    return mask


def _unpack_bits(words: np.ndarray, batch_size: int) -> np.ndarray:
    """Expand packed words ``(..., W)`` into per-sequence bits
    ``(..., B)`` (uint8 0/1)."""
    flat = np.ascontiguousarray(words, dtype=np.uint64)
    bits = np.unpackbits(flat.view(np.uint8), axis=-1, bitorder="little")
    return bits[..., :batch_size]


def _mask_ints(mask: np.ndarray) -> List[int]:
    """Per-row Python-int sequence masks of a ``(G, B)`` bool array."""
    packed = np.packbits(mask, axis=-1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _words_to_int(words: np.ndarray) -> int:
    """One ``(W,)`` word row as a Python-int sequence mask."""
    return int.from_bytes(
        np.ascontiguousarray(words, dtype=np.uint64).tobytes(), "little")


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
        return syn != 0, self.lut[syn]


class _SECDEDKernel:
    """Vectorised extended-Hamming (SECDED) parity/decode.

    Mirrors :meth:`repro.codes.packed.PackedSECDED.decode_slice`: the
    observed overall parity folds the received data word with the
    *stored* base parity bits, so the four case splits (clean / overall
    bit flipped / single corrected / double detected) are mask algebra
    over two unpacked planes.
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
        pm_plane = np.bitwise_xor.reduce(data, axis=1)
        pm_plane = pm_plane ^ np.bitwise_xor.reduce(stored_base, axis=1)
        pm_plane ^= stored[:, base_r]
        if not (diff.any() or pm_plane.any()):
            return None
        syn = _fold_syndrome(_unpack_bits(diff, batch_size))
        mismatch = _unpack_bits(pm_plane, batch_size).astype(bool)
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
        #: Per-pass XOR-scatter coordinates (for the overlap replay).
        self._flips: Tuple[np.ndarray, np.ndarray] = _NO_FLIPS


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

    def _to_words(self, planes: Sequence[Sequence[int]],
                  knowns: Sequence[int], batch_size: int) -> np.ndarray:
        """Validate the protocol inputs and pack them into words."""
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if len(planes) != self.num_chains or len(knowns) != self.num_chains:
            raise ValueError(
                f"expected {self.num_chains} plane chains, got "
                f"{len(planes)}")
        length = self.chain_length
        chain_full = (1 << length) - 1
        for chain_planes, known in zip(planes, knowns):
            if len(chain_planes) != length:
                raise ValueError(
                    f"expected {length} planes per chain, got "
                    f"{len(chain_planes)}")
            if not 0 <= known <= chain_full:
                raise ValueError("known mask exceeds the chain length")
        words = planes_to_words(planes, batch_size)
        for c, known in enumerate(knowns):
            unknown = chain_full & ~known
            while unknown:
                low = unknown & -unknown
                unknown ^= low
                if words[c, low.bit_length() - 1].any():
                    raise ValueError(
                        "unknown positions must hold all-zero planes")
        return words

    def _gather(self, group: _BlockGroup, words: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
        """The group's data words ``(G, k, L, W)``; tied-off padding
        inputs are constant-zero rows.  ``out`` (workspace buffer of
        shape ``(G * k, L, W)``) is fully overwritten when given."""
        idx = group.gather_idx.reshape(-1)
        if out is None:
            data = words[idx]
        else:
            data = np.take(words, idx, axis=0, out=out)
        data = data.reshape(len(group.monitors), group.kernel.k,
                            self.chain_length, -1)
        if group.pad_mask is not None:
            data[group.pad_mask] = 0
        return data

    def _stream_signature(self, monitor: _SimdStreamMonitor,
                          words_flat: np.ndarray,
                          full: np.ndarray) -> np.ndarray:
        """The batch's signature planes of one stream block."""
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
    def encode_pass_batch(self, planes: Sequence[Sequence[int]],
                          knowns: Sequence[int], batch_size: int) -> int:
        """Run one batched encoding pass; returns the cycle count."""
        words = self._to_words(planes, knowns, batch_size)
        return self._encode_words(words, batch_size)

    def _gather_ws(self, index: int, group: _BlockGroup,
                   words: np.ndarray) -> np.ndarray:
        """:meth:`_gather` through a per-group workspace buffer (the
        gathered view never escapes the pass that took it)."""
        shape = (group.gather_idx.size, self.chain_length, words.shape[2])
        buf = self._workspace.take(("gather", index), shape, np.uint64)
        return self._gather(group, words, out=buf)

    def _encode_words(self, words: np.ndarray, batch_size: int) -> int:
        """Encode a word-packed batch, storing the check words."""
        full = self._full_words(batch_size)
        for index, group in enumerate(self._groups):
            group.stored = group.kernel.encode(
                self._gather_ws(index, group, words), full)
        words_flat = words.reshape(-1, words.shape[2])
        for monitor in self._observing:
            monitor.stored = self._stream_signature(monitor, words_flat,
                                                    full)
        self._encoded_batch = batch_size
        return self.chain_length

    def decode_pass_batch(self, planes: Sequence[Sequence[int]],
                          knowns: Sequence[int],
                          batch_size: int) -> BatchDecodeResult:
        """Run one batched decoding pass with on-the-fly correction."""
        if self._encoded_batch is None:
            raise RuntimeError("no stored check bits: encode first")
        if batch_size != self._encoded_batch:
            raise RuntimeError(
                f"decode batch size {batch_size} does not match the "
                f"encoded batch size {self._encoded_batch}")
        words = self._to_words(planes, knowns, batch_size)
        full = self._full_words(batch_size)

        block_results: Dict[int, tuple] = {}
        group_flips: List[Tuple[np.ndarray, np.ndarray]] = []
        for group in self._groups:
            flips = self._decode_group(group, words, full, batch_size,
                                       block_results)
            if flips is not None:
                group_flips.append(flips)

        corrected_words = words.copy()
        corrected_flat = corrected_words.reshape(-1)
        if self._overlapping_correctors:
            # Reference-faithful last-block-wins feedback: every
            # correcting block assigns its slice in bank order, so on a
            # shared chain the last block's (possibly uncorrected)
            # version survives.  Each block's flips were computed from
            # the original words, so reassign-then-flip per block.
            for monitor in self._correcting:
                idx = monitor.chain_idx_arr
                corrected_words[idx] = words[idx]
                flat, bits = monitor._flips
                if flat.size:
                    np.bitwise_xor.at(corrected_flat, flat, bits)
        else:
            for flat, bits in group_flips:
                np.bitwise_xor.at(corrected_flat, flat, bits)

        stream_results: Dict[int, int] = {}
        words_flat = corrected_words.reshape(-1, corrected_words.shape[2])
        for monitor in self._observing:
            if monitor.stored is None:
                raise RuntimeError("no stored signature: encode first")
            fresh = self._stream_signature(monitor, words_flat, full)
            mismatch = np.bitwise_or.reduce(fresh ^ monitor.stored, axis=0)
            stream_results[id(monitor)] = _words_to_int(mismatch)

        # Convert only the cells the decode actually changed back into
        # plane ints; unchanged cells reuse the caller's (immutable)
        # plane objects, so a sparse batch pays almost no conversion.
        changed = (corrected_words != words).any(axis=2)
        corrected_planes = [list(chain_planes) for chain_planes in planes]
        if changed.any():
            for c, position in zip(*(idx.tolist()
                                     for idx in np.nonzero(changed))):
                corrected_planes[c][position] = int.from_bytes(
                    np.ascontiguousarray(
                        corrected_words[c, position],
                        dtype=np.uint64).tobytes(),
                    "little")

        result = assemble_batch_result(self._order,
                                       self._clean_report_tuple(),
                                       block_results, stream_results,
                                       corrected_planes,
                                       batch_size)
        # The word form of the corrected state rides along so that
        # downstream consumers (the vectorised state-domain comparator)
        # never re-pack the planes.
        result.corrected_words = corrected_words
        return result

    # ------------------------------------------------------------------
    def _decode_group(self, group: _BlockGroup, words: np.ndarray,
                      full: np.ndarray, batch_size: int,
                      block_results: Dict[int, tuple]
                      ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Decode one code group; returns its XOR-scatter flips."""
        monitors = group.monitors
        out = group.kernel.decode(self._gather(group, words), group.stored,
                                  full, batch_size)
        if out is None:
            for monitor in monitors:
                monitor._flips = _NO_FLIPS
                block_results[id(monitor)] = (0, 0, {}, {})
            return None
        err_b, pos = out
        k = group.kernel.k
        width = group.width[:, None, None]
        uncorr_b = err_b & ((pos == -2) | ((pos >= width) & (pos < k)))
        data_fix = err_b & (pos >= 0) & (pos < width)
        det_ints = _mask_ints(err_b.any(axis=1))
        unc_ints = _mask_ints(uncorr_b.any(axis=1))

        # Sequence-major, cycle-ascending enumeration: transposing to
        # (G, B, cycle) makes np.nonzero emit each (monitor, sequence)
        # pair's entries contiguously, so the per-sequence lists are
        # built by slicing runs instead of appending per entry.
        length = self.chain_length
        bad: List[Dict[int, List[int]]] = [{} for _ in monitors]
        group_idx, seqs, cycles = np.nonzero(err_b.transpose(0, 2, 1)
                                             [:, :, ::-1])
        cycle_list = cycles.tolist()
        for g, b, start, end in _runs(group_idx, seqs):
            bad[g][b] = cycle_list[start:end]

        corr: List[Dict[int, List[CorrectionEvent]]] = [{} for _ in monitors]
        fix_t = data_fix.transpose(0, 2, 1)[:, :, ::-1]
        group_idx, seqs, cycles = np.nonzero(fix_t)
        if group_idx.size:
            fix_pos = pos.transpose(0, 2, 1)[:, :, ::-1][group_idx, seqs,
                                                         cycles]
            chains = group.gather_idx[group_idx, fix_pos]
            flat = (chains * length + (length - 1 - cycles)) \
                * words.shape[2] + (seqs >> 6)
            bits = np.left_shift(np.uint64(1),
                                 (seqs & 63).astype(np.uint64))
            chain_list = chains.tolist()
            cycle_list = cycles.tolist()
            for g, b, start, end in _runs(group_idx, seqs):
                block_index = monitors[g].block.block_index
                # Positional construction (block_index, chain_index,
                # cycle): events are the hot term of dense batches.
                corr[g][b] = [
                    CorrectionEvent(block_index, chain_list[i],
                                    cycle_list[i])
                    for i in range(start, end)]
        else:
            flat, bits = _NO_FLIPS

        if self._overlapping_correctors and group_idx.size:
            for g, monitor in enumerate(monitors):
                mask = group_idx == g
                monitor._flips = (flat[mask], bits[mask])
        else:
            for monitor in monitors:
                monitor._flips = _NO_FLIPS

        for g, monitor in enumerate(monitors):
            block_results[id(monitor)] = (det_ints[g], unc_ints[g],
                                          corr[g], bad[g])
        return flat, bits

    def _clean_report_tuple(self) -> Tuple[MonitorReport, ...]:
        if self._clean_reports is None:
            self._clean_reports = clean_report_tuple(self._order)
        return self._clean_reports

    # ------------------------------------------------------------------
    # Summary interface (columnar, never touches plane ints)
    # ------------------------------------------------------------------
    def run_batch_summary(self, states: Sequence[int],
                          knowns: Sequence[int], flips,
                          batch_size: int,
                          path: str = "auto") -> BatchOutcomeArrays:
        """Replicate, encode, inject, decode and compare -- all in the
        word-packed layout, returning only columnar verdicts.

        The numbers are bit-identical to driving
        :meth:`encode_pass_batch` / :meth:`decode_pass_batch` with the
        replicated/injected planes and folding the object results field
        by field; the summary pass simply skips every report,
        correction-event and plane-int materialisation.

        ``path`` selects the implementation: ``"auto"`` (default)
        takes the sparse-delta fast path when the bank structure
        supports superposition and the batch's mean flips per sequence
        is at or below ``self.delta_crossover`` (exactly-at-threshold
        batches included), ``"delta"`` / ``"dense"`` force one side
        (``"delta"`` raises ``ValueError`` on unsupported structures).
        Both paths return bit-identical arrays; the one taken is
        published as ``self.last_summary_path``.
        """
        from repro.engines.summary import bits_matrix
        from repro.faults.batch import PatternBatch

        if path not in ("auto", "delta", "dense"):
            raise ValueError(
                f"unknown summary path {path!r}; choose 'auto', "
                f"'delta' or 'dense'")
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if len(states) != self.num_chains or len(knowns) != self.num_chains:
            raise ValueError(
                f"expected {self.num_chains} chain states, got "
                f"{len(states)}")
        known_bits = bits_matrix(knowns, self.chain_length)
        use_delta = False
        if path != "dense":
            plan = self._delta_plan_for()
            if plan.supported:
                if isinstance(flips, PatternBatch):
                    num_flips = flips.num_flips
                else:
                    num_flips = sum(bin(mask).count("1")
                                    for mask in flips.values())
                use_delta = (path == "delta"
                             or num_flips
                             <= self.delta_crossover * batch_size)
            elif path == "delta":
                raise ValueError(
                    f"summary path 'delta' is unavailable for this "
                    f"monitor bank: {plan.reason}")
        if use_delta:
            self.last_summary_path = "delta"
            return self._delta_summary(plan, knowns, known_bits, flips,
                                       batch_size)
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

    def _delta_summary(self, plan, knowns: Sequence[int],
                       known_bits: np.ndarray, flips,
                       batch_size: int) -> BatchOutcomeArrays:
        """The sparse fast path: verdicts from flip coordinates alone
        (the baseline cancels by GF(2) superposition -- see
        :mod:`repro.engines.delta`)."""
        from repro.faults.batch import (
            PatternBatch,
            batch_flips_coords,
            pattern_batch_coords,
        )

        if isinstance(flips, PatternBatch):
            seqs, cells, injected = pattern_batch_coords(
                flips, known_bits, batch_size)
        else:
            seqs, cells, injected = batch_flips_coords(
                flips, knowns, batch_size, self.chain_length)
        return delta_summary(plan, known_bits, seqs, cells, injected,
                             batch_size)

    def _dense_summary(self, states: Sequence[int], knowns: Sequence[int],
                       known_bits: np.ndarray, flips,
                       batch_size: int) -> BatchOutcomeArrays:
        """The dense word pipeline (every density), with workspace-
        backed state buffers."""
        from repro.engines.summary import (
            bits_matrix,
            replicate_state_words,
            residual_counts_words,
        )
        from repro.faults.batch import (
            PatternBatch,
            batch_flips_arrays,
            pattern_batch_arrays,
        )

        length = self.chain_length
        full = self._full_words(batch_size)
        state_bits = bits_matrix(states, length)
        # Unknown positions hold all-zero planes (the treat-X-as-0
        # rule), exactly like _to_words requires of protocol callers.
        state_bits &= known_bits
        words = replicate_state_words(
            state_bits, full,
            out=self._workspace.take(
                "summary_words", state_bits.shape + (full.size,),
                np.uint64))
        self._encode_words(words, batch_size)
        # A PatternBatch resolves to scatter arrays without any
        # per-flip Python work; a BatchFlips dict goes through the
        # shared dict resolver.
        if isinstance(flips, PatternBatch):
            flip_chains, flip_positions, flip_masks, injected = \
                pattern_batch_arrays(flips, knowns, batch_size)
        else:
            flip_chains, flip_positions, flip_masks, injected = \
                batch_flips_arrays(flips, knowns, batch_size)
        if flip_chains.size:
            words[flip_chains, flip_positions] ^= flip_masks

        detected = np.zeros(batch_size, dtype=bool)
        uncorrectable = np.zeros(batch_size, dtype=bool)
        corrections = np.zeros(batch_size, dtype=np.int64)
        num_words = words.shape[2]
        overlap = self._overlapping_correctors
        group_flips: List[Tuple[np.ndarray, np.ndarray]] = []
        if overlap:
            pre_correction = self._workspace.take("summary_pre",
                                                  words.shape, np.uint64)
            pre_correction[...] = words
        else:
            pre_correction = None
        words_flat = words.reshape(-1)
        for index, group in enumerate(self._groups):
            out = group.kernel.decode(self._gather_ws(index, group, words),
                                      group.stored, full, batch_size)
            if out is None:
                for monitor in group.monitors:
                    monitor._flips = _NO_FLIPS
                continue
            err_b, pos = out
            k = group.kernel.k
            width = group.width[:, None, None]
            detected |= err_b.any(axis=(0, 1))
            uncorr_b = err_b & ((pos == -2) | ((pos >= width) & (pos < k)))
            uncorrectable |= uncorr_b.any(axis=(0, 1))
            data_fix = err_b & (pos >= 0) & (pos < width)
            corrections += data_fix.sum(axis=(0, 1), dtype=np.int64)
            group_idx, positions, seqs = np.nonzero(data_fix)
            if not group_idx.size:
                for monitor in group.monitors:
                    monitor._flips = _NO_FLIPS
                continue
            fix_pos = pos[group_idx, positions, seqs]
            chains = group.gather_idx[group_idx, fix_pos]
            flat = (chains * length + positions) * num_words + (seqs >> 6)
            bits = np.left_shift(np.uint64(1),
                                 (seqs & 63).astype(np.uint64))
            if overlap:
                for g, monitor in enumerate(group.monitors):
                    mask = group_idx == g
                    monitor._flips = (flat[mask], bits[mask])
            else:
                group_flips.append((flat, bits))

        if overlap:
            # Reference-faithful last-block-wins feedback, as in
            # decode_pass_batch: reassign each block's slice from the
            # pre-correction words in bank order, then apply its flips.
            for monitor in self._correcting:
                idx = monitor.chain_idx_arr
                words[idx] = pre_correction[idx]
                flat, bits = monitor._flips
                if flat.size:
                    np.bitwise_xor.at(words_flat, flat, bits)
        else:
            for flat, bits in group_flips:
                np.bitwise_xor.at(words_flat, flat, bits)

        corrected_flat2 = words.reshape(-1, num_words)
        for monitor in self._observing:
            fresh = self._stream_signature(monitor, corrected_flat2, full)
            mismatch = np.bitwise_or.reduce(fresh ^ monitor.stored, axis=0)
            if mismatch.any():
                mismatch_bits = _unpack_bits(mismatch,
                                             batch_size).astype(bool)
                detected |= mismatch_bits
                uncorrectable |= mismatch_bits

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
    def encode_pass(self, design) -> int:
        states, knowns = pack_chains(design.chains)
        planes = replicate_states(states, self.chain_length, 1)
        return self.encode_pass_batch(planes, knowns, 1)

    def decode_pass(self, design) -> List[MonitorReport]:
        states, knowns = pack_chains(design.chains)
        planes = replicate_states(states, self.chain_length, 1)
        result = self.decode_pass_batch(planes, knowns, 1)
        corrected_states = states_from_planes(result.corrected, 0)
        write_back_chains(design.chains, states, knowns, corrected_states)
        return list(result.reports[0])


__all__ = [
    "SimdBatchedEngine",
    "Workspace",
    "planes_to_words",
    "words_to_planes",
    "full_words",
]
