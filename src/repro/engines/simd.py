"""The NumPy word-packed SIMD engine: fully vectorised batched passes.

The packed engine (:mod:`repro.engines.packed`) collapses the bit
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
  sequence ``64 * w + b``;
* parities and CRC signatures are GF(2) linear maps, evaluated as XOR
  folds over ndarray gathers using the shared matrices of
  :mod:`repro.codes.plane` (:func:`~repro.codes.plane.block_parity_matrix`
  / :func:`~repro.codes.plane.crc_stream_matrix`) -- no popcounts, no
  per-slice work;
* correcting blocks sharing one code are stacked on a leading *group*
  axis, so one kernel invocation decodes every Hamming block of the
  bank at once;
* correction is bit-sliced mask algebra on the same words, 64
  sequences per operation: with ``diff_j`` the mismatch word of
  syndrome bit ``j``, a codeword position whose syndrome is ``s``
  matches where ``AND_j (diff_j if bit j of s else ~diff_j)`` is set
  (the syndromes are read backwards out of the shared correction LUT).
  Data-position matches are the fix masks and one XOR applies them;
  matches on tied-off padding inputs and LUT-uncorrectable syndromes
  are the uncorrectable mask; SECDED splits its cases with the
  overall-parity mismatch word.  Detected and uncorrectable verdicts
  are ORs of masks and the correction count a per-sequence popcount
  of the fix masks; the summary pass never builds a per-sequence
  object.

The summary pass additionally answers **single-error batches from a
table**: every registered code is GF(2)-linear and the stored check
words derive from the same replicated baseline, so a sequence with at
most one effective flip has verdicts that depend only on the flipped
cell (given the known-bit matrix), never on the baseline state.  The
engine runs its own dense pass once over a batch holding one flip per
scan cell plus one clean sequence, keeps the result for the last known
matrix seen (and process-wide, keyed on the bank structure, geometry
and known matrix, so a later engine of the same configuration reuses
it).  Such a batch is answered by the table row of each sequence: its
counters are one histogram of those rows times a per-table tally
matrix, and its per-sequence arrays are gathered only when read.
:meth:`~SimdBatchedEngine.run_batch_summary` takes the table when the
batch has at most ``batch_size`` flips and no sequence has two
effective flips, and the dense word pipeline otherwise; the path taken
is published as ``engine.last_summary_path``.  Both are bit-identical
(property-tested in ``tests/engines/test_delta_path.py`` and
``tests/engines/test_batch_tally.py``).

Each engine reuses per-instance :class:`Workspace` buffers for the
decode core's and the dense summary pass's dominant arrays, so
steady-state equally-shaped batches stop allocating fresh state each
pass.

The scalar passes (:meth:`SimdBatchedEngine.encode_pass` /
:meth:`~SimdBatchedEngine.decode_pass`, one design through one cycle)
delegate to a :class:`~repro.engines.packed.PackedEngineAdapter` for
the same bank, built by the first scalar pass, which is bit-exact
against the reference and replays overlapping correctors; the word
pipeline serves whole batches only.

Bit-exactness of the summary pass against per-sequence reference
cycles is property-tested in ``tests/engines/test_simd_equivalence.py``
across all registered codes, geometries, batch sizes and fault
densities.  The engine registers itself as ``"simd"`` only when numpy
is importable (the ``[simd]`` extra); the core install stays pure
Python.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codes.crc import CRCCode
from repro.codes.hamming import HammingCode
from repro.codes.parity import ParityCode
from repro.codes.plane import block_parity_matrix, crc_stream_matrix
from repro.codes.secded import SECDEDCode
from repro.core.monitor import MonitorBank, MonitorReport
from repro.engines.base import (
    BatchOutcomeArrays,
    BatchTally,
    SimulationEngine,
    tally_columns,
)
from repro.engines.packed import PackedEngineAdapter, classify_monitors
from repro.engines.summary import (
    bits_matrix,
    full_words,
    per_sequence_popcounts,
    replicate_state_words,
    residual_counts_words,
)

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


# ----------------------------------------------------------------------
# Process-wide (code -> table) cache
# ----------------------------------------------------------------------
#: Syndrome tables memoised on the code *parameters*, like the GF(2)
#: matrix cache of :mod:`repro.codes.plane`: sharded campaign workers
#: rebuild every engine per chunk, and each rebuild would otherwise
#: re-derive the same tables.  Only the exact built-in code types are
#: cached (a subclass may override the defining equations), keys carry
#: the type object itself, and the cached ndarrays are frozen read-only
#: so sharing one instance across engines and processes is safe.
_TABLE_CACHE: Dict[tuple, np.ndarray] = {}


def _code_key(code, kind: str) -> Optional[tuple]:
    if type(code) in (HammingCode, SECDEDCode):
        return (kind, type(code), code.n, code.k)
    if type(code) is ParityCode:
        return (kind, type(code), code.k, code.odd)
    if type(code) is CRCCode:
        return (kind, type(code), code.width, code.poly, code.init)
    return None


def shared_table(code, kind: str,
                 build: Callable[[], np.ndarray]) -> np.ndarray:
    """The read-only table ``build()`` returns for ``code``, built once
    per process for each ``(kind, code parameters)``."""
    key = _code_key(code, kind)
    if key is not None:
        cached = _TABLE_CACHE.get(key)
        if cached is not None:
            return cached
    table = build()
    table.setflags(write=False)
    if key is not None:
        _TABLE_CACHE[key] = table
    return table


def correction_lut(code) -> np.ndarray:
    """The syndrome -> systematic-position correction LUT of a
    correcting block code, shared process-wide.

    ``-1`` clean, ``-2`` detected-uncorrectable, ``0..n-1`` the
    systematic position to flip: Hamming codes get the full ``1 << r``
    table with the clean entry, SECDED codes the ``1 << base_r``
    single-error table of the base code (the overall-parity case split
    happens outside the table).  The returned array is read-only.
    """
    if isinstance(code, SECDEDCode):
        def build() -> np.ndarray:
            base_r = code.n - code.k - 1
            lut = np.full(1 << base_r, -2, dtype=np.int16)
            for position in range(1, code.n):
                lut[position] = code._position_to_systematic[position]
            return lut
    elif isinstance(code, HammingCode):
        def build() -> np.ndarray:
            lut = np.full(1 << code.r, -2, dtype=np.int16)
            lut[0] = -1
            for position in range(1, code.n + 1):
                lut[position] = code._position_to_systematic[position]
            return lut
    else:
        raise ValueError(
            f"{type(code).__name__} has no syndrome correction LUT")
    return shared_table(code, "correction", build)


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


def _syndrome_flips(lut: np.ndarray, k: int, r: int) -> np.ndarray:
    """The ``(r, m)`` XOR constants of :func:`_match_words` for a
    correction LUT read backwards: column ``p < k`` is the syndrome that
    flips data position ``p``, the columns after it the nonzero
    syndromes the LUT calls detected-uncorrectable (``-2``).  Entry
    ``[j, i]`` is 0 where bit ``j`` of syndrome ``i`` is set (keep
    mismatch row ``j``) and all-ones where it is clear (complement
    it)."""
    entries = lut.tolist()
    syndromes = [entries.index(position) for position in range(k)]
    syndromes += [s for s in range(1, len(entries)) if entries[s] == -2]
    bits = (np.array(syndromes, dtype=np.int64)[None, :]
            >> np.arange(r, dtype=np.int64)[:, None]) & 1
    return np.where(bits == 1, np.uint64(0), ~np.uint64(0))


def _match_words(diff: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """Bit-sliced syndrome comparison over mismatch words.

    ``diff`` is ``(G, r, L, W)`` (row ``j`` is syndrome bit ``j`` of
    every lane) and ``flips`` the ``(r, m)`` constants of
    :func:`_syndrome_flips`; the result is ``(G, m, L, W)`` with a bit
    set exactly where that lane's syndrome equals syndrome ``i`` -- the
    AND over ``j`` of ``diff_j`` or ``~diff_j``.  Every syndrome passed
    in is nonzero, so each match ANDs at least one plain ``diff_j`` and
    the lanes past the batch (all-zero mismatch) never match.
    """
    match = diff[:, 0, None] ^ flips[0, :, None, None]
    for j in range(1, diff.shape[1]):
        match &= diff[:, j, None] ^ flips[j, :, None, None]
    return match


class _HammingKernel:
    """Vectorised Hamming parity/decode over grouped word arrays.

    Decode returns ``(err, fix, unc)`` as words, or None for a clean
    group: ``err`` / ``unc`` are ``(G, L, W)`` masks of the codewords
    with a nonzero syndrome / a syndrome the code cannot correct, and
    ``fix`` is ``(G, k, L, W)`` with ``fix[:, p]`` the codewords whose
    syndrome points at data position ``p``.  A syndrome pointing at a
    check bit sets ``err`` only.  The caller handles padding.
    """

    def __init__(self, code: HammingCode):
        matrix = block_parity_matrix(code)
        self.code = code
        self.k = code.k
        self.rows = tuple(np.array(row, dtype=np.int64)
                          for row in matrix.rows)
        self.const = matrix.const
        self.flips = _syndrome_flips(correction_lut(code), code.k, code.r)

    def encode(self, data: np.ndarray, full: np.ndarray) -> np.ndarray:
        return _parity_words(self.rows, self.const, data, full)

    def decode(self, data: np.ndarray, stored: np.ndarray,
               full: np.ndarray):
        diff = self.encode(data, full)
        np.bitwise_xor(diff, stored, out=diff)
        if not diff.any():
            return None
        err = np.bitwise_or.reduce(diff, axis=1)
        match = _match_words(diff, self.flips)
        # An empty reduction (no uncorrectable syndrome) is all-zero.
        unc = np.bitwise_or.reduce(match[:, self.k:], axis=1)
        return err, match[:, :self.k], unc


class _SECDEDKernel:
    """Vectorised extended-Hamming (SECDED) parity/decode.

    Mirrors :meth:`repro.codes.packed.PackedSECDED.decode_slice`: the
    observed overall parity folds the received data word with the
    *stored* base parity bits, so the four case splits are mask algebra
    over the base mismatch words and the overall-parity mismatch word
    ``m``: clean, the overall bit alone (``m`` with a zero syndrome:
    detected and corrected, data intact), a single error (``m`` with a
    nonzero syndrome: the base code's call) and a double error (a
    nonzero syndrome without ``m``: uncorrectable).  Decode returns
    words in the layout of :meth:`_HammingKernel.decode`.
    """

    def __init__(self, code: SECDEDCode):
        matrix = block_parity_matrix(code)
        self.code = code
        self.k = code.k
        self.base_r = code.n - code.k - 1  # parity bits bar the overall
        self.rows = tuple(np.array(row, dtype=np.int64)
                          for row in matrix.rows)
        self.const = matrix.const
        self.flips = _syndrome_flips(correction_lut(code), code.k,
                                     self.base_r)

    def encode(self, data: np.ndarray, full: np.ndarray) -> np.ndarray:
        return _parity_words(self.rows, self.const, data, full)

    def decode(self, data: np.ndarray, stored: np.ndarray,
               full: np.ndarray):
        base_r = self.base_r
        fresh_base = _parity_words(self.rows[:base_r], self.const[:base_r],
                                   data, full)
        stored_base = stored[:, :base_r]
        diff = fresh_base ^ stored_base
        overall = np.bitwise_xor.reduce(data, axis=1)
        overall ^= np.bitwise_xor.reduce(stored_base, axis=1)
        overall ^= stored[:, base_r]
        if not (diff.any() or overall.any()):
            return None
        nonzero = np.bitwise_or.reduce(diff, axis=1)
        match = _match_words(diff, self.flips)
        fix = match[:, :self.k] & overall[:, None]
        unc = nonzero & ~overall
        unc |= np.bitwise_or.reduce(match[:, self.k:], axis=1) & overall
        return nonzero | overall, fix, unc


class _ParityKernel:
    """Vectorised single-parity-bit detection (never corrects)."""

    def __init__(self, code: ParityCode):
        matrix = block_parity_matrix(code)
        self.code = code
        self.k = code.k
        self.rows = (np.array(matrix.rows[0], dtype=np.int64),)
        self.const = matrix.const

    def encode(self, data: np.ndarray, full: np.ndarray) -> np.ndarray:
        return _parity_words(self.rows, self.const, data, full)

    def decode(self, data: np.ndarray, stored: np.ndarray,
               full: np.ndarray):
        diff = self.encode(data, full)
        np.bitwise_xor(diff, stored, out=diff)
        if not diff.any():
            return None
        return diff[:, 0], None, diff[:, 0]


def _kernel_class(code):
    """The kernel class that decodes ``code``; ``ValueError`` for
    codes without a structured GF(2) form."""
    if isinstance(code, SECDEDCode):
        return _SECDEDKernel
    if type(code) is HammingCode:
        return _HammingKernel
    if isinstance(code, ParityCode):
        return _ParityKernel
    raise ValueError(
        f"engine 'simd' has no vectorised decoder for "
        f"{type(code).__name__}; use engine='packed' for adapter codes")


# ----------------------------------------------------------------------
# Monitor wrappers and code groups
# ----------------------------------------------------------------------
class _SimdBlockMonitor:
    """One correcting block's structure (the kernel lives on its group)."""

    def __init__(self, block):
        _kernel_class(block.code)  # fail fast on unsupported codes
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
        self.rows_flat: Optional[Tuple[np.ndarray, ...]] = None
        self.const_idx: Optional[np.ndarray] = None
        self.stored: Optional[np.ndarray] = None


#: Each CRC stream block's flat signature rows and constant-row
#: indices (:func:`_stream_rows`), memoised on the exact CRC
#: parameters, the block's chains and the chain length: every campaign
#: builds a new engine, and each would otherwise turn the memoised
#: stream matrix's rows into ndarrays again.  The arrays are read-only.
_STREAM_ROWS_CACHE: Dict[tuple, Tuple[Tuple[np.ndarray, ...],
                                       np.ndarray]] = {}


def _stream_rows(code: CRCCode, chain_indices: Tuple[int, ...],
                 chain_length: int
                 ) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """A stream block's CRC signature as ``(rows_flat, const_idx)``.

    ``rows_flat[j]`` lists signature row ``j``'s stream bits as flat
    ``chain * chain_length + position`` cell indices: stream bit ``s``
    is chain ``chain_indices[s % width]`` at scan position
    ``chain_length - 1 - s // width`` (the block's chains interleave,
    last flop first).  ``const_idx`` lists the rows whose constant
    term is 1.
    """
    key = _code_key(code, "stream")
    if key is not None:
        key += (chain_indices, chain_length)
        cached = _STREAM_ROWS_CACHE.get(key)
        if cached is not None:
            return cached
    width = len(chain_indices)
    matrix = crc_stream_matrix(code, chain_length * width)
    indices = np.asarray(chain_indices, dtype=np.int64)
    flat = []
    for row in matrix.rows:
        bits = np.asarray(row, dtype=np.int64)
        flat.append(indices[bits % width] * chain_length
                    + (chain_length - 1 - bits // width))
    const_idx = np.flatnonzero(np.array(matrix.const, dtype=np.uint8))
    for values in (*flat, const_idx):
        values.setflags(write=False)
    rows = (tuple(flat), const_idx)
    if key is not None:
        _STREAM_ROWS_CACHE[key] = rows
    return rows


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
        #: ``(g, width)`` of every monitor whose tail positions are
        #: tied-off padding.
        self.padded = [(g, monitor.width)
                       for g, monitor in enumerate(monitors)
                       if monitor.width < k]
        #: The flat ``(g, position)`` rows of real data positions and
        #: the chain each one corrects.
        self.data_rows = np.flatnonzero(~pad.reshape(-1))
        self.data_chains = self.gather_idx.reshape(-1)[self.data_rows]
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


#: Single-flip outcome tables (:meth:`SimdBatchedEngine.\
#: _single_flip_table`) shared across engines: every campaign builds a
#: new engine, and each would otherwise rerun the table's every-cell
#: dense pass.  The key is everything that pass reads -- the engine
#: class, per bank block ``can_correct``, the exact code parameters,
#: ``chain_indices`` and ``width``, then the geometry and the known
#: matrix's bytes (:func:`_bank_key`).  Banks with a code that has no
#: :func:`_code_key` keep only the engine's own memo.  The tables are
#: read-only, and the oldest entry goes once there are
#: :data:`_SINGLE_FLIP_ENTRIES`.  An entry is the table with its tally
#: matrix (:func:`_tally_matrix`).
_SINGLE_FLIP_CACHE: Dict[tuple, Tuple[BatchOutcomeArrays, np.ndarray]] = {}
_SINGLE_FLIP_ENTRIES = 8


def _bank_key(bank: MonitorBank) -> Optional[tuple]:
    """The per-block part of a :data:`_SINGLE_FLIP_CACHE` key, or None
    when a block's code has no exact-parameter key."""
    blocks = []
    for block in bank.blocks:
        code = _code_key(block.code, "block")
        if code is None:
            return None
        blocks.append((block.can_correct, code, block.chain_indices,
                       block.width))
    return tuple(blocks)


def _freeze(arrays: BatchOutcomeArrays) -> BatchOutcomeArrays:
    for values in (arrays.injected, arrays.detected, arrays.uncorrectable,
                   arrays.residual_errors, arrays.corrections_applied):
        values.setflags(write=False)
    return arrays


def _tally_matrix(table: BatchOutcomeArrays) -> np.ndarray:
    """The read-only int64 ``(rows, counters)`` matrix whose row ``r``
    is the :func:`~repro.engines.base.tally_columns` of table row
    ``r``: a batch whose sequences land ``h[r]`` times on row ``r``
    sums to ``h @ matrix``.  Stored column-major (each counter's column
    contiguous), which that product reads fastest."""
    matrix = np.array(tally_columns(
        table.injected, table.detected, table.uncorrectable,
        table.residual_errors), dtype=np.int64).T
    matrix.setflags(write=False)
    return matrix


def _table_field(name: str) -> cached_property:
    """A per-sequence field of :class:`_TableBatchOutcome`, gathered
    from the table on first read into a fresh, writable array."""
    def gather(self):
        return getattr(self._table, name)[self._rows]
    gather.__name__ = name
    gather.__doc__ = f"``{name}`` of each sequence's table row."
    return cached_property(gather)


class _TableBatchOutcome(BatchOutcomeArrays):
    """A batch answered from the single-flip table: sequence ``b``'s
    verdicts are row ``rows[b]`` of the frozen table.

    :meth:`tally` is one histogram of the rows times the table's tally
    matrix -- no per-sequence array is built for the counters -- and
    each per-sequence field is gathered from the table only when read
    (a copy, so writing to it leaves the table untouched).  The values
    equal the eager gather's field by field (property-tested).
    """

    def __init__(self, table: BatchOutcomeArrays, matrix: np.ndarray,
                 rows: np.ndarray):
        self._table = table
        self._matrix = matrix
        self._rows = rows
        self._tally: Optional[BatchTally] = None

    injected = _table_field("injected")
    detected = _table_field("detected")
    uncorrectable = _table_field("uncorrectable")
    residual_errors = _table_field("residual_errors")
    corrections_applied = _table_field("corrections_applied")

    @property
    def batch_size(self) -> int:
        return len(self._rows)

    def tally(self) -> BatchTally:
        if self._tally is None:
            counts = np.bincount(self._rows, minlength=len(self._matrix))
            self._tally = BatchTally.from_sums(
                len(self._rows), (counts @ self._matrix).tolist())
        return self._tally

    def alarms(self) -> Tuple[bool, bool]:
        tally = self.tally()
        return tally.detected > 0, tally.uncorrectable > 0


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
    per-sequence engines (``"packed"``/``"reference"``) instead.
    """

    def __init__(self, bank: MonitorBank, num_chains: int,
                 chain_length: int):
        self._workspace = Workspace()
        self._bank = bank
        self.num_chains = num_chains
        self.chain_length = chain_length
        #: The packed engine the scalar passes run on, built by the
        #: first one (a summary campaign never calls them).
        self._scalar_adapter: Optional[PackedEngineAdapter] = None
        (_order, self._correcting, self._observing,
         self._overlapping_correctors) = classify_monitors(
            bank, _SimdBlockMonitor, _SimdStreamMonitor)
        groups: Dict[object, List[_SimdBlockMonitor]] = {}
        for monitor in self._correcting:
            groups.setdefault(monitor.code, []).append(monitor)
        self._groups = [
            _BlockGroup(_kernel_class(code)(code), monitors)
            for code, monitors in groups.items()]
        for monitor in self._observing:
            monitor.rows_flat, monitor.const_idx = _stream_rows(
                monitor.code, monitor.chain_indices, chain_length)
        self._full_cache: Tuple[int, Optional[np.ndarray]] = (0, None)
        #: The last packed knowns seen and their read-only bool matrix
        #: (see :meth:`_known_matrix`).
        self._known_key: Optional[Tuple[int, ...]] = None
        self._known_bits: Optional[np.ndarray] = None
        #: The single-flip outcome table, its tally matrix and the
        #: known matrix they were built for (see
        #: :meth:`_single_flip_table`).
        self._single_known: Optional[np.ndarray] = None
        self._single_table: Optional[BatchOutcomeArrays] = None
        self._single_matrix: Optional[np.ndarray] = None
        #: This engine's part of its tables' _SINGLE_FLIP_CACHE key
        #: (None: the bank has a code without one).
        blocks = _bank_key(bank)
        self._single_key = None if blocks is None else (
            type(self), blocks, num_chains, chain_length)
        #: The path the last run_batch_summary call actually took
        #: ("delta" or "dense"); None before any summary pass.
        self.last_summary_path: Optional[str] = None

    # ------------------------------------------------------------------
    def _full_words(self, batch_size: int) -> np.ndarray:
        if self._full_cache[0] != batch_size:
            self._full_cache = (batch_size, full_words(batch_size))
        return self._full_cache[1]

    def _known_matrix(self, knowns: Sequence[int]) -> np.ndarray:
        """``bits_matrix(knowns)``, memoised on the packed values: a
        campaign passes the same knowns every batch.  The matrix is
        read-only, and a new one is built whenever the values change,
        so its identity names the values it was built from."""
        key = tuple(knowns)
        if key != self._known_key:
            known_bits = bits_matrix(key, self.chain_length)
            known_bits.flags.writeable = False
            self._known_key, self._known_bits = key, known_bits
        return self._known_bits

    def _check_chains(self, **per_chain) -> None:
        """Raise ``ValueError`` naming the first per-chain argument
        whose length is not the engine's chain count."""
        for name, value in per_chain.items():
            if len(value) != self.num_chains:
                raise ValueError(
                    f"{name}: expected {self.num_chains} chains, got "
                    f"{len(value)}")

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
        """The batch's signature words of one stream block: one gather
        and one XOR fold per signature row (a row with no stream
        dependence, possible for degenerate short streams, stays 0)."""
        sig = np.zeros((len(monitor.rows_flat), words_flat.shape[1]),
                       dtype=np.uint64)
        for j, idx in enumerate(monitor.rows_flat):
            if idx.size:
                np.bitwise_xor.reduce(words_flat[idx], axis=0, out=sig[j])
        if monitor.const_idx.size:
            sig[monitor.const_idx] ^= full
        return sig

    def _encode_baseline(self, state_bits: np.ndarray,
                         batch_size: int) -> None:
        """Store the check words of ``batch_size`` copies of one state.

        Every sequence of a summary batch starts from the same
        replicated state, so its check bits are encoded once, as a
        batch of one, and each stored bit widens to all sequences
        (``full``) or none -- bit-identical to encoding the replicated
        words.  The batch of one has its own
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

    # ------------------------------------------------------------------
    def _decode_words(self, words: np.ndarray, batch_size: int):
        """The decode pass over a word-packed batch, correcting
        ``words`` in place.

        Decodes every code group, XORs its correction words into
        ``words`` and checks every stream signature against the
        corrected state.  Returns the three ``(B,)`` aggregate verdict
        arrays ``(detected, uncorrectable, corrections)``; a syndrome
        pointing at a tied-off padding input is uncorrectable, never a
        fix.
        """
        length = self.chain_length
        num_words = words.shape[2]
        full = self._full_words(batch_size)
        detected = np.zeros(num_words, dtype=np.uint64)
        uncorrectable = np.zeros(num_words, dtype=np.uint64)
        corrections = np.zeros(batch_size, dtype=np.int64)
        overlap = self._overlapping_correctors
        if overlap:
            pre_correction = self._workspace.take("pre_correction",
                                                  words.shape, np.uint64)
            pre_correction[...] = words
        group_fixes: List[Tuple[np.ndarray, np.ndarray]] = []
        monitor_fixes: Dict[int, np.ndarray] = {}
        for index, group in enumerate(self._groups):
            out = group.kernel.decode(self._gather(index, group, words),
                                      group.stored, full)
            if out is None:
                continue
            err, fix, unc = out
            if fix is not None:
                for g, width in group.padded:
                    unc[g] |= np.bitwise_or.reduce(fix[g, width:], axis=0)
                    fix[g, width:] = 0
                # A codeword corrects at most one position, so a lane's
                # correction count is its set bits over the OR of fix.
                fixed = np.bitwise_or.reduce(fix, axis=1).reshape(
                    -1, num_words)
                corrections += per_sequence_popcounts(
                    fixed[fixed.any(axis=1)], batch_size)
                if overlap:
                    for g, monitor in enumerate(group.monitors):
                        monitor_fixes[id(monitor)] = fix[g, :monitor.width]
                else:
                    rows = fix.reshape(-1, length, num_words)
                    if group.pad_mask is not None:
                        rows = rows[group.data_rows]
                    group_fixes.append((group.data_chains, rows))
            detected |= np.bitwise_or.reduce(err.reshape(-1, num_words),
                                             axis=0)
            uncorrectable |= np.bitwise_or.reduce(
                unc.reshape(-1, num_words), axis=0)

        if overlap:
            # Reference-faithful last-block-wins feedback: every
            # correcting block assigns its slice in bank order, so on a
            # shared chain the last block's (possibly uncorrected)
            # version survives.  Each block's fix was computed from the
            # pre-correction words, so reassign-then-fix per block.
            for monitor in self._correcting:
                idx = monitor.chain_idx_arr
                words[idx] = pre_correction[idx]
                if id(monitor) in monitor_fixes:
                    words[idx] ^= monitor_fixes[id(monitor)]
        else:
            # Disjoint coverage: every corrected chain appears once.
            for chains, rows in group_fixes:
                words[chains] ^= rows

        corrected_rows = words.reshape(-1, num_words)
        for monitor in self._observing:
            fresh = self._stream_signature(monitor, corrected_rows, full)
            mismatch = np.bitwise_or.reduce(fresh ^ monitor.stored, axis=0)
            detected |= mismatch
            uncorrectable |= mismatch
        return (_unpack_bits(detected, batch_size).astype(bool),
                _unpack_bits(uncorrectable, batch_size).astype(bool),
                corrections)

    # ------------------------------------------------------------------
    # Summary interface (columnar, never builds a report object)
    # ------------------------------------------------------------------
    def run_batch_summary(self, states: Sequence[int],
                          knowns: Sequence[int], flips,
                          batch_size: int) -> BatchOutcomeArrays:
        """Replicate, encode, inject, decode and compare -- all in the
        word-packed layout, returning only columnar verdicts.

        The numbers are bit-identical to running one reference
        :meth:`~repro.core.protected.ProtectedDesign.sleep_wake_cycle`
        per sequence from the same state and folding the outcomes field
        by field; no report or correction event is materialised.

        The engine answers the batch from the single-flip outcome table
        when it holds at most ``batch_size`` flips and no sequence has
        more than one effective flip, and runs the dense word pipeline
        otherwise.  Both are bit-identical; the one taken (``"delta"``
        or ``"dense"``) is published as ``self.last_summary_path``.  A
        table-path batch comes back as a :class:`BatchOutcomeArrays`
        that holds only each sequence's table row: its
        :meth:`~BatchOutcomeArrays.tally` is a row histogram times the
        table's tally matrix, and its arrays are gathered from the
        table when first read.

        The rows come straight from the batch when its sequences are
        strictly increasing (at most one flip each, whatever the
        cells): a flip on an unknown cell needs no gating, because
        that cell's table row already holds the zero-flip verdicts (the
        table's own pass dropped the flip).  Other batches -- caller
        built, unsorted or with repeats -- are resolved through
        :func:`~repro.faults.batch.pattern_batch_coords` first, and that
        resolution is handed on to the dense pass when a sequence
        turns out to have two effective flips.
        """
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        self._check_chains(states=states, knowns=knowns)
        known_bits = self._known_matrix(knowns)
        # More flips than sequences cannot be a single-error batch;
        # testing that first spares dense batches the coordinate probe.
        coords = None
        if flips.num_flips <= batch_size:
            from repro.faults.batch import _increasing, pattern_batch_coords

            seqs = flips.seqs
            if _increasing(seqs):
                cells = flips.cells
            else:
                coords = pattern_batch_coords(flips, known_bits, batch_size)
                seqs, cells, injected = coords
                if int(injected.max()) > 1:
                    seqs = None
            if seqs is not None:
                table, matrix = self._single_flip_table(states, knowns,
                                                        known_bits)
                if len(seqs) == batch_size:
                    # One flip per sequence, in sequence order: each
                    # cell is its sequence's table row (copied: the
                    # outcome outlives the call, the batch's cells may
                    # not stay as they are).
                    rows = np.array(cells, dtype=np.int64)
                else:
                    rows = np.full(batch_size, len(matrix) - 1,
                                   dtype=np.int64)
                    rows[seqs] = cells
                self.last_summary_path = "delta"
                return _TableBatchOutcome(table, matrix, rows)
        self.last_summary_path = "dense"
        return self._dense_summary(states, knowns, known_bits, flips,
                                   batch_size, coords)

    def _single_flip_table(self, states: Sequence[int],
                           knowns: Sequence[int], known_bits: np.ndarray
                           ) -> Tuple[BatchOutcomeArrays, np.ndarray]:
        """The outcome of every one-flip sequence, indexed by flipped
        cell, and its tally matrix (:func:`_tally_matrix`).

        Row ``cell`` (``chain * chain_length + position``) holds the
        verdicts of a sequence whose only flip is that cell -- on an
        unknown cell the flip is gated out, so that row equals the
        zero-flip one -- and the extra last row those of the zero-flip
        sequence.  The rows come from one dense pass over that
        ``C * L + 1``-sequence batch.  By GF(2) superposition they do
        not depend on the baseline state, only on the bank and the
        known matrix (residual constant, gated comparator).  The engine
        keeps the table of the last known matrix seen (by identity:
        :meth:`_known_matrix` builds a new one whenever the knowns
        change), and on a miss looks it up in the process-wide
        :data:`_SINGLE_FLIP_CACHE` before running the pass, so the
        engines of later campaigns of the same configuration run none.
        The arrays are read-only.
        """
        if self._single_table is None or self._single_known is not known_bits:
            key = self._single_key
            if key is not None:
                key += (known_bits.tobytes(),)
                entry = _SINGLE_FLIP_CACHE.get(key)
            else:
                entry = None
            if entry is None:
                from repro.faults.batch import PatternBatch

                length = self.chain_length
                num_cells = self.num_chains * length
                cells = np.arange(num_cells, dtype=np.int64)
                every_cell = PatternBatch.from_cells(
                    self.num_chains, length, num_cells + 1, "single", cells,
                    cells)
                table = _freeze(self._dense_summary(
                    states, knowns, known_bits, every_cell, num_cells + 1))
                entry = (table, _tally_matrix(table))
                if key is not None:
                    if len(_SINGLE_FLIP_CACHE) >= _SINGLE_FLIP_ENTRIES:
                        del _SINGLE_FLIP_CACHE[next(iter(_SINGLE_FLIP_CACHE))]
                    _SINGLE_FLIP_CACHE[key] = entry
            self._single_table, self._single_matrix = entry
            self._single_known = known_bits
        return self._single_table, self._single_matrix

    def _dense_summary(self, states: Sequence[int], knowns: Sequence[int],
                       known_bits: np.ndarray, flips,
                       batch_size: int, coords=None) -> BatchOutcomeArrays:
        """The dense word pipeline (every density): workspace-backed
        replicate and inject around the shared decode core.  ``coords``
        is the batch's :func:`~repro.faults.batch.pattern_batch_coords`
        resolution when the caller already holds it."""
        from repro.faults.batch import coords_scatter, pattern_batch_coords

        full = self._full_words(batch_size)
        state_bits = bits_matrix(states, self.chain_length)
        # Unknown positions hold all-zero words (the treat-X-as-0
        # rule of the monitors).
        state_bits &= known_bits
        words = replicate_state_words(
            state_bits, full,
            out=self._workspace.take(
                "summary_words", state_bits.shape + (full.size,),
                np.uint64))
        self._encode_baseline(state_bits, batch_size)
        if coords is None:
            coords = pattern_batch_coords(flips, known_bits, batch_size)
        flip_cells, flip_masks, injected = coords_scatter(
            coords, self.num_chains, self.chain_length, batch_size)
        if flip_cells.size:
            words.reshape(-1, full.size)[flip_cells] ^= flip_masks
        detected, uncorrectable, corrections = self._decode_words(
            words, batch_size)
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
    # Scalar interface (the packed engine)
    # ------------------------------------------------------------------
    @property
    def _scalar(self) -> PackedEngineAdapter:
        if self._scalar_adapter is None:
            self._scalar_adapter = PackedEngineAdapter(
                self._bank, self.num_chains, self.chain_length)
        return self._scalar_adapter

    def encode_pass(self, design) -> int:
        return self._scalar.encode_pass(design)

    def decode_pass(self, design) -> List[MonitorReport]:
        return self._scalar.decode_pass(design)


__all__ = [
    "SimdBatchedEngine",
    "Workspace",
    "full_words",
]
