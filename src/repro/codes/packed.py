"""Packed-integer implementations of the monitoring codes.

The reference codes in this package operate on tuples of bits, one
Python object per bit -- faithful to the hardware and easy to audit,
but costly inside the Monte-Carlo hot loops.  This module provides
packed equivalents that operate on plain integers:

* :class:`PackedCRC` -- table-driven byte-wise CRC update (a
  precomputed 256-entry table per polynomial), bit-exact against
  :meth:`repro.codes.crc.CRCCode.signature_int`;
* :class:`PackedHamming` -- mask-based Hamming encode/decode:
  precomputed parity masks, syndrome via popcount, and a
  syndrome-to-position lookup table;
* :class:`PackedSECDED`, :class:`PackedParity` -- the same treatment
  for the extended-Hamming and single-parity codes;
* :class:`PackedBlockAdapter`, :class:`PackedStreamAdapter` -- generic
  fallbacks that wrap any reference code (e.g.
  :class:`~repro.codes.interleave.InterleavedCode`), converting between
  integers and bit tuples at the boundary so the packed engine never
  needs a special case.

Bit conventions (shared with :mod:`repro.engines.packed`):

* streams and data words are packed MSB first, matching
  :func:`repro.codes.base.bits_to_int`: data bit ``i`` of a ``k``-bit
  slice is bit ``k - 1 - i`` of the integer, parity bit ``j`` of an
  ``r``-bit parity word is bit ``r - 1 - j``.

Use :func:`packed_block_code` / :func:`packed_stream_code` to pick the
fastest packed implementation for a given reference code.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.codes.base import (
    BlockCode,
    CodeError,
    DecodeStatus,
    StreamCode,
    bits_to_int,
    int_to_bits,
)
from repro.codes.crc import CRCCode
from repro.codes.hamming import HammingCode
from repro.codes.parity import ParityCode
from repro.codes.secded import SECDEDCode

#: Result statuses shared with :class:`repro.codes.base.DecodeStatus`;
#: re-exported so engine code can match on them without tuple building.
NO_ERROR = DecodeStatus.NO_ERROR
CORRECTED = DecodeStatus.CORRECTED
DETECTED = DecodeStatus.DETECTED


class PackedCRC:
    """Byte-wise table-driven CRC over packed bit streams.

    Parameters
    ----------
    code:
        The reference :class:`~repro.codes.crc.CRCCode` whose
        polynomial, width and initial value are mirrored.

    The update rule is the classic MSB-first table CRC: 8 stream bits
    are folded per table lookup.  Widths below 8 fall back to the
    bit-serial update (none of the registered polynomials need it).
    """

    def __init__(self, code: CRCCode):
        self.code = code
        self.width = code.width
        self.poly = code.poly
        self.init = code.init
        self._mask = (1 << code.width) - 1
        self._table: Optional[List[int]] = None
        if code.width >= 8:
            self._table = [self._fold_top_byte(byte << (code.width - 8))
                           for byte in range(256)]

    def _fold_top_byte(self, register: int) -> int:
        """Eight zero-input serial steps of ``register`` (table builder)."""
        for _ in range(8):
            msb = (register >> (self.width - 1)) & 1
            register = (register << 1) & self._mask
            if msb:
                register ^= self.poly
        return register

    def _step(self, register: int, bit: int) -> int:
        """One bit-serial update, identical to ``CRCCode._step``."""
        feedback = ((register >> (self.width - 1)) & 1) ^ bit
        register = (register << 1) & self._mask
        if feedback:
            register ^= self.poly
        return register

    def fold(self, register: int, stream: int, nbits: int) -> int:
        """Fold an ``nbits``-long MSB-first stream into the register."""
        if nbits < 0:
            raise CodeError("stream length must be non-negative")
        if not (0 <= stream < (1 << nbits) if nbits else stream == 0):
            raise CodeError(f"stream does not fit in {nbits} bits")
        table = self._table
        if table is None:
            for i in range(nbits - 1, -1, -1):
                register = self._step(register, (stream >> i) & 1)
            return register
        # Leading bits (first in time, at the top of the int) that do
        # not fill a byte are folded serially; the rest byte-wise.
        head = nbits % 8
        pos = nbits - head
        for i in range(nbits - 1, pos - 1, -1):
            register = self._step(register, (stream >> i) & 1)
        width = self.width
        mask = self._mask
        while pos:
            pos -= 8
            byte = (stream >> pos) & 0xFF
            idx = ((register >> (width - 8)) ^ byte) & 0xFF
            register = ((register << 8) & mask) ^ table[idx]
        return register

    def signature_int(self, stream: int, nbits: int) -> int:
        """Whole-stream signature, equal to ``CRCCode.signature_int``."""
        return self.fold(self.init, stream, nbits)


class PackedHamming:
    """Mask-based Hamming(n, k) encode/decode over packed data words.

    Parameters
    ----------
    code:
        The reference :class:`~repro.codes.hamming.HammingCode`.  The
        exact type is required -- subclasses with different codeword
        layouts (SECDED) have their own packed implementation.

    Parity bit ``j`` is the popcount parity of ``data & mask_j`` for a
    precomputed mask; the syndrome is the XOR of recomputed and stored
    parity bits, and a ``2**r``-entry lookup table maps it straight to
    the systematic codeword position to flip.
    """

    def __init__(self, code: HammingCode):
        if type(code) is not HammingCode:
            raise CodeError(
                f"PackedHamming requires a plain HammingCode, got "
                f"{type(code).__name__}; use packed_block_code()")
        self.code = code
        self.k = code.k
        self.r = code.r
        self.n = code.n
        # mask_j over the k-bit data word (data index i -> bit k-1-i).
        self.data_masks: Tuple[int, ...] = tuple(
            sum(1 << (code.k - 1 - i) for i in equation)
            for equation in code.parity_equations())
        # Non-zero syndrome -> systematic codeword index (0..n-1).
        lut: List[Optional[int]] = [None] * (1 << self.r)
        for position in range(1, code.n + 1):
            lut[position] = code._position_to_systematic[position]
        self._syndrome_to_systematic = lut

    def parity(self, data: int) -> int:
        """Parity word (``r`` bits, MSB first) of a ``k``-bit data word."""
        out = 0
        r1 = self.r - 1
        for j, mask in enumerate(self.data_masks):
            if (data & mask).bit_count() & 1:
                out |= 1 << (r1 - j)
        return out

    def decode_slice(self, data: int, stored_parity: int
                     ) -> Tuple[DecodeStatus, int, Tuple[int, ...]]:
        """Decode a data word against its stored parity.

        Returns ``(status, corrected_data, corrected_positions)`` with
        positions in systematic codeword coordinates (0-based; ``>= k``
        means a parity bit), mirroring
        :meth:`repro.codes.hamming.HammingCode.decode`.
        """
        diff = self.parity(data) ^ stored_parity
        if diff == 0:
            return NO_ERROR, data, ()
        # Syndrome bit j is parity mismatch j; diff holds parity j at
        # bit r-1-j, so the syndrome is diff bit-reversed over r bits.
        syndrome = 0
        r1 = self.r - 1
        for j in range(self.r):
            if (diff >> (r1 - j)) & 1:
                syndrome |= 1 << j
        systematic = self._syndrome_to_systematic[syndrome]
        if systematic is None:  # pragma: no cover - impossible for Hamming
            return DETECTED, data, ()
        if systematic < self.k:
            return CORRECTED, data ^ (1 << (self.k - 1 - systematic)), \
                (systematic,)
        return CORRECTED, data, (systematic,)


class PackedSECDED:
    """Mask-based extended-Hamming (SECDED) encode/decode."""

    def __init__(self, code: SECDEDCode):
        self.code = code
        self.k = code.k
        self.n = code.n                  # extended length (base + 1)
        self.r = code.n - code.k         # base parity bits + overall bit
        base_r = self.r - 1
        self.data_masks: Tuple[int, ...] = tuple(
            sum(1 << (code.k - 1 - i) for i in equation)
            for equation in code.parity_equations())
        lut: List[Optional[int]] = [None] * (1 << base_r)
        for position in range(1, (code.n - 1) + 1):
            lut[position] = code._position_to_systematic[position]
        self._syndrome_to_systematic = lut
        self._base_r = base_r

    def parity(self, data: int) -> int:
        """Parity word: base Hamming parities then the overall bit."""
        base = 0
        b1 = self._base_r - 1
        for j, mask in enumerate(self.data_masks):
            if (data & mask).bit_count() & 1:
                base |= 1 << (b1 - j)
        overall = (data.bit_count() + base.bit_count()) & 1
        return (base << 1) | overall

    def decode_slice(self, data: int, stored_parity: int
                     ) -> Tuple[DecodeStatus, int, Tuple[int, ...]]:
        """Mirror of :meth:`repro.codes.secded.SECDEDCode.decode`."""
        stored_overall = stored_parity & 1
        stored_base = stored_parity >> 1
        observed_overall = (data.bit_count() + stored_base.bit_count()) & 1
        parity_mismatch = observed_overall != stored_overall
        base = 0
        b1 = self._base_r - 1
        for j, mask in enumerate(self.data_masks):
            if (data & mask).bit_count() & 1:
                base |= 1 << (b1 - j)
        diff = base ^ stored_base
        syndrome = 0
        for j in range(self._base_r):
            if (diff >> (b1 - j)) & 1:
                syndrome |= 1 << j
        if syndrome == 0 and not parity_mismatch:
            return NO_ERROR, data, ()
        if syndrome == 0:
            # The overall parity bit itself flipped; data is intact.
            return CORRECTED, data, (self.n - 1,)
        if parity_mismatch:
            systematic = self._syndrome_to_systematic[syndrome]
            if systematic is None:  # pragma: no cover - guard
                return DETECTED, data, ()
            if systematic < self.k:
                return CORRECTED, data ^ (1 << (self.k - 1 - systematic)), \
                    (systematic,)
            return CORRECTED, data, (systematic,)
        # Non-zero syndrome with matching overall parity: double error.
        return DETECTED, data, ()


class PackedParity:
    """Single-parity-bit detection over packed data words."""

    def __init__(self, code: ParityCode):
        self.code = code
        self.k = code.k
        self.r = 1
        self._odd = 1 if code.odd else 0

    def parity(self, data: int) -> int:
        return (data.bit_count() & 1) ^ self._odd

    def decode_slice(self, data: int, stored_parity: int
                     ) -> Tuple[DecodeStatus, int, Tuple[int, ...]]:
        if self.parity(data) == stored_parity:
            return NO_ERROR, data, ()
        return DETECTED, data, ()


class PackedBlockAdapter:
    """Packed facade over an arbitrary reference :class:`BlockCode`.

    Converts between integers and bit tuples at every call, so it gains
    nothing per slice -- it exists so the packed engine can run any
    code (interleaved wrappers, user-defined codes) without a special
    case while still skipping the per-flop chain simulation.
    """

    def __init__(self, code: BlockCode):
        self.code = code
        self.k = code.k
        self.r = code.r

    def parity(self, data: int) -> int:
        return bits_to_int(self.code.parity_bits(int_to_bits(data, self.k)))

    def decode_slice(self, data: int, stored_parity: int
                     ) -> Tuple[DecodeStatus, int, Tuple[int, ...]]:
        result = self.code.check(int_to_bits(data, self.k),
                                 int_to_bits(stored_parity, self.r))
        return result.status, bits_to_int(result.data), \
            result.corrected_positions


class PackedStreamAdapter:
    """Bit-serial packed facade over an arbitrary :class:`StreamCode`."""

    def __init__(self, code: StreamCode):
        self.code = code
        self.width = code.signature_bits
        self.init = code._initial_register()

    def fold(self, register: int, stream: int, nbits: int) -> int:
        step = self.code._step
        for i in range(nbits - 1, -1, -1):
            register = step(register, (stream >> i) & 1)
        return register

    def signature_int(self, stream: int, nbits: int) -> int:
        return self.fold(self.init, stream, nbits)


def packed_block_code(code: BlockCode):
    """Fastest packed implementation for a reference block code."""
    if type(code) is HammingCode:
        return PackedHamming(code)
    if isinstance(code, SECDEDCode):
        return PackedSECDED(code)
    if isinstance(code, ParityCode):
        return PackedParity(code)
    return PackedBlockAdapter(code)


def packed_stream_code(code: StreamCode):
    """Fastest packed implementation for a reference stream code."""
    if isinstance(code, CRCCode):
        return PackedCRC(code)
    return PackedStreamAdapter(code)


__all__ = [
    "PackedCRC",
    "PackedHamming",
    "PackedSECDED",
    "PackedParity",
    "PackedBlockAdapter",
    "PackedStreamAdapter",
    "packed_block_code",
    "packed_stream_code",
]
