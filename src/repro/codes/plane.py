"""Shared GF(2) matrices of the structured monitoring codes.

Every built-in monitoring code is linear (affine) over GF(2): a parity
bit is an XOR of data bits and a CRC signature is an XOR of the
columns of the stream positions holding a 1.  This module derives that
matrix form once per code -- :func:`block_parity_matrix` for the
Hamming family, SECDED and parity, :func:`crc_stream_matrix` for CRCs
-- as a numpy-free :class:`GF2Matrix`, memoised on the code parameters
in :data:`_MATRIX_CACHE`.

The batch engines consume these matrices: the word-packed SIMD engine
(:mod:`repro.engines.simd`) evaluates each row as an XOR fold over an
ndarray gather, and the fused summary kernels of
:mod:`repro.engines.jit` gather their column responses.
Row order is MSB first, matching the packed codes' word layouts
(:mod:`repro.codes.packed`).  Codes without a structured matrix form
(interleaved wrappers, user-defined codes) raise :class:`CodeError`
here and run on the object-path engines (``"packed"``/``"reference"``)
instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.codes.base import BlockCode, CodeError
from repro.codes.crc import CRCCode
from repro.codes.hamming import HammingCode
from repro.codes.packed import PackedCRC
from repro.codes.parity import ParityCode
from repro.codes.secded import SECDEDCode


@dataclass(frozen=True)
class GF2Matrix:
    """An affine GF(2) map in XOR-row form, shared by the batch engines.

    Output bit ``j`` is ``const[j] XOR (XOR of input bits rows[j])``.
    The representation is deliberately numpy-free (index tuples and
    0/1 constants), so deriving and caching a matrix never needs the
    array stack; the SIMD engine evaluates a row as an XOR fold over
    an ndarray gather.  Row order is MSB first, matching the packed
    codes' word layouts.
    """

    rows: Tuple[Tuple[int, ...], ...]
    const: Tuple[int, ...]
    num_inputs: int

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.const):
            raise CodeError("rows and const must have matching lengths")
        for row in self.rows:
            for index in row:
                if not 0 <= index < self.num_inputs:
                    raise CodeError(
                        f"row index {index} outside the "
                        f"{self.num_inputs}-bit input word")

    @property
    def num_outputs(self) -> int:
        return len(self.rows)

    def column_responses(self) -> Tuple[int, ...]:
        """Per-input response columns of the map's linear part.

        Entry ``i`` is an integer whose bit ``j`` is set when input
        bit ``i`` participates in output row ``j``: toggling input
        ``i`` toggles exactly the output bits of
        ``column_responses()[i]``.  This is the superposition form of
        the matrix -- the output delta of any input delta is the XOR
        of the flipped inputs' columns (the affine ``const`` part
        cancels in every fresh-versus-stored comparison), which is
        what the fused summary kernels (:mod:`repro.engines.jit`)
        gather instead of re-folding whole words.  numpy-free like the
        matrix itself; :mod:`repro.engines.jit` caches the ndarray form
        per code parameters.
        """
        columns = [0] * self.num_inputs
        for j, row in enumerate(self.rows):
            bit = 1 << j
            for index in row:
                columns[index] |= bit
        return tuple(columns)


#: Shared matrices memoised on the code *parameters*: campaign workers
#: rebuild ``ProtectedDesign`` (and with it every engine) per chunk,
#: and without the cache each rebuild re-derives the same matrices --
#: the CRC stream matrix in particular costs O(stream bits) serial
#: steps.  :class:`GF2Matrix` is frozen, so sharing one instance across
#: designs/engines/processes is safe.  Only the exact built-in code
#: types are cached (a subclass may override the defining equations);
#: keys carry the type object itself, so two same-parameter instances
#: of one type share and distinct types never collide.
_MATRIX_CACHE: Dict[tuple, GF2Matrix] = {}


def _block_matrix_key(code: BlockCode) -> Optional[tuple]:
    if type(code) in (HammingCode, SECDEDCode):
        return (type(code), code.n, code.k)
    if type(code) is ParityCode:
        return (type(code), code.k, code.odd)
    return None


def block_parity_matrix(code: BlockCode) -> GF2Matrix:
    """The ``r x k`` GF(2) parity matrix of a structured block code.

    Row ``j`` lists the systematic data-bit indices XORed into parity
    bit ``j`` (parity word MSB first, the layout of
    :mod:`repro.codes.packed`).  For SECDED the last row is the
    *expanded* overall-parity row: the overall bit covers the data bits
    and the base parity bits, so substituting the base equations leaves
    a plain XOR over the data bits whose total fan-in count is odd.
    Raises :class:`CodeError` for codes without a structured matrix
    form (e.g. interleaved wrappers) -- those run on the object-path
    engines instead.

    Matrices for the built-in code types are memoised on the code
    parameters, so rebuilding a design (as sharded campaign workers do
    per chunk) reuses the shared instance instead of re-deriving it.
    """
    key = _block_matrix_key(code)
    if key is not None:
        cached = _MATRIX_CACHE.get(key)
        if cached is not None:
            return cached
    matrix = _build_block_parity_matrix(code)
    if key is not None:
        _MATRIX_CACHE[key] = matrix
    return matrix


def _build_block_parity_matrix(code: BlockCode) -> GF2Matrix:
    if isinstance(code, SECDEDCode):
        base_rows = [tuple(eq) for eq in code.parity_equations()]
        counts = [1] * code.k  # the overall bit covers every data bit once
        for row in base_rows:
            for index in row:
                counts[index] += 1
        overall = tuple(i for i, count in enumerate(counts) if count & 1)
        rows = tuple(base_rows) + (overall,)
        return GF2Matrix(rows=rows, const=(0,) * len(rows),
                         num_inputs=code.k)
    if type(code) is HammingCode:
        rows = tuple(tuple(eq) for eq in code.parity_equations())
        return GF2Matrix(rows=rows, const=(0,) * len(rows),
                         num_inputs=code.k)
    if isinstance(code, ParityCode):
        return GF2Matrix(rows=(tuple(range(code.k)),),
                         const=(1 if code.odd else 0,),
                         num_inputs=code.k)
    raise CodeError(
        f"{type(code).__name__} has no structured GF(2) parity matrix; "
        f"use engine='packed' instead")


def crc_stream_matrix(code: CRCCode, nbits: int) -> GF2Matrix:
    """The affine GF(2) map from an ``nbits`` stream to a CRC signature.

    Stream bits are indexed MSB first in time (index 0 is the first bit
    folded); signature rows are MSB first (row ``j`` is signature bit
    ``width - 1 - j``), matching ``PackedCRC.signature_int``.  The CRC
    update is linear over GF(2) in (register, input), so the whole-
    stream signature is ``sig(init, 0...0) XOR (XOR of the columns of
    the positions holding a 1)``; the columns are built incrementally
    (a 1 at position ``t`` is a unit impulse followed by
    ``nbits - 1 - t`` zero steps), costing O(nbits) serial steps total.

    Memoised on ``(width, poly, init, nbits)`` for plain
    :class:`CRCCode` instances -- the O(nbits) construction is the
    dominant per-chunk engine-build cost of sharded campaigns.
    """
    if nbits < 0:
        raise CodeError("stream length must be non-negative")
    key = None
    if type(code) is CRCCode:
        key = (CRCCode, code.width, code.poly, code.init, nbits)
        cached = _MATRIX_CACHE.get(key)
        if cached is not None:
            return cached
    matrix = _build_crc_stream_matrix(code, nbits)
    if key is not None:
        _MATRIX_CACHE[key] = matrix
    return matrix


def _build_crc_stream_matrix(code: CRCCode, nbits: int) -> GF2Matrix:
    packed = PackedCRC(code)
    width = code.width
    columns = [0] * nbits
    impulse = packed._step(0, 1)
    for position in range(nbits - 1, -1, -1):
        columns[position] = impulse
        impulse = packed._step(impulse, 0)
    const_word = packed.signature_int(0, nbits)
    rows = []
    const = []
    for j in range(width):
        bit = 1 << (width - 1 - j)
        rows.append(tuple(t for t in range(nbits) if columns[t] & bit))
        const.append(1 if const_word & bit else 0)
    return GF2Matrix(rows=tuple(rows), const=tuple(const),
                     num_inputs=max(nbits, 1))


__all__ = [
    "GF2Matrix",
    "block_parity_matrix",
    "crc_stream_matrix",
]
