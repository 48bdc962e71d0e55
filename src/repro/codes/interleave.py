"""Interleaved block codes for burst-error tolerance.

The paper's multi-error experiment shows that clustered (burst) errors
defeat plain Hamming correction because several errors land in the same
codeword.  Interleaving --- distributing physically adjacent bits across
different codewords --- is the standard countermeasure and is listed in
DESIGN.md as an ablation of the paper's design choices.

:class:`InterleavedCode` wraps any :class:`~repro.codes.base.BlockCode`
with depth ``d``: a frame of ``d * k`` data bits is split column-wise so
that bits ``i, i + d, i + 2d, ...`` form codeword ``i``.  A burst of up
to ``d`` adjacent bit errors then touches each codeword at most once and
remains correctable by a single-error-correcting inner code.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.codes.base import (
    Bits,
    BlockCode,
    CodeError,
    DecodeResult,
    DecodeStatus,
    as_bits,
)


class InterleavedCode(BlockCode):
    """Depth-``d`` bit interleaver around an inner block code.

    Parameters
    ----------
    inner:
        The inner block code (e.g. ``HammingCode(7, 4)``).
    depth:
        Interleaving depth ``d`` (number of inner codewords per frame).
    """

    def __init__(self, inner: BlockCode, depth: int):
        if depth <= 0:
            raise CodeError("interleaving depth must be positive")
        self.inner = inner
        self.depth = depth
        self.k = inner.k * depth
        self.n = inner.n * depth

    @property
    def correctable_errors(self) -> int:  # type: ignore[override]
        """Total correctable errors per frame (one per inner codeword)."""
        return self.inner.correctable_errors * self.depth

    @property
    def burst_tolerance(self) -> int:
        """Maximum length of a contiguous burst that is always corrected."""
        return self.depth * self.inner.correctable_errors

    @property
    def name(self) -> str:
        """Canonical name, e.g. ``"interleaved(hamming(7,4),x4)"``."""
        return f"interleaved({self.inner.name},x{self.depth})"

    # ------------------------------------------------------------------
    def _split_data(self, data: Bits) -> List[Bits]:
        """Column-wise de-interleave of a frame into inner data blocks."""
        return [tuple(data[i::self.depth]) for i in range(self.depth)]

    def _merge_data(self, blocks: List[Tuple[int, ...]]) -> Bits:
        """Column-wise re-interleave of inner data blocks into a frame."""
        merged = [0] * self.k
        for i, block in enumerate(blocks):
            for j, bit in enumerate(block):
                merged[i + j * self.depth] = bit
        return tuple(merged)

    def encode(self, data: Iterable[int]) -> Bits:
        """Encode a frame of ``depth * inner.k`` data bits."""
        data_t = as_bits(data)
        if len(data_t) != self.k:
            raise CodeError(
                f"expected {self.k} data bits, got {len(data_t)}")
        blocks = self._split_data(data_t)
        codewords = [self.inner.encode(block) for block in blocks]
        # Systematic frame: interleaved data first, then the parity bits
        # of each inner codeword concatenated in order.
        parity = tuple(
            bit for cw in codewords for bit in cw[self.inner.k:])
        return data_t + parity

    def decode(self, codeword: Iterable[int]) -> DecodeResult:
        """Decode a frame; each inner codeword is decoded independently."""
        cw = as_bits(codeword)
        if len(cw) != self.n:
            raise CodeError(
                f"expected {self.n} codeword bits, got {len(cw)}")
        data, parity = cw[:self.k], cw[self.k:]
        blocks = self._split_data(data)
        r = self.inner.n - self.inner.k
        statuses = []
        corrected_positions: List[int] = []
        decoded_blocks: List[Tuple[int, ...]] = []
        for i, block in enumerate(blocks):
            inner_cw = block + tuple(parity[i * r:(i + 1) * r])
            result = self.inner.decode(inner_cw)
            decoded_blocks.append(result.data)
            statuses.append(result.status)
            for pos in result.corrected_positions:
                if pos < self.inner.k:
                    corrected_positions.append(i + pos * self.depth)
                else:
                    corrected_positions.append(
                        self.k + i * r + (pos - self.inner.k))
        merged = self._merge_data(decoded_blocks)
        if any(s is DecodeStatus.DETECTED for s in statuses):
            status = DecodeStatus.DETECTED
        elif any(s is DecodeStatus.CORRECTED for s in statuses):
            status = DecodeStatus.CORRECTED
        else:
            status = DecodeStatus.NO_ERROR
        return DecodeResult(
            status=status,
            data=merged,
            corrected_positions=tuple(sorted(corrected_positions)),
            syndrome=sum(1 for s in statuses if s is not DecodeStatus.NO_ERROR))


__all__ = ["InterleavedCode"]
