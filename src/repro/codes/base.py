"""Common interfaces for error detection and correction codes.

Two interfaces are defined:

* :class:`BlockCode` -- operates on fixed-size blocks of ``k`` data bits
  producing ``n``-bit codewords.  Used by the Hamming family where the
  state monitoring block encodes one ``k``-bit scan slice per clock
  cycle.
* :class:`StreamCode` -- operates on an arbitrarily long bit stream and
  produces a fixed-size signature (e.g. CRC-16).  Used for
  detection-only monitoring where a single signature summarises the
  whole scan stream of a monitoring block.

Both interfaces consume and produce *bit sequences*, represented as
tuples of integers in ``{0, 1}``.  Tuples are used (rather than lists)
so that codewords are hashable and immutable, which keeps the monitoring
logic free of accidental aliasing.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

Bits = Tuple[int, ...]


class CodeError(ValueError):
    """Raised when a code is configured or used inconsistently.

    Examples: constructing a Hamming code with an invalid ``(n, k)``
    pair, or decoding a block whose length does not match ``n``.
    """


def as_bits(bits: Iterable[int]) -> Bits:
    """Normalise an iterable of 0/1 integers into a :data:`Bits` tuple.

    Raises :class:`CodeError` if any element is not 0 or 1.  Accepts
    booleans and numpy integer scalars.
    """
    out = []
    for b in bits:
        v = int(b)
        if v not in (0, 1):
            raise CodeError(f"bit values must be 0 or 1, got {b!r}")
        out.append(v)
    return tuple(out)


def bits_to_int(bits: Sequence[int]) -> int:
    """Pack a bit sequence (MSB first) into an integer."""
    value = 0
    for b in bits:
        value = (value << 1) | (int(b) & 1)
    return value


def int_to_bits(value: int, width: int) -> Bits:
    """Unpack ``value`` into ``width`` bits, MSB first."""
    if value < 0:
        raise CodeError("cannot convert a negative integer to bits")
    if width < 0:
        raise CodeError("width must be non-negative")
    if value >= (1 << width):
        raise CodeError(f"value {value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def hamming_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of positions in which two equal-length bit sequences differ."""
    if len(a) != len(b):
        raise CodeError("sequences must have equal length")
    return sum(1 for x, y in zip(a, b) if int(x) != int(y))


class DecodeStatus(enum.Enum):
    """Outcome of decoding a received codeword or stream signature."""

    #: The received word matches a valid codeword; no error observed.
    NO_ERROR = "no_error"
    #: An error was observed and corrected; the returned data is repaired.
    CORRECTED = "corrected"
    #: An error was observed but cannot be corrected by this code.
    DETECTED = "detected"


@dataclass(frozen=True)
class DecodeResult:
    """Result of decoding one received block (or verifying one stream).

    Attributes
    ----------
    status:
        Whether the block was clean, corrected or only detected-bad.
    data:
        The decoded data bits (post-correction when applicable).  For
        detection-only codes this echoes the received data bits.
    corrected_positions:
        Indices *within the codeword* (0-based, data+parity layout as
        produced by :meth:`BlockCode.encode`) whose bits were flipped by
        the decoder.
    syndrome:
        The raw syndrome value computed by the decoder (0 means clean).
        Semantics are code specific but 0 always means "no error seen".
    """

    status: DecodeStatus
    data: Bits
    corrected_positions: Tuple[int, ...] = field(default_factory=tuple)
    syndrome: int = 0

    @property
    def is_clean(self) -> bool:
        """True when no error was observed at all."""
        return self.status is DecodeStatus.NO_ERROR

    @property
    def error_observed(self) -> bool:
        """True when the decoder saw *any* mismatch (corrected or not)."""
        return self.status is not DecodeStatus.NO_ERROR


class BlockCode(ABC):
    """A systematic block code over ``k`` data bits and ``n`` code bits.

    Subclasses must produce *systematic* codewords: the first ``k`` bits
    of :meth:`encode`'s output are the data bits unchanged, followed by
    ``n - k`` parity bits.  This mirrors the hardware organisation of
    the paper's state monitoring block, where the scan data itself stays
    in the scan chains and only the parity bits are stored in the
    monitoring block's registers.
    """

    #: Codeword length in bits.
    n: int
    #: Number of data (information) bits per codeword.
    k: int

    @property
    def r(self) -> int:
        """Number of parity (redundancy) bits per codeword."""
        return self.n - self.k

    @property
    def redundancy(self) -> float:
        """Parity-to-information ratio ``(n - k) / k`` (paper Section V)."""
        return (self.n - self.k) / self.k

    @property
    def correction_capability(self) -> float:
        """Fraction of bits per codeword that can be corrected.

        For a single-error-correcting code this is ``1 / n`` -- the
        quantity reported in the last column of the paper's Table III
        (14.3 % for Hamming(7,4) down to 1.59 % for Hamming(63,57)).
        Detection-only codes return 0.
        """
        return (1.0 / self.n) if self.correctable_errors > 0 else 0.0

    #: Number of errors per codeword the code can correct (0 or 1 here).
    correctable_errors: int = 0

    @abstractmethod
    def encode(self, data: Iterable[int]) -> Bits:
        """Encode ``k`` data bits into an ``n``-bit systematic codeword."""

    @abstractmethod
    def decode(self, codeword: Iterable[int]) -> DecodeResult:
        """Decode an ``n``-bit received word, correcting if possible."""

    def parity_bits(self, data: Iterable[int]) -> Bits:
        """Return only the ``n - k`` parity bits for ``data``."""
        return self.encode(data)[self.k:]

    def check(self, data: Iterable[int], parity: Iterable[int]) -> DecodeResult:
        """Decode from separately supplied data and parity bits.

        This matches the monitoring-block datapath: the (possibly
        corrupted) data bits arrive from the scan chains while the
        parity bits are read from the monitor's own storage.
        """
        data_t = as_bits(data)
        parity_t = as_bits(parity)
        if len(data_t) != self.k:
            raise CodeError(
                f"expected {self.k} data bits, got {len(data_t)}")
        if len(parity_t) != self.r:
            raise CodeError(
                f"expected {self.r} parity bits, got {len(parity_t)}")
        return self.decode(data_t + parity_t)

    @property
    def name(self) -> str:
        """Name shown in reports; concrete codes give a canonical one
        (``"hamming(7,4)"``), a user code its class name."""
        return type(self).__name__

    # ------------------------------------------------------------------
    # Cost model: gate counts behind the area and power tables.  These
    # are estimates; codes with a known structure override them with
    # exact counts.
    # ------------------------------------------------------------------
    def encoder_xor_count(self) -> int:
        """2-input XOR gates in the parallel encoder (estimate: 2 per
        parity bit)."""
        return 2 * self.r

    def decoder_xor_count(self) -> int:
        """2-input XOR gates in the syndrome computation (estimate: 3
        per parity bit)."""
        return 3 * self.r

    def corrector_gate_count(self) -> int:
        """Gates in the error-location decoder and correction path
        (estimate: 2 per codeword bit)."""
        return 2 * self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, k={self.k})"


class StreamCode(ABC):
    """A code that produces a fixed-width signature over a bit stream.

    Stream codes are detection-only: the signature localises no error,
    it merely indicates whether the stream changed between encoding
    (before sleep) and decoding (after wake-up).
    """

    #: Width of the stored signature in bits.
    signature_bits: int

    correctable_errors: int = 0

    @property
    def correction_capability(self) -> float:
        """Stream codes correct nothing; present for interface parity."""
        return 0.0

    @property
    def name(self) -> str:
        """Name shown in reports; concrete codes give a canonical one
        (``"crc16"``), a user code its class name."""
        return type(self).__name__

    def feedback_xor_count(self) -> int:
        """2-input XOR gates in the signature register's feedback
        network (estimate: one per signature bit)."""
        return self.signature_bits

    @abstractmethod
    def signature(self, stream: Iterable[int]) -> Bits:
        """Compute the signature of a complete bit stream."""

    def verify(self, stream: Iterable[int], stored: Iterable[int]) -> DecodeResult:
        """Compare the stream's signature against a stored signature."""
        stream_t = as_bits(stream)
        stored_t = as_bits(stored)
        if len(stored_t) != self.signature_bits:
            raise CodeError(
                f"expected a {self.signature_bits}-bit signature, "
                f"got {len(stored_t)} bits")
        fresh = self.signature(stream_t)
        if fresh == stored_t:
            return DecodeResult(status=DecodeStatus.NO_ERROR, data=stream_t)
        syndrome = bits_to_int(fresh) ^ bits_to_int(stored_t)
        return DecodeResult(
            status=DecodeStatus.DETECTED, data=stream_t, syndrome=syndrome)

    def new_state(self) -> "StreamState":
        """Create a fresh bit-serial signature accumulator."""
        return StreamState(self)

    def _initial_register(self) -> int:
        """Initial value of the serial signature register (default 0)."""
        return 0

    def _step(self, register: int, bit: int) -> int:
        """Advance the serial signature register by one input bit.

        The default implementation recomputes via :meth:`signature`,
        which is correct but slow; concrete codes override this with the
        true shift-register update.
        """
        raise NotImplementedError

    def _finalise(self, register: int) -> Bits:
        """Convert the final register value into the signature bits."""
        return int_to_bits(register, self.signature_bits)


class StreamState:
    """Bit-serial accumulator mirroring the hardware signature register.

    The state monitoring block sees one bit per scan chain per clock
    cycle; this object lets the monitor feed bits as they arrive instead
    of buffering the whole stream.
    """

    def __init__(self, code: StreamCode):
        self._code = code
        self._register = code._initial_register()
        self._count = 0

    @property
    def bits_consumed(self) -> int:
        """Number of stream bits absorbed so far."""
        return self._count

    def shift(self, bit: int) -> None:
        """Absorb one stream bit."""
        v = int(bit)
        if v not in (0, 1):
            raise CodeError(f"bit values must be 0 or 1, got {bit!r}")
        self._register = self._code._step(self._register, v)
        self._count += 1

    def shift_many(self, bits: Iterable[int]) -> None:
        """Absorb a sequence of stream bits in order."""
        for bit in bits:
            self.shift(bit)

    def signature(self) -> Bits:
        """Return the signature of everything absorbed so far."""
        return self._code._finalise(self._register)


__all__ = [
    "Bits",
    "CodeError",
    "as_bits",
    "bits_to_int",
    "int_to_bits",
    "hamming_distance",
    "DecodeStatus",
    "DecodeResult",
    "BlockCode",
    "StreamCode",
    "StreamState",
]
