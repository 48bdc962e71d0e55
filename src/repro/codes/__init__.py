"""Error detection and correction codes for scan-stream state monitoring.

The state monitoring block of the paper encodes the power-gated circuit's
state as it is shifted out through the scan chains, and checks it again
after wake-up.  Two families of codes are evaluated in the paper:

* :class:`HammingCode` -- single-error-correcting block codes.  The
  monitoring block stores ``n - k`` parity bits for every ``k``-bit slice
  of scan data, which makes correction possible at a substantial area
  cost (paper Table II / Table III).
* :class:`CRCCode` -- a cyclic redundancy check over the whole scan
  stream.  Only 16 bits of signature need to be stored per monitoring
  block, giving a very small area overhead, but errors can only be
  *detected*, not located (paper Table I).

All codes implement the :class:`~repro.codes.base.BlockCode` or
:class:`~repro.codes.base.StreamCode` interfaces so that the monitoring
logic (:mod:`repro.core.monitor`) is agnostic of the concrete code.

:mod:`repro.codes.packed` provides bit-exact packed-integer fast paths
(table-driven byte-wise CRC, mask-based Hamming/SECDED via popcount)
used by the packed simulation engine (:mod:`repro.engines.packed`).
"""

from repro.codes.base import (
    BlockCode,
    StreamCode,
    DecodeResult,
    DecodeStatus,
    CodeError,
)
from repro.codes.hamming import HammingCode
from repro.codes.secded import SECDEDCode
from repro.codes.parity import ParityCode
from repro.codes.crc import CRCCode, CRC_POLYNOMIALS
from repro.codes.interleave import InterleavedCode
from repro.codes.packed import (
    PackedCRC,
    PackedHamming,
    PackedSECDED,
    packed_block_code,
    packed_stream_code,
)
from repro.codes.registry import get_code, register_code, available_codes

__all__ = [
    "BlockCode",
    "StreamCode",
    "DecodeResult",
    "DecodeStatus",
    "CodeError",
    "HammingCode",
    "SECDEDCode",
    "ParityCode",
    "CRCCode",
    "CRC_POLYNOMIALS",
    "InterleavedCode",
    "PackedCRC",
    "PackedHamming",
    "PackedSECDED",
    "packed_block_code",
    "packed_stream_code",
    "get_code",
    "register_code",
    "available_codes",
]
