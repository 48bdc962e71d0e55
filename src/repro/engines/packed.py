"""The packed-integer engine: one chain becomes one integer.

:class:`PackedMonitorEngine` re-implements
:meth:`repro.core.monitor.MonitorBank.encode_pass` and
:meth:`~repro.core.monitor.MonitorBank.decode_pass` over packed chain
state (bit ``i`` of a chain's integer is the flop at scan position
``i``, see :mod:`repro.engines.packing`).  It is built from an existing
:class:`~repro.core.monitor.MonitorBank` (so the block structure,
codes and chain assignments are shared with the reference) and is
bit-exact against it: same stored check bits, same
:class:`~repro.core.monitor.MonitorReport` contents (including
correction events and their order), same final chain state.  The
equivalence is enforced by the property tests in
``tests/engines/test_packed_equivalence.py``.

:class:`PackedEngineAdapter` puts that state-level engine behind the
:class:`~repro.engines.base.SimulationEngine` interface: the adapter
owns the pack/write-back boundary, the wrapped engine does the
bit-exact packed passes.  One adapter serves one monitor bank and
chain geometry (the design's engine cache rebuilds it when either
changes).

Timing model (shared with the reference): decode cycle ``t`` observes
the bit leaving each chain's scan-out port, which is the bit at scan
position ``l - 1 - t`` -- the scan-out side leaves first.  See
:mod:`repro.circuit.scan` for the ordering conventions.

This module imports no numpy: ``engine="packed"`` is the fast engine
of a pure-stdlib install.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.codes.base import DecodeStatus
from repro.codes.packed import packed_block_code, packed_stream_code
from repro.core.corrector import CorrectionEvent
from repro.core.monitor import (
    CRCMonitorBlock,
    HammingMonitorBlock,
    MonitorBank,
    MonitorReport,
)
from repro.engines.base import SimulationEngine
from repro.engines.packing import pack_chains, write_back_chains


class _PackedBlockMonitor:
    """Packed state of one correcting (block-code) monitoring block."""

    def __init__(self, block: HammingMonitorBlock):
        self.block = block
        self.chain_indices = block.chain_indices
        self.width = block.width
        self.packed = packed_block_code(block.code)
        self.k = self.packed.k
        self.stored_parity: List[int] = []

    def gather(self, states: Sequence[int], position: int) -> int:
        """The block's k-bit data slice at one scan position.

        Chains beyond ``width`` are the tied-off padding inputs; their
        bits are implicitly 0 in the packed word.
        """
        data = 0
        top = self.k - 1
        for local, chain_index in enumerate(self.chain_indices):
            data |= ((states[chain_index] >> position) & 1) << (top - local)
        return data


class _PackedStreamMonitor:
    """Packed state of one detection-only (stream-code) block."""

    def __init__(self, block: CRCMonitorBlock):
        self.block = block
        self.chain_indices = block.chain_indices
        self.width = block.width
        self.packed = packed_stream_code(block.code)
        self.stored_signature: Optional[int] = None

    def stream(self, states: Sequence[int], length: int) -> Tuple[int, int]:
        """The block's full observation stream over one pass.

        Cycle ``t`` contributes the observed chains' bits at scan
        position ``l - 1 - t``, in chain order -- ``width`` bits per
        cycle, packed MSB first in time.  Returns ``(stream, nbits)``.
        """
        indices = self.chain_indices
        if len(indices) == 1:
            # A single observed chain: the stream is the circulating
            # state itself (scan-out-side bit first).
            return states[indices[0]], length
        stream = 0
        width = self.width
        top = width - 1
        for position in range(length - 1, -1, -1):
            piece = 0
            for local, chain_index in enumerate(indices):
                piece |= ((states[chain_index] >> position) & 1) \
                    << (top - local)
            stream = (stream << width) | piece
        return stream, length * width


def classify_monitors(bank: MonitorBank, block_factory, stream_factory):
    """Build an engine's monitor wrappers from a bank, in bank order.

    Shared by the packed and SIMD engines so the classification
    policy (correcting vs observing, report order, and the
    overlapping-correctors criterion the replay path keys on) lives in
    one place.  Returns ``(order, correcting, observing, overlapping)``
    where ``order`` is ``[("block"|"stream", monitor), ...]``.
    """
    order: List[Tuple[str, object]] = []
    correcting: List[object] = []
    observing: List[object] = []
    for block in bank.blocks:
        if block.can_correct:
            monitor = block_factory(block)
            correcting.append(monitor)
            order.append(("block", monitor))
        else:
            monitor = stream_factory(block)
            observing.append(monitor)
            order.append(("stream", monitor))
    # When several correcting blocks cover the same chain the reference
    # lets the *last* block's slice win on the feedback path; sparse
    # fast paths assume disjoint coverage and fall back to the shared
    # replay when they overlap.
    covered: set = set()
    overlapping = False
    for monitor in correcting:
        if covered.intersection(monitor.chain_indices):
            overlapping = True
        covered.update(monitor.chain_indices)
    return order, correcting, observing, overlapping


def replay_overlapping_feedback(monitors, states: Sequence[int],
                                length: int, stored_word) -> List[int]:
    """Reference-faithful feedback replay for overlapping correctors.

    The reference lets every correcting block assign its (possibly
    uncorrected) slice onto the feedback path in bank order, so on
    shared chains the last block wins even where an earlier block
    corrected.  This is the packed engine's implementation of that
    rule (its sparse decode otherwise assumes disjoint coverage; the
    SIMD engine vectorises the same reassignment): ``monitors`` expose
    ``chain_indices`` /
    ``width`` / ``k`` and a packed ``decode_slice``;
    ``stored_word(monitor, cycle)`` returns the stored parity word of
    one cycle.  Operates on (and returns) packed per-chain states.
    """
    corrected = list(states)
    for cycle in range(length):
        position = length - 1 - cycle
        bit_mask = 1 << position
        for monitor in monitors:
            top = monitor.k - 1
            data = 0
            for local, chain_index in enumerate(monitor.chain_indices):
                data |= ((states[chain_index] >> position) & 1) \
                    << (top - local)
            _status, corrected_data, positions = \
                monitor.packed.decode_slice(data, stored_word(monitor,
                                                              cycle))
            slice_bits = data
            for p in positions:
                if p < monitor.width:
                    slice_bits = corrected_data
                    break
            for local, chain_index in enumerate(monitor.chain_indices):
                if (slice_bits >> (top - local)) & 1:
                    corrected[chain_index] |= bit_mask
                else:
                    corrected[chain_index] &= ~bit_mask
    return corrected


class PackedMonitorEngine:
    """Packed-integer equivalent of a monitor bank's encode/decode.

    Parameters
    ----------
    bank:
        The monitor bank whose structure (blocks, codes, chain
        assignments, report order) this engine mirrors.  Check bits are
        stored inside the engine; the bank's own block objects are left
        untouched.
    num_chains, chain_length:
        Geometry of the packed chain set the passes will run over.
    """

    def __init__(self, bank: MonitorBank, num_chains: int, chain_length: int):
        self.num_chains = num_chains
        self.chain_length = chain_length
        (self._order, self._correcting, self._observing,
         self._overlapping_correctors) = classify_monitors(
            bank, _PackedBlockMonitor, _PackedStreamMonitor)
        self._encoded = False

    # ------------------------------------------------------------------
    def _check_geometry(self, states: Sequence[int],
                        knowns: Sequence[int]) -> None:
        if len(states) != self.num_chains or len(knowns) != self.num_chains:
            raise ValueError(
                f"expected {self.num_chains} packed chains, got "
                f"{len(states)}")
        full = (1 << self.chain_length) - 1
        for state, known in zip(states, knowns):
            if state & ~known or state > full or known > full:
                raise ValueError(
                    "packed state has bits outside the known mask or the "
                    "chain length")

    def encode_pass(self, states: Sequence[int],
                    knowns: Sequence[int]) -> int:
        """Run one full encoding pass; returns the cycle count.

        ``states[c]`` / ``knowns[c]`` are chain ``c``'s packed state
        (unknown bits 0, matching the monitors' treat-X-as-0 rule).
        The pass leaves the chain state unchanged -- a full circulation
        is the identity -- so nothing is written back.
        """
        self._check_geometry(states, knowns)
        length = self.chain_length
        for monitor in self._correcting:
            parity = monitor.packed.parity
            gather = monitor.gather
            monitor.stored_parity = [
                parity(gather(states, position))
                for position in range(length - 1, -1, -1)]
        for monitor in self._observing:
            stream, nbits = monitor.stream(states, length)
            monitor.stored_signature = monitor.packed.signature_int(
                stream, nbits)
        self._encoded = True
        return length

    def decode_pass(self, states: Sequence[int], knowns: Sequence[int]
                    ) -> Tuple[List[MonitorReport], List[int]]:
        """Run one full decoding pass with on-the-fly correction.

        Returns ``(reports, corrected_states)``: the per-block reports
        in the bank's block order and the packed chain states after the
        pass (every bit known -- the reference pass reloads unknown
        bits as 0).
        """
        if not self._encoded:
            raise RuntimeError("no stored check bits: encode first")
        self._check_geometry(states, knowns)
        length = self.chain_length
        corrected = list(states)

        block_results = []
        for monitor in self._correcting:
            if len(monitor.stored_parity) != length:
                raise RuntimeError(
                    "decode pass is longer than the stored encode pass")
            detected = False
            uncorrectable = False
            corrections: List[CorrectionEvent] = []
            bad_slices: List[int] = []
            decode_slice = monitor.packed.decode_slice
            gather = monitor.gather
            stored = monitor.stored_parity
            width = monitor.width
            k = monitor.k
            block_index = monitor.block.block_index
            indices = monitor.chain_indices
            for cycle in range(length):
                position = length - 1 - cycle
                data = gather(states, position)
                status, corrected_data, positions = decode_slice(
                    data, stored[cycle])
                if status is DecodeStatus.NO_ERROR:
                    continue
                detected = True
                bad_slices.append(cycle)
                if status is DecodeStatus.DETECTED:
                    uncorrectable = True
                    continue
                for p in positions:
                    if p < width:
                        chain_index = indices[p]
                        bit = (corrected_data >> (k - 1 - p)) & 1
                        if bit:
                            corrected[chain_index] |= 1 << position
                        else:
                            corrected[chain_index] &= ~(1 << position)
                        corrections.append(CorrectionEvent(
                            block_index=block_index,
                            chain_index=chain_index,
                            cycle=cycle))
                    elif p >= k:
                        # Stored parity bit flipped: state is fine.
                        pass
                    else:
                        # Correction lands on a tied-off padding input.
                        uncorrectable = True
            block_results.append((monitor, MonitorReport(
                block_index=block_index,
                error_detected=detected,
                corrections=tuple(corrections),
                uncorrectable=uncorrectable,
                slices_with_errors=tuple(bad_slices))))

        if self._overlapping_correctors:
            corrected = self._replay_overlapping(states, length)

        stream_results = []
        for monitor in self._observing:
            if monitor.stored_signature is None:
                raise RuntimeError("no stored signature: encode first")
            stream, nbits = monitor.stream(corrected, length)
            mismatch = (monitor.packed.signature_int(stream, nbits)
                        != monitor.stored_signature)
            stream_results.append((monitor, MonitorReport(
                block_index=monitor.block.block_index,
                error_detected=mismatch,
                corrections=(),
                uncorrectable=mismatch)))

        by_monitor = dict((id(m), r) for m, r in block_results)
        by_monitor.update((id(m), r) for m, r in stream_results)
        reports = [by_monitor[id(monitor)] for _, monitor in self._order]
        return reports, corrected

    # ------------------------------------------------------------------
    def _replay_overlapping(self, states: Sequence[int],
                            length: int) -> List[int]:
        """Feedback replay when correcting blocks share chains; only
        runs for overlapping configurations (see
        :func:`replay_overlapping_feedback`)."""
        return replay_overlapping_feedback(
            self._correcting, states, length,
            lambda monitor, cycle: monitor.stored_parity[cycle])


class PackedEngineAdapter(SimulationEngine):
    """Packed-integer simulation of the encode/decode passes."""

    def __init__(self, bank: MonitorBank, num_chains: int,
                 chain_length: int):
        self.engine = PackedMonitorEngine(bank, num_chains, chain_length)

    def encode_pass(self, design) -> int:
        states, knowns = pack_chains(design.chains)
        return self.engine.encode_pass(states, knowns)

    def decode_pass(self, design) -> List[MonitorReport]:
        states, knowns = pack_chains(design.chains)
        reports, corrected = self.engine.decode_pass(states, knowns)
        write_back_chains(design.chains, states, knowns, corrected)
        return reports


__all__ = [
    "PackedEngineAdapter",
    "PackedMonitorEngine",
    "classify_monitors",
    "replay_overlapping_feedback",
]
