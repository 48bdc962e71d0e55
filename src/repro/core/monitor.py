"""State monitoring blocks and the monitor bank.

The state monitoring block (paper Fig. 2) sits on the scan path of the
power-gated circuit:

* **encode** (before sleep, ``sel = 0``, ``se = 1``): the scan chains
  circulate for ``l`` cycles with the scan-out looped back to the
  scan-in; every cycle the block observes one bit per chain, computes
  check bits and stores them;
* **decode** (after wake-up, ``sel = 1``, ``se = 1``): the chains
  circulate again; the block recomputes the check bits, compares them
  against the stored ones, and --- for correcting codes --- hands the
  error location to the error correction block, which repairs the bit
  on the feedback path into the scan-in port.

Two concrete block types mirror the paper's two code choices:

* :class:`HammingMonitorBlock` stores ``n - k`` parity bits for every
  ``k``-bit slice (one slice per cycle) and corrects single errors per
  slice;
* :class:`CRCMonitorBlock` folds the whole pass into one CRC-16
  signature and can only detect.

:class:`MonitorBank` aggregates the parallel blocks of a configuration
(Fig. 5(a)) and drives complete encode/decode passes over the chains.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.circuit.netlist import Netlist
from repro.circuit.scan import ScanChain
from repro.codes.base import BlockCode, DecodeStatus, StreamCode, StreamState
from repro.core.corrector import CorrectionEvent


class MonitorReport(NamedTuple):
    """Outcome of one decode pass of a single monitoring block.

    A :class:`typing.NamedTuple` rather than a frozen dataclass:
    batched engines materialise one report per detected sequence, so on
    dense-error campaigns construction cost is a first-order term --
    tuple construction is several times cheaper than frozen-dataclass
    ``object.__setattr__`` initialisation, with the same immutability
    and field-wise equality.

    Attributes
    ----------
    block_index:
        Which monitoring block produced the report.
    error_detected:
        True when any mismatch against the stored check bits was seen.
    corrections:
        Correction events issued to the error correction block.
    uncorrectable:
        True when a mismatch was seen that the block could not map to a
        single-bit correction (stream codes always set this on
        detection; block codes set it when the syndrome points at a
        parity bit or when multiple slices disagree in a way the code
        cannot repair).
    slices_with_errors:
        Cycle indices at which mismatches were observed (block codes).
    """

    block_index: int
    error_detected: bool
    corrections: Tuple[CorrectionEvent, ...] = ()
    uncorrectable: bool = False
    slices_with_errors: Tuple[int, ...] = ()

    @property
    def num_corrections(self) -> int:
        """Number of bit corrections issued by this block."""
        return len(self.corrections)


class StateMonitorBlock(ABC):
    """Common interface of the monitoring blocks.

    A block observes a fixed set of chains (identified by their indices
    within the bank) one bit per chain per cycle.
    """

    #: Whether this block can issue corrections (block codes) or only
    #: detect (stream codes).  Detection-only blocks are fed the
    #: *post-correction* feedback stream during decode, so a clean CRC
    #: after a Hamming correction really means the state is trusted.
    can_correct: bool = False

    def __init__(self, block_index: int, chain_indices: Sequence[int]):
        if not chain_indices:
            raise ValueError("a monitoring block needs at least one chain")
        self.block_index = block_index
        self.chain_indices = tuple(chain_indices)

    @property
    def width(self) -> int:
        """Number of chains observed by this block."""
        return len(self.chain_indices)

    @abstractmethod
    def begin_encode(self) -> None:
        """Reset stored check bits and start an encoding pass."""

    @abstractmethod
    def observe_encode(self, data_slice: Sequence[int]) -> None:
        """Absorb one cycle's slice (one bit per observed chain)."""

    @abstractmethod
    def begin_decode(self) -> None:
        """Start a decoding pass against the stored check bits."""

    @abstractmethod
    def observe_decode(self, data_slice: Sequence[int]
                       ) -> Tuple[List[int], List[CorrectionEvent]]:
        """Check one cycle's slice; returns (possibly corrected) slice."""

    @abstractmethod
    def finalize_decode(self) -> MonitorReport:
        """Close the decoding pass and report what was seen."""

    @abstractmethod
    def build_netlist(self, chain_length: int) -> Netlist:
        """Structural netlist of this block for cost accounting."""

    @abstractmethod
    def storage_bits(self, chain_length: int) -> int:
        """Check-bit storage required for a pass of ``chain_length`` cycles."""


class HammingMonitorBlock(StateMonitorBlock):
    """Monitoring block built around a systematic block code.

    Despite the name the block accepts any
    :class:`~repro.codes.base.BlockCode` (Hamming, SECDED,
    interleaved Hamming, parity); Hamming is the paper's choice.

    The block observes ``code.k`` chains.  When it is assigned fewer
    chains (the tail block of a configuration whose chain count is not
    a multiple of ``k``), the missing inputs are tied to constant zero,
    exactly as unused monitor inputs would be tied off in hardware.
    """

    can_correct = True

    def __init__(self, block_index: int, chain_indices: Sequence[int],
                 code: BlockCode):
        super().__init__(block_index, chain_indices)
        if len(chain_indices) > code.k:
            raise ValueError(
                f"block code {code!r} accepts {code.k} chains, "
                f"got {len(chain_indices)}")
        self.code = code
        self._stored_parity: List[Tuple[int, ...]] = []
        self._cycle = 0
        self._detected = False
        self._uncorrectable = False
        self._corrections: List[CorrectionEvent] = []
        self._bad_slices: List[int] = []

    # ------------------------------------------------------------------
    def _pad(self, data_slice: Sequence[int]) -> List[int]:
        padded = [0 if b is None else int(b) for b in data_slice]
        if len(padded) != self.width:
            raise ValueError(
                f"expected {self.width} bits per slice, got {len(padded)}")
        padded.extend([0] * (self.code.k - self.width))
        return padded

    def begin_encode(self) -> None:
        """Clear the parity storage and restart the cycle counter."""
        self._stored_parity = []
        self._cycle = 0

    def observe_encode(self, data_slice: Sequence[int]) -> None:
        """Compute and store the parity bits of one slice."""
        padded = self._pad(data_slice)
        self._stored_parity.append(self.code.parity_bits(padded))
        self._cycle += 1

    def begin_decode(self) -> None:
        """Rewind to the first stored slice and clear decode bookkeeping."""
        self._cycle = 0
        self._detected = False
        self._uncorrectable = False
        self._corrections = []
        self._bad_slices = []

    def observe_decode(self, data_slice: Sequence[int]
                       ) -> Tuple[List[int], List[CorrectionEvent]]:
        """Check one slice against its stored parity and correct it."""
        if self._cycle >= len(self._stored_parity):
            raise RuntimeError(
                "decode pass is longer than the stored encode pass")
        padded = self._pad(data_slice)
        stored = self._stored_parity[self._cycle]
        result = self.code.check(padded, stored)
        events: List[CorrectionEvent] = []
        corrected_slice = list(padded[:self.width])
        if result.status is DecodeStatus.CORRECTED:
            self._detected = True
            self._bad_slices.append(self._cycle)
            for position in result.corrected_positions:
                if position < self.width:
                    corrected_slice[position] = result.data[position]
                    events.append(CorrectionEvent(
                        block_index=self.block_index,
                        chain_index=self.chain_indices[position],
                        cycle=self._cycle))
                elif position >= self.code.k:
                    # The syndrome points at a stored parity bit: the
                    # scan data is fine, nothing to fix in the circuit.
                    pass
                else:
                    # Correction lands on a tied-off padding input --
                    # only possible when several real errors aliased;
                    # treat as uncorrectable.
                    self._uncorrectable = True
        elif result.status is DecodeStatus.DETECTED:
            self._detected = True
            self._uncorrectable = True
            self._bad_slices.append(self._cycle)
        self._corrections.extend(events)
        self._cycle += 1
        return corrected_slice, events

    def finalize_decode(self) -> MonitorReport:
        """Report the outcome of the decode pass."""
        return MonitorReport(
            block_index=self.block_index,
            error_detected=self._detected,
            corrections=tuple(self._corrections),
            uncorrectable=self._uncorrectable,
            slices_with_errors=tuple(self._bad_slices))

    # ------------------------------------------------------------------
    def storage_bits(self, chain_length: int) -> int:
        """Parity storage: ``r`` bits per cycle of the pass."""
        return chain_length * self.code.r

    def build_netlist(self, chain_length: int) -> Netlist:
        """Parity storage plus encode/syndrome logic, group ``monitor``."""
        netlist = Netlist(f"hamming_monitor_{self.block_index}")
        group = "monitor"
        netlist.add_cells("aon_dff", self.storage_bits(chain_length),
                          group=group)
        netlist.add_cells("xor2", self.code.encoder_xor_count()
                          + self.code.decoder_xor_count(), group=group)
        # Parity compare and error-flag generation.
        netlist.add_cells("xnor2", self.code.r, group=group)
        netlist.add_cells("and2", max(self.code.r - 1, 1), group=group)
        netlist.add_cells("or2", 2, group=group)
        return netlist


class CRCMonitorBlock(StateMonitorBlock):
    """Detection-only monitoring block built around a stream code.

    All observed chains feed one signature register: each cycle the
    block folds ``width`` bits (in chain order) into the running
    signature.  After the decode pass the recomputed signature is
    compared with the stored one.

    During decode the block is fed the post-correction feedback stream
    (see :class:`StateMonitorBlock.can_correct`), so when it is stacked
    on top of a correcting code it verifies the *repaired* state: a
    mis-correction by the Hamming block shows up as a CRC mismatch.
    """

    can_correct = False

    def __init__(self, block_index: int, chain_indices: Sequence[int],
                 code: StreamCode):
        super().__init__(block_index, chain_indices)
        self.code = code
        self._stored_signature: Optional[Tuple[int, ...]] = None
        self._state: Optional[StreamState] = None
        self._decode_state: Optional[StreamState] = None

    def begin_encode(self) -> None:
        """Clear the stored signature and start a fresh accumulator."""
        self._stored_signature = None
        self._state = self.code.new_state()

    def observe_encode(self, data_slice: Sequence[int]) -> None:
        """Fold one slice into the running signature."""
        if self._state is None:
            raise RuntimeError("begin_encode() must be called first")
        if len(data_slice) != self.width:
            raise ValueError(
                f"expected {self.width} bits per slice, got {len(data_slice)}")
        for bit in data_slice:
            self._state.shift(0 if bit is None else int(bit))
        self._stored_signature = self._state.signature()

    def begin_decode(self) -> None:
        """Start recomputing the signature for comparison."""
        if self._stored_signature is None:
            raise RuntimeError("no stored signature: encode first")
        self._decode_state = self.code.new_state()

    def observe_decode(self, data_slice: Sequence[int]
                       ) -> Tuple[List[int], List[CorrectionEvent]]:
        """Fold one slice into the decode signature (no correction)."""
        if self._decode_state is None:
            raise RuntimeError("begin_decode() must be called first")
        if len(data_slice) != self.width:
            raise ValueError(
                f"expected {self.width} bits per slice, got {len(data_slice)}")
        for bit in data_slice:
            self._decode_state.shift(0 if bit is None else int(bit))
        return [0 if b is None else int(b) for b in data_slice], []

    def finalize_decode(self) -> MonitorReport:
        """Compare the recomputed signature with the stored one."""
        if self._decode_state is None or self._stored_signature is None:
            raise RuntimeError("decode pass was not run")
        mismatch = self._decode_state.signature() != self._stored_signature
        return MonitorReport(
            block_index=self.block_index,
            error_detected=mismatch,
            corrections=(),
            uncorrectable=mismatch)

    # ------------------------------------------------------------------
    def storage_bits(self, chain_length: int) -> int:
        """Signature storage is independent of the chain length."""
        return self.code.signature_bits

    def build_netlist(self, chain_length: int) -> Netlist:
        """Signature registers plus feedback/compare logic, group ``monitor``."""
        netlist = Netlist(f"crc_monitor_{self.block_index}")
        group = "monitor"
        # Working signature register (shifts every cycle).
        netlist.add_cells("aon_dff", self.code.signature_bits, group=group)
        # Stored reference signature (written once per encode pass).
        netlist.add_cells("ret_latch", self.code.signature_bits, group=group)
        # Parallel input folding: one XOR per observed chain plus the
        # feedback network.
        netlist.add_cells("xor2", self.code.feedback_xor_count()
                          + self.width, group=group)
        # Signature compare.
        netlist.add_cells("xnor2", self.code.signature_bits, group=group)
        netlist.add_cells("and2", self.code.signature_bits - 1, group=group)
        return netlist


class MonitorBank:
    """All monitoring blocks of a configuration, driven together.

    Parameters
    ----------
    blocks:
        The monitoring blocks; their ``chain_indices`` must jointly
        cover every chain they are expected to observe.
    """

    def __init__(self, blocks: Sequence[StateMonitorBlock]):
        if not blocks:
            raise ValueError("a monitor bank needs at least one block")
        self.blocks = list(blocks)

    @property
    def num_blocks(self) -> int:
        """Number of monitoring blocks in the bank."""
        return len(self.blocks)

    def covered_chains(self) -> Tuple[int, ...]:
        """All chain indices observed by at least one block."""
        covered = set()
        for block in self.blocks:
            covered.update(block.chain_indices)
        return tuple(sorted(covered))

    # ------------------------------------------------------------------
    def encode_pass(self, chains: Sequence[ScanChain]) -> int:
        """Run one full encoding pass over the chains.

        The chains circulate once (scan-out looped back to scan-in,
        state preserved); every block observes its slice each cycle.
        Returns the number of cycles spent.
        """
        length = self._common_length(chains)
        for block in self.blocks:
            block.begin_encode()
        for _ in range(length):
            out_bits = [chain.scan_out for chain in chains]
            for block in self.blocks:
                data_slice = [out_bits[i] for i in block.chain_indices]
                block.observe_encode(data_slice)
            for chain, bit in zip(chains, out_bits):
                chain.shift(bit)
        return length

    def decode_pass(self, chains: Sequence[ScanChain]
                    ) -> List[MonitorReport]:
        """Run one full decoding pass with on-the-fly correction.

        Each cycle, the bits leaving the chains are checked by the
        correcting blocks; corrected bits replace the originals on the
        feedback path into the scan-in ports, so after the pass the
        circuit holds the corrected state.  Detection-only blocks then
        observe the corrected feedback stream, so their verdict applies
        to the state the circuit will actually resume with.  Returns
        every block's report (in the bank's block order).
        """
        length = self._common_length(chains)
        for block in self.blocks:
            block.begin_decode()
        correcting = [b for b in self.blocks if b.can_correct]
        observing = [b for b in self.blocks if not b.can_correct]
        for _ in range(length):
            out_bits = [chain.scan_out for chain in chains]
            feedback = [0 if b is None else int(b) for b in out_bits]
            for block in correcting:
                data_slice = [out_bits[i] for i in block.chain_indices]
                corrected_slice, _events = block.observe_decode(data_slice)
                for local, chain_index in enumerate(block.chain_indices):
                    feedback[chain_index] = corrected_slice[local]
            for block in observing:
                data_slice = [feedback[i] for i in block.chain_indices]
                block.observe_decode(data_slice)
            for chain, bit in zip(chains, feedback):
                chain.shift(bit)
        return [block.finalize_decode() for block in self.blocks]

    # ------------------------------------------------------------------
    def build_netlist(self, chain_length: int) -> Netlist:
        """Combined netlist of every block in the bank."""
        bank = Netlist("monitor_bank")
        for block in self.blocks:
            bank.merge(block.build_netlist(chain_length))
        return bank

    def total_storage_bits(self, chain_length: int) -> int:
        """Total check-bit storage across the bank."""
        return sum(block.storage_bits(chain_length)
                   for block in self.blocks)

    @staticmethod
    def _common_length(chains: Sequence[ScanChain]) -> int:
        if not chains:
            raise ValueError("at least one chain is required")
        lengths = {len(chain) for chain in chains}
        if len(lengths) != 1:
            raise ValueError(
                f"all chains must have equal length, got {sorted(lengths)}")
        return lengths.pop()


CodeLike = Union[BlockCode, StreamCode]


def build_monitor_blocks(code: CodeLike, num_chains: int,
                         monitor_width: int) -> List[StateMonitorBlock]:
    """Instantiate the monitoring blocks for a configuration.

    Block codes get one block per ``monitor_width`` chains (normally
    ``monitor_width == code.k``); stream codes get a single block
    observing every chain, matching the small-and-shared CRC monitor of
    the paper's Table I.
    """
    if num_chains <= 0:
        raise ValueError("chain count must be positive")
    if isinstance(code, StreamCode):
        return [CRCMonitorBlock(0, tuple(range(num_chains)), code)]
    blocks: List[StateMonitorBlock] = []
    width = min(monitor_width, code.k)
    index = 0
    for start in range(0, num_chains, width):
        chain_indices = tuple(range(start, min(start + width, num_chains)))
        blocks.append(HammingMonitorBlock(index, chain_indices, code))
        index += 1
    return blocks


__all__ = [
    "MonitorReport",
    "StateMonitorBlock",
    "HammingMonitorBlock",
    "CRCMonitorBlock",
    "MonitorBank",
    "build_monitor_blocks",
]
