"""Scan-chain modelling and insertion.

Scan chains connect a design's flip-flops into long shift registers for
manufacturing test (paper Section II).  The methodology re-uses those
chains as the access channel over which the state monitoring block reads
(and, for correcting codes, rewrites) the design state.

This module provides:

* :class:`ScanChain` -- an ordered group of scan/retention flip-flops
  with cycle-level shift behaviour;
* :func:`insert_scan_chains` -- partition a circuit's registers into
  ``W`` chains (the scan-insertion step of the synthesis flow, Fig. 4);
* :func:`balance_chains` -- the chain-balancing policy used when the
  register count does not divide evenly.

Bit-order conventions
---------------------

Two orders coexist and must never be mixed (the round-trip tests in
``tests/circuit/test_scan_order.py`` pin them down):

* **scan order** (*scan-in side first*): position 0 is the flop at the
  scan-in port, position ``l - 1`` the flop at the scan-out port.
  :meth:`ScanChain.read_state` and :meth:`ScanChain.load_state` use
  scan order.
* **emission order** (*scan-out side first*): streams observed on the
  scan-out wire are time-ordered, and the scan-out-side flop leaves
  first.  :meth:`ScanChain.shift_many` and :meth:`ScanChain.circulate`
  return emission order -- ``circulate()`` is exactly
  ``read_state()`` reversed.

Consequently the bit observed at shift cycle ``c`` of a pass
originates from scan position ``l - 1 - c``; every consumer translates
with that formula (`repro.core.corrector.ErrorCorrectionBlock.
corrected_flops` for correction events, ``repro.faults.injector`` for
injection coordinates, and the packed engine in ``repro.engines.packed``).
Re-shifting an emission-order stream into an equal-length chain
restores the original state: the first-emitted bit travels all the way
back to the scan-out side.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.circuit.base import SequentialCircuit
from repro.circuit.flipflop import ScanFlipFlop


class ScanChain:
    """An ordered chain of scan flip-flops.

    Scan data enters at element 0 (the scan-in side) and leaves at the
    last element (the scan-out side).  One call to :meth:`shift` models
    one clock cycle in scan mode: every flop captures the output of its
    predecessor, the first flop captures the supplied scan-in bit, and
    the value previously held by the last flop appears at scan-out.
    """

    def __init__(self, flops: Sequence[ScanFlipFlop], name: str = ""):
        if not flops:
            raise ValueError("a scan chain needs at least one flip-flop")
        self.name = name
        self._flops: List[ScanFlipFlop] = list(flops)

    # ------------------------------------------------------------------
    @property
    def flops(self) -> List[ScanFlipFlop]:
        """The chain's flip-flops from scan-in side to scan-out side.

        A fresh list on every read: mutating it leaves the chain as it
        is.  Readers that only iterate or index use the chain itself.
        """
        return list(self._flops)

    def __len__(self) -> int:
        return len(self._flops)

    def __iter__(self) -> Iterator[ScanFlipFlop]:
        """The flip-flops from scan-in side to scan-out side, uncopied."""
        return iter(self._flops)

    def __getitem__(self, position: int) -> ScanFlipFlop:
        """The flip-flop at scan ``position`` (0 is the scan-in side)."""
        return self._flops[position]

    @property
    def length(self) -> int:
        """Number of flip-flops in the chain (the paper's ``l``)."""
        return len(self._flops)

    @property
    def scan_out(self) -> Optional[int]:
        """Value currently visible at the scan-out port."""
        return self._flops[-1].q

    # ------------------------------------------------------------------
    def shift(self, scan_in: Optional[int]) -> Optional[int]:
        """One scan-shift clock cycle; returns the scanned-out bit."""
        out = self._flops[-1].q
        # Capture old values first so that the shift is simultaneous.
        previous = [ff.q for ff in self._flops]
        self._flops[0].force(scan_in)
        for i in range(1, len(self._flops)):
            self._flops[i].force(previous[i - 1])
        return out

    def shift_many(self, scan_in_bits: Sequence[Optional[int]]
                   ) -> List[Optional[int]]:
        """Shift a sequence of bits in; returns the scanned-out bits."""
        return [self.shift(bit) for bit in scan_in_bits]

    def read_state(self) -> List[Optional[int]]:
        """Register values in scan order (scan-in side first)."""
        return [ff.q for ff in self._flops]

    def load_state(self, values: Sequence[Optional[int]]) -> None:
        """Directly load register values in scan order."""
        if len(values) != len(self._flops):
            raise ValueError(
                f"expected {len(self._flops)} values, got {len(values)}")
        for ff, value in zip(self._flops, values):
            ff.force(value)

    def circulate(self) -> List[Optional[int]]:
        """Shift the chain through one full rotation.

        The scan-out is looped back to the scan-in, so after
        ``len(self)`` cycles every flop holds its original value again.
        This is exactly what the monitoring block does during encoding
        (paper Section II.A): it observes the whole state without
        destroying it.  Returns the observed scan-out stream, one bit
        per cycle (the scan-out-side register first).
        """
        observed: List[Optional[int]] = []
        for _ in range(len(self._flops)):
            # Loop-back: the bit leaving scan-out re-enters at scan-in.
            out_bit = self._flops[-1].q
            self.shift(out_bit)
            observed.append(out_bit)
        return observed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScanChain(name={self.name!r}, length={len(self)})"


def balance_chains(num_registers: int, num_chains: int) -> List[int]:
    """Chain lengths for splitting ``num_registers`` into ``num_chains``.

    The first ``num_registers % num_chains`` chains get one extra flop,
    mirroring what DFT tools do when the register count does not divide
    evenly.
    """
    if num_chains <= 0:
        raise ValueError("number of chains must be positive")
    if num_registers < num_chains:
        raise ValueError(
            f"cannot build {num_chains} chains from {num_registers} "
            f"registers")
    base = num_registers // num_chains
    extra = num_registers % num_chains
    return [base + 1 if i < extra else base for i in range(num_chains)]


def insert_scan_chains(circuit: SequentialCircuit,
                       num_chains: int) -> List[ScanChain]:
    """Partition a circuit's registers into ``num_chains`` scan chains.

    Registers are assigned to chains in contiguous blocks of balanced
    length; the register order is the circuit's canonical register
    order.  This mirrors the re-ordering step of the paper's Section III
    where 128 flip-flops are regrouped from 4 chains into 16 chains to
    speed up encoding.
    """
    registers = circuit.registers
    lengths = balance_chains(len(registers), num_chains)
    chains: List[ScanChain] = []
    cursor = 0
    for index, length in enumerate(lengths):
        flops = registers[cursor:cursor + length]
        cursor += length
        chains.append(ScanChain(flops, name=f"{circuit.name}_chain{index}"))
    return chains


__all__ = ["ScanChain", "insert_scan_chains", "balance_chains"]
