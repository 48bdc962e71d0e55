"""Error correction block.

The error correction block (paper Fig. 2) receives error locations from
the state monitoring block during the decode pass and flips the
corresponding bits on the feedback path into the circuit's scan-in
ports, so that by the end of the pass the corrupted state has been
repaired in place.

In this reproduction the *datapath* of the correction (flipping the bit
on the feedback path) is implemented inside
:meth:`repro.core.monitor.MonitorBank.decode_pass`; this module provides
the bookkeeping object (:class:`CorrectionEvent`), the aggregation of
events across a pass, and the structural netlist of the correction
hardware used by the cost model.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Tuple

from repro.circuit.netlist import Netlist
from repro.codes.base import BlockCode


class CorrectionEvent(NamedTuple):
    """One bit correction issued during a decode pass.

    A :class:`typing.NamedTuple` for cheap construction: dense-error
    batched campaigns create one event per corrected bit, so event
    construction sits on the campaign hot path.

    Attributes
    ----------
    block_index:
        The monitoring block that located the error.
    chain_index:
        The scan chain whose bit was corrected.
    cycle:
        The decode-pass cycle at which the correction happened; together
        with the chain index this identifies the physical flip-flop.
    """

    block_index: int
    chain_index: int
    cycle: int


class ErrorCorrectionBlock:
    """Aggregates correction events and models the correction hardware.

    Parameters
    ----------
    code:
        The block code whose error locations this block decodes; used
        only for sizing the location-decode logic.  ``None`` models a
        detection-only configuration (no correction hardware at all).
    num_chains:
        Number of scan chains whose feedback path carries a correction
        XOR.
    """

    def __init__(self, code: Optional[BlockCode], num_chains: int):
        if num_chains <= 0:
            raise ValueError("chain count must be positive")
        self.code = code
        self.num_chains = num_chains
        self._events: List[CorrectionEvent] = []

    # ------------------------------------------------------------------
    @property
    def events(self) -> Tuple[CorrectionEvent, ...]:
        """All corrections recorded so far."""
        return tuple(self._events)

    @property
    def num_corrections(self) -> int:
        """Number of corrections recorded so far."""
        return len(self._events)

    def record(self, events: Iterable[CorrectionEvent]) -> None:
        """Record correction events reported by the monitor bank."""
        self._events.extend(events)

    def clear(self) -> None:
        """Forget all recorded corrections (start of a new cycle)."""
        self._events = []

    def corrected_flops(self, chain_length: int) -> Tuple[Tuple[int, int], ...]:
        """Corrected flop coordinates as ``(chain, position)`` pairs.

        The bit corrected at decode cycle ``c`` of a chain of length
        ``l`` belongs to scan position ``l - 1 - c`` (scan-out side
        leaves first).
        """
        return tuple(sorted(
            (event.chain_index, chain_length - 1 - event.cycle)
            for event in self._events))

    # ------------------------------------------------------------------
    def build_netlist(self, num_blocks: int = 1) -> Netlist:
        """Structural netlist of the correction hardware, group ``corrector``.

        Per monitoring block: an error-location decoder (syndrome to
        one-hot) and the correction XORs on the data path; per chain:
        the feedback multiplexer that selects between the raw loop-back
        bit and the corrected bit.
        """
        netlist = Netlist("error_corrector")
        group = "corrector"
        if self.code is not None:
            netlist.add_cells("and2", self.code.corrector_gate_count()
                              * max(num_blocks, 1), group=group)
            netlist.add_cells("xor2",
                              self.code.k * max(num_blocks, 1), group=group)
        # Feedback multiplexers on every chain's scan-in path.
        netlist.add_cells("mux2", self.num_chains, group=group)
        return netlist


__all__ = ["CorrectionEvent", "ErrorCorrectionBlock"]
