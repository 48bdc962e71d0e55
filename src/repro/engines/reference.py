"""The bit-serial reference engine.

A thin adapter driving the per-flop models of
:mod:`repro.core.monitor` -- the faithful-to-hardware path every other
engine is property-tested against.  It keeps no state of its own: the
check bits live in the design's monitor blocks, exactly as before the
engine subsystem existed.
"""

from __future__ import annotations

from typing import List

from repro.core.monitor import MonitorReport
from repro.engines.base import SimulationEngine


class ReferenceEngine(SimulationEngine):
    """Bit-serial per-flop simulation (the hardware-faithful baseline)."""

    def encode_pass(self, design) -> int:
        return design.monitor_bank.encode_pass(design.chains)

    def decode_pass(self, design) -> List[MonitorReport]:
        return design.monitor_bank.decode_pass(design.chains)


__all__ = ["ReferenceEngine"]
