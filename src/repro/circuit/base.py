"""Base class for sequential circuits that can be protected.

A :class:`SequentialCircuit` exposes exactly what the methodology needs
from a design:

* its registers, as :class:`~repro.circuit.flipflop.RetentionFlipFlop`
  instances (so that sleep/wake retention and corruption can be
  modelled);
* a structural :class:`~repro.circuit.netlist.Netlist` for cost
  accounting;
* state load/dump used by scan shifting and by the validation bench.

Concrete circuits (the 32x32 FIFO case study, counters, register files,
...) subclass this and add their functional behaviour on top.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

from repro.circuit.flipflop import (
    RetentionFlipFlop,
    force_flops,
    power_off_flops,
    power_on_flops,
    restore_flops,
    retain_flops,
)
from repro.circuit.netlist import Netlist
from repro.circuit.state import StateSnapshot


class SequentialCircuit(ABC):
    """A clocked design whose registers can be retained and scanned."""

    #: Module name of the circuit.
    name: str

    @property
    @abstractmethod
    def registers(self) -> List[RetentionFlipFlop]:
        """All state-bearing registers, in a stable, deterministic order."""

    @property
    @abstractmethod
    def netlist(self) -> Netlist:
        """Structural netlist used for area/power accounting."""

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def num_registers(self) -> int:
        """Number of state-bearing registers."""
        return len(self.registers)

    def snapshot(self) -> StateSnapshot:
        """Capture the current register state."""
        regs = self.registers
        return StateSnapshot(
            values=tuple(ff.q for ff in regs),
            names=tuple(ff.name for ff in regs))

    def load_state(self, values: Sequence[Optional[int]]) -> None:
        """Overwrite every register with the supplied values."""
        regs = self.registers
        if len(values) != len(regs):
            raise ValueError(
                f"expected {len(regs)} register values, got {len(values)}")
        force_flops(regs, values)

    def load_snapshot(self, snapshot: StateSnapshot) -> None:
        """Overwrite every register from a snapshot."""
        self.load_state(snapshot.values)

    def reset_registers(self, value: int = 0) -> None:
        """Reset every register to ``value``."""
        for ff in self.registers:
            ff.reset(value)

    # ------------------------------------------------------------------
    # Retention sequencing (used by the power-gating controller)
    # ------------------------------------------------------------------
    def retain_all(self) -> None:
        """Assert RETAIN on every register (master -> retention latch)."""
        retain_flops(self.registers)

    def restore_all(self) -> None:
        """De-assert RETAIN on every register (retention latch -> master)."""
        restore_flops(self.registers)

    def power_off_all(self) -> None:
        """Collapse the gated rail under every register's master stage."""
        power_off_flops(self.registers)

    def power_on_all(self) -> None:
        """Re-energise the gated rail under every register's master stage."""
        power_on_flops(self.registers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, registers={self.num_registers})"


__all__ = ["SequentialCircuit"]
