"""Power domains and sleep-transistor networks.

A :class:`PowerDomain` groups a gated circuit with its header-switch
network and the electrical parameters of its wake-up transient.  The
domain exposes the two operations the power-gating controller needs ---
``enter_sleep`` and ``wake_up`` --- and reports each wake-up as a
:class:`WakeEvent` carrying the rush-current/droop figures that drive
the retention-upset model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.circuit.base import SequentialCircuit
from repro.power.retention import RetentionUpsetModel
from repro.power.rush_current import RLCParameters, wake_transient


class DomainState(enum.Enum):
    """Power state of a gated domain."""

    ACTIVE = "active"
    SLEEP = "sleep"


@dataclass(frozen=True)
class SwitchNetwork:
    """The header (sleep-transistor) network of a power domain.

    Attributes
    ----------
    num_switches:
        Total number of header switch transistors.
    on_resistance_per_switch:
        On-resistance of one switch in ohms.
    leakage_per_switch_nw:
        Off-state leakage of one switch in nanowatts.
    stages:
        Number of turn-on stages (1 = all at once; more stages model
        the staggered wake-up of the paper's references [7]/[8]).
    """

    num_switches: int = 64
    on_resistance_per_switch: float = 80.0
    leakage_per_switch_nw: float = 1.5
    stages: int = 1

    def __post_init__(self) -> None:
        if self.num_switches <= 0:
            raise ValueError("switch count must be positive")
        if self.on_resistance_per_switch <= 0:
            raise ValueError("switch on-resistance must be positive")
        if self.stages <= 0 or self.stages > self.num_switches:
            raise ValueError(
                "stages must be between 1 and the number of switches")

    @property
    def effective_resistance(self) -> float:
        """Resistance of the fully-on parallel switch network (ohms)."""
        return self.on_resistance_per_switch / self.num_switches

    @property
    def total_leakage_w(self) -> float:
        """Off-state leakage of the whole network in watts."""
        return self.num_switches * self.leakage_per_switch_nw * 1e-9


@dataclass(frozen=True)
class WakeEvent:
    """Record of one wake-up transient."""

    peak_current_a: float
    peak_droop_v: float
    settle_time_s: float
    wakeup_energy_j: float
    upset_indices: tuple

    @property
    def num_upsets(self) -> int:
        """Number of retention latches flipped by this wake-up."""
        return len(self.upset_indices)


class PowerDomain:
    """A power-gated domain wrapping a sequential circuit.

    Parameters
    ----------
    circuit:
        The gated design (its registers must be retention flip-flops).
    switches:
        The header switch network.
    rlc:
        Electrical parameters of the wake-up transient.  The series
        resistance is derived from the switch network if not supplied.
    upset_model:
        Optional droop-to-upset model.  When omitted, wake-ups never
        corrupt retention latches by themselves (fault injection can
        still be applied externally, as in the paper's FPGA campaign).
    """

    def __init__(self, circuit: SequentialCircuit,
                 switches: Optional[SwitchNetwork] = None,
                 rlc: Optional[RLCParameters] = None,
                 upset_model: Optional[RetentionUpsetModel] = None):
        self.circuit = circuit
        self.switches = switches if switches is not None else SwitchNetwork()
        if rlc is None:
            # Capacitance scales with circuit size: ~0.2 pF of switched
            # capacitance per register-equivalent of logic.
            capacitance = max(circuit.num_registers, 1) * 0.2e-12
            rlc = RLCParameters(
                resistance=self.switches.effective_resistance + 1.0,
                capacitance=capacitance)
        self.rlc = rlc
        self.upset_model = upset_model
        self._state = DomainState.ACTIVE
        self._wake_history: List[WakeEvent] = []

    # ------------------------------------------------------------------
    @property
    def state(self) -> DomainState:
        """Current power state of the domain."""
        return self._state

    @property
    def is_asleep(self) -> bool:
        """True while the domain is gated off."""
        return self._state is DomainState.SLEEP

    @property
    def wake_history(self) -> List[WakeEvent]:
        """All wake-up events recorded so far."""
        return list(self._wake_history)

    # ------------------------------------------------------------------
    def enter_sleep(self, *, virtual: bool = False) -> None:
        """Save state into retention latches and gate the domain off.

        ``virtual=True`` only moves the domain to ``SLEEP`` and touches
        no register.  It serves a batch whose sequences are simulated
        as virtual copies of the current state (the columnar summary
        path of
        :meth:`~repro.core.protected.ProtectedDesign.\
sleep_wake_cycle_batch_summary`), whose caller applies the net
        effect of a sleep/wake round trip without upsets to the
        registers itself: one walk that copies each master into its
        retention latch, instead of the four walks of a real cycle.
        """
        if self._state is DomainState.SLEEP:
            raise RuntimeError("domain is already asleep")
        if not virtual:
            self.circuit.retain_all()
            self.circuit.power_off_all()
        self._state = DomainState.SLEEP

    def wake_up(self, *, virtual: bool = False) -> WakeEvent:
        """Re-energise the domain and restore state from retention.

        The rush-current model is evaluated for this wake-up; if an
        upset model is attached, the resulting droop is applied to the
        retention latches *before* the restore, so any upset propagates
        into the architectural state exactly as in the real failure
        mechanism.

        ``virtual=True`` closes an :meth:`enter_sleep` with
        ``virtual=True``: the wake-up is recorded and its transient
        returned, but no register is touched, because none was gated
        off.  It requires ``upset_model=None``: with no restore, an
        upset would never reach the registers.
        """
        if self._state is DomainState.ACTIVE:
            raise RuntimeError("domain is already active")
        if virtual and self.upset_model is not None:
            raise ValueError(
                "a virtual wake-up requires upset_model=None")
        # The transient depends only on the electricals, so it comes from
        # the process-wide memo of ``repro.power.rush_current``.
        transient = wake_transient(self.rlc, self.switches.stages)
        upsets: tuple = ()
        if self.upset_model is not None:
            flipped = self.upset_model.sample_upsets(
                self.circuit.registers, transient.peak_droop)
            upsets = tuple(flipped)
        if not virtual:
            self.circuit.power_on_all()
            self.circuit.restore_all()
        self._state = DomainState.ACTIVE
        event = WakeEvent(
            peak_current_a=transient.peak_current,
            peak_droop_v=transient.peak_droop,
            settle_time_s=transient.settle_time,
            wakeup_energy_j=transient.wakeup_energy,
            upset_indices=upsets)
        self._wake_history.append(event)
        return event


__all__ = ["DomainState", "SwitchNetwork", "WakeEvent", "PowerDomain"]
