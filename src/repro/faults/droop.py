"""Droop-driven fault injection.

The paper injects errors with LFSRs, i.e. the error arrival process is
an experimental knob rather than a physical consequence.  This module
closes the loop: it evaluates the rush-current model for a wake-up event
and converts the resulting supply droop into retention-latch upsets via
:class:`~repro.power.retention.RetentionUpsetModel`.  It is used in the
examples and in the ablation benchmarks to compare the paper's uniform
random injection against a physically motivated fault source.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.circuit.flipflop import RetentionFlipFlop
from repro.faults.patterns import ErrorPattern
from repro.power.retention import RetentionUpsetModel
from repro.power.rush_current import RLCParameters, wake_transient


class DroopFaultInjector:
    """Derives retention-latch upsets from the wake-up droop.

    Parameters
    ----------
    rlc:
        Electrical parameters of the wake-up transient.
    upset_model:
        Converts droop magnitude into per-latch flip probability.
    num_switch_stages:
        Staggered turn-on stages; more stages lower the droop and hence
        the upset rate (the mitigation of the paper's references
        [7]/[8]).
    """

    def __init__(self, rlc: Optional[RLCParameters] = None,
                 upset_model: Optional[RetentionUpsetModel] = None,
                 num_switch_stages: int = 1,
                 seed: Optional[int] = None):
        self.rlc = rlc if rlc is not None else RLCParameters()
        self.upset_model = (upset_model if upset_model is not None
                            else RetentionUpsetModel(seed=seed))
        self.num_switch_stages = num_switch_stages

    def peak_droop(self) -> float:
        """Peak supply droop (volts) for the configured wake-up.

        Read from the process-wide transient memo
        (:func:`~repro.power.rush_current.wake_transient`), so repeated
        :meth:`inject` calls walk the transient's time grid once.
        """
        return wake_transient(self.rlc, self.num_switch_stages).peak_droop

    def inject(self, flops: Sequence[RetentionFlipFlop],
               chain_length: Optional[int] = None) -> ErrorPattern:
        """Corrupt retention latches according to the droop and margins.

        Returns the upsets as an :class:`ErrorPattern`.  When
        ``chain_length`` is provided the flat flop indices are converted
        to ``(chain, position)`` coordinates, otherwise chain 0 is used
        with the flat index as the position.
        """
        droop = self.peak_droop()
        flipped = self.upset_model.sample_upsets(flops, droop)
        if chain_length:
            locations = frozenset(
                (index // chain_length, index % chain_length)
                for index in flipped)
        else:
            locations = frozenset((0, index) for index in flipped)
        return ErrorPattern(locations=locations, kind="droop")

    def expected_upsets(self, num_latches: int) -> float:
        """Expected number of upsets per wake-up for nominal latches."""
        return self.upset_model.expected_upsets(num_latches,
                                                self.peak_droop())


__all__ = ["DroopFaultInjector"]
