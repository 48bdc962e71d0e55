"""Flip-flop models: plain, scan-enabled and state-retention.

The paper's Fig. 1 shows a state-retention flip-flop: the master
flip-flop is built from low-Vt transistors and powered from the gated
rail (fast but leaky, loses state in sleep), while the slave retention
latch is built from high-Vt transistors on the always-on rail (slow but
low leakage, keeps state in sleep).  A ``RETAIN`` control copies master
to slave before sleep and slave back to master before resuming active
operation.

These models are *cycle-level*: they expose ``capture`` / ``shift``
operations rather than modelling individual transistors.  Supply-droop
induced corruption of the retention latch is applied externally by the
fault models in :mod:`repro.faults` and :mod:`repro.power.retention`.
"""

from __future__ import annotations

import enum
import operator
import sys
from typing import Iterable, List, Optional, Tuple


class PowerState(enum.Enum):
    """Power state of the gated rail feeding a flip-flop's master stage."""

    #: Gated rail energised; the master flip-flop holds valid data.
    ON = "on"
    #: Gated rail collapsed; the master flip-flop's content is unknown.
    OFF = "off"


_ON = PowerState.ON


class DFlipFlop:
    """A plain positive-edge D flip-flop.

    The stored value is an integer in ``{0, 1}`` or ``None`` for the
    unknown value ``X`` (e.g. before the first clock edge or after a
    power-down of a non-retention flop).
    """

    __slots__ = ("name", "_q")

    def __init__(self, name: str = "", init: Optional[int] = None):
        self.name = name
        self._q: Optional[int] = self._check(init)

    @staticmethod
    def _check(value: Optional[int]) -> Optional[int]:
        # None and int 0/1 are stored as they are; bool and numpy
        # integers (through __index__) and numpy bools (which have no
        # __index__) are normalised to int; strings, floats and
        # anything else are refused.
        if value.__class__ is int and 0 <= value <= 1 or value is None:
            return value
        try:
            v = int(operator.index(value))
        except TypeError:
            # A numpy bool can only exist once numpy is imported.
            numpy = sys.modules.get("numpy")
            if numpy is None or not isinstance(value, numpy.bool_):
                raise _invalid_bit(value) from None
            v = int(value)
        if v not in (0, 1):
            raise _invalid_bit(value)
        return v

    @property
    def q(self) -> Optional[int]:
        """Current output value (None models the unknown value X)."""
        return self._q

    def clock(self, d: Optional[int]) -> Optional[int]:
        """Apply one clock edge capturing ``d``; returns the new output."""
        self._q = self._check(d)
        return self._q

    def reset(self, value: int = 0) -> None:
        """Synchronous reset to ``value``."""
        self._q = self._check(value)

    def force(self, value: Optional[int]) -> None:
        """Directly overwrite the stored value (used by fault injection)."""
        self._q = self._check(value)

    def flip(self) -> None:
        """Invert the stored bit (single-event-upset style corruption)."""
        if self._q is not None:
            self._q ^= 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, q={self._q!r})"


class ScanFlipFlop(DFlipFlop):
    """A mux-D scan flip-flop.

    In functional mode (``se = 0``) the flop captures its functional
    ``d`` input; in scan mode (``se = 1``) it captures the serial scan
    input ``si`` instead.  Scan insertion replaces every system flip-flop
    with one of these (paper Section II).
    """

    __slots__ = ()

    def clock_scan(self, d: Optional[int], si: Optional[int],
                   se: int) -> Optional[int]:
        """One clock edge with explicit scan-enable selection."""
        return self.clock(si if se else d)

    def shift(self, si: Optional[int]) -> Optional[int]:
        """Scan-shift: capture ``si`` and return the *previous* output.

        This is the natural primitive for chain shifting -- the value
        that leaves this flop on a shift cycle is the value it held
        before the clock edge.
        """
        previous = self._q
        self.clock(si)
        return previous


class RetentionFlipFlop(ScanFlipFlop):
    """State-retention scan flip-flop (paper Fig. 1).

    Adds an always-on slave retention latch and a ``RETAIN`` control:

    * :meth:`retain` (RETAIN := 1) copies the master value into the
      retention latch; this happens during the sleep sequence.
    * :meth:`power_off` collapses the gated rail -- the master value
      becomes unknown, the retention latch keeps its value.
    * :meth:`power_on` re-energises the gated rail (master still
      unknown until restored).
    * :meth:`restore` (RETAIN := 0) copies the retention latch back into
      the master; this happens during the wake-up sequence.

    The retention latch can be corrupted externally through
    :meth:`corrupt_retention` -- this is precisely the failure mode the
    paper's methodology protects against (rush-current induced supply
    droop flipping retention latches).
    """

    __slots__ = ("_retention", "_power", "retention_margin")

    def __init__(self, name: str = "", init: Optional[int] = None,
                 retention_margin: float = 1.0):
        # The slots are set here, not through super().__init__: a FIFO
        # builds ~1 000 of these per bench.
        self.name = name
        self._q: Optional[int] = self._check(init)
        #: Value held by the always-on retention latch (None = unknown).
        self._retention: Optional[int] = None
        self._power = _ON
        #: Relative noise margin of this latch's retention node; used by
        #: the droop-driven upset model (1.0 = nominal).
        self.retention_margin = retention_margin

    # -- power-state bookkeeping ---------------------------------------
    @property
    def power(self) -> PowerState:
        """Power state of the gated rail feeding the master stage."""
        return self._power

    @property
    def retention_value(self) -> Optional[int]:
        """Value currently stored in the retention latch."""
        return self._retention

    def clock(self, d: Optional[int]) -> Optional[int]:
        """Clock the master; illegal while the gated rail is off."""
        if self._power is PowerState.OFF:
            raise RuntimeError(
                f"flip-flop {self.name!r} clocked while powered off")
        return super().clock(d)

    # -- retention sequence --------------------------------------------
    def retain(self) -> None:
        """RETAIN := 1 -- copy master into the retention latch."""
        if self._power is PowerState.OFF:
            raise _powered_off("retain", self)
        self._retention = self._q

    def power_off(self) -> None:
        """Collapse the gated rail; master content becomes unknown."""
        self._power = PowerState.OFF
        self._q = None

    def power_on(self) -> None:
        """Re-energise the gated rail; master remains unknown until restore."""
        self._power = PowerState.ON

    def restore(self) -> None:
        """RETAIN := 0 -- copy the retention latch back into the master."""
        if self._power is PowerState.OFF:
            raise _powered_off("restore", self)
        self._q = self._retention

    # -- fault hooks -----------------------------------------------------
    def corrupt_retention(self) -> None:
        """Flip the retention latch value (supply-droop induced upset)."""
        if self._retention is not None:
            self._retention ^= 1

    def force_retention(self, value: Optional[int]) -> None:
        """Directly overwrite the retention latch (fault injection)."""
        self._retention = self._check(value)


def _invalid_bit(value: object) -> ValueError:
    return ValueError(f"flip-flop values must be 0, 1 or None; got {value!r}")


def _powered_off(action: str, flop: RetentionFlipFlop) -> RuntimeError:
    return RuntimeError(
        f"cannot {action} {flop.name!r}: master is powered off")


# -- bulk retention sequencing ------------------------------------------
# One loop over the slots of a whole register set, in place of one
# method call per flop: a power-gating cycle of the 32x32 FIFO walks
# 1 040 flops four times.  Each function is exactly the per-flop method
# applied in sequence order, powered-off checks and messages included
# (flops before an offending one are already updated when it raises).
def flop_values(flops: Iterable[DFlipFlop]) -> List[Optional[int]]:
    """:attr:`DFlipFlop.q` of every flop, in order."""
    return [flop._q for flop in flops]


def force_flops(flops: Iterable[DFlipFlop],
                values: Iterable[Optional[int]]) -> None:
    """:meth:`DFlipFlop.force` on every flop, in order, with the
    matching entry of ``values`` (the two must have equal lengths)."""
    check = DFlipFlop._check
    for flop, value in zip(flops, values, strict=True):
        flop._q = check(value)


def retain_flops(flops: Iterable[RetentionFlipFlop]) -> None:
    """:meth:`RetentionFlipFlop.retain` on every flop, in order."""
    off = PowerState.OFF
    for flop in flops:
        if flop._power is off:
            raise _powered_off("retain", flop)
        flop._retention = flop._q


def power_off_flops(flops: Iterable[RetentionFlipFlop]) -> None:
    """:meth:`RetentionFlipFlop.power_off` on every flop, in order."""
    off = PowerState.OFF
    for flop in flops:
        flop._power = off
        flop._q = None


def power_on_flops(flops: Iterable[RetentionFlipFlop]) -> None:
    """:meth:`RetentionFlipFlop.power_on` on every flop, in order."""
    on = PowerState.ON
    for flop in flops:
        flop._power = on


def restore_flops(flops: Iterable[RetentionFlipFlop]) -> None:
    """:meth:`RetentionFlipFlop.restore` on every flop, in order."""
    off = PowerState.OFF
    for flop in flops:
        if flop._power is off:
            raise _powered_off("restore", flop)
        flop._q = flop._retention


class FlopSnapshot:
    """The ``(q, retention)`` pair of every flop of a register set,
    checked once when captured.

    :meth:`restore` powers every flop on and puts its captured pair
    back -- the end state of :meth:`~RetentionFlipFlop.power_on`,
    :meth:`~DFlipFlop.force` and
    :meth:`~RetentionFlipFlop.force_retention` per flop -- without
    running :meth:`DFlipFlop._check` again: every pair already passed
    it here.  A bench that is put back to its as-built state
    once per campaign chunk pays the check once per bench instead.
    Raises the ``0, 1 or None`` ``ValueError`` for a flop holding any
    other value.
    """

    __slots__ = ("flops", "_pairs")

    def __init__(self, flops: Iterable[RetentionFlipFlop]):
        check = DFlipFlop._check
        self.flops: Tuple[RetentionFlipFlop, ...] = tuple(flops)
        self._pairs: Tuple[Tuple[Optional[int], Optional[int]], ...] = \
            tuple((check(flop._q), check(flop._retention))
                  for flop in self.flops)

    def restore(self) -> None:
        """Power every flop on and put its captured pair back."""
        on = _ON
        for flop, (q, retention) in zip(self.flops, self._pairs):
            flop._power = on
            flop._q = q
            flop._retention = retention


__all__ = ["PowerState", "DFlipFlop", "ScanFlipFlop", "RetentionFlipFlop",
           "FlopSnapshot", "flop_values", "force_flops", "power_off_flops",
           "power_on_flops", "restore_flops", "retain_flops"]
