"""Rush-current and supply-droop model.

When a power-gated domain wakes up, its internal (discharged)
capacitance must be recharged through the sleep transistors.  The paper
-- following its reference [7] (Kim, Kosonocky, Knebel, ISLPED'03) --
models this transient as the step response of a series RLC circuit:

* ``R`` -- effective resistance of the sleep-transistor network plus the
  local power grid,
* ``L`` -- package and grid inductance,
* ``C`` -- the gated domain's internal plus decoupling capacitance.

The rush current ``i(t)`` flowing through the shared supply rails
induces a voltage ``v(t) = R_share * i(t) + L_share * di/dt`` across the
rail parasitics; that voltage transient is seen by the *always-on*
retention latches and can flip them --- this is the failure mechanism
the methodology protects against.

The model supports the standard mitigation baselines of [7]/[8]
(staggered switch turn-on), so that the trade-off between "reduce the
rush current" and "monitor and correct the state" can be explored.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Tuple


class DampingRegime(enum.Enum):
    """Damping classification of the wake-up RLC transient."""

    UNDERDAMPED = "underdamped"
    CRITICALLY_DAMPED = "critically_damped"
    OVERDAMPED = "overdamped"


@dataclass(frozen=True)
class RLCParameters:
    """Electrical parameters of the wake-up transient.

    Attributes
    ----------
    vdd:
        Supply voltage in volts (1.2 V is typical for the paper's
        120 nm node).
    resistance:
        Total series resistance in ohms (sleep-transistor network plus
        grid).
    inductance:
        Series inductance in henries (package + grid).
    capacitance:
        Gated-domain capacitance in farads to be recharged at wake-up.
    share_resistance:
        Portion of the resistance shared with the always-on rail; the
        rush current times this resistance appears as droop at the
        retention latches.
    share_inductance:
        Portion of the inductance shared with the always-on rail.  The
        default is 0 because an ideal voltage step makes ``di/dt`` at
        ``t = 0+`` independent of the switch resistance, which would
        hide the benefit of staggered turn-on; set it to a non-zero
        value to study the inductive component explicitly.
    """

    vdd: float = 1.2
    resistance: float = 2.0
    inductance: float = 1.0e-9
    capacitance: float = 200.0e-12
    share_resistance: float = 0.5
    share_inductance: float = 0.0

    def __post_init__(self) -> None:
        if self.vdd <= 0:
            raise ValueError("vdd must be positive")
        if self.resistance <= 0 or self.inductance <= 0 or self.capacitance <= 0:
            raise ValueError("R, L and C must all be positive")
        if self.share_resistance < 0 or self.share_inductance < 0:
            raise ValueError("shared parasitics cannot be negative")

    @property
    def alpha(self) -> float:
        """Neper frequency ``R / (2L)`` in rad/s."""
        return self.resistance / (2.0 * self.inductance)

    @property
    def omega0(self) -> float:
        """Undamped natural frequency ``1 / sqrt(LC)`` in rad/s."""
        return 1.0 / math.sqrt(self.inductance * self.capacitance)

    @property
    def damping_ratio(self) -> float:
        """Damping ratio ``zeta = alpha / omega0``."""
        return self.alpha / self.omega0

    @property
    def regime(self) -> DampingRegime:
        """Damping regime of the transient."""
        zeta = self.damping_ratio
        if abs(zeta - 1.0) < 1e-9:
            return DampingRegime.CRITICALLY_DAMPED
        if zeta < 1.0:
            return DampingRegime.UNDERDAMPED
        return DampingRegime.OVERDAMPED


#: Default ``tolerance`` of :meth:`RushCurrentModel.settle_time`: the
#: supply counts as stable once the rush current stays below 2 % of its
#: peak.
SETTLE_TOLERANCE = 0.02

#: Samples per transient horizon of the time grid every peak search
#: walks.
_GRID_STEPS = 4000.0

#: Wake-up transients memoised process-wide on the (frozen) RLC
#: parameters and switch staging, the only inputs of the transient.  Its
#: grid walk is by far the most expensive part of a domain's *first*
#: wake-up, and the same electricals come back over and over: every
#: design of one geometry, every campaign chunk (the chunk workspace
#: keeps its bench but rebuilds the
#: :class:`~repro.power.domain.PowerDomain` object) and every
#: :class:`~repro.faults.droop.DroopFaultInjector` call.  With the memo
#: each process walks a given grid once (the same reasoning as the GF(2)
#: matrix cache ``_MATRIX_CACHE`` of :mod:`repro.codes.plane`).
_TRANSIENT_CACHE: Dict[Tuple[RLCParameters, int], "WakeTransient"] = {}


@dataclass(frozen=True)
class WakeTransient:
    """The figures of one wake-up transient, from one walk of its grid.

    Attributes
    ----------
    peak_time:
        Grid time (seconds) of the first sample holding the peak current.
    peak_current:
        Maximum rush current of one wake-up stage in amperes.
    peak_droop:
        Maximum supply droop at the always-on rail in volts.
    settle_time:
        :meth:`RushCurrentModel.settle_time` at
        :data:`SETTLE_TOLERANCE`, in seconds.
    wakeup_energy:
        Energy drawn from the supply during wake-up in joules.
    """

    peak_time: float
    peak_current: float
    peak_droop: float
    settle_time: float
    wakeup_energy: float


def wake_transient(params: RLCParameters,
                   num_switch_stages: int = 1) -> WakeTransient:
    """The memoised :class:`WakeTransient` of ``params`` woken in
    ``num_switch_stages`` stages.

    A hit costs one dict lookup and builds no model; a miss builds one
    and walks its time grid once (:meth:`RushCurrentModel._walk`).
    """
    key = (params, num_switch_stages)
    transient = _TRANSIENT_CACHE.get(key)
    if transient is None:
        transient = RushCurrentModel(params, num_switch_stages)._walk()
        _TRANSIENT_CACHE[key] = transient
    return transient


def _stage_waveforms(p: RLCParameters
                     ) -> Tuple[Callable[[float], float],
                                Callable[[float], float]]:
    """``i(t)`` and ``di/dt`` of one stage with parameters ``p``, for
    ``t >= 0``.

    The regime and its coefficients are fixed here once; the returned
    functions evaluate the closed-form step response with the same float
    expressions, in the same order, for every ``t``.
    """
    vdd, L = p.vdd, p.inductance
    alpha, omega0 = p.alpha, p.omega0
    regime = p.regime
    exp = math.exp
    if regime is DampingRegime.UNDERDAMPED:
        omega_d = math.sqrt(omega0 ** 2 - alpha ** 2)
        k = vdd / (omega_d * L)
        sin, cos = math.sin, math.cos

        def current(t: float) -> float:
            return k * exp(-alpha * t) * sin(omega_d * t)

        def slope(t: float) -> float:
            return k * exp(-alpha * t) * (
                omega_d * cos(omega_d * t) - alpha * sin(omega_d * t))
    elif regime is DampingRegime.CRITICALLY_DAMPED:
        k = vdd / L

        def current(t: float) -> float:
            return k * t * exp(-alpha * t)

        def slope(t: float) -> float:
            return k * exp(-alpha * t) * (1.0 - alpha * t)
    else:
        root = math.sqrt(alpha ** 2 - omega0 ** 2)
        s1, s2 = -alpha + root, -alpha - root
        k = vdd / (L * (s1 - s2))

        def current(t: float) -> float:
            return k * (exp(s1 * t) - exp(s2 * t))

        def slope(t: float) -> float:
            return k * (s1 * exp(s1 * t) - s2 * exp(s2 * t))
    return current, slope


class RushCurrentModel:
    """Analytic step-response model of the wake-up rush current.

    The stage parameters, the damping regime and its coefficients are
    fixed at construction, so ``params`` and ``num_switch_stages`` are
    read-only: build a new model to change them.  The peak and settle
    figures come from :meth:`transient`, one walk of the time grid
    shared through the process-wide memo of :func:`wake_transient`.

    Parameters
    ----------
    params:
        The electrical parameters of the transient.
    num_switch_stages:
        Number of stages the sleep-transistor network is divided into.
        1 reproduces the naive "turn everything on at once" wake-up;
        larger values model the staggered turn-on mitigation of the
        paper's references [7] and [8] (each stage only recharges a
        fraction of the capacitance through a larger resistance, so the
        peak current and hence the peak droop shrink roughly with the
        number of stages).
    """

    def __init__(self, params: RLCParameters, num_switch_stages: int = 1):
        if num_switch_stages <= 0:
            raise ValueError("number of switch stages must be positive")
        self._params = params
        self._stages = num_switch_stages
        stage = self._stage_params()
        self._horizon = 10.0 * max(2.0 * math.pi / stage.omega0,
                                   1.0 / stage.alpha)
        self._dt = self._horizon / _GRID_STEPS
        self._current, self._slope = _stage_waveforms(stage)

    def __reduce__(self):
        # The waveform closures do not pickle; the constructor rebuilds
        # them from the two inputs.
        return type(self), (self._params, self._stages)

    @property
    def params(self) -> RLCParameters:
        """The electrical parameters of the transient (read-only)."""
        return self._params

    @property
    def num_switch_stages(self) -> int:
        """Number of sleep-transistor turn-on stages (read-only)."""
        return self._stages

    # ------------------------------------------------------------------
    # Single-stage analytic waveforms
    # ------------------------------------------------------------------
    def _stage_params(self) -> RLCParameters:
        """Effective parameters of one wake-up stage.

        With ``s`` stages, each stage recharges ``C / s`` of the domain
        capacitance while only ``1 / s`` of the switches are conducting,
        i.e. through ``s * R`` of switch resistance.
        """
        s = self._stages
        return replace(self._params,
                       resistance=self._params.resistance * s,
                       capacitance=self._params.capacitance / s)

    def current(self, t: float) -> float:
        """Rush current ``i(t)`` in amperes at time ``t`` seconds."""
        if t < 0:
            return 0.0
        return self._current(t)

    def current_derivative(self, t: float) -> float:
        """``di/dt`` in A/s at time ``t`` (used for the L*di/dt droop)."""
        if t < 0:
            return 0.0
        return self._slope(t)

    def droop(self, t: float) -> float:
        """Supply droop (volts) seen at the always-on rail at time ``t``."""
        p = self._params
        return (p.share_resistance * self.current(t)
                + p.share_inductance * self.current_derivative(t))

    # ------------------------------------------------------------------
    # Peak values and waveforms
    # ------------------------------------------------------------------
    def transient(self) -> WakeTransient:
        """The memoised peak/settle figures of this model's transient.

        The first call in a process for given ``(params,
        num_switch_stages)`` walks the time grid once
        (:func:`wake_transient`); later calls, from any model, domain or
        droop injector with equal inputs, read the process-wide memo.
        """
        return wake_transient(self._params, self._stages)

    def peak_current(self) -> float:
        """Maximum rush current of one wake-up stage in amperes."""
        return self.transient().peak_current

    def peak_droop(self) -> float:
        """Maximum supply droop at the always-on rail in volts."""
        return self.transient().peak_droop

    def settle_time(self, tolerance: float = SETTLE_TOLERANCE) -> float:
        """Time for the rush current to fall below ``tolerance`` x peak.

        This is the "power supply become stable" point of the paper's
        wake-up sequence (Fig. 3): restoring state before this point
        would race against the droop.  The default tolerance reads the
        memoised :meth:`transient`; any other one scans from the
        memoised peak.
        """
        transient = self.transient()
        if tolerance == SETTLE_TOLERANCE:
            return transient.settle_time
        return self._settle(transient.peak_time, transient.peak_current,
                            tolerance)

    def waveform(self, duration: float = None, num_points: int = 400
                 ) -> Tuple[List[float], List[float], List[float]]:
        """Sampled ``(times, current, droop)`` waveforms.

        ``duration`` defaults to ten natural periods of the transient.
        """
        if duration is None:
            duration = self._time_horizon()
        if num_points <= 1:
            raise ValueError("num_points must be at least 2")
        times = [duration * i / (num_points - 1) for i in range(num_points)]
        currents = [self.current(t) for t in times]
        droops = [self.droop(t) for t in times]
        return times, currents, droops

    def total_wakeup_charge(self) -> float:
        """Charge (coulombs) delivered over a full wake-up.

        All stages together recharge the full domain capacitance to
        ``vdd`` regardless of staggering; staggering only spreads the
        charge delivery over time.
        """
        return self._params.capacitance * self._params.vdd

    def wakeup_energy(self) -> float:
        """Energy (joules) drawn from the supply during wake-up.

        Charging a capacitance C to Vdd through a resistive path draws
        ``C * Vdd**2`` from the supply (half stored, half dissipated).
        """
        return self._params.capacitance * self._params.vdd ** 2

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _time_horizon(self) -> float:
        """Length (seconds) of the searched grid: ten natural periods or
        ten decay time constants of one stage, whichever is longer."""
        return self._horizon

    def _walk(self) -> WakeTransient:
        """Walk the time grid once and return the transient's figures.

        The grid is ``t = 0.0`` advanced by ``t += dt`` while ``t <=
        horizon``; each sample evaluates ``i(t)`` once and feeds both the
        peak-current search and the droop search.  A peak is the first
        sample of largest magnitude.  ``di/dt`` is evaluated only when
        the rail shares inductance: with ``share_inductance == 0`` its
        term adds a signed zero, which no ``abs`` can see.
        """
        current, slope = self._current, self._slope
        share_r = self._params.share_resistance
        share_l = self._params.share_inductance
        dt, horizon = self._dt, self._horizon
        peak_t = peak_i = peak_v = 0.0
        t = 0.0
        while t <= horizon:
            i = current(t)
            if share_l:
                v = abs(share_r * i + share_l * slope(t))
            else:
                v = abs(share_r * i)
            if v > peak_v:
                peak_v = v
            i = abs(i)
            if i > peak_i:
                peak_t, peak_i = t, i
            t += dt
        return WakeTransient(
            peak_time=peak_t, peak_current=peak_i, peak_droop=peak_v,
            settle_time=self._settle(peak_t, peak_i, SETTLE_TOLERANCE),
            wakeup_energy=self.wakeup_energy())

    def _settle(self, peak_t: float, peak_i: float,
                tolerance: float) -> float:
        """Settle scan from the grid peak ``(peak_t, peak_i)``.

        Steps ``t += dt`` from the peak until the five samples ``t + k *
        dt`` (``k = 0..4``) all lie below ``tolerance * peak_i``; a window
        stops evaluating at its first sample at or above the threshold.
        Returns the horizon if the current never settles within it.
        """
        if peak_i <= 0.0:
            return 0.0
        threshold = tolerance * peak_i
        current, dt, horizon = self._current, self._dt, self._horizon
        t = peak_t
        while t < horizon:
            t += dt
            if all(abs(current(t + k * dt)) < threshold for k in range(5)):
                return t
        return horizon


__all__ = ["DampingRegime", "RLCParameters", "RushCurrentModel",
           "SETTLE_TOLERANCE", "WakeTransient", "wake_transient"]
