"""The wake-transient walk stops at the stage's envelope.

``RushCurrentModel._walk`` stops once a decreasing bound on ``|i(t)|``
and on the droop lies below both running peaks.  Its figures must be
those of a walk over every sample of the grid, bit for bit, in every
damping regime, with and without shared inductance; the reference
below is that full-horizon walk.
"""

import math

import pytest

from repro.circuit.fifo import SyncFIFO
from repro.power.domain import PowerDomain
from repro.power.rush_current import (
    DampingRegime,
    RLCParameters,
    RushCurrentModel,
)

#: Samples of a full grid walk (``t = 0`` plus 4 000 steps).
GRID_SAMPLES = 4001

L, C = 1.0e-9, 200.0e-12
REGIMES = {
    "underdamped": dict(resistance=2.0),
    "critically_damped": dict(resistance=2.0 * math.sqrt(L / C)),
    "overdamped": dict(resistance=20.0),
    # The rise ends within the first step: the peak is the first
    # sample after t = 0.
    "heavily_overdamped": dict(resistance=2000.0),
}
SHARES = {
    "R": dict(share_resistance=0.5, share_inductance=0.0),
    "RL": dict(share_resistance=0.5, share_inductance=1e-10),
    "L": dict(share_resistance=0.0, share_inductance=1e-10),
    "none": dict(share_resistance=0.0, share_inductance=0.0),
}


def full_walk(model):
    """``(peak_time, peak_current, peak_droop)`` over every grid sample,
    with the walk's own expressions and first-peak rule."""
    waveforms, params = model._waveforms, model.params
    share_r, share_l = params.share_resistance, params.share_inductance
    peak_t = peak_i = peak_v = 0.0
    t = 0.0
    while t <= model._horizon:
        i = waveforms.current(t)
        if share_l:
            v = abs(share_r * i + share_l * waveforms.slope(t))
        else:
            v = abs(share_r * i)
        if v > peak_v:
            peak_v = v
        if abs(i) > peak_i:
            peak_t, peak_i = t, abs(i)
        t += model._dt
    return peak_t, peak_i, peak_v


def counted_walk(model):
    """The model's walk and the number of current samples it took (the
    settle scan, which starts from the walk's peak, is left out)."""
    samples = []
    waveforms = model._waveforms
    current = waveforms.current

    def counting(t):
        samples.append(t)
        return current(t)

    model._waveforms = waveforms._replace(current=counting)
    model._settle = lambda *args: 0.0
    transient = model._walk()
    return transient, len(samples)


@pytest.mark.parametrize("share", SHARES)
@pytest.mark.parametrize("stages", (1, 3))
@pytest.mark.parametrize("regime", REGIMES)
def test_early_exit_equals_the_full_horizon(regime, stages, share):
    params = RLCParameters(inductance=L, capacitance=C, **REGIMES[regime],
                           **SHARES[share])
    model = RushCurrentModel(params, num_switch_stages=stages)
    if regime == "critically_damped" and stages == 1:
        assert model._stage_params().regime is \
            DampingRegime.CRITICALLY_DAMPED
    expected = full_walk(RushCurrentModel(params, stages))
    transient, samples = counted_walk(model)
    got = (transient.peak_time, transient.peak_current,
           transient.peak_droop)
    assert [float.hex(x) for x in got] == [float.hex(x) for x in expected]
    assert samples < GRID_SAMPLES


def test_the_paper_configuration_stops_in_the_first_tenth():
    """The paper's FIFO domain is underdamped: its peak lies in the
    first period, and the walk stops a few hundred samples in."""
    domain = PowerDomain(SyncFIFO(32, 32))
    model = RushCurrentModel(domain.rlc, domain.switches.stages)
    assert model._stage_params().regime is DampingRegime.UNDERDAMPED
    transient, samples = counted_walk(model)
    assert samples < GRID_SAMPLES // 10
    assert (transient.peak_time, transient.peak_current,
            transient.peak_droop) == full_walk(model)
