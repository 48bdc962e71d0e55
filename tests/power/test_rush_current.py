"""Tests for the RLC rush-current / supply-droop model."""

import math
import pickle

import pytest

from repro.circuit.generators import make_random_state_circuit
from repro.power import domain as domain_module
from repro.power import rush_current
from repro.power.domain import PowerDomain, SwitchNetwork
from repro.power.rush_current import (
    SETTLE_TOLERANCE,
    DampingRegime,
    RLCParameters,
    RushCurrentModel,
    wake_transient,
)


@pytest.fixture
def walks(monkeypatch):
    """Start from an empty transient memo and count grid walks: the
    returned list gets one ``(params, stages)`` entry per walk."""
    monkeypatch.setattr(rush_current, "_TRANSIENT_CACHE", {})
    calls = []
    walk = RushCurrentModel._walk

    def counting(model):
        calls.append((model.params, model.num_switch_stages))
        return walk(model)

    monkeypatch.setattr(RushCurrentModel, "_walk", counting)
    return calls


class TestRLCParameters:
    def test_damping_classification(self):
        underdamped = RLCParameters(resistance=0.5, inductance=1e-9,
                                    capacitance=200e-12)
        assert underdamped.regime is DampingRegime.UNDERDAMPED
        overdamped = RLCParameters(resistance=20.0, inductance=1e-9,
                                   capacitance=200e-12)
        assert overdamped.regime is DampingRegime.OVERDAMPED

    def test_critical_damping(self):
        # zeta == 1 when R == 2 * sqrt(L / C).
        L, C = 1e-9, 100e-12
        R = 2 * math.sqrt(L / C)
        params = RLCParameters(resistance=R, inductance=L, capacitance=C)
        assert params.regime is DampingRegime.CRITICALLY_DAMPED
        assert params.damping_ratio == pytest.approx(1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RLCParameters(vdd=0)
        with pytest.raises(ValueError):
            RLCParameters(resistance=-1)
        with pytest.raises(ValueError):
            RLCParameters(share_resistance=-0.1)


class TestRushCurrentModel:
    def test_current_is_zero_at_time_zero_and_before(self):
        model = RushCurrentModel(RLCParameters())
        assert model.current(0.0) == pytest.approx(0.0)
        assert model.current(-1e-9) == 0.0

    def test_current_rises_then_decays(self):
        model = RushCurrentModel(RLCParameters())
        peak_time_guess = None
        peak = model.peak_current()
        assert peak > 0
        # Long after the transient the current is negligible.
        late = model.current(model._time_horizon())
        assert abs(late) < 0.05 * peak

    def test_peak_current_bounded_by_ideal_step(self):
        params = RLCParameters()
        model = RushCurrentModel(params)
        # The peak of an RLC step response never exceeds Vdd / (omega_d L)
        # and is far above zero for an underdamped circuit.
        assert 0 < model.peak_current() < params.vdd / (
            params.omega0 * params.inductance) * 1.01

    def test_droop_positive_and_bounded(self):
        model = RushCurrentModel(RLCParameters())
        droop = model.peak_droop()
        assert droop > 0

    def test_staggered_wakeup_reduces_peak_current_and_droop(self):
        params = RLCParameters()
        baseline = RushCurrentModel(params, num_switch_stages=1)
        staggered = RushCurrentModel(params, num_switch_stages=4)
        assert staggered.peak_current() < baseline.peak_current()
        assert staggered.peak_droop() < baseline.peak_droop()

    def test_total_charge_independent_of_staggering(self):
        params = RLCParameters()
        one = RushCurrentModel(params, num_switch_stages=1)
        four = RushCurrentModel(params, num_switch_stages=4)
        assert one.total_wakeup_charge() == pytest.approx(
            four.total_wakeup_charge())
        assert one.wakeup_energy() == pytest.approx(four.wakeup_energy())

    def test_settle_time_positive_and_reasonable(self):
        model = RushCurrentModel(RLCParameters())
        settle = model.settle_time()
        assert settle > 0
        assert settle <= model._time_horizon()

    def test_waveform_shapes(self):
        model = RushCurrentModel(RLCParameters())
        times, currents, droops = model.waveform(num_points=100)
        assert len(times) == len(currents) == len(droops) == 100
        assert times[0] == 0.0
        assert max(currents) == pytest.approx(model.peak_current(), rel=0.1)

    def test_waveform_rejects_bad_points(self):
        with pytest.raises(ValueError):
            RushCurrentModel(RLCParameters()).waveform(num_points=1)

    def test_invalid_stage_count(self):
        with pytest.raises(ValueError):
            RushCurrentModel(RLCParameters(), num_switch_stages=0)

    def test_overdamped_waveform_is_monotone_after_peak(self):
        params = RLCParameters(resistance=50.0)
        model = RushCurrentModel(params)
        assert params.regime is DampingRegime.OVERDAMPED
        times, currents, _ = model.waveform(num_points=400)
        peak_index = currents.index(max(currents))
        tail = currents[peak_index:]
        assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))

    def test_derivative_sign_change_at_peak(self):
        model = RushCurrentModel(RLCParameters())
        # di/dt is positive at t=0+ and negative well after the peak.
        assert model.current_derivative(1e-12) > 0


class TestTransientMemo:
    RLC = RLCParameters(resistance=2.25, capacitance=1040 * 0.2e-12)

    def _wake(self, domain):
        domain.enter_sleep()
        return domain.wake_up()

    def test_memo_is_one_module_level_cache_dict(self):
        # perfbench's clear_memos empties every ``_*_CACHE`` dict of a
        # ``repro.`` module before timing set-up; the transient memo
        # must stay one of them, and the only one.
        memo = vars(rush_current)["_TRANSIENT_CACHE"]
        assert type(memo) is dict
        assert rush_current.__name__.startswith("repro.")
        assert not hasattr(domain_module, "_TRANSIENT_CACHE")

    def test_equal_domains_walk_the_grid_once(self, walks):
        switches = SwitchNetwork(stages=2)
        domains = [PowerDomain(make_random_state_circuit(16, seed=seed),
                               switches=switches, rlc=self.RLC)
                   for seed in range(4)]
        events = [self._wake(domain) for domain in domains]
        events += [self._wake(domain) for domain in domains]
        assert walks == [(self.RLC, 2)]
        assert len({(e.peak_current_a, e.peak_droop_v, e.settle_time_s,
                     e.wakeup_energy_j) for e in events}) == 1

    def test_default_domains_of_one_size_share_a_walk(self, walks):
        for seed in range(3):
            self._wake(PowerDomain(make_random_state_circuit(24, seed=seed)))
        assert len(walks) == 1

    def test_clearing_the_memo_walks_again(self, walks):
        domain = PowerDomain(make_random_state_circuit(16, seed=1),
                             rlc=self.RLC)
        first = self._wake(domain)
        rush_current._TRANSIENT_CACHE.clear()
        second = self._wake(domain)
        assert len(walks) == 2
        assert first == second

    def test_models_domains_and_lookups_share_the_memo(self, walks):
        model = RushCurrentModel(self.RLC, num_switch_stages=4)
        peak = model.peak_current()
        again = RushCurrentModel(self.RLC, num_switch_stages=4)
        assert again.settle_time() == model.settle_time()
        assert again.peak_droop() == model.peak_droop()
        assert wake_transient(self.RLC, 4).peak_current == peak
        domain = PowerDomain(make_random_state_circuit(16, seed=1),
                             switches=SwitchNetwork(stages=4),
                             rlc=self.RLC)
        assert self._wake(domain).peak_current_a == peak
        assert walks == [(self.RLC, 4)]

    def test_other_settle_tolerance_reuses_the_walk(self, walks):
        model = RushCurrentModel(self.RLC)
        loose, tight = model.settle_time(0.5), model.settle_time(1e-3)
        assert len(walks) == 1
        assert 0.0 < loose < model.settle_time() < tight
        assert model.settle_time(SETTLE_TOLERANCE) == \
            wake_transient(self.RLC).settle_time

    def test_inputs_are_read_only(self):
        model = RushCurrentModel(self.RLC, num_switch_stages=2)
        with pytest.raises(AttributeError):
            model.params = RLCParameters()
        with pytest.raises(AttributeError):
            model.num_switch_stages = 4
        assert (model.params, model.num_switch_stages) == (self.RLC, 2)

    def test_model_pickles(self):
        model = RushCurrentModel(self.RLC, num_switch_stages=2)
        copy = pickle.loads(pickle.dumps(model))
        assert (copy.params, copy.num_switch_stages) == (self.RLC, 2)
        assert copy.current(1e-10) == model.current(1e-10)
