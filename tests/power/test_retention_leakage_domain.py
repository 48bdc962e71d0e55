"""Tests for the retention-upset model, leakage model and power domain."""

import random
import re

import pytest

from repro.circuit.fifo import SyncFIFO
from repro.circuit.flipflop import RetentionFlipFlop
from repro.circuit.generators import make_counter, make_random_state_circuit
from repro.power.domain import DomainState, PowerDomain, SwitchNetwork
from repro.power.leakage import LeakageModel
from repro.power.retention import RetentionUpsetModel
from repro.power.rush_current import RLCParameters


class TestRetentionUpsetModel:
    def test_probability_monotone_in_droop(self):
        model = RetentionUpsetModel(nominal_margin=0.35, slope=0.05)
        probabilities = [model.upset_probability(d)
                         for d in (0.0, 0.1, 0.3, 0.35, 0.5, 1.0)]
        assert probabilities == sorted(probabilities)
        assert probabilities[0] == 0.0
        assert probabilities[-1] > 0.99

    def test_half_probability_at_margin(self):
        model = RetentionUpsetModel(nominal_margin=0.4, slope=0.05)
        assert model.upset_probability(0.4) == pytest.approx(0.5)

    def test_margin_scale_shifts_threshold(self):
        model = RetentionUpsetModel(nominal_margin=0.4, slope=0.05)
        weak = model.upset_probability(0.4, margin_scale=0.8)
        strong = model.upset_probability(0.4, margin_scale=1.2)
        assert weak > 0.5 > strong

    def test_sample_upsets_corrupts_latches(self):
        model = RetentionUpsetModel(nominal_margin=0.3, slope=0.01, seed=3)
        flops = [RetentionFlipFlop(name=f"f{i}", init=1) for i in range(50)]
        for ff in flops:
            ff.retain()
        flipped = model.sample_upsets(flops, droop=1.0)  # far above margin
        assert len(flipped) == 50
        assert all(ff.retention_value == 0 for ff in flops)

    def test_sample_upsets_no_droop_no_flips(self):
        model = RetentionUpsetModel(seed=3)
        flops = [RetentionFlipFlop(init=1) for _ in range(20)]
        for ff in flops:
            ff.retain()
        assert model.sample_upsets(flops, droop=0.0) == []

    def test_expected_upsets(self):
        model = RetentionUpsetModel(nominal_margin=0.3, slope=0.01)
        assert model.expected_upsets(100, droop=1.0) == pytest.approx(100, rel=1e-3)
        assert model.expected_upsets(100, droop=0.0) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RetentionUpsetModel(nominal_margin=0)
        with pytest.raises(ValueError):
            RetentionUpsetModel(slope=0)


class TestLeakageModel:
    def test_sleep_leakage_much_smaller_than_active(self):
        fifo = SyncFIFO(16, 16)
        report = LeakageModel().report(fifo.netlist)
        assert report.sleep_leakage < report.active_leakage
        # Default fractions model the paper's ~95% reduction.
        assert report.reduction == pytest.approx(0.95, abs=0.02)

    def test_savings_scale_with_sleep_duration(self):
        fifo = SyncFIFO(8, 8)
        report = LeakageModel().report(fifo.netlist)
        assert report.savings(2.0) == pytest.approx(2 * report.savings(1.0))

    def test_break_even_time_positive(self):
        fifo = SyncFIFO(8, 8)
        model = LeakageModel()
        break_even = model.break_even_sleep_time(fifo.netlist,
                                                 overhead_energy_j=1e-9)
        assert break_even > 0

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            LeakageModel(switch_leakage_fraction=1.5)
        with pytest.raises(ValueError):
            LeakageModel(retention_leakage_fraction=-0.1)


class TestSwitchNetwork:
    def test_effective_resistance(self):
        network = SwitchNetwork(num_switches=100,
                                on_resistance_per_switch=100.0)
        assert network.effective_resistance == pytest.approx(1.0)

    def test_leakage_total(self):
        network = SwitchNetwork(num_switches=10, leakage_per_switch_nw=2.0)
        assert network.total_leakage_w == pytest.approx(20e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            SwitchNetwork(num_switches=0)
        with pytest.raises(ValueError):
            SwitchNetwork(num_switches=4, stages=5)


class TestPowerDomain:
    def test_sleep_wake_cycle_restores_state(self):
        counter = make_counter(12)
        for _ in range(100):
            counter.tick()
        domain = PowerDomain(counter)
        domain.enter_sleep()
        assert domain.is_asleep
        assert domain.state is DomainState.SLEEP
        event = domain.wake_up()
        assert not domain.is_asleep
        assert counter.value == 100
        assert event.peak_current_a > 0
        assert event.num_upsets == 0

    def test_double_sleep_or_wake_rejected(self):
        domain = PowerDomain(make_counter(4))
        domain.enter_sleep()
        with pytest.raises(RuntimeError):
            domain.enter_sleep()
        domain.wake_up()
        with pytest.raises(RuntimeError):
            domain.wake_up()

    def test_wake_history_accumulates(self):
        domain = PowerDomain(make_counter(4))
        for _ in range(3):
            domain.enter_sleep()
            domain.wake_up()
        assert len(domain.wake_history) == 3

    def test_upset_model_corrupts_state_on_wake(self):
        circuit = make_random_state_circuit(64, seed=9)
        # Margin far below the droop so every latch flips.
        upset = RetentionUpsetModel(nominal_margin=1e-4, slope=1e-5, seed=1)
        rlc = RLCParameters()
        domain = PowerDomain(circuit, rlc=rlc, upset_model=upset)
        before = circuit.snapshot()
        domain.enter_sleep()
        event = domain.wake_up()
        after = circuit.snapshot()
        assert event.num_upsets > 0
        assert before.hamming_distance(after) == event.num_upsets

    def test_staggered_switches_reduce_droop(self):
        circuit_a = make_random_state_circuit(32, seed=2)
        circuit_b = make_random_state_circuit(32, seed=2)
        rlc = RLCParameters()
        abrupt = PowerDomain(circuit_a, rlc=rlc,
                             switches=SwitchNetwork(stages=1))
        gentle = PowerDomain(circuit_b, rlc=rlc,
                             switches=SwitchNetwork(stages=8))
        abrupt.enter_sleep()
        gentle.enter_sleep()
        event_abrupt = abrupt.wake_up()
        event_gentle = gentle.wake_up()
        assert event_gentle.peak_droop_v < event_abrupt.peak_droop_v


class TestBulkRetentionGating:
    """``enter_sleep``/``wake_up`` gate every register in one loop per
    step; the result must be the per-flop method walk's, flop for flop."""

    @staticmethod
    def _scrambled_circuit(seed):
        rng = random.Random(seed)
        circuit = make_random_state_circuit(200, seed=seed)
        for flop in circuit.registers:
            flop.force(rng.choice((0, 1, None)))
            flop.force_retention(rng.choice((0, 1, None)))
            flop.retention_margin = rng.uniform(0.5, 1.5)
        return circuit

    @staticmethod
    def _flop_states(circuit):
        return [(flop.q, flop.retention_value, flop.power)
                for flop in circuit.registers]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("with_upsets", (False, True))
    def test_domain_matches_per_flop_walk(self, seed, with_upsets):
        def upset_model():
            # A slope this wide flips about half of the latches.
            return (RetentionUpsetModel(nominal_margin=0.3, slope=1.0,
                                        seed=seed)
                    if with_upsets else None)

        bulk = self._scrambled_circuit(seed)
        walked = self._scrambled_circuit(seed)
        assert self._flop_states(bulk) == self._flop_states(walked)
        domain = PowerDomain(bulk, rlc=RLCParameters(),
                             upset_model=upset_model())
        model = upset_model()

        domain.enter_sleep()
        for flop in walked.registers:
            flop.retain()
        for flop in walked.registers:
            flop.power_off()
        assert self._flop_states(bulk) == self._flop_states(walked)

        event = domain.wake_up()
        upsets = (model.sample_upsets(walked.registers, event.peak_droop_v)
                  if with_upsets else [])
        for flop in walked.registers:
            flop.power_on()
        for flop in walked.registers:
            flop.restore()
        assert list(event.upset_indices) == upsets
        assert bool(upsets) == with_upsets
        assert self._flop_states(bulk) == self._flop_states(walked)

    @staticmethod
    def _scrambled_design(seed):
        """76 registers in 10 chains of 8: 4 scan padding cells.  Masters
        and latches (padding included) hold a mix of 0, 1 and X."""
        from repro.core.protected import ProtectedDesign

        circuit = make_random_state_circuit(76, seed=seed)
        design = ProtectedDesign(circuit, codes="hamming(7,4)",
                                 num_chains=10, engine="simd")
        assert design.padding_cells == 4
        rng = random.Random(seed)
        for flop in list(circuit.registers) + design._padding:
            flop.force(rng.choice((0, 1, None)))
            flop.force_retention(rng.choice((0, 1, None)))
        return design

    @staticmethod
    def _design_flop_states(design):
        return [(flop.q, flop.retention_value, flop.power)
                for flop in list(design.circuit.registers) + design._padding]

    @pytest.mark.parametrize("seed", range(4))
    def test_summary_batch_matches_four_walks(self, seed):
        """A summary batch's one walk leaves every flop -- registers and
        padding -- as the object path's four gating walks do, and the
        domain and controller still record one cycle per batch."""
        np = pytest.importorskip("numpy")
        from repro.faults.batch import sample_pattern_batch

        summary = self._scrambled_design(seed)
        walked = self._scrambled_design(seed)
        assert (self._design_flop_states(summary)
                == self._design_flop_states(walked))
        rng = np.random.default_rng(seed)
        logs = []
        for batch in range(2):
            log_before = len(summary.controller.transition_log)
            flips = sample_pattern_batch("single", summary.num_chains,
                                         summary.chain_length, 64, rng)
            summary.sleep_wake_cycle_batch_summary(
                summary._pack_chains(), flips, 64)
            walked._sleep_gate_off()
            walked._wake_gate_on()
            assert (self._design_flop_states(summary)
                    == self._design_flop_states(walked))
            assert len(summary.domain.wake_history) == batch + 1
            assert summary.domain.state is DomainState.ACTIVE
            assert summary.controller.sleep_cycles_completed == batch + 1
            logs.append(summary.controller.transition_log[log_before:])
        assert logs[0] == logs[1]
        assert [t.signal for t in logs[0]][:5] == [
            "sleep=1", "encode_done", "sleep_sequence_done", "sleep=0",
            "wake_sequence_done"]

    def test_summary_batch_powered_off_register_message(self):
        """A powered-off register fails a summary batch with
        ``retain``'s message, before the controller or the domain
        leaves ACTIVE."""
        np = pytest.importorskip("numpy")
        from repro.faults.batch import sample_pattern_batch

        design = self._scrambled_design(0)
        victim = design.circuit.registers[30]
        victim.power_off()
        flips = sample_pattern_batch("single", design.num_chains,
                                     design.chain_length, 8,
                                     np.random.default_rng(0))
        message = (f"cannot retain {victim.name!r}: "
                   f"master is powered off")
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            design.sleep_wake_cycle_batch_summary(design._pack_chains(),
                                                  flips, 8)
        assert design.domain.state is DomainState.ACTIVE
        assert design.domain.wake_history == []
        assert design.controller.transition_log == ()

    def test_virtual_wake_requires_no_upset_model(self):
        domain = PowerDomain(make_random_state_circuit(8, seed=2),
                             upset_model=RetentionUpsetModel(seed=1))
        domain.enter_sleep(virtual=True)
        with pytest.raises(ValueError, match="upset_model=None"):
            domain.wake_up(virtual=True)

    @pytest.mark.parametrize("action", ("retain", "restore"))
    def test_powered_off_register_message_unchanged(self, action):
        circuit = make_random_state_circuit(5, seed=1)
        registers = circuit.registers
        registers[2].power_off()
        message = (f"cannot {action} {registers[2].name!r}: "
                   f"master is powered off")
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            getattr(registers[2], action)()
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            getattr(circuit, f"{action}_all")()
