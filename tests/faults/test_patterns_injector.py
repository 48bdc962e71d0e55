"""Tests for error patterns and the scan-stream error injector."""

import random

import pytest

from repro.campaigns.stats import InjectionRecord, StreamingCampaignStats
from repro.circuit.flipflop import ScanFlipFlop
from repro.circuit.generators import make_random_state_circuit
from repro.circuit.scan import ScanChain, insert_scan_chains
from repro.faults.droop import DroopFaultInjector
from repro.faults.injector import ScanErrorInjector
from repro.faults.patterns import (
    ErrorPattern,
    burst_error_pattern,
    multi_error_pattern,
    random_pattern,
    single_error_pattern,
)
from repro.power import rush_current
from repro.power.retention import RetentionUpsetModel
from repro.power.rush_current import RLCParameters, RushCurrentModel


class TestPatterns:
    def test_single_error_pattern(self):
        rng = random.Random(0)
        pattern = single_error_pattern(8, 16, rng)
        assert pattern.num_errors == 1
        assert pattern.kind == "single"
        (chain, position), = pattern.locations
        assert 0 <= chain < 8 and 0 <= position < 16

    def test_multi_error_pattern_distinct_locations(self):
        rng = random.Random(1)
        pattern = multi_error_pattern(8, 16, 10, rng)
        assert pattern.num_errors == 10
        assert len(pattern.locations) == 10

    def test_multi_error_pattern_limits(self):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            multi_error_pattern(2, 2, 5, rng)
        with pytest.raises(ValueError):
            multi_error_pattern(2, 2, 0, rng)

    def test_burst_pattern_is_clustered(self):
        rng = random.Random(2)
        pattern = burst_error_pattern(20, 20, 6, rng)
        assert pattern.num_errors == 6
        chains = [c for c, _ in pattern.locations]
        positions = [p for _, p in pattern.locations]
        # The burst hits adjacent chains at the same scan position.
        assert max(chains) - min(chains) <= 5
        assert max(positions) - min(positions) <= 1

    def test_random_pattern_probability_extremes(self):
        rng = random.Random(3)
        assert random_pattern(4, 4, 0.0, rng).num_errors == 0
        assert random_pattern(4, 4, 1.0, rng).num_errors == 16

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            ErrorPattern(locations=frozenset({(-1, 0)}))
        with pytest.raises(ValueError):
            single_error_pattern(0, 4)
        with pytest.raises(ValueError):
            burst_error_pattern(2, 2, 0)
        with pytest.raises(ValueError):
            random_pattern(2, 2, 1.5)

    def test_pattern_offset_and_chains_touched(self):
        pattern = ErrorPattern(locations=frozenset({(0, 1), (2, 3)}))
        shifted = pattern.offset(chain_offset=1, position_offset=2)
        assert (1, 3) in shifted.locations and (3, 5) in shifted.locations
        assert pattern.chains_touched() == frozenset({0, 2})


def _make_chains(num_registers=64, num_chains=8, seed=4):
    circuit = make_random_state_circuit(num_registers, seed=seed)
    return circuit, insert_scan_chains(circuit, num_chains)


class TestScanErrorInjector:
    def test_single_injection_via_circulation_flips_exactly_one_bit(self):
        circuit, chains = _make_chains()
        injector = ScanErrorInjector(chains)
        before = circuit.snapshot()
        pattern = ErrorPattern(locations=frozenset({(2, 5)}), kind="single")
        plan = injector.inject(pattern)
        after = circuit.snapshot()
        assert plan.num_flipped == 1
        assert before.hamming_distance(after) == 1
        # The flipped bit is the targeted one.
        assert chains[2].flops[5].q != before.values[
            [id(f) for f in circuit.registers].index(id(chains[2].flops[5]))]

    def test_injection_preserves_all_other_bits(self):
        circuit, chains = _make_chains()
        injector = ScanErrorInjector(chains)
        before = circuit.snapshot()
        pattern = multi_error_pattern(8, 8, 5, random.Random(5))
        injector.inject(pattern)
        after = circuit.snapshot()
        assert before.hamming_distance(after) == 5

    def test_inject_direct_equivalent_to_circulating(self):
        circuit_a, chains_a = _make_chains(seed=6)
        circuit_b, chains_b = _make_chains(seed=6)
        pattern = multi_error_pattern(8, 8, 4, random.Random(6))
        ScanErrorInjector(chains_a).inject(pattern)
        ScanErrorInjector(chains_b).inject_direct(pattern)
        assert circuit_a.snapshot().values == circuit_b.snapshot().values

    def test_inject_direct_skips_unknown_bits(self):
        _, chains = _make_chains()
        chains[0].flops[1].force(None)
        before = chains[0].read_state()
        pattern = ErrorPattern(locations=frozenset({(0, 0), (0, 1)}))
        plan = ScanErrorInjector(chains).inject_direct(pattern)
        assert plan.flipped == ((0, 0),)
        after = chains[0].read_state()
        assert after[0] == before[0] ^ 1
        assert after[1:] == before[1:]

    def test_inject_retention_only_affects_restored_state(self):
        circuit, chains = _make_chains(seed=7)
        injector = ScanErrorInjector(chains)
        before = circuit.snapshot()
        circuit.retain_all()
        circuit.power_off_all()
        pattern = ErrorPattern(locations=frozenset({(1, 2), (3, 4)}))
        injector.inject_retention(pattern)
        circuit.power_on_all()
        circuit.restore_all()
        after = circuit.snapshot()
        assert before.hamming_distance(after) == 2

    def test_inject_retention_needs_retention_flops(self):
        """A chain of plain scan flops has no retention latch: the
        injection refuses it by name and flips nothing."""
        flops = [ScanFlipFlop(f"plain_{i}", init=i & 1) for i in range(4)]
        injector = ScanErrorInjector([ScanChain(flops, name="plain")])
        before = [flop.q for flop in flops]
        pattern = ErrorPattern(locations=frozenset({(0, 2)}))
        with pytest.raises(TypeError, match=r"^flop 'plain_2' has no "
                           r"retention latch to corrupt$"):
            injector.inject_retention(pattern)
        assert [flop.q for flop in flops] == before
        assert injector.history == []

    def test_row_and_column_vectors(self):
        _, chains = _make_chains()
        injector = ScanErrorInjector(chains)
        pattern = ErrorPattern(locations=frozenset({(2, 5), (4, 1)}))
        plan = injector.inject_direct(pattern)
        assert plan.row_vector[2] == 1 and plan.row_vector[4] == 1
        assert sum(plan.row_vector) == 2
        assert plan.column_vector[5] == 1 and plan.column_vector[1] == 1

    def test_lfsr_driven_random_patterns(self):
        _, chains = _make_chains()
        injector = ScanErrorInjector(chains, lfsr_seed=0xBEEF)
        single = injector.random_single_pattern()
        assert single.num_errors == 1
        multi = injector.random_multi_pattern(6)
        assert multi.num_errors == 6
        with pytest.raises(ValueError):
            injector.random_multi_pattern(0)

    def test_out_of_range_location_rejected(self):
        _, chains = _make_chains()
        injector = ScanErrorInjector(chains)
        with pytest.raises(ValueError):
            injector.inject_direct(
                ErrorPattern(locations=frozenset({(99, 0)})))

    def test_unequal_chain_lengths_rejected(self):
        circuit = make_random_state_circuit(10, seed=1)
        chains = insert_scan_chains(circuit, 3)   # lengths 4, 3, 3
        with pytest.raises(ValueError):
            ScanErrorInjector(chains)

    def test_history_recorded(self):
        _, chains = _make_chains()
        injector = ScanErrorInjector(chains)
        injector.inject_direct(ErrorPattern(locations=frozenset({(0, 0)})))
        injector.inject_direct(ErrorPattern(locations=frozenset({(1, 1)})))
        assert len(injector.history) == 2


class TestDroopFaultInjector:
    def test_high_margin_means_no_upsets(self):
        injector = DroopFaultInjector(
            upset_model=RetentionUpsetModel(nominal_margin=100.0, seed=1))
        circuit = make_random_state_circuit(32, seed=1)
        for ff in circuit.registers:
            ff.retain()
        pattern = injector.inject(circuit.registers, chain_length=8)
        assert pattern.num_errors == 0

    def test_tiny_margin_means_everything_flips(self):
        injector = DroopFaultInjector(
            upset_model=RetentionUpsetModel(nominal_margin=1e-6, slope=1e-7,
                                            seed=1))
        circuit = make_random_state_circuit(32, seed=1)
        for ff in circuit.registers:
            ff.retain()
        pattern = injector.inject(circuit.registers, chain_length=8)
        assert pattern.num_errors == 32
        assert pattern.kind == "droop"

    def test_staggering_lowers_expected_upsets(self):
        model_args = dict(nominal_margin=0.2, slope=0.05)
        abrupt = DroopFaultInjector(
            upset_model=RetentionUpsetModel(**model_args, seed=1),
            num_switch_stages=1)
        gentle = DroopFaultInjector(
            upset_model=RetentionUpsetModel(**model_args, seed=1),
            num_switch_stages=8)
        assert gentle.peak_droop() < abrupt.peak_droop()
        assert gentle.expected_upsets(1000) <= abrupt.expected_upsets(1000)

    #: ``inject`` on 24 retained flops (``make_random_state_circuit(24,
    #: seed=3)``, chains of 8), three calls from one seeded model, as the
    #: injector produced them when it ran a grid search per call.
    PINNED_PATTERNS = [
        [(0, 0), (0, 2), (0, 6), (1, 0), (1, 2), (2, 1), (2, 2), (2, 4),
         (2, 7)],
        [(0, 0), (0, 4), (0, 5), (0, 6), (1, 0), (1, 2), (2, 1), (2, 2),
         (2, 3), (2, 4), (2, 6)],
        [(0, 6), (0, 7), (1, 4), (2, 0), (2, 3), (2, 7)],
    ]

    @staticmethod
    def _pinned_injector():
        return DroopFaultInjector(
            rlc=RLCParameters(share_inductance=1e-10),
            upset_model=RetentionUpsetModel(nominal_margin=0.15,
                                            slope=0.03, seed=2010),
            num_switch_stages=2)

    def test_fixed_seed_patterns_are_pinned(self, monkeypatch):
        monkeypatch.setattr(rush_current, "_TRANSIENT_CACHE", {})
        injector = self._pinned_injector()
        circuit = make_random_state_circuit(24, seed=3)
        for ff in circuit.registers:
            ff.retain()
        assert float.hex(injector.peak_droop()) == "0x1.feb5c95e5c976p-4"
        patterns = [sorted(injector.inject(circuit.registers,
                                           chain_length=8).locations)
                    for _ in range(3)]
        assert patterns == self.PINNED_PATTERNS
        assert float.hex(injector.expected_upsets(1000)) == \
            "0x1.2cba88580f7b4p+8"

    def test_repeated_injection_walks_the_grid_once(self, monkeypatch):
        monkeypatch.setattr(rush_current, "_TRANSIENT_CACHE", {})
        walks = []
        walk = RushCurrentModel._walk

        def counting(model):
            walks.append(model.num_switch_stages)
            return walk(model)

        monkeypatch.setattr(RushCurrentModel, "_walk", counting)
        injector = self._pinned_injector()
        circuit = make_random_state_circuit(24, seed=3)
        for ff in circuit.registers:
            ff.retain()
        for _ in range(50):
            injector.inject(circuit.registers, chain_length=8)
        injector.expected_upsets(1000)
        assert walks == [2]
        # A reassigned stage count takes effect: it is a new memo key.
        injector.num_switch_stages = 4
        assert injector.peak_droop() < self._pinned_injector().peak_droop()
        assert walks == [2, 4]


class TestCampaignStats:
    def test_aggregation(self):
        stats = StreamingCampaignStats()
        stats.add(InjectionRecord(injected=1, detected=True, corrected=True,
                                  state_intact=True))
        stats.add(InjectionRecord(injected=3, detected=True, corrected=False,
                                  state_intact=False, residual_errors=3))
        stats.add(InjectionRecord(injected=0, detected=False, corrected=False,
                                  state_intact=True))
        assert stats.num_sequences == 3
        assert stats.total_injected == 4
        assert stats.sequences_with_errors == 2
        assert stats.detection_rate() == 1.0
        assert stats.correction_rate() == 0.5
        assert stats.bit_correction_rate() == pytest.approx(0.25)
        assert stats.silent_corruptions == 0
        assert "detection rate" in stats.summary()

    def test_silent_corruption_detection(self):
        record = InjectionRecord(injected=2, detected=False, corrected=False,
                                 state_intact=False, residual_errors=2)
        assert record.silent_corruption
        stats = StreamingCampaignStats()
        stats.add(record)
        assert stats.silent_corruptions == 1

    def test_empty_campaign_rates(self):
        stats = StreamingCampaignStats()
        assert stats.detection_rate() == 1.0
        assert stats.correction_rate() == 1.0
        assert stats.bit_correction_rate() == 1.0


class TestBurstWindowGeometry:
    """Boundary geometry of the Fig. 7(b) burst window.

    The window spans ``min(num_chains, burst_size)`` adjacent chains by
    ``ceil(burst_size / window_chains)`` adjacent positions; every
    placement must stay inside the scan array for the corner sizes.
    """

    def _assert_in_bounds(self, pattern, num_chains, chain_length,
                          burst_size):
        assert pattern.num_errors == burst_size
        for chain, position in pattern.locations:
            assert 0 <= chain < num_chains
            assert 0 <= position < chain_length

    @pytest.mark.parametrize("num_chains,chain_length,burst_size", [
        (1, 1, 1),        # minimal array, minimal burst
        (1, 16, 5),       # single chain: window is purely positional
        (16, 1, 5),       # single-bit chains: window is purely chain-wise
        (8, 4, 8),        # burst_size == num_chains exactly
        (8, 4, 9),        # just past the chain count (2-position window)
        (3, 2, 5),        # window cells (3x2=6) barely fit the burst
        (4, 4, 16),       # burst fills the entire scan array
        (5, 3, 15),       # full array, non-square
        (80, 13, 4),      # the paper's FPGA configuration
    ])
    def test_burst_fits_at_boundary_sizes(self, num_chains, chain_length,
                                          burst_size):
        rng = random.Random(20100308)
        for _ in range(25):
            pattern = burst_error_pattern(num_chains, chain_length,
                                          burst_size, rng)
            self._assert_in_bounds(pattern, num_chains, chain_length,
                                   burst_size)

    def test_burst_window_is_tight(self):
        # All errors land within the adjacent-chain/adjacent-position
        # window, so chain spread <= burst size and position spread <=
        # ceil(burst / window_chains) -- the "closely clustered" shape.
        rng = random.Random(9)
        num_chains, chain_length, burst_size = 16, 8, 6
        for _ in range(50):
            pattern = burst_error_pattern(num_chains, chain_length,
                                          burst_size, rng)
            chains = [c for c, _ in pattern.locations]
            positions = [p for _, p in pattern.locations]
            assert max(chains) - min(chains) < burst_size
            assert max(positions) - min(positions) < 1  # 6 chains x 1 pos
