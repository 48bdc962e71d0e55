"""Tests for the ProtectedDesign integration object."""

import random

import pytest

from repro.circuit.fifo import SyncFIFO
from repro.circuit.generators import make_counter, make_random_state_circuit
from repro.codes.hamming import HammingCode
from repro.core.controller import ControllerState, ErrorCode
from repro.campaigns.tasks import FIFOValidationCampaignTask
from repro.core.protected import ProtectedDesign
from repro.faults.injector import INJECT_PHASES
from repro.faults.patterns import (
    ErrorPattern,
    burst_error_pattern,
    single_error_pattern,
)
from repro.power.retention import RetentionUpsetModel


@pytest.fixture
def small_design():
    circuit = make_random_state_circuit(128, seed=11)
    return ProtectedDesign(circuit, codes=["hamming(7,4)", "crc16"],
                           num_chains=16)


class TestConstruction:
    def test_geometry_matches_scan_config(self, small_design):
        assert small_design.num_chains == 16
        assert small_design.chain_length == 8
        assert small_design.padding_cells == 0
        assert small_design.config.num_monitor_blocks == 4

    def test_codes_resolved_from_strings_and_objects(self):
        circuit = make_random_state_circuit(64, seed=1)
        design = ProtectedDesign(circuit, codes=HammingCode(15, 11),
                                 num_chains=11)
        assert design.codes[0].n == 15

    def test_padding_added_for_uneven_split(self):
        circuit = make_random_state_circuit(100, seed=2)
        design = ProtectedDesign(circuit, codes="crc16", num_chains=8)
        assert design.chain_length == 13
        assert design.padding_cells == 4
        # All chains have the same length after padding.
        assert {len(c) for c in design.chains} == {13}

    def test_invalid_code_spec_rejected(self):
        circuit = make_random_state_circuit(16, seed=3)
        with pytest.raises(TypeError):
            ProtectedDesign(circuit, codes=42, num_chains=4)
        with pytest.raises(ValueError):
            ProtectedDesign(circuit, codes=[], num_chains=4)


class TestSleepWakeCycle:
    def test_clean_cycle_preserves_state_and_reports_nothing(self,
                                                             small_design):
        before = small_design.circuit.snapshot()
        outcome = small_design.sleep_wake_cycle()
        assert outcome.injected_errors == 0
        assert not outcome.detected
        assert outcome.state_intact
        assert outcome.error_code is ErrorCode.NONE
        assert small_design.circuit.snapshot().values == before.values
        assert small_design.controller.state is ControllerState.ACTIVE

    def test_single_error_corrected(self, small_design):
        rng = random.Random(1)
        pattern = single_error_pattern(small_design.num_chains,
                                       small_design.chain_length, rng)
        outcome = small_design.sleep_wake_cycle(injection=pattern)
        assert outcome.injected_errors == 1
        assert outcome.detected
        assert outcome.corrected_claim
        assert outcome.state_intact
        assert outcome.fully_corrected
        assert outcome.error_code is ErrorCode.CORRECTED
        assert outcome.corrections_applied == 1

    def test_many_single_error_cycles_all_corrected(self, small_design):
        rng = random.Random(2)
        for _ in range(10):
            pattern = single_error_pattern(small_design.num_chains,
                                           small_design.chain_length, rng)
            outcome = small_design.sleep_wake_cycle(injection=pattern)
            assert outcome.state_intact
            assert outcome.error_code is ErrorCode.CORRECTED

    def test_burst_errors_detected_not_silently_corrupted(self, small_design):
        rng = random.Random(3)
        saw_uncorrectable = False
        for _ in range(10):
            pattern = burst_error_pattern(small_design.num_chains,
                                          small_design.chain_length, 4, rng)
            outcome = small_design.sleep_wake_cycle(injection=pattern)
            assert outcome.detected
            assert not outcome.silent_corruption
            saw_uncorrectable |= (outcome.error_code is
                                  ErrorCode.UNCORRECTABLE)
        assert saw_uncorrectable

    def test_post_wake_injection_phase(self, small_design):
        pattern = ErrorPattern(locations=frozenset({(2, 3)}))
        outcome = small_design.sleep_wake_cycle(injection=pattern,
                                                inject_phase="post_wake")
        assert outcome.injected_errors == 1
        assert outcome.state_intact

    def test_invalid_inject_phase(self, small_design):
        with pytest.raises(ValueError):
            small_design.sleep_wake_cycle(inject_phase="during_lunch")

    def test_software_recovery_hook_called_on_uncorrectable(self):
        circuit = make_random_state_circuit(64, seed=5)
        design = ProtectedDesign(circuit, codes="crc16", num_chains=8)
        calls = []

        def recovery(d):
            calls.append(d)

        pattern = ErrorPattern(locations=frozenset({(0, 1), (3, 2)}))
        outcome = design.sleep_wake_cycle(injection=pattern,
                                          software_recovery=recovery)
        assert outcome.error_code is ErrorCode.UNCORRECTABLE
        assert calls == [design]
        assert design.controller.state is ControllerState.ACTIVE

    def test_detection_only_design_detects_but_never_corrects(self):
        circuit = make_random_state_circuit(64, seed=6)
        design = ProtectedDesign(circuit, codes="crc16", num_chains=8)
        pattern = ErrorPattern(locations=frozenset({(1, 1)}))
        outcome = design.sleep_wake_cycle(injection=pattern)
        assert outcome.detected
        assert not outcome.corrected_claim
        assert not outcome.state_intact
        assert outcome.corrections_applied == 0

    def test_droop_upsets_flow_into_monitoring(self):
        circuit = make_random_state_circuit(64, seed=7)
        # Margin far below the wake-up droop: every latch flips, far too
        # many for Hamming, but detection must still fire.
        design = ProtectedDesign(
            circuit, codes=["hamming(7,4)", "crc16"], num_chains=8,
            upset_model=RetentionUpsetModel(nominal_margin=1e-4, slope=1e-5,
                                            seed=1))
        outcome = design.sleep_wake_cycle()
        assert outcome.injected_errors == 64
        assert outcome.detected
        assert not outcome.silent_corruption

    def test_unprotected_cycle_misses_corruption(self):
        circuit = make_random_state_circuit(64, seed=8)
        design = ProtectedDesign(circuit, codes="hamming(7,4)", num_chains=8)
        pattern = ErrorPattern(locations=frozenset({(2, 2)}))
        outcome = design.unprotected_sleep_wake_cycle(injection=pattern)
        assert outcome.injected_errors == 1
        assert not outcome.detected
        assert not outcome.state_intact
        assert outcome.silent_corruption

    def test_repeated_cycles_with_fifo_keep_functionality(self):
        fifo = SyncFIFO(8, 8)
        design = ProtectedDesign(fifo, codes=["hamming(7,4)", "crc16"],
                                 num_chains=10)
        rng = random.Random(9)
        for round_trip in range(5):
            fifo.push_int(round_trip * 40 % 256)
            pattern = single_error_pattern(design.num_chains,
                                           design.chain_length, rng)
            outcome = design.sleep_wake_cycle(injection=pattern)
            assert outcome.state_intact
            assert fifo.pop_int() == round_trip * 40 % 256


#: Every entry point that takes an ``inject_phase``.
INJECT_PHASE_ENTRY_POINTS = {
    "cycle": lambda design: design.sleep_wake_cycle(inject_phase="bogus"),
    "batch": lambda design: design.sleep_wake_cycle_batch(
        [None], inject_phase="bogus"),
    "batch_summary": lambda design: design.sleep_wake_cycle_batch_summary(
        design._pack_chains(), None, 1, inject_phase="bogus"),
    "campaign_task": lambda design: FIFOValidationCampaignTask(
        inject_phase="bogus"),
}


@pytest.mark.parametrize("entry_point", sorted(INJECT_PHASE_ENTRY_POINTS))
def test_unknown_inject_phase_has_one_message(small_design, entry_point):
    """The four entry points check the phase against one constant and
    say the same thing, before anything leaves ACTIVE."""
    with pytest.raises(ValueError) as caught:
        INJECT_PHASE_ENTRY_POINTS[entry_point](small_design)
    assert INJECT_PHASES == ("sleep", "post_wake")
    assert str(caught.value) == (
        "unknown inject_phase 'bogus'; choose from ('sleep', 'post_wake')")
    assert small_design.controller.state is ControllerState.ACTIVE


class TestCostReport:
    def test_cost_report_structure(self, small_design):
        report = small_design.cost_report()
        row = report.as_table_row()
        assert row["W"] == 16
        assert row["l"] == 8
        assert row["area_um2"] > 0
        assert row["latency_ns"] == pytest.approx(80.0)
        assert report.area.protection_area > 0
        assert report.area.base_area > 0

    def test_full_netlist_contains_all_groups(self, small_design):
        netlist = small_design.full_netlist()
        groups = set(netlist.groups())
        assert {"monitor", "corrector", "controller",
                "scan_routing"} <= groups

    def test_hamming_costs_more_area_than_crc(self):
        circuit = make_counter(64)
        crc = ProtectedDesign(circuit, codes="crc16", num_chains=8)
        ham = ProtectedDesign(circuit, codes="hamming(7,4)", num_chains=8)
        assert (ham.cost_report().area_overhead_percent
                > crc.cost_report().area_overhead_percent)

    def test_more_chains_less_latency_more_area(self):
        circuit = make_random_state_circuit(256, seed=10)
        few = ProtectedDesign(circuit, codes="hamming(7,4)", num_chains=4)
        many = ProtectedDesign(circuit, codes="hamming(7,4)", num_chains=32)
        few_cost, many_cost = few.cost_report(), many.cost_report()
        assert many_cost.latency_ns < few_cost.latency_ns
        assert many_cost.area_total_um2 > few_cost.area_total_um2
        assert (many_cost.encode_cost.energy_nj
                < few_cost.encode_cost.energy_nj)
