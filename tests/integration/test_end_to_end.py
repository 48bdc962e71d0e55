"""End-to-end integration tests across the whole stack.

These exercise the complete methodology on the paper's actual case
study (the 32x32 FIFO with 80 chains of 13 flops) rather than on the
reduced circuits the unit tests use.
"""

import random

import pytest

from repro import (
    FlowConfig,
    ProtectedDesign,
    ReliabilityAwareSynthesizer,
    SyncFIFO,
)
from repro.analysis import paper_data
from repro.core.controller import ErrorCode
from repro.faults.patterns import burst_error_pattern, single_error_pattern
from repro.validation.campaign import (
    run_sharded_multiple_error_campaign,
    run_sharded_single_error_campaign,
)


@pytest.fixture(scope="module")
def paper_fifo_design():
    """The paper's configuration: 32x32 FIFO, 80 chains x 13 flops."""
    fifo = SyncFIFO(32, 32, name="fifo32x32")
    return ProtectedDesign(fifo, codes=["hamming(7,4)", "crc16"],
                           num_chains=80)


class TestPaperConfiguration:
    def test_geometry_matches_paper(self, paper_fifo_design):
        assert paper_fifo_design.circuit.num_registers == 1040
        assert paper_fifo_design.num_chains == 80
        assert paper_fifo_design.chain_length == 13
        assert paper_fifo_design.padding_cells == 0
        assert paper_fifo_design.config.encode_latency_ns == pytest.approx(
            130.0)

    def test_clean_sleep_wake_on_full_fifo(self, paper_fifo_design):
        fifo = paper_fifo_design.circuit
        fifo.reset()
        values = [random.Random(0).getrandbits(32) for _ in range(16)]
        for value in values:
            fifo.push_int(value)
        outcome = paper_fifo_design.sleep_wake_cycle()
        assert outcome.state_intact
        for value in values:
            assert fifo.pop_int() == value

    def test_single_errors_on_paper_fifo_always_corrected(
            self, paper_fifo_design):
        rng = random.Random(42)
        for _ in range(5):
            pattern = single_error_pattern(80, 13, rng)
            outcome = paper_fifo_design.sleep_wake_cycle(injection=pattern)
            assert outcome.detected
            assert outcome.state_intact
            assert outcome.error_code is ErrorCode.CORRECTED

    def test_burst_errors_on_paper_fifo_always_detected(
            self, paper_fifo_design):
        rng = random.Random(43)
        for _ in range(3):
            pattern = burst_error_pattern(80, 13, 6, rng)
            outcome = paper_fifo_design.sleep_wake_cycle(injection=pattern)
            assert outcome.detected
            assert not outcome.silent_corruption


class TestSmallScaleFPGACampaign:
    """A scaled-down version of the paper's 10^8-sequence campaign."""

    def test_campaigns_reproduce_section4_headlines(self):
        bench = dict(width=16, depth=16, num_chains=16, seed=77)
        single = run_sharded_single_error_campaign(25, **bench)
        assert single.stats.detection_rate() == pytest.approx(
            paper_data.VALIDATION_SUMMARY["single_error"]["detection_rate"])
        assert single.stats.correction_rate() == pytest.approx(
            paper_data.VALIDATION_SUMMARY["single_error"]["correction_rate"])

        multiple = run_sharded_multiple_error_campaign(25, burst_size=4,
                                                       **bench)
        assert multiple.stats.detection_rate() == pytest.approx(
            paper_data.VALIDATION_SUMMARY["multiple_error"]["detection_rate"])
        assert multiple.stats.silent_corruptions == 0


class TestFlowEndToEnd:
    def test_config_file_to_validated_design(self, tmp_path):
        # Write a configuration file, load it, synthesize, then verify a
        # fault-injection cycle on the produced design -- the complete
        # Fig. 4 flow plus the Fig. 8 validation in one pass.
        config_path = tmp_path / "flow.cfg"
        FlowConfig(codes=["hamming(7,4)", "crc16"], num_chains=None,
                   candidate_chains=[8, 16],
                   target="latency").save(config_path)
        config = FlowConfig.load(config_path)
        fifo = SyncFIFO(8, 8)
        result = ReliabilityAwareSynthesizer(config).synthesize(fifo)
        assert result.selected_chains == 16
        design = result.design
        rng = random.Random(3)
        pattern = single_error_pattern(design.num_chains,
                                       design.chain_length, rng)
        outcome = design.sleep_wake_cycle(injection=pattern)
        assert outcome.state_intact
