"""Tests for the FPGA-style validation test bench and campaigns."""

import pytest

from repro.circuit.fifo import SyncFIFO
from repro.circuit.generators import make_counter
from repro.core.protected import ProtectedDesign
from repro.faults.patterns import ErrorPattern
from repro.validation.campaign import (
    run_sharded_multiple_error_campaign,
    run_sharded_single_error_campaign,
)
from repro.validation.comparator import Comparator
from repro.validation.stimulus import StimulusGenerator
from repro.validation.testbench import FIFOTestbench


def _make_testbench(width=8, depth=8, codes=("hamming(7,4)", "crc16"),
                    num_chains=10, seed=2010):
    fifo = SyncFIFO(width, depth, name="dut_fifo")
    design = ProtectedDesign(fifo, codes=list(codes), num_chains=num_chains)
    return FIFOTestbench(design, seed=seed)


class TestStimulusGenerator:
    def test_reproducible_streams(self):
        a = StimulusGenerator(16, seed=1)
        b = StimulusGenerator(16, seed=1)
        assert a.burst(10) == b.burst(10)

    def test_word_width(self):
        generator = StimulusGenerator(32, seed=2)
        assert len(generator.next_word()) == 32
        assert 0 <= generator.next_int() < 2 ** 32

    def test_reset_restarts_stream(self):
        generator = StimulusGenerator(8, seed=3)
        first = generator.burst(5)
        generator.reset()
        assert generator.burst(5) == first

    def test_validation(self):
        with pytest.raises(ValueError):
            StimulusGenerator(0)
        with pytest.raises(ValueError):
            list(StimulusGenerator(8).words(-1))


class TestComparator:
    def test_identical_fifos_match(self):
        a, b = SyncFIFO(8, 4), SyncFIFO(8, 4)
        for value in (1, 2, 3):
            a.push_int(value)
            b.push_int(value)
        result = Comparator().compare(a, b)
        assert result.match
        assert result.words_compared == 3

    def test_word_mismatch_detected(self):
        a, b = SyncFIFO(8, 4), SyncFIFO(8, 4)
        a.push_int(0x0F)
        b.push_int(0x0E)
        result = Comparator().compare(a, b)
        assert not result.match
        assert result.mismatched_words == (0,)
        assert result.bit_mismatches == 1

    def test_occupancy_mismatch_is_structural(self):
        a, b = SyncFIFO(8, 4), SyncFIFO(8, 4)
        a.push_int(1)
        result = Comparator().compare(a, b)
        assert result.structural_mismatch
        assert not result.match

    def test_history_recorded(self):
        comparator = Comparator()
        comparator.compare(SyncFIFO(8, 2), SyncFIFO(8, 2))
        assert len(comparator.history) == 1


class TestFIFOTestbench:
    def test_requires_fifo_circuit(self):
        counter_design = ProtectedDesign(make_counter(16), codes="crc16",
                                         num_chains=4)
        with pytest.raises(TypeError):
            FIFOTestbench(counter_design)

    def test_reference_geometry_must_match(self):
        testbench_design = ProtectedDesign(SyncFIFO(8, 8), codes="crc16",
                                           num_chains=8)
        with pytest.raises(ValueError):
            FIFOTestbench(testbench_design, reference_fifo=SyncFIFO(8, 4))

    def test_default_reference_built_on_first_use(self):
        testbench = _make_testbench()
        assert testbench._reference is None
        testbench.run_sequence_batch([None, None])
        assert testbench._reference is None
        reference = testbench.reference
        assert (reference.width, reference.depth) == (8, 8)
        assert reference.name == "dut_fifo_ref"
        assert testbench.reference is reference
        given = SyncFIFO(8, 8, name="given")
        design = ProtectedDesign(SyncFIFO(8, 8), codes="crc16",
                                 num_chains=8)
        assert FIFOTestbench(design, reference_fifo=given).reference is given

    def test_stale_reference_state_does_not_leak(self):
        """run_sequence resets FIFO_B first, so whatever it held (or
        its rail's state) never reaches a later comparison."""
        clean = _make_testbench().run_sequence()
        testbench = _make_testbench()
        for flop in testbench.reference.registers:
            flop.force(1)
            flop.power_off()
        assert testbench.run_sequence() == clean

    def test_clean_sequence_matches_reference(self):
        testbench = _make_testbench()
        result = testbench.run_sequence()
        assert not result.error_reported
        assert not result.mismatch_reported
        assert result.outcome_consistent
        assert result.words_written == 4

    def test_single_error_sequence_corrected_and_consistent(self):
        testbench = _make_testbench()
        pattern = ErrorPattern(locations=frozenset({(3, 2)}), kind="single")
        result = testbench.run_sequence(pattern)
        assert result.error_reported
        assert not result.mismatch_reported
        assert result.outcome_consistent

    def test_sequences_are_independent(self):
        testbench = _make_testbench()
        corrupted = testbench.run_sequence(
            ErrorPattern(locations=frozenset({(0, 0), (1, 0)})))
        clean = testbench.run_sequence()
        assert not clean.error_reported
        assert not clean.mismatch_reported


class TestCampaigns:
    # The geometry and seed of ``_make_testbench``.
    BENCH = dict(width=8, depth=8, num_chains=10, seed=2010)

    def test_single_error_campaign_matches_paper_claims(self):
        # Paper Section IV, first experiment: every single error is
        # detected and corrected; FIFO_A and FIFO_B never mismatch.
        result = run_sharded_single_error_campaign(30, **self.BENCH)
        assert result.stats.num_sequences == 30
        assert result.stats.detection_rate() == 1.0
        assert result.stats.correction_rate() == 1.0
        assert result.mismatches_reported_by_comparator == 0
        assert result.stats.silent_corruptions == 0

    def test_multiple_error_campaign_detects_everything(self):
        # Paper Section IV, second experiment: clustered bursts are not
        # corrected but always detected.
        result = run_sharded_multiple_error_campaign(30, burst_size=4,
                                                     **self.BENCH)
        assert result.stats.detection_rate() == 1.0
        assert result.stats.correction_rate() < 1.0
        assert result.stats.silent_corruptions == 0
        assert result.inconsistent_sequences == 0

    def test_campaign_summary_text(self):
        result = run_sharded_single_error_campaign(5, **self.BENCH)
        summary = result.summary()
        assert "detection rate" in summary
        assert "comparator mismatches" in summary

    def test_campaign_requires_positive_sequences(self):
        with pytest.raises(ValueError):
            run_sharded_single_error_campaign(0, **self.BENCH)

    def test_spread_multi_errors_often_corrected(self):
        # With clustered=False the errors are spread uniformly and a
        # Hamming(7,4) monitor corrects most of them (cf. Fig. 10).
        result = run_sharded_multiple_error_campaign(
            20, burst_size=2, clustered=False,
            **dict(self.BENCH, width=16, depth=16, num_chains=16))
        assert result.stats.detection_rate() == 1.0
        assert result.stats.correction_rate() > 0.5


class TestSummaryStimulusImage:
    """The summary path loads no flops: its pre-sleep snapshot comes
    from a packed image of stages 1--2.  Its counters must equal the
    object path's on the same PatternBatch, which loads the DUT."""

    DEPTH = 8

    def _pair(self, words):
        benches = []
        for _ in range(2):
            fifo = SyncFIFO(8, self.DEPTH, name="dut_fifo")
            # 76 registers in 10 chains of 8: four scan padding cells.
            design = ProtectedDesign(fifo, codes=["hamming(7,4)", "crc16"],
                                     num_chains=10, engine="simd")
            benches.append(FIFOTestbench(design, seed=5,
                                         words_per_sequence=words))
        assert benches[0].dut_design.padding_cells == 4
        # Record the snapshot the summary bench hands to its design.
        design = benches[0].dut_design
        cycle = design.sleep_wake_cycle_batch_summary
        self.snapshots = []

        def recording_cycle(snapshot, *args, **kwargs):
            self.snapshots.append(snapshot)
            return cycle(snapshot, *args, **kwargs)

        design.sleep_wake_cycle_batch_summary = recording_cycle
        return benches

    def _assert_batch_agrees(self, summary_tb, object_tb, batch):
        untouched = summary_tb.dut.snapshot()
        arrays = summary_tb.run_sequence_batch_summary(batch,
                                                       batch.batch_size)
        assert summary_tb.dut.snapshot() == untouched
        results = object_tb.run_sequence_batch(batch.patterns())
        # The counters of a linear code do not see the data bits, so the
        # snapshot itself must equal the chains the object path loaded
        # (a batch leaves them as loaded).
        states, knowns = self.snapshots[-1]
        assert (list(states), list(knowns)) \
            == object_tb.dut_design._pack_chains()
        columns = {"injected_errors": arrays.injected,
                   "detected": arrays.detected,
                   "corrected_claim": arrays.corrected_claim,
                   "state_intact": arrays.state_intact,
                   "residual_errors": arrays.residual_errors,
                   "corrections_applied": arrays.corrections_applied}
        for field, column in columns.items():
            assert column.tolist() == [getattr(result.cycle, field)
                                       for result in results], field
        # Both paths drew one burst from the same stimulus stream.
        assert summary_tb.stimulus.next_int() \
            == object_tb.stimulus.next_int()

    @pytest.mark.parametrize("words", (1, DEPTH // 2, DEPTH, DEPTH + 3))
    @pytest.mark.parametrize("history", ("fresh", "corrupted_padding",
                                         "after_object_sequence"))
    def test_summary_counters_equal_object_path(self, words, history):
        np = pytest.importorskip("numpy")
        from repro.faults.batch import sample_pattern_batch

        summary_tb, object_tb = self._pair(words)
        design = summary_tb.dut_design
        rng = np.random.default_rng(words)

        def sample(kind):
            return sample_pattern_batch(kind, design.num_chains,
                                        design.chain_length, 70, rng,
                                        num_errors=3)

        self._assert_batch_agrees(summary_tb, object_tb, sample("burst"))
        for tb in (summary_tb, object_tb):
            if history == "corrupted_padding":
                # No stage resets the padding: a known 1 and an X.
                tb.dut_design._padding[1].force(1)
                tb.dut_design._padding[3].force(None)
            elif history == "after_object_sequence":
                tb.run_sequence(ErrorPattern(
                    locations=frozenset({(0, 0), (9, 7)})))
        self._assert_batch_agrees(summary_tb, object_tb, sample("burst"))
        self._assert_batch_agrees(summary_tb, object_tb, sample("single"))
        flags = {flop.name: flop.q for flop in object_tb.dut.registers}
        assert flags["dut_fifo.overflow"] == int(words > self.DEPTH)
