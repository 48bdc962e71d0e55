"""Batched validation campaigns: engine-independence and determinism."""

import pytest

from repro.campaigns.tasks import FIFOValidationCampaignTask
from repro.circuit.fifo import SyncFIFO
from repro.codes.hamming import HammingCode
from repro.codes.interleave import InterleavedCode
from repro.core.protected import ProtectedDesign
from repro.validation.campaign import (
    run_sharded_multiple_error_campaign,
    run_sharded_single_error_campaign,
)
from repro.validation.testbench import BatchSequenceResult, FIFOTestbench

KWARGS = dict(width=8, depth=8, num_chains=8, seed=20100308, chunk_size=16,
              batch_size=8)


class TestBatchedCampaignEquivalence:
    def test_single_error_campaign_engine_independent(self):
        """A batched campaign is bit-identical across engines: the
        vectorised batch path and the per-sequence fallback describe
        the same experiment."""
        reference = run_sharded_single_error_campaign(
            64, engine="reference", **KWARGS)
        simd = run_sharded_single_error_campaign(
            64, engine="simd", **KWARGS)
        packed = run_sharded_single_error_campaign(
            64, engine="packed", **KWARGS)
        assert simd == reference
        assert packed == reference
        # The paper's single-error headline: everything detected and
        # corrected, nothing silent.
        assert simd.stats.detection_rate() == 1.0
        assert simd.stats.correction_rate() == 1.0
        assert simd.stats.silent_corruptions == 0
        assert simd.mismatches_reported_by_comparator == 0

    def test_multiple_error_campaign_engine_independent(self):
        reference = run_sharded_multiple_error_campaign(
            48, engine="reference", **KWARGS)
        simd = run_sharded_multiple_error_campaign(
            48, engine="simd", **KWARGS)
        assert simd == reference
        # Clustered bursts defeat Hamming but never escape detection.
        assert simd.stats.detection_rate() == 1.0
        assert simd.stats.silent_corruptions == 0
        # Adapter codes (no structured GF(2) form) run batched campaigns
        # on the object path; interleaving turns the same bursts into
        # correctable single errors per inner codeword.
        interleaved = (InterleavedCode(HammingCode(7, 4), depth=4), "crc16")
        reference = run_sharded_multiple_error_campaign(
            48, engine="reference", codes=interleaved, **KWARGS)
        packed = run_sharded_multiple_error_campaign(
            48, engine="packed", codes=interleaved, **KWARGS)
        assert packed == reference
        assert packed.stats.correction_rate() == 1.0
        assert packed.stats.silent_corruptions == 0

    def test_worker_count_determinism(self):
        one = run_sharded_single_error_campaign(
            64, engine="simd", num_workers=1, **KWARGS)
        two = run_sharded_single_error_campaign(
            64, engine="simd", num_workers=2, **KWARGS)
        assert one == two

    def test_repeatability(self):
        first = run_sharded_single_error_campaign(
            32, engine="simd", **KWARGS)
        second = run_sharded_single_error_campaign(
            32, engine="simd", **KWARGS)
        assert first == second

    def test_short_final_group(self):
        """Sequence counts that do not divide the batch size run a
        short final group, covering every sequence exactly once."""
        result = run_sharded_single_error_campaign(
            21, engine="simd", width=8, depth=8, num_chains=8,
            seed=1, chunk_size=21, batch_size=8)
        assert result.stats.num_sequences == 21
        assert result.stats.sequences_with_errors == 21


class TestBatchedTestbench:
    def _bench(self, engine="simd"):
        fifo = SyncFIFO(4, 4, name="fifo4x4")
        design = ProtectedDesign(fifo, codes=["hamming(7,4)", "crc16"],
                                 num_chains=4, engine=engine)
        return FIFOTestbench(design, words_per_sequence=2, seed=77)

    def test_run_sequence_batch_shapes(self):
        bench = self._bench()
        results = bench.run_sequence_batch([None, None, None])
        assert len(results) == 3
        assert all(isinstance(r, BatchSequenceResult) for r in results)
        assert all(r.words_written == 2 for r in results)
        assert all(not r.error_reported for r in results)
        assert all(not r.mismatch_reported for r in results)
        assert all(r.outcome_consistent for r in results)

    def test_state_comparator_flags_residual_corruption(self):
        from repro.faults.patterns import burst_error_pattern
        import random

        bench = self._bench()
        design = bench.dut_design
        rng = random.Random(5)
        patterns = [burst_error_pattern(design.num_chains,
                                        design.chain_length, 4, rng)
                    for _ in range(6)]
        results = bench.run_sequence_batch(patterns)
        # Bursts defeat Hamming(7,4): some sequence keeps residual
        # errors, and the state comparator must report the mismatch.
        assert any(r.mismatch_reported for r in results)
        assert all(r.outcome_consistent for r in results)


class TestChunkGranularity:
    def test_default_chunk_size_aligns_to_batches(self):
        """The runner's default chunk size rounds up to a whole number
        of batches, so small campaigns keep full-size batch passes
        instead of silently truncating every batch to the chunk."""
        from repro.campaigns.runner import ShardedCampaignRunner

        task = FIFOValidationCampaignTask(width=8, depth=8, num_chains=8,
                                          engine="simd", batch_size=256)
        runner = ShardedCampaignRunner(task, 1000, seed=1)
        assert runner.chunk_size == 256
        unbatched = FIFOValidationCampaignTask(width=8, depth=8,
                                               num_chains=8)
        assert ShardedCampaignRunner(unbatched, 1000, seed=1).chunk_size \
            == 16

    def test_explicit_chunk_size_is_respected(self):
        from repro.campaigns.runner import ShardedCampaignRunner

        task = FIFOValidationCampaignTask(width=8, depth=8, num_chains=8,
                                          engine="simd", batch_size=256)
        runner = ShardedCampaignRunner(task, 1000, seed=1, chunk_size=10)
        assert runner.chunk_size == 10


class TestTaskValidation:
    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            FIFOValidationCampaignTask(batch_size=0)

    def test_engine_validated_against_registry(self):
        with pytest.raises(ValueError):
            FIFOValidationCampaignTask(engine="fpga")
        task = FIFOValidationCampaignTask(engine="simd", batch_size=4)
        assert task.engine == "simd"
        assert task.batch_size == 4

    def test_fingerprint_includes_batch_size(self):
        a = FIFOValidationCampaignTask(batch_size=4)
        b = FIFOValidationCampaignTask(batch_size=8)
        assert a.fingerprint() != b.fingerprint()
