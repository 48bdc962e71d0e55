"""Sharded runner: worker-count determinism, checkpoint/resume, progress."""

import json
from dataclasses import dataclass

import pytest

from repro.analysis.correction_capability import (
    CorrectionCounters,
    correction_capability_curve,
)
from repro.campaigns.runner import (
    CampaignProgress,
    CampaignTask,
    ShardedCampaignRunner,
    default_chunk_size,
)
from repro.campaigns.tasks import FIFOValidationCampaignTask
from repro.codes.hamming import HammingCode


@dataclass
class TrialTask(CampaignTask):
    """Cheap deterministic task for exercising the runner mechanics."""

    scale: int = 3

    def empty_result(self):
        return CorrectionCounters()

    def run_chunk_on(self, state, chunk_seed, num_sequences):
        import random
        rng = random.Random(chunk_seed)
        value = sum(rng.randrange(self.scale * 1000)
                    for _ in range(num_sequences))
        return CorrectionCounters(sequences=num_sequences,
                                  corrected_bits=value)


def _tiny_fifo_task(pattern="single", engine="packed", burst_size=3):
    return FIFOValidationCampaignTask(
        width=4, depth=4, codes=("hamming(7,4)", "crc16"), num_chains=4,
        pattern=pattern, burst_size=burst_size, engine=engine,
        words_per_sequence=2)


class TestRunnerMechanics:
    def test_chunk_plan_independent_of_worker_count(self):
        plans = [ShardedCampaignRunner(TrialTask(), 100, seed=5,
                                       num_workers=workers).plan_chunks()
                 for workers in (1, 2, 8)]
        assert plans[0] == plans[1] == plans[2]

    def test_chunk_plan_covers_total_exactly(self):
        runner = ShardedCampaignRunner(TrialTask(), 103, seed=5,
                                       chunk_size=10)
        plan = runner.plan_chunks()
        assert len(plan) == 11
        assert sum(count for _, _, count in plan) == 103
        assert plan[-1][2] == 3
        assert len({seed for _, seed, _ in plan}) == len(plan)

    def test_default_chunk_size_worker_independent(self):
        assert default_chunk_size(1) == 1
        assert default_chunk_size(64) == 1
        assert default_chunk_size(10**6) == 15625

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ShardedCampaignRunner(TrialTask(), 0, seed=1)
        with pytest.raises(ValueError):
            ShardedCampaignRunner(TrialTask(), 10, seed=1, num_workers=0)
        with pytest.raises(ValueError):
            ShardedCampaignRunner(TrialTask(), 10, seed=1, chunk_size=0)

    def test_result_identical_for_any_worker_count(self):
        results = [
            ShardedCampaignRunner(TrialTask(), 200, seed=99, chunk_size=13,
                                  num_workers=workers).run()
            for workers in (1, 2, 4)]
        assert results[0] == results[1] == results[2]
        assert results[0].sequences == 200

    def test_progress_callback_sequence(self):
        events = []
        runner = ShardedCampaignRunner(TrialTask(), 20, seed=1, chunk_size=5,
                                       progress_callback=events.append)
        runner.run()
        assert len(events) == 4
        assert all(isinstance(e, CampaignProgress) for e in events)
        completed = [e.sequences_completed for e in events]
        assert completed == [5, 10, 15, 20]
        assert events[-1].fraction == 1.0
        assert events[-1].num_chunks == 4


class TestProgressEstimates:
    """Satellite: elapsed/throughput/ETA, computed in the parent."""

    def test_fields_computed_without_worker_changes(self):
        events = []
        ShardedCampaignRunner(TrialTask(), 40, seed=1, chunk_size=10,
                              progress_callback=events.append).run()
        assert [e.sequences_completed for e in events] == [10, 20, 30, 40]
        elapsed = [e.elapsed for e in events]
        assert all(t >= 0 for t in elapsed)
        assert elapsed == sorted(elapsed)
        assert all(e.sequences_restored == 0 for e in events)
        assert events[-1].sequences_per_second > 0
        # Finished campaign: nothing left, ETA collapses to zero.
        assert events[-1].eta_seconds == pytest.approx(0.0)

    def test_rate_and_eta_arithmetic(self):
        snap = CampaignProgress(
            chunk_index=3, chunks_completed=4, num_chunks=10,
            sequences_completed=40, total_sequences=100,
            elapsed=2.0, sequences_restored=10)
        # 30 sequences executed in 2 s; restored chunks excluded.
        assert snap.sequences_per_second == pytest.approx(15.0)
        assert snap.eta_seconds == pytest.approx(60 / 15.0)

    def test_no_rate_before_any_signal(self):
        restored = CampaignProgress(
            chunk_index=0, chunks_completed=2, num_chunks=4,
            sequences_completed=20, total_sequences=40,
            from_checkpoint=True, elapsed=0.5, sequences_restored=20)
        assert restored.sequences_per_second == 0.0
        assert restored.eta_seconds is None


class TestCheckpointResume:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        first = ShardedCampaignRunner(TrialTask(), 60, seed=42, chunk_size=10,
                                      checkpoint_path=path).run()
        payload = json.loads((tmp_path / "campaign.json").read_text())
        assert len(payload["completed"]) == 6
        # Resume over a complete checkpoint re-runs nothing...
        resumed = ShardedCampaignRunner(TrialTask(), 60, seed=42,
                                        chunk_size=10,
                                        checkpoint_path=path)
        calls = []
        original = TrialTask.run_chunk_on

        def counting(self, state, seed, count):
            calls.append(seed)
            return original(self, state, seed, count)

        TrialTask.run_chunk_on = counting
        try:
            assert resumed.run() == first
            assert calls == []
        finally:
            TrialTask.run_chunk_on = original

    def test_partial_resume_matches_uninterrupted_run(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        reference = ShardedCampaignRunner(TrialTask(), 60, seed=42,
                                          chunk_size=10).run()
        ShardedCampaignRunner(TrialTask(), 60, seed=42, chunk_size=10,
                              checkpoint_path=path).run()
        # Drop two chunks to simulate an interruption, then resume.
        payload = json.loads((tmp_path / "campaign.json").read_text())
        for lost in ("2", "5"):
            del payload["completed"][lost]
        (tmp_path / "campaign.json").write_text(json.dumps(payload))
        events = []
        resumed = ShardedCampaignRunner(TrialTask(), 60, seed=42,
                                        chunk_size=10, checkpoint_path=path,
                                        progress_callback=events.append)
        assert resumed.run() == reference
        # First event reports the restored chunks, then one per re-run.
        assert events[0].from_checkpoint
        assert events[0].sequences_completed == 40
        assert [e.sequences_completed for e in events[1:]] == [50, 60]

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        ShardedCampaignRunner(TrialTask(), 60, seed=42, chunk_size=10,
                              checkpoint_path=path).run()
        for kwargs in ({"seed": 43}, {"chunk_size": 12},
                       {"total_sequences": 70}):
            merged = {"seed": 42, "chunk_size": 10, "total_sequences": 60}
            merged.update(kwargs)
            total = merged.pop("total_sequences")
            with pytest.raises(ValueError, match="checkpoint"):
                ShardedCampaignRunner(TrialTask(), total,
                                      checkpoint_path=path, **merged).run()
        with pytest.raises(ValueError, match="checkpoint"):
            ShardedCampaignRunner(TrialTask(scale=4), 60, seed=42,
                                  chunk_size=10, checkpoint_path=path).run()

    def test_random_root_recorded_and_adopted(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        first = ShardedCampaignRunner(TrialTask(), 30, seed=None,
                                      chunk_size=10, checkpoint_path=path)
        result = first.run()
        resumed = ShardedCampaignRunner(TrialTask(), 30, seed=None,
                                        chunk_size=10, checkpoint_path=path)
        assert resumed.run() == result
        assert resumed.root_seed == first.root_seed


class TestValidationCampaignDeterminism:
    """The PR's acceptance property on the real Fig. 8 campaign."""

    def test_single_error_campaign_identical_for_1_2_4_workers(self):
        results = [
            ShardedCampaignRunner(_tiny_fifo_task("single"), 24,
                                  seed=20100308, chunk_size=4,
                                  num_workers=workers).run()
            for workers in (1, 2, 4)]
        assert results[0] == results[1] == results[2]
        stats = results[0].stats
        assert stats.num_sequences == 24
        # Paper headline: every single error detected and corrected.
        assert stats.detection_rate() == 1.0
        assert stats.correction_rate() == 1.0
        assert results[0].mismatches_reported_by_comparator == 0

    def test_burst_campaign_identical_across_workers_and_engines(self):
        burst_results = {}
        for engine in ("reference", "packed"):
            burst_results[engine] = [
                ShardedCampaignRunner(_tiny_fifo_task("burst", engine), 12,
                                      seed=77, chunk_size=3,
                                      num_workers=workers).run()
                for workers in (1, 2)]
            assert burst_results[engine][0] == burst_results[engine][1]
        # The packed engine is bit-exact against the reference, so the
        # sharded statistics agree across engines too.
        assert burst_results["packed"][0] == burst_results["reference"][0]
        stats = burst_results["packed"][0].stats
        assert stats.detection_rate() == 1.0
        assert stats.correction_rate() < 1.0

    def test_unknown_engine_fails_at_task_construction(self):
        with pytest.raises(ValueError, match="fpga"):
            _tiny_fifo_task(engine="fpga")
        with pytest.raises(ValueError, match="pattern"):
            FIFOValidationCampaignTask(pattern="gaussian")

    def test_unknown_inject_phase_fails_at_task_construction(self):
        """A phase typo fails when the task is built, like every other
        field, not as a ChunkExecutionError inside a worker."""
        with pytest.raises(ValueError, match="inject_phase 'bogus'"):
            FIFOValidationCampaignTask(inject_phase="bogus")
        for phase in ("sleep", "post_wake"):
            assert FIFOValidationCampaignTask(
                inject_phase=phase).inject_phase == phase


class TestCorrectionCapabilitySharding:
    def test_curve_identical_for_1_and_3_workers(self):
        curves = [
            correction_capability_curve(
                HammingCode(15, 11), error_counts=(2, 6), num_bits=300,
                sequences=240, seed=9, engine="packed",
                num_workers=workers, chunk_size=40)
            for workers in (1, 3)]
        assert curves[0] == curves[1]
        assert all(point.sequences == 240 for point in curves[0])
