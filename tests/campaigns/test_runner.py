"""One-call campaigns: worker-count determinism, checkpoint/resume,
progress."""

import itertools
import json
from dataclasses import dataclass, field

import pytest

from repro.analysis.correction_capability import (
    CorrectionCapabilityTask,
    CorrectionCounters,
    correction_capability_curve,
)
from repro.campaigns.plan import default_chunk_size
from repro.campaigns.runner import CampaignProgress, CampaignTask
from repro.campaigns.scheduler import CampaignScheduler, run_sharded_campaign
from repro.campaigns.tasks import FIFOValidationCampaignTask
from repro.codes.hamming import HammingCode


@dataclass
class TrialTask(CampaignTask):
    """Cheap deterministic task for exercising the campaign mechanics."""

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


def _submitted(task, total, num_workers=1, **kwargs):
    """Submit one campaign without running it; returns its job."""
    with CampaignScheduler(num_workers=num_workers) as scheduler:
        return scheduler.submit(task, total, **kwargs)


class TestFieldBuiltFingerprint:
    """The checkpoint identity is built from every dataclass field."""

    def test_equals_repr_for_fifo_validation_tasks(self):
        grid = itertools.product(
            ((4, 4), (32, 32)), (("hamming(7,4)", "crc16"), "crc16"),
            ("single", "burst", "multiple", "none"), ("sleep", "post_wake"),
            (None, "packed"), (None, 2), (None, 8))
        for ((width, depth), codes, pattern, phase, engine, words,
             batch) in grid:
            task = FIFOValidationCampaignTask(
                width=width, depth=depth, codes=codes, pattern=pattern,
                inject_phase=phase, engine=engine, words_per_sequence=words,
                batch_size=batch)
            assert task.fingerprint() == repr(task)

    def test_equals_repr_for_correction_capability_tasks(self):
        for n, k, bits, errors, engine in itertools.product(
                (7, 15), (4, 11), (100, 1000), (0, 1, 10),
                ("reference", "packed")):
            task = CorrectionCapabilityTask(
                code_n=n, code_k=k, num_bits=bits, num_errors=errors,
                engine=engine)
            assert task.fingerprint() == repr(task)

    def test_non_dataclass_task_is_refused(self):
        class PlainTask(CampaignTask):
            scale = 3

        with pytest.raises(TypeError, match="PlainTask is not a dataclass"):
            PlainTask().fingerprint()

    def test_repr_false_field_reaches_the_fingerprint(self):
        @dataclass
        class HiddenTask(CampaignTask):
            scale: int = 3
            secret: int = field(default=1, repr=False)

        assert "secret" not in repr(HiddenTask())
        assert HiddenTask().fingerprint().endswith("(scale=3, secret=1)")
        assert HiddenTask(secret=1).fingerprint() != \
            HiddenTask(secret=2).fingerprint()

    def test_undecorated_subclass_names_itself(self):
        class Scaled(TrialTask):
            pass

        assert Scaled().fingerprint().endswith(".Scaled(scale=3)")
        assert Scaled().fingerprint() == repr(Scaled())
        assert TrialTask().fingerprint() == "TrialTask(scale=3)"

    def test_fingerprint_override_fails_at_class_creation(self):
        with pytest.raises(TypeError, match="defines fingerprint"):
            @dataclass
            class CustomTask(CampaignTask):
                width: int = 4

                def fingerprint(self):
                    return f"custom:{self.width}"


class TestRunnerMechanics:
    def test_chunk_plan_independent_of_worker_count(self):
        plans = [list(_submitted(TrialTask(), 100, seed=5,
                                 num_workers=workers).plan.entries)
                 for workers in (1, 2, 8)]
        assert plans[0] == plans[1] == plans[2]

    def test_chunk_plan_covers_total_exactly(self):
        plan = list(_submitted(TrialTask(), 103, seed=5,
                               chunk_size=10).plan.entries)
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
            run_sharded_campaign(TrialTask(), 0, seed=1)
        with pytest.raises(ValueError):
            run_sharded_campaign(TrialTask(), 10, seed=1, num_workers=0)
        with pytest.raises(ValueError):
            run_sharded_campaign(TrialTask(), 10, seed=1, chunk_size=0)

    def test_result_identical_for_any_worker_count(self):
        results = [
            run_sharded_campaign(TrialTask(), 200, seed=99, chunk_size=13,
                                 num_workers=workers)
            for workers in (1, 2, 4)]
        assert results[0] == results[1] == results[2]
        assert results[0].sequences == 200

    def test_progress_callback_sequence(self):
        events = []
        run_sharded_campaign(TrialTask(), 20, seed=1, chunk_size=5,
                             progress_callback=events.append)
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
        run_sharded_campaign(TrialTask(), 40, seed=1, chunk_size=10,
                             progress_callback=events.append)
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
        first = run_sharded_campaign(TrialTask(), 60, seed=42, chunk_size=10,
                                     checkpoint_path=path)
        payload = json.loads((tmp_path / "campaign.json").read_text())
        assert len(payload["completed"]) == 6
        # Resume over a complete checkpoint re-runs nothing...
        calls = []
        original = TrialTask.run_chunk_on

        def counting(self, state, seed, count):
            calls.append(seed)
            return original(self, state, seed, count)

        TrialTask.run_chunk_on = counting
        try:
            assert run_sharded_campaign(TrialTask(), 60, seed=42,
                                        chunk_size=10,
                                        checkpoint_path=path) == first
            assert calls == []
        finally:
            TrialTask.run_chunk_on = original

    def test_partial_resume_matches_uninterrupted_run(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        reference = run_sharded_campaign(TrialTask(), 60, seed=42,
                                         chunk_size=10)
        run_sharded_campaign(TrialTask(), 60, seed=42, chunk_size=10,
                             checkpoint_path=path)
        # Drop two chunks to simulate an interruption, then resume.
        payload = json.loads((tmp_path / "campaign.json").read_text())
        for lost in ("2", "5"):
            del payload["completed"][lost]
        (tmp_path / "campaign.json").write_text(json.dumps(payload))
        events = []
        resumed = run_sharded_campaign(TrialTask(), 60, seed=42,
                                       chunk_size=10, checkpoint_path=path,
                                       progress_callback=events.append)
        assert resumed == reference
        # First event reports the restored chunks, then one per re-run.
        assert events[0].from_checkpoint
        assert events[0].sequences_completed == 40
        assert [e.sequences_completed for e in events[1:]] == [50, 60]

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        run_sharded_campaign(TrialTask(), 60, seed=42, chunk_size=10,
                             checkpoint_path=path)
        for kwargs in ({"seed": 43}, {"chunk_size": 12},
                       {"total_sequences": 70}):
            merged = {"seed": 42, "chunk_size": 10, "total_sequences": 60}
            merged.update(kwargs)
            total = merged.pop("total_sequences")
            with pytest.raises(ValueError, match="checkpoint"):
                run_sharded_campaign(TrialTask(), total,
                                     checkpoint_path=path, **merged)
        with pytest.raises(ValueError, match="checkpoint"):
            run_sharded_campaign(TrialTask(scale=4), 60, seed=42,
                                 chunk_size=10, checkpoint_path=path)

    def test_random_root_recorded_and_adopted(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        jobs = []
        for _ in range(2):
            with CampaignScheduler() as scheduler:
                jobs.append(scheduler.submit(TrialTask(), 30, seed=None,
                                             chunk_size=10,
                                             checkpoint_path=path))
                scheduler.run()
        first, resumed = jobs
        assert resumed.result == first.result
        assert resumed.root_seed == first.root_seed


class TestValidationCampaignDeterminism:
    """The PR's acceptance property on the real Fig. 8 campaign."""

    def test_single_error_campaign_identical_for_1_2_4_workers(self):
        results = [
            run_sharded_campaign(_tiny_fifo_task("single"), 24,
                                 seed=20100308, chunk_size=4,
                                 num_workers=workers)
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
                run_sharded_campaign(_tiny_fifo_task("burst", engine), 12,
                                     seed=77, chunk_size=3,
                                     num_workers=workers)
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
