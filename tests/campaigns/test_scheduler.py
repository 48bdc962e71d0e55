"""Scheduler layer: fair-share interleaving, result cache, determinism."""

import pytest

from repro.campaigns.runner import CampaignProgress, ShardedCampaignRunner
from repro.campaigns.scheduler import CampaignScheduler
from repro.campaigns.tasks import FIFOValidationCampaignTask
from tests.campaigns.test_executors import TrialTask


def _counting(calls):
    original = TrialTask.run_chunk_on

    def counting(self, state, seed, count):
        calls.append(seed)
        return original(self, state, seed, count)

    return counting, original


class TestFairShare:
    def test_two_jobs_interleave_on_a_shared_executor(self):
        scheduler = CampaignScheduler(executor="serial")
        events = []
        a = scheduler.submit(TrialTask(scale=3), 40, seed=1, chunk_size=10,
                             progress_callback=lambda e: events.append("a"))
        b = scheduler.submit(TrialTask(scale=5), 40, seed=2, chunk_size=10,
                             progress_callback=lambda e: events.append("b"))
        scheduler.run()
        # Round-robin dispatch: one chunk from each job per round, so
        # completions strictly alternate on the serial executor.
        assert events == ["a", "b", "a", "b", "a", "b", "a", "b"]
        assert a.done and b.done
        assert a.result.sequences == b.result.sequences == 40

    def test_small_job_not_starved_by_huge_job(self):
        scheduler = CampaignScheduler(executor="serial")
        events = []
        scheduler.submit(TrialTask(scale=3), 120, seed=1, chunk_size=10,
                         progress_callback=lambda e: events.append("big"))
        small = scheduler.submit(
            TrialTask(scale=5), 20, seed=2, chunk_size=10,
            progress_callback=lambda e: events.append("small"))
        scheduler.run()
        # The 2-chunk job finishes within the first two rounds of the
        # 12-chunk job, not after it.
        assert events.index("small") == 1
        assert [e for e in events[:4]] == ["big", "small", "big", "small"]
        assert small.result.sequences == 20

    def test_jobs_report_progress_with_rates(self):
        scheduler = CampaignScheduler(executor="serial")
        events = []
        scheduler.submit(TrialTask(), 30, seed=3, chunk_size=10,
                         progress_callback=events.append)
        scheduler.run()
        assert [e.sequences_completed for e in events] == [10, 20, 30]
        assert all(isinstance(e, CampaignProgress) for e in events)
        assert events[-1].fraction == 1.0
        assert events[-1].sequences_per_second > 0
        assert events[0].eta_seconds is None or events[0].eta_seconds >= 0


class TestResultCache:
    def test_identical_resubmission_runs_no_chunks(self):
        scheduler = CampaignScheduler(executor="serial")
        first = scheduler.submit(TrialTask(), 60, seed=9, chunk_size=10)
        scheduler.run()
        calls = []
        counting, original = _counting(calls)
        TrialTask.run_chunk_on = counting
        try:
            again = scheduler.submit(TrialTask(), 60, seed=9,
                                     chunk_size=10)
            results = scheduler.run()
        finally:
            TrialTask.run_chunk_on = original
        assert calls == []
        assert again.from_cache and again.done
        assert again.result == first.result
        assert results == [first.result, again.result]

    def test_cache_returns_a_private_copy(self):
        scheduler = CampaignScheduler(executor="serial")
        first = scheduler.submit(TrialTask(), 30, seed=9, chunk_size=10)
        scheduler.run()
        hit = scheduler.submit(TrialTask(), 30, seed=9, chunk_size=10)
        assert hit.result is not first.result
        hit.result.sequences = -1
        fresh = scheduler.submit(TrialTask(), 30, seed=9, chunk_size=10)
        assert fresh.result.sequences == 30

    def test_different_campaigns_do_not_collide(self):
        scheduler = CampaignScheduler(executor="serial")
        scheduler.submit(TrialTask(), 30, seed=9, chunk_size=10)
        scheduler.run()
        for kwargs in (dict(seed=10, chunk_size=10),
                       dict(seed=9, chunk_size=15)):
            job = scheduler.submit(TrialTask(), 30, **kwargs)
            assert not job.from_cache
        other_task = scheduler.submit(TrialTask(scale=4), 30, seed=9,
                                      chunk_size=10)
        assert not other_task.from_cache
        random_root = scheduler.submit(TrialTask(), 30, seed=None,
                                       chunk_size=10)
        assert not random_root.from_cache

    def test_cached_job_exposes_plan_identity(self):
        scheduler = CampaignScheduler(executor="serial")
        job = scheduler.submit(TrialTask(), 30, seed=9, chunk_size=10)
        assert job.root_seed == 9
        assert job.plan.identity == (9, 30, 10)


class TestSchedulerDeterminism:
    def test_matches_individual_runners(self):
        tasks = [(TrialTask(scale=3), 70, 1), (TrialTask(scale=5), 50, 2)]
        expected = [ShardedCampaignRunner(task, total, seed=seed,
                                          chunk_size=10).run()
                    for task, total, seed in tasks]
        for spec, workers in (("serial", 1), ("process", 3),
                              ("process", 2)):
            with CampaignScheduler(executor=spec,
                                   num_workers=workers) as scheduler:
                jobs = [scheduler.submit(task, total, seed=seed,
                                         chunk_size=10)
                        for task, total, seed in tasks]
                scheduler.run()
            assert [job.result for job in jobs] == expected, (spec, workers)

    def test_fifo_jobs_share_a_process_pool(self):
        task = FIFOValidationCampaignTask(
            width=4, depth=4, num_chains=4, engine="packed",
            words_per_sequence=2)
        expected = ShardedCampaignRunner(task, 12, seed=20100308,
                                         chunk_size=4).run()
        expected_two = ShardedCampaignRunner(task, 12, seed=77,
                                             chunk_size=4).run()
        with CampaignScheduler(executor="process",
                               num_workers=2) as scheduler:
            one = scheduler.submit(task, 12, seed=20100308, chunk_size=4)
            two = scheduler.submit(task, 12, seed=77, chunk_size=4)
            scheduler.run()
        assert one.result == expected
        assert two.result == expected_two
        assert two.result.stats.num_sequences == 12


class TestSchedulerCheckpoints:
    def test_job_resumes_from_checkpoint(self, tmp_path):
        path = str(tmp_path / "job.json")
        reference = ShardedCampaignRunner(TrialTask(), 60, seed=4,
                                          chunk_size=10).run()
        # Seed the checkpoint with a partial run.
        partial = ShardedCampaignRunner(TrialTask(), 60, seed=4,
                                        chunk_size=10,
                                        checkpoint_path=path)
        partial.run()
        import json
        payload = json.loads((tmp_path / "job.json").read_text())
        for lost in ("3", "4", "5"):
            del payload["completed"][lost]
        (tmp_path / "job.json").write_text(json.dumps(payload))

        scheduler = CampaignScheduler(executor="serial")
        events = []
        job = scheduler.submit(TrialTask(), 60, seed=4, chunk_size=10,
                               checkpoint_path=path, save_interval=2,
                               progress_callback=events.append)
        scheduler.run()
        assert job.result == reference
        assert events[0].from_checkpoint
        assert events[0].sequences_completed == 30
        # Restored sequences are excluded from the throughput estimate.
        assert all(e.sequences_restored == 30 for e in events)

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        path = str(tmp_path / "job.json")
        ShardedCampaignRunner(TrialTask(), 60, seed=4, chunk_size=10,
                              checkpoint_path=path).run()
        scheduler = CampaignScheduler(executor="serial")
        scheduler.submit(TrialTask(), 60, seed=5, chunk_size=10,
                         checkpoint_path=path)
        with pytest.raises(ValueError, match="checkpoint"):
            scheduler.run()
