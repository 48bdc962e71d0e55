"""One orchestration path: ``run_sharded_campaign`` is a one-job
scheduler.

Checkpoints written by :func:`run_sharded_campaign` and by a one-job
:class:`CampaignScheduler` are byte-identical and resume in each other
(this pins checkpoint format 1), both emit the same progress events,
and the checkpoint rules -- a ``seed=None`` job adopts the recorded
root, a chunk outside the plan is refused by name -- hold on every
entry point.
"""

import dataclasses
import json

import pytest

from repro.campaigns.scheduler import CampaignScheduler, run_sharded_campaign
from repro.campaigns.tasks import FIFOValidationCampaignTask
from repro.validation.campaign import run_sharded_single_error_campaign
from tests.campaigns.test_executors import TrialTask

TOTAL, SEED, CHUNK = 60, 4, 10


def _run_one_call(path=None, callback=None, seed=SEED):
    with CampaignScheduler() as scheduler:
        result = run_sharded_campaign(
            TrialTask(), TOTAL, seed=seed, chunk_size=CHUNK,
            checkpoint_path=path, progress_callback=callback,
            scheduler=scheduler)
    return result, scheduler.jobs[-1].root_seed


def _run_scheduler(path=None, callback=None, seed=SEED):
    with CampaignScheduler(executor="serial") as scheduler:
        job = scheduler.submit(TrialTask(), TOTAL, seed=seed,
                               chunk_size=CHUNK, checkpoint_path=path,
                               progress_callback=callback)
        scheduler.run()
    return job.result, job.root_seed


ENTRY_POINTS = {"one_call": _run_one_call, "scheduler": _run_scheduler}


def _untimed(events):
    """Progress events without their wall-clock fields."""
    return [dataclasses.replace(event, elapsed=0.0, setup_seconds=0.0,
                                compute_seconds=0.0)
            for event in events]


def _drop_chunks(path, lost):
    payload = json.loads(path.read_text())
    for index in lost:
        del payload["completed"][index]
    path.write_text(json.dumps(payload))


class TestCheckpointsInterchangeable:
    def test_byte_identical_checkpoints_and_progress(self, tmp_path):
        files, events = {}, {}
        for name, run in ENTRY_POINTS.items():
            path = tmp_path / f"{name}.json"
            events[name] = []
            run(str(path), events[name].append)
            files[name] = path.read_bytes()
        assert files["one_call"] == files["scheduler"]
        assert json.loads(files["one_call"])["format"] == 1
        assert _untimed(events["one_call"]) == _untimed(events["scheduler"])
        assert len(events["one_call"]) == TOTAL // CHUNK

    @pytest.mark.parametrize("writer", sorted(ENTRY_POINTS))
    def test_half_run_resumes_in_either(self, tmp_path, writer):
        reference, _ = _run_one_call()
        path = tmp_path / "campaign.json"
        snapshot = []

        def freeze_after_three(event):
            # A hard kill keeps whatever the writer last flushed.
            if event.chunks_completed == 3:
                snapshot.append(path.read_bytes())

        ENTRY_POINTS[writer](str(path), freeze_after_three)
        events = {}
        for reader, run in ENTRY_POINTS.items():
            path.write_bytes(snapshot[0])
            events[reader] = []
            result, _ = run(str(path), events[reader].append)
            assert result == reference, reader
        assert _untimed(events["one_call"]) == _untimed(events["scheduler"])
        first = events["one_call"][0]
        assert first.from_checkpoint
        assert first.sequences_completed == 30
        assert [e.sequences_completed for e in events["one_call"][1:]] == \
            [40, 50, 60]


class TestRandomRootResume:
    """A ``seed=None`` job resumes under the root its checkpoint
    recorded, whichever entry point wrote or reads it."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_resume_adopts_recorded_root(self, tmp_path, entry):
        path = tmp_path / "campaign.json"
        first, root = ENTRY_POINTS[entry](str(path), seed=None)
        _drop_chunks(path, ("1", "4"))
        for run in ENTRY_POINTS.values():
            resumed, resumed_root = run(str(path), seed=None)
            assert resumed == first
            assert resumed_root == root

    def test_through_run_sharded_campaign_with_a_scheduler(self,
                                                           tmp_path):
        task = FIFOValidationCampaignTask(
            width=4, depth=4, num_chains=4, engine="packed",
            words_per_sequence=2)
        path = tmp_path / "campaign.json"
        with CampaignScheduler(executor="serial") as scheduler:
            first = run_sharded_campaign(task, 12, seed=None,
                                         chunk_size=4,
                                         checkpoint_path=str(path),
                                         scheduler=scheduler)
            root = scheduler.jobs[-1].root_seed
        assert json.loads(path.read_text())["root_seed"] == root
        _drop_chunks(path, ("0", "2"))
        with CampaignScheduler(executor="serial") as scheduler:
            resumed = run_sharded_campaign(task, 12, seed=None,
                                           chunk_size=4,
                                           checkpoint_path=str(path),
                                           scheduler=scheduler)
            assert scheduler.jobs[-1].root_seed == root
        assert resumed == first
        assert resumed.stats.num_sequences == 12


class TestChunksOutsideThePlan:
    """A checkpoint holding a chunk index the plan does not have is
    refused with a named ``ValueError`` on every entry point."""

    def _poisoned(self, tmp_path):
        path = tmp_path / "campaign.json"
        run_sharded_campaign(TrialTask(), 40, seed=SEED,
                             chunk_size=CHUNK,
                             checkpoint_path=str(path))
        payload = json.loads(path.read_text())
        payload["completed"]["9"] = payload["completed"]["0"]
        path.write_text(json.dumps(payload))
        return str(path)

    def test_scheduler_submit(self, tmp_path):
        path = self._poisoned(tmp_path)
        with CampaignScheduler(executor="serial") as scheduler:
            scheduler.submit(TrialTask(), 40, seed=SEED, chunk_size=CHUNK,
                             checkpoint_path=path)
            with pytest.raises(ValueError,
                               match=r"outside the campaign plan: \[9\]"):
                scheduler.run()

    @pytest.mark.parametrize("shared", (False, True))
    def test_run_sharded_campaign(self, tmp_path, shared):
        path = self._poisoned(tmp_path)
        scheduler = CampaignScheduler(executor="serial") if shared else None
        try:
            with pytest.raises(ValueError,
                               match=r"outside the campaign plan: \[9\]"):
                run_sharded_campaign(TrialTask(), 40, seed=SEED,
                                     chunk_size=CHUNK, checkpoint_path=path,
                                     scheduler=scheduler)
        finally:
            if scheduler is not None:
                scheduler.close()

    def test_sharded_single_error_campaign(self, tmp_path):
        kwargs = dict(width=4, depth=4, num_chains=4, engine="packed",
                      words_per_sequence=2, seed=SEED, chunk_size=4)
        path = tmp_path / "campaign.json"
        run_sharded_single_error_campaign(8, checkpoint_path=str(path),
                                          **kwargs)
        payload = json.loads(path.read_text())
        payload["completed"]["9"] = payload["completed"]["0"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError,
                           match=r"outside the campaign plan: \[9\]"):
            run_sharded_single_error_campaign(8, checkpoint_path=str(path),
                                              **kwargs)
