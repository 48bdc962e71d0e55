"""How often task fingerprints are built.

A fingerprint is a ``repr`` over every dataclass field, and a frozen
task keeps the one it built first.  The scheduler asks for it per job
(result memo, checkpoint header) and the executors per chunk
(worker-state key), but each task object builds it once; a task
pickled to a worker brings its string along.
"""

import pickle
from dataclasses import dataclass

from repro.analysis.correction_capability import fig10_curves
from repro.campaigns import runner
from repro.campaigns.executors import PersistentProcessExecutor
from repro.campaigns.tasks import FIFOValidationCampaignTask

ERROR_COUNTS = (1, 2, 3)
FAMILY = ((7, 4), (15, 11))
CONFIG = dict(error_counts=ERROR_COUNTS, family=FAMILY, num_bits=64,
              sequences=40, seed=5, engine="packed", chunk_size=10)


def _count_builds(monkeypatch):
    """Count fingerprint builds: each reads ``dataclasses.fields``
    once."""
    calls = []
    original = runner.fields

    def counting(task):
        calls.append(task)
        return original(task)

    monkeypatch.setattr(runner, "fields", counting)
    return calls


def test_fig10_grid_builds_one_fingerprint_per_job(monkeypatch):
    calls = _count_builds(monkeypatch)
    with PersistentProcessExecutor(2) as pool:
        pooled = fig10_curves(executor=pool, num_workers=2, **CONFIG)
    jobs = len(FAMILY) * len(ERROR_COUNTS)
    # 4 chunks per job: the parent used to build 2 + 4 per job.
    assert len(calls) == jobs
    assert len({id(task) for task in calls}) == jobs

    serial = fig10_curves(executor="serial", **CONFIG)
    assert pooled == serial
    assert len(calls) == 2 * jobs


def test_kept_fingerprint_equals_a_fresh_build_and_survives_pickling():
    task = FIFOValidationCampaignTask(width=8, depth=8, num_chains=7)
    first = task.fingerprint()
    assert first == repr(task)
    assert task.fingerprint() is first
    shipped = pickle.loads(pickle.dumps(task))
    assert shipped == task
    assert shipped.fingerprint() == first


@dataclass
class _MutableTask(runner.CampaignTask):
    scale: int = 3


def test_a_mutable_task_rebuilds_its_fingerprint():
    task = _MutableTask()
    assert task.fingerprint() == "_MutableTask(scale=3)"
    task.scale = 4
    assert task.fingerprint() == "_MutableTask(scale=4)"
