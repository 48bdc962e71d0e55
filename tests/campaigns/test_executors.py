"""Executor layer: equivalence across executors, error wrapping, the
serial state cache, and pool lifecycle (no leaked workers)."""

import multiprocessing
import time
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.correction_capability import CorrectionCounters
from repro.campaigns.executors import (
    EXECUTOR_KINDS,
    ChunkExecutionError,
    PersistentProcessExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.campaigns.plan import ChunkPlan
from repro.campaigns.runner import CampaignTask, ShardedCampaignRunner
from repro.campaigns.scheduler import CampaignScheduler
from repro.campaigns.tasks import FIFOValidationCampaignTask

EXECUTORS = ("serial", "process")
WORKER_COUNTS = (1, 2, 4)


@dataclass
class TrialTask(CampaignTask):
    """Cheap deterministic task for exercising executor mechanics."""

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


@dataclass
class FailingTask(TrialTask):
    """Fails on the chunk whose seed hits ``poison_seed``."""

    poison_seed: int = -1

    def run_chunk_on(self, state, chunk_seed, num_sequences):
        if chunk_seed == self.poison_seed:
            raise RuntimeError("poisoned chunk")
        return super().run_chunk_on(state, chunk_seed, num_sequences)


@dataclass
class SlowFailingTask(TrialTask):
    """Fails at once on ``poison_seed``; every other chunk is slow."""

    poison_seed: int = -1
    delay: float = 5.0

    def run_chunk_on(self, state, chunk_seed, num_sequences):
        if chunk_seed == self.poison_seed:
            raise RuntimeError("poisoned chunk")
        import time
        time.sleep(self.delay)
        return super().run_chunk_on(state, chunk_seed, num_sequences)


@dataclass
class BuildCountingTask(TrialTask):
    """Counts worker-state builds and checks each chunk gets its own
    task's state."""

    builds = 0

    def build_worker_state(self):
        BuildCountingTask.builds += 1
        return ("state", self.scale)

    def run_chunk_on(self, state, chunk_seed, num_sequences):
        assert state == ("state", self.scale)
        return super().run_chunk_on(state, chunk_seed, num_sequences)


def _serial_counters(task, seed=3, total=20, chunk=5):
    """Counters of ``task`` with a fresh state for every chunk."""
    merged = task.empty_result()
    for entry in ChunkPlan.build(seed, total, chunk).entries:
        merged.merge(task.run_chunk(entry.chunk_seed, entry.count))
    return merged


def _sampler_task(mode: str) -> FIFOValidationCampaignTask:
    """A tiny Fig. 8 task in one of the three sampler modes."""
    common = dict(width=4, depth=4, codes=("hamming(7,4)", "crc16"),
                  num_chains=4, pattern="burst", burst_size=2,
                  words_per_sequence=2)
    if mode == "scalar":
        return FIFOValidationCampaignTask(engine="packed", **common)
    if mode == "batched":
        return FIFOValidationCampaignTask(engine="simd", batch_size=4,
                                          **common)
    return FIFOValidationCampaignTask(engine="simd", batch_size=4,
                                      sampler="array", **common)


def _leftover_workers():
    """Live child processes of this process."""
    return multiprocessing.active_children()


class TestExecutorEquivalence:
    """The PR's acceptance invariant: same plan => same merged stats,
    for every executor kind and worker count."""

    def test_trial_task_identical_everywhere(self):
        reference = ShardedCampaignRunner(
            TrialTask(), 200, seed=99, chunk_size=13).run()
        for spec in EXECUTORS:
            for workers in WORKER_COUNTS:
                result = ShardedCampaignRunner(
                    TrialTask(), 200, seed=99, chunk_size=13,
                    num_workers=workers, executor=spec).run()
                assert result == reference, (spec, workers)

    @pytest.mark.parametrize("mode", ("scalar", "batched", "array"))
    def test_sampler_modes_identical_across_executors(self, mode):
        if mode != "scalar":
            pytest.importorskip("numpy")
        task = _sampler_task(mode)
        reference = ShardedCampaignRunner(
            task, 12, seed=20100308, chunk_size=4,
            executor="serial").run()
        assert reference.stats.num_sequences == 12
        for spec, workers in (("process", 2), ("process", 4)):
            result = ShardedCampaignRunner(
                task, 12, seed=20100308, chunk_size=4,
                num_workers=workers, executor=spec).run()
            assert result == reference, (mode, spec, workers)

    @given(seed=st.integers(0, 2**32), chunk=st.integers(1, 9))
    @settings(max_examples=20, deadline=None)
    def test_process_executor_matches_serial_property(self, seed, chunk):
        serial = ShardedCampaignRunner(TrialTask(), 30, seed=seed,
                                       chunk_size=chunk,
                                       executor="serial").run()
        pooled = ShardedCampaignRunner(TrialTask(), 30, seed=seed,
                                       chunk_size=chunk, num_workers=3,
                                       executor="process").run()
        assert serial == pooled


class TestSerialStateCache:
    def test_bench_built_once_per_campaign(self):
        """A 4-chunk serial campaign pays setup on its first chunk only
        and is served from the cache after that -- with counters equal
        to building a fresh bench for every chunk."""
        task = _sampler_task("scalar")
        entries = ChunkPlan.build(5, 16, 4).entries
        executor = SerialExecutor()
        timings = []
        merged = task.empty_result()
        for _tag, _index, result in executor.submit_jobs(
                (None, entry, task) for entry in entries):
            timings.append(executor.last_chunk_timing)
            merged.merge(result)
        assert len(timings) == 4
        assert timings[0].setup_seconds > 0.0
        assert not timings[0].cache_hit
        assert all(t.cache_hit and t.setup_seconds == 0.0
                   for t in timings[1:])
        fresh = task.empty_result()
        for entry in entries:
            fresh.merge(task.run_chunk(entry.chunk_seed, entry.count))
        assert merged == fresh

    def test_equal_valued_tasks_share_one_state(self):
        """Distinct but equal-valued task objects are one cache entry:
        the state is keyed by fingerprint, not object identity."""
        entries = ChunkPlan.build(3, 20, 5).entries
        tasks = [BuildCountingTask(), BuildCountingTask()]
        BuildCountingTask.builds = 0
        executor = SerialExecutor()
        results = list(executor.submit_jobs(
            (tag, entry, tasks[tag]) for entry in entries
            for tag in (0, 1)))
        assert BuildCountingTask.builds == 1
        by_tag = {0: CorrectionCounters(), 1: CorrectionCounters()}
        for tag, _index, result in results:
            by_tag[tag].merge(result)
        assert by_tag[0] == by_tag[1] == _serial_counters(tasks[0])

    def test_distinct_tasks_get_distinct_states(self):
        """Tasks that differ in value never share a state: each builds
        its own and gets its own results."""
        entries = ChunkPlan.build(3, 20, 5).entries
        tasks = {3: BuildCountingTask(scale=3), 5: BuildCountingTask(scale=5)}
        BuildCountingTask.builds = 0
        executor = SerialExecutor()
        merged = {scale: CorrectionCounters() for scale in tasks}
        for scale, _index, result in executor.submit_jobs(
                (scale, entry, task) for entry in entries
                for scale, task in tasks.items()):
            merged[scale].merge(result)
        assert BuildCountingTask.builds == 2
        assert merged[3] != merged[5]
        for scale, task in tasks.items():
            assert merged[scale] == _serial_counters(task)


class TestChunkExecutionError:
    def _poisoned(self, executor, workers=2):
        plan = ChunkPlan.build(7, 40, 10)
        poison = plan.entries[2].chunk_seed
        return ShardedCampaignRunner(
            FailingTask(poison_seed=poison), 40, seed=7, chunk_size=10,
            num_workers=workers, executor=executor), plan.entries[2]

    @pytest.mark.parametrize("spec", EXECUTORS)
    def test_failure_names_the_chunk(self, spec):
        runner, entry = self._poisoned(spec)
        with pytest.raises(ChunkExecutionError) as excinfo:
            runner.run()
        error = excinfo.value
        assert error.chunk_index == entry.index
        assert error.chunk_seed == entry.chunk_seed
        assert error.count == entry.count
        assert str(entry.index) in str(error)

    def test_serial_failure_chains_original_exception(self):
        runner, _ = self._poisoned("serial", workers=1)
        with pytest.raises(ChunkExecutionError) as excinfo:
            runner.run()
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_process_failure_carries_worker_traceback(self):
        runner, _ = self._poisoned("process")
        with pytest.raises(ChunkExecutionError) as excinfo:
            runner.run()
        assert "poisoned chunk" in (excinfo.value.worker_traceback or "")

    def test_checkpoint_survives_failure_and_resumes(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        reference = ShardedCampaignRunner(TrialTask(), 40, seed=7,
                                          chunk_size=10).run()
        plan = ChunkPlan.build(7, 40, 10)
        poison = plan.entries[2].chunk_seed
        failing = ShardedCampaignRunner(
            FailingTask(poison_seed=poison), 40, seed=7, chunk_size=10,
            checkpoint_path=path, save_interval=4, executor="serial")
        # FailingTask and TrialTask share repr-based fingerprints only
        # if the fields match; pin the fingerprint so the resumed
        # (fixed) task accepts the failed run's checkpoint.
        failing.task.fingerprint = TrialTask().fingerprint
        with pytest.raises(ChunkExecutionError):
            failing.run()
        # The final flush on the way out persisted the partial
        # interval: both chunks that completed before the poison.
        resumed_calls = []
        fixed_task = TrialTask()
        original = TrialTask.run_chunk_on

        def counting(self, state, seed, count):
            resumed_calls.append(seed)
            return original(self, state, seed, count)

        TrialTask.run_chunk_on = counting
        try:
            resumed = ShardedCampaignRunner(
                fixed_task, 40, seed=7, chunk_size=10,
                checkpoint_path=path).run()
        finally:
            TrialTask.run_chunk_on = original
        assert resumed == reference
        assert len(resumed_calls) == 2  # only the poisoned chunk + tail


class TestNoLeakedWorkers:
    """Spec-resolved pools are closed by whoever resolved them, on
    success and on failure alike."""

    SPECS = (None, "process")

    @pytest.mark.parametrize("spec", SPECS)
    def test_runner_closes_its_pool(self, spec):
        result = ShardedCampaignRunner(
            TrialTask(), 60, seed=3, chunk_size=10, num_workers=2,
            executor=spec).run()
        assert result.sequences == 60
        assert _leftover_workers() == []

    @pytest.mark.parametrize("spec", SPECS)
    def test_failed_runner_closes_its_pool(self, spec):
        poison = ChunkPlan.build(7, 40, 10).entries[2].chunk_seed
        runner = ShardedCampaignRunner(
            FailingTask(poison_seed=poison), 40, seed=7, chunk_size=10,
            num_workers=2, executor=spec)
        with pytest.raises(ChunkExecutionError):
            runner.run()
        assert _leftover_workers() == []

    @pytest.mark.parametrize("spec", (None, "process"))
    def test_failed_runner_does_not_wait_for_busy_workers(self, spec):
        # The first chunk fails while both workers still hold slow
        # chunks: closing the pool terminates them instead of letting
        # the abandoned chunks run to completion.
        poison = ChunkPlan.build(7, 40, 10).entries[0].chunk_seed
        runner = ShardedCampaignRunner(
            SlowFailingTask(poison_seed=poison), 40, seed=7,
            chunk_size=10, num_workers=2, executor=spec)
        started = time.perf_counter()
        with pytest.raises(ChunkExecutionError):
            runner.run()
        assert time.perf_counter() - started < 3.0
        assert _leftover_workers() == []

    @pytest.mark.parametrize("spec", SPECS)
    def test_scheduler_close_releases_its_pool(self, spec):
        scheduler = CampaignScheduler(executor=spec, num_workers=2)
        job = scheduler.submit(TrialTask(), 60, seed=3, chunk_size=10)
        scheduler.run()
        assert job.result.sequences == 60
        scheduler.close()
        assert _leftover_workers() == []


class TestResolveExecutor:
    def test_none_keeps_historical_behaviour(self):
        # Inline for one worker, a process pool otherwise.
        assert isinstance(resolve_executor(None, 1), SerialExecutor)
        pool = resolve_executor(None, 4)
        assert isinstance(pool, PersistentProcessExecutor)
        assert pool.num_workers == 4

    def test_strings_and_instances(self):
        assert isinstance(resolve_executor("serial", 4), SerialExecutor)
        assert isinstance(resolve_executor("process", 4),
                          PersistentProcessExecutor)
        instance = SerialExecutor()
        assert resolve_executor(instance) is instance

    def test_any_object_with_submit_jobs_passes_through(self):
        class Custom:
            def submit_jobs(self, jobs):
                return iter(())

        custom = Custom()
        assert resolve_executor(custom) is custom

        class SubmitOnly:
            def submit(self, entries, task):
                return iter(())

        with pytest.raises(TypeError):
            resolve_executor(SubmitOnly())

    def test_kinds_are_serial_and_process(self):
        assert EXECUTOR_KINDS == ("serial", "process")

    @pytest.mark.parametrize("spec", ("thread", "thread-warm",
                                      "process-warm"))
    def test_removed_spellings_list_the_kinds(self, spec):
        with pytest.raises(ValueError, match="unknown executor") as excinfo:
            resolve_executor(spec, 2)
        assert str(EXECUTOR_KINDS) in str(excinfo.value)

    def test_rejects_unknown_specs(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("gpu", 2)
        with pytest.raises(TypeError):
            resolve_executor(42, 2)
