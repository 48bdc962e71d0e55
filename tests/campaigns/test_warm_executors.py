"""Persistent executors: lifecycle, pool reuse, incremental task
shipping, streaming backpressure, failure containment, the pipe
transport's chaos cases, and the bit-identity acceptance invariant
(pool == serial)."""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.analysis.correction_capability import CorrectionCounters
from repro.campaigns.executors import (
    ChunkExecutionError,
    PersistentProcessExecutor,
    resolve_executor,
)
from repro.campaigns.plan import ChunkPlan
from repro.campaigns.runner import CampaignTask, ShardedCampaignRunner
from repro.campaigns.scheduler import CampaignScheduler
from repro.campaigns.tasks import FIFOValidationCampaignTask

WORKER_COUNTS = (1, 2, 4)


@dataclass
class TrialTask(CampaignTask):
    """Cheap deterministic task for exercising pool mechanics."""

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
class DyingTask(TrialTask):
    """Kills its whole worker process on the poisoned chunk."""

    poison_seed: int = -1

    def run_chunk_on(self, state, chunk_seed, num_sequences):
        if chunk_seed == self.poison_seed:
            os._exit(13)
        return super().run_chunk_on(state, chunk_seed, num_sequences)


@dataclass
class SleepyTask(TrialTask):
    """Writes its worker's pid to ``pid_path``, then sleeps, on the
    chunk whose seed hits ``slow_seed``: a busy worker to kill from
    outside."""

    pid_path: str = ""
    slow_seed: int = -1

    def run_chunk_on(self, state, chunk_seed, num_sequences):
        if chunk_seed == self.slow_seed:
            Path(self.pid_path + ".tmp").write_text(str(os.getpid()))
            os.replace(self.pid_path + ".tmp", self.pid_path)
            time.sleep(60)
        return super().run_chunk_on(state, chunk_seed, num_sequences)


#: More than a Linux pipe buffer (64 KiB by default).
BULK = 1 << 20


@dataclass
class BulkyCounters(CorrectionCounters):
    ballast: str = ""


@dataclass
class BulkyTask(TrialTask):
    """A task and results whose pickles each exceed a pipe buffer."""

    ballast: str = "t" * BULK

    def run_chunk_on(self, state, chunk_seed, num_sequences):
        counters = super().run_chunk_on(state, chunk_seed, num_sequences)
        return BulkyCounters(sequences=counters.sequences,
                             corrected_bits=counters.corrected_bits,
                             ballast="r" * BULK)


@dataclass
class UnpicklableResultTask(TrialTask):
    """Returns a result that cannot cross the process boundary."""

    def run_chunk_on(self, state, chunk_seed, num_sequences):
        return lambda: num_sequences


def _sampler_task(mode: str) -> FIFOValidationCampaignTask:
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


def _warm_children():
    """Live warm-pool worker processes spawned by this process."""
    return [child for child in multiprocessing.active_children()
            if (child.name or "").startswith("repro-warm-worker")]


def _jobs(task, entries):
    """Untagged ``submit_jobs`` feed of one task's plan entries."""
    return ((None, entry, task) for entry in entries)


def _run(pool, task, total=60, seed=11, chunk=10):
    """One campaign through ``pool``; returns the merged counters."""
    entries = ChunkPlan.build(seed, total, chunk).entries
    merged = task.empty_result()
    completed = {index: result for _tag, index, result in
                 pool.submit_jobs(_jobs(task, entries))}
    for index in sorted(completed):
        merged.merge(completed[index])
    return merged


def _serial(task, total=60, seed=11, chunk=10):
    return ShardedCampaignRunner(task, total, seed=seed, chunk_size=chunk,
                                 executor="serial").run()


class TestLifecycle:
    def test_context_manager_tears_the_pool_down(self):
        with PersistentProcessExecutor(2) as pool:
            assert pool.alive_workers == 0  # lazy: nothing spawned yet
            _run(pool, TrialTask())
            assert pool.alive_workers == 2
        assert pool.alive_workers == 0
        assert _warm_children() == []

    def test_workers_start_on_demand(self):
        # One chunk in flight needs one worker, however large the pool.
        with PersistentProcessExecutor(8) as pool:
            assert _run(pool, TrialTask(), total=10, chunk=10) == \
                _serial(TrialTask(), total=10, chunk=10)
            assert pool.alive_workers == 1
        assert _warm_children() == []

    def test_close_is_final_and_idempotent(self):
        pool = PersistentProcessExecutor(1)
        _run(pool, TrialTask())
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            list(pool.submit_jobs(_jobs(
                TrialTask(), ChunkPlan.build(1, 10, 5).entries)))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PersistentProcessExecutor(0)
        assert PersistentProcessExecutor(1).window == 4
        assert PersistentProcessExecutor(3).window == 6


class TestPoolReuse:
    def test_workers_survive_across_submit_calls(self):
        with PersistentProcessExecutor(2) as pool:
            first = _run(pool, TrialTask())
            pids = sorted(r.process.pid for r in pool._workers.values())
            second = _run(pool, TrialTask(), seed=12)
            assert sorted(r.process.pid
                          for r in pool._workers.values()) == pids
            assert first == _serial(TrialTask())
            assert second == _serial(TrialTask(), seed=12)

    def test_task_ships_at_most_once_per_worker(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")

        class CountingTask(TrialTask):
            pickles = 0

            def __reduce__(self):
                CountingTask.pickles += 1
                return (TrialTask, (self.scale,))

        CountingTask.pickles = 0
        with PersistentProcessExecutor(2, start_method="fork") as pool:
            for seed in (21, 22, 23):
                _run(pool, CountingTask(), seed=seed)
        # Three submit_jobs calls of 6 chunks each historically meant
        # up to 18 task pickles; incremental shipping means one per
        # worker lifetime.
        assert CountingTask.pickles == 2

    def test_repeat_chunks_hit_the_worker_cache(self):
        with PersistentProcessExecutor(1) as pool:
            task = TrialTask()
            entries = ChunkPlan.build(5, 30, 10).entries
            first_call = []
            for _ in pool.submit_jobs(_jobs(task, entries)):
                first_call.append(pool.last_chunk_timing)
            second_call = []
            for _ in pool.submit_jobs(_jobs(task, entries)):
                second_call.append(pool.last_chunk_timing)
        # First sighting builds the state (a miss), everything after
        # is served warm with zero setup.
        assert [t.cache_hit for t in first_call] == [False, True, True]
        assert all(t.cache_hit for t in second_call)
        assert all(t.setup_seconds == 0.0 for t in second_call)


class TestBackpressure:
    def test_dispatch_never_outruns_the_window(self):
        class CountingFeed:
            def __init__(self, jobs):
                self.jobs = iter(jobs)
                self.pulled = 0

            def __iter__(self):
                return self

            def __next__(self):
                item = next(self.jobs)
                self.pulled += 1
                return item

        task = TrialTask()
        entries = ChunkPlan.build(9, 200, 10).entries  # 20 chunks
        with PersistentProcessExecutor(1) as pool:
            window = pool.window
            feed = CountingFeed((None, e, task) for e in entries)
            consumed = 0
            for _ in pool.submit_jobs(feed):
                consumed += 1
                # The lazy feed is topped up only as capacity frees:
                # a huge plan is never materialized into the pool.
                assert feed.pulled <= consumed + window
            assert consumed == len(entries)
            assert feed.pulled == len(entries)


class TestFailureContainment:
    def test_raised_chunk_leaves_the_pool_warm(self):
        plan = ChunkPlan.build(7, 40, 10)
        poison = plan.entries[2].chunk_seed
        with PersistentProcessExecutor(2) as pool:
            with pytest.raises(ChunkExecutionError) as excinfo:
                _run(pool, FailingTask(poison_seed=poison), total=40,
                     seed=7)
            assert "poisoned chunk" in (excinfo.value.worker_traceback
                                        or "")
            # Same pool, next campaign: still correct, nobody died.
            assert _run(pool, TrialTask()) == _serial(TrialTask())
            assert pool.alive_workers == 2
        assert _warm_children() == []

    def test_failure_names_the_chunk(self):
        plan = ChunkPlan.build(7, 40, 10)
        entry = plan.entries[2]
        with PersistentProcessExecutor(1) as pool:
            with pytest.raises(ChunkExecutionError) as excinfo:
                _run(pool, FailingTask(poison_seed=entry.chunk_seed),
                     total=40, seed=7)
        error = excinfo.value
        assert error.chunk_index == entry.index
        assert error.chunk_seed == entry.chunk_seed
        assert error.count == entry.count

    def test_dead_worker_is_reported_and_replaced(self):
        plan = ChunkPlan.build(7, 40, 10)
        poison = plan.entries[1].chunk_seed
        with PersistentProcessExecutor(2) as pool:
            with pytest.raises(ChunkExecutionError) as excinfo:
                _run(pool, DyingTask(poison_seed=poison), total=40,
                     seed=7)
            assert "worker process died" in str(excinfo.value)
            # The next call replaces the dead worker (cold cache) and
            # the pool is whole again.
            assert _run(pool, TrialTask()) == _serial(TrialTask())
            assert pool.alive_workers == 2


def _process_gone(pid):
    """True once ``pid`` has exited (a zombie nobody reaped counts)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:  # exited meanwhile, or a host without /proc
        return Path("/proc/self").exists()
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


class _Watchdog:
    """Fails the test, instead of hanging it, when a pool deadlocks:
    after ``seconds`` it terminates the pool's workers, which unblocks
    the parent, and the exit fails the test."""

    def __init__(self, pool, seconds=60.0):
        self.pool = pool
        self.seconds = seconds
        self.fired = False
        self._timer = threading.Timer(seconds, self._fire)

    def _fire(self):
        self.fired = True
        for record in list(self.pool._workers.values()):
            record.process.terminate()

    def __enter__(self):
        self._timer.start()
        return self

    def __exit__(self, *exc_info):
        self._timer.cancel()
        if self.fired:
            pytest.fail(f"the pool deadlocked: no progress in "
                        f"{self.seconds:.0f} s")


class TestPipeTransport:
    """Chaos cases of the pipe-pair transport, each run through the
    real scheduler (the sharded runner is a one-job scheduler)."""

    def test_worker_killed_from_outside_is_reported(self, tmp_path):
        plan = ChunkPlan.build(7, 40, 10)
        slow = plan.entries[1]
        pid_path = tmp_path / "busy.pid"
        task = SleepyTask(pid_path=str(pid_path),
                          slow_seed=slow.chunk_seed)

        def kill_the_busy_worker():
            deadline = time.monotonic() + 30.0
            while not pid_path.exists():
                if time.monotonic() > deadline:
                    return
                time.sleep(0.01)
            os.kill(int(pid_path.read_text()), signal.SIGKILL)

        killer = threading.Thread(target=kill_the_busy_worker)
        with PersistentProcessExecutor(2) as pool:
            killer.start()
            try:
                with pytest.raises(ChunkExecutionError) as excinfo:
                    ShardedCampaignRunner(task, 40, seed=7, chunk_size=10,
                                          executor=pool).run()
            finally:
                killer.join(timeout=60.0)
            assert not killer.is_alive()
            assert "worker process died (exit code -9)" in \
                str(excinfo.value)
            # The killed worker held the sleeping chunk, and answered
            # everything before it.
            assert excinfo.value.chunk_index == slow.index
            assert ShardedCampaignRunner(
                TrialTask(), 60, seed=11, chunk_size=10,
                executor=pool).run() == _serial(TrialTask())
            assert pool.alive_workers == pool.num_workers

    @pytest.mark.parametrize("workers", (1, 2))
    def test_messages_larger_than_a_pipe_buffer(self, workers):
        # Two tasks interleave on the scheduler, so a busy worker is
        # also owed a task pickle of a megabyte while its megabyte
        # replies wait to be read.
        tasks = (BulkyTask(), BulkyTask(scale=5))
        with PersistentProcessExecutor(workers) as pool:
            with _Watchdog(pool):
                with CampaignScheduler(executor=pool) as scheduler:
                    jobs = [scheduler.submit(task, 12, seed=3,
                                             chunk_size=1)
                            for task in tasks]
                    scheduler.run()
        for task, job in zip(tasks, jobs):
            assert job.result == _serial(task, total=12, seed=3, chunk=1)
            assert job.result.sequences == 12

    @pytest.mark.parametrize("start_method", ("fork", "spawn"))
    def test_start_methods_ship_the_pipes(self, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} start method unavailable")
        reference = _serial(TrialTask(), total=200, seed=99, chunk=13)
        with PersistentProcessExecutor(
                2, start_method=start_method) as pool:
            for _ in range(2):  # fresh, then reused
                assert ShardedCampaignRunner(
                    TrialTask(), 200, seed=99, chunk_size=13,
                    executor=pool).run() == reference
            assert pool.alive_workers == 2
        assert _warm_children() == []

    def test_workers_exit_when_the_parent_dies(self, tmp_path):
        script = (
            "import os, signal\n"
            "from repro.analysis.correction_capability import (\n"
            "    CorrectionCapabilityTask)\n"
            "from repro.campaigns.executors import "
            "PersistentProcessExecutor\n"
            "from repro.campaigns.runner import ShardedCampaignRunner\n"
            "pool = PersistentProcessExecutor(2)\n"
            "task = CorrectionCapabilityTask(code_n=7, code_k=4,\n"
            "    num_bits=1000, num_errors=2, engine='packed')\n"
            "ShardedCampaignRunner(task, 40, seed=1, chunk_size=10,\n"
            "                      executor=pool).run()\n"
            "print(*(r.process.pid for r in pool._workers.values()),\n"
            "      flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n")
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = tmp_path / "pids.txt"
        pids = []
        try:
            # Output goes to a file: orphaned workers that kept a pipe
            # open would stall a reader until they exit.
            with open(out, "w") as stdout:
                parent = subprocess.run([sys.executable, "-c", script],
                                        env=env, stdout=stdout,
                                        stderr=subprocess.DEVNULL,
                                        timeout=120)
            pids = [int(pid) for pid in out.read_text().split()]
            assert parent.returncode == -signal.SIGKILL
            assert len(pids) == 2
            deadline = time.monotonic() + 10.0
            while (not all(map(_process_gone, pids))
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert [pid for pid in pids if not _process_gone(pid)] == []
        finally:
            for pid in pids:
                if not _process_gone(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_unpicklable_result_fails_its_chunk(self):
        # The worker pickles its reply itself, so the failure comes
        # back as that chunk's traceback instead of a lost reply.
        with PersistentProcessExecutor(1) as pool:
            with _Watchdog(pool):
                with pytest.raises(ChunkExecutionError) as excinfo:
                    _run(pool, UnpicklableResultTask(), total=20)
            assert "pickle" in (excinfo.value.worker_traceback or "")
            assert _run(pool, TrialTask()) == _serial(TrialTask())
            assert pool.alive_workers == 1


class TestWarmBitIdentity:
    """Acceptance invariant: warm results are bit-identical to serial
    for 1/2/4 workers, on a fresh pool and on a reused one."""

    def test_trial_task_fresh_and_reused_pools(self):
        reference = _serial(TrialTask(), total=200, seed=99, chunk=13)
        for workers in WORKER_COUNTS:
            with PersistentProcessExecutor(workers) as pool:
                fresh = _run(pool, TrialTask(), total=200, seed=99,
                             chunk=13)
                reused = _run(pool, TrialTask(), total=200, seed=99,
                              chunk=13)
            assert fresh == reference, workers
            assert reused == reference, workers

    @pytest.mark.parametrize("mode", ("scalar", "batched", "array"))
    def test_sampler_modes_fresh_and_reused_pools(self, mode):
        if mode != "scalar":
            pytest.importorskip("numpy")
        task = _sampler_task(mode)
        reference = _serial(task, total=12, seed=20100308, chunk=4)
        assert reference.stats.num_sequences == 12
        for workers in WORKER_COUNTS:
            with PersistentProcessExecutor(workers) as pool:
                fresh = _run(pool, task, total=12, seed=20100308,
                             chunk=4)
                reused = _run(pool, task, total=12, seed=20100308,
                              chunk=4)
            assert fresh == reference, (mode, workers)
            assert reused == reference, (mode, workers)


class TestResolveWarmSpecs:
    def test_warm_kind_strings(self):
        pool = resolve_executor("process", 3)
        assert isinstance(pool, PersistentProcessExecutor)
        assert pool.num_workers == 3
        pool.close()

    def test_prebuilt_instances_pass_through(self):
        pool = PersistentProcessExecutor(2)
        try:
            assert resolve_executor(pool) is pool
        finally:
            pool.close()


class TestRunnerIntegration:
    def test_runner_with_warm_spec_closes_its_pool(self):
        result = ShardedCampaignRunner(
            TrialTask(), 200, seed=99, chunk_size=13, num_workers=2,
            executor="process").run()
        assert result == _serial(TrialTask(), total=200, seed=99,
                                 chunk=13)
        # The runner resolved the spec, so the runner closed the pool.
        assert _warm_children() == []

    def test_runner_leaves_prebuilt_pool_warm(self):
        with PersistentProcessExecutor(2) as pool:
            for seed in (1, 2):
                result = ShardedCampaignRunner(
                    TrialTask(), 60, seed=seed, chunk_size=10,
                    executor=pool).run()
                assert result == _serial(TrialTask(), seed=seed)
            # Caller-owned pool: still warm after both runs.
            assert pool.alive_workers == 2
        assert _warm_children() == []

    def test_progress_carries_the_setup_compute_split(self):
        task = _sampler_task("scalar")
        snapshots = []
        ShardedCampaignRunner(
            task, 12, seed=5, chunk_size=4, num_workers=1,
            executor="process",
            progress_callback=snapshots.append).run()
        final = snapshots[-1]
        # One worker built the workspace once (setup), then computed
        # every chunk: both halves of the split are visible.
        assert final.setup_seconds > 0.0
        assert final.compute_seconds > 0.0
        assert final.sequences_completed == 12


class TestSchedulerIntegration:
    def test_one_warm_pool_serves_many_jobs(self):
        with CampaignScheduler(executor="process",
                               num_workers=2) as scheduler:
            jobs = [scheduler.submit(TrialTask(), 60, seed=seed,
                                     chunk_size=10)
                    for seed in (31, 32, 33)]
            scheduler.run()
            for seed, job in zip((31, 32, 33), jobs):
                assert job.result == _serial(TrialTask(), seed=seed)
            pool = scheduler.executor
            assert pool.alive_workers == 2  # run() keeps the pool hot
            # A repeated identical campaign is served from the memo
            # without touching the pool.
            repeat = scheduler.submit(TrialTask(), 60, seed=31,
                                      chunk_size=10)
            assert repeat.from_cache
            assert repeat.result == jobs[0].result
        assert _warm_children() == []

    def test_back_to_back_rounds_reuse_the_pool(self):
        with CampaignScheduler(executor="process",
                               num_workers=1) as scheduler:
            scheduler.submit(TrialTask(), 60, seed=41, chunk_size=10)
            scheduler.run()
            pids = sorted(r.process.pid for r in
                          scheduler.executor._workers.values())
            scheduler.submit(TrialTask(), 60, seed=42, chunk_size=10)
            scheduler.run()
            assert sorted(
                r.process.pid for r in
                scheduler.executor._workers.values()) == pids

    def test_prebuilt_pool_is_left_to_its_owner(self):
        with PersistentProcessExecutor(1) as pool:
            with CampaignScheduler(executor=pool) as scheduler:
                scheduler.submit(TrialTask(), 60, seed=51,
                                 chunk_size=10)
                scheduler.run()
            # Scheduler closed; the caller's pool is untouched.
            assert pool.alive_workers == 1
        assert _warm_children() == []

    def test_jobs_accumulate_their_timing_split(self):
        task = _sampler_task("scalar")
        with CampaignScheduler(executor="process",
                               num_workers=1) as scheduler:
            job = scheduler.submit(task, 12, seed=6, chunk_size=4)
            scheduler.run()
        assert job.setup_seconds > 0.0
        assert job.compute_seconds > 0.0
