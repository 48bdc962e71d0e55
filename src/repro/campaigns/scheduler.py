"""Scheduler layer: many campaigns over one shared executor.

The campaign-as-a-service direction needs exactly three things on top
of the plan/executor/checkpoint layers: a **job queue** (many ``(task,
total_sequences, seed)`` campaigns in flight at once), **fair-share
dispatch** (a huge batch sweep must not starve small interactive
queries -- pending chunks are interleaved round-robin across jobs, one
chunk from each job in turn, over one shared executor), and a **result
cache** (merged statistics memoized on ``(task.fingerprint(),
root_seed, total_sequences, chunk_size)``, so a repeated request for
the same curve returns without executing a single chunk).
:class:`CampaignScheduler` is those three things, and it is the only
orchestration path: each :class:`CampaignJob` restores its checkpoint,
emits its progress and merges its chunks, and
:class:`~repro.campaigns.runner.ShardedCampaignRunner` runs one
campaign as a one-job scheduler.  A job's merged result depends only on
its own :class:`~repro.campaigns.plan.ChunkPlan`, never on what it was
interleaved with.

Typical use::

    with CampaignScheduler(num_workers=4) as scheduler:
        single = scheduler.submit(single_task, 10**6, seed=1)
        burst = scheduler.submit(burst_task, 10**6, seed=2)
        scheduler.run()              # both campaigns share the pool
    single.result, burst.result      # merged statistics per job
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.campaigns.checkpoints import CHECKPOINT_FORMAT, CheckpointStore
from repro.campaigns.executors import ChunkExecutor, resolve_executor
from repro.campaigns.plan import ChunkPlan, resolve_chunk_size
from repro.campaigns.runner import (
    CampaignProgress,
    CampaignTask,
    ProgressCallback,
)

#: Memoization key of one campaign's merged result.
CacheKey = Tuple[str, Union[int, str], int, int]


class CampaignJob:
    """One submitted campaign: its plan, its state, and its result.

    Created by :meth:`CampaignScheduler.submit`; after
    :meth:`CampaignScheduler.run` returns, :attr:`result` holds the
    merged statistics.  ``from_cache`` is True when the scheduler
    served the result from its memo without executing any chunk.
    """

    def __init__(self, job_id: int, task: CampaignTask, plan: ChunkPlan,
                 checkpoint_path: Optional[str], save_interval: int,
                 progress_callback: Optional[ProgressCallback],
                 adopt_recorded_seed: bool = False):
        self.job_id = job_id
        self.task = task
        self.plan = plan
        self.progress_callback = progress_callback
        self.store = CheckpointStore(checkpoint_path,
                                     save_interval=save_interval)
        self.completed: Dict[int, Any] = {}
        self.result: Any = None
        self.done = False
        self.from_cache = False
        #: Cumulative worker-side setup/compute seconds of this job's
        #: chunks, as the executor reports them per chunk.
        self.setup_seconds = 0.0
        self.compute_seconds = 0.0
        #: A job submitted with ``seed=None`` resumes under the root
        #: seed its checkpoint recorded, not the one drawn at submit.
        self._adopt_recorded_seed = adopt_recorded_seed
        self._counts = plan.counts()
        self._restored = 0
        self._started = 0.0

    @property
    def cache_key(self) -> CacheKey:
        return (self.task.fingerprint(),) + self.plan.identity

    @property
    def root_seed(self) -> Union[int, str]:
        """The job's effective campaign root seed."""
        return self.plan.root_seed

    @property
    def sequences_completed(self) -> int:
        return sum(self._counts[i] for i in self.completed)

    def _header(self) -> Dict[str, Any]:
        return {
            "format": CHECKPOINT_FORMAT,
            "total_sequences": self.plan.total_sequences,
            "chunk_size": self.plan.chunk_size,
            "root_seed": self.plan.root_seed,
            "task": self.task.fingerprint(),
        }

    def _restore(self) -> None:
        """Load this job's checkpoint (validated) and adopt its chunks."""
        payload = self.store.load_payload()
        if payload is not None:
            if self._adopt_recorded_seed and "root_seed" in payload:
                self.plan = ChunkPlan.build(payload["root_seed"],
                                            self.plan.total_sequences,
                                            self.plan.chunk_size)
                self._counts = self.plan.counts()
            try:
                self.store.validate(payload, self._header())
            except ValueError as exc:
                raise ValueError(
                    f"checkpoint {self.store.path!r} {exc}") from None
            completed = self.store.restore_completed(
                payload, self.task.result_from_dict)
            unknown = set(completed) - set(self._counts)
            if unknown:
                raise ValueError(
                    f"checkpoint {self.store.path!r} contains chunks "
                    f"outside the campaign plan: {sorted(unknown)}")
            self.completed = completed
        self._restored = self.sequences_completed
        self.store.attach(self._header(), self.completed)

    def _progress(self, chunk_index: int,
                  from_checkpoint: bool = False) -> CampaignProgress:
        return CampaignProgress(
            chunk_index=chunk_index,
            chunks_completed=len(self.completed),
            num_chunks=self.plan.num_chunks,
            sequences_completed=self.sequences_completed,
            total_sequences=self.plan.total_sequences,
            from_checkpoint=from_checkpoint,
            elapsed=time.perf_counter() - self._started,
            sequences_restored=self._restored,
            setup_seconds=self.setup_seconds,
            compute_seconds=self.compute_seconds)

    def _emit(self, chunk_index: int, from_checkpoint: bool = False) -> None:
        if self.progress_callback is not None:
            self.progress_callback(self._progress(chunk_index,
                                                  from_checkpoint))

    def _merge(self) -> Any:
        merged = self.task.empty_result()
        for index in sorted(self.completed):
            merged.merge(self.completed[index])
        return merged


class CampaignScheduler:
    """Run many campaign jobs fair-share over one shared executor.

    Parameters
    ----------
    executor:
        ``None`` (inline for ``num_workers == 1``, a process pool
        otherwise), an executor-kind string, or a
        :class:`~repro.campaigns.executors.ChunkExecutor`; every job
        submitted to this scheduler shares it.  Every ``run()`` round
        -- and every job within a round -- reuses one pool with its
        worker-side state caches (close with :meth:`close` or use the
        scheduler as a context manager).  A pre-built executor can
        also be passed in to share one pool across several
        schedulers/runners; its lifecycle then stays with the caller.
    num_workers, start_method:
        Sizing of the default/string-spec executor, as in
        :class:`~repro.campaigns.runner.ShardedCampaignRunner`.
    save_interval:
        Default checkpoint flush interval for jobs that do not pass
        their own (see :class:`~repro.campaigns.checkpoints.\
CheckpointStore`).

    Calling :meth:`run` executes every submitted-but-unfinished job's
    pending chunks, interleaved round-robin (chunk 0 of job A, chunk 0
    of job B, chunk 1 of job A, ...), so all jobs make proportional
    progress no matter how lopsided their sizes -- no job starves.
    Finished results are memoized; submitting an identical campaign
    (same task fingerprint, root seed, total and chunk size) again
    marks the job ``from_cache`` and :meth:`run` completes it without
    executing any chunk.
    """

    def __init__(self, executor: "ChunkExecutor | str | None" = None,
                 num_workers: int = 1,
                 start_method: Optional[str] = None,
                 save_interval: int = 1):
        # An executor resolved from a spec (None or a kind string) is
        # this scheduler's to tear down in close(); a pre-built
        # instance -- e.g. one warm pool shared between schedulers --
        # belongs to the caller.
        self._owns_executor = executor is None or isinstance(executor, str)
        self._executor = resolve_executor(executor, num_workers,
                                          start_method=start_method)
        self._save_interval = save_interval
        self._jobs: List[CampaignJob] = []
        self._cache: Dict[CacheKey, Any] = {}

    @property
    def executor(self) -> ChunkExecutor:
        """The shared executor every job fans out over."""
        return self._executor

    @property
    def jobs(self) -> Tuple[CampaignJob, ...]:
        """Every job ever submitted, in submission order."""
        return tuple(self._jobs)

    # ------------------------------------------------------------------
    def submit(self, task: CampaignTask, total_sequences: int,
               seed: Optional[Union[int, str]] = None,
               chunk_size: Optional[int] = None,
               checkpoint_path: Optional[str] = None,
               save_interval: Optional[int] = None,
               progress_callback: Optional[ProgressCallback] = None
               ) -> CampaignJob:
        """Queue one campaign; returns its :class:`CampaignJob`.

        Parameters mirror the runner's constructor.  ``seed=None``
        draws a random root (such jobs can never hit the cache); when
        the job's checkpoint already exists, the job adopts the root
        recorded there, so the resume continues the same plan.  The
        job does not execute until :meth:`run`.
        """
        root = (random.SystemRandom().getrandbits(64)
                if seed is None else seed)
        size = resolve_chunk_size(total_sequences, chunk_size,
                                  granularity=max(
                                      1, task.chunk_granularity()))
        return self._submit_plan(
            task, ChunkPlan.build(root, total_sequences, size),
            adopt_recorded_seed=seed is None,
            checkpoint_path=checkpoint_path, save_interval=save_interval,
            progress_callback=progress_callback)

    def _submit_plan(self, task: CampaignTask, plan: ChunkPlan,
                     adopt_recorded_seed: bool,
                     checkpoint_path: Optional[str],
                     save_interval: Optional[int],
                     progress_callback: Optional[ProgressCallback]
                     ) -> CampaignJob:
        """Queue one campaign whose plan is already built (the
        runner's entry: it fixes the plan at construction time)."""
        job = CampaignJob(
            job_id=len(self._jobs), task=task, plan=plan,
            checkpoint_path=checkpoint_path,
            save_interval=(self._save_interval if save_interval is None
                           else save_interval),
            progress_callback=progress_callback,
            adopt_recorded_seed=adopt_recorded_seed)
        if job.cache_key in self._cache:
            # Serve a private copy rebuilt through the task's own
            # serialization, so one client mutating its result cannot
            # corrupt the memo (or another client's copy).
            job.result = task.result_from_dict(
                self._cache[job.cache_key].to_dict())
            job.done = True
            job.from_cache = True
        self._jobs.append(job)
        return job

    def run(self) -> List[Any]:
        """Execute all unfinished jobs; return every job's result,
        in submission order (cached jobs included)."""
        active = [job for job in self._jobs if not job.done]
        for job in active:
            job._started = time.perf_counter()
            job._restore()
            if job.completed:
                job._emit(max(job.completed), from_checkpoint=True)

        # Fair-share dispatch order: one pending chunk from each
        # active job per round.  Executors consume jobs in submission
        # order, so every job advances proportionally.  The feed is a
        # generator: streaming executors pull rounds into their
        # bounded window as capacity frees up, so a huge job mix is
        # never materialized as one flat list.
        queues = [(job, job.plan.pending(job.completed)) for job in active]

        def interleaved():
            round_index = 0
            while True:
                emitted = False
                for job, pending in queues:
                    if round_index < len(pending):
                        yield (job, pending[round_index], job.task)
                        emitted = True
                if not emitted:
                    return
                round_index += 1

        try:
            for job, index, result in self._executor.submit_jobs(
                    interleaved()):
                timing = self._executor.last_chunk_timing
                job.setup_seconds += timing.setup_seconds
                job.compute_seconds += timing.compute_seconds
                job.store.record(index, result)
                job._emit(index)
        finally:
            for job in active:
                job.store.flush()

        for job in active:
            if len(job.completed) == job.plan.num_chunks:
                job.result = job._merge()
                job.done = True
                self._cache[job.cache_key] = job.task.result_from_dict(
                    job.result.to_dict())
        return [job.result for job in self._jobs]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the scheduler's executor, if the scheduler owns it.

        ``run()`` deliberately does **not** tear the executor down --
        later ``submit``/``run`` rounds reuse the hot pool.  Call this
        (or use the scheduler as a context manager) when the scheduler
        is done for good.  Executors passed in as pre-built instances
        are left running for their owner.
        """
        if self._owns_executor:
            self._executor.close()

    def __enter__(self) -> "CampaignScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


__all__ = ["CampaignJob", "CampaignScheduler"]
