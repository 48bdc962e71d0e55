"""Sharded, chunked campaign execution with checkpoint/resume.

The paper's validation campaigns run 10^8 test sequences; the sharded
runner brings the software reproduction toward that scale by splitting
a campaign into fixed-size **chunks** and fanning the chunks out over
an executor.  This module defines the task protocol
(:class:`CampaignTask`), the progress event (:class:`CampaignProgress`)
and the single-campaign facade (:class:`ShardedCampaignRunner`); the
mechanics live in one layer each --

* :mod:`repro.campaigns.plan` -- the deterministic chunk plan, pure
  immutable data derived from ``(root_seed, total_sequences,
  chunk_size)`` alone (never the worker count), which is why the
  merged statistics are **bit-identical for any executor and any
  number of workers**;
* :mod:`repro.campaigns.executors` -- where chunks run: inline, or on
  a persistent process pool (tasks shipped once per worker, worker
  state built once per task), with failures wrapped as
  :class:`~repro.campaigns.executors.ChunkExecutionError` naming the
  chunk that died;
* :mod:`repro.campaigns.checkpoints` -- the JSON checkpoint: header
  validation, atomic replace, and the ``save_interval`` flush policy
  (plus a final flush -- also on the way out of a failed run, so a
  fixed run resumes from everything that completed);
* :mod:`repro.campaigns.scheduler` -- the one orchestration path:
  campaign jobs (checkpoint restore, progress, merge) multiplexed
  fair-share over one shared executor, with result memoization.  The
  runner is a one-job scheduler.

Work is described by a :class:`CampaignTask`: a small picklable object
that knows how to run one chunk from one chunk seed.  Tasks build
their (unpicklable) simulation state -- test benches, protected
designs -- in ``build_worker_state``, in the worker.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.campaigns.executors import ChunkExecutionError, ChunkExecutor
from repro.campaigns.plan import (
    ChunkPlan,
    default_chunk_size,
    resolve_chunk_size,
)
from repro.campaigns.seeding import child_seed


class CampaignTask:
    """Picklable description of a campaign's unit of work.

    Subclasses implement :meth:`run_chunk_on` and :meth:`empty_result`,
    and override :meth:`build_worker_state` when chunks share heavy
    state; results must be mergeable counter objects exposing
    ``merge``, ``to_dict`` and a ``from_dict`` classmethod (see
    :mod:`repro.campaigns.stats`).  Keep task fields down to plain
    primitives so the task pickles cheaply to worker processes; any
    heavyweight simulation state belongs in :meth:`build_worker_state`.
    """

    def build_worker_state(self) -> Any:
        """Seed-independent heavy state reused across chunks.

        Every executor calls this once per ``(worker, fingerprint())``
        and memoizes the result in a
        :class:`~repro.campaigns.worker_cache.WorkerStateCache`; the
        state is then passed to every :meth:`run_chunk_on` call that
        worker serves for this task.  Only **seed-independent** work
        belongs here (circuit construction, engine instances, LUTs,
        kernel warm-up) -- anything derived from a chunk seed belongs
        in :meth:`run_chunk_on`.  The default returns ``None``.
        """
        return None

    def run_chunk_on(self, state: Any, chunk_seed: int,
                     num_sequences: int) -> Any:
        """Run ``num_sequences`` sequences seeded from ``chunk_seed`` on
        worker ``state``.

        The result must depend only on ``(self, chunk_seed,
        num_sequences)``, whatever ``state`` served before -- including
        a previous chunk that raised mid-flight -- which in practice
        means deriving every random stream from ``chunk_seed`` and
        restoring any mutated simulation state before running.
        """
        raise NotImplementedError

    def run_chunk(self, chunk_seed: int, num_sequences: int) -> Any:
        """Run one chunk on freshly built worker state."""
        return self.run_chunk_on(self.build_worker_state(), chunk_seed,
                                 num_sequences)

    def empty_result(self) -> Any:
        """A zero-valued result object (the merge identity)."""
        raise NotImplementedError

    def result_from_dict(self, payload: Dict[str, Any]) -> Any:
        """Rebuild one chunk result from its checkpointed dict form."""
        return type(self.empty_result()).from_dict(payload)

    def fingerprint(self) -> str:
        """Identity string stored in checkpoints and cache keys.

        A resumed run refuses a checkpoint whose fingerprint differs,
        and the scheduler's result cache keys on it, so statistics
        from one campaign configuration are never merged into (or
        served for) another.  Dataclass tasks get a faithful default
        from ``repr``.
        """
        return repr(self)

    def chunk_granularity(self) -> int:
        """Preferred multiple for the runner's *default* chunk size.

        Tasks whose chunks have internal structure (e.g. batch-engine
        passes of ``batch_size`` sequences) return that size here, and
        the runner rounds its default chunk size up to a multiple of it
        -- otherwise a small campaign's default ~total/64 chunks would
        silently truncate every batch.  An explicitly passed
        ``chunk_size`` is always respected as-is.
        """
        return 1


@dataclass(frozen=True)
class CampaignProgress:
    """Progress snapshot passed to the runner's callback.

    ``elapsed`` and ``sequences_restored`` are filled in by the parent
    process (no worker cooperation involved): ``elapsed`` is wall time
    since ``run()`` started, and restored-from-checkpoint sequences are
    excluded from the throughput estimate so a resumed campaign does
    not report an impossible rate.

    ``setup_seconds``/``compute_seconds`` are the campaign's cumulative
    worker-side setup-vs-compute split, from the per-chunk
    :class:`~repro.campaigns.worker_cache.ChunkTiming` every executor
    publishes.  ``setup_seconds`` stops growing once every worker has
    built the task's state -- that plateau is the amortization being
    observable.
    """

    chunk_index: int
    chunks_completed: int
    num_chunks: int
    sequences_completed: int
    total_sequences: int
    from_checkpoint: bool = False
    elapsed: float = 0.0
    sequences_restored: int = 0
    setup_seconds: float = 0.0
    compute_seconds: float = 0.0

    @property
    def fraction(self) -> float:
        """Completed fraction of the campaign, in [0, 1]."""
        return self.sequences_completed / self.total_sequences

    @property
    def sequences_per_second(self) -> float:
        """Throughput of *this run* (checkpoint-restored work excluded)."""
        executed = self.sequences_completed - self.sequences_restored
        if self.elapsed <= 0.0 or executed <= 0:
            return 0.0
        return executed / self.elapsed

    @property
    def eta_seconds(self) -> Optional[float]:
        """Estimated seconds to completion, or ``None`` before any
        throughput signal exists."""
        rate = self.sequences_per_second
        if rate <= 0.0:
            return None
        return (self.total_sequences - self.sequences_completed) / rate


ProgressCallback = Callable[[CampaignProgress], None]


class ShardedCampaignRunner:
    """Fan one campaign out over an executor, deterministically.

    Parameters
    ----------
    task:
        The :class:`CampaignTask` describing one chunk's work.
    total_sequences:
        Campaign size in test sequences.
    seed:
        Campaign root seed (int or str).  Chunk seeds are spawned from
        it via :mod:`repro.campaigns.seeding`; equal ``(seed,
        total_sequences, chunk_size)`` triples give bit-identical
        results for **any** ``num_workers`` and any executor.  ``None``
        draws a random root (recorded in the checkpoint so a resume
        stays coherent).
    num_workers:
        Worker count; with the default ``executor=None``, ``1`` runs
        inline (no pool).
    chunk_size:
        Sequences per chunk; defaults to
        :func:`~repro.campaigns.plan.default_chunk_size` rounded to the
        task's granularity.  This is the determinism granularity *and*
        the checkpoint granularity -- do not change it between a run
        and its resume.
    checkpoint_path:
        Optional JSON file owned by a
        :class:`~repro.campaigns.checkpoints.CheckpointStore`.  An
        existing file is validated against the campaign parameters and
        its chunks are not re-run.
    progress_callback:
        Called in the parent after each chunk with a
        :class:`CampaignProgress` (including elapsed/rate/ETA fields).
    start_method:
        ``multiprocessing`` start method for a process pool; default
        prefers ``fork`` and falls back to ``spawn``.
    executor:
        ``None`` (inline for one worker, a process pool otherwise), an
        :data:`~repro.campaigns.executors.EXECUTOR_KINDS` string sized
        by ``num_workers``, or a
        :class:`~repro.campaigns.executors.ChunkExecutor` instance.
        A pool the runner resolved from ``None`` or a string is closed
        when :meth:`run` returns or raises; an instance is left to its
        owner.
    save_interval:
        Checkpoint flush policy: rewrite the payload every this many
        completed chunks (default 1, the historical write-per-chunk
        behaviour) plus one final flush.  See
        :class:`~repro.campaigns.checkpoints.CheckpointStore`.
    """

    def __init__(self, task: CampaignTask, total_sequences: int,
                 seed: Optional[Union[int, str]] = None,
                 num_workers: int = 1,
                 chunk_size: Optional[int] = None,
                 checkpoint_path: Optional[str] = None,
                 progress_callback: Optional[ProgressCallback] = None,
                 start_method: Optional[str] = None,
                 executor: "ChunkExecutor | str | None" = None,
                 save_interval: int = 1):
        if total_sequences <= 0:
            raise ValueError("the campaign needs at least one sequence")
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if save_interval < 1:
            raise ValueError("save_interval must be >= 1")
        self.task = task
        self.total_sequences = total_sequences
        self.num_workers = num_workers
        self.chunk_size = resolve_chunk_size(
            total_sequences, chunk_size,
            granularity=max(1, task.chunk_granularity()))
        self.checkpoint_path = checkpoint_path
        self.progress_callback = progress_callback
        self.save_interval = save_interval
        self._start_method = start_method
        self._executor_spec = executor
        self._seed = seed
        self._root = self._resolve_root(seed)

    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_root(seed: Optional[Union[int, str]]) -> Union[int, str]:
        if seed is None:
            return random.SystemRandom().getrandbits(64)
        return seed

    @property
    def root_seed(self) -> Union[int, str]:
        """The effective campaign root seed: drawn when ``seed=None``,
        and after :meth:`run` resumed such a campaign, the root its
        checkpoint recorded."""
        return self._root

    @property
    def num_chunks(self) -> int:
        """Number of chunks in the campaign plan."""
        return math.ceil(self.total_sequences / self.chunk_size)

    def plan(self) -> ChunkPlan:
        """The campaign's :class:`~repro.campaigns.plan.ChunkPlan`."""
        return ChunkPlan.build(self._root, self.total_sequences,
                               self.chunk_size)

    def plan_chunks(self) -> List[Tuple[int, int, int]]:
        """The deterministic chunk plan: ``(index, chunk_seed, count)``.

        Only the final chunk may be short.  The plan is a pure function
        of ``(root_seed, total_sequences, chunk_size)``; see
        :class:`~repro.campaigns.plan.ChunkPlan`.
        """
        return list(self.plan().entries)

    def run(self) -> Any:
        """Execute the campaign and return the merged statistics.

        The campaign is the only job of a one-job
        :class:`~repro.campaigns.scheduler.CampaignScheduler`, which
        restores the checkpoint, emits progress and merges the chunks.
        """
        # Imported here: the scheduler module imports this one.
        from repro.campaigns.scheduler import CampaignScheduler

        with CampaignScheduler(self._executor_spec, self.num_workers,
                               start_method=self._start_method
                               ) as scheduler:
            job = scheduler._submit_plan(
                self.task, self.plan(),
                adopt_recorded_seed=self._seed is None,
                checkpoint_path=self.checkpoint_path,
                save_interval=self.save_interval,
                progress_callback=self.progress_callback)
            try:
                scheduler.run()
            finally:
                self._root = job.root_seed
        return job.result


__all__ = [
    "CampaignTask",
    "CampaignProgress",
    "ChunkExecutionError",
    "ShardedCampaignRunner",
    "default_chunk_size",
    "child_seed",
]
