"""The campaign task protocol and its progress event.

The paper's validation campaigns run 10^8 test sequences; the
reproduction gets toward that scale by splitting a campaign into
fixed-size **chunks** and fanning the chunks out over an executor.
This module defines what a chunk's work is (:class:`CampaignTask`) and
what a running campaign reports (:class:`CampaignProgress`); the
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
  fair-share over one shared executor, with result memoization, and
  :func:`~repro.campaigns.scheduler.run_sharded_campaign`, its
  one-call form for a single campaign.

Work is described by a :class:`CampaignTask`: a small picklable
dataclass that knows how to run one chunk from one chunk seed.  Tasks
build their (unpicklable) simulation state -- test benches, protected
designs -- in ``build_worker_state``, in the worker.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Dict, Optional


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
        served for) another.  It is ``Type(name=value!r, ...)`` over
        every dataclass field -- ``field(repr=False)`` ones included --
        which for a task with default reprs is its ``repr``.  A task
        that is not a dataclass has no fields to build it from.
        """
        if not is_dataclass(self):
            raise TypeError(
                f"{type(self).__qualname__} is not a dataclass: a "
                f"campaign task's fingerprint is built from its "
                f"dataclass fields")
        values = ", ".join(f"{field.name}={getattr(self, field.name)!r}"
                           for field in fields(self))
        return f"{type(self).__qualname__}({values})"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "fingerprint" in vars(cls):
            raise TypeError(
                f"{cls.__qualname__} defines fingerprint(): a campaign "
                f"task's identity is built from its dataclass fields, "
                f"so that every field reaches it")

    def chunk_granularity(self) -> int:
        """Preferred multiple for the *default* chunk size.

        Tasks whose chunks have internal structure (e.g. batch-engine
        passes of ``batch_size`` sequences) return that size here, and
        the scheduler rounds its default chunk size up to a multiple of it
        -- otherwise a small campaign's default ~total/64 chunks would
        silently truncate every batch.  An explicitly passed
        ``chunk_size`` is always respected as-is.
        """
        return 1


@dataclass(frozen=True)
class CampaignProgress:
    """Progress snapshot passed to a campaign's progress callback.

    ``elapsed`` and ``sequences_restored`` are filled in by the parent
    process (no worker cooperation involved): ``elapsed`` is wall time
    since the scheduler's ``run()`` started, and restored-from-checkpoint
    sequences are excluded from the throughput estimate so a resumed
    campaign does not report an impossible rate.

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


__all__ = [
    "CampaignTask",
    "CampaignProgress",
    "ProgressCallback",
]
