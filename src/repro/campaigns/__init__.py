"""Campaign orchestration: plan / executor / checkpoint / scheduler.

The paper validates the methodology with 10^8-sequence FPGA campaigns;
this package is the software path toward that scale, decomposed into
one layer per concern so each can evolve (and be swapped) alone:

* :mod:`repro.campaigns.plan` -- **what** to run: the deterministic
  chunk plan, pure immutable data derived from ``(root_seed,
  total_sequences, chunk_size)`` and nothing else -- the reason merged
  statistics are bit-identical for any executor and worker count;
* :mod:`repro.campaigns.executors` -- **where** chunks run: inline
  (:class:`~repro.campaigns.executors.SerialExecutor`) or on a
  persistent process pool
  (:class:`~repro.campaigns.executors.PersistentProcessExecutor`)
  whose workers, task tables and per-fingerprint state caches survive
  across calls and scheduler jobs until ``close()``, with failures
  wrapped as :class:`~repro.campaigns.executors.ChunkExecutionError`
  naming the chunk that died;
* :mod:`repro.campaigns.worker_cache` -- the worker-side memo behind
  every executor: seed-independent heavy state per task fingerprint
  (:class:`~repro.campaigns.worker_cache.WorkerStateCache`), rebuilt
  seed-dependent streams per chunk, bit-identity preserved;
* :mod:`repro.campaigns.checkpoints` -- **durability**: the JSON
  checkpoint store (header validation, atomic replace, interval-based
  flush policy) behind resume-after-interruption;
* :mod:`repro.campaigns.scheduler` -- the one orchestration path:
  :class:`~repro.campaigns.scheduler.CampaignScheduler` restores each
  job's checkpoint, emits its progress and merges its chunks, and
  interleaves jobs fair-share over one shared executor and memoizes
  merged results;
* :mod:`repro.campaigns.runner` -- the task protocol and the
  single-campaign facade:
  :class:`~repro.campaigns.runner.ShardedCampaignRunner` runs one
  campaign as a one-job scheduler;
* :mod:`repro.campaigns.stats` -- counter-based, O(1)-memory,
  mergeable campaign statistics;
* :mod:`repro.campaigns.seeding` -- SeedSequence-style deterministic
  seed-splitting (hash-derived child seeds, immune to the ``seed +
  offset`` aliasing class of bugs);
* :mod:`repro.campaigns.tasks` -- picklable task descriptions (the
  Fig. 8 FIFO validation campaign; the Fig. 10 correction-capability
  task lives with its driver in
  :mod:`repro.analysis.correction_capability`).

The legacy entry points (`repro.validation.campaign`,
`repro.analysis.correction_capability`) remain available as thin
wrappers over this subsystem.
"""

from repro.campaigns.stats import (
    InjectionRecord,
    StreamingCampaignStats,
    StreamingCampaignResult,
    injection_record_from_sequence,
)
from repro.campaigns.seeding import child_seed, spawn_seeds
from repro.campaigns.plan import (
    ChunkPlan,
    ChunkPlanEntry,
    default_chunk_size,
)
from repro.campaigns.executors import (
    ChunkExecutionError,
    ChunkExecutor,
    ChunkTiming,
    PersistentProcessExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.campaigns.worker_cache import WorkerStateCache
from repro.campaigns.checkpoints import CheckpointStore
from repro.campaigns.runner import (
    CampaignProgress,
    CampaignTask,
    ShardedCampaignRunner,
)
from repro.campaigns.scheduler import CampaignJob, CampaignScheduler
from repro.campaigns.tasks import FIFOValidationCampaignTask

__all__ = [
    "InjectionRecord",
    "StreamingCampaignStats",
    "StreamingCampaignResult",
    "injection_record_from_sequence",
    "child_seed",
    "spawn_seeds",
    "ChunkPlan",
    "ChunkPlanEntry",
    "ChunkExecutionError",
    "ChunkExecutor",
    "ChunkTiming",
    "SerialExecutor",
    "PersistentProcessExecutor",
    "WorkerStateCache",
    "resolve_executor",
    "CheckpointStore",
    "CampaignProgress",
    "CampaignTask",
    "CampaignJob",
    "CampaignScheduler",
    "ShardedCampaignRunner",
    "default_chunk_size",
    "FIFOValidationCampaignTask",
]
