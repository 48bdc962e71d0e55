"""Worker-side state cache behind every executor.

Building a chunk's bench pays for everything: the protected design
(circuit, chains, monitor bank), the engine instance with its
workspaces, the memoized GF(2) LUTs, and -- on the jit engine --
kernel warm-up.  The kernels have long out-scaled those fixed costs,
so every executor (:mod:`repro.campaigns.executors`) keeps one
:class:`WorkerStateCache` per worker *lifetime* and rebuilds only the
cheap seed-dependent wrappers per chunk.

The split is the determinism contract of this module:

* **seed-independent** state -- circuit construction, chain balancing,
  monitor bank, engine instances and their workspaces, syndrome and
  verdict LUTs, jit warm-up -- is built once per ``(worker,
  task.fingerprint())`` by :meth:`~repro.campaigns.runner.CampaignTask.\
build_worker_state` and memoized here;
* **seed-dependent** state -- the injector's LFSRs, the stimulus RNG,
  the pattern RNG -- is rebuilt every chunk from ``child_seed(
  chunk_seed, ...)`` by the task's ``run_chunk_on``.

Because chunk results then depend only on ``(task fingerprint,
chunk_seed, count)``, a reused state is bit-identical to a fresh one
for any worker count and any pool-reuse order (property-tested in
``tests/campaigns/test_worker_cache.py``).

Everything stored in this module outlives single chunks inside
long-lived worker processes, so the ``pickle`` repro-lint rule checks
*every* class defined here (not just ``CampaignTask`` subclasses) for
lambda/handle state.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Dict, NamedTuple

from repro.campaigns.seeding import child_seed
from repro.circuit.flipflop import FlopSnapshot

#: Default per-worker cap on cached task states.  Cached states hold
#: full designs plus engine workspaces, so an unbounded cache would
#: grow with every distinct task a long-lived worker ever serves.
DEFAULT_MAX_ENTRIES = 4


class ChunkTiming(NamedTuple):
    """Per-chunk setup-vs-compute split reported by every executor.

    ``setup_seconds`` is the worker-state build cost this chunk paid
    (zero on a cache hit -- that zero is the amortization being
    observable); ``compute_seconds`` is the chunk's actual simulation
    time, including the per-chunk reseed.  ``cache_hit`` says whether
    the worker served the chunk from warm state.
    """

    setup_seconds: float
    compute_seconds: float
    cache_hit: bool = False


def task_state_key(task: Any) -> str:
    """Cache/shipping key of a task: its fingerprint, never its id.

    ``task.fingerprint()`` is stable across processes and across
    equal-valued task objects; CPython ``id`` is neither (and a freed
    id can be reused by a *different* task mid-run).
    """
    return task.fingerprint()


class WorkerStateCache:
    """Memoized per-task worker state, keyed on ``task.fingerprint()``.

    One instance lives per worker process (or serial executor) for that
    worker's whole lifetime.  :meth:`lease` returns the cached state
    for a task, building it through the task's
    :meth:`~repro.campaigns.runner.CampaignTask.build_worker_state` on
    the first sighting; ``hits``/``misses``/``evictions`` make the
    amortization auditable.  Entries are evicted least-recently-used
    beyond ``max_entries`` -- cached states hold whole protected
    designs, so the cap bounds a long-lived worker's footprint.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._states: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, key: str) -> bool:
        return key in self._states

    def stats(self) -> Dict[str, int]:
        """Counters snapshot: hits, misses, evictions, size."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "size": len(self._states)}

    def lease(self, task: Any) -> "tuple[Any, float, bool]":
        """State for ``task``: ``(state, setup_seconds, cache_hit)``.

        ``setup_seconds`` is the build cost paid by *this* lease --
        zero on a hit.  The state may be ``None`` for tasks without
        shared state (the default ``build_worker_state``); such tasks
        are still memoized so repeat leases stay O(1).
        """
        key = task_state_key(task)
        if key in self._states:
            self._states.move_to_end(key)
            self.hits += 1
            return self._states[key], 0.0, True
        started = time.perf_counter()
        state = task.build_worker_state()
        setup = time.perf_counter() - started
        self.misses += 1
        self._states[key] = state
        while len(self._states) > self.max_entries:
            self._states.popitem(last=False)
            self.evictions += 1
        return state, setup, False

    def clear(self) -> None:
        """Drop every cached state (counters are kept)."""
        self._states.clear()


class FIFOChunkWorkspace:
    """Reusable Fig. 8 bench state for one FIFO-validation fingerprint.

    Owns the seed-independent heavy half of
    :class:`~repro.campaigns.tasks.FIFOValidationCampaignTask`'s chunk
    setup: the protected FIFO, the test bench (whose reference FIFO is
    built on first use), and (lazily, via the design's keyed engine
    cache) the engine instance with its workspaces.  :meth:`reseed` is
    the only place a bench is seeded; it makes the bench
    indistinguishable from a freshly built one for the given chunk
    seed:

    * every flip-flop of the DUT and the scan padding is forced back to
      its pristine construction snapshot (power on, master and
      retention values) -- the scan-padding flops matter most, because
      injections can corrupt them and no test-bench stage ever resets
      them.  The reference FIFO needs no restoring: it is never gated
      or injected, and ``FIFOTestbench.run_sequence``, its only
      reader, resets it first;
    * the power controller and power domain are rebuilt (their state
      machines and unbounded transition/wake logs must not leak
      across chunks -- nor survive a chunk that died mid-sleep);
    * the injector is rebuilt from ``child_seed(chunk_seed, "lfsr")``
      and the stimulus stream reseeded from ``child_seed(chunk_seed,
      "stimulus")``;
    * the corrector's event list is cleared.

    What deliberately survives: the design's engine cache (and with it
    the engine's workspaces and process-wide LUT memos) -- that is the
    amortization this class exists for.
    """

    def __init__(self, task: Any):
        self.task = task
        self.design, self.testbench = task._build_bench()
        if task.engine == "jit":
            # Pay kernel load/compile once per worker lifetime, inside
            # setup, never inside a timed chunk.
            from repro.engines.jit import warm_up_kernels
            warm_up_kernels()
        # Checked once here, so every reseed restores without checks.
        self._pristine = FlopSnapshot(
            list(self.design.circuit.registers) + self.design._padding)
        self.chunks_run = 0

    def reseed(self, chunk_seed: int) -> None:
        """Restore the bench to its as-built state, seeded for one chunk.

        The flops go back to the ``(q, retention)`` pairs captured and
        checked when the workspace was built; they are not checked
        again per chunk.
        """
        from repro.core.controller import MonitoredPowerGatingController
        from repro.faults.injector import ScanErrorInjector
        from repro.power.domain import PowerDomain

        design = self.design
        self._pristine.restore()
        design.controller = MonitoredPowerGatingController()
        # The task builds its design with default power-domain
        # configuration (no switches/rlc/upset-model override), so a
        # default-rebuilt domain is identical to a freshly built one.
        design.domain = PowerDomain(design.circuit)
        design.injector = ScanErrorInjector(
            design.chains, lfsr_seed=child_seed(chunk_seed, "lfsr"))
        design.corrector.clear()
        self.testbench.stimulus.reset(
            seed=child_seed(chunk_seed, "stimulus"))
        self.chunks_run += 1


__all__ = [
    "ChunkTiming",
    "DEFAULT_MAX_ENTRIES",
    "FIFOChunkWorkspace",
    "WorkerStateCache",
    "task_state_key",
]
