"""Executor layer: strategies for turning plan entries into results.

A :class:`ChunkExecutor` consumes :class:`~repro.campaigns.plan.\
ChunkPlanEntry` values and yields ``(index, result)`` pairs as chunks
complete -- in any order, because the merge is index-sorted downstream.
Executors own *where* chunks run and nothing else: the plan layer has
already fixed every seed and boundary, so any executor at any
concurrency produces bit-identical merged statistics for the same plan.

Every executor runs a chunk the same way: lease the task's
seed-independent state from a :class:`~repro.campaigns.worker_cache.\
WorkerStateCache` (built through ``task.build_worker_state()`` on first
sight) and call ``task.run_chunk_on(state, chunk_seed, count)``.  Two
implementations ship:

* :class:`SerialExecutor` -- inline in the calling thread, with one
  state cache for the executor's lifetime;
* :class:`PersistentProcessExecutor` -- long-lived worker processes;
  a task ships to a worker at most once per process lifetime, keyed on
  ``task.fingerprint()``, and each worker keeps its own state cache.

The pool is created on first use and survives across ``submit_jobs``
calls (and so across scheduler jobs) until ``close()``.  Dispatch
streams through a bounded in-flight window, so a 10^5-chunk plan never
materializes 10^5 job tuples.  After each yielded result,
``last_chunk_timing`` holds that chunk's
:class:`~repro.campaigns.worker_cache.ChunkTiming`.

The pool's transport is one pair of simplex pipes per worker: jobs go
down one, replies come back up the other, and both sides send and
receive synchronously on their own main thread (no queue, no feeder
thread).  The parent blocks in :func:`multiprocessing.connection.wait`
over the busy workers' result pipes and process sentinels, so a reply
is read the moment it is written and a dead worker is seen the moment
it dies.  Blocking sends in both directions could deadlock; the rule
that prevents it is that the parent never makes a write that can wait
on a busy worker (see :class:`PersistentProcessExecutor`).  Each
worker also waits on its parent's sentinel and exits when the parent
dies, so a killed parent leaves no worker behind.

Chunk failures surface as :class:`ChunkExecutionError` carrying the
failing chunk's index, seed and count (plus the worker traceback for
the process pool), so a 10^7-sequence campaign names the chunk that
died and a resume can re-run exactly that work.  A failed chunk does
not poison the pool: the pool survives, stale in-flight results are
discarded by epoch, and a worker that died is replaced when next
needed.

The one entry point is ``submit_jobs``, which multiplexes entries from
*several* tasks over one executor; the scheduler
(:mod:`repro.campaigns.scheduler`) is its caller.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
import traceback
from collections import deque
from multiprocessing.reduction import ForkingPickler
from typing import (TYPE_CHECKING, Any, Deque, Dict, Iterable, Iterator, List,
                    Optional, Set, Tuple)

from repro.campaigns.plan import ChunkPlanEntry
from repro.campaigns.worker_cache import (
    ChunkTiming,
    WorkerStateCache,
    task_state_key,
)

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

try:  # pragma: no cover - typing nicety only
    from typing import Protocol
except ImportError:  # pragma: no cover - Python < 3.8
    Protocol = object  # type: ignore[assignment]

#: A scheduler job: an opaque tag, the plan entry to run, and the task
#: that runs it.  Tags come back attached to results so the caller can
#: route completions to the right campaign.
TaggedJob = Tuple[Any, ChunkPlanEntry, Any]


class ChunkExecutionError(RuntimeError):
    """A chunk of campaign work failed.

    Carries the failing chunk's plan coordinates -- ``chunk_index``,
    ``chunk_seed``, ``count`` -- so a failed multi-hour campaign says
    *which* chunk died (and therefore which seed reproduces the crash
    in isolation), plus ``worker_traceback`` when the failure happened
    in a worker process whose live traceback cannot cross the pickle
    boundary.  The original exception is chained as ``__cause__`` when
    it is available in-process.
    """

    def __init__(self, chunk_index: int, chunk_seed: int, count: int,
                 message: str,
                 worker_traceback: Optional[str] = None):
        detail = (f"chunk {chunk_index} (seed={chunk_seed}, "
                  f"count={count}) failed: {message}")
        if worker_traceback:
            detail += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(detail)
        self.chunk_index = chunk_index
        self.chunk_seed = chunk_seed
        self.count = count
        self.worker_traceback = worker_traceback

    @classmethod
    def wrap(cls, entry: ChunkPlanEntry,
             exc: BaseException) -> "ChunkExecutionError":
        """Wrap an in-process exception, preserving it as the cause."""
        error = cls(entry.index, entry.chunk_seed, entry.count,
                    f"{type(exc).__name__}: {exc}")
        error.__cause__ = exc
        return error


class ChunkExecutor(Protocol):
    """Protocol of the executor layer.

    ``submit_jobs`` runs tagged ``(tag, entry, task)`` jobs and yields
    ``(tag, index, result)`` triples as chunks complete (any order).
    Right after each yielded triple, ``last_chunk_timing`` holds that
    chunk's setup/compute split.  Failures are raised as
    :class:`ChunkExecutionError` from the consuming iterator.
    ``close`` releases workers and cached state.
    """

    last_chunk_timing: ChunkTiming

    def submit_jobs(self, jobs: Iterable[TaggedJob]
                    ) -> Iterator[Tuple[Any, int, Any]]:
        ...

    def close(self) -> None:
        ...


class ChunkExecutorBase:
    """Shared plumbing: the ``close()``/context-manager lifecycle."""

    #: Timing of the most recently yielded chunk (consumers read it
    #: right after each ``submit_jobs`` yield); all zero before any.
    last_chunk_timing = ChunkTiming(0.0, 0.0)

    def close(self) -> None:
        """Release the executor's workers and cached states."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _run_cached(cache: WorkerStateCache, task: Any, chunk_seed: int,
                count: int) -> Tuple[Any, ChunkTiming]:
    """Run one chunk on the task's cached worker state, timed."""
    state, setup, cache_hit = cache.lease(task)
    started = time.perf_counter()
    result = task.run_chunk_on(state, chunk_seed, count)
    return result, ChunkTiming(setup, time.perf_counter() - started,
                               cache_hit)


class SerialExecutor(ChunkExecutorBase):
    """Run every chunk inline, in submission order.

    States are cached for the executor's lifetime, so a campaign builds
    each task's bench once rather than once per chunk.
    """

    def __init__(self) -> None:
        self._cache = WorkerStateCache()

    def submit_jobs(self, jobs: Iterable[TaggedJob]
                    ) -> Iterator[Tuple[Any, int, Any]]:
        for tag, entry, task in jobs:
            try:
                result, self.last_chunk_timing = _run_cached(
                    self._cache, task, entry.chunk_seed, entry.count)
            except ChunkExecutionError:
                raise
            except Exception as exc:
                raise ChunkExecutionError.wrap(entry, exc) from exc
            yield tag, entry.index, result

    def close(self) -> None:
        self._cache.clear()

    def __repr__(self) -> str:
        return "SerialExecutor()"


def _start_context(start_method: Optional[str]):
    """The multiprocessing context for ``start_method`` (default:
    ``fork`` when available, else ``spawn``)."""
    method = start_method
    if method is None:
        available = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in available else "spawn"
    return multiprocessing.get_context(method)


# -- process pool plumbing (module level: pickled by name) -------------
#: Framing bytes ``Connection.send_bytes`` puts before each message.
_FRAME = 4
#: Most bytes a busy worker's job pipe may hold unread, framing
#: included.  A sixteenth of a Linux pipe's default 64 KiB (a quarter of
#: macOS's 16 KiB), so a write within it never waits for the reader.
_PIPE_BUDGET = 4096

_dumps = ForkingPickler.dumps


def _persistent_worker_main(parent_sys_path: List[str], worker_id: int,
                            jobs: Connection, results: Connection) -> None:
    """Long-lived worker loop of :class:`PersistentProcessExecutor`.

    With the ``spawn`` start method a fresh interpreter imports this
    module from scratch; when the parent runs from a source checkout
    (``sys.path`` patched by conftest rather than PYTHONPATH), the
    child needs the same entries to unpickle the tasks.

    Protocol: one pipe pair per worker, ``jobs`` from the parent and
    ``results`` back to it.  Both ends send and receive synchronously
    on their own main thread; nothing crosses a feeder thread.

    * ``("task", key, task)`` -- install ``task`` in this worker's
      table under ``key``, the parent's small integer handle for the
      task's fingerprint.  The parent sends this at most once per
      (worker lifetime, fingerprint).
    * ``("job", epoch, position, key, chunk_seed, count)`` -- run one
      chunk on the task's state from this worker's
      :class:`~repro.campaigns.worker_cache.WorkerStateCache`.
      Replies ``(worker_id, epoch, position, result, timing, None)``
      on success, ``(worker_id, epoch, position, None, None,
      traceback_text)`` on failure -- the traceback crosses the
      process boundary as text because live exception objects (and
      their frames) may not pickle; a result that does not pickle is
      such a failure too.
    * ``("stop",)`` -- exit the loop (sent by ``close()``).

    The loop waits on ``jobs`` together with the parent's sentinel and
    returns as soon as the parent dies, so a killed parent leaves no
    worker behind.
    """
    from multiprocessing.connection import wait

    for entry in reversed(parent_sys_path):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    parent = multiprocessing.parent_process()
    assert parent is not None, "the worker loop runs in a child process"
    watched = [jobs, parent.sentinel]
    tasks: Dict[int, Any] = {}
    cache = WorkerStateCache()
    while True:
        if parent.sentinel in wait(watched):
            return
        try:
            message = jobs.recv()
        except (EOFError, OSError):  # pragma: no cover - parent died
            return
        kind = message[0]
        if kind == "stop":
            return
        if kind == "task":
            tasks[message[1]] = message[2]
            continue
        _, epoch, position, key, chunk_seed, count = message
        try:
            result, timing = _run_cached(cache, tasks[key], chunk_seed,
                                         count)
            reply = _dumps((worker_id, epoch, position, result, timing,
                            None))
        except Exception:
            reply = _dumps((worker_id, epoch, position, None, None,
                            traceback.format_exc()))
        try:
            results.send_bytes(reply)
        except OSError:  # pragma: no cover - parent died
            return


class _WorkerRecord:
    """Parent-side bookkeeping for one persistent worker process."""

    __slots__ = ("process", "jobs", "results", "shipped", "sent",
                 "unread")

    def __init__(self, process: Any, jobs: Connection,
                 results: Connection):
        self.process = process
        self.jobs = jobs
        self.results = results
        #: Task handles already shipped to this worker's table.
        self.shipped: Set[int] = set()
        #: ``(epoch, position, bytes)`` of every job dispatched but not
        #: yet answered, oldest first: a worker answers in order.
        self.sent: Deque[Tuple[int, int, int]] = deque()
        #: Bytes of the messages behind ``sent``: an upper bound on
        #: what the job pipe holds unread.
        self.unread = 0


class PersistentProcessExecutor(ChunkExecutorBase):
    """Process fan-out: one pool, many ``submit_jobs`` calls.

    Pool spin-up, task shipping and bench construction are paid once
    per worker lifetime:

    * worker processes start on demand, up to ``num_workers``, and are
      reused by every subsequent ``submit_jobs`` (and so by every
      scheduler job);
    * a task ships to a worker at most once, keyed on
      ``task.fingerprint()``;
    * workers memoize seed-independent heavy state (design, engine,
      workspaces, LUTs, jit warm-up) per fingerprint -- results are
      bit-identical to serial for any worker count and any pool-reuse
      order.

    Dispatch streams: jobs are pulled from the (lazily consumed)
    iterable only while fewer than ``window`` are in flight, each to
    the least-loaded worker.  A one-worker pool still runs its chunks
    out of process.

    Transport: each worker has a job pipe and a result pipe, and the
    parent blocks in :func:`multiprocessing.connection.wait` over the
    result pipes and process sentinels of its busy workers.  Sends
    block, so one rule keeps the two directions from deadlocking: the
    parent writes to a busy worker only while the messages that worker
    has not answered, plus the new one, fit in ``_PIPE_BUDGET`` bytes,
    far below a pipe's capacity, so that write returns at once.  A
    message that does not fit (a large task pickle) waits until that
    worker has answered everything, when it is blocked reading its job
    pipe.  Workers, in turn, may block writing a reply of any size:
    the parent either reads or makes a write that cannot wait.

    Failure containment: a raised :class:`ChunkExecutionError` leaves
    the pool warm.  Results of abandoned calls are discarded by epoch.
    A worker whose sentinel fires before it answers is reported at
    once, naming the earliest chunk of this call assigned to it; dead
    workers are replaced (with cold caches) when next needed, and
    ``close()``/``with`` tears everything down, terminating workers
    still busy with abandoned chunks rather than waiting for them.

    ``start_method`` is the ``multiprocessing`` start method; the
    default prefers ``fork`` (cheap, inherits ``sys.path``) and falls
    back to ``spawn``.
    """

    def __init__(self, num_workers: int,
                 start_method: Optional[str] = None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        #: In-flight dispatch bound; enough to keep every worker busy
        #: plus a small ready queue, small enough that a huge plan is
        #: never materialized.
        self.window = max(2 * num_workers, 4)
        self._closed = False
        self._start_method = start_method
        self._context: Any = None
        self._workers: Dict[int, _WorkerRecord] = {}
        self._next_worker_id = 0
        #: Fingerprint -> small integer handle, so that job messages
        #: stay small however long a fingerprint is.
        self._handles: Dict[str, int] = {}
        self._epoch = 0

    def __del__(self):  # pragma: no cover - GC safety net only
        try:
            self.close()
        except Exception:
            pass

    # -- pool management ------------------------------------------------
    @property
    def alive_workers(self) -> int:
        """Live worker processes right now (0 before first use and
        after close)."""
        return sum(1 for record in self._workers.values()
                   if record.process.is_alive())

    def _ensure_pool(self) -> None:
        if self._context is None:
            self._context = _start_context(self._start_method)
        for worker_id, record in list(self._workers.items()):
            if not record.process.is_alive():
                # A crashed worker's warm cache died with it; _dispatch
                # starts a cold replacement rather than poisoning the
                # pool.
                self._retire(worker_id)

    def _start_worker(self) -> _WorkerRecord:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        job_reader, jobs = self._context.Pipe(duplex=False)
        results, result_writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_persistent_worker_main,
            args=(list(sys.path), worker_id, job_reader, result_writer),
            daemon=True,
            name=f"repro-warm-worker-{worker_id}")
        process.start()
        # Only the worker holds these ends now: its death reads as EOF
        # on ``results`` and fails a write to ``jobs``.
        job_reader.close()
        result_writer.close()
        record = self._workers[worker_id] = _WorkerRecord(process, jobs,
                                                          results)
        return record

    def _retire(self, worker_id: int) -> _WorkerRecord:
        """Forget a dead worker: reap it and close its pipes."""
        record = self._workers.pop(worker_id)
        record.process.join(timeout=5.0)
        record.jobs.close()
        record.results.close()
        return record

    def close(self) -> None:
        """Tear the pool down and retire the executor (idempotent)."""
        self._closed = True
        workers, self._workers = self._workers, {}
        for record in workers.values():
            if not record.process.is_alive():
                continue
            if record.sent:
                # Still busy with chunks of an abandoned call (a raised
                # chunk, an interrupted run): their results are stale,
                # so do not wait for them.
                record.process.terminate()
                continue
            try:
                record.jobs.send(("stop",))
            except OSError:  # pragma: no cover - died meanwhile
                pass
        for record in workers.values():
            record.process.join(timeout=5.0)
            if record.process.is_alive():  # pragma: no cover - stuck
                record.process.terminate()
                record.process.join(timeout=1.0)
            record.jobs.close()
            record.results.close()

    # -- dispatch -------------------------------------------------------
    def _dispatch(self, epoch: int, position: int, entry: ChunkPlanEntry,
                  task: Any) -> bool:
        """Send one job to the least-loaded worker.

        Workers start on demand: a new one only when every live worker
        is busy, so a one-chunk run starts one process however large
        ``num_workers`` is.  Returns False, sending nothing, when the
        messages would overflow that busy worker's ``_PIPE_BUDGET``;
        the caller retries once a reply has come back.
        """
        if self._workers:
            record = min(self._workers.values(),
                         key=lambda worker: len(worker.sent))
        if not self._workers or (record.sent and
                                 len(self._workers) < self.num_workers):
            record = self._start_worker()
        key = self._handles.setdefault(task_state_key(task),
                                       len(self._handles))
        messages = [_dumps(("job", epoch, position, key, entry.chunk_seed,
                            entry.count))]
        if key not in record.shipped:
            messages.insert(0, _dumps(("task", key, task)))
        size = sum(_FRAME + len(message) for message in messages)
        if record.sent and record.unread + size > _PIPE_BUDGET:
            return False
        try:
            for message in messages:
                record.jobs.send_bytes(message)
        except OSError:
            # The worker is dead: its sentinel has fired, and
            # _next_result reports this chunk.
            pass
        record.shipped.add(key)
        record.sent.append((epoch, position, size))
        record.unread += size
        return True

    def _next_result(self, epoch: int) -> Optional[Tuple[Any, ...]]:
        """Block for the next reply of any busy worker.

        Waits on every busy worker's result pipe and process sentinel.
        A worker that died without answering is retired; if it held a
        chunk of this call, the earliest such chunk comes back as a
        failure reply, otherwise (only abandoned chunks died with it)
        the result is None.
        """
        # Imported here, not at module level: the serial paths never
        # load the connection module (half a MiB of resident memory).
        from multiprocessing.connection import wait

        owners: Dict[Any, int] = {}
        for worker_id, record in self._workers.items():
            if record.sent:
                owners[record.results] = worker_id
                owners[record.process.sentinel] = worker_id
        worker_id = owners[wait(list(owners))[0]]
        record = self._workers[worker_id]
        try:
            reply = record.results.recv()
        except (EOFError, OSError):
            record = self._retire(worker_id)
            lost = [position for sent_epoch, position, _ in record.sent
                    if sent_epoch == epoch]
            if not lost:
                return None
            return (worker_id, epoch, lost[0], None, None,
                    f"worker process died (exit code "
                    f"{record.process.exitcode}) before returning a "
                    f"result")
        record.unread -= record.sent.popleft()[2]
        return reply

    def submit_jobs(self, jobs: Iterable[TaggedJob]
                    ) -> Iterator[Tuple[Any, int, Any]]:
        if self._closed:
            raise RuntimeError(
                "PersistentProcessExecutor is closed; create a new "
                "executor (close() is final)")
        self._ensure_pool()
        self._epoch += 1
        epoch = self._epoch
        jobs_iter = iter(jobs)
        pending: Dict[int, Tuple[Any, ChunkPlanEntry]] = {}
        # A job pulled from the feed that waits for a worker to drain.
        held: Optional[Tuple[int, ChunkPlanEntry, Any]] = None
        next_position = 0
        exhausted = False
        try:
            while True:
                # Top the in-flight window up from the lazy job feed
                # (this backpressure is what keeps huge plans from
                # materializing).
                while held is not None or (not exhausted and
                                           len(pending) < self.window):
                    if held is None:
                        try:
                            tag, entry, task = next(jobs_iter)
                        except StopIteration:
                            exhausted = True
                            break
                        held = (next_position, entry, task)
                        pending[next_position] = (tag, entry)
                        next_position += 1
                    if not self._dispatch(epoch, *held):
                        break
                    held = None
                if not pending:
                    break
                reply = self._next_result(epoch)
                if reply is None:
                    continue
                _, reply_epoch, position, result, timing, failure = reply
                if reply_epoch != epoch:
                    # Left over from an abandoned call; nothing to
                    # route.
                    continue
                tag, entry = pending.pop(position)
                if failure is not None:
                    raise ChunkExecutionError(
                        entry.index, entry.chunk_seed, entry.count,
                        "worker process raised",
                        worker_traceback=failure)
                self.last_chunk_timing = timing
                yield tag, entry.index, result
        finally:
            # Whatever this call leaves in flight (early consumer
            # exit, a raised chunk) is stale for the next one.
            self._epoch += 1

    def __repr__(self) -> str:
        return (f"PersistentProcessExecutor(num_workers="
                f"{self.num_workers}, start_method="
                f"{self._start_method!r}, alive_workers="
                f"{self.alive_workers})")


#: Executor spec strings accepted by :func:`resolve_executor`.
EXECUTOR_KINDS = ("serial", "process")


def resolve_executor(executor: "ChunkExecutor | str | None",
                     num_workers: int = 1,
                     start_method: Optional[str] = None) -> ChunkExecutor:
    """Resolve an executor spec to an instance.

    ``None`` runs inline for one worker and on a process pool
    otherwise.  A string from ``EXECUTOR_KINDS`` names the kind:
    ``"serial"``, or ``"process"`` for the persistent pool sized by
    ``num_workers``, which starts its workers on demand, never more
    than there are chunks in flight.  An object exposing
    ``submit_jobs`` is returned as-is.  Whoever resolves a spec owns
    the resulting executor and closes it: the scheduler does so for
    the executors it resolves; pass a pre-built instance to share one
    pool across schedulers and close it yourself.
    """
    if executor is None:
        executor = "serial" if num_workers == 1 else "process"
    if isinstance(executor, str):
        kind = executor.strip().lower()
        if kind == "serial":
            return SerialExecutor()
        if kind == "process":
            return PersistentProcessExecutor(num_workers,
                                             start_method=start_method)
        raise ValueError(
            f"unknown executor {executor!r}; choose from "
            f"{EXECUTOR_KINDS} or pass a ChunkExecutor instance")
    if hasattr(executor, "submit_jobs"):
        return executor
    raise TypeError(
        f"executor must be None, a kind string or a ChunkExecutor, "
        f"got {type(executor).__name__}")


__all__ = [
    "ChunkExecutionError",
    "ChunkExecutor",
    "ChunkExecutorBase",
    "ChunkTiming",
    "EXECUTOR_KINDS",
    "PersistentProcessExecutor",
    "SerialExecutor",
    "resolve_executor",
]
