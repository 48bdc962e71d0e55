"""Outside-in per-layer tracing for the campaign benchmark.

Every span is recorded from this file, around calls into a layer's
public functions: the code under ``src/`` does not know it is traced.
The wrappers are installed by :func:`install` in the traced process
only, so they never reach an untraced end-to-end run.

A layer's *self time* is the time its spans were open minus the time
of the spans nested inside them (for example ``engines.kernel`` inside
``core.cycle``), so the self times of all layers plus the unattributed
remainder add up to the traced wall time.

:data:`PREDICTIONS` records, for every per-layer metric, which
end-to-end metric on which workload an optimisation of that layer is
predicted to move; later changes cite them by metric name.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

SEC4 = ("sec4_single", "sec4_multi10_dense")
ALL_WORKLOADS = SEC4 + ("fig10_pool",)


@dataclass(frozen=True)
class Layer:
    """One traced layer and the callables its spans wrap."""

    #: Metric prefix; the module path of the layer inside ``repro``.
    name: str
    #: ``"module:qualname"`` targets; ``"engine:simd:method"`` names a
    #: method of the class registered for that engine name.
    hooks: Tuple[str, ...]
    #: Workloads on which the layer must record at least one call.
    workloads: Tuple[str, ...]
    #: The hooked callables are generators: a span covers each
    #: ``next()`` (the caller blocked on the stream), not the time the
    #: caller spends between items.
    stream: bool = False


LAYERS: Tuple[Layer, ...] = (
    Layer("faults.sample", ("repro.faults.batch:sample_pattern_batch",),
          SEC4),
    Layer("validation.stimulus",
          ("repro.circuit.fifo:SyncFIFO.reset",
           "repro.circuit.fifo:SyncFIFO.push",
           "repro.validation.stimulus:StimulusGenerator.burst"),
          SEC4),
    Layer("power.domain",
          ("repro.power.domain:PowerDomain.enter_sleep",
           "repro.power.domain:PowerDomain.wake_up"),
          SEC4),
    Layer("core.cycle",
          ("repro.core.protected:"
           "ProtectedDesign.sleep_wake_cycle_batch_summary",),
          SEC4),
    # pack_chains is bound into repro.core.protected at import time, so
    # the name the caller looks up lives there, not in engines.packing.
    Layer("engines.pack", ("repro.core.protected:pack_chains",), SEC4),
    Layer("engines.kernel", ("engine:simd:run_batch_summary",), SEC4),
    # The engine is built lazily by the design, inside the chunk.
    Layer("campaigns.bench_build",
          ("repro.circuit.fifo:SyncFIFO.__init__",
           "repro.core.protected:ProtectedDesign.__init__",
           "repro.validation.testbench:FIFOTestbench.__init__",
           "repro.engines.registry:get_engine"),
          SEC4),
    Layer("campaigns.reduce",
          ("repro.campaigns.stats:StreamingCampaignResult.add_batch",
           "repro.campaigns.stats:StreamingCampaignResult.merge",
           "repro.analysis.correction_capability:CorrectionCounters.merge"),
          ALL_WORKLOADS),
    Layer("campaigns.checkpoint",
          ("repro.campaigns.checkpoints:CheckpointStore.write",),
          ("sec4_single",)),
    # Only an out-of-process executor makes the caller wait: the serial
    # executor runs each chunk inside next(), so a span there would be
    # the chunk's own work, which belongs to the layers inside it (and
    # the unattributed remainder).
    Layer("campaigns.executor",
          ("repro.campaigns.executors:PersistentProcessExecutor.submit_jobs",),
          ("fig10_pool",), stream=True),
)

#: Per-layer metric -> (workloads it applies to, the end-to-end metric
#: and workload an optimisation of that layer should move).
PREDICTIONS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "faults.sample.self_s": (SEC4, "seq_per_s on sec4_multi10_dense"),
    "faults.sample.flips_per_s": (SEC4, "seq_per_s on sec4_multi10_dense"),
    "validation.stimulus.self_s": (SEC4, "seq_per_s on sec4_single"),
    "power.domain.self_s": (SEC4, "seq_per_s on sec4_single"),
    "core.cycle.self_s": (SEC4, "seq_per_s on sec4_single"),
    "engines.pack.self_s": (SEC4, "seq_per_s on sec4_single"),
    "engines.kernel.self_s": (SEC4, "seq_per_s on both sec4 workloads"),
    "engines.kernel.seq_per_s": (SEC4, "seq_per_s on both sec4 workloads"),
    "engines.kernel.share": (
        SEC4, "seq_per_s on both sec4 workloads; >= 0.5 on sec4_single "
              "is the per-batch overhead target"),
    "engines.path.delta": (SEC4, "confirms the sparse-delta kernel runs "
                                 "(sec4_single)"),
    "engines.path.dense": (SEC4, "confirms the dense kernel runs "
                                 "(sec4_multi10_dense)"),
    "campaigns.bench_build.self_s": (
        SEC4, "seq_per_s on both sec4 workloads; setup_s everywhere"),
    "campaigns.reduce.self_s": (ALL_WORKLOADS, "nothing: small everywhere"),
    "campaigns.checkpoint.self_s": (("sec4_single",),
                                    "seq_per_s on sec4_single"),
    "campaigns.checkpoint.writes": (("sec4_single",),
                                    "seq_per_s on sec4_single"),
    "campaigns.checkpoint.bytes": (("sec4_single",),
                                   "seq_per_s on sec4_single"),
    "campaigns.executor.wait_s": (("fig10_pool",),
                                  "seq_per_s on fig10_pool"),
    "campaigns.worker.compute_s": (("fig10_pool",),
                                   "seq_per_s on fig10_pool"),
    "campaigns.worker.setup_s": (("fig10_pool",), "setup_s on fig10_pool"),
    "campaigns.executor.busy_ratio": (("fig10_pool",),
                                      "seq_per_s on fig10_pool"),
    "unattributed_s": (ALL_WORKLOADS, "shows time no layer accounts for"),
    "trace.wall_s": (ALL_WORKLOADS, "traced round wall time"),
    "trace.overhead_ratio": (ALL_WORKLOADS,
                             "traced over untraced seq_per_s"),
}

class Recorder:
    """In-memory span and counter store of one traced process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (e.g. during set-up)."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.totals: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []

    def call(self, layer: str, fn: Callable, args: tuple,
             kwargs: dict) -> Any:
        """Run ``fn`` inside a span of ``layer``."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self.self_s[layer] += duration - frame[0]
            self.calls[layer] += 1
            if self._stack:
                self._stack[-1][0] += duration

    @property
    def open_spans(self) -> int:
        return len(self._stack)


# -- counters read at the layer boundaries ------------------------------
def _after_sample(recorder: Recorder, args: tuple, result: Any) -> None:
    recorder.totals["faults.sample.flips"] += result.num_flips


def _after_kernel(recorder: Recorder, args: tuple, result: Any) -> None:
    engine = args[0]
    recorder.totals[f"engines.path.{engine.last_summary_path}"] += 1
    recorder.totals["engines.kernel.sequences"] += int(
        result.detected.shape[0])


def _after_checkpoint(recorder: Recorder, args: tuple, result: Any) -> None:
    store = args[0]
    recorder.totals["campaigns.checkpoint.writes"] += 1
    recorder.totals["campaigns.checkpoint.bytes"] += os.path.getsize(
        store.path)


def _after_scheduler_run(recorder: Recorder, args: tuple,
                         result: Any) -> None:
    # Worker-side spans stay in the worker processes; the public
    # per-job counters are what crosses back to the parent.
    for job in args[0].jobs:
        recorder.totals["campaigns.worker.setup_s"] += job.setup_seconds
        recorder.totals["campaigns.worker.compute_s"] += \
            job.compute_seconds


AFTER = {
    "repro.faults.batch:sample_pattern_batch": _after_sample,
    "engine:simd:run_batch_summary": _after_kernel,
    "repro.campaigns.checkpoints:CheckpointStore.write": _after_checkpoint,
}

#: Observed without a span: the scheduler's own bookkeeping stays in
#: the unattributed remainder.
OBSERVERS = {
    "repro.campaigns.scheduler:CampaignScheduler.run": _after_scheduler_run,
}


def _engine_class(engine_name: str) -> type:
    """The class the engine registry builds for ``engine_name``."""
    from repro.circuit.fifo import SyncFIFO
    from repro.core.protected import ProtectedDesign
    from repro.engines.registry import get_engine

    design = ProtectedDesign(SyncFIFO(4, 4), codes=["hamming(7,4)"],
                             num_chains=4)
    return type(get_engine(engine_name, design))


def _resolve(target: str) -> Tuple[Any, str]:
    """The object holding the hooked attribute, and the attribute."""
    if target.startswith("engine:"):
        _, engine_name, method = target.split(":")
        return _engine_class(engine_name), method
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _wrap(recorder: Recorder, layer: Optional[str], fn: Callable,
          after: Optional[Callable], stream: bool) -> Callable:
    if stream:
        @functools.wraps(fn)
        def stream_wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item = recorder.call(layer, next, (items,), {})
                    except StopIteration:
                        return
                    yield item
            finally:
                items.close()
        return stream_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if layer is None:
            result = fn(*args, **kwargs)
        else:
            result = recorder.call(layer, fn, args, kwargs)
        if after is not None:
            after(recorder, args, result)
        return result
    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every hooked callable; raises if a target no longer exists,
    so a rename fails the traced run instead of zeroing a layer."""
    plan = [(layer.name, target, AFTER.get(target), layer.stream)
            for layer in LAYERS for target in layer.hooks]
    plan += [(None, target, after, False)
             for target, after in OBSERVERS.items()]
    # Resolve everything before patching anything: the engine-class
    # lookup builds a small design through functions that are hooked.
    resolved = [(layer, _resolve(target), after, stream)
                for layer, target, after, stream in plan]
    for layer, (owner, attr), after, stream in resolved:
        original = getattr(owner, attr)
        setattr(owner, attr, _wrap(recorder, layer, original, after, stream))


def missing_spans(recorder: Recorder, workload: str) -> List[str]:
    """Layers expected on ``workload`` that recorded no call."""
    return [layer.name for layer in LAYERS
            if workload in layer.workloads
            and recorder.calls.get(layer.name, 0) == 0]


def layer_metrics(recorder: Recorder, rounds: int, wall_s: float,
                  num_workers: int) -> Dict[str, float]:
    """Per-round layer metrics from ``rounds`` traced rounds that took
    ``wall_s`` host seconds in total."""
    self_s = {layer.name: recorder.self_s.get(layer.name, 0.0)
              for layer in LAYERS}
    totals = recorder.totals

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator > 0 else 0.0

    return {
        "faults.sample.self_s": self_s["faults.sample"] / rounds,
        "faults.sample.flips_per_s": ratio(totals["faults.sample.flips"],
                                           self_s["faults.sample"]),
        "validation.stimulus.self_s": self_s["validation.stimulus"] / rounds,
        "power.domain.self_s": self_s["power.domain"] / rounds,
        "core.cycle.self_s": self_s["core.cycle"] / rounds,
        "engines.pack.self_s": self_s["engines.pack"] / rounds,
        "engines.kernel.self_s": self_s["engines.kernel"] / rounds,
        "engines.kernel.seq_per_s": ratio(
            totals["engines.kernel.sequences"], self_s["engines.kernel"]),
        "engines.kernel.share": ratio(self_s["engines.kernel"], wall_s),
        "engines.path.delta": totals["engines.path.delta"] / rounds,
        "engines.path.dense": totals["engines.path.dense"] / rounds,
        "campaigns.bench_build.self_s":
            self_s["campaigns.bench_build"] / rounds,
        "campaigns.reduce.self_s": self_s["campaigns.reduce"] / rounds,
        "campaigns.checkpoint.self_s":
            self_s["campaigns.checkpoint"] / rounds,
        "campaigns.checkpoint.writes":
            totals["campaigns.checkpoint.writes"] / rounds,
        "campaigns.checkpoint.bytes":
            totals["campaigns.checkpoint.bytes"] / rounds,
        "campaigns.executor.wait_s": self_s["campaigns.executor"] / rounds,
        "campaigns.worker.compute_s":
            totals["campaigns.worker.compute_s"] / rounds,
        "campaigns.worker.setup_s":
            totals["campaigns.worker.setup_s"] / rounds,
        "campaigns.executor.busy_ratio": ratio(
            totals["campaigns.worker.compute_s"], num_workers * wall_s),
        "unattributed_s": (wall_s - sum(self_s.values())) / rounds,
        "trace.wall_s": wall_s / rounds,
    }


__all__ = ["LAYERS", "PREDICTIONS", "Layer", "Recorder", "install",
           "layer_metrics", "missing_spans"]
