"""Campaign benchmark of the SRPG reproduction.

Measures how many sleep/wake sequences (fig10: Monte-Carlo trials) per
host second the paper's fault-injection campaigns simulate, on three
workloads (see ``bench_workloads.py``)::

    python3 perfbench/run.py --workload sec4_single --seed 1 \
        --seconds 30 --trace 0

A round is one whole campaign of the workload's fixed size.  ``--trace
0`` reports the end-to-end metrics: ``seq_per_s`` (the median round's
rate), ``setup_s`` (the median of several set-ups spread across the
run, each started with every process-wide memo of ``repro`` cleared;
imports are excluded) and ``peak_rss_mb`` (see :func:`run_rounds`).  Both
times are corrected for the host's speed at the moment they were taken
(see :class:`HostProbe`).  ``--trace 1``
reports the per-layer split instead (``bench_trace.py``): it measures
untraced rounds here, runs the traced rounds in a child process, checks
that both give the same counters, and reports the tracing overhead.
``--workload all`` runs every workload, each in its own process.

Every round's counters are checked: rounds of one run must agree, the
paper's invariants must hold (e.g. every single error corrected), the
counters must match the digest recorded in ``digests.json`` when it has
the seed, and a small campaign must agree with an independent reference
path.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``attempted`` counts campaign chunks, ``failed`` those that raised or
returned wrong counters.

``--record-digests`` rewrites ``digests.json``; run it only at a commit
whose simulated statistics are known to be right.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")

DEFAULT_SEED = 20100308
#: Seeds ``--record-digests`` records besides the default one.
DIGEST_SEEDS = range(64)
SETUP_REPEATS = 31
MIN_ROUNDS = 3


def clear_memos() -> List[str]:
    """Empty every process-wide ``_*_CACHE`` dict of ``repro`` (GF(2)
    matrices, syndrome tables, the wake transient) so set-up is timed
    cold; returns the names cleared."""
    cleared = []
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("repro.") or module is None:
            continue
        for attr, value in vars(module).items():
            if (attr.startswith("_") and attr.endswith("_CACHE")
                    and isinstance(value, dict)):
                value.clear()
                cleared.append(f"{name}.{attr}")
    return cleared


def environment() -> Dict[str, Any]:
    """Where a result was measured: absolute rates differ by machine."""
    import numpy

    from repro.engines.registry import available_engines
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "cupy": importlib.util.find_spec("cupy") is not None,
        "engines": list(available_engines()),
    }


def digest(counters: Any) -> str:
    text = json.dumps(counters, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests() -> Dict[str, Any]:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def make_workload(name: str, workdir: str):
    from bench_workloads import WORKLOADS
    return WORKLOADS[name](workdir)


class HostProbe:
    """How slow the host is running right now.

    The shared hosts this benchmark runs on drift between a fast state
    and states up to ~1.8x slower, for seconds to minutes at a time, and
    a process's CPU time slows with them.  A fixed pure-Python loop of
    ~8 ms, none of it ``repro`` code, is timed before and after every
    round and set-up; dividing the round's wall time by the probe's
    slowdown against :attr:`REFERENCE_S` gives the time the round would
    have taken on the reference host state.  On a 2-vCPU KVM guest this
    roughly halved the spread of 30-second medians (range over six
    windows 0.19-0.22 of the median -> 0.08-0.10).  The correction
    cannot hide a change to the code under test: the probe runs none of
    it, and it imports nothing, so the peak memory stays the program's.
    """

    #: The probe's time on the fast state of a 2-vCPU KVM guest; it only
    #: sets the scale, so corrected rates read as that host's.
    REFERENCE_S = 0.0075

    def __init__(self) -> None:
        self._last = self._time()

    @staticmethod
    def _time() -> float:
        started = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value
        return time.perf_counter() - started

    def slowdown(self) -> float:
        """The host's slowdown since the previous call: the mean of the
        probe times before and after, over :attr:`REFERENCE_S`."""
        after = self._time()
        slowdown = (self._last + after) / (2 * self.REFERENCE_S)
        self._last = after
        return slowdown


def run_rounds(workload, seed: int, seconds: float,
               setups: int = 0) -> Dict[str, Any]:
    """Closed loop of whole campaigns until ``seconds`` have passed.

    ``setups`` cold set-ups are spread evenly over the window rather
    than run back to back, so a few seconds of load from elsewhere on
    the host cannot slow all of them at once.  Every round and set-up
    records its host slowdown (:class:`HostProbe`).

    The peak resident memory is read after the first ``MIN_ROUNDS``
    rounds, before any cold set-up: a user's process sets up once, and
    rebuilding the memos many times leaves a heap whose size depends on
    the order of frees.
    """
    probe = HostProbe()
    rounds: List[Dict[str, Any]] = []
    setup_times: List[Dict[str, float]] = []
    cold: List[str] = []
    attempted = 0
    error = None
    peak_rss_mb = 0.0
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if (len(rounds) >= MIN_ROUNDS and elapsed >= seconds
                and len(setup_times) >= setups):
            break
        if (len(rounds) >= MIN_ROUNDS and len(setup_times) < setups
                and elapsed >= len(setup_times) * seconds / setups):
            workload.close()
            cold = clear_memos()
            probe.slowdown()
            begun = time.perf_counter()
            workload.setup(seed)
            wall = time.perf_counter() - begun
            setup_times.append({"wall": wall, "slowdown": probe.slowdown()})
            continue
        attempted += workload.chunks_per_round
        try:
            counters, wall = workload.run_round(seed)
        except Exception:
            error = traceback.format_exc()
            break
        rounds.append({"counters": counters, "wall": wall,
                       "slowdown": probe.slowdown()})
        if len(rounds) == MIN_ROUNDS:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"rounds": rounds, "attempted": attempted, "error": error,
            "setup_times": setup_times, "cold_memos": cold,
            "peak_rss_mb": peak_rss_mb}


def verify(workload, seed: int, run: Dict[str, Any]) -> Dict[str, Any]:
    """Check every round's counters; returns failed chunks + problems."""
    problems: List[str] = []
    rounds = run["rounds"]
    failed = run["attempted"] - len(rounds) * workload.chunks_per_round
    if run["error"]:
        problems.append("a round raised:\n" + run["error"])
    if not rounds:
        return {"failed": failed, "problems": problems, "digest": None}
    first = rounds[0]["counters"]
    invariant_problems = workload.check(first)
    problems += invariant_problems
    recorded = load_digests().get(workload.name, {}).get(
        "sha256", {}).get(str(seed))
    reference = recorded or digest(first)
    if recorded and digest(first) != recorded:
        problems.append(f"counters {digest(first)} differ from the digest "
                        f"{recorded} recorded for seed {seed}")
    for entry in rounds:
        if invariant_problems or digest(entry["counters"]) != reference:
            failed += workload.chunks_per_round
    if any(entry["counters"] != first for entry in rounds):
        problems.append("rounds of one seed returned different counters")
    return {"failed": failed, "problems": problems, "digest": digest(first),
            "digest_recorded": recorded is not None}


def corrected(entries: List[Dict[str, float]]) -> List[float]:
    """Wall times scaled to the reference host state."""
    return [entry["wall"] / entry["slowdown"] for entry in entries]


def throughput(workload, rounds: List[Dict[str, Any]]) -> float:
    """Sequences per (reference-host) second of the run's median round."""
    if not rounds:
        return 0.0
    return workload.sequences_per_round / statistics.median(
        corrected(rounds))


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Any]) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def report(metrics: Dict[str, Dict[str, Any]],
           notes: Dict[str, str]) -> None:
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']:8s} "
              f"{notes.get(name, '')}")


def run_untraced(name: str, seed: int, seconds: float, workdir: str,
                 why: str) -> int:
    workload = make_workload(name, workdir)
    try:
        # Untimed first set-up: pulls in every lazily imported module.
        workload.setup(seed)
        run = run_rounds(workload, seed, seconds, SETUP_REPEATS)
        checked = verify(workload, seed, run)
        cross = workload.cross_check(seed) if run["rounds"] else []
    finally:
        workload.close()
    setups = run["setup_times"]
    rounds = run["rounds"]
    problems = checked["problems"] + cross

    def median(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    metrics = {
        "seq_per_s": {"value": throughput(workload, rounds), "unit": "1/s"},
        "setup_s": {"value": median(corrected(setups)), "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MiB"},
    }
    env = dict(environment(), cold_memos=run["cold_memos"])
    print(f"env {json.dumps(env)}")
    print(f"{name}: {why}")
    report(metrics, {
        "seq_per_s": f"median of {len(rounds)} rounds of "
                     f"{workload.sequences_per_round} sequences; "
                     f"uncorrected median round "
                     f"{median([e['wall'] for e in rounds]):.4f} s, "
                     f"host slowdown median "
                     f"{median([e['slowdown'] for e in rounds]):.3f}",
        "setup_s": f"median of {len(setups)} cold set-ups; uncorrected "
                   f"{median([e['wall'] for e in setups]):.4f} s",
        "peak_rss_mb": f"this process, after set-up and {MIN_ROUNDS} "
                       f"rounds"})
    failed, attempted = checked["failed"], run["attempted"]
    recorded = ("checked against the recorded digest"
                if checked.get("digest_recorded")
                else "no digest recorded for this seed")
    print(f"  failed_fraction {failed / attempted:.6g} ({failed}/"
          f"{attempted} chunks); counters {checked['digest']}, {recorded}")
    if rounds:
        for line in workload.headline(rounds[0]["counters"]):
            print(f"  {line}")
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print(result_line(not problems and failed == 0, attempted, failed,
                      metrics))
    return 0


def traced_child(name: str, seed: int, seconds: float, workdir: str) -> int:
    """The traced half of ``--trace 1``; prints one JSON line."""
    import bench_trace

    recorder = bench_trace.Recorder()
    bench_trace.install(recorder)
    workload = make_workload(name, workdir)
    try:
        workload.setup(seed)
        recorder.reset()
        run = run_rounds(workload, seed, seconds)
    finally:
        workload.close()
    rounds = run["rounds"]
    wall = sum(entry["wall"] for entry in rounds)
    print(json.dumps({
        "error": run["error"],
        "digests": sorted({digest(entry["counters"]) for entry in rounds}),
        "seq_per_s": throughput(workload, rounds),
        "rounds": len(rounds),
        "missing": bench_trace.missing_spans(recorder, name),
        "open_spans": recorder.open_spans,
        "metrics": bench_trace.layer_metrics(
            recorder, max(1, len(rounds)), wall, workload.num_workers),
    }))
    return 0


def run_traced(name: str, seed: int, seconds: float, workdir: str,
               per_layer: Dict[str, str]) -> int:
    import bench_trace

    workload = make_workload(name, workdir)
    try:
        workload.setup(seed)
        run = run_rounds(workload, seed, seconds / 2)
        checked = verify(workload, seed, run)
    finally:
        workload.close()
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds / 2),
         "--traced-child"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=150)
    if child.returncode != 0:
        print(f"the traced run failed (exit {child.returncode})",
              file=sys.stderr)
        return 1
    traced = json.loads(child.stdout.strip().splitlines()[-1])
    if traced["missing"]:
        print(f"expected spans recorded no call on {name}: "
              f"{', '.join(traced['missing'])}", file=sys.stderr)
        return 1
    layer = traced["metrics"]
    base = throughput(workload, run["rounds"])
    layer["trace.overhead_ratio"] = (traced["seq_per_s"] / base
                                     if base else 0.0)
    problems = list(checked["problems"])
    if traced["error"]:
        problems.append("a traced round raised:\n" + traced["error"])
    if traced["digests"] != [checked["digest"]]:
        problems.append(f"traced counters {traced['digests']} differ from "
                        f"untraced {checked['digest']}")
    if traced["open_spans"]:
        problems.append("spans left open after the traced rounds")
    # unattributed_s is the wall minus the self times, so they sum to the
    # wall by construction; overlapping spans show as a negative part.
    timed = [key for key in layer
             if key.endswith(".self_s") or key == "campaigns.executor.wait_s"]
    if any(layer[key] < -1e-9 for key in timed + ["unattributed_s"]):
        problems.append("a negative self time: spans overlap")
    metrics = {key: {"value": layer[key], "unit": unit}
               for key, unit in per_layer.items()}
    predictions = {
        key: ("" if name in applies else "(n/a here) ") + prediction
        for key, (applies, prediction) in bench_trace.PREDICTIONS.items()}
    print(f"env {json.dumps(environment())}")
    print(f"{name}: per round of {workload.sequences_per_round} sequences,"
          f" {traced['rounds']} traced rounds")
    report(metrics, predictions)
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print(result_line(not problems and checked["failed"] == 0,
                      run["attempted"], checked["failed"], metrics))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in a fresh process."""
    from bench_workloads import WORKLOADS
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            return 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": value
                        for key, value in result["metrics"].items()})
    print(result_line(correct, attempted, failed, metrics))
    return 0


def record_digests(workdir: str) -> int:
    from bench_workloads import WORKLOADS
    payload: Dict[str, Any] = {"default_seed": DEFAULT_SEED}
    seeds = [DEFAULT_SEED, *DIGEST_SEEDS]
    for name in WORKLOADS:
        workload = make_workload(name, workdir)
        try:
            workload.setup(DEFAULT_SEED)
            entry: Dict[str, Any] = {"sha256": {}}
            for seed in seeds:
                counters, _ = workload.run_round(seed)
                problems = workload.check(counters)
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                if seed == DEFAULT_SEED:
                    entry["counters"] = counters
                entry["sha256"][str(seed)] = digest(counters)
        finally:
            workload.close()
        payload[name] = entry
        print(f"{name}: {len(seeds)} seeds recorded")
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro package under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from bench_workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    if args.workload == "all" and not args.record_digests:
        return run_all(args)

    benchmark = load_benchmark()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.record_digests:
            return record_digests(workdir)
        if args.traced_child:
            return traced_child(args.workload, args.seed, args.seconds,
                                workdir)
        if args.trace:
            units = {metric["name"]: metric["unit"]
                     for metric in benchmark["per_layer"]}
            return run_traced(args.workload, args.seed, args.seconds,
                              workdir, units)
        why = {entry["name"]: entry["why"]
               for entry in benchmark["workloads"]}[args.workload]
        return run_untraced(args.workload, args.seed, args.seconds, workdir,
                            why)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
