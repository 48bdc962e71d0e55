"""The campaign benchmark's three workloads.

Each workload drives the reproduction only through its public entry
points (``run_sharded_*_campaign``, ``fig10_curves``) and pins its
engine explicitly, so an optional dependency being importable (numba,
CuPy) never changes what is measured.  A *round* is one whole campaign
of a fixed size; every round of a run uses the run's seed, so all of a
run's rounds simulate the same inputs and must return the same
counters.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Tuple

Counters = Dict[str, Any]


class Workload:
    """One benchmark workload (closed loop, one caller)."""

    #: The workload's name in BENCHMARK.json, which says why it exists.
    name = ""
    #: Sequences (fig10: Monte-Carlo trials) simulated per round.
    sequences_per_round = 0
    #: Campaign chunks per round, the unit ``attempted`` counts.
    chunks_per_round = 0
    #: Worker processes a round runs on (0: all in this process).
    num_workers = 0

    def setup(self, seed: int) -> None:
        """Everything before the first full round: a one-sequence
        campaign of the same configuration, which builds the bench, the
        engine, the lazy tables and (fig10) the worker pool."""
        raise NotImplementedError

    def run_round(self, seed: int) -> Tuple[Counters, float]:
        """One full campaign; returns its counters and host seconds."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` built."""

    def check(self, counters: Counters) -> List[str]:
        """Invariants every seed's counters satisfy; returns problems."""
        raise NotImplementedError

    def cross_check(self, seed: int) -> List[str]:
        """A small campaign on an independent code path must agree."""
        raise NotImplementedError

    def headline(self, counters: Counters) -> List[str]:
        """Headline rates beside the paper's reported numbers."""
        raise NotImplementedError


class Sec4Campaign(Workload):
    """A Section IV FIFO validation campaign on the simd summary path:
    32x32 FIFO, Hamming(7,4) + CRC-16, 80 chains, array sampler, batch
    4096, chunk 65 536, serial executor."""

    batch_size = 4096
    chunk_size = 65536
    #: Whether campaigns checkpoint to a file; they then flush after
    #: every chunk, the runner's default ``save_interval``.
    checkpoints = False

    def __init__(self, workdir: str):
        self._workdir = workdir
        self._checkpoint_file: Optional[str] = None

    def _run(self, sequences: int, **kwargs: Any):
        raise NotImplementedError

    def _campaign(self, seed: int, sequences: int,
                  checkpoint_path: Optional[str]):
        return self._run(sequences, engine="simd", sampler="array",
                         batch_size=self.batch_size,
                         chunk_size=self.chunk_size, executor="serial",
                         checkpoint_path=checkpoint_path, seed=seed)

    def _fresh_checkpoint(self) -> Optional[str]:
        """A new, absent checkpoint file, so no campaign resumes."""
        self.close()
        if not self.checkpoints:
            return None
        self._checkpoint_file = os.path.join(self._workdir,
                                             f"{self.name}.json")
        return self._checkpoint_file

    def setup(self, seed: int) -> None:
        self._campaign(seed, 1, checkpoint_path=self._fresh_checkpoint())

    def run_round(self, seed: int) -> Tuple[Counters, float]:
        checkpoint_path = self._fresh_checkpoint()
        started = time.perf_counter()
        result = self._campaign(seed, self.sequences_per_round,
                                checkpoint_path=checkpoint_path)
        return result.to_dict(), time.perf_counter() - started

    def close(self) -> None:
        if self._checkpoint_file and os.path.exists(self._checkpoint_file):
            os.remove(self._checkpoint_file)
        self._checkpoint_file = None

    def cross_check(self, seed: int) -> List[str]:
        return self._agrees(self._run, seed)

    @staticmethod
    def _agrees(run: Any, seed: int, **kwargs: Any) -> List[str]:
        # The packed engine's object path is the reference the simd
        # summary kernels are bit-identical to.
        size = 256
        config = dict(kwargs, sampler="array", batch_size=size,
                      chunk_size=size, executor="serial", seed=seed)
        summary = run(size, engine="simd", **config).to_dict()
        reference = run(size, engine="packed", **config).to_dict()
        if summary != reference:
            return [f"simd summary path {summary} != packed object path "
                    f"{reference} on a {size}-sequence campaign {kwargs}"]
        return []

    def _headline(self, counters: Counters, paper_row: str,
                  note: str) -> List[str]:
        from repro.analysis.paper_data import VALIDATION_SUMMARY
        stats = counters["stats"]
        with_errors = stats["sequences_with_errors"]
        paper = VALIDATION_SUMMARY[paper_row]
        return [f"detection rate "
                f"{stats['detected_with_errors'] / with_errors:.6f} "
                f"(paper FPGA{note}: {paper['detection_rate']}), "
                f"correction rate "
                f"{stats['corrected_with_errors'] / with_errors:.6f} "
                f"(paper FPGA{note}: {paper['correction_rate']})"]


class Sec4Single(Sec4Campaign):
    """Section IV single-error campaign, 4 chunks per round."""

    name = "sec4_single"
    sequences_per_round = 262144
    chunks_per_round = 4
    checkpoints = True

    def _run(self, sequences: int, **kwargs: Any):
        from repro.validation.campaign import (
            run_sharded_single_error_campaign,
        )
        return run_sharded_single_error_campaign(sequences, **kwargs)

    def check(self, counters: Counters) -> List[str]:
        # Hamming(7,4) corrects every single error, whatever the seed.
        stats = counters["stats"]
        n = self.sequences_per_round
        expected = {"num_sequences": n, "total_injected": n,
                    "sequences_with_errors": n, "detected_with_errors": n,
                    "corrected_with_errors": n, "silent_corruptions": 0,
                    "total_residual_errors": 0}
        problems = [f"{key} = {stats[key]}, expected {value}"
                    for key, value in expected.items()
                    if stats[key] != value]
        if counters["inconsistent_sequences"]:
            problems.append("monitor verdicts contradict the comparator")
        return problems

    def cross_check(self, seed: int) -> List[str]:
        # The counters above are the same for every seed, so neither they
        # nor the digest can tell which faults were simulated.  A burst
        # of two adjacent errors still takes the sparse-delta path and
        # often defeats Hamming(7,4), so its counters depend on the seed.
        from repro.validation.campaign import (
            run_sharded_multiple_error_campaign,
        )
        return super().cross_check(seed) + self._agrees(
            run_sharded_multiple_error_campaign, seed, burst_size=2,
            clustered=True)

    def headline(self, counters: Counters) -> List[str]:
        return self._headline(counters, "single_error", "")


class Sec4Multi10Dense(Sec4Campaign):
    """Ten uniformly spread errors per sequence (dense summary path).

    A round is one 16 384-sequence chunk: a run then holds ~80 rounds
    for its median (at 65 536 sequences it held too few), and the
    per-chunk bench build stays near 3%.
    """

    name = "sec4_multi10_dense"
    sequences_per_round = 16384
    chunks_per_round = 1
    errors = 10

    def _run(self, sequences: int, **kwargs: Any):
        from repro.validation.campaign import (
            run_sharded_multiple_error_campaign,
        )
        return run_sharded_multiple_error_campaign(
            sequences, burst_size=self.errors, clustered=False, **kwargs)

    def check(self, counters: Counters) -> List[str]:
        stats = counters["stats"]
        n = self.sequences_per_round
        expected = {"num_sequences": n, "total_injected": self.errors * n,
                    "sequences_with_errors": n}
        problems = [f"{key} = {stats[key]}, expected {value}"
                    for key, value in expected.items()
                    if stats[key] != value]
        # Every sequence carries errors, so a sequence is intact only if
        # the monitor detected and repaired them.  (Ten errors can defeat
        # both codes, so silent and inconsistent sequences are possible.)
        if stats["corrected_sequences"] != stats["intact_sequences"]:
            problems.append("corrected and intact sequence counts differ")
        return problems

    def headline(self, counters: Counters) -> List[str]:
        return self._headline(counters, "multiple_error",
                              ", clustered bursts")


class Fig10Pool(Workload):
    """The paper's Fig. 10 grid -- 4 Hamming codes x 1..10 errors, 40
    jobs -- on one scheduler over a warm two-worker process pool.

    Each job runs in 4 chunks of 500 trials.  With the default ~64
    chunks of 32 trials, every round trip waits on a worker wake-up,
    and on a loaded shared host that made rounds 2-4x slower from one
    minute to the next; 160 chunks per round still exercise dispatch.
    """

    name = "fig10_pool"
    trials_per_point = 2000
    chunk_size = 500
    error_counts = tuple(range(1, 11))
    num_workers = 2

    def __init__(self, workdir: str):
        from repro.codes.hamming import PAPER_HAMMING_CODES
        self.codes = tuple(PAPER_HAMMING_CODES)
        self.points = len(self.codes) * len(self.error_counts)
        self.sequences_per_round = self.trials_per_point * self.points
        self.chunks_per_round = self.points * -(-self.trials_per_point
                                                // self.chunk_size)
        self._pool: Any = None

    def _curves(self, seed: int, trials: int, engine: str = "packed",
                executor: Any = None) -> Counters:
        from repro.analysis.correction_capability import fig10_curves
        curves = fig10_curves(sequences=trials, seed=seed, engine=engine,
                              executor=executor or self._pool,
                              num_workers=self.num_workers,
                              chunk_size=self.chunk_size)
        counters = {}
        for (n, k), points in sorted(curves.items()):
            for point in points:
                # corrected_fraction is corrected_bits / (trials x
                # errors); the product rounds back to the exact count.
                corrected_bits = round(point.corrected_fraction
                                       * point.sequences * point.num_errors)
                counters[f"{n},{k},{point.num_errors}"] = [
                    point.sequences, corrected_bits,
                    point.sequences_fully_corrected]
        return counters

    def setup(self, seed: int) -> None:
        from repro.campaigns.executors import PersistentProcessExecutor
        self._pool = PersistentProcessExecutor(self.num_workers)
        self._curves(seed, 1)

    def run_round(self, seed: int) -> Tuple[Counters, float]:
        started = time.perf_counter()
        counters = self._curves(seed, self.trials_per_point)
        return counters, time.perf_counter() - started

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def check(self, counters: Counters) -> List[str]:
        problems = []
        if len(counters) != self.points:
            problems.append(f"{len(counters)} curve points, expected "
                            f"{self.points}")
        for point, (trials, corrected_bits, fully) in counters.items():
            errors = int(point.rsplit(",", 1)[1])
            if trials != self.trials_per_point:
                problems.append(f"point {point}: {trials} trials")
            if not fully * errors <= corrected_bits <= trials * errors:
                problems.append(f"point {point}: inconsistent counters")
            if errors == 1 and corrected_bits != trials:
                problems.append(f"point {point}: a single error was not "
                                f"corrected")
        return problems

    def cross_check(self, seed: int) -> List[str]:
        # The dict-based reference simulator, run inline, draws the same
        # positions as the bitmask simulator does on the pool.
        trials = 200
        pooled = self._curves(seed, trials)
        reference = self._curves(seed, trials, engine="reference",
                                 executor="serial")
        if pooled != reference:
            return [f"packed trials on the pool differ from the serial "
                    f"reference simulator at {trials} trials/point"]
        return []

    def headline(self, counters: Counters) -> List[str]:
        from repro.analysis.paper_data import FIG10_REFERENCE
        lines = []
        for (n, k), reference in FIG10_REFERENCE.items():
            for errors, paper in reference.items():
                trials, corrected_bits, _ = counters[f"{n},{k},{errors}"]
                measured = 100.0 * corrected_bits / (trials * errors)
                quoted = "not quoted" if paper is None else f"{paper}%"
                lines.append(f"Hamming({n},{k}) {errors} errors: "
                             f"{measured:.2f}% corrected (paper {quoted})")
        return lines


WORKLOADS = {cls.name: cls
             for cls in (Sec4Single, Sec4Multi10Dense, Fig10Pool)}

__all__ = ["WORKLOADS", "Workload"]
