"""Campaign tasks: picklable work descriptions for the scheduler.

A task carries only plain parameters (geometry, code names, pattern
kind); the unpicklable simulation objects -- the protected design, the
FIFO test bench -- are built by ``build_worker_state`` in the worker,
and every per-chunk random stream (stimulus data, error placement,
injector LFSRs) is derived from the chunk seed via
:mod:`repro.campaigns.seeding`.  That is what makes chunks independent
and the campaign's result a pure function of the root seed and chunk
plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.campaigns.runner import CampaignTask
from repro.campaigns.seeding import child_seed
from repro.campaigns.stats import StreamingCampaignResult
from repro.faults.injector import INJECT_PHASES, check_inject_phase

#: Error patterns a validation task can inject per sequence (in one of
#: the :data:`~repro.faults.injector.INJECT_PHASES`, re-exported here).
VALIDATION_PATTERNS = ("single", "burst", "multiple", "none")


@dataclass(frozen=True)
class FIFOValidationCampaignTask(CampaignTask):
    """One chunk of a Fig. 8 FIFO validation campaign.

    Mirrors the paper's test bench: a protected ``width x depth``
    SyncFIFO (FIFO_A) against an error-free reference (FIFO_B), with
    one error pattern injected per sleep/wake sequence.

    Parameters
    ----------
    width, depth:
        FIFO geometry (the paper's case study is 32x32).
    codes:
        Monitoring code names (paper FPGA setup: Hamming(7,4)
        correction plus CRC-16 verification).
    num_chains:
        Scan chains ``W`` in monitoring mode.
    pattern:
        Per-sequence injection: ``"single"`` (Fig. 7(a)), ``"burst"``
        (clustered, Fig. 7(b)), ``"multiple"`` (uniform spread) or
        ``"none"`` (clean sequences).
    burst_size:
        Errors per sequence for the multi-error patterns.
    inject_phase:
        ``"sleep"`` corrupts the retention latches, ``"post_wake"``
        injects through the scan chains (Fig. 6).
    engine:
        Simulation engine override, validated against the registry of
        :mod:`repro.engines` (``"packed"`` for per-sequence campaigns
        and adapter codes, ``"simd"`` together with ``batch_size`` for
        the columnar summary path); ``None`` keeps
        :class:`~repro.core.protected.ProtectedDesign`'s default.
    words_per_sequence:
        Words written in stage 2 of each sequence (default: half the
        FIFO depth).
    batch_size:
        When set, the chunk's sequences run in groups of this size: one
        stimulus burst per group, one injection per sequence and a
        state-domain comparator.  On an engine with summary support
        each group runs through the columnar summary path
        (:meth:`~repro.validation.testbench.FIFOTestbench.\
run_sequence_batches_summary`, one call per chunk yielding each
        group's verdicts ->
        :meth:`~repro.campaigns.stats.StreamingCampaignResult.add_batch`);
        on any other engine through the per-sequence
        :meth:`~repro.validation.testbench.FIFOTestbench.\
run_sequence_batch`.  The statistics depend on ``batch_size`` (it
        sets the stimulus granularity) but **not** on the engine -- a
        batched campaign is bit-identical between ``engine="simd"`` and
        any scalar engine, which is what the CI smoke checks.  ``None``
        keeps the historical per-sequence path (read-out comparator).
    sampler:
        How each group's patterns are drawn.  ``"scalar"`` (default)
        draws them one at a time from a ``random.Random`` stream --
        byte-for-byte the historical behaviour; on the summary path the
        group is converted with
        :meth:`~repro.faults.batch.PatternBatch.from_patterns`.
        ``"array"`` draws each group in one vectorised call
        (:func:`repro.faults.batch.sample_pattern_batch`, numpy
        ``Generator`` seeded through the same hash-split chunk seeds),
        so on a summary engine fault sampling to campaign counters
        builds **no per-sequence Python object anywhere**; engines
        without summary support get the same sampled patterns as
        objects.  Either mode's statistics are engine-independent and
        worker-count bit-identical; the two *modes* sample different
        (statistically equivalent) streams.  ``"array"`` requires
        ``batch_size`` and numpy.
    """

    width: int = 32
    depth: int = 32
    codes: Tuple[str, ...] = ("hamming(7,4)", "crc16")
    num_chains: int = 80
    pattern: str = "single"
    burst_size: int = 4
    inject_phase: str = "sleep"
    engine: Optional[str] = None
    words_per_sequence: Optional[int] = None
    batch_size: Optional[int] = None
    sampler: str = "scalar"

    def __post_init__(self) -> None:
        # Accept a bare code name the way ProtectedDesign does, rather
        # than letting tuple("crc16") explode it into characters.
        if isinstance(self.codes, str):
            object.__setattr__(self, "codes", (self.codes,))
        else:
            object.__setattr__(self, "codes", tuple(self.codes))
        if self.pattern not in VALIDATION_PATTERNS:
            raise ValueError(
                f"unknown pattern {self.pattern!r}; choose from "
                f"{VALIDATION_PATTERNS}")
        check_inject_phase(self.inject_phase)
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.sampler not in ("scalar", "array"):
            raise ValueError(
                f"unknown sampler {self.sampler!r}; choose 'scalar' or "
                f"'array'")
        if self.sampler == "array":
            if self.batch_size is None:
                raise ValueError(
                    "sampler='array' draws whole groups at once and "
                    "needs batch_size")
            import importlib.util
            if importlib.util.find_spec("numpy") is None:
                raise ValueError(
                    "sampler='array' requires numpy (the [simd] "
                    "packaging extra)")
        if self.engine is not None:
            # Validate eagerly (against the engine registry) so a typo
            # fails at task construction, not inside a worker process;
            # keep the canonical spelling so case variants of the same
            # campaign share one checkpoint fingerprint.
            from repro.engines.registry import validate_engine
            object.__setattr__(self, "engine", validate_engine(self.engine))

    def empty_result(self) -> StreamingCampaignResult:
        return StreamingCampaignResult()

    def chunk_granularity(self) -> int:
        """Default chunk sizes align to whole batches, so the batch
        engines' amortization survives the scheduler's chunking."""
        return self.batch_size if self.batch_size is not None else 1

    def _pattern_factory(self, num_chains: int, chain_length: int):
        from repro.faults.patterns import (
            burst_error_pattern,
            multi_error_pattern,
            single_error_pattern,
        )
        if self.pattern == "single":
            return lambda rng: single_error_pattern(num_chains, chain_length,
                                                    rng)
        if self.pattern == "burst":
            return lambda rng: burst_error_pattern(num_chains, chain_length,
                                                   self.burst_size, rng)
        if self.pattern == "multiple":
            return lambda rng: multi_error_pattern(num_chains, chain_length,
                                                   self.burst_size, rng)
        return lambda rng: None

    def _build_bench(self):
        """Build the seed-independent protected design + test bench.

        The injector and stimulus built here carry default seeds; the
        :class:`~repro.campaigns.worker_cache.FIFOChunkWorkspace` that
        owns the bench reseeds both from every chunk seed.
        """
        # Heavy imports stay inside the worker-side call so the task
        # module itself is import-cycle-free and cheap to pickle.
        from repro.circuit.fifo import SyncFIFO
        from repro.core.protected import ProtectedDesign
        from repro.validation.testbench import FIFOTestbench

        fifo = SyncFIFO(self.width, self.depth,
                        name=f"fifo{self.width}x{self.depth}")
        engine_kwargs: Dict[str, Any] = \
            {} if self.engine is None else {"engine": self.engine}
        design = ProtectedDesign(
            fifo, codes=list(self.codes), num_chains=self.num_chains,
            **engine_kwargs)
        testbench = FIFOTestbench(
            design, words_per_sequence=self.words_per_sequence)
        return design, testbench

    def build_worker_state(self):
        """One reusable bench per task fingerprint."""
        from repro.campaigns.worker_cache import FIFOChunkWorkspace
        return FIFOChunkWorkspace(self)

    def run_chunk_on(self, state, chunk_seed: int,
                     num_sequences: int) -> StreamingCampaignResult:
        """Run one chunk of sequences on a (possibly reused) workspace.

        ``state.reseed`` restores the bench to its as-built state and
        derives every seed-dependent stream from ``chunk_seed``, so the
        result depends only on ``(self, chunk_seed, num_sequences)``.
        Both samplers seed their pattern stream with
        ``child_seed(chunk_seed, "pattern")``.

        On a summary engine the chunk's batches go through one
        :meth:`~repro.validation.testbench.FIFOTestbench.\
run_sequence_batches_summary` call, which walks the bench's flops once
        for the chunk; each batch is still drawn, simulated and reduced
        on its own before the next one is drawn, with its own
        controller/domain cycle.
        """
        state.reseed(chunk_seed)
        design, testbench = state.design, state.testbench
        num_chains, chain_length = design.num_chains, design.chain_length
        pattern_seed = child_seed(chunk_seed, "pattern")
        result = StreamingCampaignResult()
        if self.sampler == "array":
            import numpy as np

            from repro.faults.batch import sample_pattern_batch

            generator = np.random.default_rng(pattern_seed)

            def draw(group):
                return sample_pattern_batch(
                    self.pattern, num_chains, chain_length, group,
                    generator, num_errors=self.burst_size)
        else:
            import random

            factory = self._pattern_factory(num_chains, chain_length)
            rng = random.Random(pattern_seed)

            if self.batch_size is None:
                for _ in range(num_sequences):
                    result.add(testbench.run_sequence(factory(rng),
                                                      self.inject_phase))
                return result

            def draw(group):
                return [factory(rng) for _ in range(group)]

        # Batched groups (last group short), each sharing one stimulus
        # burst: one columnar summary pass on a summary engine, one
        # scalar cycle per sequence otherwise.
        if design.supports_batch_summary:
            from repro.faults.batch import PatternBatch

            def batches():
                for group in self._groups(num_sequences):
                    drawn = draw(group)
                    if self.sampler == "scalar":
                        drawn = PatternBatch.from_patterns(
                            drawn, num_chains, chain_length)
                    yield drawn, group

            for arrays in testbench.run_sequence_batches_summary(
                    batches(), self.inject_phase):
                result.add_batch(arrays)
                # Free this batch's verdicts before the next one runs.
                del arrays
            return result
        for group in self._groups(num_sequences):
            drawn = draw(group)
            if self.sampler == "array":
                drawn = drawn.patterns()
            for sequence in testbench.run_sequence_batch(
                    drawn, self.inject_phase):
                result.add(sequence)
        return result

    def _groups(self, num_sequences: int) -> Iterator[int]:
        """The batch sizes of a chunk: full batches, the last short."""
        remaining = num_sequences
        while remaining:
            group = min(self.batch_size, remaining)
            remaining -= group
            yield group


__all__ = ["FIFOValidationCampaignTask", "INJECT_PHASES",
           "VALIDATION_PATTERNS"]
