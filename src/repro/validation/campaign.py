"""Error-injection campaigns (paper Section IV).

Two campaigns are reported in the paper, each over a large number of
test sequences (10^8 on the FPGA):

* **single-error campaign** -- one random flip per sequence; every error
  was detected and corrected, so FIFO_A reported nothing and the
  comparator saw no mismatch;
* **multiple-error campaign** -- clustered multi-bit bursts per
  sequence; none were corrected (the bursts defeat the Hamming code)
  but every one was detected, as confirmed by the comparator.

:class:`ValidationCampaign` runs either campaign (or a custom one) over
a :class:`~repro.validation.testbench.FIFOTestbench` in a single
process; the ``run_sharded_*`` entry points fan the same campaigns out
over the :mod:`repro.campaigns` subsystem -- multiprocessing workers,
O(1)-memory streaming statistics, checkpoint/resume -- which is the
path toward the paper's 10^8-sequence scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

from repro.campaigns.scheduler import CampaignScheduler
from repro.campaigns.stats import StreamingCampaignResult
from repro.campaigns.tasks import FIFOValidationCampaignTask
from repro.faults.campaign import CampaignStats
from repro.faults.patterns import (
    ErrorPattern,
    burst_error_pattern,
    multi_error_pattern,
    single_error_pattern,
)
from repro.validation.testbench import FIFOTestbench, TestSequenceResult

PatternFactory = Callable[[random.Random], Optional[ErrorPattern]]


@dataclass
class CampaignResult(StreamingCampaignResult):
    """Aggregated outcome of a single-process validation campaign.

    Extends the streaming counters of
    :class:`~repro.campaigns.stats.StreamingCampaignResult` (the
    Fig. 8 "Counter" block: errors reported by FIFO_A, comparator
    mismatches) with the per-sequence
    :class:`~repro.validation.testbench.TestSequenceResult` log, which
    single-process campaigns keep for detailed inspection.  Sharded
    campaigns return the plain streaming result instead -- at 10^6+
    sequences the log is exactly the memory bound this subsystem
    removes.
    """

    stats: CampaignStats = field(default_factory=CampaignStats)
    sequences: List[TestSequenceResult] = field(default_factory=list)

    def add(self, result: TestSequenceResult) -> None:
        """Record one test sequence."""
        self.sequences.append(result)
        super().add(result)

    def merge(self, other: StreamingCampaignResult) -> "CampaignResult":
        """Merge counters and, for a full result, the sequence log.

        Accepts another :class:`CampaignResult` (counters plus the
        per-sequence log) or a plain
        :class:`~repro.campaigns.stats.StreamingCampaignResult`
        (counters only, e.g. a sharded shard).  Anything else raises:
        an unrelated object with compatible counter attributes would
        previously merge its counters and silently drop whatever its
        ``sequences`` attribute -- if any -- meant.
        """
        if not isinstance(other, StreamingCampaignResult):
            raise TypeError(
                f"cannot merge {type(other).__name__} into "
                f"CampaignResult; expected CampaignResult or "
                f"StreamingCampaignResult")
        super().merge(other)
        if isinstance(other, CampaignResult):
            self.sequences.extend(other.sequences)
        return self

    def to_dict(self):
        """Counter-only dict form; the sequence log is not serialized."""
        return super().to_dict()

    @classmethod
    def from_dict(cls, payload) -> "CampaignResult":
        """Rebuild from :meth:`to_dict` output.

        Only the counters round-trip; ``sequences`` comes back empty
        (checkpoints are deliberately O(1)-sized).
        """
        streamed = StreamingCampaignResult.from_dict(payload)
        return cls(
            stats=CampaignStats.from_dict(streamed.stats.to_dict()),
            errors_reported_by_dut=streamed.errors_reported_by_dut,
            mismatches_reported_by_comparator=(
                streamed.mismatches_reported_by_comparator),
            inconsistent_sequences=streamed.inconsistent_sequences)


class ValidationCampaign:
    """Runs repeated test sequences with a configurable error pattern.

    Parameters
    ----------
    testbench:
        The FIFO test bench to drive.
    pattern_factory:
        Called once per sequence with the campaign RNG; returns the
        error pattern to inject (or None for a clean sequence).
    seed:
        Seed of the campaign RNG (pattern placement).
    engine:
        Optional simulation-engine override used while this campaign
        runs, resolved through the registry of :mod:`repro.engines`:
        ``"packed"`` selects the bit-exact packed-integer fast path
        (the natural choice for large per-sequence campaigns),
        ``"reference"`` the bit-serial models; any third-party
        registered engine is accepted too.  ``None`` keeps the
        design's current engine.  The design's own engine setting is
        restored when :meth:`run` returns.
    """

    def __init__(self, testbench: FIFOTestbench,
                 pattern_factory: PatternFactory,
                 seed: Optional[int] = 20100308,
                 engine: Optional[str] = None):
        self.testbench = testbench
        self.pattern_factory = pattern_factory
        self._rng = random.Random(seed)
        if engine is not None:
            # Validate eagerly so a typo fails at construction time.
            testbench.dut_design.validate_engine(engine)
        self.engine = engine

    def run(self, num_sequences: int,
            inject_phase: str = "sleep") -> CampaignResult:
        """Run ``num_sequences`` test sequences and aggregate the outcome."""
        if num_sequences <= 0:
            raise ValueError("the campaign needs at least one sequence")
        design = self.testbench.dut_design
        previous_engine = design.engine
        if self.engine is not None:
            design.set_engine(self.engine)
        try:
            result = CampaignResult()
            for _ in range(num_sequences):
                pattern = self.pattern_factory(self._rng)
                sequence = self.testbench.run_sequence(pattern, inject_phase)
                result.add(sequence)
            return result
        finally:
            design.set_engine(previous_engine)


def run_single_error_campaign(testbench: FIFOTestbench, num_sequences: int,
                              seed: Optional[int] = 20100308,
                              inject_phase: str = "sleep",
                              engine: Optional[str] = None) -> CampaignResult:
    """The paper's first experiment: one random error per sequence."""
    design = testbench.dut_design

    def factory(rng: random.Random) -> ErrorPattern:
        return single_error_pattern(design.num_chains, design.chain_length,
                                    rng)

    campaign = ValidationCampaign(testbench, factory, seed=seed,
                                  engine=engine)
    return campaign.run(num_sequences, inject_phase=inject_phase)


def run_multiple_error_campaign(testbench: FIFOTestbench, num_sequences: int,
                                burst_size: int = 4,
                                clustered: bool = True,
                                seed: Optional[int] = 20100308,
                                inject_phase: str = "sleep",
                                engine: Optional[str] = None
                                ) -> CampaignResult:
    """The paper's second experiment: clustered multi-bit errors.

    With ``clustered=True`` the injected errors form a tight burst
    (Fig. 7(b)); with ``clustered=False`` they are spread uniformly,
    which is the regime in which a Hamming code still corrects most of
    them (compare the paper's Fig. 10).
    """
    design = testbench.dut_design

    def factory(rng: random.Random) -> ErrorPattern:
        if clustered:
            return burst_error_pattern(design.num_chains,
                                       design.chain_length, burst_size, rng)
        return multi_error_pattern(design.num_chains, design.chain_length,
                                   burst_size, rng)

    campaign = ValidationCampaign(testbench, factory, seed=seed,
                                  engine=engine)
    return campaign.run(num_sequences, inject_phase=inject_phase)


# ----------------------------------------------------------------------
# Sharded entry points (the scaling path: repro.campaigns)
# ----------------------------------------------------------------------
def run_sharded_campaign(task: FIFOValidationCampaignTask,
                         num_sequences: int,
                         seed: Optional[Union[int, str]] = 20100308,
                         num_workers: int = 1,
                         chunk_size: Optional[int] = None,
                         checkpoint_path: Optional[str] = None,
                         progress_callback=None,
                         executor=None,
                         save_interval: int = 1,
                         scheduler=None) -> StreamingCampaignResult:
    """Run a validation campaign task as a scheduler job.

    The result is bit-identical for any ``num_workers`` and any
    ``executor`` (``"serial"``, ``"process"``, or a
    :class:`~repro.campaigns.executors.ChunkExecutor` instance --
    pass a pre-built
    :class:`~repro.campaigns.executors.PersistentProcessExecutor` to
    serve many calls from one hot pool; the caller then owns its
    ``close()``) given the same ``(seed, num_sequences, chunk_size)``;
    see :class:`~repro.campaigns.runner.ShardedCampaignRunner` for the
    checkpoint/resume (``save_interval`` selects the flush policy) and
    progress semantics.  Passing a
    :class:`~repro.campaigns.scheduler.CampaignScheduler` as
    ``scheduler`` routes the campaign through its shared executor and
    result cache (``num_workers``/``executor`` are then the
    scheduler's business); without one, the campaign runs on a
    one-job scheduler closed on return.  Note the sharded campaigns
    seed their test benches per chunk from seed-split streams, so
    their statistics are not sequence-for-sequence identical to a
    single-process :class:`ValidationCampaign` run -- the two are
    statistically equivalent samplings of the same experiment.
    """
    owned = scheduler is None
    if owned:
        scheduler = CampaignScheduler(executor=executor,
                                      num_workers=num_workers)
    try:
        job = scheduler.submit(
            task, num_sequences, seed=seed, chunk_size=chunk_size,
            checkpoint_path=checkpoint_path, save_interval=save_interval,
            progress_callback=progress_callback)
        scheduler.run()
    finally:
        if owned:
            scheduler.close()
    return job.result


def run_sharded_single_error_campaign(
        num_sequences: int,
        width: int = 32, depth: int = 32,
        codes=("hamming(7,4)", "crc16"),
        num_chains: int = 80,
        seed: Optional[Union[int, str]] = 20100308,
        inject_phase: str = "sleep",
        engine: Optional[str] = None,
        words_per_sequence: Optional[int] = None,
        batch_size: Optional[int] = None,
        sampler: str = "scalar",
        num_workers: int = 1,
        chunk_size: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        progress_callback=None,
        executor=None,
        save_interval: int = 1,
        scheduler=None) -> StreamingCampaignResult:
    """Sharded form of :func:`run_single_error_campaign`.

    ``batch_size`` (with ``engine="simd"`` for the fast path) runs
    each chunk's sequences in batches of that size;
    ``sampler="array"`` (with a summary-capable engine such as
    ``"simd"`` for the columnar fast path) additionally vectorises the
    pattern sampling and counter ingestion; see
    :class:`~repro.campaigns.tasks.FIFOValidationCampaignTask`.
    """
    task = FIFOValidationCampaignTask(
        width=width, depth=depth, codes=codes, num_chains=num_chains,
        pattern="single", inject_phase=inject_phase, engine=engine,
        words_per_sequence=words_per_sequence, batch_size=batch_size,
        sampler=sampler)
    return run_sharded_campaign(task, num_sequences, seed=seed,
                                num_workers=num_workers,
                                chunk_size=chunk_size,
                                checkpoint_path=checkpoint_path,
                                progress_callback=progress_callback,
                                executor=executor,
                                save_interval=save_interval,
                                scheduler=scheduler)


def run_sharded_multiple_error_campaign(
        num_sequences: int,
        burst_size: int = 4,
        clustered: bool = True,
        width: int = 32, depth: int = 32,
        codes=("hamming(7,4)", "crc16"),
        num_chains: int = 80,
        seed: Optional[Union[int, str]] = 20100308,
        inject_phase: str = "sleep",
        engine: Optional[str] = None,
        words_per_sequence: Optional[int] = None,
        batch_size: Optional[int] = None,
        sampler: str = "scalar",
        num_workers: int = 1,
        chunk_size: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        progress_callback=None,
        executor=None,
        save_interval: int = 1,
        scheduler=None) -> StreamingCampaignResult:
    """Sharded form of :func:`run_multiple_error_campaign`.

    ``batch_size`` (with ``engine="simd"`` for the fast path) runs
    each chunk's sequences in batches of that size;
    ``sampler="array"`` (with a summary-capable engine such as
    ``"simd"`` for the columnar fast path) additionally vectorises the
    pattern sampling and counter ingestion; see
    :class:`~repro.campaigns.tasks.FIFOValidationCampaignTask`.
    """
    task = FIFOValidationCampaignTask(
        width=width, depth=depth, codes=codes, num_chains=num_chains,
        pattern="burst" if clustered else "multiple",
        burst_size=burst_size, inject_phase=inject_phase, engine=engine,
        words_per_sequence=words_per_sequence, batch_size=batch_size,
        sampler=sampler)
    return run_sharded_campaign(task, num_sequences, seed=seed,
                                num_workers=num_workers,
                                chunk_size=chunk_size,
                                checkpoint_path=checkpoint_path,
                                progress_callback=progress_callback,
                                executor=executor,
                                save_interval=save_interval,
                                scheduler=scheduler)


__all__ = [
    "CampaignResult",
    "ValidationCampaign",
    "run_single_error_campaign",
    "run_multiple_error_campaign",
    "run_sharded_campaign",
    "run_sharded_single_error_campaign",
    "run_sharded_multiple_error_campaign",
]
