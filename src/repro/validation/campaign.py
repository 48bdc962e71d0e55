"""Error-injection campaigns (paper Section IV).

Two campaigns are reported in the paper, each over a large number of
test sequences (10^8 on the FPGA):

* **single-error campaign** -- one random flip per sequence; every error
  was detected and corrected, so FIFO_A reported nothing and the
  comparator saw no mismatch;
* **multiple-error campaign** -- clustered multi-bit bursts per
  sequence; none were corrected (the bursts defeat the Hamming code)
  but every one was detected, as confirmed by the comparator.

:func:`run_sharded_single_error_campaign` and
:func:`run_sharded_multiple_error_campaign` build either campaign's
:class:`~repro.campaigns.tasks.FIFOValidationCampaignTask` and run it
through :func:`repro.campaigns.scheduler.run_sharded_campaign`, as a
job of the :mod:`repro.campaigns` subsystem: chunks on a serial
executor or a pool of worker processes, O(1)-memory streaming
statistics and checkpoint/resume -- the path toward the paper's
10^8-sequence scale.  Every chunk reseeds its test bench's stimulus,
injector and pattern streams from its own seed-split chunk seed.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.campaigns.scheduler import run_sharded_campaign
from repro.campaigns.stats import StreamingCampaignResult
from repro.campaigns.tasks import FIFOValidationCampaignTask


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
    """The paper's first experiment: one random error per sequence.

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
    """The paper's second experiment: clustered multi-bit errors.

    With ``clustered=True`` the injected errors form a tight burst
    (Fig. 7(b)); with ``clustered=False`` they are spread uniformly,
    which is the regime in which a Hamming code still corrects most of
    them (compare the paper's Fig. 10).

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
    "run_sharded_single_error_campaign",
    "run_sharded_multiple_error_campaign",
]
