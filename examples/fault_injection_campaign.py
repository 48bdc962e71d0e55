#!/usr/bin/env python3
"""Reproduce the paper's FPGA validation campaign in software (Section IV).

Builds the Fig. 8 test bench -- a protected FIFO (FIFO_A), an error-free
reference FIFO (FIFO_B), a random stimulus generator, a comparator and
an event counter -- and runs the two campaigns the paper reports:

* single-error injection: one random flip per sleep/wake sequence,
  expected to be detected and corrected every time;
* clustered multi-error injection: a burst per sequence, expected to be
  detected every time but (almost) never corrected by Hamming(7,4).

Run with::

    python examples/fault_injection_campaign.py [num_sequences] [num_workers]
    python examples/fault_injection_campaign.py [num_sequences] --simd
    python examples/fault_injection_campaign.py [num_sequences] --array

Both campaigns are submitted as jobs of one
:class:`~repro.campaigns.scheduler.CampaignScheduler`: O(1)-memory
counter statistics, per-job progress with live throughput/ETA, and
results that are bit-identical for any worker count and executor kind.
One worker runs them inline; with ``num_workers > 1`` they run
concurrently, fair-share, over a single shared process pool (the path
toward the paper's 10^8-sequence scale).  With
``--simd`` they run on the numpy word-packed SIMD engine
(:mod:`repro.engines.simd`), which simulates 256 sequences per pass
and whose fully vectorised decode keeps that throughput even when
every sequence carries errors -- exactly the regime of the clustered
multi-error experiment below.  ``--array``
additionally switches the campaign bookkeeping to the columnar summary
path (vectorised pattern sampling, ndarray counter ingestion -- see
the README's "Campaign throughput guide"), the fastest full-cycle
configuration and the target of the profiling recipes.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaigns import CampaignScheduler, FIFOValidationCampaignTask
from repro.validation.campaign import (
    run_sharded_multiple_error_campaign,
    run_sharded_single_error_campaign,
)


def progress_printer(label: str):
    """A per-job progress callback printing throughput and ETA.

    Both estimates come straight off :class:`~repro.campaigns.runner.\
CampaignProgress` -- computed in the parent process, restored
    checkpoint chunks excluded from the rate.
    """
    def progress(event):
        eta = event.eta_seconds
        eta_text = "--" if eta is None else f"{eta:5.1f}s"
        print(f"  [{label}] {event.sequences_completed}/"
              f"{event.total_sequences} sequences  "
              f"{event.sequences_per_second:8.1f} seq/s  eta {eta_text}",
              flush=True)
    return progress


def main_scheduled(num_sequences: int, num_workers: int) -> None:
    """Both campaigns as jobs of one CampaignScheduler.

    FIFO_A is the paper's 32x32 FIFO in the 80-chain configuration,
    with Hamming(7,4) correction and CRC-16 verification.
    """
    executor = ("the serial executor" if num_workers == 1 else
                f"one shared process pool of {num_workers} workers")
    print(f"running {num_sequences} sequences per campaign, both "
          f"campaigns interleaved fair-share over {executor} "
          f"(packed engine, streaming stats)\n")
    scheduler = CampaignScheduler(num_workers=num_workers)
    common = dict(width=32, depth=32, num_chains=80,
                  words_per_sequence=16, engine="packed")
    single_job = scheduler.submit(
        FIFOValidationCampaignTask(pattern="single", **common),
        num_sequences, seed=20100308,
        progress_callback=progress_printer("single"))
    multi_job = scheduler.submit(
        FIFOValidationCampaignTask(pattern="burst", burst_size=4, **common),
        num_sequences, seed=20100308,
        progress_callback=progress_printer("burst"))
    scheduler.run()

    print()
    print("=" * 60)
    print("experiment 1: single error per test sequence")
    print("=" * 60)
    print(single_job.result.summary())
    print("paper result: all single errors detected and corrected; no "
          "mismatch reported by the comparator")

    print()
    print("=" * 60)
    print("experiment 2: clustered multi-bit errors per test sequence")
    print("=" * 60)
    print(multi_job.result.summary())
    print("paper result: none corrected (bursts defeat Hamming), but all "
          "accurately detected and reported")

    # The scheduler memoizes merged results: resubmitting the same
    # campaign (task fingerprint, seed, size) is served from cache.
    rerun = scheduler.submit(
        FIFOValidationCampaignTask(pattern="single", **common),
        num_sequences, seed=20100308)
    assert rerun.from_cache and rerun.result == single_job.result
    print("\nresubmitted the single-error campaign: served from the "
          "scheduler's result cache, no chunks executed")
    scheduler.close()


def main_batched(num_sequences: int, num_workers: int = 1,
                 engine: str = "simd",
                 sampler: str = "scalar") -> None:
    """The same two campaigns on the SIMD batch engine."""
    batch = min(1024 if sampler == "array" else 256, num_sequences)
    mode = " + columnar summary path" if sampler == "array" else ""
    print(f"running {num_sequences} sequences per campaign on the "
          f"{engine} engine{mode} ({batch} sequences per pass, "
          f"{num_workers} worker(s))\n")
    for title, runner in (
            ("single error per test sequence",
             run_sharded_single_error_campaign),
            ("clustered multi-bit errors",
             lambda n, **kw: run_sharded_multiple_error_campaign(
                 n, burst_size=4, clustered=True, **kw))):
        print("=" * 60)
        print(f"experiment: {title} ({engine}{mode})")
        print("=" * 60)
        result = runner(num_sequences, width=32, depth=32, num_chains=80,
                        words_per_sequence=16, engine=engine,
                        batch_size=batch, sampler=sampler,
                        num_workers=num_workers)
        print(result.summary())
        print()


def main() -> None:
    flags = [a for a in sys.argv[1:] if a.startswith("--")]
    unknown = [f for f in flags if f not in ("--simd", "--array")]
    if unknown:
        raise SystemExit(f"unknown option(s): {', '.join(unknown)} "
                         f"(supported: --simd, --array)")
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    num_sequences = int(args[0]) if args else 50
    num_workers = int(args[1]) if len(args) > 1 else 1
    if "--array" in flags:
        main_batched(num_sequences, num_workers, sampler="array")
        return
    if "--simd" in flags:
        main_batched(num_sequences, num_workers)
        return
    main_scheduled(num_sequences, num_workers)


if __name__ == "__main__":
    main()
