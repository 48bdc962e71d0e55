"""Benchmark E10: one shared persistent pool vs a fresh pool per job.

The campaign service's weak regime is many small jobs.  A runner given
``executor="process"`` builds its own persistent pool and closes it when
the run ends, so every job pays pool spin-up, task shipping and one
bench construction (design, chains, monitor bank, engine workspaces)
per worker.  A caller-owned
:class:`~repro.campaigns.executors.PersistentProcessExecutor` passed to
every runner pays each of those once per worker *lifetime*: the pool
survives across ``submit_jobs`` calls, tasks ship at most once per
worker, and workers memoize the seed-independent bench per task
fingerprint, rebuilding only the seed-dependent streams per chunk.

This benchmark pins the amortization as the committed
``campaign_warm_pool`` section: 16 back-to-back two-chunk campaigns
through one shared pool versus a fresh runner-owned pool per job.  The
guarded headline is ``warm_speedup_many_jobs`` (floor 2x).  Jobs are
kept this short on purpose: a runner-owned pool already builds the
bench once per worker, not once per chunk, so the shared pool's edge is
the per-job spin-up, shipping and build -- it shrinks as jobs grow
(8 jobs of 8 chunks measured 1.5-2.0x; 16 jobs of 2 chunks 3.4-4.4x).

Both sides are asserted bit-identical to the serial reference before
any timing is recorded -- a fast-but-wrong pool must fail here, not in
a downstream statistics check.  The per-chunk setup-vs-compute split
reported through ``CampaignProgress`` is also checked: by the final
shared-pool job the worker-state cache is hot, so its cumulative
``setup_seconds`` must be exactly zero.
"""

import time

import pytest

from benchmarks.conftest import bench_sequences, print_section, record_bench
from repro.campaigns.executors import PersistentProcessExecutor
from repro.campaigns.runner import ShardedCampaignRunner
from repro.campaigns.tasks import FIFOValidationCampaignTask


def _service_task():
    """The paper's 32x32/80-chain configuration on the simd engine --
    heavy seed-independent construction, vectorised per-chunk compute:
    exactly the balance the shared pool exists to amortize."""
    return FIFOValidationCampaignTask(
        width=32, depth=32, codes=("hamming(7,4)", "crc16"), num_chains=80,
        pattern="single", engine="simd", sampler="array", batch_size=8,
        words_per_sequence=8)


@pytest.mark.benchmark(group="campaign-warm-pool")
def test_warm_pool_amortization(benchmark):
    pytest.importorskip("numpy")
    task = _service_task()
    sequences = bench_sequences(16)
    chunk_size = min(8, sequences)
    num_jobs = 16
    seeds = [20100308 + job for job in range(num_jobs)]

    serial = {seed: ShardedCampaignRunner(task, sequences, seed=seed,
                                          chunk_size=chunk_size,
                                          executor="serial").run()
              for seed in seeds}

    # -- many small jobs: a fresh runner-owned pool per job -----------
    start = time.perf_counter()
    for seed in seeds:
        result = ShardedCampaignRunner(task, sequences, seed=seed,
                                       chunk_size=chunk_size,
                                       executor="process").run()
        assert result == serial[seed]
    fresh_jobs_s = time.perf_counter() - start

    # -- many small jobs: one shared pool serves every job ------------
    progress = {}
    start = time.perf_counter()
    with PersistentProcessExecutor(1) as pool:
        for seed in seeds:
            snapshots = []
            result = ShardedCampaignRunner(
                task, sequences, seed=seed, chunk_size=chunk_size,
                executor=pool,
                progress_callback=snapshots.append).run()
            assert result == serial[seed]
            progress[seed] = snapshots[-1]
    warm_jobs_s = time.perf_counter() - start
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    # The amortization is observable through the timing split: the
    # first job pays the worker-state build once, the last job's
    # chunks are all served from the hot cache.
    first, last = progress[seeds[0]], progress[seeds[-1]]
    assert first.setup_seconds > 0.0
    assert last.setup_seconds == 0.0
    assert last.compute_seconds > 0.0

    results = {
        "requires": ["numpy"],
        "num_jobs": num_jobs,
        "sequences_per_job": sequences,
        "chunk_size": chunk_size,
        "fresh_pool_jobs_s": fresh_jobs_s,
        "warm_jobs_s": warm_jobs_s,
        "warm_speedup_many_jobs": fresh_jobs_s / warm_jobs_s,
        "first_job_setup_s": first.setup_seconds,
        "last_job_setup_s": last.setup_seconds,
        "floors": {
            # One shared pool must beat a fresh pool per job decisively
            # in the many-small-jobs regime; the floor is deliberately
            # loose for noisy CI boxes.
            "warm_speedup_many_jobs": 2.0,
        },
    }
    path = record_bench("campaigns", results, section="campaign_warm_pool")

    print_section(
        f"Shared persistent pool ({num_jobs} jobs x {sequences} "
        f"sequences, chunk={chunk_size}, simd engine, 1 worker)",
        "\n".join([
            f"fresh pool per job : {fresh_jobs_s * 1e3:8.1f} ms",
            f"one shared pool    : {warm_jobs_s * 1e3:8.1f} ms "
            f"({results['warm_speedup_many_jobs']:.2f}x)",
            f"first-job setup {first.setup_seconds * 1e3:.1f} ms -> "
            f"last-job setup {last.setup_seconds * 1e3:.1f} ms "
            f"(cache hot)",
            f"results written to {path}",
        ]))
