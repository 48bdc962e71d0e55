"""Benchmark E9: sharded campaign throughput, scaling and checkpoint IO.

The paper's validation campaigns run 10^8 test sequences on the FPGA;
the sharded scheduler of :mod:`repro.campaigns` is the software path
toward that scale.  This benchmark runs the paper's single-error
campaign (32x32 FIFO, 80 chains, Hamming(7,4) + CRC-16, packed engine)
through :func:`~repro.campaigns.scheduler.run_sharded_campaign` at
several worker counts, prints the throughput table, and checks the two
properties the subsystem guarantees:

* the merged statistics are bit-identical for every worker count;
* the result is a flat counter object -- resident statistics memory is
  O(1) in the sequence count, so only wall-clock time stands between a
  CI-sized run and the paper's 10^8 (set ``REPRO_BENCH_SEQUENCES`` to
  scale up, e.g. to the 10^6 acceptance campaign).
"""

import json
import time

import pytest

from benchmarks.conftest import bench_sequences, print_section, record_bench
from repro.analysis import paper_data
from repro.analysis.tables import format_validation_summary
from repro.analysis.tradeoff import section4_validation_rows
from repro.campaigns.scheduler import run_sharded_campaign
from repro.campaigns.stats import StreamingCampaignResult
from repro.campaigns.tasks import FIFOValidationCampaignTask

WORKER_SWEEP = (1, 2, 4)


def _paper_task():
    return FIFOValidationCampaignTask(
        width=32, depth=32, codes=("hamming(7,4)", "crc16"), num_chains=80,
        pattern="single", engine="packed", words_per_sequence=16)


@pytest.mark.benchmark(group="campaign-scaling")
def test_sharded_campaign_scaling(benchmark):
    sequences = bench_sequences(48)
    chunk_size = max(1, sequences // 16)
    task = _paper_task()

    timings = {}
    results = {}
    for workers in WORKER_SWEEP:
        start = time.perf_counter()
        results[workers] = run_sharded_campaign(
            task, sequences, seed=20100308, chunk_size=chunk_size,
            num_workers=workers)
        timings[workers] = time.perf_counter() - start
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    # Determinism: bit-identical statistics at every worker count.
    assert results[2] == results[1]
    assert results[4] == results[1]

    # The paper's single-error headline holds at scale.
    stats = results[1].stats
    assert stats.num_sequences == sequences
    assert stats.detection_rate() == 1.0
    assert stats.correction_rate() == 1.0
    assert results[1].mismatches_reported_by_comparator == 0

    # O(1) statistics memory: the result is a flat counter object whose
    # serialized size is independent of the campaign length.
    assert isinstance(results[1], StreamingCampaignResult)
    assert not hasattr(results[1], "sequences")
    small = run_sharded_campaign(task, max(1, sequences // 4),
                                 seed=20100308,
                                 chunk_size=chunk_size)
    assert len(json.dumps(results[1].to_dict())) == pytest.approx(
        len(json.dumps(small.to_dict())), rel=0.1)

    base = timings[1]
    lines = ["workers  seq/s      speedup"]
    for workers in WORKER_SWEEP:
        rate = sequences / timings[workers]
        lines.append(f"{workers:>7}  {rate:>9.1f}  {base / timings[workers]:>6.2f}x")
    print_section(
        f"Campaign scaling -- sharded single-error campaign "
        f"({sequences} sequences, chunk={chunk_size}, packed engine)",
        "\n".join(lines))


@pytest.mark.benchmark(group="campaign-scaling")
def test_section4_summary_via_sharded_runner(benchmark):
    sequences = bench_sequences(24)
    rows = benchmark.pedantic(
        lambda: section4_validation_rows(num_sequences=sequences,
                                         num_workers=2),
        rounds=1, iterations=1)

    single = rows["single_error"].stats
    multiple = rows["multiple_error"].stats
    assert single.detection_rate() == 1.0
    assert single.correction_rate() == 1.0
    assert multiple.detection_rate() == 1.0
    assert multiple.correction_rate() < 0.5
    assert multiple.silent_corruptions == 0

    print_section(
        f"Section IV campaign headlines ({sequences} sequences each, "
        f"2 workers)",
        format_validation_summary(rows, paper_data.VALIDATION_SUMMARY))


@pytest.mark.benchmark(group="campaign-scaling")
def test_campaign_checkpoint_overhead(benchmark, tmp_path):
    """Checkpointed vs uncheckpointed wall time, per-chunk vs interval.

    The historical policy rewrote the whole growing JSON payload after
    every chunk -- O(chunks^2) bytes over a campaign.  The
    :class:`~repro.campaigns.checkpoints.CheckpointStore` interval
    policy amortises that by ``save_interval``; this benchmark pins
    the win on a many-chunk campaign of deliberately tiny chunks (the
    regime where checkpoint IO, not simulation, dominates) and records
    it as the committed ``campaign_checkpoint_overhead`` entry.
    """
    from repro.analysis.correction_capability import (
        CorrectionCapabilityTask,
    )

    chunks = bench_sequences(512)
    interval = max(1, chunks // 8)
    task = CorrectionCapabilityTask(code_n=7, code_k=4, num_bits=100,
                                    num_errors=1, engine="packed")

    def run(path=None, save_interval=1):
        start = time.perf_counter()
        result = run_sharded_campaign(
            task, chunks, seed=20100308, chunk_size=1,
            checkpoint_path=path, save_interval=save_interval)
        elapsed = time.perf_counter() - start
        assert result.sequences == chunks
        return result, elapsed

    baseline, uncheckpointed_s = run()
    per_chunk, per_chunk_s = run(str(tmp_path / "per_chunk.json"), 1)
    interval_result, interval_s = run(str(tmp_path / "interval.json"),
                                      interval)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    # The flush policy must never change the statistics.
    assert per_chunk == baseline
    assert interval_result == baseline

    results = {
        "chunks": chunks,
        "save_interval": interval,
        "uncheckpointed_s": uncheckpointed_s,
        "per_chunk_checkpoint_s": per_chunk_s,
        "interval_checkpoint_s": interval_s,
        "per_chunk_overhead_x": per_chunk_s / uncheckpointed_s,
        "interval_overhead_x": interval_s / uncheckpointed_s,
        "interval_speedup_vs_per_chunk": per_chunk_s / interval_s,
        "floors": {
            # The interval policy must stay decisively cheaper than
            # write-per-chunk in the IO-bound regime (locally ~38x;
            # the floor is deliberately loose for noisy CI boxes).
            "interval_speedup_vs_per_chunk": 2.0,
        },
    }
    path = record_bench("campaigns", results,
                        section="campaign_checkpoint_overhead")

    print_section(
        f"Campaign checkpoint overhead ({chunks} chunks of 1 sequence, "
        f"save_interval={interval})",
        "\n".join([
            f"uncheckpointed        : {uncheckpointed_s * 1e3:8.1f} ms",
            f"checkpoint every chunk: {per_chunk_s * 1e3:8.1f} ms "
            f"({results['per_chunk_overhead_x']:.2f}x)",
            f"interval checkpoint   : {interval_s * 1e3:8.1f} ms "
            f"({results['interval_overhead_x']:.2f}x, "
            f"{results['interval_speedup_vs_per_chunk']:.2f}x less "
            f"IO time than per-chunk)",
            f"results written to {path}",
        ]))
