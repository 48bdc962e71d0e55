"""Benchmarks E1/E2: the FPGA validation campaigns of Section IV.

The paper runs 10^8 test sequences on a Virtex-II Pro; here the same
five-stage test bench (Fig. 8) runs in software on the paper's exact
configuration -- the 32x32 FIFO with 80 scan chains of 13 flops,
monitored by Hamming(7,4) for correction and CRC-16 for verification.

Headline results to reproduce:

* single-error campaign -- 100 % detection, 100 % correction, zero
  comparator mismatches;
* multiple-error (clustered burst) campaign -- 100 % detection, zero
  silent corruption, (near-)zero correction.

The sequence count defaults to a CI-sized value; set
``REPRO_BENCH_SEQUENCES`` to scale the campaign up.
"""

import pytest

from benchmarks.conftest import bench_sequences, print_section
from repro.circuit.fifo import SyncFIFO
from repro.core.protected import ProtectedDesign
from repro.validation.campaign import (
    run_sharded_multiple_error_campaign,
    run_sharded_single_error_campaign,
)

#: The paper's FPGA configuration: a 32x32 FIFO in 80 chains of 13
#: flops, Hamming(7,4) correction plus CRC-16 verification.
PAPER_BENCH = dict(width=32, depth=32, codes=("hamming(7,4)", "crc16"),
                   num_chains=80, words_per_sequence=16)


@pytest.mark.benchmark(group="validation")
def test_single_error_campaign(benchmark):
    sequences = bench_sequences(30)
    result = benchmark.pedantic(
        lambda: run_sharded_single_error_campaign(
            sequences, seed=20100308, **PAPER_BENCH),
        rounds=1, iterations=1)

    # Paper: "the error correction circuitry detected and corrected all
    # single errors ... no error was reported by FIFO_A" (meaning no
    # uncorrected error), verified by the comparator.
    assert result.stats.detection_rate() == 1.0
    assert result.stats.correction_rate() == 1.0
    assert result.stats.bit_correction_rate() == 1.0
    assert result.mismatches_reported_by_comparator == 0
    assert result.stats.silent_corruptions == 0
    assert result.inconsistent_sequences == 0

    print_section(
        f"Validation E1 -- single-error campaign ({sequences} sequences)",
        result.summary())


@pytest.mark.benchmark(group="validation")
def test_multiple_error_campaign(benchmark):
    sequences = bench_sequences(30)
    result = benchmark.pedantic(
        lambda: run_sharded_multiple_error_campaign(
            sequences, burst_size=4, clustered=True, seed=20100309,
            **PAPER_BENCH),
        rounds=1, iterations=1)

    # Paper: "none of the errors were corrected ... however all these
    # errors were accurately detected".
    assert result.stats.detection_rate() == 1.0
    assert result.stats.correction_rate() < 0.5
    assert result.stats.silent_corruptions == 0
    assert result.inconsistent_sequences == 0

    print_section(
        f"Validation E2 -- clustered multi-error campaign "
        f"({sequences} sequences, 4-bit bursts)",
        result.summary())


@pytest.mark.benchmark(group="validation")
def test_unprotected_baseline_suffers_silent_corruption(benchmark):
    """Reliability baseline: the same FIFO without monitoring.

    Demonstrates what the methodology buys: with the conventional
    control sequence (Fig. 3(a)) every injected retention upset becomes
    a silent corruption.
    """
    sequences = bench_sequences(20)
    fifo = SyncFIFO(32, 32, name="fifo_unprotected")
    design = ProtectedDesign(fifo, codes=["hamming(7,4)", "crc16"],
                             num_chains=80)

    def run():
        import random

        from repro.faults.patterns import single_error_pattern
        rng = random.Random(1)
        silent = 0
        for _ in range(sequences):
            pattern = single_error_pattern(80, 13, rng)
            outcome = design.unprotected_sleep_wake_cycle(injection=pattern)
            silent += 1 if outcome.silent_corruption else 0
        return silent

    silent = benchmark.pedantic(run, rounds=1, iterations=1)
    assert silent == sequences

    print_section(
        "Validation baseline -- unprotected sleep/wake",
        f"{silent}/{sequences} sequences ended with silent state corruption "
        f"(100 % expected without monitoring)")
