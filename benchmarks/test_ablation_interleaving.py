"""Ablation benchmark: interleaved Hamming against the paper's plain Hamming.

DESIGN.md calls out interleaving as the standard countermeasure to the
clustered-burst failure mode the paper observes (its multi-error
experiment corrects nothing because the burst lands inside one
codeword).  This ablation runs the same clustered-burst campaign with

* the paper's plain Hamming(7,4) + CRC-16 stack, and
* a depth-4 interleaved Hamming(7,4) + CRC-16 stack,

and shows that interleaving recovers most of the correction capability
on bursts while detection remains at 100 % for both.
"""

import pytest

from benchmarks.conftest import bench_sequences, print_section
from repro.circuit.fifo import SyncFIFO
from repro.codes.hamming import HammingCode
from repro.codes.interleave import InterleavedCode
from repro.core.protected import ProtectedDesign
from repro.validation.campaign import run_sharded_multiple_error_campaign


def _campaign(codes, sequences, seed=4242):
    return run_sharded_multiple_error_campaign(
        sequences, burst_size=3, clustered=True, width=16, depth=16,
        codes=codes, num_chains=16, seed=seed)


@pytest.mark.benchmark(group="ablation")
def test_interleaving_recovers_burst_correction(benchmark):
    sequences = bench_sequences(25)

    def run():
        plain = _campaign([HammingCode(7, 4), "crc16"], sequences)
        interleaved = _campaign(
            [InterleavedCode(HammingCode(7, 4), depth=4), "crc16"],
            sequences)
        return plain, interleaved

    plain, interleaved = benchmark.pedantic(run, rounds=1, iterations=1)

    # Both stacks detect every burst.
    assert plain.stats.detection_rate() == 1.0
    assert interleaved.stats.detection_rate() == 1.0
    assert plain.stats.silent_corruptions == 0
    assert interleaved.stats.silent_corruptions == 0

    # Interleaving corrects strictly more of the clustered bursts.
    assert (interleaved.stats.correction_rate()
            > plain.stats.correction_rate())

    # And the cost: the interleaved monitor needs no extra parity
    # storage (same r/k ratio), so its area overhead stays comparable.
    fifo = SyncFIFO(16, 16)
    plain_cost = ProtectedDesign(fifo, codes=HammingCode(7, 4),
                                 num_chains=16).cost_report()
    inter_cost = ProtectedDesign(
        fifo, codes=InterleavedCode(HammingCode(7, 4), depth=4),
        num_chains=16).cost_report()
    area_ratio = (inter_cost.area_overhead_percent
                  / plain_cost.area_overhead_percent)

    print_section(
        "Ablation -- interleaved Hamming(7,4) vs plain Hamming(7,4) on "
        f"clustered 3-bit bursts ({sequences} sequences)",
        "\n".join([
            f"plain       correction rate: "
            f"{plain.stats.correction_rate():8.2%}   "
            f"detection: {plain.stats.detection_rate():.0%}",
            f"interleaved correction rate: "
            f"{interleaved.stats.correction_rate():8.2%}   "
            f"detection: {interleaved.stats.detection_rate():.0%}",
            f"area overhead ratio (interleaved / plain): {area_ratio:.2f}",
        ]))
