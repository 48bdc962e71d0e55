"""Benchmark: the fused jit summary path vs the simd engine.

One guarded benchmark, recorded as the ``campaign_jit_path`` section
of ``BENCH_engines.json`` and enforced by the CI regression guard:

* **campaign_jit_path** -- end-to-end single-error campaign chunk on
  the paper's 32x32-FIFO configuration at batch 65536 (the regime
  where per-batch Python overhead vanishes and the summary pass is
  the whole story), ``engine="jit"`` against the simd engine's best
  path on the same workload (it picks the single-flip outcome table at
  single-error density).  The fused kernels must hold
  >= 2x cycle throughput: the table path still sorts the flip
  coordinates and gathers five outcome columns per batch, while the
  kernel walks each sequence's CSR slice exactly once, in parallel.

The section carries ``"requires": ["numba"]``: the benchmark skips on
installs without numba (the engine is simply not registered), and the
regression guard then reports the committed floors as skipped, not
regressed.  Kernel warm-up (compile or ``cache=True`` load) happens
explicitly before any clock starts -- exactly what sharded campaign
workers get from engine construction.

Bit-exactness of the measured work is asserted inline (the full
property matrix lives in ``tests/engines/test_jit_equivalence.py``).
"""

import time

import pytest

from benchmarks.conftest import print_section, record_bench
from repro.engines.registry import available_engines, get_engine

#: The jit engine registers only when numba is importable (the [jit]
#: extra); without it the whole module skips and the regression guard
#: reports the committed campaign_jit_path floors as skipped.
JIT_AVAILABLE = "jit" in available_engines()
requires_jit = pytest.mark.skipif(
    not JIT_AVAILABLE,
    reason="numba not installed (the [jit] packaging extra)")

JIT_BATCH = 65536
JIT_SEQUENCES = 65536
JIT_FLOOR = 2.0


def _time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _campaign_task(engine):
    from repro.campaigns.tasks import FIFOValidationCampaignTask
    return FIFOValidationCampaignTask(
        width=32, depth=32, codes=("hamming(7,4)", "crc16"),
        num_chains=80, pattern="single", engine=engine,
        batch_size=JIT_BATCH, sampler="array")


@requires_jit
@pytest.mark.benchmark(group="engines")
def test_campaign_jit_path_throughput():
    """End-to-end single-error campaign chunk, fused jit kernels vs
    the simd engine, on the paper's 32x32-FIFO configuration at batch
    65536: the jit engine must hold >= 2x cycle throughput over the
    simd engine's own best path on this workload.
    """
    import numpy as np

    from repro.circuit.fifo import SyncFIFO
    from repro.core.protected import ProtectedDesign
    from repro.engines.jit import warm_up_kernels
    from repro.engines.packing import pack_chains
    from repro.faults.batch import sample_pattern_batch

    # Compile (or cache-load) outside every clock; returns True iff
    # numba is importable, which requires_jit already guaranteed.
    assert warm_up_kernels() is True

    simd_task = _campaign_task("simd")
    jit_task = _campaign_task("jit")

    # Bit-identity of the measured work: the jit and simd chunks agree
    # counter for counter on the same seeds.
    check_jit = jit_task.run_chunk(20100308, JIT_BATCH)
    check_simd = simd_task.run_chunk(20100308, JIT_BATCH)
    assert check_jit == check_simd, \
        "jit path diverged from the simd summary path"
    assert check_jit.stats.detection_rate() == 1.0
    assert check_jit.stats.correction_rate() == 1.0

    # The fused kernel really is the path taken -- asserted at the
    # engine level, where the chosen path is published.
    design = ProtectedDesign(SyncFIFO(32, 32, name="fifo32x32"),
                             codes=["hamming(7,4)", "crc16"],
                             num_chains=80, engine="jit")
    engine = get_engine("jit", design)
    sampled = sample_pattern_batch("single", design.num_chains,
                                   design.chain_length, 256,
                                   np.random.default_rng(1))
    engine.run_batch_summary(*pack_chains(design.chains), sampled, 256)
    assert engine.last_summary_path == "jit"

    times = {}
    for label, task in (("simd", simd_task), ("jit", jit_task)):
        task.run_chunk(20100308, JIT_BATCH)  # warm-up
        times[label] = _time(
            lambda task=task: task.run_chunk(20100308, JIT_SEQUENCES),
            repeats=2) / JIT_SEQUENCES

    speedup = times["simd"] / times["jit"]
    record_bench("engines", {
        "requires": ["numba"],
        "num_flops": 32 * 32 + 16,
        "num_chains": 80,
        "batch_size": JIT_BATCH,
        "num_sequences": JIT_SEQUENCES,
        "codes": ["hamming(7,4)", "crc16"],
        "pattern": "single",
        "engine": "jit",
        "cycle_seconds_per_sequence": {
            "simd_path": times["simd"],
            "jit_path": times["jit"],
        },
        "cycle_sequences_per_second": {
            "simd_path": 1.0 / times["simd"],
            "jit_path": 1.0 / times["jit"],
        },
        "jit_speedup_vs_simd": speedup,
        "floors": {
            "jit_speedup_vs_simd": JIT_FLOOR,
        },
    }, section="campaign_jit_path")

    print_section(
        "Engines -- end-to-end single-error campaign, fused jit vs "
        "simd summary path (32x32 FIFO, batch 65536)",
        f"simd summary path (auto: delta)    : "
        f"{times['simd'] * 1e6:9.2f} us per sequence\n"
        f"jit fused kernels (single pass)    : "
        f"{times['jit'] * 1e6:9.2f} us per sequence\n"
        f"jit / simd                         : {speedup:9.1f}x "
        f"(acceptance: >= {JIT_FLOOR:.0f}x)")
    assert speedup >= JIT_FLOOR
