#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md -- the paper-vs-measured record.

Runs every experiment of the paper's evaluation section (Tables I-III,
Fig. 9, Fig. 10 and the two Section IV validation campaigns) on the
Python reproduction and writes the results, next to the paper's
published numbers, to ``EXPERIMENTS.md`` at the repository root.

Run with::

    python examples/generate_experiments_report.py [--sequences N] [--out PATH]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import SyncFIFO
from repro.analysis import paper_data
from repro.analysis.correction_capability import fig10_curves
from repro.analysis.tables import (
    format_family_table,
    format_fig10_table,
    format_measured_vs_paper,
)
from repro.analysis.tradeoff import (
    fig9_series,
    table1_crc16,
    table2_hamming74,
    table3_hamming_family,
)
from repro.validation.campaign import (
    run_sharded_multiple_error_campaign,
    run_sharded_single_error_campaign,
)


def _fig9_text(series) -> str:
    lines = ["chains | code          | ovh %  | power mW | latency ns | energy nJ",
             "-" * 68]
    for code, data in series.items():
        for i, chains in enumerate(data["chains"]):
            lines.append(
                f"{int(chains):6d} | {code:13s} "
                f"| {data['area_overhead_percent'][i]:6.1f} "
                f"| {data['coding_power_mw'][i]:8.2f} "
                f"| {data['latency_ns'][i]:10.0f} "
                f"| {data['energy_nj'][i]:9.2f}")
    return "\n".join(lines)


def build_report(sequences: int, fig10_sequences: int) -> str:
    fifo = SyncFIFO(32, 32, name="fifo32x32")

    table1 = table1_crc16(circuit=fifo)
    table2 = table2_hamming74(circuit=fifo)
    table3 = table3_hamming_family(circuit=fifo)
    fig9 = fig9_series(circuit=fifo)
    fig10 = fig10_curves(sequences=fig10_sequences, seed=20100310)

    # FIFO_A: the paper's 32x32 FIFO in 80 chains, Hamming(7,4) + CRC-16.
    bench = dict(width=32, depth=32, num_chains=80, words_per_sequence=16,
                 seed=20100308)
    single = run_sharded_single_error_campaign(sequences, **bench)
    multiple = run_sharded_multiple_error_campaign(
        sequences, burst_size=4, clustered=True, **bench)

    sections = []
    sections.append(
        "# EXPERIMENTS -- paper vs measured\n\n"
        "Reproduction of the evaluation section of Yang et al., *Scan Based\n"
        "Methodology for Reliable State Retention Power Gating Designs*\n"
        "(DATE 2010).  Absolute area/power values come from this repo's\n"
        "calibrated 120 nm cost model rather than the authors'\n"
        "Synopsys/STMicro flow, so the comparison criterion is the *shape*\n"
        "of each result (orderings, ratios, trends), per DESIGN.md.  This\n"
        "file is regenerated by `python examples/generate_experiments_report.py`.\n")

    sections.append("## E1 / E2 -- FPGA validation campaigns (Section IV)\n")
    sections.append(
        f"Campaign size: {sequences} sequences per experiment "
        f"(paper: 10^8 on a Virtex-II Pro; rates converge far earlier).\n")
    sections.append("### Single error per sequence\n\n```\n"
                    + single.summary() + "\n```\n")
    sections.append(
        "Paper: every single error detected **and corrected**; no mismatch\n"
        "reported by the comparator.  Measured: detection "
        f"{single.stats.detection_rate():.1%}, correction "
        f"{single.stats.correction_rate():.1%}, comparator mismatches "
        f"{single.mismatches_reported_by_comparator}.\n")
    sections.append("### Clustered multi-bit errors per sequence\n\n```\n"
                    + multiple.summary() + "\n```\n")
    sections.append(
        "Paper: none corrected (bursts defeat Hamming(7,4)) but all\n"
        "accurately detected.  Measured: detection "
        f"{multiple.stats.detection_rate():.1%}, correction "
        f"{multiple.stats.correction_rate():.1%}, silent corruptions "
        f"{multiple.stats.silent_corruptions}.\n")

    sections.append("## E3 -- Table I: CRC-16 cost sweep\n\n```\n"
                    + format_measured_vs_paper(table1,
                                               paper_data.TABLE1_CRC16)
                    + "\n```\n")
    sections.append(
        "Shape check: latency and chain length match exactly (geometry);\n"
        "area overhead stays in the single-digit-to-low-teens percent range\n"
        "and grows with W; power is nearly flat; energy falls ~20x from\n"
        "W=4 to W=80, as in the paper.\n")

    sections.append("## E4 -- Table II: Hamming(7,4) cost sweep\n\n```\n"
                    + format_measured_vs_paper(table2,
                                               paper_data.TABLE2_HAMMING74)
                    + "\n```\n")
    sections.append(
        "Shape check: overhead in the 65-90 % band growing with W (parity\n"
        "storage dominates), latency identical to CRC-16, power and energy\n"
        "20-40 % above CRC-16 at every W.\n")

    sections.append("## E5 -- Table III: Hamming code family\n\n```\n"
                    + format_family_table(table3,
                                          paper_data.TABLE3_HAMMING_FAMILY)
                    + "\n```\n")
    sections.append(
        "Shape check: overhead and coding power fall monotonically with the\n"
        "code redundancy while the correction capability column (1/n,\n"
        "exact) falls from 14.3 % to 1.59 %.  The measured overhead for the\n"
        "low-redundancy codes sits above the paper's (the fixed per-chain\n"
        "scan-routing cost weighs more in this model), but the ordering and\n"
        "the headline (84.8 % -> ~16-30 %) reduction reproduce.\n")

    sections.append("## E6 / E7 -- Fig. 9: trade-off curves\n\n```\n"
                    + _fig9_text(fig9) + "\n```\n")
    sections.append(
        "Fig. 9(a): Hamming's area-overhead curve lies far above CRC's;\n"
        "power curves nearly flat with Hamming 20-40 % higher.  Fig. 9(b):\n"
        "the two latency curves coincide (latency depends only on chain\n"
        "length) and energy falls steeply with W for both codes.\n")

    sections.append(
        f"## E8 -- Fig. 10: correction capability "
        f"({fig10_sequences} sequences per point)\n\n```\n"
        + format_fig10_table(fig10) + "\n```\n")
    anchors = paper_data.FIG10_REFERENCE
    measured_74 = {p.num_errors: p.corrected_percent for p in fig10[(7, 4)]}
    measured_6357 = {p.num_errors: p.corrected_percent
                     for p in fig10[(63, 57)]}
    sections.append(
        "Paper anchor points vs measured: Hamming(7,4) at 2 errors "
        f"{anchors[(7, 4)][2]} % vs {measured_74[2]:.2f} %, at 10 errors "
        f"{anchors[(7, 4)][10]} % vs {measured_74[10]:.2f} %; "
        f"Hamming(63,57) at 2 errors {anchors[(63, 57)][2]} % vs "
        f"{measured_6357[2]:.2f} %, at 10 errors {anchors[(63, 57)][10]} % "
        f"vs {measured_6357[10]:.2f} %.  Ordering across the four codes "
        "matches the paper at every error count.\n")

    sections.append("## E9 -- Section III scan-reconfiguration example\n")
    sections.append(
        "128 flip-flops: 4 chains -> 32 cycles per pass, 16 chains -> 8\n"
        "cycles, a 4.0x speed-up with manufacturing-test mode unchanged\n"
        "(4 ports, 32-bit concatenated chains) -- reproduced exactly; see\n"
        "`benchmarks/test_scan_speedup.py`.\n")

    sections.append("## Ablations beyond the paper\n")
    sections.append(
        "* `benchmarks/test_ablation_interleaving.py` -- depth-4 interleaved\n"
        "  Hamming(7,4) recovers most of the burst-correction capability the\n"
        "  paper's plain Hamming loses, at comparable parity-storage cost.\n"
        "* `benchmarks/test_ablation_rush_mitigation.py` -- staggered switch\n"
        "  turn-on (the prior art [7,8]) lowers the droop and the expected\n"
        "  upset count but cannot repair the upsets that still occur; the\n"
        "  monitored design detects them all.\n"
        "* `benchmarks/test_ablation_detection_options.py` -- the full\n"
        "  detection/correction option space (parity, CRC-16, Hamming,\n"
        "  SECDED, Hamming+CRC) at the paper's W=80 configuration.\n")

    return "\n".join(sections)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sequences", type=int, default=40,
                        help="validation campaign size (default 40)")
    parser.add_argument("--fig10-sequences", type=int, default=4000,
                        help="Monte-Carlo size per Fig. 10 point")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "EXPERIMENTS.md")
    args = parser.parse_args()

    report = build_report(args.sequences, args.fig10_sequences)
    args.out.write_text(report, encoding="utf-8")
    print(f"wrote {args.out} ({len(report.splitlines())} lines)")


if __name__ == "__main__":
    main()
