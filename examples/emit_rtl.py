#!/usr/bin/env python3
"""Emit synthesizable Verilog for a protected design.

The paper's flow ends in a synthesizable netlist (the FPGA validation
performs scan insertion in RTL).  This example builds the paper's
protected FIFO configuration, generates the Verilog for its monitoring
blocks, error correction path and monitored power-gating controller,
writes the files to ``build/rtl/`` and prints the controller transitions
of one monitored sleep/wake cycle so the generated control sequence can
be compared against the simulated one.

Run with::

    python examples/emit_rtl.py [output_dir]
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import ProtectedDesign, SyncFIFO
from repro.faults.patterns import single_error_pattern
from repro.rtl import emit_rtl_package


def main() -> None:
    output_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("build/rtl")

    fifo = SyncFIFO(32, 32, name="fifo32x32")
    design = ProtectedDesign(fifo, codes=["hamming(7,4)", "crc16"],
                             num_chains=80)

    package = emit_rtl_package(design)
    target = package.write_to(output_dir)
    print(f"wrote {len(package.files)} files "
          f"({package.total_lines} lines of RTL) to {target}/")
    for name in package.file_names:
        print(f"  {name}")

    print("\nintegration note:")
    print(package.files["INTEGRATION.MD".lower()
                        if "integration.md" in package.files
                        else "INTEGRATION.md"])

    # Run one monitored sleep/wake cycle with a single injected error
    # so the control sequence of the generated FSM can be followed.
    pattern = single_error_pattern(design.num_chains, design.chain_length,
                                   random.Random(1))
    outcome = design.sleep_wake_cycle(injection=pattern)
    print("\ncontroller transitions:")
    for step in design.controller.transition_log:
        print(f"  {step.source.value:>11s} -> {step.destination.value:<11s}"
              f" ({step.signal})")
    print(f"error code {outcome.error_code.value}, "
          f"{outcome.corrections_applied} bit(s) corrected, "
          f"state intact: {outcome.state_intact}")


if __name__ == "__main__":
    main()
