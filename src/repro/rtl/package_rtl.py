"""Bundle the RTL of a protected design into a file set.

:func:`emit_rtl_package` walks a
:class:`~repro.core.protected.ProtectedDesign` and produces one Verilog
file per distinct monitoring block type plus the controller, together
with a file list and a short integration note -- the shape of output a
DFT insertion script would hand to the downstream synthesis flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Union

from repro.codes.base import BlockCode, StreamCode
from repro.codes.crc import CRCCode
from repro.codes.hamming import HammingCode
from repro.core.protected import ProtectedDesign
from repro.rtl.controller_rtl import monitored_controller_verilog
from repro.rtl.monitor_rtl import crc_monitor_verilog, hamming_monitor_verilog


@dataclass
class RTLPackage:
    """A named collection of generated Verilog sources."""

    top_name: str
    files: Dict[str, str] = field(default_factory=dict)

    @property
    def file_names(self):
        """Names of the generated files, in insertion order."""
        return list(self.files)

    @property
    def total_lines(self) -> int:
        """Total number of generated source lines."""
        return sum(text.count("\n") for text in self.files.values())

    def write_to(self, directory: Union[str, Path]) -> Path:
        """Write every file into ``directory`` (created if needed)."""
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (target / name).write_text(text, encoding="utf-8")
        return target


def emit_rtl_package(design: ProtectedDesign) -> RTLPackage:
    """Generate the Verilog file set for a protected design.

    One monitor module is emitted per distinct code (all blocks of the
    same code share the module, matching how the hardware is
    instantiated ``W / k`` times), plus the monitored controller and a
    file list / integration note.
    """
    package = RTLPackage(top_name=f"{design.circuit.name}_protected")
    chain_length = design.chain_length

    for code in design.codes:
        # Exact type check: subclasses (SECDED, interleaved wrappers)
        # have different codeword layouts and would get subtly wrong
        # RTL from the plain Hamming emitter.
        if type(code) is HammingCode:
            file_name = f"monitor_hamming_{code.n}_{code.k}.v"
            package.files[file_name] = hamming_monitor_verilog(
                code, chain_length)
        elif isinstance(code, CRCCode):
            file_name = f"monitor_{code.name.replace('-', '_')}.v"
            package.files[file_name] = crc_monitor_verilog(
                code, num_inputs=design.num_chains)
        elif isinstance(code, (BlockCode, StreamCode)):
            # Codes without a dedicated emitter (e.g. interleaved or
            # SECDED wrappers) are documented rather than silently
            # dropped.
            file_name = f"monitor_{type(code).__name__.lower()}.txt"
            package.files[file_name] = (
                f"// no RTL emitter for {type(code).__name__}; "
                "use the Python model as the reference\n")

    counter_width = max(1, math.ceil(math.log2(chain_length + 1)))
    package.files["pg_controller_monitored.v"] = (
        monitored_controller_verilog(counter_width=counter_width))

    filelist = "\n".join(name for name in package.files
                         if name.endswith(".v"))
    package.files["filelist.f"] = filelist + "\n"
    package.files["INTEGRATION.md"] = _integration_note(design)
    return package


def _integration_note(design: ProtectedDesign) -> str:
    config = design.config
    code_names = ", ".join(c.name for c in design.codes)
    return "\n".join([
        f"# RTL integration note for {design.circuit.name}",
        "",
        f"* monitoring codes      : {code_names}",
        f"* scan chains (monitor) : {config.num_chains} x "
        f"{config.chain_length} flops",
        f"* monitoring blocks     : {config.num_monitor_blocks}",
        f"* test-mode scan ports  : {config.test_width} "
        f"({config.test_cycles} cycles per pattern)",
        f"* encode/decode latency : {config.encode_cycles} cycles "
        f"({config.encode_latency_ns:.0f} ns at the scan clock)",
        "",
        "Wire each monitoring block's `scan_out` inputs to the scan-out",
        "ports of its chains and feed `scan_in` back to the chains'",
        "scan-in ports through the 3-way selector (loop-back / corrected",
        "feedback / test input).  Drive `monitor_mode`, `scan_enable`,",
        "`retain` and the header switches from `pg_controller_monitored`.",
        "Manufacturing test re-uses the same chains via the Fig. 5(b)",
        "loop-back concatenation and is unaffected by the monitor.",
        "",
    ])


__all__ = ["RTLPackage", "emit_rtl_package"]
