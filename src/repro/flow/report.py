"""Plain-text report formatting for synthesis and cost results.

These helpers render the same row layout as the paper's Tables I and II
so that benchmark output can be compared against the published tables
side by side.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.protected import CostReport

#: Column order of the paper's Tables I and II.
TABLE_COLUMNS = (
    ("W", "W"),
    ("l", "l"),
    ("area_um2", "area um2"),
    ("area_overhead_percent", "ovh %"),
    ("enc_power_mw", "enc mW"),
    ("dec_power_mw", "dec mW"),
    ("latency_ns", "t ns"),
    ("enc_energy_nj", "enc nJ"),
    ("dec_energy_nj", "dec nJ"),
)


def format_cost_table(reports: Sequence[CostReport],
                      title: str = "") -> str:
    """Format cost reports as an aligned text table (Tables I/II layout)."""
    rows: List[dict] = [report.as_table_row() for report in reports]
    headers = [header for _, header in TABLE_COLUMNS]
    widths = [len(h) for h in headers]
    formatted_rows: List[List[str]] = []
    for row in rows:
        cells = []
        for (key, _header), index in zip(TABLE_COLUMNS, range(len(headers))):
            cell = f"{row[key]}"
            widths[index] = max(widths[index], len(cell))
            cells.append(cell)
        formatted_rows.append(cells)

    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for cells in formatted_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)


def format_synthesis_report(result, title: str = "synthesis result") -> str:
    """Render a :class:`~repro.flow.synthesizer.SynthesisResult` as text."""
    design = result.design
    cost = result.cost
    code_names = ", ".join(c.name for c in design.codes)
    lines = [
        title,
        "=" * len(title),
        f"circuit            : {design.circuit.name} "
        f"({design.circuit.num_registers} registers)",
        f"monitoring codes   : {code_names}",
        f"selected chains W  : {cost.config.num_chains}",
        f"chain length l     : {cost.config.chain_length}",
        f"monitor blocks     : {cost.config.num_monitor_blocks}",
        f"total area         : {cost.area_total_um2:.0f} um2",
        f"area overhead      : {cost.area_overhead_percent:.1f} %",
        f"encode power       : {cost.encode_cost.power_mw:.2f} mW",
        f"decode power       : {cost.decode_cost.power_mw:.2f} mW",
        f"encode latency     : {cost.latency_ns:.0f} ns",
        f"encode energy      : {cost.encode_cost.energy_nj:.2f} nJ",
        f"decode energy      : {cost.decode_cost.energy_nj:.2f} nJ",
    ]
    if len(result.explored) > 1:
        lines.append("")
        lines.append(format_cost_table(result.explored,
                                       title="explored configurations:"))
    return "\n".join(lines)


__all__ = ["format_cost_table", "format_synthesis_report", "TABLE_COLUMNS"]
