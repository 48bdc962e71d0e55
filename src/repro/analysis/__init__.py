"""Analysis sweeps that regenerate the paper's tables and figures.

* :mod:`repro.analysis.tradeoff` -- the scan-chain-configuration cost
  sweeps behind Table I (CRC-16), Table II (Hamming(7,4)), Table III
  (the Hamming family) and both panels of Fig. 9;
* :mod:`repro.analysis.correction_capability` -- the Monte-Carlo
  correction-capability study of Fig. 10;
* :mod:`repro.analysis.paper_data` -- the numbers published in the
  paper, for side-by-side comparison in EXPERIMENTS.md and in the
  benchmark output;
* :mod:`repro.analysis.tables` -- plain-text rendering of measured
  versus published results.
"""

from repro.analysis.tradeoff import (
    sweep_code_configurations,
    table1_crc16,
    table2_hamming74,
    table3_hamming_family,
    fig9_series,
    section4_validation_rows,
    HammingFamilyRow,
)
from repro.analysis.correction_capability import (
    CorrectionCapabilityResult,
    CorrectionCapabilityTask,
    correction_capability_curve,
    analytic_correction_probability,
    analytic_full_correction_probability,
    fig10_curves,
)
from repro.analysis import paper_data
from repro.analysis.sensitivity import (
    BreakEvenPoint,
    SensitivityOutcome,
    format_break_even_table,
    library_scaling_sensitivity,
    sleep_break_even,
)
from repro.analysis.tables import (
    format_measured_vs_paper,
    format_family_table,
    format_fig10_table,
    format_validation_summary,
)

__all__ = [
    "BreakEvenPoint",
    "SensitivityOutcome",
    "format_break_even_table",
    "library_scaling_sensitivity",
    "sleep_break_even",
    "sweep_code_configurations",
    "table1_crc16",
    "table2_hamming74",
    "table3_hamming_family",
    "fig9_series",
    "section4_validation_rows",
    "HammingFamilyRow",
    "CorrectionCapabilityResult",
    "CorrectionCapabilityTask",
    "correction_capability_curve",
    "analytic_correction_probability",
    "analytic_full_correction_probability",
    "fig10_curves",
    "paper_data",
    "format_measured_vs_paper",
    "format_family_table",
    "format_fig10_table",
    "format_validation_summary",
]
