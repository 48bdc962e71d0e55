"""Cost trade-off sweeps (paper Tables I--III and Fig. 9).

All sweeps operate on the paper's 32x32 FIFO case study (overridable)
and use :class:`~repro.core.protected.ProtectedDesign`'s cost reporting,
which in turn rests on the 120 nm cost model of :mod:`repro.tech`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaigns.seeding import child_seed
from repro.campaigns.stats import StreamingCampaignResult
from repro.circuit.base import SequentialCircuit
from repro.circuit.fifo import SyncFIFO
from repro.codes.hamming import PAPER_HAMMING_CODES, HammingCode
from repro.core.protected import CostReport, ProtectedDesign
from repro.tech.library import StandardCellLibrary
from repro.validation.campaign import (
    run_sharded_multiple_error_campaign,
    run_sharded_single_error_campaign,
)

#: The scan-chain counts swept in Tables I and II.
PAPER_CHAIN_SWEEP: Tuple[int, ...] = (4, 8, 16, 40, 80)

#: The chain count used for each code in Table III (a multiple of each
#: code's data width ``k`` so the monitoring blocks divide evenly).
PAPER_FAMILY_CHAINS: Dict[Tuple[int, int], int] = {
    (7, 4): 56,
    (15, 11): 55,
    (31, 26): 52,
    (63, 57): 57,
}


def _default_fifo() -> SyncFIFO:
    return SyncFIFO(width=32, depth=32, name="fifo32x32")


def sweep_code_configurations(code: str,
                              chain_counts: Sequence[int] = PAPER_CHAIN_SWEEP,
                              circuit: Optional[SequentialCircuit] = None,
                              clock_hz: float = 100e6,
                              library: Optional[StandardCellLibrary] = None
                              ) -> List[CostReport]:
    """Cost reports of one code across several scan-chain counts.

    This is the generic engine behind Tables I and II: each chain count
    yields one table row (area, overhead %, enc/dec power, latency,
    enc/dec energy).
    """
    circuit = circuit if circuit is not None else _default_fifo()
    reports: List[CostReport] = []
    for num_chains in chain_counts:
        design = ProtectedDesign(circuit, codes=code, num_chains=num_chains,
                                 clock_hz=clock_hz, library=library)
        reports.append(design.cost_report())
    return reports


def table1_crc16(chain_counts: Sequence[int] = PAPER_CHAIN_SWEEP,
                 circuit: Optional[SequentialCircuit] = None,
                 clock_hz: float = 100e6,
                 library: Optional[StandardCellLibrary] = None
                 ) -> List[CostReport]:
    """Regenerate the rows of the paper's Table I (CRC-16 monitoring)."""
    return sweep_code_configurations("crc16", chain_counts, circuit,
                                     clock_hz, library)


def table2_hamming74(chain_counts: Sequence[int] = PAPER_CHAIN_SWEEP,
                     circuit: Optional[SequentialCircuit] = None,
                     clock_hz: float = 100e6,
                     library: Optional[StandardCellLibrary] = None
                     ) -> List[CostReport]:
    """Regenerate the rows of the paper's Table II (Hamming(7,4))."""
    return sweep_code_configurations("hamming(7,4)", chain_counts, circuit,
                                     clock_hz, library)


@dataclass(frozen=True)
class HammingFamilyRow:
    """One row of the paper's Table III."""

    n: int
    k: int
    num_chains: int
    fifo_area_um2: float
    total_area_um2: float
    area_overhead_percent: float
    enc_power_mw: float
    dec_power_mw: float
    correction_capability_percent: float

    def as_dict(self) -> Dict[str, float]:
        """Dictionary form for table rendering and comparisons."""
        return {
            "n": self.n,
            "k": self.k,
            "W": self.num_chains,
            "fifo_area_um2": round(self.fifo_area_um2, 1),
            "total_area_um2": round(self.total_area_um2, 1),
            "area_overhead_percent": round(self.area_overhead_percent, 2),
            "enc_power_mw": round(self.enc_power_mw, 3),
            "dec_power_mw": round(self.dec_power_mw, 3),
            "correction_capability_percent": round(
                self.correction_capability_percent, 2),
        }


def table3_hamming_family(
        family: Sequence[Tuple[int, int]] = PAPER_HAMMING_CODES,
        chains_per_code: Optional[Dict[Tuple[int, int], int]] = None,
        circuit: Optional[SequentialCircuit] = None,
        clock_hz: float = 100e6,
        library: Optional[StandardCellLibrary] = None
        ) -> List[HammingFamilyRow]:
    """Regenerate the paper's Table III: cost versus Hamming redundancy.

    For each code the chain count defaults to the paper's choice (a
    multiple of the code's ``k`` near 52--57 chains).
    """
    circuit = circuit if circuit is not None else _default_fifo()
    chains_per_code = (chains_per_code if chains_per_code is not None
                       else PAPER_FAMILY_CHAINS)
    rows: List[HammingFamilyRow] = []
    for n, k in family:
        code = HammingCode(n, k)
        num_chains = chains_per_code.get((n, k), k)
        design = ProtectedDesign(circuit, codes=code, num_chains=num_chains,
                                 clock_hz=clock_hz, library=library)
        cost = design.cost_report()
        rows.append(HammingFamilyRow(
            n=n, k=k, num_chains=num_chains,
            fifo_area_um2=cost.area.base_area,
            total_area_um2=cost.area.total,
            area_overhead_percent=cost.area_overhead_percent,
            enc_power_mw=cost.encode_cost.power_mw,
            dec_power_mw=cost.decode_cost.power_mw,
            correction_capability_percent=code.correction_capability * 100.0))
    return rows


def fig9_series(chain_counts: Sequence[int] = PAPER_CHAIN_SWEEP,
                circuit: Optional[SequentialCircuit] = None,
                clock_hz: float = 100e6,
                library: Optional[StandardCellLibrary] = None
                ) -> Dict[str, Dict[str, List[float]]]:
    """Regenerate both panels of the paper's Fig. 9.

    Returns a mapping with one entry per code (``"crc16"`` and
    ``"hamming(7,4)"``); each entry holds aligned lists:

    * ``chains`` -- the swept scan-chain counts (x axis);
    * ``area_overhead_percent`` and ``coding_power_mw`` -- Fig. 9(a);
    * ``latency_ns`` and ``energy_nj`` -- Fig. 9(b).
    """
    circuit = circuit if circuit is not None else _default_fifo()
    series: Dict[str, Dict[str, List[float]]] = {}
    for code in ("crc16", "hamming(7,4)"):
        reports = sweep_code_configurations(code, chain_counts, circuit,
                                            clock_hz, library)
        series[code] = {
            "chains": [float(r.config.num_chains) for r in reports],
            "area_overhead_percent": [r.area_overhead_percent
                                      for r in reports],
            "coding_power_mw": [r.encode_cost.power_mw for r in reports],
            "latency_ns": [r.latency_ns for r in reports],
            "energy_nj": [r.encode_cost.energy_nj for r in reports],
        }
    return series


def section4_validation_rows(num_sequences: int = 100,
                             burst_size: int = 4,
                             width: int = 32, depth: int = 32,
                             num_chains: int = 80,
                             seed: Optional[int] = 20100308,
                             engine: Optional[str] = "packed",
                             batch_size: Optional[int] = None,
                             num_workers: int = 1,
                             chunk_size: Optional[int] = None,
                             sampler: str = "scalar"
                             ) -> Dict[str, StreamingCampaignResult]:
    """Regenerate the Section IV campaign headlines, sharded.

    Runs the paper's two FPGA validation campaigns (single error per
    sequence, clustered multi-bit burst per sequence) through the
    :mod:`repro.campaigns` runner on the paper's 32x32 FIFO / 80-chain
    configuration and returns their streaming statistics, keyed
    ``"single_error"`` / ``"multiple_error"`` to match
    :data:`repro.analysis.paper_data.VALIDATION_SUMMARY`.

    ``engine`` accepts any registered simulation engine;
    ``engine="simd"`` with a ``batch_size`` runs the campaigns on the
    vectorised batch path, and ``sampler="array"`` on top draws each
    batch's patterns vectorised too -- the fastest way to push the
    sequence count toward the paper's 10^8.  ``sampler`` is passed to
    both campaign drivers; the default ``"scalar"`` keeps the
    historical random streams (the array sampler's streams differ,
    statistically equivalently).
    """
    single = run_sharded_single_error_campaign(
        num_sequences, width=width, depth=depth, num_chains=num_chains,
        seed=None if seed is None else child_seed(seed, "single"),
        engine=engine, batch_size=batch_size, sampler=sampler,
        num_workers=num_workers, chunk_size=chunk_size)
    multiple = run_sharded_multiple_error_campaign(
        num_sequences, burst_size=burst_size, clustered=True,
        width=width, depth=depth, num_chains=num_chains,
        seed=None if seed is None else child_seed(seed, "multiple"),
        engine=engine, batch_size=batch_size, sampler=sampler,
        num_workers=num_workers, chunk_size=chunk_size)
    return {"single_error": single, "multiple_error": multiple}


__all__ = [
    "PAPER_CHAIN_SWEEP",
    "PAPER_FAMILY_CHAINS",
    "sweep_code_configurations",
    "table1_crc16",
    "table2_hamming74",
    "table3_hamming_family",
    "HammingFamilyRow",
    "fig9_series",
    "section4_validation_rows",
]
