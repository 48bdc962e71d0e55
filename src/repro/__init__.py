"""repro -- reproduction of "Scan Based Methodology for Reliable State
Retention Power Gating Designs" (Yang, Al-Hashimi, Flynn, Khursheed,
DATE 2010).

The package is organised as a set of substrates plus the paper's core
contribution:

``repro.circuit``
    Register-transfer level substrate: flip-flops (plain, scan and state
    retention), gate primitives, a light netlist container, scan-chain
    insertion and the 32x32 FIFO case-study circuit.

``repro.codes``
    Error detection/correction codes used by the state monitoring block:
    the Hamming(n, k) family, CRC-16 (and generic CRCs), parity and
    SECDED, plus interleaving wrappers.

``repro.power``
    Power-gating substrate: power domains, sleep-transistor networks,
    leakage, the RLC rush-current step-response model and the
    retention-latch upset model driven by supply droop.

``repro.faults``
    Fault injection: LFSRs, the row/column scan-stream error injector of
    the paper's Fig. 6, error patterns (single/burst) and campaigns.

``repro.tech``
    A 120 nm standard-cell cost model and area/power/latency/energy
    estimators used to regenerate the paper's cost tables.

``repro.flow``
    Emulation of the reliability-aware synthesis flow (paper Fig. 4).

``repro.core``
    The paper's contribution: state monitoring block, error correction
    block, the monitored power-gating controller (Fig. 3b), scan-chain
    configuration (Fig. 5) and the :class:`~repro.core.ProtectedDesign`
    integration object.

``repro.validation``
    The FPGA-style functional-verification test bench (Fig. 8).

``repro.analysis``
    Parameter sweeps and Monte-Carlo campaigns that regenerate every
    table and figure of the paper's evaluation section.

``repro.engines``
    Pluggable simulation engines behind a name-based registry:
    ``"reference"`` (bit-serial), ``"packed"`` (one big-int bitmask
    per chain; pure stdlib, bit-exact against the reference) and, with
    numpy installed, ``"simd"`` -- a word-packed engine that
    simulates B independent test sequences per vectorised pass by
    storing bit position *i* of 64 sequences in one uint64 word.
    ``ProtectedDesign.sleep_wake_cycle_batch_summary`` and the
    campaign drivers' ``batch_size`` option ride on it; third-party
    engines plug in with
    :func:`repro.engines.register_engine` without touching the core.

``repro.campaigns``
    Campaign orchestration toward the paper's 10^8-sequence scale:
    streaming O(1)-memory mergeable statistics, hash-based
    seed-splitting, and a sharded multiprocessing scheduler with
    checkpoint/resume whose results are bit-identical for any worker
    count.
"""

from repro.core.protected import ProtectedDesign
from repro.core.scan_config import ScanChainConfig
from repro.core.controller import (
    ControllerState,
    PowerGatingController,
    MonitoredPowerGatingController,
)
from repro.codes import (
    CRCCode,
    HammingCode,
    ParityCode,
    SECDEDCode,
    get_code,
)
from repro.circuit.fifo import SyncFIFO
from repro.flow.synthesizer import ReliabilityAwareSynthesizer
from repro.flow.config import FlowConfig

__version__ = "1.1.0"

__all__ = [
    "ProtectedDesign",
    "ScanChainConfig",
    "ControllerState",
    "PowerGatingController",
    "MonitoredPowerGatingController",
    "CRCCode",
    "HammingCode",
    "ParityCode",
    "SECDEDCode",
    "get_code",
    "SyncFIFO",
    "ReliabilityAwareSynthesizer",
    "FlowConfig",
    "__version__",
]
