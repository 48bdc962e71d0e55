"""The paper's core contribution.

* :mod:`repro.core.scan_config` -- scan-chain configuration arithmetic
  and the monitoring/test dual-mode configuration of Fig. 5;
* :mod:`repro.core.monitor` -- the state monitoring block (scan-stream
  encoding and decoding, parity/signature storage, syndrome checking);
* :mod:`repro.core.corrector` -- the error correction block that flips
  corrupted bits on the scan feedback path;
* :mod:`repro.core.controller` -- the conventional (Fig. 3a) and
  monitored (Fig. 3b) power-gating control sequences;
* :mod:`repro.core.protected` -- :class:`ProtectedDesign`, which wires a
  circuit, its power domain, the scan chains, the monitor bank, the
  corrector and the controller together and runs sleep/wake cycles with
  optional fault injection.
"""

from repro.core.scan_config import ScanChainConfig, TestModeMapping
from repro.core.monitor import (
    StateMonitorBlock,
    HammingMonitorBlock,
    CRCMonitorBlock,
    MonitorBank,
    MonitorReport,
)
from repro.core.corrector import ErrorCorrectionBlock, CorrectionEvent
from repro.core.controller import (
    ControllerState,
    ErrorCode,
    PowerGatingController,
    MonitoredPowerGatingController,
)
from repro.core.protected import ProtectedDesign, CycleOutcome

__all__ = [
    "ScanChainConfig",
    "TestModeMapping",
    "StateMonitorBlock",
    "HammingMonitorBlock",
    "CRCMonitorBlock",
    "MonitorBank",
    "MonitorReport",
    "ErrorCorrectionBlock",
    "CorrectionEvent",
    "ControllerState",
    "ErrorCode",
    "PowerGatingController",
    "MonitoredPowerGatingController",
    "ProtectedDesign",
    "CycleOutcome",
]
