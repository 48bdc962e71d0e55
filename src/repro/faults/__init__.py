"""Fault injection substrate.

Implements the paper's validation machinery (Section IV):

* :mod:`repro.faults.lfsr` -- linear feedback shift registers used to
  pick random injection locations;
* :mod:`repro.faults.injector` -- the row/column error-injection
  circuit of Fig. 6 which flips scan-out bits as the chains circulate;
* :mod:`repro.faults.patterns` -- single-error and clustered multi-error
  (burst) patterns of Fig. 7;
* :mod:`repro.faults.droop` -- a physically motivated injector that
  derives upsets from the rush-current droop model instead of an LFSR;
* :mod:`repro.faults.batch` -- batch fault injection over bit planes
  and word-packed state: one XOR per targeted scan cell injects a
  whole batch of per-sequence patterns (the injection side of
  :mod:`repro.engines.simd`), plus the vectorised pattern sampler of
  the campaign summary path;
* :mod:`repro.faults.campaign` -- bookkeeping of injected / detected /
  corrected counts across a campaign.
"""

from repro.faults.lfsr import LFSR, GaloisLFSR, DEFAULT_TAPS
from repro.faults.injector import ScanErrorInjector, InjectionPlan
from repro.faults.patterns import (
    ErrorPattern,
    single_error_pattern,
    multi_error_pattern,
    burst_error_pattern,
    random_pattern,
)
from repro.faults.batch import apply_batch_flips, batch_pattern_flips
from repro.faults.droop import DroopFaultInjector
from repro.faults.campaign import CampaignStats, InjectionRecord

__all__ = [
    "LFSR",
    "GaloisLFSR",
    "DEFAULT_TAPS",
    "ScanErrorInjector",
    "InjectionPlan",
    "ErrorPattern",
    "single_error_pattern",
    "multi_error_pattern",
    "burst_error_pattern",
    "random_pattern",
    "apply_batch_flips",
    "batch_pattern_flips",
    "DroopFaultInjector",
    "CampaignStats",
    "InjectionRecord",
]
