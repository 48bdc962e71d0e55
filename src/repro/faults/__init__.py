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
* :mod:`repro.faults.batch` -- batch fault injection in coordinate-array
  form (:class:`~repro.faults.batch.PatternBatch`, one flip per array
  entry) and its resolvers into the engines' word masks, coordinates
  and CSR slices, plus the vectorised pattern sampler of the campaign
  summary path; it requires numpy, so it is not imported here.

:class:`InjectionRecord`, one sequence's injected / detected /
corrected counts, is re-exported from :mod:`repro.campaigns.stats`,
whose streaming counters aggregate a campaign.
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
from repro.faults.droop import DroopFaultInjector
from repro.campaigns.stats import InjectionRecord

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
    "DroopFaultInjector",
    "InjectionRecord",
]
