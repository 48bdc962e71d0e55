"""Functional-verification test bench (paper Fig. 8).

The paper validates the methodology on an FPGA with a five-component
test bench: the protected FIFO plus error injector (FIFO_A), an
error-free reference FIFO (FIFO_B), a random stimulus generator, a
comparator and an event counter.  This package reproduces that test
bench in software:

* :mod:`repro.validation.stimulus` -- reproducible random write data;
* :mod:`repro.validation.comparator` -- drains both FIFOs and compares;
* :mod:`repro.validation.testbench` -- the five-stage test sequence
  (reset, write, sleep, wake, read/compare) around a
  :class:`~repro.core.protected.ProtectedDesign`;
* :mod:`repro.validation.campaign` -- the single-error and
  multiple-error campaigns of Section IV, run as
  :mod:`repro.campaigns` jobs.
"""

from repro.validation.stimulus import StimulusGenerator
from repro.validation.comparator import Comparator, ComparisonResult
from repro.validation.testbench import FIFOTestbench, TestSequenceResult
from repro.validation.campaign import (
    run_sharded_single_error_campaign,
    run_sharded_multiple_error_campaign,
)

__all__ = [
    "StimulusGenerator",
    "Comparator",
    "ComparisonResult",
    "FIFOTestbench",
    "TestSequenceResult",
    "run_sharded_single_error_campaign",
    "run_sharded_multiple_error_campaign",
]
