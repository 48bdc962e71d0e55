"""The simulation-engine protocol.

A *simulation engine* owns the encode/decode monitoring passes of a
:class:`~repro.core.protected.ProtectedDesign`: everything between
"circulate the chains through the monitoring blocks" and "the chains
now hold the (corrected) state".  The design object sequences the
controller, the power domain and the fault injection; the engine only
decides *how* the passes are computed -- per-flop objects, packed
integers, word-packed arrays, or anything a third party registers.

Engines are constructed per design (one engine instance serves one
monitor bank / chain geometry) by the factories in
:mod:`repro.engines.registry` and cached on the design, keyed on the
bank and geometry they were built from, so a design whose monitoring
structure is rebuilt gets a fresh engine automatically.

Two interfaces exist:

* the **scalar** interface (:meth:`SimulationEngine.encode_pass` /
  :meth:`~SimulationEngine.decode_pass`), mandatory, drives one design
  through one pass and leaves the corrected state in the design's
  chains.  It is all
  :meth:`~repro.core.protected.ProtectedDesign.sleep_wake_cycle_batch`
  needs: that batch runs one scalar cycle per sequence, the
  engine-independent per-sequence reference every vectorised path is
  property-tested against;
* the **summary** interface (:meth:`~SimulationEngine.run_batch_summary`),
  supported by exactly the engines whose class overrides it (see
  :attr:`SimulationEngine.supports_summary`), which runs a whole
  batch -- replicate, encode, inject, decode, compare against the
  pre-sleep state -- in the engine's native layout and returns only the
  **columnar** per-sequence verdicts (:class:`BatchOutcomeArrays`, one
  ndarray per outcome field); the batch's injection is a
  :class:`~repro.faults.batch.PatternBatch`.  It is the one vectorised
  batch path: campaign counters fold each batch's
  :meth:`BatchOutcomeArrays.tally` and never materialise per-sequence
  report or outcome objects.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, List, NamedTuple, Sequence, Tuple

from repro.core.monitor import MonitorReport


class BatchTally(NamedTuple):
    """A batch's campaign-counter increments (plain ints).

    What :meth:`BatchOutcomeArrays.tally` returns and both
    ``StreamingCampaignStats.add_batch`` and
    ``StreamingCampaignResult.add_batch`` fold: one count per counter,
    with the definitions of
    :func:`~repro.campaigns.stats.injection_record_from_sequence` (a
    sequence is *corrected* when it was injected, detected **and**
    left intact) and of the test bench's comparator (a mismatching
    sequence is *consistent* only when flagged uncorrectable).
    """

    #: Sequences in the batch.
    sequences: int
    #: Sums of the per-sequence injected and residual bit counts.
    injected: int
    residual_errors: int
    #: Sequences that are detected / flagged uncorrectable / intact.
    detected: int
    uncorrectable: int
    intact: int
    #: Injected, detected and intact.
    corrected: int
    #: Injected; injected and detected.
    with_errors: int
    detected_with_errors: int
    #: Neither intact nor detected.
    silent: int
    #: Neither intact nor (detected and uncorrectable).
    inconsistent: int

    @classmethod
    def from_sums(cls, sequences: int, sums: Sequence[int]) -> "BatchTally":
        """The tally of a ``sequences``-long batch from the sums of its
        :func:`tally_columns` (in their order)."""
        (injected, residual, detected, uncorrectable, intact, corrected,
         with_errors, detected_with_errors, intact_or_detected,
         consistent) = sums
        return cls(sequences, injected, residual, detected, uncorrectable,
                   intact, corrected, with_errors, detected_with_errors,
                   sequences - intact_or_detected, sequences - consistent)


def tally_columns(injected: Any, detected: Any, uncorrectable: Any,
                  residual_errors: Any) -> Tuple[Any, ...]:
    """The per-sequence columns whose sums make a :class:`BatchTally`.

    In :meth:`BatchTally.from_sums` order: the two count columns, then
    the boolean masks detected, uncorrectable, intact, corrected, with
    errors, detected with errors, intact-or-detected and consistent
    (the last two are the complements of silent and inconsistent).  The
    one place the counter definitions live: a dense batch reduces these
    columns, and the simd single-flip table stacks them once per table
    into the matrix its batches' row histograms multiply.
    """
    intact = residual_errors == 0
    with_errors = injected > 0
    detected_with_errors = with_errors & detected
    return (injected, residual_errors, detected, uncorrectable, intact,
            detected_with_errors & intact, with_errors,
            detected_with_errors, intact | detected,
            intact | (detected & uncorrectable))


@dataclass
class BatchOutcomeArrays:
    """Columnar per-sequence outcome of one batched sleep/wake cycle.

    The array-native twin of a list of
    :class:`~repro.core.protected.CycleOutcome` objects: field ``f`` of
    sequence ``b`` lives at ``arrays.f[b]`` instead of
    ``outcomes[b].f``, so a whole batch's statistics reduce with a few
    ndarray operations and no per-sequence object is ever built.  All
    arrays are 1-D of length ``batch_size``.

    Campaign counters read a batch through :meth:`tally` (and the
    design's controller through :meth:`alarms`), never field by field,
    so an engine may return a subclass that computes those from a more
    compact form: the simd engine's single-flip table path returns one
    that holds each sequence's table row, tallies a histogram of the
    rows and gathers a field from the table only when it is read.

    Attributes
    ----------
    injected:
        Per-sequence count of register bits actually flipped by the
        injection (flips landing on unknown cells are dropped, like the
        scalar injectors).
    detected:
        Boolean; any monitoring block reported a mismatch.
    uncorrectable:
        Boolean; some mismatch was flagged uncorrectable (stream-code
        mismatches included, matching the scalar cycle).
    residual_errors:
        Per-sequence count of register bits still differing from the
        pre-sleep state after the decode pass (unknown pre-sleep bits
        always count, as in the scalar cycle's state comparator).
    corrections_applied:
        Per-sequence count of bit corrections issued by the correcting
        blocks.
    """

    injected: Any
    detected: Any
    uncorrectable: Any
    residual_errors: Any
    corrections_applied: Any

    @property
    def batch_size(self) -> int:
        """Number of sequences the batch simulated."""
        return int(self.detected.shape[0])

    @property
    def state_intact(self) -> Any:
        """Boolean array: the post-decode state equals the pre-sleep
        state bit for bit (the ground-truth comparator verdict)."""
        return self.residual_errors == 0

    @property
    def corrected_claim(self) -> Any:
        """Boolean array: what the hardware believes -- mismatches were
        observed and none was flagged uncorrectable."""
        return self.detected & ~self.uncorrectable

    def tally(self) -> BatchTally:
        """The batch's campaign-counter increments, reduced from the
        arrays (``np.count_nonzero`` for the masks, which counts a bool
        mask several times faster than ``.sum()``)."""
        from numpy import count_nonzero

        injected, residual, *masks = tally_columns(
            self.injected, self.detected, self.uncorrectable,
            self.residual_errors)
        return BatchTally.from_sums(
            int(self.detected.shape[0]),
            [int(injected.sum()), int(residual.sum())]
            + [int(count_nonzero(mask)) for mask in masks])

    def alarms(self) -> Tuple[bool, bool]:
        """``(any detected, any flagged uncorrectable)``: the batch's
        aggregate verdict, which the design reports to its controller
        once per batch."""
        return bool(self.detected.any()), bool(self.uncorrectable.any())


class SimulationEngine(ABC):
    """Interface every simulation engine implements.

    Concrete engines are built by a registered factory receiving the
    design (see :func:`repro.engines.registry.register_engine`); they
    may capture the design's monitor bank and chain geometry at
    construction time -- the design's engine cache guarantees they are
    rebuilt when either changes.
    """

    #: Registry name the engine was registered under (set by the
    #: registry when the factory returns, so subclasses need not).
    name: str = ""

    @property
    def supports_summary(self) -> bool:
        """True when the engine's class overrides
        :meth:`run_batch_summary`.

        Derived from the class, so no flag can disagree with the
        implementation; a subclass inherits its parent's override.
        Engines without it still run batched campaigns, one scalar
        cycle per sequence.  (The built-in summary engines register
        only when numpy is importable, so an override is always usable.)
        """
        return (type(self).run_batch_summary
                is not SimulationEngine.run_batch_summary)

    # -- scalar interface ----------------------------------------------
    @abstractmethod
    def encode_pass(self, design) -> int:
        """Run one encoding pass over ``design``'s chains.

        Stores the check bits (inside the engine or the design's
        monitor blocks, implementation's choice) and returns the cycle
        count.  The chain state is left unchanged (a full circulation
        is the identity).
        """

    @abstractmethod
    def decode_pass(self, design) -> List[MonitorReport]:
        """Run one decoding pass with on-the-fly correction.

        Applies corrections to the design's chains (after the pass the
        chains hold the corrected, fully-driven state) and returns the
        per-block reports in the bank's block order.
        """

    # -- summary interface (optional) -----------------------------------
    def run_batch_summary(self, states: Sequence[int],
                          knowns: Sequence[int], flips: Any,
                          batch_size: int) -> BatchOutcomeArrays:
        """Run a whole batch end to end, returning columnar verdicts.

        ``states[c]`` / ``knowns[c]`` are chain ``c``'s packed
        pre-sleep state and known-bit mask (bit ``i`` = scan position
        ``i``), shared by every sequence; ``flips`` is the batch's
        injection as a :class:`~repro.faults.batch.PatternBatch`.  The
        engine replicates the state in its native layout, runs one
        encode pass, applies the (known-gated) flips, runs one decode
        pass with correction and compares the corrected state against
        the pre-sleep state --
        semantically the virtual-copies batch of
        :meth:`~repro.core.protected.ProtectedDesign.sleep_wake_cycle_batch`,
        minus every per-sequence object.  The returned arrays are
        bit-identical to folding that batch's per-sequence outcomes
        field by field (property-tested).  The engine indexes by the
        batch's flat cells without range-checking them: ``flips`` must
        fit the design, as
        :meth:`~repro.faults.batch.PatternBatch.validate` (which the
        design's batch entry points call) checks.

        An engine with more than one implementation picks one per
        batch from the batch itself (the simd engine answers batches
        with at most one effective flip per sequence from a
        single-flip outcome table; the jit engine runs its fused
        kernels wherever its plan supports the bank).  The
        implementations are bit-identical, so callers never choose.
        """
        raise NotImplementedError(
            f"engine {self.name or type(self).__name__!r} does not "
            f"implement the columnar summary pass (it does not override "
            f"run_batch_summary)")


__all__ = [
    "BatchOutcomeArrays",
    "BatchTally",
    "SimulationEngine",
    "tally_columns",
]
