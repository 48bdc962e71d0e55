"""Streaming, mergeable campaign statistics.

The paper's FPGA campaigns run 10^8 test sequences; the "Counter" block
of Fig. 8 keeps *counts*, not a log of every sequence.  This module
holds those counters, so campaign memory does not grow with the
sequence count:

* :class:`InjectionRecord` -- one sequence's injected / detected /
  corrected counts;
* :class:`StreamingCampaignStats` -- the injected / detected /
  corrected / silent-corruption counters with their rates and summary,
  in O(1) memory;
* :class:`StreamingCampaignResult` -- the validation-campaign wrapper
  with the Fig. 8 test-bench counters (errors reported by FIFO_A,
  comparator mismatches, inconsistent sequences);
* :func:`injection_record_from_sequence` -- the single place where a
  test-bench sequence outcome is folded into an injection record.

Both statistics objects are **mergeable** (integer counter addition, so
merging is associative and commutative) and **serializable** to plain
dictionaries -- the two properties the sharded scheduler of
:mod:`repro.campaigns.scheduler` builds on: any partition of a campaign
into chunks, merged in any order, yields bit-identical statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict


@dataclass(frozen=True)
class InjectionRecord:
    """Outcome of one sleep/wake test sequence with injection.

    Attributes
    ----------
    injected:
        Number of bit errors injected in this sequence.
    detected:
        Whether the monitoring logic reported *any* error.
    corrected:
        Whether the monitoring + correction logic repaired every
        injected error (i.e. the post-decode state equals the
        pre-sleep state).
    state_intact:
        Whether the architectural state after the sequence matches the
        reference (from the comparator, independent of what the monitor
        reported).
    residual_errors:
        Number of register bits still wrong after correction.
    """

    injected: int
    detected: bool
    corrected: bool
    state_intact: bool
    residual_errors: int = 0

    @property
    def silent_corruption(self) -> bool:
        """True when state was corrupted but nothing was reported."""
        return (not self.state_intact) and (not self.detected)


def injection_record_from_sequence(result: Any) -> InjectionRecord:
    """Fold one test-bench sequence outcome into an injection record.

    ``result`` is a :class:`~repro.validation.testbench.TestSequenceResult`
    (duck-typed here so this module stays free of validation imports).

    A sequence only counts as *corrected* when errors were injected,
    the monitor actually **detected** them and the final state is
    intact.  Requiring detection matters: an injected flip that the
    monitor never saw but that happens to leave the state intact (for
    example a bit that a droop event flips back, or an upset in a
    don't-care cell) is not a correction event, and counting it as one
    overstated the correction rate of exactly the campaigns whose
    correction statistics the paper reports.
    """
    cycle = result.cycle
    return InjectionRecord(
        injected=cycle.injected_errors,
        detected=cycle.detected,
        corrected=(cycle.injected_errors > 0
                   and cycle.detected
                   and cycle.state_intact),
        state_intact=cycle.state_intact,
        residual_errors=cycle.residual_errors)


@dataclass
class StreamingCampaignStats:
    """Counter-based campaign statistics (O(1) memory, mergeable).

    ``num_sequences``, ``total_injected``, ``sequences_with_errors``,
    ``detected_sequences``, ``corrected_sequences``,
    ``silent_corruptions`` and ``intact_sequences`` are plain integer
    counters updated by :meth:`add`, read by the three rate methods and
    ``summary()``, so a 10^8-sequence campaign costs the same resident
    memory as a 10-sequence one.
    """

    num_sequences: int = 0
    total_injected: int = 0
    sequences_with_errors: int = 0
    detected_sequences: int = 0
    corrected_sequences: int = 0
    silent_corruptions: int = 0
    intact_sequences: int = 0
    #: Detected / corrected counts restricted to sequences that carried
    #: at least one injected error (the rate denominators).
    detected_with_errors: int = 0
    corrected_with_errors: int = 0
    total_residual_errors: int = 0

    def add(self, record: InjectionRecord) -> None:
        """Fold one sequence's outcome into the counters."""
        self.num_sequences += 1
        self.total_injected += record.injected
        self.total_residual_errors += record.residual_errors
        if record.detected:
            self.detected_sequences += 1
        if record.corrected:
            self.corrected_sequences += 1
        if record.state_intact:
            self.intact_sequences += 1
        if record.silent_corruption:
            self.silent_corruptions += 1
        if record.injected > 0:
            self.sequences_with_errors += 1
            if record.detected:
                self.detected_with_errors += 1
            if record.corrected:
                self.corrected_with_errors += 1

    def add_batch(self, arrays) -> None:
        """Fold a whole batch's columnar outcome into the counters.

        ``arrays`` is a
        :class:`~repro.engines.base.BatchOutcomeArrays`; the counters
        grow by its :meth:`~repro.engines.base.BatchOutcomeArrays.tally`,
        a handful of ndarray reductions (or, for a batch the simd
        engine answered from its single-flip table, one row histogram
        times a per-table matrix) instead of ``B`` :meth:`add` calls.
        The definitions mirror :func:`injection_record_from_sequence`
        exactly -- *corrected* means injected, detected **and** intact
        -- so a batch folded here is bit-identical to folding its
        per-sequence records (property-tested).
        """
        self._add_tally(arrays.tally())

    def _add_tally(self, tally) -> None:
        """Fold a :class:`~repro.engines.base.BatchTally` (plain ints,
        so the counters stay ints for ``to_dict()`` and checkpoints)."""
        self.num_sequences += tally.sequences
        self.total_injected += tally.injected
        self.total_residual_errors += tally.residual_errors
        self.detected_sequences += tally.detected
        self.corrected_sequences += tally.corrected
        self.intact_sequences += tally.intact
        self.silent_corruptions += tally.silent
        self.sequences_with_errors += tally.with_errors
        self.detected_with_errors += tally.detected_with_errors
        self.corrected_with_errors += tally.corrected

    def merge(self, other: "StreamingCampaignStats"
              ) -> "StreamingCampaignStats":
        """Add another shard's counters into this one (in place)."""
        for f in fields(StreamingCampaignStats):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))
        return self

    # -- rates (same definitions as the record-list implementation) ----
    def detection_rate(self) -> float:
        """Fraction of error-carrying sequences that were detected."""
        if self.sequences_with_errors == 0:
            return 1.0
        return self.detected_with_errors / self.sequences_with_errors

    def correction_rate(self) -> float:
        """Fraction of error-carrying sequences fully corrected."""
        if self.sequences_with_errors == 0:
            return 1.0
        return self.corrected_with_errors / self.sequences_with_errors

    def bit_correction_rate(self) -> float:
        """Net bit figure ``(injected - residual) / injected``.

        It is not a count of corrected bits: residual errors include
        bits a Hamming miscorrection flipped on top of the injected
        ones, so under multi-bit bursts it can go negative.  The
        paper's Fig. 10 ("errors corrected %") counts corrected bits
        instead -- see
        :attr:`~repro.analysis.correction_capability.\
CorrectionCapabilityResult.corrected_fraction`.
        """
        if self.total_injected == 0:
            return 1.0
        return ((self.total_injected - self.total_residual_errors)
                / self.total_injected)

    # -- serialization (checkpoints, worker -> parent transfer) --------
    def to_dict(self) -> Dict[str, int]:
        """Plain-dict form (JSON-safe) for checkpoints."""
        return {f.name: getattr(self, f.name)
                for f in fields(StreamingCampaignStats)}

    @classmethod
    def from_dict(cls, payload: Dict[str, int]) -> "StreamingCampaignStats":
        """Rebuild counters from :meth:`to_dict` output."""
        return cls(**{f.name: int(payload[f.name])
                      for f in fields(StreamingCampaignStats)})

    def summary(self) -> str:
        """Human-readable multi-line summary of the campaign."""
        lines = [
            f"sequences run            : {self.num_sequences}",
            f"sequences with injection : {self.sequences_with_errors}",
            f"total bits injected      : {self.total_injected}",
            f"detection rate           : {self.detection_rate():.4%}",
            f"full-correction rate     : {self.correction_rate():.4%}",
            f"bit correction rate      : {self.bit_correction_rate():.4%}",
            f"silent corruptions       : {self.silent_corruptions}",
        ]
        return "\n".join(lines)


@dataclass
class StreamingCampaignResult:
    """Streaming form of a validation-campaign outcome.

    Wraps :class:`StreamingCampaignStats` with the test-bench-specific
    counters of the paper's Fig. 8 ("Counter" block): errors reported
    by FIFO_A, mismatches reported by the comparator, and sequences
    where the two views disagree.  It keeps no per-sequence records,
    so it is the result type the sharded scheduler streams and merges.
    """

    stats: StreamingCampaignStats = field(
        default_factory=StreamingCampaignStats)
    errors_reported_by_dut: int = 0
    mismatches_reported_by_comparator: int = 0
    inconsistent_sequences: int = 0

    def add(self, result: Any) -> None:
        """Record one test sequence (a ``TestSequenceResult``)."""
        self.stats.add(injection_record_from_sequence(result))
        if result.error_reported:
            self.errors_reported_by_dut += 1
        if result.mismatch_reported:
            self.mismatches_reported_by_comparator += 1
        if not result.outcome_consistent:
            self.inconsistent_sequences += 1

    def add_batch(self, arrays) -> None:
        """Record a whole batch from its columnar outcome.

        The array form of folding one
        :class:`~repro.validation.testbench.BatchSequenceResult` per
        sequence: the state-domain comparator's verdict is
        ``state_intact``, and a mismatching sequence is *consistent*
        only when the monitor flagged it uncorrectable -- the same
        rules as ``BatchSequenceResult``'s properties, counted in the
        batch's one :meth:`~repro.engines.base.BatchOutcomeArrays.tally`.
        """
        tally = arrays.tally()
        self.stats._add_tally(tally)
        self.errors_reported_by_dut += tally.detected
        self.mismatches_reported_by_comparator += (tally.sequences
                                                   - tally.intact)
        self.inconsistent_sequences += tally.inconsistent

    def merge(self, other: "StreamingCampaignResult"
              ) -> "StreamingCampaignResult":
        """Add another shard's counters into this one (in place)."""
        self.stats.merge(other.stats)
        self.errors_reported_by_dut += other.errors_reported_by_dut
        self.mismatches_reported_by_comparator += (
            other.mismatches_reported_by_comparator)
        self.inconsistent_sequences += other.inconsistent_sequences
        return self

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe) for checkpoints."""
        return {
            "stats": self.stats.to_dict(),
            "errors_reported_by_dut": self.errors_reported_by_dut,
            "mismatches_reported_by_comparator":
                self.mismatches_reported_by_comparator,
            "inconsistent_sequences": self.inconsistent_sequences,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StreamingCampaignResult":
        """Rebuild the counters from :meth:`to_dict` output."""
        return cls(
            stats=StreamingCampaignStats.from_dict(payload["stats"]),
            errors_reported_by_dut=int(payload["errors_reported_by_dut"]),
            mismatches_reported_by_comparator=int(
                payload["mismatches_reported_by_comparator"]),
            inconsistent_sequences=int(payload["inconsistent_sequences"]))

    def summary(self) -> str:
        """Human-readable campaign summary."""
        lines = [
            self.stats.summary(),
            f"errors reported by DUT   : {self.errors_reported_by_dut}",
            "comparator mismatches    : "
            f"{self.mismatches_reported_by_comparator}",
            f"inconsistent sequences   : {self.inconsistent_sequences}",
        ]
        return "\n".join(lines)


__all__ = [
    "InjectionRecord",
    "StreamingCampaignStats",
    "StreamingCampaignResult",
    "injection_record_from_sequence",
]
