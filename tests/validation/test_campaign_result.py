"""Regression tests for campaign-result bookkeeping (corrected counts)."""

from repro.campaigns.stats import StreamingCampaignResult
from repro.core.controller import ErrorCode
from repro.core.protected import CycleOutcome
from repro.validation.comparator import ComparisonResult
from repro.validation.testbench import TestSequenceResult as SequenceResult


def make_sequence(injected, detected, state_intact, residual=None,
                  error_code=ErrorCode.NONE, mismatched_words=()):
    cycle = CycleOutcome(
        injected_errors=injected,
        detected=detected,
        corrected_claim=detected and state_intact,
        state_intact=state_intact,
        residual_errors=(residual if residual is not None
                         else (0 if state_intact else injected)),
        error_code=error_code,
        corrections_applied=injected if detected and state_intact else 0,
        wake_event=None)
    comparison = ComparisonResult(words_compared=4,
                                  mismatched_words=tuple(mismatched_words))
    return SequenceResult(cycle=cycle, comparison=comparison,
                          words_written=4)


class TestCorrectedCounting:
    def test_detected_and_repaired_sequence_counts_as_corrected(self):
        result = StreamingCampaignResult()
        result.add(make_sequence(injected=1, detected=True, state_intact=True,
                                 error_code=ErrorCode.CORRECTED))
        assert result.stats.corrected_sequences == 1
        assert result.stats.correction_rate() == 1.0

    def test_undetected_error_with_intact_state_is_not_corrected(self):
        """Regression for the miscount fixed in this PR: a sequence with
        injected errors that the monitor never detected must not be
        counted as corrected, even when the final state happens to be
        intact (e.g. an upset in a cell the decode pass masks).  The
        old bookkeeping used ``injected > 0 and state_intact`` and
        reported a 100 % correction rate for a campaign the monitor
        slept through."""
        result = StreamingCampaignResult()
        result.add(make_sequence(injected=1, detected=False,
                                 state_intact=True))
        assert result.stats.corrected_sequences == 0
        assert result.stats.correction_rate() == 0.0
        # It is still an error-carrying, undetected sequence.
        assert result.stats.sequences_with_errors == 1
        assert result.stats.detection_rate() == 0.0

    def test_detected_but_unrepaired_sequence_is_not_corrected(self):
        result = StreamingCampaignResult()
        result.add(make_sequence(injected=4, detected=True,
                                 state_intact=False,
                                 error_code=ErrorCode.UNCORRECTABLE,
                                 mismatched_words=(1,)))
        assert result.stats.corrected_sequences == 0
        assert result.stats.detection_rate() == 1.0

    def test_clean_sequence_is_neither_corrected_nor_with_errors(self):
        result = StreamingCampaignResult()
        result.add(make_sequence(injected=0, detected=False,
                                 state_intact=True))
        assert result.stats.corrected_sequences == 0
        assert result.stats.sequences_with_errors == 0


class TestFig8CountersStayConsistentWithLog:
    def test_counters_match_the_sequence_log(self):
        result = StreamingCampaignResult()
        sequences = [
            make_sequence(1, True, True, error_code=ErrorCode.CORRECTED),
            make_sequence(3, True, False,
                          error_code=ErrorCode.UNCORRECTABLE,
                          mismatched_words=(0, 2)),
            make_sequence(0, False, True),
        ]
        for sequence in sequences:
            result.add(sequence)
        # The streaming counters agree with recounting the added log.
        assert result.stats.num_sequences == len(sequences)
        assert result.errors_reported_by_dut == sum(
            1 for s in sequences if s.error_reported)
        assert result.mismatches_reported_by_comparator == sum(
            1 for s in sequences if s.mismatch_reported)
        assert result.inconsistent_sequences == sum(
            1 for s in sequences if not s.outcome_consistent)
