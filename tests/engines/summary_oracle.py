"""The per-sequence oracle of the columnar summary path.

Shared by the engine equivalence suites (and the inline checks of the
engine throughput benchmarks): run a list of ``ErrorPattern``s
(``None`` = clean sequence) through ``PatternBatch.from_patterns`` ->
``sleep_wake_cycle_batch_summary`` on one design, and hold the
resulting ``BatchOutcomeArrays`` against the ``CycleOutcome``s of
per-sequence cycles (``sleep_wake_cycle_batch`` on a twin design) --
field by field, and once more after folding both sides into campaign
counters (``add_batch`` versus one ``add`` per sequence).  At the
engine level, :func:`packed_verdicts` gives the same columns from the
packed engine's scalar decodes.  Numpy is imported only when a summary
batch runs, so
suites that also cover the pure-stdlib engines can import this module
on an install without numpy.
"""

from repro.campaigns.stats import StreamingCampaignResult
from repro.core.controller import ErrorCode
from repro.validation.testbench import BatchSequenceResult


def run_summary(design, patterns, inject_phase="sleep"):
    """``patterns`` as one summary batch from the design's current
    state."""
    from repro.faults.batch import PatternBatch

    flips = PatternBatch.from_patterns(patterns, design.num_chains,
                                       design.chain_length)
    return design.sleep_wake_cycle_batch_summary(
        design._pack_chains(), flips, len(patterns),
        inject_phase=inject_phase)


def summary_rows(arrays):
    """Per-sequence ``(injected, detected, corrected_claim,
    state_intact, residual, corrections, uncorrectable)`` tuples."""
    return list(zip(arrays.injected.tolist(), arrays.detected.tolist(),
                    arrays.corrected_claim.tolist(),
                    arrays.state_intact.tolist(),
                    arrays.residual_errors.tolist(),
                    arrays.corrections_applied.tolist(),
                    arrays.uncorrectable.tolist()))


def outcome_rows(outcomes):
    """The :func:`summary_rows` fields of per-sequence outcomes."""
    return [(o.injected_errors, o.detected, o.corrected_claim,
             o.state_intact, o.residual_errors, o.corrections_applied,
             o.error_code is ErrorCode.UNCORRECTABLE)
            for o in outcomes]


def assert_summary_matches(arrays, outcomes):
    """A summary batch equals per-sequence outcomes field by field and
    as folded campaign counters."""
    assert summary_rows(arrays) == outcome_rows(outcomes)
    streamed = StreamingCampaignResult()
    streamed.add_batch(arrays)
    folded = StreamingCampaignResult()
    for outcome in outcomes:
        folded.add(BatchSequenceResult(cycle=outcome, words_written=0))
    assert streamed == folded


def _corrupted(states, knowns, pattern):
    """``states`` with ``pattern``'s cells flipped; a flip on an
    unknown cell has no effect (unknown bits stay 0)."""
    flipped = list(states)
    for chain, position in (pattern.locations if pattern else ()):
        flipped[chain] ^= 1 << position
    return [state & known for state, known in zip(flipped, knowns)]


def packed_verdicts(packed, states, knowns, patterns, length):
    """The packed engine's scalar decodes, one sequence at a time,
    folded into the summary columns ``(detected, uncorrectable,
    corrections, residual)``."""
    packed.encode_pass(states, knowns)
    mask = (1 << length) - 1
    unknown = sum(bin(~known & mask).count("1") for known in knowns)
    columns = []
    for pattern in patterns:
        seq_reports, seq_corrected = packed.decode_pass(
            _corrupted(states, knowns, pattern), knowns)
        residual = unknown + sum(
            bin((after ^ before) & known).count("1")
            for after, before, known in zip(seq_corrected, states, knowns))
        columns.append((
            any(r.error_detected for r in seq_reports),
            any(r.uncorrectable for r in seq_reports),
            sum(len(r.corrections) for r in seq_reports),
            residual))
    return columns


def verdict_rows(arrays):
    """The :func:`packed_verdicts` columns of a summary batch."""
    return list(zip(arrays.detected.tolist(), arrays.uncorrectable.tolist(),
                    arrays.corrections_applied.tolist(),
                    arrays.residual_errors.tolist()))
