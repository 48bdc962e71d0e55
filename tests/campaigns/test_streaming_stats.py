"""Streaming campaign statistics: API parity, merging, serialization."""

import random

import pytest

from repro.campaigns.stats import (
    InjectionRecord,
    StreamingCampaignResult,
    StreamingCampaignStats,
    injection_record_from_sequence,
)


def random_records(count, seed):
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        injected = rng.choice([0, 0, 1, 1, 2, 4])
        detected = injected > 0 and rng.random() < 0.9
        state_intact = injected == 0 or (detected and rng.random() < 0.7)
        records.append(InjectionRecord(
            injected=injected,
            detected=detected,
            corrected=injected > 0 and detected and state_intact,
            state_intact=state_intact,
            residual_errors=0 if state_intact else injected))
    return records


def brute_force_counts(records):
    """Reference aggregation straight from the record list."""
    return {
        "num_sequences": len(records),
        "total_injected": sum(r.injected for r in records),
        "sequences_with_errors": sum(1 for r in records if r.injected > 0),
        "detected_sequences": sum(1 for r in records if r.detected),
        "corrected_sequences": sum(1 for r in records if r.corrected),
        "silent_corruptions": sum(1 for r in records if r.silent_corruption),
        "intact_sequences": sum(1 for r in records if r.state_intact),
    }


class TestStreamingCampaignStats:
    def test_counters_match_record_list_aggregation(self):
        records = random_records(500, seed=11)
        stats = StreamingCampaignStats()
        for record in records:
            stats.add(record)
        for name, expected in brute_force_counts(records).items():
            assert getattr(stats, name) == expected, name

    def test_rates_match_record_list_definitions(self):
        records = random_records(400, seed=12)
        stats = StreamingCampaignStats()
        for record in records:
            stats.add(record)
        with_errors = [r for r in records if r.injected > 0]
        assert stats.detection_rate() == pytest.approx(
            sum(1 for r in with_errors if r.detected) / len(with_errors))
        assert stats.correction_rate() == pytest.approx(
            sum(1 for r in with_errors if r.corrected) / len(with_errors))
        injected = sum(r.injected for r in records)
        residual = sum(r.residual_errors for r in records)
        assert stats.bit_correction_rate() == pytest.approx(
            (injected - residual) / injected)

    def test_empty_campaign_rates(self):
        stats = StreamingCampaignStats()
        assert stats.detection_rate() == 1.0
        assert stats.correction_rate() == 1.0
        assert stats.bit_correction_rate() == 1.0

    def test_bit_correction_rate_is_net_and_can_go_negative(self):
        """Hamming miscorrections of clustered burst-2 errors leave more
        wrong bits than were injected: the net figure is -69/384."""
        pytest.importorskip("numpy")
        from repro.validation.campaign import (
            run_sharded_multiple_error_campaign,
        )

        result = run_sharded_multiple_error_campaign(
            192, burst_size=2, clustered=True, width=8, depth=8,
            num_chains=7, seed=20100308, chunk_size=64, batch_size=16,
            sampler="array", engine="simd")
        stats = result.stats
        assert (stats.total_injected, stats.total_residual_errors) == \
            (384, 453)
        assert stats.bit_correction_rate() == -69 / 384
        assert "bit correction rate      : -17.9688%" in stats.summary()

    def test_merge_equals_sequential_accumulation(self):
        records = random_records(300, seed=13)
        whole = StreamingCampaignStats()
        for record in records:
            whole.add(record)
        # Any partition, merged in any order, gives the same counters.
        for split in (1, 57, 150, 299):
            left = StreamingCampaignStats()
            right = StreamingCampaignStats()
            for record in records[:split]:
                left.add(record)
            for record in records[split:]:
                right.add(record)
            merged = StreamingCampaignStats().merge(right).merge(left)
            assert merged == whole

    def test_merge_returns_self_in_place(self):
        stats = StreamingCampaignStats()
        other = StreamingCampaignStats(num_sequences=3, intact_sequences=3)
        assert stats.merge(other) is stats
        assert stats.num_sequences == 3

    def test_dict_round_trip(self):
        records = random_records(100, seed=14)
        stats = StreamingCampaignStats()
        for record in records:
            stats.add(record)
        assert StreamingCampaignStats.from_dict(stats.to_dict()) == stats

    def test_summary_layout_unchanged(self):
        stats = StreamingCampaignStats()
        stats.add(InjectionRecord(injected=1, detected=True, corrected=True,
                                  state_intact=True))
        summary = stats.summary()
        for label in ("sequences run", "detection rate",
                      "full-correction rate", "bit correction rate",
                      "silent corruptions"):
            assert label in summary

    def test_faults_package_reexports_the_streaming_record(self):
        """repro.faults exports the record the streaming counters take,
        and no second statistics type beside them."""
        import pkgutil

        import repro.faults
        assert repro.faults.InjectionRecord is InjectionRecord
        assert [name for name in repro.faults.__all__
                if name.endswith("Stats")] == []
        assert "campaign" not in {
            module.name for module in pkgutil.iter_modules(
                repro.faults.__path__)}


class FakeCycle:
    def __init__(self, injected, detected, intact, residual=None):
        self.injected_errors = injected
        self.detected = detected
        self.state_intact = intact
        self.residual_errors = (residual if residual is not None
                                else (0 if intact else injected))


class FakeSequence:
    def __init__(self, cycle, error_reported=None, mismatch=False,
                 consistent=True):
        self.cycle = cycle
        self.error_reported = (cycle.detected if error_reported is None
                               else error_reported)
        self.mismatch_reported = mismatch
        self.outcome_consistent = consistent


class TestInjectionRecordFromSequence:
    def test_detected_and_intact_counts_as_corrected(self):
        record = injection_record_from_sequence(
            FakeSequence(FakeCycle(injected=1, detected=True, intact=True)))
        assert record.corrected

    def test_undetected_intact_sequence_is_not_corrected(self):
        """Regression: an injected error the monitor never saw must not
        count as corrected, even if the state happens to be intact."""
        record = injection_record_from_sequence(
            FakeSequence(FakeCycle(injected=1, detected=False, intact=True)))
        assert not record.corrected

    def test_clean_sequence_is_not_corrected(self):
        record = injection_record_from_sequence(
            FakeSequence(FakeCycle(injected=0, detected=False, intact=True)))
        assert not record.corrected
        assert record.injected == 0


class TestStreamingCampaignResult:
    def _sequences(self):
        return [
            FakeSequence(FakeCycle(1, True, True)),
            FakeSequence(FakeCycle(4, True, False), mismatch=True,
                         consistent=False),
            FakeSequence(FakeCycle(0, False, True)),
        ]

    def test_fig8_counters(self):
        result = StreamingCampaignResult()
        for sequence in self._sequences():
            result.add(sequence)
        assert result.stats.num_sequences == 3
        assert result.errors_reported_by_dut == 2
        assert result.mismatches_reported_by_comparator == 1
        assert result.inconsistent_sequences == 1

    def test_merge_and_round_trip(self):
        whole = StreamingCampaignResult()
        left = StreamingCampaignResult()
        right = StreamingCampaignResult()
        sequences = self._sequences() * 4
        for sequence in sequences:
            whole.add(sequence)
        for sequence in sequences[:5]:
            left.add(sequence)
        for sequence in sequences[5:]:
            right.add(sequence)
        assert left.merge(right) == whole
        assert StreamingCampaignResult.from_dict(whole.to_dict()) == whole

    def test_summary_includes_fig8_lines(self):
        result = StreamingCampaignResult()
        result.add(FakeSequence(FakeCycle(1, True, True)))
        summary = result.summary()
        assert "errors reported by DUT" in summary
        assert "comparator mismatches" in summary
        assert "inconsistent sequences" in summary
