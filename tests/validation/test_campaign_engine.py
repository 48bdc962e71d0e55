"""Engine selection on the campaign drivers (packed vs reference)."""

import pytest

from repro.analysis.correction_capability import correction_capability_curve
from repro.codes.hamming import HammingCode
from repro.validation.campaign import (
    run_sharded_multiple_error_campaign,
    run_sharded_single_error_campaign,
)

GEOMETRY = dict(width=4, depth=4, num_chains=4, words_per_sequence=2)


class TestValidationCampaignEngine:
    @pytest.mark.parametrize("front_door", [
        run_sharded_single_error_campaign,
        run_sharded_multiple_error_campaign,
    ])
    def test_unknown_engine_fails_before_any_chunk_runs(self, front_door):
        with pytest.raises(ValueError, match="fpga"):
            front_door(2, engine="fpga", **GEOMETRY)

    def test_campaign_statistics_match_across_engines(self):
        results = {}
        for engine in ("reference", "packed"):
            single = run_sharded_single_error_campaign(
                6, seed=123, engine=engine, **GEOMETRY)
            multi = run_sharded_multiple_error_campaign(
                6, burst_size=3, seed=321, engine=engine, **GEOMETRY)
            results[engine] = (single.to_dict(), multi.to_dict())
        assert results["packed"] == results["reference"]


class TestAnalysisCampaignEngine:
    def test_fig10_trials_identical_across_engines(self):
        code = HammingCode(7, 4)
        reference = correction_capability_curve(
            code, error_counts=(1, 3, 5), num_bits=200, sequences=150,
            seed=9, engine="reference")
        packed = correction_capability_curve(
            code, error_counts=(1, 3, 5), num_bits=200, sequences=150,
            seed=9, engine="packed")
        assert packed == reference

    def test_unknown_engine_rejected(self):
        code = HammingCode(7, 4)
        try:
            correction_capability_curve(code, sequences=1, engine="fpga")
        except ValueError as err:
            assert "fpga" in str(err)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")
