"""Tests for the analysis sweeps (Tables I-III, Fig. 9, Fig. 10)."""

import pytest

from repro.analysis import paper_data
from repro.analysis.correction_capability import (
    analytic_correction_probability,
    correction_capability_curve,
    fig10_curves,
)
from repro.analysis.tables import (
    format_family_table,
    format_fig10_table,
    format_measured_vs_paper,
)
from repro.analysis.tradeoff import (
    fig9_series,
    sweep_code_configurations,
    table3_hamming_family,
)
from repro.circuit.generators import make_random_state_circuit
from repro.codes.hamming import HammingCode

# A small stand-in circuit keeps the sweep tests fast; the full-FIFO
# sweeps are exercised by the benchmark harness.
SMALL_CIRCUIT = make_random_state_circuit(208, seed=99, name="block208")
SMALL_SWEEP = (4, 8, 16)


class TestTradeoffSweeps:
    def test_sweep_produces_one_report_per_chain_count(self):
        reports = sweep_code_configurations("crc16", SMALL_SWEEP,
                                            circuit=SMALL_CIRCUIT)
        assert [r.config.num_chains for r in reports] == list(SMALL_SWEEP)

    def test_latency_inversely_proportional_to_chain_count(self):
        reports = sweep_code_configurations("crc16", (4, 8, 16),
                                            circuit=SMALL_CIRCUIT)
        latencies = [r.latency_ns for r in reports]
        assert latencies[0] == pytest.approx(2 * latencies[1], rel=0.01)
        assert latencies[1] == pytest.approx(2 * latencies[2], rel=0.01)

    def test_area_increases_and_energy_decreases_with_chains(self):
        for code in ("crc16", "hamming(7,4)"):
            reports = sweep_code_configurations(code, SMALL_SWEEP,
                                                circuit=SMALL_CIRCUIT)
            areas = [r.area_total_um2 for r in reports]
            energies = [r.encode_cost.energy_nj for r in reports]
            assert areas == sorted(areas)
            assert energies == sorted(energies, reverse=True)

    def test_hamming_overhead_larger_than_crc_everywhere(self):
        crc = sweep_code_configurations("crc16", SMALL_SWEEP,
                                        circuit=SMALL_CIRCUIT)
        ham = sweep_code_configurations("hamming(7,4)", SMALL_SWEEP,
                                        circuit=SMALL_CIRCUIT)
        for crc_row, ham_row in zip(crc, ham):
            assert (ham_row.area_overhead_percent
                    > crc_row.area_overhead_percent)
            assert ham_row.encode_cost.power_mw > crc_row.encode_cost.power_mw
            # Latency depends only on the chain length, not on the code.
            assert ham_row.latency_ns == pytest.approx(crc_row.latency_ns)

    def test_family_table_ordering(self):
        # The overhead-versus-capability ordering is a property of the
        # paper's register-dominated case study, so use a circuit of the
        # same size (1040 registers) with the paper's chain counts.
        circuit = make_random_state_circuit(1040, seed=7, name="block1040")
        rows = table3_hamming_family(circuit=circuit)
        overheads = [row.area_overhead_percent for row in rows]
        capabilities = [row.correction_capability_percent for row in rows]
        # Higher redundancy -> more overhead and more capability.
        assert overheads == sorted(overheads, reverse=True)
        assert capabilities == sorted(capabilities, reverse=True)

    def test_fig9_series_structure(self):
        series = fig9_series(SMALL_SWEEP, circuit=SMALL_CIRCUIT)
        assert set(series) == {"crc16", "hamming(7,4)"}
        for data in series.values():
            assert len(data["chains"]) == len(SMALL_SWEEP)
            assert len(data["latency_ns"]) == len(SMALL_SWEEP)
        # Both codes share the same latency series (Fig. 9(b) overlap).
        assert series["crc16"]["latency_ns"] == pytest.approx(
            series["hamming(7,4)"]["latency_ns"])


class TestCorrectionCapability:
    def test_single_error_always_corrected(self):
        curve = correction_capability_curve(HammingCode(7, 4),
                                            error_counts=(1,),
                                            sequences=200, seed=1)
        assert curve[0].corrected_fraction == 1.0

    def test_rate_decreases_with_more_errors(self):
        curve = correction_capability_curve(HammingCode(63, 57),
                                            error_counts=(1, 4, 10),
                                            sequences=500, seed=2)
        rates = [point.corrected_fraction for point in curve]
        assert rates[0] >= rates[1] >= rates[2]

    def test_smaller_codewords_correct_more(self):
        curves = fig10_curves(error_counts=(6,), sequences=500, seed=3)
        rate_74 = curves[(7, 4)][0].corrected_fraction
        rate_6357 = curves[(63, 57)][0].corrected_fraction
        assert rate_74 > rate_6357

    def test_monte_carlo_matches_analytic_expectation(self):
        code = HammingCode(15, 11)
        analytic = analytic_correction_probability(code, 1000, 5)
        curve = correction_capability_curve(code, error_counts=(5,),
                                            num_bits=1000, sequences=3000,
                                            seed=4)
        assert curve[0].corrected_fraction == pytest.approx(analytic,
                                                            abs=0.03)

    def test_analytic_edge_cases(self):
        code = HammingCode(7, 4)
        assert analytic_correction_probability(code, 1000, 0) == 1.0
        assert analytic_correction_probability(code, 1000, 1) == 1.0
        with pytest.raises(ValueError):
            analytic_correction_probability(code, 0, 1)

    def test_too_many_errors_rejected(self):
        with pytest.raises(ValueError):
            correction_capability_curve(HammingCode(7, 4), error_counts=(11,),
                                        num_bits=10, sequences=10)

    def test_fig10_reference_shape_reproduced(self):
        # Compare against the two anchor points the paper quotes:
        # Hamming(7,4) stays in the mid-90s at 10 errors, Hamming(63,57)
        # falls to roughly half.
        curves = fig10_curves(error_counts=(2, 10), sequences=3000, seed=5)
        h74 = {p.num_errors: p.corrected_percent for p in curves[(7, 4)]}
        h6357 = {p.num_errors: p.corrected_percent
                 for p in curves[(63, 57)]}
        assert h74[2] == pytest.approx(
            paper_data.FIG10_REFERENCE[(7, 4)][2], abs=3.0)
        assert h74[10] == pytest.approx(
            paper_data.FIG10_REFERENCE[(7, 4)][10], abs=5.0)
        assert h6357[10] == pytest.approx(
            paper_data.FIG10_REFERENCE[(63, 57)][10], abs=12.0)


class TestTableFormatting:
    def test_measured_vs_paper_table(self):
        reports = sweep_code_configurations("crc16", (4, 8),
                                            circuit=SMALL_CIRCUIT)
        text = format_measured_vs_paper(reports, paper_data.TABLE1_CRC16,
                                        title="Table I")
        assert "Table I" in text
        assert "measured" in text
        assert "paper" in text

    def test_family_table(self):
        rows = table3_hamming_family(circuit=SMALL_CIRCUIT,
                                     chains_per_code={(7, 4): 8, (15, 11): 11,
                                                      (31, 26): 13,
                                                      (63, 57): 16})
        text = format_family_table(rows, paper_data.TABLE3_HAMMING_FAMILY)
        assert "(7,4)" in text and "(63,57)" in text

    def test_fig10_table(self):
        curves = fig10_curves(error_counts=(1, 2), sequences=100, seed=6)
        text = format_fig10_table(curves, title="fig10")
        assert "fig10" in text
        assert "(7,4) %" in text

    def test_fig10_table_requires_curves(self):
        with pytest.raises(ValueError):
            format_fig10_table({})


class TestPaperData:
    def test_table_shapes(self):
        assert len(paper_data.TABLE1_CRC16) == 5
        assert len(paper_data.TABLE2_HAMMING74) == 5
        assert len(paper_data.TABLE3_HAMMING_FAMILY) == 4

    def test_paper_energy_consistency(self):
        # Sanity of the transcription: energy ~= power x latency.
        for row in paper_data.TABLE1_CRC16 + paper_data.TABLE2_HAMMING74:
            expected = row["enc_power_mw"] * row["latency_ns"] * 1e-3
            assert row["enc_energy_nj"] == pytest.approx(expected, rel=0.05)


class TestSection4ValidationRows:
    """``section4_validation_rows`` forwards ``sampler`` to both
    campaign drivers, and its default keeps the scalar streams."""

    SMALL = dict(width=8, depth=8, num_chains=8)

    def _direct(self, sampler, **run):
        from repro.campaigns.seeding import child_seed
        from repro.validation.campaign import (
            run_sharded_multiple_error_campaign,
            run_sharded_single_error_campaign,
        )

        seed = 20100308
        return {
            "single_error": run_sharded_single_error_campaign(
                48, seed=child_seed(seed, "single"), sampler=sampler,
                **self.SMALL, **run),
            "multiple_error": run_sharded_multiple_error_campaign(
                48, burst_size=4, clustered=True,
                seed=child_seed(seed, "multiple"), sampler=sampler,
                **self.SMALL, **run),
        }

    def test_array_sampler_equals_the_drivers(self, monkeypatch):
        pytest.importorskip("numpy")
        from repro.analysis.tradeoff import section4_validation_rows
        from repro.faults import batch as batch_module

        # Both samplers correct every single error here, so the
        # counters alone cannot tell them apart: count the array draws.
        draws = []
        original = batch_module.sample_pattern_batch

        def counted(kind, *args, **kwargs):
            draws.append(kind)
            return original(kind, *args, **kwargs)

        monkeypatch.setattr(batch_module, "sample_pattern_batch", counted)
        run = dict(engine="simd", batch_size=16, chunk_size=32)
        rows = section4_validation_rows(num_sequences=48, sampler="array",
                                        **self.SMALL, **run)
        assert draws == ["single"] * 3 + ["burst"] * 3
        assert rows == self._direct("array", **run)
        assert rows["single_error"].stats.corrected_sequences == 48

    def test_default_is_the_scalar_sampler(self):
        from repro.analysis.tradeoff import section4_validation_rows

        run = dict(engine="packed", batch_size=16, chunk_size=32)
        assert (section4_validation_rows(num_sequences=48, **self.SMALL,
                                         **run)
                == self._direct("scalar", **run))
