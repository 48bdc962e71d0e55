"""Tests for the analysis sweeps (Tables I-III, Fig. 9, Fig. 10)."""

import itertools
import math
from fractions import Fraction

import pytest

from repro.analysis import paper_data
from repro.analysis.correction_capability import (
    analytic_correction_probability,
    analytic_full_correction_probability,
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
from repro.codes.hamming import PAPER_HAMMING_CODES, HammingCode

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
        sequences = 3000
        exact = analytic_correction_probability(code, 1000, 5)
        full = analytic_full_correction_probability(code, 1000, 5)
        curve = correction_capability_curve(code, error_counts=(5,),
                                            num_bits=1000,
                                            sequences=sequences, seed=4)
        # Four standard errors: a per-trial fraction in [0, 1] with mean
        # p has variance at most p (1 - p); full correction is a
        # Bernoulli trial.
        for measured, p in ((curve[0].corrected_fraction, exact),
                            (curve[0].sequences_fully_corrected / sequences,
                             full)):
            bound = 4 * math.sqrt(p * (1 - p) / sequences)
            assert bound < 0.03
            assert measured == pytest.approx(p, abs=bound)

    def test_analytic_edge_cases(self):
        code = HammingCode(7, 4)
        for exact in (analytic_correction_probability,
                      analytic_full_correction_probability):
            assert exact(code, 1000, 0) == 1.0
            assert exact(code, 1000, 1) == 1.0
            with pytest.raises(ValueError):
                exact(code, 0, 1)
            with pytest.raises(ValueError):
                exact(code, 3, 4)

    def test_exact_equals_whole_codeword_form_when_n_divides(self):
        for n, k in PAPER_HAMMING_CODES:
            code = HammingCode(n, k)
            for words in (1, 2, 5, 1000 // n):
                num_bits = n * words
                for errors in range(1, min(num_bits, 10) + 1):
                    assert analytic_correction_probability(
                        code, num_bits, errors) == pytest.approx(
                            _whole_codeword_form(n, num_bits, errors),
                            rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("n,k", PAPER_HAMMING_CODES)
    def test_exact_equals_enumeration(self, n, k):
        """Every placement of up to four errors in up to 30 bits,
        counted: both exact values match, short last codeword and all
        (including sequences shorter than one codeword)."""
        code = HammingCode(n, k)
        for num_bits in range(1, 31):
            word = [bit // n for bit in range(num_bits)]
            for errors in range(1, min(num_bits, 4) + 1):
                corrected = full = total = 0
                for placement in itertools.combinations(word, errors):
                    alone = sum(placement.count(w) == 1 for w in placement)
                    corrected += alone
                    full += alone == errors
                    total += 1
                per_bit = Fraction(corrected, total * errors)
                assert analytic_correction_probability(
                    code, num_bits, errors) == float(per_bit)
                assert analytic_full_correction_probability(
                    code, num_bits, errors) == float(Fraction(full, total))

    def test_exact_values_at_the_paper_scale(self):
        """The short last codeword moves Fig. 10 by up to a quarter of a
        point at ten errors; the whole-codeword form was low."""
        code = HammingCode(7, 4)
        assert analytic_correction_probability(code, 20, 3) \
            == pytest.approx(91 / 190)
        expected = {(31, 26): (76.0601, 22.3260),
                    (63, 57): (56.2897, 2.7567)}
        for (n, k), (per_bit, full) in expected.items():
            code = HammingCode(n, k)
            exact = analytic_correction_probability(code, 1000, 10) * 100
            assert exact == pytest.approx(per_bit, abs=5e-4)
            assert exact - _whole_codeword_form(n, 1000, 10) * 100 > 0.14
            assert analytic_full_correction_probability(
                code, 1000, 10) * 100 == pytest.approx(full, abs=5e-4)

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


def _whole_codeword_form(n, num_bits, num_errors):
    """The closed form for whole ``n``-bit codewords only."""
    probability = 1.0
    for i in range(1, num_errors):
        probability *= (num_bits - n - i + 1) / (num_bits - i)
    return max(probability, 0.0)
