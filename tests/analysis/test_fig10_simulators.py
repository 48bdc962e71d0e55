"""Exactness of the Fig. 10 chunk simulators.

The ``packed`` chunk simulator reads every trial off one bulk
``getrandbits`` draw per block; its counters must equal those of the
``reference`` loop, one ``rng.sample`` per trial, on the same seed --
which is what keeps the recorded Fig. 10 numbers unchanged.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import correction_capability as cc
from repro.analysis.correction_capability import (
    SEQUENCE_ENGINES,
    correction_capability_curve,
    fig10_curves,
)
from repro.campaigns.scheduler import CampaignScheduler
from repro.codes.hamming import PAPER_HAMMING_CODES, HammingCode

SRC = Path(__file__).resolve().parents[2] / "src"

PACKED = SEQUENCE_ENGINES["packed"]
REFERENCE = SEQUENCE_ENGINES["reference"]


def assert_exact(code, num_bits, num_errors, seed, num_sequences):
    packed = PACKED(code, num_bits, num_errors, random.Random(seed),
                    num_sequences)
    reference = REFERENCE(code, num_bits, num_errors, random.Random(seed),
                          num_sequences)
    assert packed == reference, (code, num_bits, num_errors, seed,
                                 num_sequences)
    assert packed.sequences == max(num_sequences, 0)


@pytest.fixture
def reference_calls(monkeypatch):
    """Record every fallback of the packed simulator to the reference
    loop (it looks the loop up by module global)."""
    calls = []

    def spy(code, num_bits, num_errors, rng, num_sequences):
        calls.append((num_bits, num_errors))
        return REFERENCE(code, num_bits, num_errors, rng, num_sequences)

    monkeypatch.setattr(cc, "_simulate_chunk_reference", spy)
    return calls


class TestPackedMatchesReference:
    @pytest.mark.parametrize("chunk", [1, 7, 500])
    @pytest.mark.parametrize("family", PAPER_HAMMING_CODES)
    def test_fig10_grid(self, family, chunk, reference_calls):
        code = HammingCode(*family)
        for num_errors in range(1, 11):
            for seed in (0, 20100310, 987654321):
                assert_exact(code, 1000, num_errors, seed, chunk)
        assert reference_calls == []

    def test_no_errors_draws_nothing(self, reference_calls):
        code = HammingCode(7, 4)
        assert_exact(code, 1000, 0, 5, 40)
        assert reference_calls == []
        counters = PACKED(code, 1000, 0, random.Random(5), 40)
        assert (counters.corrected_bits, counters.fully_corrected) == (0, 40)

    @pytest.mark.parametrize("num_bits", [1, 5, 21, 1000])
    def test_every_bit_in_error(self, num_bits):
        # num_errors == num_bits always takes sample's pool branch.
        assert_exact(HammingCode(7, 4), num_bits, num_bits, 3, 5)

    def test_set_branch_boundary(self, reference_calls):
        assert cc._sample_uses_pool(21, 5)
        assert not cc._sample_uses_pool(22, 5)
        assert cc._sample_uses_pool(85, 10)
        assert not cc._sample_uses_pool(86, 10)
        for family in PAPER_HAMMING_CODES:
            for seed in range(4):
                assert_exact(HammingCode(*family), 85, 10, seed, 60)
                assert_exact(HammingCode(*family), 86, 10, seed, 60)
        assert set(reference_calls) == {(85, 10)}

    @pytest.mark.parametrize("num_bits", [1024, 1025, 4097, 70000])
    def test_rejection_rates(self, num_bits):
        # 1024 keeps every 10-bit value; 1025 rejects about half of the
        # 11-bit values, so the first block runs short and is refilled.
        for family in ((7, 4), (63, 57)):
            for num_errors in (1, 2, 6, 10, 25):
                for seed in range(3):
                    assert_exact(HammingCode(*family), num_bits,
                                 num_errors, seed, 200)

    def test_refills_inside_a_trial(self, monkeypatch):
        # One-word blocks run dry inside almost every trial, including
        # the ones that extend past a repeated position.
        monkeypatch.setattr(cc, "_MAX_DRAW_WORDS", 1)
        for num_bits in (86, 1025):
            for num_errors in (2, 10, 20):
                for seed in range(3):
                    assert_exact(HammingCode(15, 11), num_bits,
                                 num_errors, seed, 50)

    def test_chunk_larger_than_one_block(self):
        # 8000 ten-error trials need about 84 000 words: two blocks.
        assert_exact(HammingCode(31, 26), 1000, 10, 11, 8000)

    def test_wide_sequences_fall_back(self, reference_calls):
        # randbelow(2**32) needs 33 bits, more than one word per draw.
        assert_exact(HammingCode(7, 4), 1 << 32, 3, 8, 20)
        assert reference_calls == [(1 << 32, 3)]

    def test_other_generators_fall_back(self, reference_calls):
        class Subclassed(random.Random):
            pass

        code = HammingCode(7, 4)
        assert (PACKED(code, 1000, 4, Subclassed(2), 30)
                == REFERENCE(code, 1000, 4, random.Random(2), 30))
        assert reference_calls == [(1000, 4)]

    def test_empty_chunk(self):
        assert_exact(HammingCode(7, 4), 1000, 3, 1, 0)

    @pytest.mark.parametrize("num_errors", [-1, 1001])
    def test_invalid_error_count_matches_sample(self, num_errors):
        with pytest.raises(ValueError) as expected:
            random.Random(0).sample(range(1000), num_errors)
        for simulate in (PACKED, REFERENCE):
            with pytest.raises(ValueError) as raised:
                simulate(HammingCode(7, 4), 1000, num_errors,
                         random.Random(0), 3)
            assert str(raised.value) == str(expected.value)


def test_packed_curves_run_without_numpy():
    script = (
        "import sys\n"
        "from repro.analysis.correction_capability import fig10_curves\n"
        "fig10_curves(error_counts=(1, 10), sequences=20, seed=1,\n"
        "             engine='packed', executor='serial')\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr


class TestErrorCountValidation:
    @pytest.mark.parametrize("error_counts, match", [
        ((), "error_counts is empty"),
        ((2, -1), "error count -1 is negative"),
        ((3, 11), "cannot inject 11 errors into 10 bits"),
    ])
    def test_rejected_before_dispatch(self, error_counts, match):
        with CampaignScheduler(executor="serial") as scheduler:
            with pytest.raises(ValueError, match=match):
                correction_capability_curve(
                    HammingCode(7, 4), error_counts=error_counts,
                    num_bits=10, sequences=5, scheduler=scheduler)
            assert scheduler.jobs == ()
        with pytest.raises(ValueError, match=match):
            fig10_curves(error_counts=error_counts, num_bits=10,
                         sequences=5, executor="process", num_workers=2)


def test_chunks_share_one_code_per_parameters(monkeypatch):
    built = []
    init = HammingCode.__init__

    def counting_init(self, n=7, k=4):
        built.append((n, k))
        init(self, n, k)

    monkeypatch.setattr(cc, "_HAMMING_CODE_CACHE", {})
    monkeypatch.setattr(HammingCode, "__init__", counting_init)
    task = cc.CorrectionCapabilityTask(code_n=15, code_k=11, num_bits=1000,
                                       num_errors=3, engine="packed")
    chunks = [task.run_chunk_on(None, seed, 40) for seed in (5, 5, 6)]
    assert built == [(15, 11)]
    assert chunks[0] == chunks[1]
    assert chunks[2] == PACKED(HammingCode(15, 11), 1000, 3,
                               random.Random(6), 40)
