"""The simd engine's bit-sliced decode core against per-sequence decodes.

Every verdict of the simd decode core is mask algebra over the batch's
uint64 words (syndrome matches, padding, the SECDED case splits, the
correction XOR and the per-lane correction popcount); the dense summary
pass, which ``run_batch_summary`` takes for every batch with a
multi-flip sequence and which builds the single-flip table, is its only
consumer.  It is
checked here sequence by sequence against the packed engine's scalar
decoders, and end to end through ``sleep_wake_cycle_batch_summary``
(folded with ``add_batch``) against per-sequence cycles, with fixed
seeds, on batch sizes whose last word has unused tail lanes, a padded
Hamming(63,57) group, SECDED triple errors whose syndromes cancel (the
overall-bit-only verdict) and double errors, parity, and overlapping
correctors.
"""

import functools
import random
import zlib

import pytest

np = pytest.importorskip("numpy")

from repro.circuit.generators import make_random_state_circuit  # noqa: E402
from repro.codes.parity import ParityCode                       # noqa: E402
from repro.core.protected import ProtectedDesign                # noqa: E402
from repro.engines.simd import correction_lut                   # noqa: E402
from repro.engines.packed import PackedMonitorEngine            # noqa: E402
from repro.engines.registry import get_engine                   # noqa: E402
from repro.faults.batch import PatternBatch                      # noqa: E402
from repro.faults.patterns import ErrorPattern                  # noqa: E402
from tests.engines.summary_oracle import (                      # noqa: E402
    assert_summary_matches,
    packed_verdicts,
    run_summary,
    verdict_rows,
)

#: (codes, registers, chains) per bank.
BANKS = {
    "hamming74_crc16_80": (["hamming(7,4)", "crc16"], 1000, 80),
    "hamming6357_padded_80": ("hamming(63,57)", 400, 80),
    "secded84": ("secded(8,4)", 40, 8),
    "parity8": ("parity(8)", 32, 8),
    "overlapping": (["hamming(7,4)", "hamming(15,11)"], 44, 4),
}

#: Neither size fills its last word, so tail lanes exist.
BATCH_SIZES = (100, 1000)


def _setup(bank):
    codes, registers, num_chains = BANKS[bank]
    circuit = make_random_state_circuit(registers, seed=9)
    design = ProtectedDesign(circuit, codes=codes, num_chains=num_chains,
                             engine="simd")
    simd = get_engine("simd", design)
    packed = PackedMonitorEngine(design.monitor_bank, simd.num_chains,
                                 simd.chain_length)
    return design, simd, packed


def _cancelling_triple(code):
    """Three data positions whose base syndromes XOR to zero (None when
    the code has none, or no syndromes: parity)."""
    if isinstance(code, ParityCode):
        return None
    lut = correction_lut(code).tolist()
    syndromes = [lut.index(p) for p in range(code.k)]
    for a in range(code.k):
        for b in range(a + 1, code.k):
            if syndromes[a] ^ syndromes[b] in syndromes[b + 1:]:
                return a, b, syndromes.index(syndromes[a] ^ syndromes[b])
    return None


def _patterns(design, batch_size, rng):
    """Per-sequence flips: clean, single, two or three flips in one
    codeword slice (three whose syndromes cancel where the code has
    such a triple), and random storms."""
    length = design.chain_length
    blocks = [block for block in design.monitor_bank.blocks
              if block.can_correct]
    patterns = []
    for _ in range(batch_size):
        kind = rng.choice(["none", "single", "pair", "triple", "storm"])
        if kind == "none":
            patterns.append(None)
            continue
        if kind == "single":
            cells = {(rng.randrange(design.num_chains),
                      rng.randrange(length))}
        elif kind == "storm" or not blocks:
            cells = {(rng.randrange(design.num_chains),
                      rng.randrange(length))
                     for _ in range(rng.randint(2, 12))}
        else:
            block = rng.choice(blocks)
            chains = block.chain_indices
            triple = _cancelling_triple(block.code)
            if kind == "triple" and triple and max(triple) < len(chains):
                picks = [chains[i] for i in triple]
            else:
                picks = rng.sample(chains, min(len(chains),
                                               2 if kind == "pair" else 3))
            position = rng.randrange(length)
            cells = {(chain, position) for chain in picks}
        patterns.append(ErrorPattern(frozenset(cells)))
    return patterns


@functools.lru_cache(maxsize=None)
def _reference(bank, batch_size):
    """A fixed-seed batch and its packed verdicts (shared by the tests
    of one case; the simd engine is rebuilt per test)."""
    design, simd, packed = _setup(bank)
    length = simd.chain_length
    rng = random.Random(zlib.crc32(f"mask/{bank}/{batch_size}".encode()))
    states = [rng.getrandbits(length) for _ in range(simd.num_chains)]
    knowns = [(1 << length) - 1] * simd.num_chains
    patterns = _patterns(design, batch_size, rng)
    flips = PatternBatch.from_patterns(patterns, simd.num_chains, length)
    expected = packed_verdicts(packed, states, knowns, patterns, length)
    return states, knowns, flips, expected


def _case(bank, batch_size):
    _design, simd, _packed = _setup(bank)
    return (simd,) + _reference(bank, batch_size)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("bank", sorted(BANKS))
def test_dense_summary_matches_packed(bank, batch_size):
    simd, states, knowns, flips, expected = _case(bank, batch_size)
    out = simd.run_batch_summary(states, knowns, flips, batch_size)
    assert simd.last_summary_path == "dense"
    assert verdict_rows(out) == expected


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("bank", sorted(BANKS))
def test_summary_cycle_matches_per_sequence_cycles(bank, batch_size):
    """The design-level summary cycle on simd against per-sequence
    cycles of a twin design on the packed engine (bit-exact against
    the reference, tests/engines/test_packed_equivalence.py)."""
    codes, registers, num_chains = BANKS[bank]
    designs = [ProtectedDesign(make_random_state_circuit(registers, seed=9),
                               codes=codes, num_chains=num_chains,
                               engine=engine)
               for engine in ("simd", "packed")]
    rng = random.Random(zlib.crc32(f"mask-cycle/{bank}".encode()))
    patterns = _patterns(designs[0], batch_size, rng)
    for phase in ("sleep", "post_wake"):
        expected = designs[1].sleep_wake_cycle_batch(patterns,
                                                      inject_phase=phase)
        assert_summary_matches(
            run_summary(designs[0], patterns, phase),
            expected)


def test_banks_reach_the_cases_they_stand_for():
    """The fixtures exercise what the module docstring promises."""
    _design, simd, *_ = _setup("hamming6357_padded_80")
    assert any(group.pad_mask is not None for group in simd._groups)
    _design, simd, *_ = _setup("overlapping")
    assert simd._overlapping_correctors

    # SECDED: three flips with cancelling syndromes are detected and
    # "corrected" at the overall bit with no data correction; two
    # flips in one codeword are uncorrectable.
    columns = _case("secded84", 1000)[-1]
    assert (True, False, 0, 3) in columns
    assert any(c[0] and c[1] and c[3] == 2 for c in columns)
