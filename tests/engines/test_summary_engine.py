"""Engine-level contract of the columnar summary interface."""

import pytest

np = pytest.importorskip("numpy")

from repro.circuit.generators import make_random_state_circuit  # noqa: E402
from repro.core.protected import ProtectedDesign                # noqa: E402
from repro.engines.base import BatchOutcomeArrays               # noqa: E402
from repro.engines.registry import get_engine                   # noqa: E402
from repro.engines.summary import (                             # noqa: E402
    bits_matrix,
    residual_counts_words,
)


def _design(engine, codes=("hamming(7,4)", "crc16")):
    circuit = make_random_state_circuit(64, seed=11)
    return ProtectedDesign(circuit, codes=list(codes), num_chains=8,
                           engine=engine, lfsr_seed=5)


def test_summary_capability_flags():
    design = _design("reference")
    assert get_engine("simd", design).supports_summary
    assert not get_engine("packed", design).supports_summary
    assert not get_engine("reference", design).supports_summary
    assert not design.supports_batch_summary
    design.set_engine("simd")
    assert design.supports_batch_summary


def test_non_summary_engine_raises():
    design = _design("packed")
    with pytest.raises(ValueError, match="summary"):
        design.sleep_wake_cycle_batch_summary({}, 4)
    engine = get_engine("packed", design)
    with pytest.raises(NotImplementedError):
        engine.run_batch_summary([0] * 8, [0] * 8, {}, 4)


def test_summary_validates_flips_eagerly():
    design = _design("simd")
    with pytest.raises(ValueError, match="outside"):
        design.sleep_wake_cycle_batch_summary({(99, 0): 1}, 4)
    with pytest.raises(ValueError, match="outside"):
        design.sleep_wake_cycle_batch_summary({(0, 0): 1 << 7}, 4)
    # Neither failure may strand the controller outside ACTIVE.
    design.sleep_wake_cycle_batch_summary({(0, 0): 1}, 4)


def test_summary_validates_pattern_batch_eagerly():
    """Malformed PatternBatch coordinates fail before the controller
    leaves ACTIVE (negative indices would otherwise wrap silently in
    the ndarray scatters)."""
    from repro.faults.batch import PatternBatch

    design = _design("simd")
    length = design.chain_length

    def batch(chain=0, position=0, seq=0, num_chains=8,
              chain_length=None, batch_size=4):
        return PatternBatch(
            num_chains, chain_length or length, batch_size, "single",
            np.array([seq]), np.array([chain]), np.array([position]))

    with pytest.raises(ValueError, match="scan array"):
        design.sleep_wake_cycle_batch_summary(batch(num_chains=9), 4)
    with pytest.raises(ValueError, match="sequences"):
        design.sleep_wake_cycle_batch_summary(batch(batch_size=5), 4)
    for bad in (batch(chain=-1), batch(chain=8), batch(position=-1),
                batch(position=length), batch(seq=-1), batch(seq=4)):
        with pytest.raises(ValueError, match="outside"):
            design.sleep_wake_cycle_batch_summary(bad, 4)
    # None of the failures stranded the controller outside ACTIVE.
    design.sleep_wake_cycle_batch_summary(batch(), 4)


def _mask_bools(mask, batch_size):
    return np.array([bool((mask >> b) & 1) for b in range(batch_size)])


@pytest.mark.parametrize("engine", ("simd",))
def test_engine_summary_matches_batch_masks(engine):
    """run_batch_summary's detected/uncorrectable columns equal the
    decode_pass_batch masks for the same injected batch."""
    from repro.engines.packing import pack_chains, replicate_states
    from repro.faults.batch import apply_batch_flips

    batch = 21
    design = _design(engine)
    flips = {(0, 1): 0b101, (1, 3): 0b10, (2, 0): 1 << 20,
             (3, 2): 0b1000, (4, 2): 0b1000}
    summary = get_engine(engine, design).run_batch_summary(
        *pack_chains(design.chains), flips, batch)

    reference = get_engine(engine, design)
    states, knowns = pack_chains(design.chains)
    planes = replicate_states(states, design.chain_length,
                              (1 << batch) - 1)
    reference.encode_pass_batch(planes, knowns, batch)
    injected = apply_batch_flips(planes, knowns, flips, batch)
    result = reference.decode_pass_batch(planes, knowns, batch)

    assert np.array_equal(summary.detected,
                          _mask_bools(result.detected_mask, batch))
    assert np.array_equal(summary.uncorrectable,
                          _mask_bools(result.uncorrectable_mask, batch))
    assert summary.injected.tolist() == injected
    counts = [result.corrections.get(b, 0) for b in range(batch)]
    assert summary.corrections_applied.tolist() == counts


def test_simd_batch_result_carries_corrected_words():
    """The simd object path attaches its word-packed corrected state,
    and the vectorised comparator over it matches the plane content."""
    from repro.engines.packing import pack_chains, replicate_states
    from repro.engines.simd import planes_to_words
    from repro.faults.batch import apply_batch_flips

    batch = 9
    design = _design("simd")
    engine = get_engine("simd", design)
    states, knowns = pack_chains(design.chains)
    planes = replicate_states(states, design.chain_length,
                              (1 << batch) - 1)
    engine.encode_pass_batch(planes, knowns, batch)
    apply_batch_flips(planes, knowns, {(0, 0): 0b11, (5, 4): 0b100},
                      batch)
    result = engine.decode_pass_batch(planes, knowns, batch)
    assert result.corrected_words is not None
    assert np.array_equal(result.corrected_words,
                          planes_to_words(result.corrected, batch))


def test_residual_counts_words_unknown_rule():
    """Unknown pre-sleep positions always count, known positions count
    only where the corrected bit differs."""
    states = [0b0101, 0b0000]
    knowns = [0b1111, 0b1011]   # chain 1 position 2 is unknown
    batch = 3
    full = np.array([0b111], dtype=np.uint64)
    state_bits = bits_matrix(states, 4)
    corrected = np.where(state_bits[:, :, None], full, np.uint64(0))
    base = residual_counts_words(states, knowns, corrected, batch)
    assert base.tolist() == [1, 1, 1]        # the unknown position only
    corrected[0, 3] ^= np.uint64(0b010)      # flip one bit of sequence 1
    corrected[1, 2] ^= np.uint64(0b111)      # unknown position: no change
    counts = residual_counts_words(states, knowns, corrected, batch)
    assert counts.tolist() == [1, 2, 1]


def test_summary_outcome_array_properties():
    arrays = BatchOutcomeArrays(
        injected=np.array([1, 0]),
        detected=np.array([True, False]),
        uncorrectable=np.array([False, False]),
        residual_errors=np.array([0, 2]),
        corrections_applied=np.array([1, 0]))
    assert arrays.batch_size == 2
    assert arrays.state_intact.tolist() == [True, False]
    assert arrays.corrected_claim.tolist() == [True, False]
