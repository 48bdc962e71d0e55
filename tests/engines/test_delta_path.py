"""Property suite: the sparse-delta summary path is bit-identical to
the dense path.

``run_batch_summary(..., path="delta")`` must produce exactly the
arrays of ``path="dense"`` -- every field of
:class:`BatchOutcomeArrays` -- across all registered code families,
geometries with and without padding, batch sizes including B=1 and
non-multiples of 64, and fault densities on both sides of (and exactly
at) the crossover threshold, including zero-flip sequences and
unknown-cell holes.  The suite also pins the automatic path selection
(``last_summary_path``), the single-flip outcome table (gather versus
general pass versus dense, and its rebuild on a known-matrix change),
the forced-delta failure mode on unsupported monitor structure, and
the process-wide sharing of the correction / verdict lookup tables.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.circuit.fifo import SyncFIFO                         # noqa: E402
from repro.circuit.generators import make_random_state_circuit  # noqa: E402
from repro.core.protected import ProtectedDesign                # noqa: E402
from repro.engines.base import BatchOutcomeArrays               # noqa: E402
from repro.engines.delta import (                               # noqa: E402
    DELTA_CROSSOVER_FLIPS_PER_SEQ,
    _general_summary,
    correction_lut,
    delta_summary,
    verdict_lut,
)
from repro.engines.registry import get_engine                   # noqa: E402
from repro.engines.summary import bits_matrix                   # noqa: E402
from repro.faults.batch import (                                # noqa: E402
    PatternBatch,
    pattern_batch_coords,
    sample_pattern_batch,
)

#: Code/geometry matrix: every registered family, correcting and
#: detecting codes alone and stacked, padded tails, plus the paper's
#: 32x32 FIFO configuration.
CONFIGS = [
    ("hamming74_crc16", ["hamming(7,4)", "crc16"], 8, 56),
    ("hamming74_padded", ["hamming(7,4)"], 5, 33),
    ("hamming6357_crc32", ["hamming(63,57)", "crc32"], 6, 80),
    ("secded84", ["secded(8,4)"], 8, 40),
    ("secded84_crc16", ["secded(8,4)", "crc16"], 6, 24),
    ("parity8", ["parity(8)"], 4, 16),
    ("parity12_ccitt", ["parity(12)", "crc16-ccitt"], 6, 36),
    ("crc8_only", ["crc8"], 3, 21),
]

#: 1 exercises the single-word degenerate case; 100 and 257 are not
#: multiples of 64, so the word-packed tails matter.
BATCH_SIZES = (1, 64, 100, 257)


def _design(codes, num_chains, num_registers, seed=11):
    circuit = make_random_state_circuit(num_registers, seed=seed)
    return ProtectedDesign(circuit, codes=list(codes),
                           num_chains=num_chains, engine="simd",
                           lfsr_seed=5)


def _paper_design():
    fifo = SyncFIFO(32, 32, name="fifo32x32")
    return ProtectedDesign(fifo, codes=["hamming(7,4)", "crc16"],
                           num_chains=80, engine="simd", lfsr_seed=7)


def _pack(design):
    from repro.engines.packing import pack_chains
    states, knowns = pack_chains(design.chains)
    return list(states), list(knowns)


def _punch_holes(states, knowns):
    """Clear a couple of known bits on every 7th chain (unknown cells
    contribute to neither residuals nor syndromes)."""
    states = list(states)
    knowns = list(knowns)
    for c in range(0, len(knowns), 7):
        knowns[c] &= ~0b101
        states[c] &= knowns[c]
    return states, knowns


def _both_paths(design, flips, batch_size, states=None, knowns=None):
    engine = get_engine("simd", design)
    if states is None:
        states, knowns = _pack(design)
    dense = engine.run_batch_summary(states, knowns, flips, batch_size,
                                     path="dense")
    assert engine.last_summary_path == "dense"
    delta = engine.run_batch_summary(states, knowns, flips, batch_size,
                                     path="delta")
    assert engine.last_summary_path == "delta"
    return dense, delta


def assert_identical(dense: BatchOutcomeArrays, delta: BatchOutcomeArrays):
    assert np.array_equal(dense.injected, delta.injected)
    assert np.array_equal(dense.detected, delta.detected)
    assert np.array_equal(dense.corrected_claim, delta.corrected_claim)
    assert np.array_equal(dense.state_intact, delta.state_intact)
    assert np.array_equal(dense.corrections_applied,
                          delta.corrections_applied)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize(
    "codes,num_chains,num_registers",
    [config[1:] for config in CONFIGS],
    ids=[config[0] for config in CONFIGS])
@pytest.mark.parametrize("kind", ("single", "burst", "multiple", "none"))
def test_delta_matches_dense(codes, num_chains, num_registers, kind,
                             batch_size):
    design = _design(codes, num_chains, num_registers)
    rng = np.random.default_rng(20100308 + batch_size)
    sampled = sample_pattern_batch(kind, design.num_chains,
                                   design.chain_length, batch_size, rng,
                                   num_errors=4)
    assert_identical(*_both_paths(design, sampled, batch_size))


@pytest.mark.parametrize("kind", ("single", "multiple"))
def test_delta_matches_dense_paper_config(kind):
    """The paper's 32x32 FIFO / 80-chain configuration, the geometry
    the committed campaign_delta_path benchmark runs on."""
    design = _paper_design()
    rng = np.random.default_rng(42)
    sampled = sample_pattern_batch(kind, design.num_chains,
                                   design.chain_length, 257, rng,
                                   num_errors=3)
    assert_identical(*_both_paths(design, sampled, 257))


def _coords_batch(design, batch_size, coords):
    """A caller-built batch from ``(sequence, chain, position)`` flips."""
    seqs, chains, positions = (
        np.array([flip[axis] for flip in coords], dtype=np.int64)
        for axis in range(3))
    return PatternBatch(design.num_chains, design.chain_length, batch_size,
                        "multiple", seqs, chains, positions)


def test_delta_matches_dense_caller_built_batch():
    """A caller-built batch -- a repeated (sequence, cell) pair, a cell
    shared by several sequences, clean sequences -- goes through the
    same coordinate extraction."""
    design = _design(["secded(8,4)", "crc16"], 6, 24)
    flips = _coords_batch(design, 9, [
        (0, 0, 1), (0, 0, 1), (1, 0, 1), (3, 0, 1), (1, 1, 3), (8, 2, 0),
        (3, 5, 2)])
    assert_identical(*_both_paths(design, flips, 9))


def test_delta_matches_dense_empty_batch():
    """Zero flips everywhere: the delta path does no LUT work at all
    yet must still report the clean verdicts and intact state."""
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    dense, delta = _both_paths(design, _coords_batch(design, 65, []), 65)
    assert_identical(dense, delta)
    assert not dense.detected.any()
    assert dense.state_intact.all()


@pytest.mark.parametrize("batch_size", (1, 100))
def test_delta_matches_dense_with_unknown_cells(batch_size):
    """Unknown (tied-off / non-scanned) cells are excluded from both
    syndromes and residual comparison on both paths."""
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    states, knowns = _punch_holes(*_pack(design))
    rng = np.random.default_rng(7)
    sampled = sample_pattern_batch("multiple", design.num_chains,
                                   design.chain_length, batch_size, rng,
                                   num_errors=4)
    assert_identical(*_both_paths(design, sampled, batch_size,
                                  states=states, knowns=knowns))


def test_auto_selects_delta_below_crossover():
    """A single-error batch sits far below the crossover, so "auto"
    takes the delta path."""
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    engine = get_engine("simd", design)
    states, knowns = _pack(design)
    rng = np.random.default_rng(3)
    sampled = sample_pattern_batch("single", design.num_chains,
                                   design.chain_length, 64, rng)
    engine.run_batch_summary(states, knowns, sampled, 64)
    assert engine.last_summary_path == "delta"


def test_auto_selects_dense_above_crossover():
    """A batch denser than the crossover falls back to the dense
    fold (here by lowering the instance crossover under the sampled
    density instead of sampling thousands of flips)."""
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    engine = get_engine("simd", design)
    states, knowns = _pack(design)
    rng = np.random.default_rng(3)
    sampled = sample_pattern_batch("multiple", design.num_chains,
                                   design.chain_length, 64, rng,
                                   num_errors=4)
    engine.delta_crossover = 0.5
    engine.run_batch_summary(states, knowns, sampled, 64)
    assert engine.last_summary_path == "dense"


def test_auto_takes_delta_exactly_at_threshold():
    """num_flips == crossover * batch_size is still the delta path
    (the comparison is <=, not <)."""
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    engine = get_engine("simd", design)
    engine.delta_crossover = 1.0
    states, knowns = _pack(design)
    batch = 16
    seqs = np.arange(batch, dtype=np.int64)
    flips = PatternBatch(design.num_chains, design.chain_length, batch,
                         "single", seqs, seqs % design.num_chains,
                         np.zeros(batch, dtype=np.int64))
    assert flips.num_flips == engine.delta_crossover * batch
    engine.run_batch_summary(states, knowns, flips, batch)
    assert engine.last_summary_path == "delta"
    # One flip more tips it over.
    flips = PatternBatch(design.num_chains, design.chain_length, batch,
                         "single", np.append(seqs, 1),
                         np.append(seqs % design.num_chains, 0),
                         np.append(np.zeros(batch, dtype=np.int64), 1))
    engine.run_batch_summary(states, knowns, flips, batch)
    assert engine.last_summary_path == "dense"


def test_default_crossover_is_module_constant():
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    engine = get_engine("simd", design)
    assert engine.delta_crossover == DELTA_CROSSOVER_FLIPS_PER_SEQ


def test_forced_delta_on_unsupported_structure_raises():
    """Overlapping correcting blocks replay with last-block-wins
    semantics the superposition cannot reproduce: auto must silently
    take the dense path, forced "delta" must fail loudly."""
    design = _design(["hamming(7,4)", "secded(8,4)"], 8, 56)
    engine = get_engine("simd", design)
    if engine._delta_plan_for().supported:
        pytest.skip("structure unexpectedly delta-capable")
    states, knowns = _pack(design)
    engine.run_batch_summary(states, knowns, _coords_batch(design, 4, [(0, 0, 0)]), 4)
    assert engine.last_summary_path == "dense"
    with pytest.raises(ValueError, match="delta"):
        engine.run_batch_summary(states, knowns, _coords_batch(design, 4, [(0, 0, 0)]), 4,
                                 path="delta")


def test_unknown_path_name_rejected():
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    engine = get_engine("simd", design)
    states, knowns = _pack(design)
    with pytest.raises(ValueError, match="path"):
        engine.run_batch_summary(states, knowns, _coords_batch(design, 4, []),
                                 4, path="fast")
    with pytest.raises(ValueError, match="path"):
        design.sleep_wake_cycle_batch_summary(
            (states, knowns), _coords_batch(design, 4, []), 4, path="fast")


def test_design_level_path_forwarding():
    """sleep_wake_cycle_batch_summary forwards forced paths to the
    engine and the results agree field for field."""
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    rng = np.random.default_rng(5)
    sampled = sample_pattern_batch("burst", design.num_chains,
                                   design.chain_length, 33, rng,
                                   num_errors=3)
    snapshot = design._pack_chains()
    dense = design.sleep_wake_cycle_batch_summary(snapshot, sampled, 33,
                                                  path="dense")
    delta = design.sleep_wake_cycle_batch_summary(snapshot, sampled, 33,
                                                  path="delta")
    assert_identical(dense, delta)


def test_correction_luts_are_shared_and_frozen():
    """Satellite: the syndrome->position tables are memoised
    process-wide on the code parameters -- two engines over the same
    code family share the very same (read-only) ndarray."""
    from repro.codes.registry import get_code

    lut_a = correction_lut(get_code("hamming(7,4)"))
    lut_b = correction_lut(get_code("hamming(7,4)"))
    assert lut_a is lut_b
    assert not lut_a.flags.writeable
    assert correction_lut(get_code("hamming(15,11)")) is not lut_a
    code_a, code_b = get_code("secded(8,4)"), get_code("secded(8,4)")
    assert verdict_lut(code_a) is verdict_lut(code_b)
    assert not verdict_lut(code_a).flags.writeable


# ----------------------------------------------------------------------
# The single-flip outcome table
# ----------------------------------------------------------------------
def _table_general_dense(design, flips, batch_size, states=None,
                         knowns=None, engine=None):
    """The same batch through the table gather, the general delta pass
    and the dense pass; returns the engine's plan too."""
    if engine is None:
        engine = get_engine("simd", design)
    if states is None:
        states, knowns = _pack(design)
    plan = engine._delta_plan_for()
    assert plan.supported
    known_bits = bits_matrix(knowns, design.chain_length)
    coords = pattern_batch_coords(flips, known_bits, batch_size)
    table = delta_summary(plan, known_bits, *coords, batch_size)
    general = _general_summary(plan, known_bits, *coords, batch_size)
    dense = engine.run_batch_summary(states, knowns, flips, batch_size,
                                     path="dense")
    return table, general, dense, plan


def _assert_all_identical(table, general, dense):
    assert_identical(general, table)
    assert_identical(dense, table)
    assert np.array_equal(general.residual_errors, table.residual_errors)
    assert np.array_equal(dense.residual_errors, table.residual_errors)
    assert np.array_equal(dense.uncorrectable, table.uncorrectable)


#: SECDED, parity and CRC-only banks (the paper configuration has its
#: own test).
TABLE_CONFIGS = [config for config in CONFIGS if config[0] in (
    "secded84_crc16", "parity8", "parity12_ccitt", "crc8_only")]


def _every_cell_batch(design):
    """One sequence per scan cell, plus a clean last sequence."""
    num_cells = design.num_chains * design.chain_length
    cells = np.arange(num_cells, dtype=np.int64)
    return PatternBatch(design.num_chains, design.chain_length,
                        num_cells + 1, "single", cells,
                        cells // design.chain_length,
                        cells % design.chain_length), num_cells + 1


def test_single_flip_table_paper_config():
    """Every cell of the paper's 32x32 FIFO configuration: all single
    errors detected and corrected, on all three paths."""
    design = _paper_design()
    flips, batch = _every_cell_batch(design)
    table, general, dense, plan = _table_general_dense(design, flips, batch)
    _assert_all_identical(table, general, dense)
    assert plan.single_table is not None
    rng = np.random.default_rng(20100308)
    sampled = sample_pattern_batch("single", design.num_chains,
                                   design.chain_length, 4096, rng)
    _assert_all_identical(*_table_general_dense(design, sampled, 4096)[:3])


@pytest.mark.parametrize(
    "codes,num_chains,num_registers",
    [config[1:] for config in TABLE_CONFIGS],
    ids=[config[0] for config in TABLE_CONFIGS])
def test_single_flip_table_matches_general_and_dense(codes, num_chains,
                                                     num_registers):
    design = _design(codes, num_chains, num_registers)
    flips, batch = _every_cell_batch(design)
    _assert_all_identical(*_table_general_dense(design, flips, batch)[:3])
    rng = np.random.default_rng(1234)
    sampled = sample_pattern_batch("single", design.num_chains,
                                   design.chain_length, 257, rng)
    _assert_all_identical(*_table_general_dense(design, sampled, 257)[:3])


def _mixed_batch(design, batch_size, seed):
    """Single flips on every other sequence: the rest stay clean."""
    rng = np.random.default_rng(seed)
    seqs = np.arange(0, batch_size, 2, dtype=np.int64)
    return PatternBatch(
        design.num_chains, design.chain_length, batch_size, "single",
        seqs, rng.integers(0, design.num_chains, seqs.size),
        rng.integers(0, design.chain_length, seqs.size))


@pytest.mark.parametrize(
    "codes,num_chains,num_registers",
    [CONFIGS[0][1:]] + [config[1:] for config in TABLE_CONFIGS],
    ids=[CONFIGS[0][0]] + [config[0] for config in TABLE_CONFIGS])
def test_single_flip_table_unknown_cells_and_clean_sequences(
        codes, num_chains, num_registers):
    """Holes in the known matrix and a mix of 0-flip and 1-flip
    sequences: unknown-cell flips are gated out (those sequences are
    clean), and every clean sequence still counts the unknown cells as
    residuals."""
    design = _design(codes, num_chains, num_registers)
    states, knowns = _punch_holes(*_pack(design))
    flips, batch = _every_cell_batch(design)
    _assert_all_identical(*_table_general_dense(
        design, flips, batch, states=states, knowns=knowns)[:3])
    mixed = _mixed_batch(design, 100, seed=9)
    table, general, dense, _ = _table_general_dense(
        design, mixed, 100, states=states, knowns=knowns)
    _assert_all_identical(table, general, dense)
    assert (table.injected == 0).any() and (table.injected == 1).any()
    assert (table.residual_errors > 0).all()


def test_single_flip_table_rebuilds_on_known_change():
    """The table depends on the known matrix: a batch under a different
    one rebuilds it, and a batch under the same one reuses it."""
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    engine = get_engine("simd", design)
    full_states, full_knowns = _pack(design)
    holed_states, holed_knowns = _punch_holes(full_states, full_knowns)
    flips, batch = _every_cell_batch(design)
    first = _table_general_dense(design, flips, batch, engine=engine)
    _assert_all_identical(*first[:3])
    plan = first[3]
    built = plan.single_table
    holed = _table_general_dense(design, flips, batch, states=holed_states,
                                 knowns=holed_knowns, engine=engine)
    _assert_all_identical(*holed[:3])
    assert holed[3] is plan
    assert plan.single_table is not built
    assert np.array_equal(plan.single_known,
                          bits_matrix(holed_knowns, design.chain_length))
    rebuilt = plan.single_table
    _assert_all_identical(*_table_general_dense(
        design, _mixed_batch(design, 64, seed=2), 64, states=holed_states,
        knowns=holed_knowns, engine=engine)[:3])
    assert plan.single_table is rebuilt
    _assert_all_identical(*_table_general_dense(design, flips, batch,
                                                engine=engine)[:3])


def test_two_flip_sequence_takes_general_path():
    """One sequence with two effective flips sends the whole batch
    through the general pass: the table is never built."""
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    engine = get_engine("simd", design)
    states, knowns = _pack(design)
    flips = _coords_batch(design, 6, [
        (0, 0, 1), (2, 3, 4), (4, 1, 0), (4, 1, 2), (5, 7, 6)])
    dense = engine.run_batch_summary(states, knowns, flips, 6,
                                     path="dense")
    delta = engine.run_batch_summary(states, knowns, flips, 6,
                                     path="delta")
    assert engine.last_summary_path == "delta"
    assert_identical(dense, delta)
    assert np.array_equal(dense.residual_errors, delta.residual_errors)
    assert engine._delta_plan_for().single_table is None
    assert delta.injected.max() == 2
