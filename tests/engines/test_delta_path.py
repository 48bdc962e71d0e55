"""Property suite: the single-flip outcome table is bit-identical to the
dense summary path.

``run_batch_summary`` answers a batch with at most one effective flip
per sequence from a per-cell outcome table that the engine's own dense
pass builds once per known matrix.  It must produce exactly the arrays
of the dense pass (``engine._dense_summary``, the pass the table is
built from) -- every field of :class:`BatchOutcomeArrays` -- across
all registered code families (the overlapping-corrector bank
included), geometries with and without padding, batch sizes including
B=1 and non-multiples of 64, zero-flip sequences and unknown-cell
holes, with the table built under one baseline state and gathered
under another.  The suite also pins the path selection
(``last_summary_path``: ``"delta"`` for the table, ``"dense"`` for
every batch with a multi-flip sequence), the table's rebuild on a
known-matrix change, the process-wide sharing of the correction /
verdict lookup tables, and the process-wide single-flip table memo
(hits equal a fresh pass, keys keep banks apart, a second campaign
runs no every-cell pass, subclassed codes stay per-engine, the memo
is bounded).
"""

import pytest

np = pytest.importorskip("numpy")

from repro.circuit.fifo import SyncFIFO                         # noqa: E402
from repro.circuit.generators import make_random_state_circuit  # noqa: E402
from repro.core.protected import ProtectedDesign                # noqa: E402
from repro.engines.base import BatchOutcomeArrays               # noqa: E402
from repro.engines.jit import verdict_lut                       # noqa: E402
from repro.engines.registry import get_engine                   # noqa: E402
from repro.engines import simd as simd_module                   # noqa: E402
from repro.engines.simd import SimdBatchedEngine, correction_lut  # noqa: E402
from repro.engines.summary import bits_matrix                   # noqa: E402
from repro.faults import batch as batch_module                  # noqa: E402
from repro.faults.batch import (                                # noqa: E402
    PatternBatch,
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


def _dense(engine, states, knowns, flips, batch_size):
    """The dense word pipeline on its own, whatever the batch holds."""
    return engine._dense_summary(states, knowns,
                                 engine._known_matrix(knowns), flips,
                                 batch_size)


def _both_paths(design, flips, batch_size, states=None, knowns=None,
                engine=None):
    """The dense pass and the engine's own choice on a batch with at
    most one effective flip per sequence, which must be the table."""
    if engine is None:
        engine = get_engine("simd", design)
    if states is None:
        states, knowns = _pack(design)
    dense = _dense(engine, states, knowns, flips, batch_size)
    delta = engine.run_batch_summary(states, knowns, flips, batch_size)
    assert engine.last_summary_path == "delta"
    return dense, delta


def assert_identical(dense: BatchOutcomeArrays, delta: BatchOutcomeArrays):
    assert np.array_equal(dense.injected, delta.injected)
    assert np.array_equal(dense.detected, delta.detected)
    assert np.array_equal(dense.uncorrectable, delta.uncorrectable)
    assert np.array_equal(dense.residual_errors, delta.residual_errors)
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
    """Single-error and clean batches: the table equals the dense pass.
    Burst and multi-error batches (4 flips per sequence) run the dense
    pass."""
    design = _design(codes, num_chains, num_registers)
    rng = np.random.default_rng(20100308 + batch_size)
    sampled = sample_pattern_batch(kind, design.num_chains,
                                   design.chain_length, batch_size, rng,
                                   num_errors=4)
    if kind in ("single", "none"):
        assert_identical(*_both_paths(design, sampled, batch_size))
        return
    engine = get_engine("simd", design)
    states, knowns = _pack(design)
    dense = _dense(engine, states, knowns, sampled, batch_size)
    auto = engine.run_batch_summary(states, knowns, sampled, batch_size)
    assert engine.last_summary_path == "dense"
    assert_identical(dense, auto)
    assert int(dense.injected.max()) > 1


@pytest.mark.parametrize("kind", ("single", "none"))
def test_delta_matches_dense_paper_config(kind):
    """The paper's 32x32 FIFO / 80-chain configuration, the geometry
    the committed campaign_delta_path benchmark runs on."""
    design = _paper_design()
    rng = np.random.default_rng(42)
    sampled = sample_pattern_batch(kind, design.num_chains,
                                   design.chain_length, 257, rng)
    assert_identical(*_both_paths(design, sampled, 257))


def _coords_batch(design, batch_size, coords):
    """A caller-built batch from ``(sequence, chain, position)`` flips."""
    seqs, chains, positions = (
        np.array([flip[axis] for flip in coords], dtype=np.int64)
        for axis in range(3))
    return PatternBatch(design.num_chains, design.chain_length, batch_size,
                        "multiple", seqs, chains, positions)


def test_delta_matches_dense_caller_built_batch():
    """A caller-built batch -- a repeated (sequence, cell) pair, which
    is one effective flip, a cell shared by several sequences, clean
    sequences -- goes through the same coordinate extraction."""
    design = _design(["secded(8,4)", "crc16"], 6, 24)
    flips = _coords_batch(design, 9, [
        (0, 0, 1), (0, 0, 1), (1, 0, 1), (3, 0, 1), (4, 1, 3), (8, 2, 0),
        (5, 5, 2)])
    dense, delta = _both_paths(design, flips, 9)
    assert_identical(dense, delta)
    assert delta.injected.max() == 1


def test_delta_matches_dense_empty_batch():
    """Zero flips everywhere: every row is the table's clean row, with
    the clean verdicts and intact state."""
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
    sampled = sample_pattern_batch("single", design.num_chains,
                                   design.chain_length, batch_size, rng)
    assert_identical(*_both_paths(design, sampled, batch_size,
                                  states=states, knowns=knowns))


# ----------------------------------------------------------------------
# Path selection
# ----------------------------------------------------------------------
def test_auto_selects_delta_on_single_error_batch():
    """One flip per sequence is exactly ``batch_size`` flips, the
    largest count the engine still checks for the table."""
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    engine = get_engine("simd", design)
    states, knowns = _pack(design)
    rng = np.random.default_rng(3)
    sampled = sample_pattern_batch("single", design.num_chains,
                                   design.chain_length, 64, rng)
    assert sampled.num_flips == 64
    engine.run_batch_summary(states, knowns, sampled, 64)
    assert engine.last_summary_path == "delta"


@pytest.mark.parametrize("kind", ("burst", "multiple"))
def test_auto_selects_dense_on_multi_flip_batch(kind):
    """Burst and multi-error batches run the dense pass."""
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    engine = get_engine("simd", design)
    states, knowns = _pack(design)
    rng = np.random.default_rng(3)
    sampled = sample_pattern_batch(kind, design.num_chains,
                                   design.chain_length, 64, rng,
                                   num_errors=2)
    auto = engine.run_batch_summary(states, knowns, sampled, 64)
    assert engine.last_summary_path == "dense"
    assert_identical(_dense(engine, states, knowns, sampled, 64), auto)


class _CountingCoords:
    """Stands in for ``pattern_batch_coords``: counts calls and
    delegates."""

    def __init__(self):
        self.calls = 0
        self.wrapped = batch_module.pattern_batch_coords

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.wrapped(*args, **kwargs)


def test_auto_skips_coordinate_sort_above_batch_size(monkeypatch):
    """More flips than sequences cannot be a single-error batch, so
    the engine goes straight to dense and resolves coordinates no more
    often than the dense pass alone does (the Fig. 10 multi-error
    campaigns never pay an extra sort); at or below ``batch_size``
    flips the probe's resolution is handed on to the dense pass, so
    the engine again resolves them exactly as often as the dense pass
    alone."""
    counter = _CountingCoords()
    monkeypatch.setattr(batch_module, "pattern_batch_coords", counter)
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    engine = get_engine("simd", design)
    states, knowns = _pack(design)
    rng = np.random.default_rng(4)
    dense = sample_pattern_batch("multiple", design.num_chains,
                                 design.chain_length, 64, rng,
                                 num_errors=10)
    assert dense.num_flips > 64
    flips = _coords_batch(design, 6, [(0, 0, 1), (4, 1, 0), (4, 1, 2)])
    for batch, size in ((dense, 64), (flips, 6)):
        _dense(engine, states, knowns, batch, size)
        alone = counter.calls
        counter.calls = 0
        engine.run_batch_summary(states, knowns, batch, size)
        assert engine.last_summary_path == "dense"
        assert counter.calls == alone
        counter.calls = 0


def test_auto_resolves_multi_flip_batch_coordinates_once(monkeypatch):
    """A batch with at most ``batch_size`` flips but a two-flip
    sequence: the single-flip probe resolves the coordinates and the
    dense pass reuses them, one ``pattern_batch_coords`` call in all,
    with the same arrays as the dense pass alone."""
    counter = _CountingCoords()
    monkeypatch.setattr(batch_module, "pattern_batch_coords", counter)
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    engine = get_engine("simd", design)
    states, knowns = _pack(design)
    flips = _coords_batch(design, 6, [(0, 0, 1), (4, 1, 0), (4, 1, 2)])
    auto = engine.run_batch_summary(states, knowns, flips, 6)
    assert engine.last_summary_path == "dense"
    assert counter.calls == 1
    assert_identical(auto, _dense(engine, states, knowns, flips, 6))


def test_two_flip_sequence_runs_dense_unless_gated():
    """A sequence with two effective flips sends the batch to the dense
    pass; a second flip that lands on an unknown cell is gated out, so
    that sequence has one effective flip and the table serves it."""
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    engine = get_engine("simd", design)
    states, knowns = _pack(design)
    flips = _coords_batch(design, 6, [
        (0, 0, 1), (2, 3, 4), (4, 1, 0), (4, 1, 2), (5, 7, 6)])
    auto = engine.run_batch_summary(states, knowns, flips, 6)
    assert engine.last_summary_path == "dense"
    assert int(auto.injected.max()) == 2
    assert_identical(auto, _dense(engine, states, knowns, flips, 6))
    holed_states, holed_knowns = _punch_holes(states, knowns)
    gated = _coords_batch(design, 6, [(0, 0, 1), (3, 0, 0), (3, 4, 4)])
    assert_identical(*_both_paths(design, gated, 6, states=holed_states,
                                  knowns=holed_knowns, engine=engine))


def test_correction_luts_are_shared_and_frozen():
    """The syndrome->position tables are memoised process-wide on the
    code parameters -- two engines over the same code family share the
    very same (read-only) ndarray."""
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
#: SECDED, parity and CRC-only banks (the paper configuration and the
#: overlapping-corrector bank have their own tests).
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
    errors detected and corrected, on both paths."""
    design = _paper_design()
    engine = get_engine("simd", design)
    flips, batch = _every_cell_batch(design)
    dense, delta = _both_paths(design, flips, batch, engine=engine)
    assert_identical(dense, delta)
    assert engine._single_table is not None
    assert delta.detected[:-1].all() and delta.state_intact.all()
    rng = np.random.default_rng(20100308)
    sampled = sample_pattern_batch("single", design.num_chains,
                                   design.chain_length, 4096, rng)
    assert_identical(*_both_paths(design, sampled, 4096, engine=engine))


@pytest.mark.parametrize(
    "codes,num_chains,num_registers",
    [config[1:] for config in TABLE_CONFIGS],
    ids=[config[0] for config in TABLE_CONFIGS])
def test_single_flip_table_matches_dense(codes, num_chains, num_registers):
    design = _design(codes, num_chains, num_registers)
    flips, batch = _every_cell_batch(design)
    assert_identical(*_both_paths(design, flips, batch))
    rng = np.random.default_rng(1234)
    sampled = sample_pattern_batch("single", design.num_chains,
                                   design.chain_length, 257, rng)
    assert_identical(*_both_paths(design, sampled, 257))


@pytest.mark.parametrize("holes", (False, True), ids=("known", "holed"))
def test_single_flip_table_serves_overlapping_correctors(holes):
    """Two correcting block families sharing chains replay with
    last-block-wins feedback, and single-flip outcomes still depend
    only on the flipped cell: a table built under one circuit's state
    (seed 11) answers batches under another (seed 99) exactly like the
    dense pass does under that second state."""
    codes = ["hamming(7,4)", "secded(8,4)"]
    build_design = _design(codes, 8, 56, seed=11)
    gather_design = _design(codes, 8, 56, seed=99)
    engine = get_engine("simd", build_design)
    build_states, build_knowns = _pack(build_design)
    states, knowns = _pack(gather_design)
    assert build_states != states
    if holes:
        build_states, build_knowns = _punch_holes(build_states,
                                                  build_knowns)
        states, knowns = _punch_holes(states, knowns)
    assert build_knowns == knowns
    clean = _coords_batch(build_design, 1, [])
    engine.run_batch_summary(build_states, build_knowns, clean, 1)
    assert engine.last_summary_path == "delta"
    table = engine._single_table
    flips, batch = _every_cell_batch(gather_design)
    rng = np.random.default_rng(257)
    sampled = sample_pattern_batch("single", gather_design.num_chains,
                                   gather_design.chain_length, 257, rng)
    for batch_flips, size in ((flips, batch), (sampled, 257)):
        dense = _dense(engine, states, knowns, batch_flips, size)
        delta = engine.run_batch_summary(states, knowns, batch_flips, size)
        assert engine.last_summary_path == "delta"
        assert engine._single_table is table
        assert_identical(dense, delta)


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
    assert_identical(*_both_paths(design, flips, batch, states=states,
                                  knowns=knowns))
    mixed = _mixed_batch(design, 100, seed=9)
    dense, delta = _both_paths(design, mixed, 100, states=states,
                               knowns=knowns)
    assert_identical(dense, delta)
    assert (delta.injected == 0).any() and (delta.injected == 1).any()
    assert (delta.residual_errors > 0).all()


def test_single_flip_table_rebuilds_on_known_change():
    """The table depends on the known matrix: a batch under a different
    one rebuilds it, and a batch under the same one reuses it."""
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    engine = get_engine("simd", design)
    full_states, full_knowns = _pack(design)
    holed_states, holed_knowns = _punch_holes(full_states, full_knowns)
    flips, batch = _every_cell_batch(design)
    assert_identical(*_both_paths(design, flips, batch, engine=engine))
    built = engine._single_table
    assert_identical(*_both_paths(design, flips, batch,
                                  states=holed_states, knowns=holed_knowns,
                                  engine=engine))
    assert engine._single_table is not built
    assert np.array_equal(engine._single_known,
                          bits_matrix(holed_knowns, design.chain_length))
    rebuilt = engine._single_table
    assert_identical(*_both_paths(
        design, _mixed_batch(design, 64, seed=2), 64, states=holed_states,
        knowns=holed_knowns, engine=engine))
    assert engine._single_table is rebuilt
    assert_identical(*_both_paths(design, flips, batch, engine=engine))


# ----------------------------------------------------------------------
# The process-wide single-flip memo
# ----------------------------------------------------------------------
@pytest.fixture
def memo(monkeypatch):
    """An empty process-wide single-flip memo for one test."""
    fresh = {}
    monkeypatch.setattr(simd_module, "_SINGLE_FLIP_CACHE", fresh,
                        raising=False)
    return fresh


@pytest.fixture
def every_cell_passes(monkeypatch):
    """Counts the every-cell dense passes the engines run (the passes
    a single-flip table is built from)."""
    counter = {"passes": 0}
    original = SimdBatchedEngine._dense_summary

    def counted(engine, states, knowns, known_bits, flips, batch_size,
                coords=None):
        if batch_size == engine.num_chains * engine.chain_length + 1:
            counter["passes"] += 1
        return original(engine, states, knowns, known_bits, flips,
                        batch_size, coords)

    monkeypatch.setattr(SimdBatchedEngine, "_dense_summary", counted)
    return counter


def _table_of(design, states=None, knowns=None):
    """A fresh engine's single-flip table after one single-error
    batch."""
    engine = get_engine("simd", design)
    if states is None:
        states, knowns = _pack(design)
    flips = _coords_batch(design, 2, [(0, 0, 0)])
    engine.run_batch_summary(states, knowns, flips, 2)
    assert engine.last_summary_path == "delta"
    return engine._single_table


def _assert_fresh_table(design, table):
    """``table`` equals a fresh dense pass over the every-cell batch
    under the design's own state, field by field."""
    engine = get_engine("simd", design)
    states, knowns = _pack(design)
    flips, batch = _every_cell_batch(design)
    assert_identical(_dense(engine, states, knowns, flips, batch), table)


MEMO_CONFIGS = [config[1:] for config in CONFIGS] + [
    (["hamming(7,4)", "secded(8,4)"], 8, 56)]
MEMO_IDS = [config[0] for config in CONFIGS] + ["overlapping"]


@pytest.mark.parametrize("codes,num_chains,num_registers", MEMO_CONFIGS,
                         ids=MEMO_IDS)
def test_memo_hit_equals_fresh_dense_pass(memo, every_cell_passes, codes,
                                          num_chains, num_registers):
    """A second engine of the same bank (over another circuit state)
    takes the first engine's table from the memo without a pass, and
    that table equals its own fresh every-cell dense pass."""
    first = _table_of(_design(codes, num_chains, num_registers, seed=11))
    assert every_cell_passes["passes"] == 1 and len(memo) == 1
    design = _design(codes, num_chains, num_registers, seed=99)
    table = _table_of(design)
    assert table is first
    assert every_cell_passes["passes"] == 1
    for values in vars(table).values():
        assert not values.flags.writeable
    _assert_fresh_table(design, table)


def test_memo_hit_on_paper_config(memo, every_cell_passes):
    first = _table_of(_paper_design())
    design = _paper_design()
    table = _table_of(design)
    assert table is first and every_cell_passes["passes"] == 1
    _assert_fresh_table(design, table)


def test_memo_keeps_codes_and_chain_maps_apart(memo):
    """Banks over the same 8 x 7 geometry but with other codes, other
    CRC parameters or another chain map each get their own entry."""
    variants = [
        dict(codes=["hamming(7,4)", "crc16"]),
        dict(codes=["hamming(7,4)", "crc16-ccitt"]),
        dict(codes=["secded(8,4)", "crc16"]),
        dict(codes=["parity(8)", "crc16"]),
        dict(codes=["crc8"]),
        dict(codes=["hamming(7,4)", "crc16"], monitor_width=3),
    ]
    tables = []
    for variant in variants:
        circuit = make_random_state_circuit(56, seed=11)
        design = ProtectedDesign(circuit, num_chains=8, engine="simd",
                                 **variant)
        assert (design.num_chains, design.chain_length) == (8, 7)
        table = _table_of(design)
        _assert_fresh_table(design, table)
        tables.append(table)
    assert len(memo) == len(variants)
    assert len({id(table) for table in tables}) == len(variants)


def _small_campaign():
    from repro.validation.campaign import run_sharded_single_error_campaign
    return run_sharded_single_error_campaign(
        128, width=8, depth=8, num_chains=8, engine="simd",
        sampler="array", batch_size=64, chunk_size=64, executor="serial")


def test_second_campaign_runs_no_every_cell_pass(memo, every_cell_passes):
    """Each campaign builds a new bench and engine; only the first of
    two same-configuration campaigns in one process runs the pass."""
    first = _small_campaign()
    assert every_cell_passes["passes"] == 1
    assert _small_campaign() == first
    assert every_cell_passes["passes"] == 1


def test_emptying_the_memo_forces_a_rebuild(memo, every_cell_passes):
    first = _small_campaign()
    memo.clear()
    assert _small_campaign() == first
    assert every_cell_passes["passes"] == 2


def test_subclassed_code_is_not_memoised(memo, every_cell_passes):
    """A code subclass may change the defining equations, so a bank
    holding one keeps its table per engine only."""
    from repro.codes.crc import CRCCode

    class _SubclassedCRC(CRCCode):
        pass

    def design():
        circuit = make_random_state_circuit(56, seed=11)
        return ProtectedDesign(
            circuit, codes=["hamming(7,4)", _SubclassedCRC(16, 0x8005)],
            num_chains=8, engine="simd")

    first = _table_of(design())
    second = _table_of(design())
    assert not memo
    assert first is not second and every_cell_passes["passes"] == 2
    assert_identical(first, second)


def test_memo_is_bounded(memo):
    """One entry per known matrix, and never more than the bound."""
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    full_states, full_knowns = _pack(design)
    for chain in range(simd_module._SINGLE_FLIP_ENTRIES + 2):
        knowns = list(full_knowns)
        knowns[chain % 8] &= ~(1 << (chain // 8))
        states = [s & k for s, k in zip(full_states, knowns)]
        _table_of(design, states, knowns)
    assert len(memo) == simd_module._SINGLE_FLIP_ENTRIES


@pytest.fixture
def stream_rows_memo(monkeypatch):
    """An empty process-wide CRC stream-row memo for one test."""
    fresh = {}
    monkeypatch.setattr(simd_module, "_STREAM_ROWS_CACHE", fresh)
    return fresh


def test_engines_share_stream_rows(stream_rows_memo):
    """Two engines of one configuration share the read-only CRC rows
    and return identical summary arrays; a different chain length
    gets rows of its own."""
    first = _design(["hamming(7,4)", "crc16"], 8, 56)
    second = _design(["hamming(7,4)", "crc16"], 8, 56)
    engines = [SimdBatchedEngine(d.monitor_bank, d.num_chains,
                                 d.chain_length) for d in (first, second)]
    (one,), (two,) = (engine._observing for engine in engines)
    assert one.rows_flat is two.rows_flat
    assert one.const_idx is two.const_idx
    assert len(stream_rows_memo) == 1
    assert not any(row.flags.writeable for row in one.rows_flat)
    flips = sample_pattern_batch("multiple", 8, first.chain_length, 33,
                                 np.random.default_rng(4), num_errors=3)
    states, knowns = _pack(first)
    assert_identical(engines[0].run_batch_summary(states, knowns, flips, 33),
                     engines[1].run_batch_summary(states, knowns, flips, 33))

    other = _design(["hamming(7,4)", "crc16"], 8, 64)
    SimdBatchedEngine(other.monitor_bank, other.num_chains,
                      other.chain_length)
    assert len(stream_rows_memo) == 2
