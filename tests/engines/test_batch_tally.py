"""Property suite: a batch's counters are its ``tally()``, and the
single-flip table's histogram tally equals the arrays it stands for.

``StreamingCampaignStats.add_batch`` and
``StreamingCampaignResult.add_batch`` fold one
:class:`~repro.engines.base.BatchTally` per batch.  A dense batch
reduces its arrays; a batch the simd engine answers from its
single-flip table tallies one histogram of its table rows times the
table's tally matrix and gathers its per-sequence arrays only when
they are read.  For every pattern kind of both samplers, both inject
phases, a geometry with unknown (X) cells, short batches and
caller-built unsorted or repeated single flips, the table-path tally
must equal the tally of its eagerly gathered arrays and the dense
pass's tally of the same batch; the lazily read arrays must equal the
eager table gather and the dense pass, and writing to one must leave
the frozen table alone.  The exact single-error counters of the paper
FIFO are pinned here too: its every-cell histogram through the tally
matrix.  Only the single-error sampler's batches carry the
one-flip-per-sequence mark that lets the engine skip re-proving their
sequence order; every caller-built batch is proved as before.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.campaigns.stats import StreamingCampaignResult      # noqa: E402
from repro.circuit.fifo import SyncFIFO                         # noqa: E402
from repro.core.controller import ControllerState               # noqa: E402
from repro.circuit.generators import make_random_state_circuit  # noqa: E402
from repro.core.protected import ProtectedDesign                # noqa: E402
from repro.engines.base import BatchOutcomeArrays, BatchTally   # noqa: E402
from repro.engines.packing import pack_chains                   # noqa: E402
from repro.faults import batch as batch_module                  # noqa: E402
from repro.faults.batch import PatternBatch, sample_pattern_batch  # noqa: E402
from repro.faults.patterns import (                             # noqa: E402
    burst_error_pattern,
    multi_error_pattern,
    single_error_pattern,
)

FIELDS = ("injected", "detected", "uncorrectable", "residual_errors",
          "corrections_applied")
KINDS = ("single", "burst", "multiple", "none")
CODES = ["hamming(7,4)", "crc16"]


def _design(codes=CODES, num_chains=8, num_registers=56, seed=11):
    circuit = make_random_state_circuit(num_registers, seed=seed)
    return ProtectedDesign(circuit, codes=list(codes),
                           num_chains=num_chains, engine="simd",
                           lfsr_seed=5)


def _snapshot(design, holes):
    """The design's packed state; with ``holes``, a few unknown cells on
    every third chain."""
    states, knowns = (list(values) for values in pack_chains(design.chains))
    if holes:
        for chain in range(0, len(knowns), 3):
            knowns[chain] &= ~0b1001
            states[chain] &= knowns[chain]
    return states, knowns


def _scalar_batch(kind, design, batch_size, seed):
    """One scalar-sampler pattern per sequence, as a batched campaign
    on the scalar sampler draws them."""
    rng = random.Random(seed)
    chains, length = design.num_chains, design.chain_length
    factory = {
        "single": lambda: single_error_pattern(chains, length, rng),
        "burst": lambda: burst_error_pattern(chains, length, 4, rng),
        "multiple": lambda: multi_error_pattern(chains, length, 4, rng),
        "none": lambda: None,
    }[kind]
    return PatternBatch.from_patterns([factory() for _ in range(batch_size)],
                                      chains, length)


def _array_batch(kind, design, batch_size, seed):
    return sample_pattern_batch(kind, design.num_chains, design.chain_length,
                                batch_size, np.random.default_rng(seed),
                                num_errors=4)


SAMPLERS = {"scalar": _scalar_batch, "array": _array_batch}


def _eager(arrays):
    """The same batch as plain arrays (every field read and copied)."""
    return BatchOutcomeArrays(**{name: np.array(getattr(arrays, name))
                                 for name in FIELDS})


def _dense(design, snapshot, flips, batch_size):
    engine = design._resolve_engine()
    states, knowns = snapshot
    return engine._dense_summary(states, knowns,
                                 engine._known_matrix(knowns), flips,
                                 batch_size)


def _assert_fields_equal(left, right):
    for name in FIELDS:
        assert np.array_equal(getattr(left, name), getattr(right, name)), \
            name


def _check_batch(design, snapshot, flips, batch_size, phase="sleep"):
    """Run ``flips`` through the design's summary cycle and hold its
    tally and fields against the eager and dense forms; returns the
    outcome and the path the engine took."""
    arrays = design.sleep_wake_cycle_batch_summary(
        snapshot, flips, batch_size, inject_phase=phase)
    path = design._resolve_engine().last_summary_path
    tally = arrays.tally()
    dense = _dense(design, snapshot, flips, batch_size)
    assert isinstance(tally, BatchTally)
    assert all(type(count) is int for count in tally)
    assert tally == dense.tally()
    _assert_fields_equal(arrays, dense)
    assert tally == _eager(arrays).tally()
    assert arrays.alarms() == dense.alarms()
    assert arrays.batch_size == batch_size
    return arrays, path


@pytest.mark.parametrize("holes", (False, True), ids=("known", "x_holes"))
@pytest.mark.parametrize("phase", ("sleep", "post_wake"))
@pytest.mark.parametrize("batch_size", (1, 61, 64))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_tally_equals_eager_and_dense(sampler, kind, batch_size, phase,
                                      holes):
    design = _design()
    snapshot = _snapshot(design, holes)
    flips = SAMPLERS[sampler](kind, design, batch_size, seed=batch_size)
    arrays, path = _check_batch(design, snapshot, flips, batch_size, phase)
    assert path == ("delta" if kind in ("single", "none") else "dense")
    if path == "delta":
        assert tally_path_is_lazy(arrays)


def tally_path_is_lazy(arrays):
    """A table-path outcome carries rows, not arrays: each field comes
    into being on first read."""
    fresh = type(arrays)(arrays._table, arrays._matrix, arrays._rows)
    fresh.tally()
    return not any(name in vars(fresh) for name in FIELDS)


@pytest.mark.parametrize("holes", (False, True), ids=("known", "x_holes"))
def test_caller_built_unsorted_and_repeated_single_flips(holes):
    """Sequences out of order, a repeated (sequence, cell) pair, a
    sequence whose second flip lands on an unknown cell (gated out in
    the holed geometry), and clean sequences: the engine resolves the
    batch's coordinates and still answers from the table."""
    design = _design()
    snapshot = _snapshot(design, holes)
    flips = [(5, 2, 3), (1, 0, 4), (1, 0, 4), (7, 6, 1), (0, 4, 0),
             (4, 7, 6)]
    if holes:
        flips.append((4, 0, 0))  # chain 0, position 0 is unknown
    seqs, chains, positions = (np.array(axis, dtype=np.int64)
                               for axis in zip(*flips))
    batch = PatternBatch(design.num_chains, design.chain_length, 9,
                         "single", seqs, chains, positions)
    arrays, path = _check_batch(design, snapshot, batch, 9)
    assert path == "delta"
    assert arrays.tally().injected == 5
    assert list(arrays.injected) == [1, 1, 0, 0, 1, 1, 0, 1, 0]


def test_increasing_single_flips_skip_the_coordinate_resolver(monkeypatch):
    """A sampled single-error batch (sequences strictly increasing) and
    a partial one (clean sequences in between) take their table rows
    straight from the batch: ``pattern_batch_coords`` is not called."""
    calls = []
    original = batch_module.pattern_batch_coords

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(batch_module, "pattern_batch_coords", counted)
    design = _design()
    snapshot = _snapshot(design, holes=True)
    sampled = _array_batch("single", design, 64, seed=3)
    partial = PatternBatch.from_cells(
        design.num_chains, design.chain_length, 64, "single",
        np.arange(0, 64, 3, dtype=np.int64),
        np.arange(0, 64, 3, dtype=np.int64) % 56)
    engine = design._resolve_engine()
    for flips in (sampled, partial):
        design.sleep_wake_cycle_batch_summary(snapshot, flips, 64)
        assert engine.last_summary_path == "delta"
    assert calls == []
    _check_batch(design, snapshot, partial, 64)


def test_lazy_fields_equal_the_table_gather_and_write_safely():
    """Each lazily read field equals the eager gather the table path
    made before it tallied (rows from the gated coordinates, unknown
    flips on the zero-flip row, ``injected`` the effective counts);
    writing to it leaves the frozen table -- and so every later batch
    -- untouched."""
    design = _design()
    snapshot = _snapshot(design, holes=True)
    engine = design._resolve_engine()
    flips = _array_batch("single", design, 100, seed=8)
    arrays = engine.run_batch_summary(*snapshot, flips, 100)
    table = engine._single_table
    before = _eager(table)
    seqs, cells, counts = batch_module.pattern_batch_coords(
        flips, engine._known_matrix(snapshot[1]), 100)
    assert 0 < len(cells) < 100  # some flips land on unknown cells
    rows = np.full(100, len(table.injected) - 1)
    rows[seqs] = cells
    eager = dict({name: getattr(table, name)[rows] for name in FIELDS},
                 injected=counts)
    for name in FIELDS:
        gathered = eager[name]
        value = getattr(arrays, name)
        assert np.array_equal(value, gathered), name
        assert value is getattr(arrays, name)  # gathered once
        assert value.flags.writeable
        value[...] = 0
    _assert_fields_equal(table, before)
    again = engine.run_batch_summary(*snapshot, flips, 100)
    _assert_fields_equal(again, _dense(design, snapshot, flips, 100))
    # The tally was taken from the rows, not from the edited arrays.
    assert again.tally() == arrays.tally()
    assert arrays.tally() != _eager(arrays).tally()


def test_tally_matrix_is_frozen_and_memoised_with_its_table():
    design = _design()
    engine = design._resolve_engine()
    snapshot = _snapshot(design, holes=False)
    engine.run_batch_summary(*snapshot, _array_batch("single", design, 8, 1),
                             8)
    matrix = engine._single_matrix
    assert matrix.dtype == np.int64 and not matrix.flags.writeable
    assert matrix.shape == (len(engine._single_table.injected),
                            len(BatchTally._fields) - 1)
    other = _design()._resolve_engine()
    other.run_batch_summary(*snapshot, _array_batch("single", design, 8, 2),
                            8)
    assert other._single_table is engine._single_table
    assert other._single_matrix is matrix


def test_paper_fifo_every_cell_histogram_is_exact():
    """The exact single-error counters by enumeration: every cell of the
    paper FIFO (32x32, 80 chains, Hamming(7,4) + CRC-16) once, counted
    through the tally matrix: 1 040 injected, detected and corrected."""
    fifo = SyncFIFO(32, 32, name="fifo32x32")
    design = ProtectedDesign(fifo, codes=CODES, num_chains=80,
                             engine="simd", lfsr_seed=7)
    engine = design._resolve_engine()
    states, knowns = (list(values) for values in pack_chains(design.chains))
    engine.run_batch_summary(states, knowns,
                             _array_batch("single", design, 1, 0), 1)
    matrix = engine._single_matrix
    num_cells = design.num_chains * design.chain_length
    assert num_cells == 1040
    counts = np.bincount(np.arange(num_cells), minlength=len(matrix))
    tally = BatchTally.from_sums(num_cells, (counts @ matrix).tolist())
    assert tally == BatchTally(
        sequences=1040, injected=1040, residual_errors=0, detected=1040,
        uncorrectable=0, intact=1040, corrected=1040, with_errors=1040,
        detected_with_errors=1040, silent=0, inconsistent=0)
    result = StreamingCampaignResult()
    result.stats._add_tally(tally)
    assert result.stats.correction_rate() == 1.0


def test_only_the_single_sampler_marks_its_batches():
    """The single-error sampler's batch is marked one flip per sequence
    and its ``seqs`` are read-only; no other sampler kind, constructor
    or conversion marks a batch, even one with identical arrays."""
    design = _design()
    chains, length = design.num_chains, design.chain_length
    for kind in KINDS:
        flips = _array_batch(kind, design, 40, seed=2)
        assert flips.one_per_sequence is (kind == "single"), kind
    sampled = _array_batch("single", design, 40, seed=2)
    assert not sampled.seqs.flags.writeable
    with pytest.raises(ValueError):
        sampled.seqs[0] = 1
    with pytest.raises(AttributeError):
        sampled.one_per_sequence = False
    twins = (
        PatternBatch.from_cells(chains, length, 40, "single",
                                np.arange(40, dtype=np.int64),
                                np.array(sampled.cells)),
        PatternBatch(chains, length, 40, "single",
                     np.arange(40, dtype=np.int64),
                     np.array(sampled.chains), np.array(sampled.positions)),
        PatternBatch.from_patterns(sampled.patterns(), chains, length),
        _scalar_batch("single", design, 40, seed=2),
    )
    for twin in twins:
        assert not twin.one_per_sequence
    assert np.array_equal(twins[2].seqs, sampled.seqs)
    # The mark asserts B flips; a batch of any other length is refused.
    with pytest.raises(ValueError, match="needs 40 flips"):
        PatternBatch.from_cells(chains, length, 40, "single",
                                np.arange(39, dtype=np.int64),
                                np.zeros(39, dtype=np.int64),
                                one_per_sequence=True)


@pytest.mark.parametrize("holes", (False, True), ids=("known", "x_holes"))
def test_marked_batches_skip_the_order_scan(monkeypatch, holes):
    """The engine trusts a marked batch's order and scans every unmarked
    one: ``_increasing`` runs for caller-built twins with identical
    arrays (including ``from_patterns`` of the sampled patterns) and
    never for the sampled batch, and all of them give the same
    verdicts, equal to the dense pass."""
    calls = []
    original = batch_module._increasing

    def counted(values):
        calls.append(len(values))
        return original(values)

    monkeypatch.setattr(batch_module, "_increasing", counted)
    design = _design()
    snapshot = _snapshot(design, holes)
    engine = design._resolve_engine()
    sampled = _array_batch("single", design, 64, seed=5)
    arrays = design.sleep_wake_cycle_batch_summary(snapshot, sampled, 64)
    assert engine.last_summary_path == "delta"
    assert calls == []
    _check_batch(design, snapshot, sampled, 64)
    twins = (
        PatternBatch.from_cells(design.num_chains, design.chain_length, 64,
                                "single", np.arange(64, dtype=np.int64),
                                np.array(sampled.cells)),
        PatternBatch.from_patterns(sampled.patterns(), design.num_chains,
                                   design.chain_length),
    )
    for twin in twins:
        calls.clear()
        twin_arrays = design.sleep_wake_cycle_batch_summary(snapshot, twin,
                                                            64)
        assert engine.last_summary_path == "delta"
        assert calls == [64]
        _assert_fields_equal(twin_arrays, arrays)
        assert twin_arrays.tally() == arrays.tally()


@pytest.mark.parametrize("bad", ("past_end", "negative"))
def test_marked_batch_cells_are_still_range_checked(bad):
    """The mark waives only the ``seqs`` scan: a marked batch with a cell
    outside the scan array fails validation before the controller
    leaves ACTIVE, and a good one runs afterwards."""
    design = _design()
    num_cells = design.num_chains * design.chain_length
    cells = np.arange(8, dtype=np.int64)
    cells[3] = num_cells if bad == "past_end" else -1
    seqs = np.arange(8, dtype=np.int64)
    batch = PatternBatch.from_cells(design.num_chains, design.chain_length,
                                    8, "single", seqs, cells,
                                    one_per_sequence=True)
    snapshot = design._pack_chains()
    with pytest.raises(ValueError, match="outside"):
        design.sleep_wake_cycle_batch_summary(snapshot, batch, 8)
    assert design.controller.state is ControllerState.ACTIVE
    good = _array_batch("single", design, 8, seed=1)
    design.sleep_wake_cycle_batch_summary(snapshot, good, 8)
    assert design.controller.state is ControllerState.ACTIVE
