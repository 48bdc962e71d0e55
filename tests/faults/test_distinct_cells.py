"""The multi-error sampler's exactness contract.

``_distinct_cells`` draws its keys in row blocks -- split into row
ranges drawn on parallel threads on a multi-core host -- and ranks only
the candidates below a threshold, but must select exactly what one
full-matrix ``rng.random((B, P))`` + ``argpartition`` draw selects --
ties included -- leave the generator in exactly the same state, and
return every row sorted.  The oracle below is that full-matrix
selection.  Tests that pin a split count replace the private
``_split_parts`` hook, so they run the same on any number of cores.
"""

import multiprocessing
import sys
import threading

import pytest

np = pytest.importorskip("numpy")

from repro.faults import batch as batch_module  # noqa: E402
from repro.faults.batch import (  # noqa: E402
    _KEY_BLOCK_ROWS,
    _MAX_SPLIT_PARTS,
    _distinct_cells,
    _split_parts,
    sample_pattern_batch,
)

BLOCK = _KEY_BLOCK_ROWS
BATCHES = (1, 63, BLOCK - 1, BLOCK, BLOCK + 1, 4101)
SHAPES = ((2, 1), (11, 3), (40, 39), (1040, 1), (1040, 10))
_range_generator = batch_module._range_generator


def _oracle(rng, batch_size, population, draws):
    """The full-matrix random-key selection, rows sorted for
    comparison."""
    keys = rng.random((batch_size, population))
    chosen = np.argpartition(keys, draws - 1, axis=1)[:, :draws]
    return np.sort(chosen, axis=1)


@pytest.fixture
def split(monkeypatch):
    """``split(parts)`` pins the number of row ranges."""
    def pin(parts):
        monkeypatch.setattr(batch_module, "_split_parts",
                            lambda rng, batch_size, population: parts)
    return pin


class _StubGenerator:
    """A generator whose keys force the sampler's fallbacks.

    Keys are the real generator's, quantised to ``levels`` values
    (ties everywhere), and every third row (by its index in the whole
    stream, so block and range draws see the keys one big draw sees)
    is lifted above the candidate threshold except for its first
    ``row % 7`` columns -- rows with fewer candidates than draws.
    :meth:`fork` stands in for the sampler's ``_range_generator`` hook,
    so split draws see the same keys.
    """

    def __init__(self, rng, levels, row=0):
        self._rng = rng
        self._levels = levels
        self._row = row
        self.bit_generator = rng.bit_generator

    def fork(self, rows, population):
        """The stub a row range starting ``rows`` rows on draws from."""
        return _StubGenerator(_range_generator(self._rng, rows, population),
                              self._levels, self._row + rows)

    def random(self, size=None, out=None):
        """``Generator.random``'s ``size`` and ``out`` forms, writing the
        same keys either way."""
        shape = size if out is None else out.shape
        rows, population = shape
        keys = np.floor(self._rng.random(shape) * self._levels) \
            / self._levels
        for r in range(rows):
            row = self._row + r
            if row % 3 == 0:
                keys[r, row % 7:] = 0.5 + keys[r, row % 7:] / 2
        self._row += rows
        if out is None:
            return keys
        out[...] = keys
        return out


def _assert_exact(make_rng, batch_size, population, draws):
    rng, oracle_rng = make_rng(), make_rng()
    got = _distinct_cells(rng, batch_size, population, draws)
    expected = _oracle(oracle_rng, batch_size, population, draws)
    assert got.shape == (batch_size, draws)
    assert got.dtype == np.int64
    assert (np.diff(got, axis=1) > 0).all()  # rows sorted, distinct
    np.testing.assert_array_equal(got, expected)
    # assert_equal: MT19937 states hold an ndarray key.
    np.testing.assert_equal(rng.bit_generator.state,
                            oracle_rng.bit_generator.state)


def _after_32bit_draw(seed, bit_generator=np.random.PCG64):
    """A generator holding a buffered 32-bit half-word."""
    rng = np.random.Generator(bit_generator(seed))
    rng.integers(0, 7, size=3, dtype=np.int64)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


@pytest.mark.parametrize("batch_size", BATCHES)
@pytest.mark.parametrize("population,draws", SHAPES)
def test_matches_full_matrix_selection(batch_size, population, draws):
    seed = batch_size * 7919 + population * 31 + draws
    _assert_exact(lambda: np.random.default_rng(seed), batch_size,
                  population, draws)


@pytest.mark.parametrize("parts", (1, 2, 3))
@pytest.mark.parametrize("levels", (8, 50, 300))
@pytest.mark.parametrize("population,draws", SHAPES)
def test_ties_and_deficient_rows_match(levels, population, draws, parts,
                                       split, monkeypatch):
    split(parts)
    monkeypatch.setattr(batch_module, "_range_generator",
                        lambda rng, rows, population: rng.fork(rows,
                                                               population))
    _assert_exact(
        lambda: _StubGenerator(np.random.default_rng(levels), levels),
        BLOCK + 9, population, draws)


@pytest.mark.parametrize("parts", (1, 2, 3, 4))
@pytest.mark.parametrize("batch_size", (4101, 4096, 1025))
def test_any_split_count_gives_the_same_cells_and_state(batch_size, parts,
                                                        split):
    split(parts)
    _assert_exact(lambda: np.random.default_rng(batch_size), batch_size,
                  1040, 10)
    _assert_exact(lambda: _after_32bit_draw(batch_size), batch_size,
                  1040, 10)


def test_many_ranges_under_rapid_thread_switching(split):
    """More ranges than cores, switching threads every microsecond:
    the ranges write disjoint slices, so nothing is lost or shifted."""
    split(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _assert_exact(lambda: _after_32bit_draw(17), 4099, 1040, 10)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("parts", (None, 2, 3))
def test_split_carries_the_32bit_buffer(parts, split):
    """``advance`` clears the buffered 32-bit half-word; the split must
    hand it back, or the next bounded 32-bit draw shifts."""
    if parts is not None:
        split(parts)
    for bit_generator in (np.random.PCG64, np.random.PCG64DXSM):
        rng = _after_32bit_draw(11, bit_generator)
        oracle_rng = _after_32bit_draw(11, bit_generator)
        np.testing.assert_array_equal(
            _distinct_cells(rng, 4096, 1040, 10),
            _oracle(oracle_rng, 4096, 1040, 10))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        np.testing.assert_array_equal(
            rng.integers(0, 7, size=5, dtype=np.int64),
            oracle_rng.integers(0, 7, size=5, dtype=np.int64))


def test_split_burst_batches_continue_the_stream(split, monkeypatch):
    """Two burst batches in a row: the window offsets are bounded
    32-bit draws, so a lost half-word would shift the second batch."""
    split(2)
    rng, oracle_rng = _after_32bit_draw(13), _after_32bit_draw(13)
    got = [sample_pattern_batch("burst", 80, 13, 4096, rng, num_errors=100)
           for _ in range(2)]
    monkeypatch.setattr(batch_module, "_distinct_cells", _oracle)
    expected = [sample_pattern_batch("burst", 80, 13, 4096, oracle_rng,
                                     num_errors=100)
                for _ in range(2)]
    for batch, reference in zip(got, expected):
        for name in ("seqs", "chains", "positions"):
            np.testing.assert_array_equal(getattr(batch, name),
                                          getattr(reference, name))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("failing_thread", ("helper", "caller"))
def test_range_errors_propagate_and_leave_no_thread(failing_thread, split,
                                                    monkeypatch):
    split(3)
    real = batch_module._smallest_keys
    main = threading.main_thread()

    def faulty(keys, draws, threshold, out):
        on_helper = threading.current_thread() is not main
        if on_helper == (failing_thread == "helper"):
            raise RuntimeError("range failed")
        real(keys, draws, threshold, out)

    monkeypatch.setattr(batch_module, "_smallest_keys", faulty)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="range failed"):
        _distinct_cells(np.random.default_rng(0), 4096, 1040, 10)
    assert threading.active_count() == before


def test_generators_without_advance_run_unsplit():
    """MT19937 has no ``advance``, so no range can start mid-stream: it
    runs as one range and stays exact."""
    def make():
        return np.random.Generator(np.random.MT19937(5))
    assert _split_parts(make(), 4096, 1040) == 1
    _assert_exact(make, 4096, 1040, 10)


def test_split_count_follows_cores_batch_and_population(monkeypatch):
    monkeypatch.setattr(batch_module, "_usable_cores", lambda: 4)
    rng = np.random.default_rng(0)
    assert _MAX_SPLIT_PARTS == 2
    assert _split_parts(rng, 4096, 1040) == 2   # capped below 4 cores
    assert _split_parts(rng, 4096, 272) == 2   # 2 x 2**19 keys
    assert _split_parts(rng, 256, 1040) == 1   # under 2**19 keys
    assert _split_parts(rng, 10 ** 6, 12) == 1  # blocks too small
    monkeypatch.setattr(batch_module.multiprocessing, "parent_process",
                        lambda: object())
    assert _split_parts(rng, 4096, 1040) == 1   # a pool worker


def test_one_core_runs_unsplit(monkeypatch):
    monkeypatch.setattr(batch_module, "_usable_cores", lambda: 1)
    assert _split_parts(np.random.default_rng(0), 4096, 1040) == 1


def _child_split_parts(queue):
    queue.put(_split_parts(np.random.default_rng(0), 4096, 1040))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_multiprocessing_children_run_unsplit(monkeypatch):
    """A process pool already uses the cores: its workers draw one
    range, so ``N`` workers never start ``N x parts`` threads."""
    monkeypatch.setattr(batch_module, "_usable_cores", lambda: 4)
    assert _split_parts(np.random.default_rng(0), 4096, 1040) == 2
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_child_split_parts, args=(queue,))
    child.start()
    try:
        assert queue.get(timeout=60) == 1
    finally:
        child.join()
    assert child.exitcode == 0


@pytest.mark.parametrize("batch_size", (1, BLOCK + 1))
def test_draws_equal_to_population_take_every_cell(batch_size):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    got = _distinct_cells(rng, batch_size, 6, 6)
    assert got.tolist() == [list(range(6))] * batch_size
    assert rng.bit_generator.state == state  # no keys drawn


def test_more_draws_than_population_raise():
    with pytest.raises(ValueError, match="distinct errors"):
        _distinct_cells(np.random.default_rng(0), 4, 3, 4)


def test_sampled_multi_error_keys_strictly_increase():
    """Sorted rows make a sampled batch's (sequence, cell) keys strictly
    increasing -- what lets the scatter resolver skip its dedup."""
    for kind in ("multiple", "burst"):
        batch = sample_pattern_batch(kind, 80, 13, 700,
                                     np.random.default_rng(5),
                                     num_errors=10)
        flips = (batch.seqs * 80 + batch.chains) * 13 + batch.positions
        assert (np.diff(flips) > 0).all()
