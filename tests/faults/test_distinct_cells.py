"""The multi-error sampler's exactness contract.

``_distinct_cells`` draws its keys in row blocks and ranks only the
candidates below a threshold, but must select exactly what one
full-matrix ``rng.random((B, P))`` + ``argpartition`` draw selects --
ties included -- consume exactly the same doubles, and return every
row sorted.  The oracle below is that full-matrix selection.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.faults.batch import (  # noqa: E402
    _KEY_BLOCK_ROWS,
    _distinct_cells,
    sample_pattern_batch,
)

BLOCK = _KEY_BLOCK_ROWS
BATCHES = (1, 63, BLOCK - 1, BLOCK, BLOCK + 1, 4101)
SHAPES = ((2, 1), (11, 3), (40, 39), (1040, 1), (1040, 10))


def _oracle(rng, batch_size, population, draws):
    """The full-matrix random-key selection, rows sorted for
    comparison."""
    keys = rng.random((batch_size, population))
    chosen = np.argpartition(keys, draws - 1, axis=1)[:, :draws]
    return np.sort(chosen, axis=1)


class _StubGenerator:
    """A generator whose keys force the sampler's fallbacks.

    Keys are the real generator's, quantised to ``levels`` values
    (ties everywhere), and every third row (by its index in the whole
    stream, so block draws see the keys one big draw sees) is lifted
    above the candidate threshold except for its first ``row % 7``
    columns -- rows with fewer candidates than draws.
    """

    def __init__(self, seed, levels):
        self._rng = np.random.default_rng(seed)
        self._levels = levels
        self._row = 0
        self.bit_generator = self._rng.bit_generator

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
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("batch_size", BATCHES)
@pytest.mark.parametrize("population,draws", SHAPES)
def test_matches_full_matrix_selection(batch_size, population, draws):
    seed = batch_size * 7919 + population * 31 + draws
    _assert_exact(lambda: np.random.default_rng(seed), batch_size,
                  population, draws)


@pytest.mark.parametrize("levels", (8, 50, 300))
@pytest.mark.parametrize("population,draws", SHAPES)
def test_ties_and_deficient_rows_match(levels, population, draws):
    _assert_exact(lambda: _StubGenerator(levels, levels), BLOCK + 9,
                  population, draws)


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
