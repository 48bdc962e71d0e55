"""Properties of the vectorised pattern sampler (faults.batch)."""

import pytest

np = pytest.importorskip("numpy")

from repro.faults.batch import (  # noqa: E402
    PatternBatch,
    coords_scatter,
    pattern_batch_coords,
    sample_pattern_batch,
)

KINDS = ("single", "burst", "multiple", "none")


def _sample(kind, num_chains=8, chain_length=13, batch=37, seed=20100308,
            num_errors=4):
    rng = np.random.default_rng(seed)
    return sample_pattern_batch(kind, num_chains, chain_length, batch, rng,
                                num_errors=num_errors)


@pytest.mark.parametrize("kind", KINDS)
def test_sampler_is_deterministic(kind):
    """Equal generator seeds give flip-for-flip equal batches."""
    a = _sample(kind)
    b = _sample(kind)
    assert np.array_equal(a.seqs, b.seqs)
    assert np.array_equal(a.chains, b.chains)
    assert np.array_equal(a.positions, b.positions)


@pytest.mark.parametrize("kind", KINDS)
def test_sampler_coordinates_are_valid(kind):
    """Coordinates stay inside the scan array, sequences inside the
    batch, and each sequence's cells are distinct (set semantics)."""
    batch = _sample(kind, batch=29)
    assert ((batch.chains >= 0) & (batch.chains < 8)).all()
    assert ((batch.positions >= 0) & (batch.positions < 13)).all()
    assert ((batch.seqs >= 0) & (batch.seqs < 29)).all()
    cells = set()
    for b, c, p in zip(batch.seqs.tolist(), batch.chains.tolist(),
                       batch.positions.tolist()):
        assert (b, c, p) not in cells, "duplicate cell within a sequence"
        cells.add((b, c, p))


def test_flip_counts_per_kind():
    """single -> 1 flip/sequence, burst/multiple -> num_errors,
    none -> 0."""
    assert np.array_equal(np.bincount(_sample("single", batch=11).seqs,
                                      minlength=11), np.ones(11))
    for kind in ("burst", "multiple"):
        counts = np.bincount(_sample(kind, batch=11, num_errors=5).seqs,
                             minlength=11)
        assert np.array_equal(counts, np.full(11, 5))
    assert _sample("none").num_flips == 0


def test_burst_is_clustered():
    """Burst flips of one sequence stay inside the scalar factory's
    adjacent-chain window geometry."""
    batch = _sample("burst", num_chains=10, chain_length=16, batch=40,
                    num_errors=4)
    window_chains, window_positions = 4, 1
    for b in range(40):
        mask = batch.seqs == b
        chains = batch.chains[mask]
        positions = batch.positions[mask]
        assert chains.max() - chains.min() < window_chains
        assert positions.max() - positions.min() < window_positions


def _coordinates(batch):
    return sorted(zip(batch.seqs.tolist(), batch.chains.tolist(),
                      batch.positions.tolist()))


def test_views_are_lossless():
    """patterns() and from_patterns() are inverses: the round trip
    gives back exactly the sampled coordinates and kind."""
    for kind in KINDS:
        batch = _sample(kind, batch=21)
        patterns = batch.patterns()
        rebuilt = PatternBatch.from_patterns(patterns, 8, 13)
        assert _coordinates(rebuilt) == _coordinates(batch)
        assert (rebuilt.num_chains, rebuilt.chain_length,
                rebuilt.batch_size) == (8, 13, 21)
        assert rebuilt.kind == kind
        assert len(patterns) == 21
        if kind == "none":
            assert patterns == [None] * 21
        else:
            assert all(p is not None and p.kind == kind for p in patterns)


def test_full_window_burst_and_exhaustive_multiple():
    """Degenerate draws-equal-population cases stay valid."""
    batch = _sample("multiple", num_chains=2, chain_length=3, batch=5,
                    num_errors=6)
    assert np.array_equal(np.bincount(batch.seqs, minlength=5),
                          np.full(5, 6))
    for b in range(5):
        mask = batch.seqs == b
        cells = set(zip(batch.chains[mask].tolist(),
                        batch.positions[mask].tolist()))
        assert len(cells) == 6


def test_scatter_collapses_duplicate_coordinates():
    """A caller-built batch repeating a (sequence, cell) pair counts
    and flips the cell once -- the set semantics of ErrorPattern, and
    what the patterns() view produces."""
    batch = PatternBatch(4, 8, 2, "multiple",
                         np.array([0, 0, 1]), np.array([1, 1, 2]),
                         np.array([3, 3, 5]))
    known_bits = np.ones((4, 8), dtype=bool)
    cells, masks, counts = coords_scatter(
        pattern_batch_coords(batch, known_bits, 2), 4, 8, 2)
    assert counts.tolist() == [1, 1]
    assert (cells.tolist(), masks.tolist()) == \
        ([1 * 8 + 3, 2 * 8 + 5], [[0b01], [0b10]])
    assert [p.locations for p in batch.patterns()] == \
        [frozenset({(1, 3)}), frozenset({(2, 5)})]


def test_sampler_rejects_bad_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_pattern_batch("single", 0, 4, 2, rng)
    with pytest.raises(ValueError):
        sample_pattern_batch("single", 4, 4, 0, rng)
    with pytest.raises(ValueError):
        sample_pattern_batch("multiple", 2, 2, 2, rng, num_errors=5)
    with pytest.raises(ValueError):
        sample_pattern_batch("burst", 2, 2, 2, rng, num_errors=0)
    with pytest.raises(ValueError):
        sample_pattern_batch("typo", 4, 4, 2, rng)
