"""The PatternBatch resolvers against a pure-Python oracle.

``pattern_batch_coords`` (flat coordinates for the single-flip
table), ``coords_scatter`` over them (word masks for the dense XOR
scatter) and ``pattern_batch_csr`` (row-pointer slices for the fused
kernels)
must each describe exactly the injection the oracle folds from
``PatternBatch.patterns()`` and the chains' known masks: flips on
unknown cells dropped, repeated (sequence, cell) pairs counted once,
and per-sequence counts of the surviving flips.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.engines.summary import bits_matrix  # noqa: E402
from repro.faults.batch import (  # noqa: E402
    PatternBatch,
    coords_scatter,
    pattern_batch_coords,
    pattern_batch_csr,
    sample_pattern_batch,
)
from repro.faults.patterns import (  # noqa: E402
    burst_error_pattern,
    multi_error_pattern,
    random_pattern,
)

NUM_CHAINS = 6
LENGTH = 8
KINDS = ("single", "burst", "multiple", "none")


def _oracle(batch, knowns):
    """``({cell: {sequences}}, counts)`` of the effective flips, folded
    one pattern at a time (the pattern's location set dedups repeated
    coordinates; the known mask gates each cell)."""
    cells = {}
    counts = [0] * batch.batch_size
    for b, pattern in enumerate(batch.patterns()):
        if pattern is None:
            continue
        for chain, position in pattern.locations:
            if (knowns[chain] >> position) & 1:
                cells.setdefault((chain, position), set()).add(b)
                counts[b] += 1
    return cells, counts


def _knowns(with_unknowns):
    knowns = [(1 << LENGTH) - 1] * NUM_CHAINS
    if with_unknowns:
        knowns[1] &= ~0b1010
        knowns[4] &= ~0b1
    return knowns


def _batch(kind, batch_size, with_duplicates, seed, in_order=False):
    """A sampled batch; optionally re-append some of its flips, as a
    caller-built batch repeating (sequence, cell) pairs would, and
    optionally sort the flips by (sequence, chain, position) -- unique
    keys then arrive strictly increasing, repeated ones as equal
    neighbours."""
    rng = np.random.default_rng(seed)
    batch = sample_pattern_batch(kind, NUM_CHAINS, LENGTH, batch_size, rng,
                                 num_errors=4)
    seqs, chains, positions = batch.seqs, batch.chains, batch.positions
    if with_duplicates and batch.num_flips:
        extra = np.arange(0, batch.num_flips, 3)
        seqs = np.concatenate((seqs, seqs[extra]))
        chains = np.concatenate((chains, chains[extra]))
        positions = np.concatenate((positions, positions[extra]))
    if in_order:
        order = np.lexsort((positions, chains, seqs))
        seqs, chains, positions = seqs[order], chains[order], positions[order]
    return PatternBatch(NUM_CHAINS, LENGTH, batch_size, kind, seqs, chains,
                        positions)


def _scatter(batch, knowns, batch_size):
    """``(chains, positions, masks, counts)`` of the dense pass's
    resolution: the batch's coordinates scattered into word masks."""
    coords = pattern_batch_coords(batch, bits_matrix(knowns, LENGTH),
                                  batch_size)
    cells, masks, counts = coords_scatter(coords, NUM_CHAINS, LENGTH,
                                          batch_size)
    return cells // LENGTH, cells % LENGTH, masks, counts


def _sequences(mask_row, batch_size):
    value = int.from_bytes(mask_row.tobytes(), "little")
    return {b for b in range(batch_size) if (value >> b) & 1}


CASES = pytest.mark.parametrize(
    "kind,batch_size,with_unknowns,with_duplicates",
    [(kind, batch_size, unknowns, duplicates)
     for kind in KINDS
     for batch_size in (1, 7, 64, 70)
     for unknowns in (False, True)
     for duplicates in (False, True)])
#: Sampled flip order, or sorted by (sequence, chain, position).
IN_ORDER = pytest.mark.parametrize("in_order", (False, True),
                                   ids=("sampled", "sorted"))


@CASES
@IN_ORDER
def test_arrays_match_oracle(kind, batch_size, with_unknowns,
                             with_duplicates, in_order):
    batch = _batch(kind, batch_size, with_duplicates, batch_size,
                   in_order)
    _assert_arrays_match_oracle(batch, _knowns(with_unknowns))


def _assert_arrays_match_oracle(batch, knowns):
    batch_size = batch.batch_size
    cells, counts = _oracle(batch, knowns)
    chains, positions, masks, got_counts = _scatter(batch, knowns,
                                                    batch_size)
    assert masks.dtype == np.uint64
    assert masks.shape == (len(cells), (batch_size + 63) // 64)
    keys = list(zip(chains.tolist(), positions.tolist()))
    assert keys == sorted(cells)  # one row per cell, ascending
    for key, row in zip(keys, masks):
        assert _sequences(row, batch_size) == cells[key]
    assert got_counts.tolist() == counts


#: Caller-built (sequence, chain, position) flips already sorted by
#: key: strictly increasing (the resolver's dedup-free fast path), and
#: with repeated pairs as equal neighbours (which must still collapse).
SORTED_FLIPS = {
    "strictly_increasing": [(0, 0, 1), (0, 2, 3), (1, 0, 1), (1, 5, 7),
                            (3, 4, 0), (69, 2, 3)],
    "repeated_pair": [(0, 0, 1), (0, 2, 3), (0, 2, 3), (1, 5, 7),
                      (3, 4, 0), (3, 4, 0), (69, 2, 3)],
}


@pytest.mark.parametrize("with_unknowns", (False, True))
@pytest.mark.parametrize("name", sorted(SORTED_FLIPS))
def test_arrays_match_oracle_on_sorted_caller_batches(name, with_unknowns):
    seqs, chains, positions = (np.array(column, dtype=np.int64)
                               for column in zip(*SORTED_FLIPS[name]))
    batch = PatternBatch(NUM_CHAINS, LENGTH, 70, "multiple", seqs, chains,
                         positions)
    _assert_arrays_match_oracle(batch, _knowns(with_unknowns))


@CASES
@IN_ORDER
def test_coords_match_oracle(kind, batch_size, with_unknowns,
                             with_duplicates, in_order):
    batch = _batch(kind, batch_size, with_duplicates, batch_size + 1,
                   in_order)
    knowns = _knowns(with_unknowns)
    cells, counts = _oracle(batch, knowns)
    seqs, flat, got_counts = pattern_batch_coords(
        batch, bits_matrix(knowns, LENGTH), batch_size)
    expected = sorted((b, chain * LENGTH + position)
                      for (chain, position), owners in cells.items()
                      for b in owners)
    assert list(zip(seqs.tolist(), flat.tolist())) == expected
    assert got_counts.tolist() == counts


@CASES
@IN_ORDER
def test_csr_matches_oracle(kind, batch_size, with_unknowns,
                            with_duplicates, in_order):
    batch = _batch(kind, batch_size, with_duplicates, batch_size + 2,
                   in_order)
    knowns = _knowns(with_unknowns)
    cells, counts = _oracle(batch, knowns)
    starts, flat, got_counts = pattern_batch_csr(
        batch, bits_matrix(knowns, LENGTH), batch_size)
    for b in range(batch_size):
        expected = sorted(chain * LENGTH + position
                          for (chain, position), owners in cells.items()
                          if b in owners)
        assert flat[starts[b]:starts[b + 1]].tolist() == expected
    assert got_counts.tolist() == counts


def test_words_injection_matches_oracle():
    """XOR-ing the resolved masks into replicated words flips exactly
    the oracle's (cell, sequence) pairs."""
    rng = random.Random(5)
    batch_size = 70
    patterns = [rng.choice([
        None,
        burst_error_pattern(NUM_CHAINS, LENGTH, 4, rng),
        multi_error_pattern(NUM_CHAINS, LENGTH, 5, rng),
        random_pattern(NUM_CHAINS, LENGTH, 0.3, rng),
    ]) for _ in range(batch_size)]
    batch = PatternBatch.from_patterns(patterns, NUM_CHAINS, LENGTH)
    knowns = _knowns(True)
    cells, _counts = _oracle(batch, knowns)
    words = np.zeros((NUM_CHAINS, LENGTH, 2), dtype=np.uint64)
    chains, positions, masks, _ = _scatter(batch, knowns, batch_size)
    words[chains, positions] ^= masks
    for chain in range(NUM_CHAINS):
        for position in range(LENGTH):
            assert _sequences(words[chain, position], batch_size) \
                == cells.get((chain, position), set())


def test_unknown_positions_are_gated():
    pattern = multi_error_pattern(NUM_CHAINS, LENGTH, 6,
                                  random.Random(3))
    batch = PatternBatch.from_patterns([pattern], NUM_CHAINS, LENGTH)
    knowns = [0] * NUM_CHAINS  # everything unknown: every flip dropped
    chains, positions, masks, counts = _scatter(batch, knowns, 1)
    assert chains.size == 0 and positions.size == 0 and masks.size == 0
    assert counts.tolist() == [0]


def test_counts_match_pattern_sizes():
    rng = random.Random(11)
    patterns = [multi_error_pattern(NUM_CHAINS, LENGTH, 4, rng),
                None,
                burst_error_pattern(NUM_CHAINS, LENGTH, 3, rng)]
    batch = PatternBatch.from_patterns(patterns, NUM_CHAINS, LENGTH)
    knowns = [(1 << LENGTH) - 1] * NUM_CHAINS
    _chains, _positions, _masks, counts = _scatter(batch, knowns, 3)
    assert counts.tolist() == [4, 0, 3]
