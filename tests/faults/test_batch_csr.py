"""The CSR flip-slice resolver (``pattern_batch_csr``), the fused
summary kernels' input form.

The contract: ``starts`` is a ``(batch_size + 1,)`` int64 row-pointer
array with ``starts[0] == 0``, monotone non-decreasing, ``starts[-1]``
the total flip count; sequence ``b``'s cells sit at
``cells[starts[b]:starts[b + 1]]`` sorted ascending with no
duplicates; and the gating/dedup semantics are exactly those of the
coordinate resolver the CSR form derives from (both are checked against
a pure-Python oracle in ``test_batch_arrays.py``).
"""

import pytest

np = pytest.importorskip("numpy")

from repro.engines.summary import bits_matrix       # noqa: E402
from repro.faults.batch import (                    # noqa: E402
    pattern_batch_coords,
    pattern_batch_csr,
    sample_pattern_batch,
)

NUM_CHAINS, CHAIN_LENGTH = 6, 24


def _knowns(holes=False):
    full = (1 << CHAIN_LENGTH) - 1
    knowns = [full] * NUM_CHAINS
    if holes:
        knowns[0] &= ~0b111
        knowns[3] &= ~(1 << (CHAIN_LENGTH - 1))
    return knowns


def _assert_csr_contract(starts, cells, counts, batch_size):
    assert starts.dtype == np.int64
    assert starts.shape == (batch_size + 1,)
    assert starts[0] == 0
    assert starts[-1] == cells.shape[0]
    assert np.all(np.diff(starts) >= 0)
    assert np.array_equal(np.diff(starts), counts)
    for b in range(batch_size):
        row = cells[starts[b]:starts[b + 1]]
        assert np.all(np.diff(row) > 0)  # ascending, deduplicated


@pytest.mark.parametrize("kind", ("single", "burst", "multiple", "none"))
@pytest.mark.parametrize("batch_size", (1, 64, 100, 257))
def test_pattern_batch_csr_contract(kind, batch_size):
    rng = np.random.default_rng(20100308)
    batch = sample_pattern_batch(kind, NUM_CHAINS, CHAIN_LENGTH,
                                 batch_size, rng, num_errors=4)
    known_bits = bits_matrix(_knowns(), CHAIN_LENGTH)
    starts, cells, counts = pattern_batch_csr(batch, known_bits,
                                              batch_size)
    _assert_csr_contract(starts, cells, counts, batch_size)
    # Same cells/counts as the coordinate form; the row pointers are
    # its per-sequence offsets.
    seqs, ref_cells, ref_counts = pattern_batch_coords(
        batch, known_bits, batch_size)
    assert np.array_equal(cells, ref_cells)
    assert np.array_equal(counts, ref_counts)
    for b in range(batch_size):
        assert np.array_equal(cells[starts[b]:starts[b + 1]],
                              ref_cells[seqs == b])


def test_pattern_batch_csr_drops_unknown_cells():
    rng = np.random.default_rng(5)
    batch_size = 200
    batch = sample_pattern_batch("burst", NUM_CHAINS, CHAIN_LENGTH,
                                 batch_size, rng, num_errors=5)
    known_bits = bits_matrix(_knowns(holes=True), CHAIN_LENGTH)
    starts, cells, counts = pattern_batch_csr(batch, known_bits,
                                              batch_size)
    _assert_csr_contract(starts, cells, counts, batch_size)
    unknown_cells = set(np.nonzero(~known_bits.reshape(-1))[0])
    assert unknown_cells, "fixture must punch at least one hole"
    assert not unknown_cells.intersection(cells.tolist())


def test_csr_empty_batch():
    batch = sample_pattern_batch("none", NUM_CHAINS, CHAIN_LENGTH, 7,
                                 np.random.default_rng(0))
    starts, cells, counts = pattern_batch_csr(
        batch, bits_matrix(_knowns(), CHAIN_LENGTH), 7)
    _assert_csr_contract(starts, cells, counts, 7)
    assert cells.size == 0
    assert np.all(starts == 0)


def test_starts_out_buffer_is_reused():
    """The engines pass a workspace buffer; the resolver must write the
    row pointers into it and return that very array."""
    rng = np.random.default_rng(11)
    batch_size = 50
    batch = sample_pattern_batch("single", NUM_CHAINS, CHAIN_LENGTH,
                                 batch_size, rng)
    known_bits = bits_matrix(_knowns(), CHAIN_LENGTH)
    buffer = np.full(batch_size + 1, -99, dtype=np.int64)
    starts, cells, counts = pattern_batch_csr(batch, known_bits,
                                              batch_size,
                                              starts_out=buffer)
    assert starts is buffer
    _assert_csr_contract(starts, cells, counts, batch_size)
