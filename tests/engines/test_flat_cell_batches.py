"""Flat-cell pattern batches against their split-coordinate twins.

The sampler builds every :class:`~repro.faults.batch.PatternBatch` from
flat cell indices (``chain * chain_length + position``); a caller
building one from patterns passes split chains and positions, in
pattern-set order.  Both forms of the same injection must resolve to
identical coordinates, scatter arrays and CSR slices, and must give
identical simd summary verdicts, on the engine's own path and on the
dense pass -- for every sampler kind, on two
geometries (one with padding cells), with unknown flops in the scan
array.  Malformed flat cells must fail validation before the
controller leaves ACTIVE, exactly like malformed split coordinates.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings                          # noqa: E402
from hypothesis import strategies as st                         # noqa: E402

from repro.circuit.generators import make_random_state_circuit  # noqa: E402
from repro.core.controller import ControllerState               # noqa: E402
from repro.core.protected import ProtectedDesign                # noqa: E402
from repro.engines.registry import get_engine                   # noqa: E402
from repro.engines.summary import bits_matrix                   # noqa: E402
from repro.faults.batch import (                                # noqa: E402
    PatternBatch,
    coords_scatter,
    pattern_batch_coords,
    pattern_batch_csr,
    sample_pattern_batch,
)

KINDS = ("single", "multiple", "burst", "none")
#: (registers, chains, unknown (chain, position) flops): 64 registers
#: fill 8 chains of 8; 50 in 6 chains of 9 leave 4 padding cells.
GEOMETRIES = {
    "8x8": (64, 8, ((1, 2), (3, 0), (7, 7))),
    "6x9": (50, 6, ((0, 0), (2, 5), (4, 1))),
}

_DESIGNS = {}


def _design(geometry):
    """The geometry's simd design with its unknown flops forced to X
    (built once; the summary engine never mutates it)."""
    if geometry not in _DESIGNS:
        registers, num_chains, holes = GEOMETRIES[geometry]
        design = ProtectedDesign(
            make_random_state_circuit(registers, seed=7),
            codes=["hamming(7,4)", "crc16"], num_chains=num_chains,
            engine="simd", lfsr_seed=3)
        for chain, position in holes:
            design.chains[chain].flops[position].force(None)
        _DESIGNS[geometry] = design
    return _DESIGNS[geometry]


def _twins(design, kind, batch_size, seed):
    rng = np.random.default_rng(seed)
    flat = sample_pattern_batch(kind, design.num_chains, design.chain_length,
                                batch_size, rng, num_errors=3)
    split = PatternBatch.from_patterns(flat.patterns(), design.num_chains,
                                       design.chain_length)
    return flat, split


def _assert_same(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=12, deadline=None)
@given(batch_size=st.integers(1, 150), seed=st.integers(0, 2 ** 32 - 1))
def test_flat_and_split_batches_resolve_identically(kind, geometry,
                                                    batch_size, seed):
    design = _design(geometry)
    flat, split = _twins(design, kind, batch_size, seed)
    assert split.kind == flat.kind
    states, knowns = design._pack_chains()
    known_bits = bits_matrix(knowns, design.chain_length)
    coords = [pattern_batch_coords(batch, known_bits, batch_size)
              for batch in (flat, split)]
    _assert_same(*coords)
    _assert_same(*(coords_scatter(resolved, design.num_chains,
                                  design.chain_length, batch_size)
                   for resolved in coords))
    _assert_same(pattern_batch_csr(flat, known_bits, batch_size),
                 pattern_batch_csr(split, known_bits, batch_size))
    engine = get_engine("simd", design)

    def auto(flips):
        return engine.run_batch_summary(states, knowns, flips, batch_size)

    def dense(flips):
        return engine._dense_summary(states, knowns,
                                     engine._known_matrix(knowns), flips,
                                     batch_size)

    for path, run in (("auto", auto), ("dense", dense)):
        from_flat, from_split = run(flat), run(split)
        for field in ("injected", "detected", "uncorrectable",
                      "residual_errors", "corrections_applied"):
            assert np.array_equal(getattr(from_flat, field),
                                  getattr(from_split, field)), (path, field)


def test_derived_views_are_read_only():
    """``chains``/``positions`` of a flat-cell batch are computed views:
    writing one would desynchronise it from ``cells``."""
    flat = sample_pattern_batch("multiple", 8, 13, 5,
                                np.random.default_rng(1), num_errors=3)
    assert np.array_equal(flat.chains * 13 + flat.positions, flat.cells)
    for view in (flat.chains, flat.positions):
        with pytest.raises(ValueError):
            view[0] = 0


@pytest.mark.parametrize("bad", ("past_end", "negative"))
def test_flat_cell_outside_scan_array_fails_before_sleep(bad):
    """A flat cell of ``C * L`` or ``-1`` is outside the scan array:
    validation raises before the controller leaves ACTIVE, and the
    design still runs a good batch afterwards."""
    design = _design("6x9")
    num_cells = design.num_chains * design.chain_length
    cell = num_cells if bad == "past_end" else -1
    seqs = np.arange(3, dtype=np.int64)
    batch = PatternBatch.from_cells(
        design.num_chains, design.chain_length, 3, "single", seqs,
        np.array([0, cell, 5], dtype=np.int64))
    snapshot = design._pack_chains()
    with pytest.raises(ValueError, match="outside"):
        design.sleep_wake_cycle_batch_summary(snapshot, batch, 3)
    assert design.controller.state is ControllerState.ACTIVE
    good = PatternBatch.from_cells(
        design.num_chains, design.chain_length, 3, "single", seqs,
        np.array([0, num_cells - 1, 5], dtype=np.int64))
    design.sleep_wake_cycle_batch_summary(snapshot, good, 3)
    assert design.controller.state is ControllerState.ACTIVE
