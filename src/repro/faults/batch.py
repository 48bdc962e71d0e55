"""Batch fault injection over bit planes and word-packed batch state.

One :class:`~repro.faults.patterns.ErrorPattern` per sequence of a
batch is turned into per-``(chain, position)`` *sequence masks*: bit
``b`` of the mask says "flip this scan cell in sequence ``b``".
Applying a whole batch's worth of injections then costs one XOR per
targeted scan cell -- independent of the batch size -- which is the
injection-side counterpart of the batch engines' passes
(:mod:`repro.engines.simd`).

Flips are gated by the chains' known masks, matching the reference
injector's no-op on unknown (``None``) flops, and the per-sequence
count of *effective* flips is returned so campaign statistics see the
same ``injected_errors`` the reference path reports.

Two application forms share the same resolution
(:func:`batch_pattern_flips`): :func:`apply_batch_flips` XORs into the
Python-int bit planes of the engine protocol (what
``sleep_wake_cycle_batch`` uses), and :func:`apply_batch_flips_words`
/ :func:`batch_flips_arrays` apply the same flips to the ``(C, L, W)``
uint64 word layout of :mod:`repro.engines.simd` -- for pipelines that
keep batch state in ndarray form end to end.  The two forms are
asserted equivalent by ``tests/faults/test_batch_arrays.py`` and
cross-checked at campaign scale by the dense-error benchmark; numpy is
imported lazily, so the plane path stays stdlib-only.

The module also hosts the **vectorised pattern sampler** of the
campaign summary path (:func:`sample_pattern_batch` /
:class:`PatternBatch`): one ``numpy.random.Generator`` call draws a
whole group's single/burst/multi patterns as coordinate arrays, the
batch counterpart of the scalar factories in
:mod:`repro.faults.patterns`.  The sampled batch converts losslessly
both ways -- :meth:`PatternBatch.flips` for the array-native engines,
:meth:`PatternBatch.patterns` for the per-sequence object path -- which
is what lets campaign tasks fall back to the object path on
non-summary engines with bit-identical statistics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.patterns import ErrorPattern

#: Per-(chain, position) sequence masks of a batch injection.
BatchFlips = Dict[Tuple[int, int], int]


def batch_pattern_flips(patterns: Sequence[Optional[ErrorPattern]],
                        num_chains: int, chain_length: int) -> BatchFlips:
    """Resolve one pattern per sequence into per-cell sequence masks.

    ``None`` entries are clean sequences.  Raises ``ValueError`` when a
    pattern addresses a cell outside the ``num_chains x chain_length``
    scan array (same eager check as the scalar injectors).
    """
    flips: BatchFlips = {}
    for b, pattern in enumerate(patterns):
        if pattern is None:
            continue
        bit = 1 << b
        for chain, position in pattern.locations:
            if chain >= num_chains or position >= chain_length:
                raise ValueError(
                    f"error location ({chain}, {position}) outside the "
                    f"{num_chains}x{chain_length} scan array")
            key = (chain, position)
            flips[key] = flips.get(key, 0) | bit
    return flips


def batch_flips_arrays(flips: BatchFlips, knowns: Sequence[int],
                       batch_size: int):
    """Resolve a :data:`BatchFlips` dict into ndarray coordinate form.

    Returns ``(chains, positions, masks, counts)`` where the first
    three are parallel arrays -- ``masks`` is ``(N, W)`` uint64 in the
    word-packed layout of :mod:`repro.engines.simd` -- and ``counts``
    is the per-sequence number of *effective* flips (flips landing on
    unknown positions are dropped, exactly like
    :func:`apply_batch_flips`).  Requires numpy (the ``[simd]``
    extra); the plain-plane path never imports it.
    """
    import numpy as np

    num_words = (batch_size + 63) // 64
    chains: List[int] = []
    positions: List[int] = []
    mask_bytes = bytearray()
    for (chain, position), mask in sorted(flips.items()):
        if not (knowns[chain] >> position) & 1:
            continue
        chains.append(chain)
        positions.append(position)
        mask_bytes += mask.to_bytes(num_words * 8, "little")
    masks = np.frombuffer(bytes(mask_bytes), dtype=np.uint64)
    masks = masks.reshape(len(chains), num_words)
    if len(chains):
        counts = np.unpackbits(
            np.ascontiguousarray(masks, dtype=np.uint64).view(np.uint8),
            axis=-1, bitorder="little")[:, :batch_size].sum(axis=0)
    else:
        counts = np.zeros(batch_size, dtype=np.intp)
    return (np.array(chains, dtype=np.int64),
            np.array(positions, dtype=np.int64), masks, counts)


def apply_batch_flips_words(words, knowns: Sequence[int],
                            flips: BatchFlips, batch_size: int):
    """XOR a batch's flips into a ``(C, L, W)`` word array in place.

    The ndarray counterpart of :func:`apply_batch_flips` for the SIMD
    engine's word-packed state: one vectorised XOR scatter covers the
    whole batch.  Returns the per-sequence effective-flip counts as an
    ndarray (same values as :func:`apply_batch_flips`).
    """
    chains, positions, masks, counts = batch_flips_arrays(
        flips, knowns, batch_size)
    if chains.size:
        words[chains, positions] ^= masks
    return counts


def apply_batch_flips(planes: Sequence[List[int]], knowns: Sequence[int],
                      flips: BatchFlips, batch_size: int) -> List[int]:
    """XOR a batch's flips into the planes; returns per-sequence counts.

    Flips landing on unknown positions are dropped (the reference
    injector cannot flip an X), so ``counts[b]`` equals the Hamming
    distance the reference path would report for sequence ``b``'s
    injection.
    """
    counts = [0] * batch_size
    for (chain, position), mask in flips.items():
        if not (knowns[chain] >> position) & 1:
            continue
        planes[chain][position] ^= mask
        remaining = mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            counts[low.bit_length() - 1] += 1
    return counts


# ----------------------------------------------------------------------
# Vectorised pattern sampling (the campaign summary path's front end)
# ----------------------------------------------------------------------
class PatternBatch:
    """A whole group's sampled error patterns in coordinate-array form.

    ``seqs[f]``, ``chains[f]`` and ``positions[f]`` describe flip ``f``:
    sequence ``seqs[f]`` of the batch flips scan cell ``(chains[f],
    positions[f])``.  Within one sequence the cells are distinct (the
    :class:`~repro.faults.patterns.ErrorPattern` set semantics), so the
    coordinate arrays carry exactly the information of one pattern per
    sequence without materialising any per-sequence object.

    Two lossless views exist: :meth:`flips` for the batch injectors and
    the engines' array-native summary passes, and :meth:`patterns` for
    the per-sequence object path -- a campaign group routed through
    either view produces bit-identical statistics (property-tested in
    ``tests/campaigns/test_summary_path.py``).
    """

    __slots__ = ("num_chains", "chain_length", "batch_size", "kind",
                 "seqs", "chains", "positions")

    def __init__(self, num_chains: int, chain_length: int, batch_size: int,
                 kind: str, seqs, chains, positions):
        if not (len(seqs) == len(chains) == len(positions)):
            raise ValueError("coordinate arrays must have equal lengths")
        self.num_chains = num_chains
        self.chain_length = chain_length
        self.batch_size = batch_size
        self.kind = kind
        self.seqs = seqs
        self.chains = chains
        self.positions = positions

    @property
    def num_flips(self) -> int:
        """Total flips across the whole batch."""
        return len(self.seqs)

    def flips(self) -> BatchFlips:
        """The batch as per-cell sequence masks (:data:`BatchFlips`)."""
        flips: BatchFlips = {}
        for b, chain, position in zip(self.seqs.tolist(),
                                      self.chains.tolist(),
                                      self.positions.tolist()):
            key = (chain, position)
            flips[key] = flips.get(key, 0) | (1 << b)
        return flips

    def patterns(self) -> List[Optional[ErrorPattern]]:
        """The batch as one :class:`ErrorPattern` (or ``None``) per
        sequence -- the object-path fallback's input."""
        locations: List[Optional[list]] = [None] * self.batch_size
        for b, chain, position in zip(self.seqs.tolist(),
                                      self.chains.tolist(),
                                      self.positions.tolist()):
            if locations[b] is None:
                locations[b] = []
            locations[b].append((chain, position))
        return [None if cells is None
                else ErrorPattern(locations=frozenset(cells), kind=self.kind)
                for cells in locations]


def _distinct_cells(rng, batch_size: int, population: int, draws: int):
    """``draws`` distinct uniform indices out of ``population`` for each
    of ``batch_size`` sequences, as a ``(batch_size, draws)`` array.

    Random-key selection: each sequence ranks one row of i.i.d. keys
    and keeps the ``draws`` smallest, which is a uniform without-
    replacement sample.  Memory is ``batch_size x population`` floats
    -- fine for scan arrays of a few thousand cells; campaigns over
    vastly larger state should shrink the group size accordingly.
    """
    import numpy as np

    if draws > population:
        raise ValueError(
            f"cannot place {draws} distinct errors in {population} cells")
    if draws == population:
        return np.broadcast_to(np.arange(population, dtype=np.int64),
                               (batch_size, population))
    keys = rng.random((batch_size, population))
    return np.argpartition(keys, draws - 1, axis=1)[:, :draws] \
        .astype(np.int64)


def pattern_batch_arrays(batch: "PatternBatch", knowns: Sequence[int],
                         batch_size: int):
    """Resolve a :class:`PatternBatch` straight into ndarray scatter
    form, skipping the :data:`BatchFlips` dict round-trip.

    Returns ``(chains, positions, masks, counts)`` with exactly the
    contract of :func:`batch_flips_arrays` (one row per distinct
    targeted cell, cells in ascending order, flips on unknown cells
    dropped from both masks and counts) -- asserted equivalent by
    ``tests/faults/test_pattern_batch.py``.  Unlike the dict path,
    every step is a vector operation, so resolving a batch's injection
    costs no per-flip Python work.
    """
    import numpy as np

    from repro.engines.summary import bits_matrix

    length = batch.chain_length
    chains, positions, seqs = batch.chains, batch.positions, batch.seqs
    if len(chains):
        keep = bits_matrix(knowns, length)[chains, positions]
        chains, positions, seqs = chains[keep], positions[keep], seqs[keep]
    num_words = (batch_size + 63) // 64
    if not len(chains):
        empty = np.empty(0, dtype=np.int64)
        return (empty, empty.copy(),
                np.empty((0, num_words), dtype=np.uint64),
                np.zeros(batch_size, dtype=np.int64))
    cells = chains * length + positions
    # Enforce the set semantics of ErrorPattern: a caller-built batch
    # repeating a (sequence, cell) pair must count (and flip) the cell
    # once, exactly like the flips()/patterns() views collapse it.
    unique_flips = np.unique(seqs * (batch.num_chains * length) + cells,
                             return_index=True)[1]
    if unique_flips.size != cells.size:
        cells, seqs = cells[unique_flips], seqs[unique_flips]
    unique_cells, inverse = np.unique(cells, return_inverse=True)
    masks = np.zeros((len(unique_cells), num_words), dtype=np.uint64)
    np.bitwise_or.at(masks, (inverse, seqs >> 6),
                     np.left_shift(np.uint64(1),
                                   (seqs & 63).astype(np.uint64)))
    counts = np.bincount(seqs, minlength=batch_size).astype(np.int64)
    return (unique_cells // length, unique_cells % length, masks, counts)


def pattern_batch_coords(batch: "PatternBatch", known_bits,
                         batch_size: int):
    """Resolve a :class:`PatternBatch` into flat flip *coordinates* --
    the sparse-delta summary path's input form.

    Returns ``(seqs, cells, counts)``: parallel int64 arrays with flip
    ``f`` hitting flat scan cell ``cells[f]`` (``chain * chain_length +
    position``) in sequence ``seqs[f]``, sorted by ``(sequence,
    cell)``, plus the per-sequence effective-flip counts.  The same
    gating/dedup contract as :func:`pattern_batch_arrays` (flips on
    unknown cells dropped, repeated (sequence, cell) pairs collapsed to
    the :class:`~repro.faults.patterns.ErrorPattern` set semantics), so
    the two resolutions describe the identical injection --
    ``known_bits`` is the expanded ``(C, L)`` bool known matrix the
    summary pass already holds.
    """
    import numpy as np

    length = batch.chain_length
    chains, positions, seqs = batch.chains, batch.positions, batch.seqs
    if len(chains):
        keep = known_bits[chains, positions]
        chains, positions, seqs = chains[keep], positions[keep], seqs[keep]
    if not len(chains):
        empty = np.empty(0, dtype=np.int64)
        return (empty, empty.copy(),
                np.zeros(batch_size, dtype=np.int64))
    num_cells = batch.num_chains * length
    unique_flips = np.unique(seqs * num_cells
                             + (chains * length + positions))
    seqs = unique_flips // num_cells
    cells = unique_flips - seqs * num_cells
    counts = np.bincount(seqs, minlength=batch_size).astype(np.int64)
    return seqs, cells, counts


def _coords_to_csr(cells, counts, batch_size: int, starts_out=None):
    """Row pointers of (sequence, cell)-sorted flip coordinates.

    ``counts`` is the per-sequence flip count; because the coordinate
    resolvers emit cells sorted by (sequence, cell), the exclusive
    prefix sum of ``counts`` is exactly the CSR row-pointer array:
    sequence ``b``'s flips are ``cells[starts[b]:starts[b + 1]]``.
    ``starts_out`` (shape ``(batch_size + 1,)``, int64) is fully
    overwritten when given -- the engines' workspace-buffer hook.
    """
    import numpy as np

    if starts_out is None:
        starts_out = np.empty(batch_size + 1, dtype=np.int64)
    starts_out[0] = 0
    np.cumsum(counts, out=starts_out[1:])
    return starts_out


def pattern_batch_csr(batch: "PatternBatch", known_bits, batch_size: int,
                      starts_out=None):
    """Resolve a :class:`PatternBatch` into CSR flip slices -- the
    fused summary kernels' input form (:mod:`repro.engines.jit`).

    Returns ``(starts, cells, counts)``: ``starts`` is the
    ``(batch_size + 1,)`` int64 row-pointer array with sequence ``b``'s
    flips at ``cells[starts[b]:starts[b + 1]]`` (cells ascending within
    a sequence), and ``cells``/``counts`` carry exactly the
    gating/dedup contract of :func:`pattern_batch_coords` (flips on
    unknown cells dropped, repeated (sequence, cell) pairs collapsed).
    A per-sequence kernel thus walks its slice with no sorting, no
    searching and no per-flip Python work.
    """
    seqs, cells, counts = pattern_batch_coords(batch, known_bits,
                                               batch_size)
    del seqs  # implied by the row pointers
    return (_coords_to_csr(cells, counts, batch_size, starts_out),
            cells, counts)


def batch_flips_csr(flips: BatchFlips, knowns: Sequence[int],
                    batch_size: int, chain_length: int, starts_out=None):
    """Resolve a :data:`BatchFlips` dict into the CSR slice form of
    :func:`pattern_batch_csr` (``(starts, cells, counts)``)."""
    seqs, cells, counts = batch_flips_coords(flips, knowns, batch_size,
                                             chain_length)
    del seqs
    return (_coords_to_csr(cells, counts, batch_size, starts_out),
            cells, counts)


def batch_flips_coords(flips: BatchFlips, knowns: Sequence[int],
                       batch_size: int, chain_length: int):
    """Resolve a :data:`BatchFlips` dict into the flat flip-coordinate
    form of :func:`pattern_batch_coords` (``(seqs, cells, counts)``,
    flips on unknown positions dropped).

    A dict already holds one mask per distinct cell, so no dedup is
    needed; the masks simply unpack into (sequence, cell) pairs.
    """
    import numpy as np

    chains, positions, masks, counts = batch_flips_arrays(
        flips, knowns, batch_size)
    if not chains.size:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), counts.astype(np.int64)
    bits = np.unpackbits(
        np.ascontiguousarray(masks, dtype=np.uint64).view(np.uint8),
        axis=-1, bitorder="little")[:, :batch_size]
    rows, seqs = np.nonzero(bits)
    cells = chains[rows] * chain_length + positions[rows]
    order = np.argsort(seqs * (len(knowns) * chain_length) + cells,
                       kind="stable")
    return seqs[order].astype(np.int64), cells[order], \
        counts.astype(np.int64)


def sample_pattern_batch(kind: str, num_chains: int, chain_length: int,
                         batch_size: int, rng,
                         num_errors: int = 4) -> PatternBatch:
    """Draw one error pattern per sequence of a batch, vectorised.

    The array counterpart of the scalar factories in
    :mod:`repro.faults.patterns`: ``kind`` selects the same geometry
    ("single" -- one uniform flip; "multiple" -- ``num_errors``
    distinct uniform flips; "burst" -- ``num_errors`` distinct flips
    clustered in an adjacent-chain window placed uniformly; "none" --
    clean sequences), and ``rng`` is a ``numpy.random.Generator``.  The
    draws are a pure function of the generator state, so campaign
    chunks seeded through :mod:`repro.campaigns.seeding` stay
    bit-identical for any worker count -- but the streams are *not*
    flip-for-flip identical to the scalar ``random.Random`` factories
    (the two modes are statistically equivalent samplings).
    """
    import numpy as np

    if num_chains <= 0 or chain_length <= 0:
        raise ValueError("chain geometry must be positive")
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    empty = np.empty(0, dtype=np.int64)
    if kind == "none":
        return PatternBatch(num_chains, chain_length, batch_size, "none",
                            empty, empty, empty)
    total = num_chains * chain_length
    if kind == "single":
        cells = rng.integers(0, total, size=batch_size, dtype=np.int64)
        return PatternBatch(
            num_chains, chain_length, batch_size, "single",
            np.arange(batch_size, dtype=np.int64),
            cells // chain_length, cells % chain_length)
    if num_errors <= 0:
        raise ValueError("number of errors must be positive")
    seqs = np.repeat(np.arange(batch_size, dtype=np.int64), num_errors)
    if kind == "multiple":
        cells = _distinct_cells(rng, batch_size, total, num_errors)
        return PatternBatch(
            num_chains, chain_length, batch_size, "multiple", seqs,
            (cells // chain_length).reshape(-1),
            (cells % chain_length).reshape(-1))
    if kind == "burst":
        # Same window geometry as patterns.burst_error_pattern: spread
        # across adjacent chains first, then across adjacent cycles.
        if num_errors > total:
            raise ValueError("burst does not fit in the scan array")
        window_chains = min(num_chains, num_errors)
        window_positions = min(chain_length,
                               -(-num_errors // window_chains))
        chain0 = rng.integers(0, max(1, num_chains - window_chains + 1),
                              size=batch_size, dtype=np.int64)
        pos0 = rng.integers(0, max(1, chain_length - window_positions + 1),
                            size=batch_size, dtype=np.int64)
        window = window_chains * window_positions
        cells = _distinct_cells(rng, batch_size, window, num_errors)
        chains = chain0[:, None] + cells // window_positions
        positions = pos0[:, None] + cells % window_positions
        return PatternBatch(
            num_chains, chain_length, batch_size, "burst", seqs,
            chains.reshape(-1), positions.reshape(-1))
    raise ValueError(
        f"unknown pattern kind {kind!r}; choose from "
        f"('single', 'burst', 'multiple', 'none')")


__all__ = [
    "BatchFlips",
    "batch_pattern_flips",
    "apply_batch_flips",
    "batch_flips_arrays",
    "apply_batch_flips_words",
    "PatternBatch",
    "batch_flips_coords",
    "batch_flips_csr",
    "pattern_batch_arrays",
    "pattern_batch_coords",
    "pattern_batch_csr",
    "sample_pattern_batch",
]
