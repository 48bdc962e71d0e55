"""Batch fault injection in coordinate-array form.

A batch injection is a :class:`PatternBatch`: one flip per entry of
two parallel int64 arrays (sequence, flat cell), the batch counterpart
of one :class:`~repro.faults.patterns.ErrorPattern` per sequence.  The
**flat cell** ``chain * chain_length + position`` is the canonical flip
coordinate all the way from the sampler to the engines: the sampler
emits it, :meth:`PatternBatch.validate` range-checks it, the resolvers
gate it through the flattened known matrix and sort/deduplicate on it,
and the simd engine uses it as the row of its single-flip outcome
table and of its ``(C * L, W)`` word view.  Chain and position arrays
are derived views, split only for readers that want them
(:meth:`PatternBatch.patterns`, the object-path fallback).

The resolvers below turn a batch into the input form each engine
kernel consumes, with no per-flip Python work:

* :func:`pattern_batch_coords` -- flat (sequence, cell) coordinates for
  the simd engine's single-flip table gather;
* :func:`coords_scatter` -- from those coordinates, per-cell uint64
  sequence masks for the XOR scatter into the ``(C * L, W)``
  word-packed batch state of :mod:`repro.engines.simd`;
* :func:`pattern_batch_csr` -- CSR slices for the fused kernels of
  :mod:`repro.engines.jit`.

All three (:func:`coords_scatter` through the coordinates it takes)
gate flips by the chains' known masks, matching the
reference injector's no-op on unknown (``None``) flops, collapse
repeated (sequence, cell) pairs to the ``ErrorPattern`` set semantics,
and return the per-sequence count of *effective* flips, so campaign
statistics see the same ``injected_errors`` the reference path
reports.

The module also hosts the **vectorised pattern sampler** of the
campaign summary path (:func:`sample_pattern_batch`): one
``numpy.random.Generator`` draws a whole group's
single/burst/multi patterns as coordinate arrays, the batch
counterpart of the scalar factories in :mod:`repro.faults.patterns`.
:meth:`PatternBatch.from_patterns` and :meth:`PatternBatch.patterns`
convert losslessly between a batch and its per-sequence patterns,
which is what lets campaign tasks fall back to the object path on
non-summary engines with bit-identical statistics.  Its multi-error
and burst draws go through :func:`_distinct_cells`, which consumes
exactly the doubles of one full-matrix key draw; on a multi-core host,
outside process-pool workers, it splits a large key draw into two
contiguous row ranges, the second drawn on a short-lived thread from
a copy of the generator advanced to that range's first key, so the
stream is the same on any number of cores.

Everything here requires numpy; the per-sequence batch of
:meth:`~repro.core.protected.ProtectedDesign.sleep_wake_cycle_batch`
never imports this module, so a pure-stdlib install keeps working.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import List, Optional, Sequence

import numpy as np

from repro.faults.patterns import ErrorPattern


class PatternBatch:
    """A whole group's sampled error patterns in coordinate-array form.

    ``seqs[f]`` and ``cells[f]`` describe flip ``f``: sequence
    ``seqs[f]`` of the batch flips the scan cell with flat index
    ``cells[f] = chain * chain_length + position``.  The flat cell is the
    canonical flip coordinate from the sampler to the engines' gathers
    and scatters; ``chains`` and ``positions`` are read-only views of
    it, computed on first read (for :meth:`patterns` and callers that
    want the split form).  Within one sequence the cells are distinct
    (the :class:`~repro.faults.patterns.ErrorPattern` set semantics), so
    the coordinate arrays carry exactly the information of one pattern
    per sequence without materialising any per-sequence object.

    The constructor takes split ``chains``/``positions`` (caller-built
    batches); :meth:`from_cells` takes flat cells (the sampler's form).
    :meth:`validate` range-checks whichever form the batch was built
    from: a split batch's positions against the chain length, so
    ``position == chain_length`` cannot alias into the next chain's
    cell 0.

    :meth:`from_patterns` and :meth:`patterns` convert losslessly to and
    from one pattern per sequence -- a campaign group routed through the
    summary pass or the per-sequence object path produces bit-identical
    statistics (property-tested in
    ``tests/campaigns/test_summary_path.py``).

    :attr:`one_per_sequence` marks a batch whose ``seqs`` are exactly
    ``0 .. batch_size - 1``, one flip per sequence in sequence order.
    Only :meth:`from_cells` sets it, on request of the single-error
    sampler, which builds those ``seqs`` itself (read-only); readers
    may then skip re-proving it.  Every other batch is unmarked, even
    one with identical arrays.
    """

    __slots__ = ("num_chains", "chain_length", "batch_size", "kind",
                 "seqs", "_cells", "_chains", "_positions", "_split",
                 "_one_per_sequence")

    def __init__(self, num_chains: int, chain_length: int, batch_size: int,
                 kind: str, seqs, chains, positions):
        if not (len(seqs) == len(chains) == len(positions)):
            raise ValueError("coordinate arrays must have equal lengths")
        self.num_chains = num_chains
        self.chain_length = chain_length
        self.batch_size = batch_size
        self.kind = kind
        self.seqs = seqs
        self._chains = chains
        self._positions = positions
        self._cells = None
        #: Built from split coordinates: validate checks them as such.
        self._split = True
        self._one_per_sequence = False

    @classmethod
    def from_cells(cls, num_chains: int, chain_length: int,
                   batch_size: int, kind: str, seqs, cells, *,
                   one_per_sequence: bool = False) -> "PatternBatch":
        """The batch flipping flat cell ``cells[f]`` in sequence
        ``seqs[f]`` -- the sampler's form; no coordinate is split.

        ``one_per_sequence=True`` asserts that ``seqs`` is ``0 ..
        batch_size - 1`` (see :attr:`one_per_sequence`); only its
        length is checked, so the caller must have built it so."""
        if len(seqs) != len(cells):
            raise ValueError("coordinate arrays must have equal lengths")
        if one_per_sequence and len(seqs) != batch_size:
            raise ValueError(
                f"a one-flip-per-sequence batch of {batch_size} sequences "
                f"needs {batch_size} flips, not {len(seqs)}")
        batch = cls.__new__(cls)
        batch.num_chains = num_chains
        batch.chain_length = chain_length
        batch.batch_size = batch_size
        batch.kind = kind
        batch.seqs = seqs
        batch._cells = cells
        batch._chains = batch._positions = None
        batch._split = False
        batch._one_per_sequence = one_per_sequence
        return batch

    @property
    def cells(self):
        """Flat cell index of every flip (``chain * chain_length +
        position``), int64."""
        if self._cells is None:
            self._cells = _read_only(
                np.asarray(self._chains, dtype=np.int64) * self.chain_length
                + np.asarray(self._positions, dtype=np.int64))
        return self._cells

    @property
    def chains(self):
        """Chain index of every flip (a read-only view of ``cells``)."""
        if self._chains is None:
            self._chains = _read_only(self._cells // self.chain_length)
        return self._chains

    @property
    def positions(self):
        """Scan position of every flip (a read-only view of
        ``cells``)."""
        if self._positions is None:
            self._positions = _read_only(self._cells % self.chain_length)
        return self._positions

    @property
    def one_per_sequence(self) -> bool:
        """Whether ``seqs`` is ``0 .. batch_size - 1`` by construction:
        one flip per sequence, in sequence order (read-only; set only
        through :meth:`from_cells`)."""
        return self._one_per_sequence

    @property
    def num_flips(self) -> int:
        """Total flips across the whole batch."""
        return len(self.seqs)

    @classmethod
    def from_patterns(cls, patterns: Sequence[Optional[ErrorPattern]],
                      num_chains: int, chain_length: int) -> "PatternBatch":
        """The batch injecting ``patterns[b]`` into sequence ``b``
        (``None`` entries are clean sequences) -- the inverse of
        :meth:`patterns`; an all-``None`` list is a ``"none"`` batch.
        Coordinates are not range-checked here; see :meth:`validate`."""
        seqs: List[int] = []
        chains: List[int] = []
        positions: List[int] = []
        for b, pattern in enumerate(patterns):
            if pattern is None:
                continue
            for chain, position in pattern.locations:
                seqs.append(b)
                chains.append(chain)
                positions.append(position)
        kinds = {pattern.kind for pattern in patterns if pattern is not None}
        kind = kinds.pop() if len(kinds) == 1 else \
            "mixed" if kinds else "none"
        return cls(num_chains, chain_length, len(patterns), kind,
                   np.array(seqs, dtype=np.int64),
                   np.array(chains, dtype=np.int64),
                   np.array(positions, dtype=np.int64))

    def validate(self, num_chains: int, chain_length: int,
                 batch_size: int) -> None:
        """Raise ``ValueError`` unless the batch fits a ``num_chains x
        chain_length`` scan array and a ``batch_size``-sequence batch.

        Every coordinate is checked, not only the geometry fields:
        negative indices would silently wrap in the engines' ndarray
        scatters.  A flat-cell batch checks ``cells`` against
        ``num_chains x chain_length``; a batch built from split
        coordinates checks ``chains`` and ``positions`` separately,
        which bounds its cells too.  The ``seqs`` of a
        :attr:`one_per_sequence` batch are in range by construction and
        are not scanned.  The batch entry points call this before the
        controller leaves ACTIVE.
        """
        if (self.num_chains, self.chain_length) != (num_chains,
                                                    chain_length):
            raise ValueError(
                f"pattern batch was sampled for a {self.num_chains}x"
                f"{self.chain_length} scan array, not this design's "
                f"{num_chains}x{chain_length}")
        if self.batch_size != batch_size:
            raise ValueError(
                f"pattern batch holds {self.batch_size} sequences, "
                f"not {batch_size}")
        if not self.num_flips:
            return
        if self._split:
            inside = (_in_range(self._chains, num_chains)
                      and _in_range(self._positions, chain_length))
        else:
            inside = _in_range(self._cells, num_chains * chain_length)
        if not inside:
            raise ValueError(
                f"pattern batch addresses cells outside the "
                f"{num_chains}x{chain_length} scan array")
        if not self._one_per_sequence and not _in_range(self.seqs,
                                                         batch_size):
            raise ValueError(
                f"pattern batch addresses sequences outside the "
                f"{batch_size}-sequence batch")

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


def _read_only(values):
    values.flags.writeable = False
    return values


def _in_range(values, bound: int) -> bool:
    return bool(values.min() >= 0 and values.max() < bound)


# ----------------------------------------------------------------------
# Vectorised pattern sampling (the campaign summary path's front end)
# ----------------------------------------------------------------------
#: Rows of sampling keys in :func:`_distinct_cells`'s key buffer,
#: summed over its row ranges; bounds the buffer at ``_KEY_BLOCK_ROWS
#: x population`` floats whatever the batch size.
_KEY_BLOCK_ROWS = 512
#: Keys per row range below which a further split does not pay for
#: its thread.
_SPLIT_MIN_KEYS = 2 ** 19
#: Fewest keys per block of a split range: smaller blocks spend their
#: time in per-block Python work that holds the GIL, and a split runs
#: slower than one range (2.5x at a 12-cell population).
_SPLIT_MIN_BLOCK_KEYS = 2 ** 15
#: Most row ranges one call draws in parallel.  Two is the only split
#: measured faster than one range (on a 2-core host); more ranges stay
#: unused until a host with more cores shows they help.
_MAX_SPLIT_PARTS = 2
#: Bit generators that take exactly one ``next_uint64`` step per double
#: and can ``advance``: a range's keys start a known distance into the
#: stream.
_ADVANCEABLE = (np.random.PCG64, np.random.PCG64DXSM)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _split_parts(rng, batch_size: int, population: int) -> int:
    """How many row ranges :func:`_distinct_cells` draws in parallel.

    One inside a ``multiprocessing`` child: a process pool already
    spreads the campaign over the cores, and helper threads in every
    worker would only oversubscribe them.
    """
    if type(getattr(rng, "bit_generator", None)) not in _ADVANCEABLE:
        return 1
    if multiprocessing.parent_process() is not None:
        return 1
    return max(1, min(_MAX_SPLIT_PARTS, _usable_cores(),
                      batch_size * population // _SPLIT_MIN_KEYS,
                      _KEY_BLOCK_ROWS * population
                      // _SPLIT_MIN_BLOCK_KEYS))


def _range_generator(rng, rows: int, population: int):
    """A generator on a private copy of ``rng``'s bit generator, moved
    past the keys of ``rows`` rows -- the stream a row range draws."""
    bit_generator = type(rng.bit_generator)(0)
    bit_generator.state = rng.bit_generator.state
    bit_generator.advance(rows * population)
    return np.random.Generator(bit_generator)


def _distinct_cells(rng, batch_size: int, population: int, draws: int):
    """``draws`` distinct uniform indices out of ``population`` for each
    of ``batch_size`` sequences, as a ``(batch_size, draws)`` array with
    every row sorted ascending.

    Random-key selection: each sequence ranks one row of i.i.d. keys
    and keeps the ``draws`` smallest, which is a uniform without-
    replacement sample.  **Exactness contract:** the generator ends in
    the state one ``rng.random((batch_size, population))`` call leaves
    it in, and every row holds exactly the cells of
    ``np.argpartition(keys, draws - 1, axis=1)[:, :draws]`` on that
    key matrix -- ties included -- so the stream and every statistic
    drawn from it match the plain full-matrix selection, however the
    rows are split.

    **Row-range split:** on a multi-core host a large batch is cut into
    contiguous row ranges, one per usable core up to
    :data:`_MAX_SPLIT_PARTS`.  Range ``i`` starting
    at row ``lo`` draws from a private copy of the generator advanced
    by ``lo x population`` doubles, which is exactly where one big call
    would be when it reached row ``lo``; range 0 runs on the calling
    thread and the others on threads started and joined here, so no
    thread outlives the call.  The caller's generator is then set to
    the pre-call state advanced by ``batch_size x population``, with
    its buffered 32-bit half-word carried over (``advance`` clears
    it).  Generators whose doubles are not single steps of an
    advanceable bit generator (:data:`_ADVANCEABLE`), batches under
    two ranges' worth of keys, populations too small to fill a split
    block, one-core hosts and ``multiprocessing`` children (process-pool
    workers) run as a single range on the calling thread.

    Each range draws its keys in blocks (a row-major block consumes the
    same doubles as the matching rows of one big call) into its own
    slice of one key buffer.  Within a block only the keys below a
    threshold a few standard deviations above the expected
    ``draws``-th smallest are candidates; they are padded into a
    narrow matrix and ranked there.  **Tie rule:** a row falls back to
    ``argpartition`` over its full key row when its ``draws``-th and
    ``(draws + 1)``-th smallest candidates tie -- the only case where
    argpartition's choice depends on key positions -- which includes
    every row with fewer than ``draws`` candidates (its padding ties).
    A row with exactly ``draws`` candidates needs no fallback: every
    other key is at or above the threshold.  Memory is
    ``O(_KEY_BLOCK_ROWS x population + batch_size x draws)``, not
    ``batch_size x population``.
    """
    if draws > population:
        raise ValueError(
            f"cannot place {draws} distinct errors in {population} cells")
    if draws == population:
        return np.broadcast_to(np.arange(population, dtype=np.int64),
                               (batch_size, population))
    threshold = (draws + 4.0 * draws ** 0.5 + 4.0) / population
    parts = _split_parts(rng, batch_size, population)
    bounds = [batch_size * i // parts for i in range(parts + 1)]
    generators = [rng]
    if parts > 1:
        generators = [_range_generator(rng, lo, population)
                      for lo in bounds[:-1]]
        final = _range_generator(rng, batch_size, population) \
            .bit_generator.state
        start_state = rng.bit_generator.state
        final["has_uint32"] = start_state["has_uint32"]
        final["uinteger"] = start_state["uinteger"]
    # The ranges share the key budget of one unsplit block.
    block = max(1, min(_KEY_BLOCK_ROWS // parts, -(-batch_size // parts)))
    cells = np.empty((batch_size, draws), dtype=np.int64)
    # One key buffer refilled per block: filling reused pages costs
    # about half of faulting in a fresh multi-megabyte block each time.
    buffer = np.empty((parts * block, population), dtype=np.float64)

    def draw_range(part: int) -> None:
        lo, hi = bounds[part], bounds[part + 1]
        keys_out = buffer[part * block:(part + 1) * block]
        for start in range(lo, hi, block):
            rows = min(block, hi - start)
            keys = generators[part].random(out=keys_out[:rows])
            _smallest_keys(keys, draws, threshold, cells[start:start + rows])

    if parts == 1:
        draw_range(0)
        return cells
    errors: List[BaseException] = []

    def helper(part: int) -> None:
        try:
            draw_range(part)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    started: List[threading.Thread] = []
    try:
        for part in range(1, parts):
            thread = threading.Thread(target=helper, args=(part,))
            thread.start()
            started.append(thread)
        draw_range(0)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    rng.bit_generator.state = final
    return cells


def _smallest_keys(keys, draws: int, threshold: float, out) -> None:
    """Write each row's ``draws`` smallest ``keys`` column indices,
    ascending, into ``out`` -- as sets exactly the rows of
    ``argpartition(keys, draws - 1, axis=1)[:, :draws]``; see
    :func:`_distinct_cells`."""
    rows, population = keys.shape
    hits = np.flatnonzero(keys < threshold)
    hit_rows = hits // population
    hit_keys = keys.reshape(-1)[hits]
    counts = np.bincount(hit_rows, minlength=rows)
    # At least draws + 1 columns, so every row has a (draws + 1)-th
    # key.  Padding keys (2.0) exceed every real key and equal each
    # other, so a row with fewer than ``draws`` candidates ties at its
    # draws-th key and takes the fallback below.
    width = max(int(counts.max()), draws + 1)
    row_shift = (np.arange(rows, dtype=np.int64) * width
                 - (np.cumsum(counts) - counts))
    padded = np.full(rows * width, 2.0, dtype=np.float64)
    padded[np.arange(hits.size, dtype=np.int64) + row_shift[hit_rows]] = \
        hit_keys
    # A full sort of the narrow matrix beats a two-kth partition.
    ranked = np.sort(padded.reshape(rows, width), axis=1)
    kth = ranked[:, draws - 1]
    fallback = kth == ranked[:, draws]
    # Without a tie, exactly ``draws`` candidates of a row are at or
    # below its draws-th smallest key; hits are row-major, so the
    # selected cells come out ascending within each row.
    kth[fallback] = -1.0
    chosen = hit_keys <= kth[hit_rows]
    out[~fallback] = (hits - hit_rows * population)[chosen] \
        .reshape(-1, draws)
    if fallback.any():
        order = np.argpartition(keys[fallback], draws - 1, axis=1)
        out[fallback] = np.sort(order[:, :draws], axis=1)


def coords_scatter(coords, num_chains: int, length: int, batch_size: int):
    """Per-cell sequence masks from the batch's already resolved
    :func:`pattern_batch_coords` ``(seqs, cells, counts)``.

    Returns ``(cells, masks, counts)``: ``cells`` the distinct targeted
    flat cells, ascending, ``masks`` the ``(N, W)`` uint64 sequence
    masks in the word-packed layout of :mod:`repro.engines.simd` (bit
    ``b`` of word ``w`` is sequence ``64 * w + b``) and ``counts``
    passed through -- XOR-ing ``masks`` into rows ``cells`` of the
    ``(C * L, W)`` word view applies the injection."""
    seqs, cells, counts = coords
    num_words = (batch_size + 63) // 64
    # Rank the targeted cells through a presence bitmap (no sort).
    present = np.zeros(num_chains * length, dtype=bool)
    present[cells] = True
    unique_cells = np.flatnonzero(present)
    inverse = (np.cumsum(present, dtype=np.int64) - 1)[cells]
    masks = np.zeros((len(unique_cells), num_words), dtype=np.uint64)
    # A flat index takes ufunc.at's fast 1-D path.
    np.bitwise_or.at(masks.reshape(-1), inverse * num_words + (seqs >> 6),
                     np.left_shift(np.uint64(1),
                                   (seqs & 63).astype(np.uint64)))
    return unique_cells, masks, counts


def _sorted_unique(keys):
    """``np.unique(keys)`` for a 1-D int64 array, without its hash path.

    On numpy 2.x a plain ``np.unique`` hashes, which is many times
    slower than sorting and deduplicating against neighbours.
    """
    keys = np.sort(keys)
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def pattern_batch_coords(batch: "PatternBatch", known_bits,
                         batch_size: int):
    """Resolve a :class:`PatternBatch` into flat flip *coordinates* --
    the input form of the simd engine's single-flip table gather.

    Returns ``(seqs, cells, counts)``: parallel int64 arrays with flip
    ``f`` hitting flat scan cell ``cells[f]`` (``chain * chain_length +
    position``) in sequence ``seqs[f]``, sorted by ``(sequence,
    cell)``, plus the per-sequence effective-flip counts.  Flips on
    unknown cells are dropped and repeated (sequence, cell) pairs
    collapse to the :class:`~repro.faults.patterns.ErrorPattern` set
    semantics, the contract every resolver shares -- ``known_bits`` is the expanded ``(C, L)`` bool known matrix the
    summary pass already holds; flips are gated through its flattened
    ``(C * L,)`` view, indexed by flat cell.  The returned arrays may
    be the batch's own (read them, never write them).
    """
    cells, seqs = batch.cells, batch.seqs
    if len(cells):
        keep = known_bits.reshape(-1)[cells]
        if not keep.all():
            cells, seqs = cells[keep], seqs[keep]
    if not len(cells):
        empty = np.empty(0, dtype=np.int64)
        return (empty, empty.copy(),
                np.zeros(batch_size, dtype=np.int64))
    if (len(seqs) == batch_size and seqs[-1] == batch_size - 1
            and _increasing(seqs)):
        # Sequences 0 .. B-1 once each (a single-error batch): already
        # sorted and unique, and every count is one.
        return seqs, cells, np.ones(batch_size, dtype=np.int64)
    # Sampled batches of every kind arrive strictly increasing in
    # (sequence, cell) -- multi-error and burst cells come out of
    # _distinct_cells sorted -- so one comparison pass proves them
    # sorted and unique; caller-built batches may need the sort and
    # the deduplication.
    num_cells = batch.num_chains * batch.chain_length
    keys = seqs * num_cells + cells
    if not _increasing(keys):
        keys = _sorted_unique(keys)
        seqs = keys // num_cells
        cells = keys - seqs * num_cells
    counts = np.bincount(seqs, minlength=batch_size).astype(np.int64)
    return seqs, cells, counts


def _increasing(values) -> bool:
    """Whether a 1-D array is strictly increasing."""
    return bool((values[1:] > values[:-1]).all())


def _coords_to_csr(cells, counts, batch_size: int, starts_out=None):
    """Row pointers of (sequence, cell)-sorted flip coordinates.

    ``counts`` is the per-sequence flip count; because the coordinate
    resolvers emit cells sorted by (sequence, cell), the exclusive
    prefix sum of ``counts`` is exactly the CSR row-pointer array:
    sequence ``b``'s flips are ``cells[starts[b]:starts[b + 1]]``.
    ``starts_out`` (shape ``(batch_size + 1,)``, int64) is fully
    overwritten when given -- the engines' workspace-buffer hook.
    """
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
    (the two modes are statistically equivalent samplings).  The batch
    is built from flat cells (:meth:`PatternBatch.from_cells`), strictly
    increasing in (sequence, cell); a "single" batch is marked
    :attr:`~PatternBatch.one_per_sequence`.
    """
    if num_chains <= 0 or chain_length <= 0:
        raise ValueError("chain geometry must be positive")
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    empty = np.empty(0, dtype=np.int64)
    if kind == "none":
        return PatternBatch.from_cells(num_chains, chain_length, batch_size,
                                       "none", empty, empty)
    total = num_chains * chain_length
    if kind == "single":
        cells = rng.integers(0, total, size=batch_size, dtype=np.int64)
        return PatternBatch.from_cells(
            num_chains, chain_length, batch_size, "single",
            _read_only(np.arange(batch_size, dtype=np.int64)), cells,
            one_per_sequence=True)
    if num_errors <= 0:
        raise ValueError("number of errors must be positive")
    seqs = np.repeat(np.arange(batch_size, dtype=np.int64), num_errors)
    if kind == "multiple":
        cells = _distinct_cells(rng, batch_size, total, num_errors)
        return PatternBatch.from_cells(
            num_chains, chain_length, batch_size, "multiple", seqs,
            cells.reshape(-1))
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
        # Window cell w sits w // window_positions chains and
        # w % window_positions cycles past the window's corner; the
        # offsets keep the window's ascending order.
        offsets = np.arange(window, dtype=np.int64)
        offsets = (offsets // window_positions * chain_length
                   + offsets % window_positions)
        corner = chain0 * chain_length + pos0
        return PatternBatch.from_cells(
            num_chains, chain_length, batch_size, "burst", seqs,
            (corner[:, None] + offsets[cells]).reshape(-1))
    raise ValueError(
        f"unknown pattern kind {kind!r}; choose from "
        f"('single', 'burst', 'multiple', 'none')")


__all__ = [
    "PatternBatch",
    "coords_scatter",
    "pattern_batch_coords",
    "pattern_batch_csr",
    "sample_pattern_batch",
]
