"""Plan layer: the deterministic chunk plan as pure, immutable data.

A campaign's execution order, worker count and executor kind must never
change its statistics, so everything those layers consume is derived
from one pure value: the :class:`ChunkPlan`.  It is a function of the
``(root_seed, total_sequences, chunk_size)`` identity triple alone --
chunk boundaries from arithmetic, per-chunk seeds from the hash
splitting of :mod:`repro.campaigns.seeding` -- and it carries no
behaviour beyond bookkeeping queries.  The executor layer
(:mod:`repro.campaigns.executors`) turns plan entries into results; the
checkpoint layer (:mod:`repro.campaigns.checkpoints`) persists results
keyed by plan index; the scheduler (:mod:`repro.campaigns.scheduler`)
interleaves entries from many plans.  None of them re-derives seeds or
boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Tuple, Union

from repro.campaigns.seeding import spawn_seeds

RootSeed = Union[int, str]


class ChunkPlanEntry(NamedTuple):
    """One schedulable unit of campaign work.

    A plain tuple ``(index, chunk_seed, count)``: chunk ``index`` runs
    ``count`` sequences seeded from ``chunk_seed``.  Entries are what
    executors consume and what checkpoints key on.
    """

    index: int
    chunk_seed: int
    count: int


def default_chunk_size(total_sequences: int) -> int:
    """Default chunk size: ~64 chunks per campaign.

    Depends only on the total sequence count (worker-count independent,
    as required for determinism) and keeps enough chunks in flight to
    load-balance a typical worker pool while amortising per-chunk
    test-bench construction.
    """
    return max(1, math.ceil(total_sequences / 64))


def resolve_chunk_size(total_sequences: int, chunk_size: "int | None",
                       granularity: int = 1) -> int:
    """The effective chunk size of a campaign.

    An explicit ``chunk_size`` is always respected as-is; otherwise the
    default is rounded up to a multiple of the task's ``granularity``
    (e.g. a batch engine's batch size), so default-sized chunks never
    truncate every batch.
    """
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        return chunk_size
    granularity = max(1, granularity)
    base = default_chunk_size(total_sequences)
    return math.ceil(base / granularity) * granularity


@dataclass(frozen=True)
class ChunkPlan:
    """The full, immutable plan of one campaign.

    ``entries`` is the deterministic expansion of the identity triple
    ``(root_seed, total_sequences, chunk_size)``: chunk seeds are
    spawned by hash splitting from the root, only the final chunk may
    be short, and the counts sum exactly to ``total_sequences``.  Equal
    triples give equal plans -- that is the whole determinism story:
    any executor that runs every entry of the same plan and merges the
    results in index order produces bit-identical statistics.
    """

    root_seed: RootSeed
    total_sequences: int
    chunk_size: int
    entries: Tuple[ChunkPlanEntry, ...]

    @classmethod
    def build(cls, root_seed: RootSeed, total_sequences: int,
              chunk_size: int) -> "ChunkPlan":
        """Expand one identity triple into its plan."""
        if total_sequences <= 0:
            raise ValueError("the campaign needs at least one sequence")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        num_chunks = math.ceil(total_sequences / chunk_size)
        seeds = spawn_seeds(root_seed, num_chunks, "chunk")
        entries = []
        remaining = total_sequences
        for index, seed in enumerate(seeds):
            count = min(chunk_size, remaining)
            entries.append(ChunkPlanEntry(index, seed, count))
            remaining -= count
        return cls(root_seed=root_seed, total_sequences=total_sequences,
                   chunk_size=chunk_size, entries=tuple(entries))

    @property
    def num_chunks(self) -> int:
        """Number of chunks in the plan."""
        return len(self.entries)

    @property
    def identity(self) -> Tuple[RootSeed, int, int]:
        """The ``(root_seed, total_sequences, chunk_size)`` triple the
        plan is a pure function of."""
        return (self.root_seed, self.total_sequences, self.chunk_size)

    def counts(self) -> Dict[int, int]:
        """Sequence count per chunk index."""
        return {entry.index: entry.count for entry in self.entries}

    def pending(self, completed) -> List[ChunkPlanEntry]:
        """Entries whose index is not in ``completed`` (a set or dict
        of chunk indices), in plan order."""
        return [entry for entry in self.entries
                if entry.index not in completed]

    def __iter__(self) -> Iterator[ChunkPlanEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


__all__ = [
    "ChunkPlan",
    "ChunkPlanEntry",
    "default_chunk_size",
    "resolve_chunk_size",
]
