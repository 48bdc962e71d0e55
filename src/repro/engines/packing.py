"""Chain-state packing helpers shared by the integer-based engines.

The packed and SIMD engines snapshot the design's per-flop chains
into packed integers before a pass and write the corrected integers
back afterwards; these helpers are the single
implementation of that boundary (bit ``i`` of a packed chain state is
the flop at scan position ``i``; unknown flops have a 0 known bit and a
0 state bit, matching the monitors' treat-X-as-0 rule).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.circuit.scan import ScanChain
from repro.fastpath.packed_chain import pack_state


def pack_chains(chains: Sequence[ScanChain]) -> Tuple[List[int], List[int]]:
    """Snapshot the chains into packed ``(states, knowns)`` integers."""
    states: List[int] = []
    knowns: List[int] = []
    for chain in chains:
        state, known = pack_state([flop.q for flop in chain.flops])
        states.append(state)
        knowns.append(known)
    return states, knowns


def write_back_chains(chains: Sequence[ScanChain], old_states: Sequence[int],
                      old_knowns: Sequence[int],
                      new_states: Sequence[int]) -> None:
    """Write packed decode results back into the flop objects.

    Only bits that changed value (or were unknown and are now driven to
    a known value) are touched, so a clean decode pass costs no
    per-flop writes at all.
    """
    if not chains:
        return
    full = (1 << len(chains[0])) - 1
    for chain, old, known, new in zip(chains, old_states, old_knowns,
                                      new_states):
        stale = (old ^ new) | (full & ~known)
        if not stale:
            continue
        flops = chain.flops
        while stale:
            low = stale & -stale
            stale ^= low
            i = low.bit_length() - 1
            flops[i].force((new >> i) & 1)


def replicate_states(states: Sequence[int], chain_length: int,
                     full: int) -> List[List[int]]:
    """Broadcast packed chain states into bit planes (every sequence of
    the batch starts from the same state).

    ``planes[c][i]`` is scan position ``i`` of chain ``c``: ``full``
    (all sequences 1) where the state bit is set, 0 otherwise.
    """
    return [[full if (state >> i) & 1 else 0 for i in range(chain_length)]
            for state in states]


def planes_from_states(per_sequence_states: Sequence[Sequence[int]],
                       chain_length: int) -> List[List[int]]:
    """Transpose per-sequence packed chain states into bit planes.

    ``per_sequence_states[b][c]`` is sequence ``b``'s packed state of
    chain ``c``; the result is indexed ``planes[c][i]`` with bit ``b``
    belonging to sequence ``b``.  O(total set bits) -- intended for
    tests and adapters, not hot loops (hot paths generate plane-form
    state directly).
    """
    if not per_sequence_states:
        raise ValueError("at least one sequence is required")
    num_chains = len(per_sequence_states[0])
    planes = [[0] * chain_length for _ in range(num_chains)]
    for b, states in enumerate(per_sequence_states):
        bit = 1 << b
        for c, state in enumerate(states):
            chain_planes = planes[c]
            remaining = state
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                chain_planes[low.bit_length() - 1] |= bit
    return planes


def states_from_planes(planes: Sequence[Sequence[int]],
                       sequence: int) -> List[int]:
    """Collapse one sequence's packed chain states out of bit planes."""
    bit = 1 << sequence
    return [sum(1 << i for i, plane in enumerate(chain_planes)
                if plane & bit)
            for chain_planes in planes]


__all__ = [
    "pack_chains",
    "write_back_chains",
    "replicate_states",
    "planes_from_states",
    "states_from_planes",
]
