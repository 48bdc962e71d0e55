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


__all__ = [
    "pack_chains",
    "write_back_chains",
]
