"""Chain-state packing helpers shared by the integer-based engines.

The packed and SIMD engines snapshot the design's per-flop chains
into packed integers before a pass and write the corrected integers
back afterwards; these helpers are the single
implementation of that boundary (bit ``i`` of a packed chain state is
the flop at scan position ``i``; unknown flops have a 0 known bit and a
0 state bit, matching the monitors' treat-X-as-0 rule).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.circuit.flipflop import flop_values
from repro.circuit.scan import ScanChain


#: Flop value -> one byte code, and the code -> binary-digit tables of
#: the ``state`` and ``known`` integers.
_VALUE_CODE = {0: 0, 1: 1, None: 2}
_STATE_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"010")
_KNOWN_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"110")


def pack_state(values: Sequence[Optional[int]]) -> Tuple[int, int]:
    """Pack scan-in-side-first values into ``(state, known)`` integers.

    ``values[i]`` (scan position ``i``) lands in bit ``i``.  ``None``
    marks an unknown bit: its ``known`` bit is 0 and its ``state`` bit
    is forced to 0.  Any other value raises ``ValueError``.
    """
    try:
        codes = bytes(map(_VALUE_CODE.__getitem__, values))[::-1]
    except KeyError as exc:
        raise ValueError(
            f"bit values must be 0, 1 or None; got {exc.args[0]!r}") from None
    if not codes:
        return 0, 0
    return (int(codes.translate(_STATE_DIGITS), 2),
            int(codes.translate(_KNOWN_DIGITS), 2))


def pack_chains(chains: Sequence[ScanChain]) -> Tuple[List[int], List[int]]:
    """Snapshot the chains into packed ``(states, knowns)`` integers."""
    states: List[int] = []
    knowns: List[int] = []
    for chain in chains:
        state, known = pack_state(flop_values(chain))
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
        while stale:
            low = stale & -stale
            stale ^= low
            i = low.bit_length() - 1
            chain[i].force((new >> i) & 1)


__all__ = [
    "pack_chains",
    "pack_state",
    "write_back_chains",
]
