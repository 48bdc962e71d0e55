"""Scan-stream error injector (paper Fig. 6).

The paper validates the methodology by injecting errors *through the
scan chains themselves*: a column injector (a shift register advancing
with the scan clock) selects the bit position along the chains, a row
injector selects which chains are hit, and an AND/XOR network flips the
selected scan-out bits as they are fed back into the scan-in ports.
After one full circulation the flipped bits have been latched back into
the circuit, i.e. the architectural state now contains the errors.

:class:`ScanErrorInjector` reproduces that behaviour against
:class:`~repro.circuit.scan.ScanChain` objects.  It can be driven either
by an explicit :class:`~repro.faults.patterns.ErrorPattern` or by the
LFSR-based random location generator the paper's hardware uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.circuit.flipflop import RetentionFlipFlop
from repro.circuit.scan import ScanChain
from repro.faults.lfsr import LFSR
from repro.faults.patterns import ErrorPattern


#: When a sleep/wake cycle injects: ``"sleep"`` corrupts the retention
#: latches while the domain is asleep (:meth:`ScanErrorInjector.\
#: inject_retention`), ``"post_wake"`` the restored state
#: (:meth:`ScanErrorInjector.inject_direct`, the Fig. 6 hardware's
#: effect).
INJECT_PHASES = ("sleep", "post_wake")


def check_inject_phase(inject_phase: str) -> None:
    """Raise ``ValueError`` unless ``inject_phase`` is one of
    :data:`INJECT_PHASES`; every entry point that takes one calls
    this, so all of them give the same message."""
    if inject_phase not in INJECT_PHASES:
        raise ValueError(
            f"unknown inject_phase {inject_phase!r}; choose from "
            f"{INJECT_PHASES}")


@dataclass(frozen=True)
class InjectionPlan:
    """Resolved injection coordinates for one injection cycle.

    ``row_vector`` and ``column_vector`` are the contents of the paper's
    row and column injector registers: ``row_vector[c]`` is 1 when chain
    ``c`` is targeted, ``column_vector[p]`` is 1 when bit position ``p``
    is targeted.  The actual flipped coordinates are their conjunction,
    restricted to the requested pattern.
    """

    pattern: ErrorPattern
    row_vector: Tuple[int, ...]
    column_vector: Tuple[int, ...]
    flipped: Tuple[Tuple[int, int], ...] = field(default_factory=tuple)

    @property
    def num_flipped(self) -> int:
        """Number of bits actually flipped by this injection."""
        return len(self.flipped)


class ScanErrorInjector:
    """Injects errors into a set of scan chains by flipping recirculated bits.

    Parameters
    ----------
    chains:
        The scan chains of the design under attack.  All chains must
        have the same length (the paper's monitoring configuration uses
        balanced chains).
    lfsr_seed:
        Seed of the internal LFSRs used when random locations are
        requested.
    """

    def __init__(self, chains: Sequence[ScanChain], lfsr_seed: int = 0xACE1):
        if not chains:
            raise ValueError("at least one scan chain is required")
        lengths = {len(chain) for chain in chains}
        if len(lengths) != 1:
            raise ValueError(
                f"all chains must have equal length for injection, got "
                f"lengths {sorted(lengths)}")
        self.chains = list(chains)
        self.chain_length = lengths.pop()
        self.num_chains = len(self.chains)
        seed = lfsr_seed if lfsr_seed != 0 else 1
        width = max(4, (self.num_chains * self.chain_length).bit_length() + 1)
        width = min(width, 32)
        if width not in (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
                         18, 19, 20, 24, 32):
            width = 16
        self._row_lfsr = LFSR(width, seed=(seed % ((1 << width) - 1)) or 1)
        self._col_lfsr = LFSR(width, seed=((seed * 3) % ((1 << width) - 1)) or 1)
        self._history: List[InjectionPlan] = []

    # ------------------------------------------------------------------
    @property
    def history(self) -> List[InjectionPlan]:
        """All injections performed so far."""
        return list(self._history)

    def random_single_pattern(self) -> ErrorPattern:
        """Draw a single-error pattern from the hardware-style LFSRs."""
        chain = self._row_lfsr.randrange(self.num_chains)
        position = self._col_lfsr.randrange(self.chain_length)
        return ErrorPattern(locations=frozenset({(chain, position)}),
                            kind="single")

    def random_multi_pattern(self, num_errors: int) -> ErrorPattern:
        """Draw a multi-error pattern from the hardware-style LFSRs."""
        if num_errors <= 0:
            raise ValueError("number of errors must be positive")
        total = self.num_chains * self.chain_length
        if num_errors > total:
            raise ValueError(
                f"cannot place {num_errors} errors in {total} bits")
        chosen: Set[Tuple[int, int]] = set()
        while len(chosen) < num_errors:
            chain = self._row_lfsr.randrange(self.num_chains)
            position = self._col_lfsr.randrange(self.chain_length)
            chosen.add((chain, position))
        return ErrorPattern(locations=frozenset(chosen), kind="multiple")

    # ------------------------------------------------------------------
    def _vectors_for(self, pattern: ErrorPattern
                     ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        row = [0] * self.num_chains
        col = [0] * self.chain_length
        for chain, position in pattern.locations:
            if chain >= self.num_chains or position >= self.chain_length:
                raise ValueError(
                    f"error location ({chain}, {position}) outside the "
                    f"{self.num_chains}x{self.chain_length} scan array")
            row[chain] = 1
            col[position] = 1
        return tuple(row), tuple(col)

    def inject(self, pattern: ErrorPattern) -> InjectionPlan:
        """Inject a pattern by circulating the chains once and flipping bits.

        The chains are shifted through one full rotation with the
        scan-out looped back to the scan-in; bits at the pattern's
        coordinates are inverted on the loop-back path (the XOR of the
        paper's Fig. 6), so after ``chain_length`` cycles the circuit
        state carries exactly the requested flips and everything else is
        unchanged.
        """
        row_vector, column_vector = self._vectors_for(pattern)
        wanted: Dict[int, Set[int]] = {}
        for chain, position in pattern.locations:
            wanted.setdefault(chain, set()).add(position)

        flipped: List[Tuple[int, int]] = []
        length = self.chain_length
        for cycle in range(length):
            for chain_index, chain in enumerate(self.chains):
                out_bit = chain.scan_out
                # The bit leaving scan-out on this cycle originated from
                # scan position (length - 1 - cycle) counting from the
                # scan-in side.
                source_position = length - 1 - cycle
                inject_here = (chain_index in wanted
                               and source_position in wanted[chain_index])
                if inject_here and out_bit is not None:
                    out_bit ^= 1
                    flipped.append((chain_index, source_position))
                chain.shift(out_bit)

        plan = InjectionPlan(pattern=pattern, row_vector=row_vector,
                             column_vector=column_vector,
                             flipped=tuple(sorted(flipped)))
        self._history.append(plan)
        return plan

    def inject_direct(self, pattern: ErrorPattern) -> InjectionPlan:
        """Flip the targeted flip-flops in place, without circulating.

        Functionally equivalent to :meth:`inject` (the architectural
        state ends up with the same flips) but without the
        ``chain_length`` scan cycles; used by large Monte-Carlo
        campaigns where the scan traffic itself is not under test.
        """
        row_vector, column_vector = self._vectors_for(pattern)
        flipped: List[Tuple[int, int]] = []
        for chain_index, position in sorted(pattern.locations):
            flop = self.chains[chain_index][position]
            if flop.q is not None:
                flop.flip()
                flipped.append((chain_index, position))
        plan = InjectionPlan(pattern=pattern, row_vector=row_vector,
                             column_vector=column_vector,
                             flipped=tuple(flipped))
        self._history.append(plan)
        return plan

    def inject_retention(self, pattern: ErrorPattern) -> InjectionPlan:
        """Flip the targeted *retention latches* (sleep-mode corruption).

        This models the actual physical failure: the upset happens in
        the always-on retention latch while the domain sleeps, and only
        becomes architectural state after the restore.  Only meaningful
        for chains built from retention flip-flops.
        """
        row_vector, column_vector = self._vectors_for(pattern)
        flipped: List[Tuple[int, int]] = []
        for chain_index, position in sorted(pattern.locations):
            flop = self.chains[chain_index][position]
            if not isinstance(flop, RetentionFlipFlop):
                raise TypeError(
                    f"flop {flop.name!r} has no retention latch to corrupt")
            flop.corrupt_retention()
            flipped.append((chain_index, position))
        plan = InjectionPlan(pattern=pattern, row_vector=row_vector,
                             column_vector=column_vector,
                             flipped=tuple(flipped))
        self._history.append(plan)
        return plan


__all__ = ["INJECT_PHASES", "InjectionPlan", "ScanErrorInjector",
           "check_inject_phase"]
