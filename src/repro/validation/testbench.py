"""The FIFO validation test bench (paper Fig. 8).

Reproduces the five-stage test sequence of Section IV around a
protected FIFO (FIFO_A) and an error-free reference FIFO (FIFO_B):

1. reset both FIFOs so they start in the same state;
2. write the same random data to both;
3. send the sleep signal to FIFO_A (encode + retention save + gate off);
4. wait for sleep, then send the wake-up signal (gate on + restore +
   decode/correct); the error injector may corrupt FIFO_A in between;
5. read both FIFOs and compare the outputs.

The event counter of Fig. 8 is represented by the returned
:class:`TestSequenceResult` records and their aggregation in
:class:`~repro.campaigns.stats.StreamingCampaignResult`.

Batched runs load the FIFO once and simulate every sequence of the
batch as a virtual copy of that state, with stage 5 replaced by a
state-domain comparator: :meth:`FIFOTestbench.run_sequence_batch`
takes one :class:`~repro.faults.patterns.ErrorPattern` (or ``None``)
per sequence and returns per-sequence records, and
:meth:`FIFOTestbench.run_sequence_batch_summary` takes the whole
injection as one :class:`~repro.faults.batch.PatternBatch` and returns
columnar verdicts.  The summary path does not even load the FIFO: it
builds the loaded state's packed scan-chain snapshot from a cached
image of stages 1--2 and the batch's stimulus words.
:meth:`FIFOTestbench.run_sequence_batches_summary` runs a campaign
chunk's summary batches in one scope that walks the flops once.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.circuit.fifo import SyncFIFO
from repro.circuit.flipflop import RetentionFlipFlop, flop_values
from repro.core.controller import ErrorCode
from repro.core.protected import CycleOutcome, ProtectedDesign
from repro.engines.base import BatchOutcomeArrays
from repro.faults.patterns import ErrorPattern
from repro.validation.comparator import Comparator, ComparisonResult
from repro.validation.stimulus import StimulusGenerator

if TYPE_CHECKING:  # numpy-backed; the object paths run without it
    from repro.faults.batch import PatternBatch


@dataclass(frozen=True)
class TestSequenceResult:
    """Outcome of one five-stage test sequence.

    Combines the monitor's view (from the protected design's
    :class:`~repro.core.protected.CycleOutcome`) with the comparator's
    ground-truth view of the architectural state.
    """

    cycle: CycleOutcome
    comparison: ComparisonResult
    words_written: int

    @property
    def error_reported(self) -> bool:
        """True when FIFO_A's monitor reported anything (the paper's
        "errors reported by FIFO_A" counter input)."""
        return self.cycle.detected

    @property
    def mismatch_reported(self) -> bool:
        """True when the comparator found FIFO_A != FIFO_B."""
        return not self.comparison.match

    @property
    def outcome_consistent(self) -> bool:
        """Monitor verdict is not contradicted by the comparator.

        The dangerous case is a *missed* corruption: the comparator sees
        wrong data coming out of FIFO_A while the monitor claimed the
        state was clean or fully repaired.  The converse (monitor flags
        an uncorrectable error but the comparator happens to see
        matching outputs) is consistent --- the corrupted bits may live
        in state the read-out does not observe, e.g. unoccupied FIFO
        rows or pointer wrap bits.
        """
        if not self.mismatch_reported:
            return True
        return self.cycle.error_code is ErrorCode.UNCORRECTABLE


@dataclass(frozen=True, slots=True)
class BatchSequenceResult:
    """Outcome of one sequence of a *batched* test run.

    Slotted: :meth:`FIFOTestbench.run_sequence_batch` builds one of
    these per sequence of every batch, so allocation cost matters at
    campaign scale (the columnar summary path of
    :meth:`FIFOTestbench.run_sequence_batch_summary` builds none).

    Batched sequences are simulated as virtual copies of one loaded
    FIFO state (see
    :meth:`~repro.core.protected.ProtectedDesign.sleep_wake_cycle_batch`),
    so stage 5's read-out comparison is replaced by a **state-domain
    comparator**: the ground truth is the bit-for-bit architectural
    state (``cycle.state_intact``) instead of replaying FIFO reads.
    This is strictly *stronger* than the read-out comparator -- a
    corruption hiding in unobserved state (unoccupied rows, pointer
    wrap bits) still counts as a mismatch -- and it is identical across
    engines, which is what makes batched campaigns bit-reproducible
    between the columnar summary path and the per-sequence batch.

    The property names mirror :class:`TestSequenceResult` so the
    streaming campaign counters consume either interchangeably.
    """

    cycle: CycleOutcome
    words_written: int

    @property
    def error_reported(self) -> bool:
        """True when FIFO_A's monitor reported anything."""
        return self.cycle.detected

    @property
    def mismatch_reported(self) -> bool:
        """True when the architectural state differs from the pre-sleep
        state (the state-domain comparator's verdict)."""
        return not self.cycle.state_intact

    @property
    def outcome_consistent(self) -> bool:
        """Monitor verdict is not contradicted by the state comparison
        (same rule as :attr:`TestSequenceResult.outcome_consistent`)."""
        if not self.mismatch_reported:
            return True
        return self.cycle.error_code is ErrorCode.UNCORRECTABLE


class FIFOTestbench:
    """Software equivalent of the paper's FPGA test bench.

    Parameters
    ----------
    protected_fifo:
        The protected design wrapping FIFO_A.  Its circuit must be a
        :class:`~repro.circuit.fifo.SyncFIFO`.
    reference_fifo:
        FIFO_B; created automatically (same geometry) when omitted.
    stimulus:
        The random data source; created from ``seed`` when omitted.
    words_per_sequence:
        How many words stage 2 writes into both FIFOs (defaults to half
        the FIFO depth so pointer wrap-around is exercised over a
        campaign).
    seed:
        Seed for the default stimulus generator.
    """

    def __init__(self, protected_fifo: ProtectedDesign,
                 reference_fifo: Optional[SyncFIFO] = None,
                 stimulus: Optional[StimulusGenerator] = None,
                 words_per_sequence: Optional[int] = None,
                 seed: Optional[int] = 2010):
        if not isinstance(protected_fifo.circuit, SyncFIFO):
            raise TypeError(
                "FIFOTestbench requires a ProtectedDesign wrapping a SyncFIFO")
        self.dut_design = protected_fifo
        self.dut: SyncFIFO = protected_fifo.circuit
        if reference_fifo is not None and (
                reference_fifo.width != self.dut.width
                or reference_fifo.depth != self.dut.depth):
            raise ValueError(
                "reference FIFO must have the same geometry as the DUT")
        self._reference = reference_fifo
        self.stimulus = (stimulus if stimulus is not None
                         else StimulusGenerator(self.dut.width, seed=seed))
        self.words_per_sequence = (words_per_sequence
                                   if words_per_sequence is not None
                                   else max(1, self.dut.depth // 2))
        self.comparator = Comparator()
        self._image: Optional[_StimulusImage] = None

    @property
    def reference(self) -> SyncFIFO:
        """FIFO_B.  The default one is built on first use: only
        :meth:`run_sequence` reads it, so batch and summary campaigns
        never pay for its ~1 000 flops."""
        if self._reference is None:
            self._reference = SyncFIFO(self.dut.width, self.dut.depth,
                                       name=f"{self.dut.name}_ref")
        return self._reference

    # ------------------------------------------------------------------
    def run_sequence(self, injection: Optional[ErrorPattern] = None,
                     inject_phase: str = "sleep") -> TestSequenceResult:
        """Run one five-stage test sequence with optional injection."""
        # Stage 1: reset both FIFOs to the same state.
        self.dut.reset()
        self.reference.reset()
        # Stage 2: write the same random data to both.
        words = self.stimulus.burst(self.words_per_sequence)
        for word in words:
            self.dut.push(word)
            self.reference.push(list(word))
        # Stages 3 and 4: sleep, (inject), wake, decode.
        cycle = self.dut_design.sleep_wake_cycle(
            injection=injection, inject_phase=inject_phase)
        # Stage 5: read both FIFOs and compare.
        comparison = self.comparator.compare(self.dut, self.reference)
        return TestSequenceResult(cycle=cycle, comparison=comparison,
                                  words_written=len(words))

    def run_sequence_batch(self,
                           injections: Sequence[Optional[ErrorPattern]],
                           inject_phase: str = "sleep"
                           ) -> List[BatchSequenceResult]:
        """Run a batch of test sequences from one loaded FIFO state.

        Stages 1--2 run once for the batch (reset, one random burst
        into FIFO_A); stages 3--4 run as a
        :meth:`~repro.core.protected.ProtectedDesign.sleep_wake_cycle_batch`
        with one injection per sequence -- one scalar cycle each, on
        any engine; stage 5 uses the state-domain comparator of
        :class:`BatchSequenceResult`.  This is the per-sequence
        reference of :meth:`run_sequence_batch_summary` (the batched
        campaign smoke and the benchmark cross-checks compare the two)
        and the batch path of engines without summary support.
        """
        self.dut.reset()
        words = self.stimulus.burst(self.words_per_sequence)
        for word in words:
            self.dut.push(word)
        outcomes = self.dut_design.sleep_wake_cycle_batch(
            injections, inject_phase=inject_phase)
        return [BatchSequenceResult(cycle=outcome, words_written=len(words))
                for outcome in outcomes]

    def run_sequence_batch_summary(self, flips, batch_size: int,
                                   inject_phase: str = "sleep"):
        """Run a batch of test sequences, returning columnar verdicts.

        The summary twin of :meth:`run_sequence_batch`: stages 1--2 run
        once for the batch (reset, one stimulus burst -- drawn from the
        *same* stimulus stream as :meth:`run_sequence_batch`, so the
        two see identical loaded states), stages 3--5 run as one
        :meth:`~repro.core.protected.ProtectedDesign.\
sleep_wake_cycle_batch_summary` whose vectorised state-domain
        comparator doubles as stage 5.  ``flips`` is the batch's
        injection, a :class:`~repro.faults.batch.PatternBatch` (array
        engines resolve it without per-flip Python work).  Returns a
        :class:`~repro.engines.base.BatchOutcomeArrays`; the campaign
        counters ingest it through
        :meth:`~repro.campaigns.stats.StreamingCampaignResult.add_batch`
        with statistics bit-identical to :meth:`run_sequence_batch`'s.

        The DUT's flops are not loaded per batch: the loaded pre-sleep
        state is built as a packed ``(states, knowns)`` snapshot from
        an image of stages 1--2 (see :meth:`_loaded_snapshot`) and
        handed to the design, so a batch costs no per-flop work.  The
        DUT's registers keep whatever they held before the call.  The
        stimulus words are drawn every batch, so the stream is the same
        whichever path the engine takes; the snapshot's states fold
        them only when the engine reads the states (the dense pass
        does, the single-flip table path does not).
        """
        # One draw per word, the draw ``burst`` would split into bits.
        draw = self.stimulus.next_int
        snapshot = self._loaded_snapshot(
            [draw() for _ in range(self.words_per_sequence)])
        return self.dut_design.sleep_wake_cycle_batch_summary(
            snapshot, flips, batch_size, inject_phase=inject_phase)

    def run_sequence_batches_summary(
            self, batches: Iterable[Tuple[PatternBatch, int]],
            inject_phase: str = "sleep") -> Iterator[BatchOutcomeArrays]:
        """Run a chunk of summary batches, yielding each one's verdicts.

        ``batches`` yields ``(flips, batch_size)`` pairs; each runs
        exactly as :meth:`run_sequence_batch_summary` (its own stimulus
        burst, snapshot and engine call) and its
        :class:`~repro.engines.base.BatchOutcomeArrays` is yielded
        before the next pair is drawn, so a chunk streams one batch at
        a time.  What the chunk shares is the flop bookkeeping: the
        design's registers and scan padding are walked once, on the
        first ``next()`` and before the first pair is drawn, instead
        of once per batch (a powered-off flop raises ``retain``'s
        ``RuntimeError`` there, before the controller or the domain
        leaves ACTIVE).  The controller/domain cycle stays once per
        batch, with its per-batch counts and wake record.

        Until the generator is exhausted or closed, drive the design
        through it only (see
        :meth:`~repro.core.protected.ProtectedDesign._summary_chunk`).
        """
        with self.dut_design._summary_chunk():
            for flips, batch_size in batches:
                yield self.run_sequence_batch_summary(flips, batch_size,
                                                      inject_phase)

    def _loaded_snapshot(self, words: Sequence[int]):
        """The packed ``(states, knowns)`` chains of the DUT as stages
        1--2 would leave it after resetting and pushing ``words``
        (integers, bit ``i`` the word's data bit ``i``).

        ``knowns`` is a list, built here: the image's knowns plus the
        scan padding cells, which no stage resets and which are read
        from their flops.  ``states`` is a :class:`_LoadedStates`, a
        read-only sequence that folds the words into the image (see
        there) on its first element access or iteration, at most once.
        Its length needs no fold.  The table path of the simd engine
        and the fused jit kernel read only the knowns, so on a
        single-error batch the fold never runs; the dense pass and a
        single-flip table build iterate the states and fold them.
        Everything the fold reads -- the words, the image and the
        padding flops' values -- is captured here, so a later fold is
        bit-identical to an eager one.
        """
        image = self._stimulus_image()
        knowns = image.knowns
        ones: List[Tuple[int, int]] = []
        if image.padding:
            knowns = list(knowns)
            for flop, chain, mask in image.padding:
                value = flop.q
                if value is not None:
                    knowns[chain] |= mask
                    if value:
                        ones.append((chain, mask))
        return _LoadedStates(image, words, ones), knowns

    def _stimulus_image(self) -> "_StimulusImage":
        """The stages 1--2 image, built on first use and rebuilt when
        ``words_per_sequence`` or the design's chains change.

        The baseline runs the object model once -- ``reset()`` then
        ``words_per_sequence`` all-zero pushes -- and packs the chains,
        recording the scan cells of the row each push writes (none for
        a push into a full FIFO).  The padding cells are cleared from
        the baseline; the DUT's registers are put back afterwards.
        """
        design = self.dut_design
        image = self._image
        if (image is not None and image.num_words == self.words_per_sequence
                and image.chains is design.chains):
            return image
        length = design.chain_length
        width = self.dut.width
        registers = self.dut.registers
        # Every chain holds ``length`` flops, so a flop's place in the
        # chains' concatenation is its cell index.
        flops = [flop for scan_chain in design.chains
                 for flop in scan_chain]
        cells = dict(zip(map(id, flops), range(len(flops))))
        saved = flop_values(registers)
        self.dut.reset()
        zero = [0] * width
        word_tables = []
        # Rows laid out alike (the FIFO's rows are runs of consecutive
        # cells) share one set of tables.
        shared: Dict[Tuple[int, ...], List[List[int]]] = {}
        for _ in range(self.words_per_sequence):
            row = self.dut.next_write_row()
            written = ([] if row is None
                       else [cells[id(flop)] for flop in
                             registers[row * width:(row + 1) * width]])
            shift = min(written, default=0)
            offsets = tuple(cell - shift for cell in written)
            tables = shared.get(offsets)
            if tables is None:
                tables = shared[offsets] = _nibble_tables(
                    [1 << offset for offset in offsets])
            word_tables.append((shift, tables))
            self.dut.push(zero)
        states, knowns = design._pack_chains()
        self.dut.load_state(saved)
        padding = []
        for flop in design._padding:
            chain, position = divmod(cells[id(flop)], length)
            padding.append((flop, chain, 1 << position))
            states[chain] &= ~(1 << position)
            knowns[chain] &= ~(1 << position)
        baseline = 0
        for chain, state in enumerate(states):
            baseline |= state << (chain * length)
        self._image = _StimulusImage(self.words_per_sequence, design.chains,
                                     length, baseline, knowns, word_tables,
                                     padding)
        return self._image


def _nibble_tables(masks: List[int]) -> List[List[int]]:
    """XOR tables of the cell masks of each group of four consecutive
    data bits: entry ``v`` of group ``g``'s table is the XOR of
    ``masks[4 * g + i]`` over the set bits ``i`` of ``v``.  Each entry
    extends a smaller one by its lowest bit, so a table costs 15 XORs."""
    tables = []
    for start in range(0, len(masks), 4):
        group = masks[start:start + 4]
        table = [0] * (1 << len(group))
        for value in range(1, len(table)):
            low = value & -value
            table[value] = table[value ^ low] ^ group[low.bit_length() - 1]
        tables.append(table)
    return tables


@dataclass(frozen=True)
class _StimulusImage:
    """Packed baseline of the loaded DUT (see
    :meth:`FIFOTestbench._stimulus_image`)."""

    num_words: int
    chains: list
    chain_length: int
    #: The all-zero load, chain ``c`` at bits ``c * chain_length`` on.
    baseline: int
    knowns: List[int]
    #: Per pushed word, its lowest cell and the nibble tables of
    #: :func:`_nibble_tables` over its cells counted from there.
    word_tables: List[Tuple[int, List[List[int]]]]
    #: ``(flop, chain, mask)`` of every scan padding cell.
    padding: List[Tuple[RetentionFlipFlop, int, int]]


class _LoadedStates(abc.Sequence):
    """The packed per-chain states of a loaded DUT, folded on first
    read (see :meth:`FIFOTestbench._loaded_snapshot`).

    The image holds the all-zero baseline as one integer with chain
    ``c`` at bits ``c * l`` onwards, and per pushed word one 16-entry
    table per four data bits, whose entry ``v`` is the XOR of the scan
    cells of the set bits of ``v`` (counted from the word's lowest
    cell, so the entries stay word-sized).  Each word folds in a
    nibble at a time, the result splits into the chains, and the
    padding cells captured as ones are set.  The fold reads only the
    captured ``image``, ``words`` and ``ones``.
    """

    __slots__ = ("_image", "_words", "_ones", "_states")

    def __init__(self, image: "_StimulusImage", words: Sequence[int],
                 ones: List[Tuple[int, int]]):
        self._image = image
        self._words = words
        #: ``(chain, mask)`` of every padding cell that held a one.
        self._ones = ones
        self._states: Optional[List[int]] = None

    def __len__(self) -> int:
        return len(self._image.knowns)

    def __getitem__(self, index):
        return self._fold()[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._fold())

    def _fold(self) -> List[int]:
        states = self._states
        if states is None:
            image = self._image
            loaded = image.baseline
            for value, (shift, tables) in zip(self._words,
                                              image.word_tables):
                word = 0
                for table in tables:
                    word ^= table[value & 15]
                    value >>= 4
                loaded ^= word << shift
            length = image.chain_length
            full = (1 << length) - 1
            states = [(loaded >> shift) & full
                      for shift in range(0, len(image.knowns) * length,
                                         length)]
            for chain, mask in self._ones:
                states[chain] |= mask
            self._states = states
        return states


__all__ = ["FIFOTestbench", "TestSequenceResult", "BatchSequenceResult"]
