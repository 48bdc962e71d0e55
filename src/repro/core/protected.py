"""Protected power-gated design: the full methodology in one object.

:class:`ProtectedDesign` wires together everything the paper's Fig. 2
shows around the power-gated circuit (PGC):

* the scan chains (re)configured for monitoring (Fig. 5(a));
* the bank of state monitoring blocks, one per ``monitor_width`` chains
  for block codes, one shared block for CRC;
* the error correction block on the scan feedback path;
* the monitored power-gating controller (Fig. 3(b));
* the power domain with its sleep transistors, rush-current model and
  (optionally) the droop-driven retention upset model.

Its central method, :meth:`ProtectedDesign.sleep_wake_cycle`, runs one
complete encode -> sleep -> wake -> decode sequence with optional fault
injection and reports what was injected, detected and corrected ---
which is precisely the paper's FPGA test sequence (Section IV), minus
the serial port.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Callable, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from repro.circuit.base import SequentialCircuit
from repro.circuit.flipflop import (
    RetentionFlipFlop,
    flop_values,
    power_off_flops,
    power_on_flops,
    restore_flops,
    retain_flops,
)
from repro.circuit.netlist import Netlist
from repro.circuit.scan import ScanChain
from repro.circuit.state import StateSnapshot
from repro.codes.base import BlockCode, StreamCode
from repro.codes.registry import get_code
from repro.core.controller import ErrorCode, MonitoredPowerGatingController
from repro.core.corrector import ErrorCorrectionBlock
from repro.core.monitor import (
    MonitorBank,
    MonitorReport,
    build_monitor_blocks,
)
from repro.core.scan_config import ScanChainConfig
from repro.engines import registry as engine_registry
from repro.engines.base import SimulationEngine
from repro.engines.packing import pack_chains
from repro.faults.injector import ScanErrorInjector, check_inject_phase
from repro.faults.patterns import ErrorPattern
from repro.power.domain import PowerDomain, SwitchNetwork, WakeEvent
from repro.power.retention import RetentionUpsetModel
from repro.power.rush_current import RLCParameters
from repro.tech.area import AreaBreakdown, AreaEstimator
from repro.tech.energy import CodingCost, EnergyCalculator
from repro.tech.library import StandardCellLibrary, default_library
from repro.tech.power import PowerBreakdown, PowerEstimator

CodeSpec = Union[str, BlockCode, StreamCode]


@dataclass(frozen=True, slots=True)
class CycleOutcome:
    """Result of one monitored sleep/wake cycle.

    Slotted: per-sequence batches build one outcome per sequence, so
    allocation cost is a first-order term there (the columnar summary
    path builds none at all --
    :class:`~repro.engines.base.BatchOutcomeArrays`).

    Attributes
    ----------
    injected_errors:
        Number of register bits that actually differed from the
        pre-sleep state when the decode pass started (fault injection
        plus any droop-induced upsets).
    detected:
        True when any monitoring block reported a mismatch.
    corrected_claim:
        What the hardware believes: True when mismatches were observed
        and none of them was flagged uncorrectable.
    state_intact:
        Ground truth: True when the post-decode state equals the
        pre-sleep state bit for bit.
    residual_errors:
        Number of register bits still wrong after the decode pass.
    error_code:
        The error code raised by the controller (Fig. 3(b)).
    corrections_applied:
        Number of bit corrections performed by the correction block.
    wake_event:
        The rush-current/droop record of the wake-up.
    reports:
        Per-monitoring-block reports from the decode pass.
    """

    injected_errors: int
    detected: bool
    corrected_claim: bool
    state_intact: bool
    residual_errors: int
    error_code: ErrorCode
    corrections_applied: int
    wake_event: WakeEvent
    reports: Tuple[MonitorReport, ...] = field(default_factory=tuple)

    @property
    def fully_corrected(self) -> bool:
        """True when errors were present and the final state is intact."""
        return self.injected_errors > 0 and self.state_intact

    @property
    def silent_corruption(self) -> bool:
        """True when the state is corrupted but nothing was reported."""
        return (not self.state_intact) and (not self.detected)


@dataclass(frozen=True)
class CostReport:
    """Area / power / latency / energy report of a protected design.

    This is the data behind one row of the paper's Tables I and II.
    """

    config: ScanChainConfig
    area: AreaBreakdown
    power: PowerBreakdown
    encode_cost: CodingCost
    decode_cost: CodingCost

    @property
    def area_total_um2(self) -> float:
        """Total area including the protection circuitry (um^2)."""
        return self.area.total

    @property
    def area_overhead_percent(self) -> float:
        """Protection area overhead relative to the bare design (%)."""
        return self.area.overhead_fraction * 100.0

    @property
    def latency_ns(self) -> float:
        """Encode (== decode) latency in nanoseconds."""
        return self.encode_cost.latency_ns

    def as_table_row(self) -> dict:
        """Row in the layout of the paper's Tables I/II."""
        return {
            "W": self.config.num_chains,
            "l": self.config.chain_length,
            "area_um2": round(self.area_total_um2, 1),
            "area_overhead_percent": round(self.area_overhead_percent, 2),
            "enc_power_mw": round(self.encode_cost.power_mw, 3),
            "dec_power_mw": round(self.decode_cost.power_mw, 3),
            "latency_ns": round(self.latency_ns, 1),
            "enc_energy_nj": round(self.encode_cost.energy_nj, 3),
            "dec_energy_nj": round(self.decode_cost.energy_nj, 3),
        }


class ProtectedDesign:
    """A power-gated circuit protected by scan-based state monitoring.

    Parameters
    ----------
    circuit:
        The design to protect (its registers must be retention
        flip-flops, as produced by the circuits in
        :mod:`repro.circuit`).
    codes:
        The monitoring code(s): a name (``"hamming(7,4)"``,
        ``"crc16"``), a code object, or a list of either.  When several
        codes are given, block codes correct and stream codes verify the
        corrected stream (the combination used in the paper's FPGA
        validation).
    num_chains:
        Number of scan chains ``W`` in monitoring mode.
    monitor_width:
        Chains per monitoring block; defaults to the block code's ``k``.
    test_width:
        Manufacturing-test scan width (Fig. 5(b)); cost accounting only.
    clock_hz:
        Scan clock frequency (paper: 100 MHz).
    library:
        Standard-cell library for cost accounting.
    switches, rlc, upset_model:
        Power-domain configuration; ``upset_model=None`` disables
        droop-driven upsets (the paper's campaigns inject errors
        explicitly instead).
    lfsr_seed:
        Seed of the error injector's LFSRs.
    engine:
        Simulation engine for the encode/decode passes, resolved
        through the registry of :mod:`repro.engines`: ``"reference"``
        (default) drives the bit-serial per-flop models in
        :mod:`repro.core.monitor`; ``"packed"`` runs the bit-exact
        packed-integer fast path of
        :class:`repro.engines.packed.PackedMonitorEngine`, the
        engine for adapter codes (interleaved wrappers, custom codes);
        ``"simd"`` (available when numpy is installed, the ``[simd]``
        extra) runs the word-packed fully vectorised engine of
        :class:`repro.engines.simd.SimdBatchedEngine`, which
        additionally unlocks the fast path of
        :meth:`sleep_wake_cycle_batch` and the columnar summary path
        at every error density.  Third-party engines
        appear here automatically once registered with
        :func:`repro.engines.register_engine`.  Results are identical
        across engines (property-tested); only the wall-clock cost
        changes.
    """

    def __init__(self, circuit: SequentialCircuit,
                 codes: Union[CodeSpec, Sequence[CodeSpec]] = "hamming(7,4)",
                 num_chains: int = 80,
                 monitor_width: Optional[int] = None,
                 test_width: int = 4,
                 clock_hz: float = 100e6,
                 library: Optional[StandardCellLibrary] = None,
                 switches: Optional[SwitchNetwork] = None,
                 rlc: Optional[RLCParameters] = None,
                 upset_model: Optional[RetentionUpsetModel] = None,
                 lfsr_seed: int = 0xACE1,
                 engine: str = "reference"):
        self.circuit = circuit
        self.library = library if library is not None else default_library()
        self.clock_hz = clock_hz

        self.codes = self._resolve_codes(codes)
        block_codes = [c for c in self.codes if isinstance(c, BlockCode)]
        if monitor_width is None:
            monitor_width = block_codes[0].k if block_codes else num_chains
        self._monitor_width = monitor_width

        registers = list(circuit.registers)
        self._padding: List[RetentionFlipFlop] = []
        self.config = ScanChainConfig(
            num_registers=len(registers),
            num_chains=num_chains,
            monitor_width=monitor_width,
            test_width=min(test_width, num_chains),
            clock_period_ns=1e9 / clock_hz)
        self.chains = self._build_chains(registers, num_chains)

        blocks = []
        next_index = 0
        for code in self.codes:
            code_blocks = build_monitor_blocks(code, num_chains,
                                               monitor_width)
            for block in code_blocks:
                block.block_index = next_index
                next_index += 1
            blocks.extend(code_blocks)
        self.monitor_bank = MonitorBank(blocks)
        self.corrector = ErrorCorrectionBlock(
            block_codes[0] if block_codes else None, num_chains)
        self.controller = MonitoredPowerGatingController()
        self.domain = PowerDomain(circuit, switches=switches, rlc=rlc,
                                  upset_model=upset_model)
        self.injector = ScanErrorInjector(self.chains, lfsr_seed=lfsr_seed)

        self._area_estimator = AreaEstimator(self.library)
        self._power_estimator = PowerEstimator(self.library,
                                               clock_hz=clock_hz)
        self._energy_calculator = EnergyCalculator(self._power_estimator)

        self._engine = self.validate_engine(engine)
        # Engine instances, built lazily per engine name and keyed on
        # the monitor bank / chain geometry they were built from, so a
        # rebuilt bank or re-balanced chain set invalidates them.
        self._engine_cache: dict = {}
        #: True inside :meth:`_summary_chunk`, whose one retain walk
        #: stands in for every summary batch's own.
        self._chunk_retained = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_codes(codes: Union[CodeSpec, Sequence[CodeSpec]]
                       ) -> List[Union[BlockCode, StreamCode]]:
        if isinstance(codes, (str, BlockCode, StreamCode)):
            codes = [codes]
        resolved: List[Union[BlockCode, StreamCode]] = []
        for spec in codes:
            if isinstance(spec, str):
                resolved.append(get_code(spec))
            elif isinstance(spec, (BlockCode, StreamCode)):
                resolved.append(spec)
            else:
                raise TypeError(f"cannot interpret code spec {spec!r}")
        if not resolved:
            raise ValueError("at least one monitoring code is required")
        return resolved

    def _build_chains(self, registers: List[RetentionFlipFlop],
                      num_chains: int) -> List[ScanChain]:
        """Balance the registers into ``num_chains`` equal-length chains.

        When the register count does not divide evenly, dummy scan
        cells are appended (as DFT tools do) so that all chains have the
        paper's uniform length ``l``.
        """
        target_length = self.config.chain_length
        total_needed = target_length * num_chains
        padding_needed = total_needed - len(registers)
        for i in range(padding_needed):
            pad = RetentionFlipFlop(name=f"{self.circuit.name}.scan_pad[{i}]",
                                    init=0)
            self._padding.append(pad)
        padded = registers + self._padding
        chains: List[ScanChain] = []
        for index in range(num_chains):
            start = index * target_length
            chains.append(ScanChain(
                padded[start:start + target_length],
                name=f"{self.circuit.name}_mon_chain{index}"))
        return chains

    # ------------------------------------------------------------------
    # Engine selection (registry-backed; see repro.engines)
    # ------------------------------------------------------------------
    @classmethod
    def available_engines(cls) -> Tuple[str, ...]:
        """The registered simulation engines (built-ins plus anything
        added through :func:`repro.engines.register_engine`)."""
        return engine_registry.available_engines()

    @classmethod
    def validate_engine(cls, engine: str) -> str:
        """Check an engine name, returning it; raise ``ValueError`` if
        unknown.

        This is the public entry point for anything that selects an
        engine on a design's behalf (campaign drivers, sharded tasks):
        validate eagerly here so a typo fails at configuration time,
        not deep inside a worker process.  The name set and the error
        message both come from the engine registry, so third-party
        engines appear automatically.
        """
        return engine_registry.validate_engine(engine)

    @property
    def engine(self) -> str:
        """The active simulation engine's registry name."""
        return self._engine

    def set_engine(self, engine: str) -> None:
        """Switch the simulation engine for subsequent cycles."""
        self._engine = self.validate_engine(engine)

    @property
    def supports_batch_summary(self) -> bool:
        """True when the active engine can run the columnar summary
        path (:meth:`sleep_wake_cycle_batch_summary`)."""
        return self._resolve_engine().supports_summary

    def _resolve_engine(self, name: Optional[str] = None) -> SimulationEngine:
        """The engine instance for ``name`` (default: the active one).

        Instances are cached per name, keyed on the monitor bank object
        and the chain geometry they were built from; replacing
        ``monitor_bank`` or rebuilding ``chains`` therefore yields a
        fresh engine instead of silently reusing one built for the old
        structure (the historical ``_packed_engine`` staleness hazard).
        """
        if name is None:
            name = self._engine
        geometry = (len(self.chains), len(self.chains[0]))
        entry = self._engine_cache.get(name)
        if (entry is not None and entry[0] is self.monitor_bank
                and entry[1] == geometry):
            return entry[2]
        engine = engine_registry.get_engine(name, self)
        self._engine_cache[name] = (self.monitor_bank, geometry, engine)
        return engine

    def _get_packed_engine(self):
        """The packed-integer engine core (back-compat accessor)."""
        return self._resolve_engine("packed").engine

    def _pack_chains(self) -> Tuple[List[int], List[int]]:
        """Snapshot the chains into packed (states, knowns) integers.

        Bit ``i`` of chain ``c``'s state is the flop at scan position
        ``i``; unknown (``None``) flops have a 0 known bit and a 0
        state bit, matching the monitors' treat-X-as-0 rule.
        """
        return pack_chains(self.chains)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_chains(self) -> int:
        """Number of monitoring-mode scan chains ``W``."""
        return self.config.num_chains

    @property
    def chain_length(self) -> int:
        """Monitoring-mode chain length ``l``."""
        return self.config.chain_length

    @property
    def padding_cells(self) -> int:
        """Dummy scan cells added to balance the chains."""
        return len(self._padding)

    def _all_state(self) -> StateSnapshot:
        """Snapshot of the circuit registers plus padding cells."""
        flops = list(self.circuit.registers) + self._padding
        return StateSnapshot(values=tuple(flop_values(flops)),
                             names=tuple(ff.name for ff in flops))

    # ------------------------------------------------------------------
    # The monitored sleep/wake cycle (paper Fig. 3(b))
    # ------------------------------------------------------------------
    @contextmanager
    def _summary_chunk(self) -> Iterator[None]:
        """Scope in which summary batches share one retain walk.

        :meth:`sleep_wake_cycle_batch_summary` leaves every flop as its
        retain walk does (``retention := q``, power on, ``q``
        unchanged) and no summary batch writes a flop, so the walk is
        idempotent across a run of summary batches.  This scope walks
        the registers and padding once, on entry -- raising
        ``retain``'s ``RuntimeError`` for a powered-off flop before
        the controller or the domain leaves ACTIVE -- and the batches
        run inside it skip their own walk.  The scope ends however the
        body ends (normally, by an exception, or by the close of a
        generator suspended inside it); later batches walk again.
        Inside it the design must run summary batches only: anything
        else that writes a flop would leave a stale retention latch.
        """
        retain_flops(self.circuit.registers)
        retain_flops(self._padding)
        self._chunk_retained = True
        try:
            yield
        finally:
            self._chunk_retained = False

    def _sleep_gate_off(self) -> None:
        """Gate the domain off: retention save + power-off, padding
        cells included (every cycle variant shares this block)."""
        self.domain.enter_sleep()
        retain_flops(self._padding)
        power_off_flops(self._padding)

    def _wake_gate_on(self) -> WakeEvent:
        """Re-energise the domain and restore from retention, padding
        cells included; returns the wake-up's rush-current record."""
        wake_event = self.domain.wake_up()
        power_on_flops(self._padding)
        restore_flops(self._padding)
        return wake_event

    def sleep_wake_cycle(self,
                         injection: Optional[ErrorPattern] = None,
                         inject_phase: str = "sleep",
                         software_recovery: Optional[
                             Callable[["ProtectedDesign"], None]] = None,
                         auto_recover: bool = True) -> CycleOutcome:
        """Run one encode -> sleep -> wake -> decode cycle.

        Parameters
        ----------
        injection:
            Optional error pattern to inject.  With
            ``inject_phase="sleep"`` the pattern corrupts the retention
            latches while the domain is asleep (the physical failure
            mode); with ``"post_wake"`` the errors are injected into the
            restored state through the scan chains, exactly like the
            paper's Fig. 6 injection hardware.
        software_recovery:
            Callback invoked when the decode pass flags an
            uncorrectable error (the CRC + software-recovery option of
            the paper's Section V).  It receives this design and is
            expected to repair the circuit state by other means.
        auto_recover:
            When True the controller is returned to ACTIVE after an
            uncorrectable error so that subsequent cycles can run (the
            test bench keeps going and counts the event, as in the
            paper's FPGA campaign).
        """
        check_inject_phase(inject_phase)

        pre_state = self._all_state()
        self.corrector.clear()
        engine = self._resolve_engine()

        # -- encode sequence ------------------------------------------------
        self.controller.sleep_request()
        engine.encode_pass(self)
        self.controller.encode_completed()

        # -- sleep sequence ------------------------------------------------
        self._sleep_gate_off()
        self.controller.sleep_entered()

        if injection is not None and inject_phase == "sleep":
            self.injector.inject_retention(injection)

        # -- wake-up sequence ----------------------------------------------
        self.controller.wake_request()
        wake_event = self._wake_gate_on()
        self.controller.wake_completed()

        if injection is not None and inject_phase == "post_wake":
            self.injector.inject_direct(injection)

        corrupted_state = self._all_state()
        injected_errors = pre_state.hamming_distance(corrupted_state)

        # -- decode sequence -------------------------------------------------
        reports = engine.decode_pass(self)
        for report in reports:
            self.corrector.record(report.corrections)

        detected = any(r.error_detected for r in reports)
        uncorrectable = any(r.uncorrectable for r in reports)
        corrected_claim = detected and not uncorrectable
        error_code = self.controller.decode_completed(
            error_detected=detected,
            fully_corrected=corrected_claim)

        if error_code is ErrorCode.UNCORRECTABLE:
            if software_recovery is not None:
                software_recovery(self)
            if auto_recover:
                self.controller.recovery_completed()

        post_state = self._all_state()
        residual = pre_state.hamming_distance(post_state)

        return CycleOutcome(
            injected_errors=injected_errors,
            detected=detected,
            corrected_claim=corrected_claim,
            state_intact=(residual == 0),
            residual_errors=residual,
            error_code=error_code,
            corrections_applied=self.corrector.num_corrections,
            wake_event=wake_event,
            reports=tuple(reports))

    def sleep_wake_cycle_batch(self,
                               injections: Sequence[Optional[ErrorPattern]],
                               inject_phase: str = "sleep"
                               ) -> List[CycleOutcome]:
        """Run ``B`` independent sleep/wake sequences as one batch.

        Every sequence starts from the design's *current* state; entry
        ``b`` of ``injections`` (an :class:`ErrorPattern` or ``None``)
        is injected into sequence ``b``'s private copy.  Returns one
        :class:`CycleOutcome` per sequence, identical to running
        :meth:`sleep_wake_cycle` once per pattern from this same
        state: each sequence runs a full scalar cycle on the active
        engine and the register state is restored afterwards, so the
        batch leaves the circuit exactly as it was.  Stdlib only on
        every engine -- this is the per-sequence reference batch, the
        oracle the columnar :meth:`sleep_wake_cycle_batch_summary` (the
        one vectorised batch path) is property-tested against, and the
        batch path of an install without numpy.

        Restrictions: the domain must have no ``upset_model`` (batched
        campaigns inject errors explicitly, like the paper's), and
        uncorrectable sequences always auto-recover the controller (the
        test bench keeps going and counts the event, as in the paper's
        FPGA campaign); each sequence's ``error_code`` still reports
        ``UNCORRECTABLE``.  Afterwards ``design.corrector`` holds the
        whole batch's correction events.
        """
        check_inject_phase(inject_phase)
        patterns = list(injections)
        if not patterns:
            raise ValueError("the batch needs at least one sequence")
        if self.domain.upset_model is not None:
            raise ValueError(
                "sleep_wake_cycle_batch requires upset_model=None: "
                "droop-driven upsets would be shared across the whole "
                "batch; inject errors explicitly instead")
        # A malformed pattern must fail before the first sequence takes
        # the controller/domain out of ACTIVE.
        for pattern in patterns:
            if pattern is None:
                continue
            for chain, position in pattern.locations:
                if chain >= self.num_chains or position >= self.chain_length:
                    raise ValueError(
                        f"error location ({chain}, {position}) outside the "
                        f"{self.num_chains}x{self.chain_length} scan array")
        flops = list(self.circuit.registers) + self._padding
        snapshot = flop_values(flops)
        outcomes: List[CycleOutcome] = []
        for pattern in patterns:
            outcomes.append(self.sleep_wake_cycle(
                injection=pattern, inject_phase=inject_phase,
                auto_recover=True))
            for flop, value in zip(flops, snapshot):
                flop.force(value)
        # Leave the shared corrector holding the whole batch's events
        # (each scalar cycle cleared it).
        self.corrector.clear()
        for outcome in outcomes:
            for report in outcome.reports:
                if report.corrections:
                    self.corrector.record(report.corrections)
        return outcomes

    def sleep_wake_cycle_batch_summary(self, snapshot: Tuple[Sequence[int],
                                                             Sequence[int]],
                                       flips, batch_size: int,
                                       inject_phase: str = "sleep"):
        """Run ``B`` sequences as one batch, returning columnar verdicts.

        The one vectorised batch path, for consumers that only reduce
        outcomes to counters (campaign statistics): the injection arrives as a
        :class:`~repro.faults.batch.PatternBatch` (what
        :func:`~repro.faults.batch.sample_pattern_batch` draws), the
        engine runs the whole batch in its native array layout, and the
        result is one :class:`~repro.engines.base.BatchOutcomeArrays`
        -- **no per-sequence object is materialised anywhere**.  The
        array values are bit-identical to folding
        :meth:`sleep_wake_cycle_batch`'s outcomes field by field
        (property-tested in ``tests/campaigns/test_summary_path.py``).

        ``snapshot`` is the batch's shared pre-sleep state as packed
        ``(states, knowns)`` chain integers (the layout of
        :meth:`_pack_chains`), supplied by the caller: this method
        never reads the flops.  Pass ``design._pack_chains()`` to run
        from the design's current state; the test bench passes the
        snapshot of its loaded FIFO without loading the flops at all
        (:meth:`~repro.validation.testbench.FIFOTestbench.\
run_sequence_batch_summary`).  ``states`` may be any sequence of the
        chains' integers, including the test bench's lazy one, which
        computes its elements on first read: this method only hands it
        on, and the engine reads its elements only when its pass needs
        the baseline state.

        The controller and power domain cycle **once** for the batch,
        the per-sequence verdicts are computed virtually and the
        circuit's own state is left untouched.  The domain cycles
        virtually too (``enter_sleep``/``wake_up`` with
        ``virtual=True``, which touch no flop): instead of a scalar
        cycle's four gating walks, one walk over the registers and
        scan padding copies each master into its retention latch and
        leaves the rail on -- the same ``(q, retention, power)`` on
        every flop, and the same ``RuntimeError`` for a powered-off
        one.  A standalone call always walks; inside a summary chunk
        (:meth:`~repro.validation.testbench.FIFOTestbench.\
run_sequence_batches_summary`) the chunk's one walk on entry stands
        in for it, since no summary batch writes a flop.  The
        controller/domain cycle stays per batch even there: it costs a
        few microseconds and carries the per-batch counts callers see
        (``sleep_cycles_completed``, the encode/decode passes, one
        ``wake_history`` entry).  ``inject_phase`` keeps its meaning
        for API symmetry; the
        virtual copies make the two phases arithmetically identical,
        as in the per-sequence batch.  The shared corrector is *not*
        populated (there are no correction events to record);
        per-sequence correction counts are in the returned arrays
        instead.

        Requires an engine with summary support
        (:attr:`supports_batch_summary`) and, like
        :meth:`sleep_wake_cycle_batch`, ``upset_model=None``.  The
        engine picks its summary implementation per batch (see
        :meth:`~repro.engines.base.SimulationEngine.run_batch_summary`).
        """
        check_inject_phase(inject_phase)
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.domain.upset_model is not None:
            raise ValueError(
                "sleep_wake_cycle_batch_summary requires upset_model=None: "
                "droop-driven upsets would be shared across the whole "
                "batch; inject errors explicitly instead")
        engine = self._resolve_engine()
        if not engine.supports_summary:
            raise ValueError(
                f"engine {self._engine!r} does not support the columnar "
                f"summary path; use sleep_wake_cycle_batch (one scalar "
                f"cycle per sequence) instead")
        # Validate the injection eagerly -- a malformed flip must fail
        # before the controller/domain leave ACTIVE (same policy as
        # sleep_wake_cycle_batch).
        flips.validate(self.num_chains, self.chain_length, batch_size)

        states, knowns = snapshot
        self.corrector.clear()

        # The flops take part only through the net effect of a gating
        # round trip without upsets: retention := q, power on, q
        # unchanged -- one walk over the registers and padding instead
        # of four, before the controller leaves ACTIVE, so a powered-off
        # flop strands neither it nor the domain.  A summary chunk
        # walked them on entry already.
        if not self._chunk_retained:
            retain_flops(self.circuit.registers)
            retain_flops(self._padding)
        # One physical controller/domain cycle for the whole batch (the
        # virtual per-sequence passes run inside the engine call).
        self.controller.sleep_request()
        self.controller.encode_completed()
        self.domain.enter_sleep(virtual=True)
        self.controller.sleep_entered()
        self.controller.wake_request()
        self.domain.wake_up(virtual=True)
        self.controller.wake_completed()

        arrays = engine.run_batch_summary(states, knowns, flips, batch_size)

        any_detected, any_uncorrectable = arrays.alarms()
        batch_code = self.controller.decode_completed(
            error_detected=any_detected,
            fully_corrected=any_detected and not any_uncorrectable)
        if batch_code is ErrorCode.UNCORRECTABLE:
            self.controller.recovery_completed()
        return arrays

    def unprotected_sleep_wake_cycle(
            self, injection: Optional[ErrorPattern] = None) -> CycleOutcome:
        """Baseline cycle without encode/decode (conventional Fig. 3(a)).

        Any injected or droop-induced corruption goes unnoticed; used by
        the examples and benchmarks as the reliability baseline.
        """
        pre_state = self._all_state()
        self._sleep_gate_off()
        if injection is not None:
            self.injector.inject_retention(injection)
        wake_event = self._wake_gate_on()
        post_state = self._all_state()
        residual = pre_state.hamming_distance(post_state)
        return CycleOutcome(
            injected_errors=residual,
            detected=False,
            corrected_claim=False,
            state_intact=(residual == 0),
            residual_errors=residual,
            error_code=ErrorCode.NONE,
            corrections_applied=0,
            wake_event=wake_event,
            reports=())

    # ------------------------------------------------------------------
    # Cost accounting (paper Tables I--III, Fig. 9)
    # ------------------------------------------------------------------
    def scan_routing_netlist(self) -> Netlist:
        """Per-chain scan-path reconfiguration logic (Fig. 5).

        Each chain's scan-in port needs a 3-way selector (functional
        loop-back / corrected feedback / test input) plus buffering, and
        the padding cells added for balancing are counted here too.
        """
        netlist = Netlist("scan_routing")
        group = "scan_routing"
        netlist.add_cells("mux3", self.num_chains, group=group)
        netlist.add_cells("buf", self.num_chains, group=group)
        if self._padding:
            netlist.add_cells("rsdff", len(self._padding), group=group)
        return netlist

    def full_netlist(self) -> Netlist:
        """Complete netlist: protected circuit plus protection circuitry."""
        full = self.circuit.netlist.copy()
        full.merge(self.monitor_bank.build_netlist(self.chain_length))
        full.merge(self.corrector.build_netlist(
            num_blocks=sum(1 for b in self.monitor_bank.blocks
                           if b.can_correct)))
        full.merge(self.controller.build_netlist(self.chain_length))
        full.merge(self.scan_routing_netlist())
        return full

    def cost_report(self) -> CostReport:
        """Area / power / latency / energy of this configuration."""
        netlist = self.full_netlist()
        area = self._area_estimator.breakdown(netlist)
        power = self._power_estimator.scan_mode_power(netlist)
        encode_cost = self._energy_calculator.encode_cost(
            netlist, self.chain_length)
        decode_cost = self._energy_calculator.decode_cost(
            netlist, self.chain_length)
        return CostReport(config=self.config, area=area, power=power,
                          encode_cost=encode_cost, decode_cost=decode_cost)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        code_names = ", ".join(c.name for c in self.codes)
        return (f"ProtectedDesign({self.circuit.name!r}, codes=[{code_names}], "
                f"W={self.num_chains}, l={self.chain_length})")


__all__ = ["ProtectedDesign", "CycleOutcome", "CostReport"]
