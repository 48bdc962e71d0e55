"""Engine-level contract of the columnar summary interface."""

import pytest

np = pytest.importorskip("numpy")

from repro.campaigns.tasks import FIFOValidationCampaignTask    # noqa: E402
from repro.circuit.generators import make_random_state_circuit  # noqa: E402
from repro.core.protected import ProtectedDesign                # noqa: E402
from repro.engines.base import (                                # noqa: E402
    BatchOutcomeArrays,
    SimulationEngine,
)
from repro.engines.packing import pack_chains                   # noqa: E402
from repro.engines.registry import (                            # noqa: E402
    available_engines,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.engines.simd import SimdBatchedEngine                # noqa: E402
from repro.engines.summary import (                             # noqa: E402
    bits_matrix,
    full_words,
    per_sequence_popcounts,
    replicate_state_words,
    residual_counts_words,
)
from repro.faults.batch import (                                # noqa: E402
    PatternBatch,
    sample_pattern_batch,
)
from repro.faults.patterns import ErrorPattern                  # noqa: E402
from repro.validation.testbench import FIFOTestbench            # noqa: E402
from tests.engines.summary_oracle import assert_summary_matches  # noqa: E402


def _design(engine, codes=("hamming(7,4)", "crc16")):
    circuit = make_random_state_circuit(64, seed=11)
    return ProtectedDesign(circuit, codes=list(codes), num_chains=8,
                           engine=engine, lfsr_seed=5)


class SideSummaryEngine(SimulationEngine):
    """A third-party engine: reference scalar passes and a summary pass
    of its own (delegated to a simd engine).  It sets no flag; the
    override alone makes it a summary engine."""

    def __init__(self, design):
        self._simd = SimdBatchedEngine(design.monitor_bank,
                                       design.num_chains,
                                       design.chain_length)

    def encode_pass(self, design):
        return design.monitor_bank.encode_pass(design.chains)

    def decode_pass(self, design):
        return design.monitor_bank.decode_pass(design.chains)

    def run_batch_summary(self, states, knowns, flips, batch_size):
        return self._simd.run_batch_summary(states, knowns, flips,
                                            batch_size)


class SimdSubclassEngine(SimdBatchedEngine):
    """A subclass of simd that overrides nothing: it inherits the
    summary pass."""


#: Engines registered for the tests below, by name.
THIRD_PARTY_ENGINES = {
    "side-summary": SideSummaryEngine,
    "simd-subclass": lambda design: SimdSubclassEngine(
        design.monitor_bank, design.num_chains, design.chain_length),
}

#: Whether each engine supports the summary pass.  jit joins when numba
#: registers it.
SUMMARY_SUPPORT = {"reference": False, "packed": False, "simd": True,
                   "jit": True, "side-summary": True,
                   "simd-subclass": True}


@pytest.fixture
def third_party_engines():
    for name, factory in THIRD_PARTY_ENGINES.items():
        register_engine(name, factory)
    try:
        yield
    finally:
        for name in THIRD_PARTY_ENGINES:
            unregister_engine(name)


def _engines_under_test():
    return [name for name in SUMMARY_SUPPORT
            if name in available_engines() or name in THIRD_PARTY_ENGINES]


@pytest.mark.parametrize("name", _engines_under_test())
def test_summary_support_is_derived(name, third_party_engines):
    """``supports_summary`` is True exactly on engines whose class
    overrides ``run_batch_summary``, inherited overrides included; the
    design's ``supports_batch_summary`` follows its engine."""
    design = _design(name)
    engine = get_engine(name, design)
    assert engine.supports_summary is SUMMARY_SUPPORT[name]
    assert design.supports_batch_summary is SUMMARY_SUPPORT[name]


def test_jit_class_supports_summary_without_numba():
    """jit inherits from simd and overrides the pass itself; its class
    supports it whether or not numba registers the name."""
    from repro.engines.jit import JitFusedEngine

    design = _design("reference")
    assert JitFusedEngine(design.monitor_bank, design.num_chains,
                          design.chain_length,
                          compiled=False).supports_summary


@pytest.mark.parametrize("name", _engines_under_test())
def test_campaign_takes_the_matching_path(name, third_party_engines,
                                          monkeypatch):
    """A batched campaign chunk runs the columnar summary pass on every
    summary engine and one scalar cycle per sequence elsewhere, with
    the same counters either way."""
    taken = set()
    for method, path in (("run_sequence_batch_summary", "summary"),
                         ("run_sequence_batch", "object")):
        original = getattr(FIFOTestbench, method)

        def recording(self, *args, _original=original, _path=path,
                      **kwargs):
            taken.add(_path)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(FIFOTestbench, method, recording)

    def chunk(engine):
        task = FIFOValidationCampaignTask(
            width=8, depth=8, codes=("hamming(7,4)", "crc16"),
            num_chains=8, batch_size=16, engine=engine, sampler="array",
            pattern="single")
        return task.run_chunk(chunk_seed=424242, num_sequences=40)

    result = chunk(name)
    assert taken == ({"summary"} if SUMMARY_SUPPORT[name] else {"object"})
    assert result == chunk("packed")
    assert result.stats.num_sequences == 40


def _flips(design, cells_per_sequence):
    """A hand-built batch: sequence ``b`` flips ``cells_per_sequence[b]``."""
    return PatternBatch.from_patterns(
        [ErrorPattern(frozenset(cells)) if cells else None
         for cells in cells_per_sequence],
        design.num_chains, design.chain_length)


def test_non_summary_engine_raises():
    design = _design("packed")
    clean = _flips(design, [()] * 4)
    with pytest.raises(ValueError, match="summary"):
        design.sleep_wake_cycle_batch_summary(design._pack_chains(), clean,
                                              4)
    engine = get_engine("packed", design)
    with pytest.raises(NotImplementedError):
        engine.run_batch_summary([0] * 8, [0] * 8, clean, 4)


@pytest.mark.parametrize("name", _engines_under_test())
def test_summary_call_matches_support(name, third_party_engines):
    """Every engine keeps its word: a summary engine's
    ``run_batch_summary`` returns the columnar verdicts, any other
    engine's raises ``NotImplementedError``."""
    design = _design(name)
    engine = get_engine(name, design)
    states, knowns = pack_chains(design.chains)
    flips = _flips(design, [[(0, 0)], ()])
    if SUMMARY_SUPPORT[name]:
        summary = engine.run_batch_summary(states, knowns, flips, 2)
        assert isinstance(summary, BatchOutcomeArrays)
        assert summary.injected.tolist() == [1, 0]
    else:
        with pytest.raises(NotImplementedError):
            engine.run_batch_summary(states, knowns, flips, 2)


def test_in_place_wrapper_keeps_summary_support(monkeypatch):
    """Wrapping ``SimdBatchedEngine.run_batch_summary`` in place, as
    ``perfbench/run.py --trace 1`` does, leaves simd a summary engine
    and routes the design's summary pass through the wrapper."""
    calls = []
    original = SimdBatchedEngine.run_batch_summary

    def traced(self, *args, **kwargs):
        calls.append(type(self))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SimdBatchedEngine, "run_batch_summary", traced)
    design = _design("simd")
    assert get_engine("simd", design).supports_summary
    assert design.supports_batch_summary
    summary = design.sleep_wake_cycle_batch_summary(
        design._pack_chains(), _flips(design, [[(0, 0)]]), 1)
    assert calls == [SimdBatchedEngine]
    assert summary.injected.tolist() == [1]


@pytest.mark.parametrize("engine", ("simd", "jit"))
@pytest.mark.parametrize("short", ("states", "knowns"))
def test_summary_names_short_argument(engine, short):
    """A per-chain argument one chain short is reported by name (not
    as "expected 8 chain states, got 8")."""
    from repro.engines.jit import JitFusedEngine

    design = _design("simd")
    if engine == "jit":  # the interpreter mode runs without numba
        summary_engine = JitFusedEngine(design.monitor_bank, 8,
                                        design.chain_length, compiled=False)
    else:
        summary_engine = get_engine(engine, design)
    states, knowns = pack_chains(design.chains)
    if short == "states":
        states = states[:7]
    else:
        knowns = knowns[:7]
    with pytest.raises(ValueError,
                       match=rf"^{short}: expected 8 chains, got 7"):
        summary_engine.run_batch_summary(
            states, knowns, _flips(design, [()] * 4), 4)


def test_summary_validates_flips_eagerly():
    design = _design("simd")
    with pytest.raises(ValueError, match="outside"):
        design.sleep_wake_cycle_batch_summary(
            design._pack_chains(), _flips(design, [[(99, 0)]]), 1)
    with pytest.raises(ValueError, match="sequences"):
        design.sleep_wake_cycle_batch_summary(
            design._pack_chains(), _flips(design, [[(0, 0)]] * 8), 4)
    # Neither failure may strand the controller outside ACTIVE.
    design.sleep_wake_cycle_batch_summary(design._pack_chains(),
                                          _flips(design, [[(0, 0)]]), 1)


def test_summary_validates_pattern_batch_eagerly():
    """Malformed PatternBatch coordinates fail before the controller
    leaves ACTIVE (negative indices would otherwise wrap silently in
    the ndarray scatters)."""
    design = _design("simd")
    length = design.chain_length

    def batch(chain=0, position=0, seq=0, num_chains=8,
              chain_length=None, batch_size=4):
        return PatternBatch(
            num_chains, chain_length or length, batch_size, "single",
            np.array([seq]), np.array([chain]), np.array([position]))

    snapshot = design._pack_chains()
    with pytest.raises(ValueError, match="scan array"):
        design.sleep_wake_cycle_batch_summary(snapshot, batch(num_chains=9),
                                              4)
    with pytest.raises(ValueError, match="sequences"):
        design.sleep_wake_cycle_batch_summary(snapshot, batch(batch_size=5),
                                              4)
    for bad in (batch(chain=-1), batch(chain=8), batch(position=-1),
                batch(position=length), batch(seq=-1), batch(seq=4)):
        with pytest.raises(ValueError, match="outside"):
            design.sleep_wake_cycle_batch_summary(snapshot, bad, 4)
    # None of the failures stranded the controller outside ACTIVE.
    design.sleep_wake_cycle_batch_summary(snapshot, batch(), 4)


@pytest.mark.parametrize("engine", ("simd",))
def test_engine_summary_matches_batch_masks(engine):
    """run_batch_summary's columns equal per-sequence reference cycles
    for the same hand-built batch: cells shared between sequences, a
    two-flip sequence and clean sequences."""
    batch = 21
    design = _design(engine)
    cells = [[] for _ in range(batch)]
    for cell, sequences in {(0, 1): (0, 2), (1, 3): (1,), (2, 0): (20,),
                            (3, 2): (3,), (4, 2): (3,)}.items():
        for b in sequences:
            cells[b].append(cell)
    flips = _flips(design, cells)
    summary = get_engine(engine, design).run_batch_summary(
        *pack_chains(design.chains), flips, batch)

    expected = _design("reference").sleep_wake_cycle_batch(flips.patterns())
    assert_summary_matches(summary, expected)
    assert summary.injected.tolist()[:4] == [1, 1, 1, 2]


def test_residual_counts_words_unknown_rule():
    """Unknown pre-sleep positions always count, known positions count
    only where the corrected bit differs."""
    states = [0b0101, 0b0000]
    knowns = [0b1111, 0b1011]   # chain 1 position 2 is unknown
    batch = 3
    full = np.array([0b111], dtype=np.uint64)
    state_bits = bits_matrix(states, 4)
    corrected = np.where(state_bits[:, :, None], full, np.uint64(0))
    base = residual_counts_words(states, knowns, corrected, batch)
    assert base.tolist() == [1, 1, 1]        # the unknown position only
    corrected[0, 3] ^= np.uint64(0b010)      # flip one bit of sequence 1
    corrected[1, 2] ^= np.uint64(0b111)      # unknown position: no change
    counts = residual_counts_words(states, knowns, corrected, batch)
    assert counts.tolist() == [1, 2, 1]


@pytest.mark.parametrize("batch_size", (1, 100, 128))
def test_per_sequence_popcounts_matches_bit_loop(batch_size):
    """Per-lane counts over more rows than a uint8 lane can hold: 600
    all-ones rows plus random ones, against a per-bit Python count."""
    words = (batch_size + 63) // 64
    rng = np.random.default_rng(batch_size)
    rows = np.concatenate((
        np.full((600, words), np.uint64(0xFFFFFFFFFFFFFFFF)),
        rng.integers(0, 2**63, size=(300, words)).astype(np.uint64)))
    expected = [sum(int(row[b >> 6]) >> (b & 63) & 1 for row in rows)
                for b in range(batch_size)]
    assert per_sequence_popcounts(rows, batch_size).tolist() == expected
    assert per_sequence_popcounts(rows[:0], batch_size).tolist() == \
        [0] * batch_size


def test_summary_outcome_array_properties():
    arrays = BatchOutcomeArrays(
        injected=np.array([1, 0]),
        detected=np.array([True, False]),
        uncorrectable=np.array([False, False]),
        residual_errors=np.array([0, 2]),
        corrections_applied=np.array([1, 0]))
    assert arrays.batch_size == 2
    assert arrays.state_intact.tolist() == [True, False]
    assert arrays.corrected_claim.tolist() == [True, False]


#: Banks for the dense path's once-per-batch baseline encode: every
#: structured code family (Hamming + CRC, SECDED, parity), a geometry
#: whose last Hamming block has tied-off padding inputs, and two
#: correcting banks sharing chains.
BASELINE_BANKS = {
    "hamming74_crc16": (["hamming(7,4)", "crc16"], 64, 8),
    "hamming74_padded": ("hamming(7,4)", 33, 5),
    "secded84": ("secded(8,4)", 40, 8),
    "parity8": ("parity(8)", 32, 8),
    "overlapping": (["hamming(7,4)", "hamming(15,11)"], 44, 4),
}


@pytest.mark.parametrize("batch_size", (1, 63, 64, 65, 4096))
@pytest.mark.parametrize("bank", sorted(BASELINE_BANKS))
def test_dense_baseline_encode_matches_replicated_words(bank, batch_size):
    """The dense summary encodes its replicated baseline as a batch of
    one; the stored check words must equal a full encode of the
    replicated words, unknown cells held at zero."""
    codes, registers, num_chains = BASELINE_BANKS[bank]
    design = ProtectedDesign(make_random_state_circuit(registers, seed=3),
                             codes=codes, num_chains=num_chains,
                             engine="simd", lfsr_seed=5)
    engine = get_engine("simd", design)
    if bank == "hamming74_padded":
        assert any(group.pad_mask is not None for group in engine._groups)
    if bank == "overlapping":
        assert engine._overlapping_correctors
    length = design.chain_length
    states, knowns = pack_chains(design.chains)
    knowns = list(knowns)
    knowns[1] &= ~0b101  # unknown cells: their words must stay zero
    flips = sample_pattern_batch("multiple", num_chains, length,
                                 batch_size, np.random.default_rng(1),
                                 num_errors=2)
    engine.run_batch_summary(states, knowns, flips, batch_size)
    assert engine.last_summary_path == "dense"
    stored = [group.stored.copy() for group in engine._groups]
    signatures = [monitor.stored.copy() for monitor in engine._observing]

    # A full encode of the replicated words, group by group.
    full = full_words(batch_size)
    words = replicate_state_words(
        bits_matrix(states, length) & bits_matrix(knowns, length), full)
    for index, (got, group) in enumerate(zip(stored, engine._groups)):
        assert got.dtype == np.uint64
        assert np.array_equal(got, group.kernel.encode(
            engine._gather(index, group, words), full))
    words_flat = words.reshape(-1, full.size)
    for got, monitor in zip(signatures, engine._observing):
        assert got.dtype == np.uint64
        assert np.array_equal(got, engine._stream_signature(
            monitor, words_flat, full))


def test_dense_passes_reuse_the_gather_buffers():
    """The batch of one encodes through its own workspace buffers, so
    the batch-wide gather buffers survive from pass to pass."""
    design = _design("simd")
    engine = get_engine("simd", design)
    states, knowns = pack_chains(design.chains)
    rng = np.random.default_rng(2)

    def gather_buffers():
        flips = sample_pattern_batch("multiple", design.num_chains,
                                     design.chain_length, 100, rng,
                                     num_errors=3)
        engine.run_batch_summary(states, knowns, flips, 100)
        assert engine.last_summary_path == "dense"
        return [engine._workspace._buffers[("gather", index)]
                for index in range(len(engine._groups))]

    first = gather_buffers()
    second = gather_buffers()
    assert first and all(a is b for a, b in zip(first, second))
