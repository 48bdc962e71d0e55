"""Bit-exactness of the numpy word-packed SIMD engine.

The columnar summary path on ``engine="simd"``
(``PatternBatch.from_patterns`` -> ``sleep_wake_cycle_batch_summary``,
folded with ``add_batch``) must match per-sequence reference cycles bit
for bit (every outcome field and the folded campaign counters) across
every registered code family, geometries with and without padding,
batch sizes including B=1 and non-powers-of-two (and
word-boundary-straddling sizes like 65), and single/burst/dense fault
patterns.  Plain ``sleep_wake_cycle`` calls on simd (which run on the
packed engine) must match the reference reports too, and the engine's
own ``run_batch_summary`` must match the packed engine's scalar decodes
batch after batch from random snapshots.  The
engine-generic contracts of the per-sequence ``sleep_wake_cycle_batch``
(untouched design state, the corrector aggregate, eager validation)
run here on the SIMD engine and the other engines alike.
"""

import random
import zlib

import pytest

np = pytest.importorskip("numpy")

from repro.circuit.generators import make_random_state_circuit
from repro.codes.base import CodeError
from repro.codes.plane import block_parity_matrix, crc_stream_matrix
from repro.codes.registry import get_code
from repro.core.protected import ProtectedDesign
from repro.engines.packed import PackedMonitorEngine
from repro.engines.registry import available_engines, get_engine
from repro.engines.simd import full_words
from repro.faults.batch import PatternBatch
from repro.faults.patterns import (
    ErrorPattern,
    burst_error_pattern,
    multi_error_pattern,
    random_pattern,
    single_error_pattern,
)
from tests.engines.summary_oracle import (
    assert_summary_matches,
    packed_verdicts,
    run_summary,
    verdict_rows,
)

#: Every registered code family appears at least once (the full CRC
#: table, the whole paper Hamming family, SECDED and parity), plus the
#: paper's stacked Hamming+CRC configuration and geometries that force
#: padding cells and tied-off tail blocks.
CONFIGS = [
    ("hamming74_crc16", ["hamming(7,4)", "crc16"], 8, 56),
    ("hamming74_padded", "hamming(7,4)", 5, 33),
    ("hamming1511", "hamming(15,11)", 11, 44),
    ("hamming3126", "hamming(31,26)", 6, 30),
    ("hamming6357_tail", "hamming(63,57)", 6, 24),
    ("secded84", "secded(8,4)", 8, 40),
    ("parity8", "parity(8)", 8, 32),
    ("crc16_ibm", "crc16-ibm", 4, 36),
    ("crc16_ccitt", "crc16-ccitt", 4, 28),
    ("crc8", "crc8", 3, 21),
    ("crc12", "crc12", 4, 24),
    ("crc32", "crc32", 4, 32),
]

#: 65 straddles the first uint64 word boundary.
BATCH_SIZES = (1, 3, 8, 65)


def _pair(seed, num_registers, codes, num_chains):
    designs = []
    for engine in ("reference", "simd"):
        circuit = make_random_state_circuit(num_registers, seed=seed)
        designs.append(ProtectedDesign(circuit, codes=codes,
                                       num_chains=num_chains,
                                       engine=engine))
    return designs


def _patterns(design, batch_size, rng):
    """Mixed-density batch: clean, single, burst, multi and storm."""
    patterns = []
    w, l = design.num_chains, design.chain_length
    for _ in range(batch_size):
        kind = rng.choice(["none", "single", "burst", "multi", "storm"])
        if kind == "none":
            patterns.append(None)
        elif kind == "single":
            patterns.append(single_error_pattern(w, l, rng))
        elif kind == "burst":
            patterns.append(burst_error_pattern(w, l, 4, rng))
        elif kind == "multi":
            patterns.append(multi_error_pattern(w, l, 3, rng))
        else:
            patterns.append(random_pattern(w, l, 0.2, rng))
    return patterns


def _outcome_tuple(outcome):
    return (outcome.injected_errors, outcome.detected,
            outcome.corrected_claim, outcome.state_intact,
            outcome.residual_errors, outcome.error_code,
            outcome.corrections_applied, outcome.reports)


def test_simd_registered():
    assert "simd" in available_engines()
    assert "simd" in ProtectedDesign.available_engines()


@pytest.mark.parametrize("label,codes,num_chains,num_registers", CONFIGS)
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batch_cycle_equivalence(label, codes, num_chains, num_registers,
                                 batch_size):
    rng = random.Random(zlib.crc32(f"simd/{label}/{batch_size}".encode()))
    design_ref, design_simd = _pair(42, num_registers, codes, num_chains)
    for trial in range(2):
        patterns = _patterns(design_ref, batch_size, rng)
        phase = rng.choice(["sleep", "post_wake"])
        ref = design_ref.sleep_wake_cycle_batch(patterns,
                                                inject_phase=phase)
        assert_summary_matches(run_summary(design_simd, patterns, phase),
                               ref)
        states_ref = [c.read_state() for c in design_ref.chains]
        states_simd = [c.read_state() for c in design_simd.chains]
        assert states_simd == states_ref


def test_scalar_cycles_on_simd_engine():
    """engine="simd" must also serve plain sleep_wake_cycle calls,
    bit-exact against the reference (a batch of one)."""
    ref, simd = _pair(8, 56, ["secded(8,4)", "crc16"], 8)
    rng = random.Random(31)
    for trial in range(4):
        pattern = multi_error_pattern(ref.num_chains, ref.chain_length,
                                      rng.randint(1, 3), rng)
        expected = ref.sleep_wake_cycle(injection=pattern)
        actual = simd.sleep_wake_cycle(injection=pattern)
        assert _outcome_tuple(actual) == _outcome_tuple(expected)
        assert [c.read_state() for c in simd.chains] == \
            [c.read_state() for c in ref.chains]


def test_batch_with_unknown_bits():
    designs = _pair(3, 20, ["hamming(7,4)", "crc16"], 4)
    for design in designs:
        design.chains[1].flops[2].force(None)
        design.chains[3].flops[0].force(None)
    rng = random.Random(23)
    patterns = [None] + [single_error_pattern(4, 5, rng) for _ in range(4)]
    ref = designs[0].sleep_wake_cycle_batch(patterns)
    arrays = run_summary(designs[1], patterns)
    assert_summary_matches(arrays, ref)
    assert not arrays.state_intact.any()


@pytest.mark.parametrize("errors,path", ((1, "delta"), (3, "dense")))
def test_overlapping_correcting_blocks_batch(errors, path):
    """Correcting blocks sharing chains trigger the vectorised
    last-block-wins reassignment; it must match the reference on the
    single-flip table and on the dense pass."""
    codes = ["hamming(7,4)", "hamming(15,11)"]
    design_ref, design_simd = _pair(7, 44, codes, 4)
    engine = get_engine("simd", design_simd)
    assert engine._overlapping_correctors
    rng = random.Random(13)
    patterns = [multi_error_pattern(design_ref.num_chains,
                                    design_ref.chain_length, errors, rng)
                for _ in range(5)]
    ref = design_ref.sleep_wake_cycle_batch(patterns)
    assert_summary_matches(run_summary(design_simd, patterns), ref)
    assert design_simd._resolve_engine().last_summary_path == path


def test_adapter_codes_are_rejected_with_guidance():
    """Codes without a structured GF(2) form fail engine construction
    with a pointer at the packed engine."""
    from repro.codes.interleave import InterleavedCode

    circuit = make_random_state_circuit(32, seed=5)
    code = InterleavedCode(get_code("hamming(7,4)"), depth=2)
    design = ProtectedDesign(circuit, codes=code, num_chains=8,
                             engine="reference")
    with pytest.raises(ValueError, match="engine='packed'"):
        get_engine("simd", design)


def test_batch_leaves_design_state_untouched():
    """A batch is virtual: the circuit holds its pre-batch state after,
    for the SIMD path and the fallback alike."""
    for engine in ("simd", "reference"):
        circuit = make_random_state_circuit(40, seed=5)
        design = ProtectedDesign(circuit, codes=["hamming(7,4)", "crc16"],
                                 num_chains=8, engine=engine)
        before = [c.read_state() for c in design.chains]
        rng = random.Random(17)
        patterns = [multi_error_pattern(design.num_chains,
                                        design.chain_length, 5, rng)
                    for _ in range(4)]
        design.sleep_wake_cycle_batch(patterns)
        assert [c.read_state() for c in design.chains] == before


def test_corrector_aggregate_is_engine_independent():
    """After a batch, design.corrector holds the whole batch's events
    on every engine (the fallback must not leave only the last
    sequence's)."""
    counts = {}
    for engine in ("reference", "packed", "simd"):
        circuit = make_random_state_circuit(56, seed=6)
        design = ProtectedDesign(circuit, codes=["hamming(7,4)", "crc16"],
                                 num_chains=8, engine=engine)
        prng = random.Random(9)
        patterns = [single_error_pattern(design.num_chains,
                                         design.chain_length, prng)
                    for _ in range(4)]
        outcomes = design.sleep_wake_cycle_batch(patterns)
        assert all(o.corrections_applied == 1 for o in outcomes)
        counts[engine] = design.corrector.num_corrections
    assert counts["reference"] == counts["packed"] \
        == counts["simd"] == 4


def test_empty_batch_rejected():
    circuit = make_random_state_circuit(20, seed=1)
    design = ProtectedDesign(circuit, codes="crc16", num_chains=4,
                             engine="simd")
    with pytest.raises(ValueError):
        design.sleep_wake_cycle_batch([])


@pytest.mark.parametrize("engine", ["simd", "packed", "reference"])
def test_bad_pattern_fails_before_sleep_entry(engine):
    """A malformed pattern must be rejected while the controller and
    domain are still ACTIVE, on the SIMD path and the fallback alike --
    never strand the design mid-sleep."""
    from repro.core.controller import ControllerState
    from repro.faults.patterns import ErrorPattern

    circuit = make_random_state_circuit(20, seed=1)
    design = ProtectedDesign(circuit, codes="crc16", num_chains=4,
                             engine=engine)
    bad = ErrorPattern(locations=frozenset({(99, 0)}), kind="single")
    with pytest.raises(ValueError):
        design.sleep_wake_cycle_batch([None, bad])
    assert design.controller.state is ControllerState.ACTIVE
    assert not design.domain.is_asleep
    # The design stays fully usable.
    assert design.sleep_wake_cycle().state_intact


def test_batch_rejects_upset_model():
    from repro.power.retention import RetentionUpsetModel

    circuit = make_random_state_circuit(20, seed=1)
    design = ProtectedDesign(circuit, codes="crc16", num_chains=4,
                             engine="simd",
                             upset_model=RetentionUpsetModel(seed=1))
    with pytest.raises(ValueError):
        design.sleep_wake_cycle_batch([None])


class TestEngineLevelSummary:
    """run_batch_summary called directly, from random (not
    circuit-derived) snapshots, against the packed engine's scalar
    decodes."""

    def _engines(self, codes, num_chains, num_registers):
        circuit = make_random_state_circuit(num_registers, seed=2)
        design = ProtectedDesign(circuit, codes=codes,
                                 num_chains=num_chains)
        simd = get_engine("simd", design)
        packed = PackedMonitorEngine(design.monitor_bank,
                                     simd.num_chains, simd.chain_length)
        return simd, packed

    @pytest.mark.parametrize("codes,num_chains,num_registers", [
        (["hamming(7,4)", "crc16"], 8, 56),
        (["secded(8,4)"], 8, 40),
        (["crc16-ccitt"], 4, 28),
        (["parity(8)"], 8, 32),
    ])
    @pytest.mark.parametrize("batch_size", (1, 5, 16, 65))
    def test_successive_states_match_packed(self, codes, num_chains,
                                            num_registers, batch_size):
        """Successive batches on one engine each start from a fresh
        random snapshot, so the engine's memos (known matrix, baseline
        encode, single-flip table) must follow it: a round of 0-4
        flips per sequence, two single-flip rounds sharing the knowns
        (the second reuses the first's table from other states), and a
        single-flip round whose knowns have unknown cells (the table
        is rebuilt; flips on unknown cells have no effect)."""
        simd, packed = self._engines(codes, num_chains, num_registers)
        length, chains = simd.chain_length, simd.num_chains
        full = (1 << length) - 1
        rng = random.Random(batch_size)
        for most, unknowns in ((4, False), (1, False), (1, False),
                               (1, True)):
            knowns = [full] * chains
            if unknowns:
                for _ in range(2):
                    knowns[rng.randrange(chains)] &= \
                        ~(1 << rng.randrange(length))
            states = [rng.getrandbits(length) & known for known in knowns]
            patterns = []
            for _ in range(batch_size):
                cells = {(rng.randrange(chains), rng.randrange(length))
                         for _ in range(rng.randint(0, most))}
                patterns.append(ErrorPattern(frozenset(cells))
                                if cells else None)
            flips = PatternBatch.from_patterns(patterns, chains, length)

            out = simd.run_batch_summary(states, knowns, flips, batch_size)
            assert verdict_rows(out) == packed_verdicts(
                packed, states, knowns, patterns, length)
            assert out.injected.tolist() == [
                sum(knowns[chain] >> position & 1
                    for chain, position in pattern.locations)
                if pattern else 0 for pattern in patterns]
            if most == 1:
                assert simd.last_summary_path == "delta"

    def test_summary_rejects_empty_batch(self):
        simd, _packed = self._engines(["crc16"], 4, 20)
        states = [0] * simd.num_chains
        knowns = [(1 << simd.chain_length) - 1] * simd.num_chains
        flips = PatternBatch.from_patterns([], simd.num_chains,
                                           simd.chain_length)
        with pytest.raises(ValueError, match="batch size"):
            simd.run_batch_summary(states, knowns, flips, 0)


class TestWordPacking:
    """The word layout's all-sequences mask."""

    @pytest.mark.parametrize("batch_size", (1, 64, 65))
    def test_full_words(self, batch_size):
        mask = full_words(batch_size)
        value = int.from_bytes(mask.tobytes(), "little")
        assert value == (1 << batch_size) - 1


class TestSharedGF2Matrices:
    """The repro.codes.plane matrices both batch engines consume."""

    @pytest.mark.parametrize("name", [
        "hamming(7,4)", "hamming(15,11)", "secded(8,4)", "parity(8)"])
    def test_block_matrix_matches_packed_parity(self, name):
        from repro.codes.packed import packed_block_code

        code = get_code(name)
        matrix = block_parity_matrix(code)
        packed = packed_block_code(code)
        rng = random.Random(zlib.crc32(name.encode()))
        for _ in range(16):
            data = rng.getrandbits(code.k)
            parity = 0
            for j, (row, const) in enumerate(zip(matrix.rows,
                                                 matrix.const)):
                bit = const
                for index in row:
                    bit ^= (data >> (code.k - 1 - index)) & 1
                parity |= bit << (len(matrix.rows) - 1 - j)
            assert parity == packed.parity(data), name

    def test_block_matrix_rejects_adapter_codes(self):
        from repro.codes.interleave import InterleavedCode

        code = InterleavedCode(get_code("hamming(7,4)"), depth=2)
        with pytest.raises(CodeError):
            block_parity_matrix(code)

    @pytest.mark.parametrize("name", ["crc16", "crc16-ccitt", "crc8",
                                      "crc32"])
    @pytest.mark.parametrize("nbits", (0, 1, 7, 16, 40, 1040))
    def test_crc_stream_matrix_matches_packed(self, name, nbits):
        from repro.codes.packed import packed_stream_code

        code = get_code(name)
        matrix = crc_stream_matrix(code, nbits)
        packed = packed_stream_code(code)
        rng = random.Random(zlib.crc32(f"{name}/{nbits}".encode()))
        for _ in range(8):
            stream = rng.getrandbits(nbits) if nbits else 0
            signature = 0
            for j, (row, const) in enumerate(zip(matrix.rows,
                                                 matrix.const)):
                bit = const
                for t in row:
                    bit ^= (stream >> (nbits - 1 - t)) & 1
                signature |= bit << (code.width - 1 - j)
            assert signature == packed.signature_int(stream, nbits)
