"""Bit-exactness of the per-sequence batch.

Every engine runs ``sleep_wake_cycle_batch`` as a loop of scalar
cycles with a state snapshot/restore around each sequence.  On engines
without summary support (``"packed"``, ``"reference"``) that loop is
the batch path for adapter codes (interleaved wrappers, user-defined
codes), which the SIMD engine rejects, and for every batched campaign
on an install without numpy, where the SIMD engine is not
registered.  It must match
the reference fallback bit for bit (outcome fields, per-block reports
including correction events, final register state) across every
registered code family, the adapter codes, geometries with and without
padding, and batch sizes including B=1 and non-powers-of-two; and a
batched campaign without the SIMD engine must reproduce the SIMD
engine's results exactly.
"""

import random
import zlib

import pytest

from repro.circuit.generators import make_random_state_circuit
from repro.codes.base import StreamCode
from repro.codes.hamming import HammingCode
from repro.codes.interleave import InterleavedCode
from repro.codes.registry import get_code
from repro.core.protected import ProtectedDesign
from repro.engines import registry
from repro.engines.registry import get_engine, validate_engine
from repro.faults.patterns import (
    burst_error_pattern,
    multi_error_pattern,
    single_error_pattern,
)
from repro.validation.campaign import (
    run_sharded_multiple_error_campaign,
    run_sharded_single_error_campaign,
)


class RotateXorCode(StreamCode):
    """A user-defined 8-bit stream code (rotate left, XOR in the bit):
    no packed specialisation exists, so the packed engine serves it
    through its generic stream adapter."""

    signature_bits = 8

    def signature(self, stream):
        register = self._initial_register()
        for bit in stream:
            register = self._step(register, bit)
        return self._finalise(register)

    def _step(self, register, bit):
        rotated = ((register << 1) | (register >> 7)) & 0xFF
        return rotated ^ bit


#: (label, codes, num_chains, num_registers) -- every registered code
#: family appears at least once (the full CRC table, the whole paper
#: Hamming family, SECDED and parity), plus the paper's stacked
#: Hamming+CRC configuration and geometries that force padding cells
#: and tied-off tail blocks.
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

#: Adapter codes: no structured GF(2) form, so only the object path
#: (and with it the batch fallback) runs them.
ADAPTER_CONFIGS = [
    ("interleaved74_x2", [InterleavedCode(HammingCode(7, 4), depth=2)],
     8, 48),
    ("interleaved74_x4_crc16",
     [InterleavedCode(HammingCode(7, 4), depth=4), "crc16"], 16, 64),
    ("interleaved_secded_x2",
     [InterleavedCode(get_code("secded(8,4)"), depth=2)], 8, 40),
    ("hamming74_custom_stream", ["hamming(7,4)", RotateXorCode()], 8, 40),
]

BATCH_SIZES = (1, 3, 8)


def _pair(seed, num_registers, codes, num_chains):
    designs = []
    for engine in ("reference", "packed"):
        circuit = make_random_state_circuit(num_registers, seed=seed)
        designs.append(ProtectedDesign(circuit, codes=codes,
                                       num_chains=num_chains,
                                       engine=engine))
    return designs


def _patterns(design, batch_size, rng):
    patterns = []
    w, l = design.num_chains, design.chain_length
    for _ in range(batch_size):
        kind = rng.choice(["none", "single", "single", "burst", "multi"])
        if kind == "none":
            patterns.append(None)
        elif kind == "single":
            patterns.append(single_error_pattern(w, l, rng))
        elif kind == "burst":
            patterns.append(burst_error_pattern(w, l, 4, rng))
        else:
            patterns.append(multi_error_pattern(w, l, 3, rng))
    return patterns


def _outcome_tuple(outcome):
    return (outcome.injected_errors, outcome.detected,
            outcome.corrected_claim, outcome.state_intact,
            outcome.residual_errors, outcome.error_code,
            outcome.corrections_applied, outcome.reports)


@pytest.mark.parametrize("label,codes,num_chains,num_registers",
                         CONFIGS + ADAPTER_CONFIGS)
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_fallback_cycle_equivalence(label, codes, num_chains,
                                    num_registers, batch_size):
    rng = random.Random(zlib.crc32(f"fallback/{label}/{batch_size}"
                                   .encode()))
    design_ref, design_packed = _pair(42, num_registers, codes,
                                      num_chains)
    assert not get_engine("packed", design_packed).supports_summary
    before = [c.read_state() for c in design_packed.chains]
    for trial in range(2):
        patterns = _patterns(design_ref, batch_size, rng)
        phase = rng.choice(["sleep", "post_wake"])
        ref = design_ref.sleep_wake_cycle_batch(patterns,
                                                inject_phase=phase)
        packed = design_packed.sleep_wake_cycle_batch(patterns,
                                                      inject_phase=phase)
        assert len(ref) == len(packed) == batch_size
        for expected, actual in zip(ref, packed):
            assert _outcome_tuple(actual) == _outcome_tuple(expected)
        states_ref = [c.read_state() for c in design_ref.chains]
        states_packed = [c.read_state() for c in design_packed.chains]
        assert states_packed == states_ref == before


def test_fallback_with_unknown_bits():
    designs = _pair(3, 20, ["hamming(7,4)", "crc16"], 4)
    for design in designs:
        design.chains[1].flops[2].force(None)
        design.chains[3].flops[0].force(None)
    rng = random.Random(23)
    patterns = [None] + [single_error_pattern(4, 5, rng) for _ in range(4)]
    ref = designs[0].sleep_wake_cycle_batch(patterns)
    packed = designs[1].sleep_wake_cycle_batch(patterns)
    for expected, actual in zip(ref, packed):
        assert _outcome_tuple(actual) == _outcome_tuple(expected)
    # Unknown pre-sleep bits can never round-trip: state_intact is False.
    assert not any(outcome.state_intact for outcome in packed)


def test_fallback_overlapping_correcting_blocks():
    """Correcting blocks sharing chains: every sequence's corrections
    and the corrector aggregate match the reference."""
    codes = ["hamming(7,4)", "hamming(15,11)"]
    design_ref, design_packed = _pair(7, 44, codes, 4)
    rng = random.Random(13)
    patterns = [multi_error_pattern(design_ref.num_chains,
                                    design_ref.chain_length,
                                    rng.randint(1, 3), rng)
                for _ in range(5)]
    ref = design_ref.sleep_wake_cycle_batch(patterns)
    packed = design_packed.sleep_wake_cycle_batch(patterns)
    for expected, actual in zip(ref, packed):
        assert _outcome_tuple(actual) == _outcome_tuple(expected)
    assert design_packed.corrector.num_corrections == \
        design_ref.corrector.num_corrections


# ----------------------------------------------------------------------
# Batched campaigns with the SIMD engine unregistered (no numpy)
# ----------------------------------------------------------------------
CAMPAIGN_KWARGS = dict(width=8, depth=8, num_chains=8, seed=20100308,
                       chunk_size=16)

CAMPAIGNS = {
    "single": lambda n, **kw: run_sharded_single_error_campaign(n, **kw),
    "burst": lambda n, **kw: run_sharded_multiple_error_campaign(
        n, clustered=True, **kw),
    "scattered": lambda n, **kw: run_sharded_multiple_error_campaign(
        n, clustered=False, **kw),
}


def _hide_simd(monkeypatch):
    """Leave the engine registry as an install without numpy has it:
    no ``"simd"`` and (numba needing numpy) no ``"jit"``."""
    monkeypatch.setattr(registry, "_FACTORIES",
                        {name: factory for name, factory
                         in registry._FACTORIES.items()
                         if name not in ("simd", "jit")})


@pytest.mark.parametrize("kind", sorted(CAMPAIGNS))
@pytest.mark.parametrize("batch_size", (1, 7, 16))
def test_batch_campaign_without_simd_matches_simd(kind, batch_size,
                                                  monkeypatch):
    pytest.importorskip("numpy")
    campaign = CAMPAIGNS[kind]
    expected = campaign(40, engine="simd", batch_size=batch_size,
                        **CAMPAIGN_KWARGS)
    _hide_simd(monkeypatch)
    with pytest.raises(ValueError, match="registers only when numpy"):
        validate_engine("simd")
    actual = campaign(40, engine="packed", batch_size=batch_size,
                      **CAMPAIGN_KWARGS)
    assert actual == expected
    assert actual.stats.num_sequences == 40


def test_default_design_without_simd_takes_fallback(monkeypatch):
    """Without the SIMD engine no built-in engine batches, and a batch
    on the default engine still matches running it one by one."""
    _hide_simd(monkeypatch)
    circuit = make_random_state_circuit(40, seed=11)
    design = ProtectedDesign(circuit, codes=["hamming(7,4)", "crc16"],
                             num_chains=8)
    assert not any(get_engine(name, design).supports_summary
                   for name in registry.available_engines())
    rng = random.Random(5)
    patterns = [single_error_pattern(design.num_chains,
                                     design.chain_length, rng)
                for _ in range(4)]
    batch = design.sleep_wake_cycle_batch(patterns)
    for pattern, outcome in zip(patterns, batch):
        scalar = design.sleep_wake_cycle(injection=pattern)
        assert _outcome_tuple(outcome) == _outcome_tuple(scalar)
