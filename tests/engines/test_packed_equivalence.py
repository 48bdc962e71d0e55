"""Bit-exact equivalence of the packed engine against the reference.

Two identically built :class:`~repro.core.protected.ProtectedDesign`
instances -- one per engine -- are driven through the same sleep/wake
cycles with the same injections; every observable (outcome fields,
per-block reports including correction events, final register state)
must match bit for bit.
"""

import random
import zlib

import pytest

from repro.circuit.generators import make_random_state_circuit
from repro.core.protected import ProtectedDesign
from repro.faults.patterns import (
    burst_error_pattern,
    multi_error_pattern,
    single_error_pattern,
)


def _pair(seed, num_registers, codes, num_chains):
    designs = []
    for engine in ("reference", "packed"):
        circuit = make_random_state_circuit(num_registers, seed=seed)
        designs.append(ProtectedDesign(circuit, codes=codes,
                                       num_chains=num_chains, engine=engine))
    return designs


def _assert_equivalent(outcome_ref, outcome_packed, design_ref,
                       design_packed):
    assert outcome_packed.injected_errors == outcome_ref.injected_errors
    assert outcome_packed.detected == outcome_ref.detected
    assert outcome_packed.corrected_claim == outcome_ref.corrected_claim
    assert outcome_packed.state_intact == outcome_ref.state_intact
    assert outcome_packed.residual_errors == outcome_ref.residual_errors
    assert outcome_packed.error_code == outcome_ref.error_code
    assert outcome_packed.corrections_applied == \
        outcome_ref.corrections_applied
    assert outcome_packed.reports == outcome_ref.reports
    states_ref = [chain.read_state() for chain in design_ref.chains]
    states_packed = [chain.read_state() for chain in design_packed.chains]
    assert states_packed == states_ref


CONFIGS = [
    ("hamming_crc", ["hamming(7,4)", "crc16"], 8, 56),
    ("hamming_only", "hamming(7,4)", 4, 20),
    ("crc_only", "crc16", 4, 36),
    ("secded", "secded(8,4)", 8, 40),
    ("wide_hamming", ["hamming(15,11)", "crc16-ccitt"], 11, 77),
]


@pytest.mark.parametrize("label,codes,num_chains,num_registers", CONFIGS)
def test_randomized_campaign_equivalence(label, codes, num_chains,
                                         num_registers):
    rng = random.Random(zlib.crc32(label.encode()))
    design_ref, design_packed = _pair(42, num_registers, codes, num_chains)
    w, l = design_ref.num_chains, design_ref.chain_length
    for trial in range(8):
        kind = rng.choice(["none", "single", "burst", "multi"])
        prng = random.Random(trial)
        if kind == "none":
            pattern = None
        elif kind == "single":
            pattern = single_error_pattern(w, l, prng)
        elif kind == "burst":
            pattern = burst_error_pattern(w, l, 4, prng)
        else:
            pattern = multi_error_pattern(w, l, 3, prng)
        phase = rng.choice(["sleep", "post_wake"])
        outcome_ref = design_ref.sleep_wake_cycle(injection=pattern,
                                                  inject_phase=phase)
        outcome_packed = design_packed.sleep_wake_cycle(injection=pattern,
                                                        inject_phase=phase)
        _assert_equivalent(outcome_ref, outcome_packed, design_ref,
                           design_packed)


def test_overlapping_correcting_blocks():
    """Two block codes covering the same chains (the reference lets the
    last block's feedback win) must still match bit for bit."""
    codes = ["hamming(7,4)", "hamming(15,11)"]
    design_ref, design_packed = _pair(7, 44, codes, 4)
    engine = design_packed._get_packed_engine()
    assert engine._overlapping_correctors
    w, l = design_ref.num_chains, design_ref.chain_length
    for trial in range(6):
        prng = random.Random(trial * 13)
        pattern = multi_error_pattern(w, l, prng.randint(1, 3), prng)
        outcome_ref = design_ref.sleep_wake_cycle(injection=pattern)
        outcome_packed = design_packed.sleep_wake_cycle(injection=pattern)
        _assert_equivalent(outcome_ref, outcome_packed, design_ref,
                           design_packed)


def test_unknown_bits_are_reloaded_as_zero():
    """Both engines turn X (None) bits into driven zeros on decode."""
    designs = _pair(3, 20, ["hamming(7,4)", "crc16"], 4)
    for design in designs:
        design.chains[1].flops[2].force(None)
        design.chains[3].flops[0].force(None)
    outcome_ref = designs[0].sleep_wake_cycle()
    outcome_packed = designs[1].sleep_wake_cycle()
    _assert_equivalent(outcome_ref, outcome_packed, *designs)
    assert all(bit is not None
               for chain in designs[1].chains
               for bit in chain.read_state())


def test_engine_selection_api():
    circuit = make_random_state_circuit(20, seed=1)
    design = ProtectedDesign(circuit, codes="crc16", num_chains=4)
    assert design.engine == "reference"
    design.set_engine("packed")
    assert design.engine == "packed"
    with pytest.raises(ValueError):
        design.set_engine("verilog")
    with pytest.raises(ValueError):
        ProtectedDesign(circuit, codes="crc16", num_chains=4,
                        engine="quantum")


def test_switching_engines_mid_campaign():
    """The same design can alternate engines between cycles."""
    circuit = make_random_state_circuit(30, seed=9)
    design = ProtectedDesign(circuit, codes=["hamming(7,4)", "crc16"],
                             num_chains=6)
    reference = make_random_state_circuit(30, seed=9)
    shadow = ProtectedDesign(reference, codes=["hamming(7,4)", "crc16"],
                             num_chains=6)
    rng = random.Random(2)
    for trial in range(6):
        design.set_engine(rng.choice(["reference", "packed"]))
        pattern = single_error_pattern(design.num_chains,
                                       design.chain_length,
                                       random.Random(trial))
        outcome = design.sleep_wake_cycle(injection=pattern)
        expected = shadow.sleep_wake_cycle(injection=pattern)
        _assert_equivalent(expected, outcome, shadow, design)


def test_decode_before_encode_raises():
    circuit = make_random_state_circuit(20, seed=4)
    design = ProtectedDesign(circuit, codes="crc16", num_chains=4,
                             engine="packed")
    engine = design._get_packed_engine()
    states, knowns = design._pack_chains()
    with pytest.raises(RuntimeError):
        engine.decode_pass(states, knowns)


def test_engine_validates_geometry():
    circuit = make_random_state_circuit(20, seed=4)
    design = ProtectedDesign(circuit, codes="crc16", num_chains=4,
                             engine="packed")
    engine = design._get_packed_engine()
    with pytest.raises(ValueError):
        engine.encode_pass([0, 0], [0, 0])  # wrong chain count
    bad_state = [1 << design.chain_length] + [0] * (design.num_chains - 1)
    full = [(1 << design.chain_length) - 1] * design.num_chains
    with pytest.raises(ValueError):
        engine.encode_pass(bad_state, full)
