"""Batch equivalence under *dense* fault patterns, for every
summary-capable engine.

The single-error regime the original property tests leaned on is the
vectorised engines' best case: almost no per-sequence work.  Dense
patterns -- burst windows spanning chain and monitoring-block
boundaries, multi-error storms, droop storms where a sizeable fraction
of all retention latches flips -- exercise the SIMD engine's vectorised
correction scatter on every sequence of the batch.  Every engine that
overrides ``run_batch_summary`` (so ``supports_summary`` is True) is
discovered from the registry and its columnar summary path (folded with ``add_batch``) is checked
against per-sequence reference cycles, so third-party summary engines
get the same scrutiny for free.  The packed engine's per-sequence
batch -- the batch path of adapter codes and of installs without
numpy -- is held to the same dense batches.
"""

import importlib.util
import random
import zlib

import pytest

from repro.circuit.generators import make_random_state_circuit
from repro.core.protected import ProtectedDesign
from repro.engines.registry import available_engines, get_engine
from repro.faults.droop import DroopFaultInjector
from repro.faults.patterns import (
    ErrorPattern,
    burst_error_pattern,
    multi_error_pattern,
)
from repro.power.retention import RetentionUpsetModel
from tests.engines.summary_oracle import assert_summary_matches, run_summary

CODES = ["hamming(7,4)", "crc16"]
NUM_CHAINS = 8
NUM_REGISTERS = 56


def _design(engine, seed=42):
    circuit = make_random_state_circuit(NUM_REGISTERS, seed=seed)
    return ProtectedDesign(circuit, codes=CODES, num_chains=NUM_CHAINS,
                           engine=engine)


def summary_engines():
    """Registry engines supporting the summary interface (construction
    errors mean "engine does not support this configuration")."""
    probe = _design("reference")
    names = []
    for name in available_engines():
        try:
            engine = get_engine(name, probe)
        except ValueError:
            continue
        if engine.supports_summary:
            names.append(name)
    return names


#: Every summary-capable engine, plus the packed per-sequence batch.
ENGINES_UNDER_TEST = summary_engines() + ["packed"]


def test_summary_engines_discovered():
    names = summary_engines()
    if importlib.util.find_spec("numpy") is not None:
        assert "simd" in names


def _boundary_burst(design, rng):
    """A burst window straddling a chain/monitoring-block boundary.

    The window covers the last chain of one Hamming block and the
    first chain of the next (monitor_width = 4 here), across several
    adjacent scan positions -- the clustered multi-chain corruption of
    the paper's Fig. 7(b), landing in *two* codewords per slice.
    """
    length = design.chain_length
    block_edge = 4 * rng.randrange(1, design.num_chains // 4)
    position0 = rng.randrange(length - 2)
    span = rng.randrange(2, min(4, length - position0) + 1)
    locations = frozenset(
        (chain, position0 + dp)
        for chain in (block_edge - 1, block_edge)
        for dp in range(span))
    return ErrorPattern(locations=locations, kind="burst")


def _droop_storm(design, rng):
    """A physically derived storm: the wake-up droop upsets a large
    fraction of the retention latches at once."""
    injector = DroopFaultInjector(
        upset_model=RetentionUpsetModel(nominal_margin=0.05, slope=0.05,
                                        seed=rng.randrange(2**31)))
    flops = [flop for chain in design.chains for flop in chain.flops]
    pattern = injector.inject(flops, chain_length=design.chain_length)
    assert pattern.num_errors >= len(flops) // 4, \
        "storm fixture lost its density"
    return pattern


def _pattern_batch(design, rng, batch_size=9):
    length = design.chain_length
    makers = [
        lambda: _boundary_burst(design, rng),
        lambda: burst_error_pattern(design.num_chains, length,
                                    rng.randrange(4, 9), rng),
        lambda: multi_error_pattern(design.num_chains, length,
                                    (design.num_chains * length) // 4,
                                    rng),
        lambda: _droop_storm(design, rng),
    ]
    return [makers[i % len(makers)]() for i in range(batch_size)]


def _outcome_tuple(outcome):
    return (outcome.injected_errors, outcome.detected,
            outcome.corrected_claim, outcome.state_intact,
            outcome.residual_errors, outcome.error_code,
            outcome.corrections_applied, outcome.reports)


def _assert_batch_matches(under_test, patterns, expected,
                          inject_phase="sleep"):
    """The summary path on summary engines, the per-sequence batch
    otherwise, against per-sequence reference outcomes."""
    if under_test.supports_batch_summary:
        assert_summary_matches(
            run_summary(under_test, patterns, inject_phase), expected)
    else:
        actual = under_test.sleep_wake_cycle_batch(
            patterns, inject_phase=inject_phase)
        assert [_outcome_tuple(o) for o in actual] == \
            [_outcome_tuple(o) for o in expected]


@pytest.mark.parametrize("engine", ENGINES_UNDER_TEST)
@pytest.mark.parametrize("batch_size", (1, 9, 65))
def test_dense_batches_match_reference(engine, batch_size):
    rng = random.Random(zlib.crc32(f"{engine}/{batch_size}".encode()))
    reference = _design("reference")
    under_test = _design(engine)
    for trial in range(2):
        patterns = _pattern_batch(reference, rng, batch_size)
        phase = rng.choice(["sleep", "post_wake"])
        expected = reference.sleep_wake_cycle_batch(patterns,
                                                    inject_phase=phase)
        assert len(expected) == batch_size
        _assert_batch_matches(under_test, patterns, expected, phase)
        # Dense batches leave the design state untouched too.
        assert [c.read_state() for c in under_test.chains] == \
            [c.read_state() for c in reference.chains]


@pytest.mark.parametrize("engine", ENGINES_UNDER_TEST)
def test_every_sequence_dense_burst(engine):
    """The dense-campaign regime itself: 100% of sequences carry a
    multi-bit burst (no clean sequences to amortise against)."""
    rng = random.Random(20100310)
    reference = _design("reference", seed=7)
    under_test = _design(engine, seed=7)
    patterns = [burst_error_pattern(reference.num_chains,
                                    reference.chain_length, 6, rng)
                for _ in range(16)]
    expected = reference.sleep_wake_cycle_batch(patterns)
    _assert_batch_matches(under_test, patterns, expected)
    assert all(outcome.detected for outcome in expected)
