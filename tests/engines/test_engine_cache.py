"""Regression: engine instances must track the monitoring structure.

Historically ``ProtectedDesign`` built its packed engine lazily and
never invalidated it, so replacing the monitor bank (or re-balancing
the chains) silently kept simulating the *old* structure.  The engine
cache is now keyed on the bank object and the chain geometry; these
tests pin that behaviour down.
"""

import random

import pytest

from repro.circuit.generators import make_random_state_circuit
from repro.circuit.scan import ScanChain
from repro.core.monitor import MonitorBank, build_monitor_blocks
from repro.core.protected import ProtectedDesign
from repro.codes.registry import get_code
from repro.faults.patterns import single_error_pattern


def _design(engine, num_registers=44, codes=("hamming(7,4)", "crc16"),
            num_chains=4, seed=11):
    circuit = make_random_state_circuit(num_registers, seed=seed)
    return ProtectedDesign(circuit, codes=list(codes),
                           num_chains=num_chains, engine=engine)


def _swap_bank(design, code_names):
    """Replace the design's monitor bank with freshly built blocks."""
    blocks = []
    next_index = 0
    for name in code_names:
        code = get_code(name)
        width = getattr(code, "k", design.num_chains)
        for block in build_monitor_blocks(code, design.num_chains, width):
            block.block_index = next_index
            next_index += 1
            blocks.append(block)
    design.monitor_bank = MonitorBank(blocks)


def _outcome_tuple(outcome):
    return (outcome.injected_errors, outcome.detected,
            outcome.corrected_claim, outcome.state_intact,
            outcome.residual_errors, outcome.error_code,
            outcome.corrections_applied, outcome.reports)


class TestEngineCacheInvalidation:
    def test_packed_engine_rebuilt_when_bank_is_replaced(self):
        design = _design("packed")
        design.sleep_wake_cycle()
        stale = design._resolve_engine("packed").engine
        _swap_bank(design, ["hamming(15,11)", "crc16-ccitt"])
        rebuilt = design._resolve_engine("packed").engine
        assert rebuilt is not stale

    def test_results_follow_the_new_bank(self):
        """After a bank swap, every engine must simulate the *new*
        monitoring structure -- all engines agree with the reference."""
        pytest.importorskip("numpy")
        designs = {name: _design(name) for name in
                   ("reference", "packed", "simd")}
        for design in designs.values():
            design.sleep_wake_cycle()  # populate the engine caches
            _swap_bank(design, ["hamming(15,11)", "crc16-ccitt"])
        outcomes = {}
        for name, design in designs.items():
            pattern = single_error_pattern(design.num_chains,
                                           design.chain_length,
                                           random.Random(3))
            outcomes[name] = _outcome_tuple(
                design.sleep_wake_cycle(injection=pattern))
        assert outcomes["packed"] == outcomes["reference"]
        assert outcomes["simd"] == outcomes["reference"]

    def test_cache_survives_engine_switching(self):
        """Switching engines back and forth reuses cached instances as
        long as the structure is unchanged."""
        design = _design("packed")
        design.sleep_wake_cycle()
        first = design._resolve_engine("packed").engine
        design.set_engine("reference")
        design.sleep_wake_cycle()
        design.set_engine("packed")
        design.sleep_wake_cycle()
        assert design._resolve_engine("packed").engine is first

    def test_chain_geometry_change_invalidates(self):
        """Re-balancing the chains (same bank object) rebuilds engines."""
        design = _design("packed", num_registers=48, codes=("crc16",),
                         num_chains=4)
        design.sleep_wake_cycle()
        stale = design._resolve_engine("packed").engine
        # Re-balance the same flops into 6 chains of length 8.
        flops = [flop for chain in design.chains for flop in chain.flops]
        design.chains = [ScanChain(flops[i * 8:(i + 1) * 8],
                                   name=f"rebal{i}") for i in range(6)]
        _swap_bank(design, ["crc16"])
        rebuilt = design._resolve_engine("packed").engine
        assert rebuilt is not stale
        assert rebuilt.num_chains == 6
        assert rebuilt.chain_length == 8


@pytest.mark.parametrize("sampler", ("array", "scalar"))
def test_simd_summary_campaign_builds_no_scalar_adapter(monkeypatch,
                                                        sampler):
    """The simd engine's scalar passes run on a packed adapter built by
    the first of them: a summary campaign never builds one, and a
    scalar cycle builds one and keeps it."""
    pytest.importorskip("numpy")
    from repro.engines import simd
    from repro.validation.campaign import run_sharded_single_error_campaign

    built = []

    class CountingAdapter(simd.PackedEngineAdapter):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(simd, "PackedEngineAdapter", CountingAdapter)
    result = run_sharded_single_error_campaign(
        128, width=8, depth=8, num_chains=8, engine="simd", sampler=sampler,
        batch_size=64, chunk_size=64, executor="serial")
    assert result.stats.num_sequences == 128
    assert built == []

    design = _design("simd")
    reference = _design("reference")
    rng = random.Random(5)
    for _ in range(2):
        pattern = single_error_pattern(design.num_chains,
                                       design.chain_length, rng)
        assert _outcome_tuple(design.sleep_wake_cycle(pattern)) == \
            _outcome_tuple(reference.sleep_wake_cycle(pattern))
    assert len(built) == 1
