"""The state-level packed engine and its shared monitor helpers.

``test_packed_equivalence.py`` drives whole sleep/wake cycles through
``ProtectedDesign``; these tests call :class:`PackedMonitorEngine`,
:func:`classify_monitors`, :func:`replay_overlapping_feedback` and
:class:`PackedEngineAdapter` directly on packed chain integers.
"""

import pytest

from repro.circuit.generators import make_random_state_circuit
from repro.codes.base import bits_to_int
from repro.core.corrector import CorrectionEvent
from repro.core.protected import ProtectedDesign
from repro.engines.packed import (
    PackedEngineAdapter,
    PackedMonitorEngine,
    _PackedBlockMonitor,
    classify_monitors,
    replay_overlapping_feedback,
)


def _design(codes, num_chains=4, num_registers=28, seed=5):
    circuit = make_random_state_circuit(num_registers, seed=seed)
    return ProtectedDesign(circuit, codes=codes, num_chains=num_chains)


def _engine(design):
    return PackedMonitorEngine(design.monitor_bank, design.num_chains,
                               design.chain_length)


@pytest.mark.parametrize("codes", [
    "hamming(7,4)",
    "secded(8,4)",
    ["hamming(7,4)", "crc16"],
])
def test_encode_stores_reference_check_bits(codes):
    """The packed encode stores, cycle for cycle, the check bits the
    reference bank stores in its own block objects."""
    design = _design(codes)
    engine = _engine(design)
    states, knowns = design._pack_chains()
    assert engine.encode_pass(states, knowns) == design.chain_length
    design.monitor_bank.encode_pass(design.chains)
    kinds = []
    for (kind, monitor), block in zip(engine._order,
                                      design.monitor_bank.blocks):
        kinds.append(kind)
        assert monitor.block is block
        if kind == "block":
            assert monitor.stored_parity == [
                bits_to_int(word) for word in block._stored_parity]
        else:
            assert monitor.stored_signature == \
                bits_to_int(block._stored_signature)
    assert "block" in kinds


def test_clean_decode_reports_nothing_and_keeps_state():
    design = _design(["hamming(7,4)", "crc16"])
    engine = _engine(design)
    states, knowns = design._pack_chains()
    engine.encode_pass(states, knowns)
    reports, corrected = engine.decode_pass(states, knowns)
    assert corrected == states
    assert len(reports) == len(design.monitor_bank.blocks)
    assert not any(report.error_detected for report in reports)


def test_single_flip_is_corrected_at_its_cycle():
    """A flipped bit at scan position ``p`` leaves the chain at decode
    cycle ``l - 1 - p`` and is corrected there."""
    design = _design(["hamming(7,4)", "crc16"])
    engine = _engine(design)
    states, knowns = design._pack_chains()
    engine.encode_pass(states, knowns)
    chain, position = 2, 3
    upset = list(states)
    upset[chain] ^= 1 << position
    reports, corrected = engine.decode_pass(upset, knowns)
    assert corrected == states
    events = [event for report in reports for event in report.corrections]
    correcting = [block for block in design.monitor_bank.blocks
                  if block.can_correct and chain in block.chain_indices]
    assert events == [CorrectionEvent(
        block_index=correcting[0].block_index, chain_index=chain,
        cycle=design.chain_length - 1 - position)]
    assert not any(report.uncorrectable for report in reports)


def test_rejects_state_outside_known():
    design = _design("crc16")
    engine = _engine(design)
    states = [0b1010] + [0] * (design.num_chains - 1)
    knowns = [0b0010] + [0] * (design.num_chains - 1)
    with pytest.raises(ValueError):
        engine.encode_pass(states, knowns)


def test_rejects_oversized_known():
    design = _design("crc16")
    engine = _engine(design)
    states = [0] * design.num_chains
    knowns = [1 << design.chain_length] + [0] * (design.num_chains - 1)
    with pytest.raises(ValueError):
        engine.encode_pass(states, knowns)


def test_rejects_known_count_mismatch():
    design = _design("crc16")
    engine = _engine(design)
    states, knowns = design._pack_chains()
    with pytest.raises(ValueError):
        engine.encode_pass(states, knowns[:-1])


def test_classify_monitors_keeps_bank_order():
    design = _design(["hamming(7,4)", "crc16"])
    order, correcting, observing, overlapping = classify_monitors(
        design.monitor_bank, lambda block: block, lambda block: block)
    blocks = design.monitor_bank.blocks
    assert [monitor for _, monitor in order] == list(blocks)
    assert [kind for kind, _ in order] == [
        "block" if block.can_correct else "stream" for block in blocks]
    assert correcting == [block for block in blocks if block.can_correct]
    assert observing == [block for block in blocks if not block.can_correct]
    assert correcting and observing
    assert not overlapping


def test_classify_monitors_flags_overlapping_correctors():
    design = _design(["hamming(7,4)", "hamming(15,11)"], num_registers=44)
    *_, overlapping = classify_monitors(
        design.monitor_bank, _PackedBlockMonitor, lambda block: block)
    assert overlapping


def test_replay_without_errors_is_identity():
    design = _design(["hamming(7,4)", "hamming(15,11)"], num_registers=44)
    engine = _engine(design)
    states, knowns = design._pack_chains()
    engine.encode_pass(states, knowns)
    assert engine._overlapping_correctors
    replayed = replay_overlapping_feedback(
        engine._correcting, states, design.chain_length,
        lambda monitor, cycle: monitor.stored_parity[cycle])
    assert replayed == states


def test_adapter_round_trip_through_design_chains():
    """The adapter packs the design's chains, decodes and writes the
    correction back into the flop objects."""
    design = _design(["hamming(7,4)", "crc16"])
    adapter = PackedEngineAdapter(design.monitor_bank, design.num_chains,
                                  design.chain_length)
    assert not adapter.supports_summary
    before = [chain.read_state() for chain in design.chains]
    assert adapter.encode_pass(design) == design.chain_length
    design.chains[1].flops[0].flip()
    reports = adapter.decode_pass(design)
    assert sum(len(report.corrections) for report in reports) == 1
    assert [chain.read_state() for chain in design.chains] == before
