"""Tests for scan chains and scan insertion."""

import pytest

from repro.circuit.flipflop import RetentionFlipFlop, ScanFlipFlop
from repro.circuit.generators import make_counter, make_random_state_circuit
from repro.circuit.scan import ScanChain, balance_chains, insert_scan_chains


def _chain_of(values):
    flops = [ScanFlipFlop(name=f"ff{i}", init=v) for i, v in enumerate(values)]
    return ScanChain(flops, name="chain")


class TestScanChain:
    def test_length_and_scan_out(self):
        chain = _chain_of([1, 0, 1])
        assert len(chain) == 3
        assert chain.length == 3
        assert chain.scan_out == 1

    def test_flops_returns_a_copy(self):
        chain = _chain_of([1, 0, 1])
        flops = chain.flops
        first = flops[0]
        flops.clear()
        flops.append(ScanFlipFlop(name="stranger", init=0))
        assert len(chain) == 3
        assert chain.flops[0] is first
        assert chain.read_state() == [1, 0, 1]

    def test_iteration_and_indexing_read_the_chain(self):
        chain = _chain_of([1, 0, 1])
        assert list(chain) == chain.flops
        assert [chain[i] for i in range(3)] == chain.flops
        assert chain[-1].q == chain.scan_out

    def test_shift_moves_data_towards_scan_out(self):
        chain = _chain_of([1, 0, 1])
        out = chain.shift(0)
        assert out == 1                       # old last value leaves
        assert chain.read_state() == [0, 1, 0]

    def test_shift_many_returns_stream(self):
        chain = _chain_of([1, 1, 0])
        outs = chain.shift_many([0, 0, 0])
        # The pre-existing state leaves scan-out last-element-first.
        assert outs == [0, 1, 1]
        assert chain.read_state() == [0, 0, 0]

    def test_circulate_preserves_state(self):
        values = [1, 0, 0, 1, 1, 0]
        chain = _chain_of(values)
        observed = chain.circulate()
        assert chain.read_state() == values
        assert len(observed) == len(values)
        # The observed stream is the state read scan-out side first.
        assert observed == list(reversed(values))

    def test_load_state(self):
        chain = _chain_of([0, 0, 0])
        chain.load_state([1, 1, 0])
        assert chain.read_state() == [1, 1, 0]
        with pytest.raises(ValueError):
            chain.load_state([1, 0])

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            ScanChain([])


class TestBalanceChains:
    def test_even_split(self):
        assert balance_chains(12, 4) == [3, 3, 3, 3]

    def test_uneven_split_front_loads_extras(self):
        assert balance_chains(10, 4) == [3, 3, 2, 2]

    def test_paper_fifo_configuration(self):
        # 1040 flops in 80 chains -> 13 flops per chain (paper Section IV).
        assert balance_chains(1040, 80) == [13] * 80

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            balance_chains(4, 0)
        with pytest.raises(ValueError):
            balance_chains(3, 5)


class TestInsertScanChains:
    def test_chains_cover_all_registers_once(self):
        circuit = make_random_state_circuit(100, seed=1)
        chains = insert_scan_chains(circuit, 7)
        assert len(chains) == 7
        flops = [ff for chain in chains for ff in chain.flops]
        assert len(flops) == 100
        assert {id(f) for f in flops} == {id(f) for f in circuit.registers}

    def test_chain_lengths_are_balanced(self):
        circuit = make_random_state_circuit(100, seed=1)
        chains = insert_scan_chains(circuit, 7)
        lengths = [len(c) for c in chains]
        assert max(lengths) - min(lengths) <= 1

    def test_scan_shift_through_inserted_chain(self):
        circuit = make_counter(8)
        for _ in range(5):
            circuit.tick()
        chains = insert_scan_chains(circuit, 1)
        chain = chains[0]
        before = chain.read_state()
        chain.circulate()
        assert chain.read_state() == before

    def test_all_flops_are_retention_type(self):
        circuit = make_counter(8)
        chains = insert_scan_chains(circuit, 2)
        for chain in chains:
            for ff in chain.flops:
                assert isinstance(ff, RetentionFlipFlop)
