"""The cost model's gate counts, pinned per code family.

Every code reports its encoder, decoder, corrector and feedback gate
counts through methods of its base class: Hamming, SECDED, parity and
CRC override them with exact counts, and the rest (parity's decoder,
an interleaved code, a user code) use the base class's estimates.
These counts set the monitor and corrector rows behind the area and
power tables, so the per-group cell counts of ``full_netlist()`` are
pinned here for each family, including the estimate rows.
"""

import pytest

from repro.circuit.generators import make_random_state_circuit
from repro.codes.base import StreamCode
from repro.codes.hamming import HammingCode
from repro.codes.interleave import InterleavedCode
from repro.codes.parity import ParityCode
from repro.core.protected import ProtectedDesign
from repro.flow.report import format_synthesis_report
from repro.flow.synthesizer import SynthesisResult


class UserStream(StreamCode):
    """A user stream code (rotate left, XOR in the bit) that overrides
    no cost count and has no name of its own."""

    signature_bits = 8

    def signature(self, stream):
        register = 0
        for bit in stream:
            register = self._step(register, bit)
        return self._finalise(register)

    def _step(self, register, bit):
        return (((register << 1) | (register >> 7)) & 0xFF) ^ bit


#: label -> (codes, registers, chains).
CONFIGS = {
    "hamming74_crc16": (lambda: ["hamming(7,4)", "crc16"], 64, 8),
    "hamming6357": (lambda: "hamming(63,57)", 120, 8),
    "secded84": (lambda: "secded(8,4)", 40, 8),
    "parity8_even": (lambda: ParityCode(8), 48, 8),
    "parity8_odd": (lambda: ParityCode(8, odd=True), 48, 8),
    "interleaved74x2": (lambda: InterleavedCode(HammingCode(7, 4), 2),
                        48, 8),
    "crc8": (lambda: "crc8", 24, 3),
    "user_stream": (UserStream, 24, 4),
}

#: Per-group cell counts of ``full_netlist()`` for each configuration.
CELL_COUNTS = {
    "hamming74_crc16": {
        "controller": {
            "and2": 4, "dff": 14, "inv": 8, "nand2": 28, "nor2": 10, "or2": 6,
            "xor2": 4
        },
        "core": {"nand2": 64, "nor2": 64, "rsdff": 64},
        "corrector": {"and2": 36, "mux2": 8, "xor2": 8},
        "monitor": {
            "and2": 19, "aon_dff": 64, "or2": 4, "ret_latch": 16, "xnor2": 22,
            "xor2": 42
        },
        "scan_routing": {"buf": 8, "mux3": 8},
    },
    "hamming6357": {
        "controller": {
            "and2": 4, "dff": 14, "inv": 8, "nand2": 28, "nor2": 10, "or2": 6,
            "xor2": 4
        },
        "core": {"nand2": 120, "nor2": 120, "rsdff": 120},
        "corrector": {"and2": 372, "mux2": 8, "xor2": 57},
        "monitor": {
            "and2": 5, "aon_dff": 90, "or2": 2, "xnor2": 6, "xor2": 366
        },
        "scan_routing": {"buf": 8, "mux3": 8},
    },
    "secded84": {
        "controller": {
            "and2": 3, "dff": 13, "inv": 8, "nand2": 28, "nor2": 10, "or2": 6,
            "xor2": 3
        },
        "core": {"nand2": 40, "nor2": 40, "rsdff": 40},
        "corrector": {"and2": 56, "mux2": 8, "xor2": 8},
        "monitor": {
            "and2": 6, "aon_dff": 40, "or2": 4, "xnor2": 8, "xor2": 42
        },
        "scan_routing": {"buf": 8, "mux3": 8},
    },
    "parity8_even": {
        "controller": {
            "and2": 3, "dff": 13, "inv": 8, "nand2": 28, "nor2": 10, "or2": 6,
            "xor2": 3
        },
        "core": {"nand2": 48, "nor2": 48, "rsdff": 48},
        "corrector": {"and2": 18, "mux2": 8, "xor2": 8},
        "monitor": {"and2": 1, "aon_dff": 6, "or2": 2, "xnor2": 1, "xor2": 10},
        "scan_routing": {"buf": 8, "mux3": 8},
    },
    "parity8_odd": {
        "controller": {
            "and2": 3, "dff": 13, "inv": 8, "nand2": 28, "nor2": 10, "or2": 6,
            "xor2": 3
        },
        "core": {"nand2": 48, "nor2": 48, "rsdff": 48},
        "corrector": {"and2": 18, "mux2": 8, "xor2": 8},
        "monitor": {"and2": 1, "aon_dff": 6, "or2": 2, "xnor2": 1, "xor2": 11},
        "scan_routing": {"buf": 8, "mux3": 8},
    },
    "interleaved74x2": {
        "controller": {
            "and2": 3, "dff": 13, "inv": 8, "nand2": 28, "nor2": 10, "or2": 6,
            "xor2": 3
        },
        "core": {"nand2": 48, "nor2": 48, "rsdff": 48},
        "corrector": {"and2": 28, "mux2": 8, "xor2": 8},
        "monitor": {
            "and2": 5, "aon_dff": 36, "or2": 2, "xnor2": 6, "xor2": 30
        },
        "scan_routing": {"buf": 8, "mux3": 8},
    },
    "crc8": {
        "controller": {
            "and2": 4, "dff": 14, "inv": 8, "nand2": 28, "nor2": 10, "or2": 6,
            "xor2": 4
        },
        "core": {"nand2": 24, "nor2": 24, "rsdff": 24},
        "corrector": {"mux2": 3},
        "monitor": {
            "and2": 7, "aon_dff": 8, "ret_latch": 8, "xnor2": 8, "xor2": 7
        },
        "scan_routing": {"buf": 3, "mux3": 3},
    },
    "user_stream": {
        "controller": {
            "and2": 3, "dff": 13, "inv": 8, "nand2": 28, "nor2": 10, "or2": 6,
            "xor2": 3
        },
        "core": {"nand2": 24, "nor2": 24, "rsdff": 24},
        "corrector": {"mux2": 4},
        "monitor": {
            "and2": 7, "aon_dff": 8, "ret_latch": 8, "xnor2": 8, "xor2": 12
        },
        "scan_routing": {"buf": 4, "mux3": 4},
    },
}


def _design(label):
    codes, registers, chains = CONFIGS[label]
    return ProtectedDesign(make_random_state_circuit(registers, seed=3),
                           codes=codes(), num_chains=chains)


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_full_netlist_cell_counts(label):
    netlist = _design(label).full_netlist()
    assert {group: netlist.cell_counts(group)
            for group in netlist.groups()} == CELL_COUNTS[label]


def test_user_code_reports_its_class_name():
    """A code without a name of its own shows its class name in the
    design's repr and in the synthesis report."""
    design = _design("user_stream")
    assert "codes=[UserStream]" in repr(design)
    report = format_synthesis_report(
        SynthesisResult(design=design, cost=design.cost_report()))
    assert "monitoring codes   : UserStream" in report
