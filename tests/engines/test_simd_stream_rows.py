"""The simd engine's CRC stream rows as flat cell indices.

``rows_flat`` maps each signature row's stream-bit indices to flat
``chain * chain_length + position`` scan cells.  It is built from the
stream's impulse-response columns with one transpose; this pins it to
the rows of the numpy-free ``crc_stream_matrix`` and the per-bit
formula, on the paper's 32x32 FIFO (80 chains x 13), on a 16 x 17 toy
geometry and directly for several CRCs and chain layouts.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.circuit.fifo import SyncFIFO                         # noqa: E402
from repro.circuit.generators import make_random_state_circuit  # noqa: E402
from repro.codes.crc import CRCCode                             # noqa: E402
from repro.codes.plane import crc_stream_matrix                 # noqa: E402
from repro.codes.registry import get_code                       # noqa: E402
from repro.core.protected import ProtectedDesign                # noqa: E402
from repro.engines.registry import get_engine                   # noqa: E402
from repro.engines.simd import _stream_rows                     # noqa: E402


def _per_bit_rows(monitor, chain_length):
    """The per-bit formula: stream bit ``s`` is chain
    ``indices[s % width]`` at position ``length - 1 - s // width``."""
    matrix = crc_stream_matrix(monitor.code, chain_length * monitor.width)
    indices, width = monitor.chain_indices, monitor.width
    return [[indices[s % width] * chain_length
             + (chain_length - 1 - s // width) for s in row]
            for row in matrix.rows]


@pytest.mark.parametrize("design", [
    pytest.param(lambda: ProtectedDesign(
        SyncFIFO(32, 32, name="fifo32x32"), codes=["hamming(7,4)", "crc16"],
        num_chains=80, engine="simd", lfsr_seed=7), id="paper_80x13"),
    pytest.param(lambda: ProtectedDesign(
        make_random_state_circuit(16 * 17, seed=3),
        codes=["hamming(7,4)", "crc16"], num_chains=16, engine="simd",
        lfsr_seed=5), id="toy_16x17"),
])
def test_rows_flat_matches_the_per_bit_formula(design):
    design = design()
    engine = get_engine("simd", design)
    assert engine._observing, "the configuration has a CRC stream block"
    for monitor in engine._observing:
        expected = _per_bit_rows(monitor, design.chain_length)
        assert len(monitor.rows_flat) == len(expected)
        for got, want in zip(monitor.rows_flat, expected):
            assert got.dtype == np.int64
            assert got.tolist() == want


def _per_bit_layout(code, chain_indices, chain_length):
    matrix = crc_stream_matrix(code, chain_length * len(chain_indices))
    width = len(chain_indices)
    rows = [[chain_indices[s % width] * chain_length
             + (chain_length - 1 - s // width) for s in row]
            for row in matrix.rows]
    return rows, [j for j, bit in enumerate(matrix.const) if bit]


@pytest.mark.parametrize("code", [
    pytest.param(get_code(name), id=name)
    for name in ("crc16", "crc16-ccitt", "crc8", "crc12", "crc32")] + [
    # Wider than any machine word, with a nonzero initial register.
    pytest.param(CRCCode(width=70, poly=(1 << 69) | 0x1B, init=0x2A5,
                         name="crc70"), id="crc70"),
])
@pytest.mark.parametrize("chain_indices, chain_length", [
    pytest.param((0, 1, 2, 3, 4, 5, 6, 7), 13, id="8x13"),
    pytest.param((9, 2, 7), 5, id="3x5-scattered"),   # shorter than crc32
    pytest.param((4,), 40, id="1x40"),
    pytest.param(tuple(range(79, -1, -1)), 13, id="80x13-reversed"),
])
def test_stream_rows_match_the_matrix_oracle(monkeypatch, code,
                                             chain_indices, chain_length):
    monkeypatch.setattr("repro.engines.simd._STREAM_ROWS_CACHE", {})
    rows_flat, const_idx = _stream_rows(code, chain_indices, chain_length)
    rows, const = _per_bit_layout(code, chain_indices, chain_length)
    assert len(rows_flat) == code.width == len(rows)
    for got, want in zip(rows_flat, rows):
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.tolist() == want
    assert const_idx.tolist() == const
