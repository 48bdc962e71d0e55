"""The simd engine's CRC stream rows as flat cell indices.

``rows_flat`` maps each signature row's stream-bit indices to flat
``chain * chain_length + position`` scan cells.  It is built with one
array expression per row; this pins it to the per-bit formula on the
paper's 32x32 FIFO (80 chains x 13) and on a 16 x 17 toy geometry.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.circuit.fifo import SyncFIFO                         # noqa: E402
from repro.circuit.generators import make_random_state_circuit  # noqa: E402
from repro.codes.plane import crc_stream_matrix                 # noqa: E402
from repro.core.protected import ProtectedDesign                # noqa: E402
from repro.engines.registry import get_engine                   # noqa: E402


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
