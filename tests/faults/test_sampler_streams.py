"""The vectorised pattern sampler's random streams, pinned.

Each case draws one batch and hashes its ``seqs``/``chains``/
``positions`` arrays (little-endian int64) together with the
generator's final ``bit_generator.state``.  A change to the draw calls,
their order, their sizes or the coordinate arithmetic moves a hash, so
an optimisation of the sampler cannot silently change the campaigns'
random streams.  perfbench's digests pin only the single and ten-error
streams end to end; these also pin ``burst``, ``none`` and the
multi-core row-range split of the paper geometry.

The second geometry is the paper's 80 x 13 scan array at 1100
sequences: 1 144 000 keys per ``multiple`` draw, enough for
:func:`~repro.faults.batch._distinct_cells` to split it into two row
ranges on a multi-core host (one range on a single core -- the same
stream either way).
"""

import hashlib
import json

import pytest

np = pytest.importorskip("numpy")

from repro.faults.batch import sample_pattern_batch  # noqa: E402

GEOMETRIES = {"small": (8, 13, 37), "paper": (80, 13, 1100)}
KINDS = {"single": 1, "multiple": 5, "burst": 6, "none": 1}
SEEDS = (1, 20100308)

#: sha256 prefixes recorded before flat cell indices became the
#: sampler's output form.
EXPECTED = {
    ("paper", "burst", 1): "9eccf3b90e58b31d",
    ("paper", "burst", 20100308): "5c6db2b270828fda",
    ("paper", "multiple", 1): "93acc8a621406297",
    ("paper", "multiple", 20100308): "0e1c7fe9dd153976",
    ("paper", "none", 1): "7e62aff6a05eb04c",
    ("paper", "none", 20100308): "2386af9b861fde71",
    ("paper", "single", 1): "30001ca271ddcb5b",
    ("paper", "single", 20100308): "fa86609b2217c8e2",
    ("small", "burst", 1): "0758adf64fb4a93b",
    ("small", "burst", 20100308): "4884bd73c892fd56",
    ("small", "multiple", 1): "d8842c1137273a3a",
    ("small", "multiple", 20100308): "30d1fb45bc4ae304",
    ("small", "none", 1): "7e62aff6a05eb04c",
    ("small", "none", 20100308): "2386af9b861fde71",
    ("small", "single", 1): "44859abdd3359e5c",
    ("small", "single", 20100308): "d170c53d1219c6ca",
}


def _stream_hash(kind, geometry, seed):
    num_chains, chain_length, batch_size = GEOMETRIES[geometry]
    rng = np.random.default_rng(seed)
    batch = sample_pattern_batch(kind, num_chains, chain_length,
                                 batch_size, rng, num_errors=KINDS[kind])
    digest = hashlib.sha256()
    for values in (batch.seqs, batch.chains, batch.positions):
        digest.update(np.ascontiguousarray(values, dtype="<i8").tobytes())
    digest.update(json.dumps(rng.bit_generator.state,
                             sort_keys=True).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_sampler_stream_is_pinned(kind, geometry, seed):
    assert _stream_hash(kind, geometry, seed) == \
        EXPECTED[(geometry, kind, seed)]
