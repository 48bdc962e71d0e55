"""Property suite: the fused jit summary kernels are bit-identical to
the simd paths.

``JitFusedEngine.run_batch_summary`` on a bank its plan supports must
take the fused kernel and produce exactly the arrays of the simd
engine's dense pass (and, on single-error batches, its single-flip
table) -- every field of :class:`BatchOutcomeArrays` --
across all registered code families, geometries with and without
padding, batch sizes including B=1, non-multiples of 64 and >= 64k,
and fault densities from zero flips to saturating bursts, including
unknown-cell holes and caller-built batches with repeated flips.

The kernels are written in nopython-compatible Python and njit-wrapped
only when numba is importable, so the whole matrix runs in both modes:
``compiled=False`` (the interpreter executes the identical kernel
logic -- always available) and ``compiled=True`` (added automatically
when numba is installed, as in the CI jit-smoke job).  The suite also
pins the path selection and the fallback to the simd pass on
unsupported monitor structure, the conditional registration /
actionable forced-selection errors, and the :func:`warm_up_kernels`
process hook.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.circuit.fifo import SyncFIFO                         # noqa: E402
from repro.circuit.generators import make_random_state_circuit  # noqa: E402
from repro.core.protected import ProtectedDesign                # noqa: E402
from repro.engines import jit as jit_module                     # noqa: E402
from repro.engines.base import BatchOutcomeArrays               # noqa: E402
from repro.engines.jit import (                                 # noqa: E402
    JitFusedEngine,
    warm_up_kernels,
)
from repro.engines.registry import (                            # noqa: E402
    CONDITIONAL_ENGINES,
    available_engines,
    get_engine,
    validate_engine,
)
from repro.faults.batch import (                                # noqa: E402
    PatternBatch,
    sample_pattern_batch,
)

HAVE_NUMBA = jit_module.numba is not None

#: Same code/geometry matrix as the single-flip table suite: every
#: registered family, correcting and detecting codes alone and stacked,
#: padded tails, plus the paper's 32x32 FIFO configuration below.
CONFIGS = [
    ("hamming74_crc16", ["hamming(7,4)", "crc16"], 8, 56),
    ("hamming74_padded", ["hamming(7,4)"], 5, 33),
    ("hamming6357_crc32", ["hamming(63,57)", "crc32"], 6, 80),
    ("secded84", ["secded(8,4)"], 8, 40),
    ("secded84_crc16", ["secded(8,4)", "crc16"], 6, 24),
    ("parity8", ["parity(8)"], 4, 16),
    ("parity12_ccitt", ["parity(12)", "crc16-ccitt"], 6, 36),
    ("crc8_only", ["crc8"], 3, 21),
]

BATCH_SIZES = (1, 64, 100, 257)

#: Interpreter mode always runs; the compiled mode joins automatically
#: where numba is installed (the CI jit-smoke job).
COMPILED_MODES = [False] + ([True] if HAVE_NUMBA else [])


def _design(codes, num_chains, num_registers, seed=11):
    circuit = make_random_state_circuit(num_registers, seed=seed)
    return ProtectedDesign(circuit, codes=list(codes),
                           num_chains=num_chains, engine="simd",
                           lfsr_seed=5)


def _paper_design():
    fifo = SyncFIFO(32, 32, name="fifo32x32")
    return ProtectedDesign(fifo, codes=["hamming(7,4)", "crc16"],
                           num_chains=80, engine="simd", lfsr_seed=7)


def _pack(design):
    from repro.engines.packing import pack_chains
    states, knowns = pack_chains(design.chains)
    return list(states), list(knowns)


def _punch_holes(states, knowns):
    states = list(states)
    knowns = list(knowns)
    for c in range(0, len(knowns), 7):
        knowns[c] &= ~0b101
        states[c] &= knowns[c]
    return states, knowns


def _jit_engine(design, compiled=False):
    return JitFusedEngine(design.monitor_bank, design.num_chains,
                          design.chain_length, compiled=compiled)


def _simd_dense(design, states, knowns, flips, batch_size):
    """The simd engine's dense pass on its own, whatever the batch
    holds."""
    simd = get_engine("simd", design)
    return simd._dense_summary(states, knowns, simd._known_matrix(knowns),
                               flips, batch_size)


def _both_engines(design, flips, batch_size, compiled=False,
                  states=None, knowns=None, table=False):
    """The simd reference (its dense pass, or with ``table`` its own
    choice, which must be the single-flip table) and the jit engine's
    fused kernel on the same batch."""
    if states is None:
        states, knowns = _pack(design)
    if table:
        simd = get_engine("simd", design)
        reference = simd.run_batch_summary(states, knowns, flips,
                                           batch_size)
        assert simd.last_summary_path == "delta"
    else:
        reference = _simd_dense(design, states, knowns, flips, batch_size)
    jit = _jit_engine(design, compiled=compiled)
    fused = jit.run_batch_summary(states, knowns, flips, batch_size)
    assert jit.last_summary_path == "jit"
    return reference, fused


def assert_identical(a: BatchOutcomeArrays, b: BatchOutcomeArrays):
    assert np.array_equal(a.injected, b.injected)
    assert np.array_equal(a.detected, b.detected)
    assert np.array_equal(a.uncorrectable, b.uncorrectable)
    assert np.array_equal(a.residual_errors, b.residual_errors)
    assert np.array_equal(a.corrections_applied, b.corrections_applied)


# ----------------------------------------------------------------------
# Bit-identity across the full matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("compiled", COMPILED_MODES,
                         ids=["pure", "njit"][:len(COMPILED_MODES)])
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize(
    "codes,num_chains,num_registers",
    [config[1:] for config in CONFIGS],
    ids=[config[0] for config in CONFIGS])
@pytest.mark.parametrize("kind", ("single", "burst", "multiple", "none"))
def test_jit_matches_dense(codes, num_chains, num_registers, kind,
                           batch_size, compiled):
    design = _design(codes, num_chains, num_registers)
    rng = np.random.default_rng(20100308 + batch_size)
    sampled = sample_pattern_batch(kind, design.num_chains,
                                   design.chain_length, batch_size, rng,
                                   num_errors=4)
    assert_identical(*_both_engines(design, sampled, batch_size,
                                    compiled=compiled))


@pytest.mark.parametrize("compiled", COMPILED_MODES,
                         ids=["pure", "njit"][:len(COMPILED_MODES)])
@pytest.mark.parametrize("kind", ("single", "multiple"))
def test_jit_matches_dense_paper_config(kind, compiled):
    """The paper's 32x32 FIFO / 80-chain configuration, the geometry
    the committed campaign_jit_path benchmark runs on."""
    design = _paper_design()
    rng = np.random.default_rng(42)
    sampled = sample_pattern_batch(kind, design.num_chains,
                                   design.chain_length, 257, rng,
                                   num_errors=3)
    assert_identical(*_both_engines(design, sampled, 257,
                                    compiled=compiled))


@pytest.mark.parametrize("compiled", COMPILED_MODES,
                         ids=["pure", "njit"][:len(COMPILED_MODES)])
def test_jit_matches_at_64k_batch(compiled):
    """The benchmark's batch regime (>= 64k sequences): the CSR walk,
    the prange partitioning and the short final word all hold up.
    Compared against the simd single-flip table (itself property-tested
    identical to dense) to keep the reference side fast."""
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    rng = np.random.default_rng(7)
    batch_size = 65536
    sampled = sample_pattern_batch("single", design.num_chains,
                                   design.chain_length, batch_size, rng)
    assert_identical(*_both_engines(design, sampled, batch_size,
                                    compiled=compiled, table=True))


@pytest.mark.parametrize("compiled", COMPILED_MODES,
                         ids=["pure", "njit"][:len(COMPILED_MODES)])
def test_jit_matches_dense_caller_built_batch(compiled):
    """A caller-built batch (a repeated (sequence, cell) pair, a cell
    shared by several sequences, clean sequences) goes through the same
    CSR extraction."""
    design = _design(["secded(8,4)", "crc16"], 6, 24)
    # (sequence, chain, position) per flip.
    coords = [(0, 0, 1), (0, 0, 1), (1, 0, 1), (3, 0, 1), (1, 1, 3),
              (8, 2, 0), (3, 5, 2)]
    seqs, chains, positions = (
        np.array([flip[axis] for flip in coords], dtype=np.int64)
        for axis in range(3))
    flips = PatternBatch(design.num_chains, design.chain_length, 9,
                         "multiple", seqs, chains, positions)
    assert_identical(*_both_engines(design, flips, 9,
                                    compiled=compiled))


@pytest.mark.parametrize("compiled", COMPILED_MODES,
                         ids=["pure", "njit"][:len(COMPILED_MODES)])
def test_jit_matches_dense_with_unknown_cells(compiled):
    """Unknown cells: flips landing there are dropped, residuals count
    the unknown pre-sleep positions -- identically on both engines."""
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    states, knowns = _punch_holes(*_pack(design))
    rng = np.random.default_rng(3)
    sampled = sample_pattern_batch("burst", design.num_chains,
                                   design.chain_length, 100, rng,
                                   num_errors=5)
    assert_identical(*_both_engines(design, sampled, 100,
                                    compiled=compiled, states=states,
                                    knowns=knowns))


# ----------------------------------------------------------------------
# Path selection and fallbacks
# ----------------------------------------------------------------------
def test_auto_takes_the_fused_kernel():
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    states, knowns = _pack(design)
    engine = _jit_engine(design)
    rng = np.random.default_rng(1)
    sampled = sample_pattern_batch("single", design.num_chains,
                                   design.chain_length, 32, rng)
    engine.run_batch_summary(states, knowns, sampled, 32)
    assert engine.last_summary_path == "jit"


def _unsupported_design():
    """Two correcting block families sharing chains: superposition
    cannot express the last-block-wins replay in the fused kernel's
    per-slice walk, so its plan refuses the structure."""
    circuit = make_random_state_circuit(48, seed=2)
    return ProtectedDesign(circuit,
                           codes=["hamming(7,4)", "secded(8,4)"],
                           num_chains=6, engine="simd", lfsr_seed=5)


@pytest.mark.parametrize("kind,path", (("single", "delta"),
                                       ("multiple", "dense")))
def test_auto_falls_back_to_simd_on_unsupported_structure(kind, path):
    """On a bank the fused plan refuses, the jit engine runs the simd
    pass, which picks its own path: the single-flip table for a
    single-error batch, the dense pipeline for a multi-error one."""
    design = _unsupported_design()
    states, knowns = _pack(design)
    engine = _jit_engine(design)
    rng = np.random.default_rng(1)
    sampled = sample_pattern_batch(kind, design.num_chains,
                                   design.chain_length, 16, rng,
                                   num_errors=3)
    simd = get_engine("simd", design)
    reference = simd.run_batch_summary(states, knowns, sampled, 16)
    arrays = engine.run_batch_summary(states, knowns, sampled, 16)
    assert simd.last_summary_path == engine.last_summary_path == path
    assert engine._plan.reason is not None
    assert_identical(reference, arrays)
    assert_identical(_simd_dense(design, states, knowns, sampled, 16),
                     arrays)


# ----------------------------------------------------------------------
# Conditional registration and the forced-selection error shape
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(CONDITIONAL_ENGINES))
def test_conditional_registration_tracks_module(name):
    """Every conditionally registered engine is registered exactly when
    its gating module is importable and silently absent otherwise (the
    CI graceful-degradation smoke's assertion for jit)."""
    import importlib.util

    module, _ = CONDITIONAL_ENGINES[name]
    assert (name in available_engines()) == \
        (importlib.util.find_spec(module) is not None)
    if name == "jit":
        assert (name in available_engines()) == HAVE_NUMBA


@pytest.mark.parametrize("name", ("jit",))
def test_forced_optional_engine_error_is_actionable(name):
    """Forcing an optional engine on an install without its dependency
    raises 'unknown engine' plus the gating module, not a bare
    typo-style error."""
    module, _ = CONDITIONAL_ENGINES[name]
    import importlib.util
    if importlib.util.find_spec(module) is not None:
        pytest.skip(f"{module} installed; {name!r} is registered")
    with pytest.raises(ValueError) as excinfo:
        validate_engine(name)
    message = str(excinfo.value)
    assert "unknown engine" in message
    assert module in message
    assert f"'{name}'" in message


@pytest.mark.parametrize("name", ("cuda", "batched"))
def test_cuda_is_not_an_engine(name):
    """There is no device engine and no bit-plane engine: ``"cuda"``
    and ``"batched"`` are neither registered nor conditionally
    registrable, so selecting either is a plain unknown-engine
    error."""
    assert name not in available_engines()
    assert name not in CONDITIONAL_ENGINES
    with pytest.raises(ValueError,
                       match=f"unknown engine '{name}'") as excinfo:
        validate_engine(name)
    assert "registers only when" not in str(excinfo.value)


def test_compiled_true_without_numba_raises_import_error():
    design = _design(["hamming(7,4)"], 4, 16)
    if HAVE_NUMBA:
        engine = _jit_engine(design, compiled=True)
        assert engine.compiled
    else:
        with pytest.raises(ImportError, match=r"\[jit\] packaging extra"):
            _jit_engine(design, compiled=True)


# ----------------------------------------------------------------------
# The process-wide warm-up hook
# ----------------------------------------------------------------------
class _RecordingKernel:
    """Stands in for the njit-compiled kernel: counts invocations and
    delegates to the pure-Python kernel so outputs stay real."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return jit_module._fused_summary(*args)


def test_warm_up_is_a_noop_without_numba(monkeypatch):
    monkeypatch.setattr(jit_module, "_fused_summary_compiled", None)
    monkeypatch.setattr(jit_module, "_WARMED", False)
    assert warm_up_kernels() is False
    assert jit_module._WARMED is False


def test_warm_up_runs_once_and_latches(monkeypatch):
    kernel = _RecordingKernel()
    monkeypatch.setattr(jit_module, "_fused_summary_compiled", kernel)
    monkeypatch.setattr(jit_module, "_WARMED", False)
    assert warm_up_kernels() is True
    assert kernel.calls == 1
    # Idempotent: later (defensive) calls return without re-running.
    assert warm_up_kernels() is True
    assert warm_up_kernels() is True
    assert kernel.calls == 1
    # The test hook re-runs the synthetic call.
    assert warm_up_kernels(force=True) is True
    assert kernel.calls == 2


def test_engine_construction_warms_the_kernels(monkeypatch):
    """Sharded workers build the engine at the top of a chunk; that
    construction must already pay the warm-up, so no timed batch eats
    the first-call latency."""
    kernel = _RecordingKernel()
    monkeypatch.setattr(jit_module, "_fused_summary_compiled", kernel)
    monkeypatch.setattr(jit_module, "_WARMED", False)
    design = _design(["hamming(7,4)", "crc16"], 8, 56)
    engine = _jit_engine(design, compiled=True)
    assert jit_module._WARMED is True
    assert kernel.calls == 1
    # The engine's summary pass then uses the same (stubbed) kernel --
    # and stays bit-identical through it.
    states, knowns = _pack(design)
    rng = np.random.default_rng(5)
    sampled = sample_pattern_batch("single", design.num_chains,
                                   design.chain_length, 16, rng)
    arrays = engine.run_batch_summary(states, knowns, sampled, 16)
    assert kernel.calls == 2
    assert_identical(_simd_dense(design, states, knowns, sampled, 16),
                     arrays)


def test_pure_python_engine_skips_warm_up(monkeypatch):
    kernel = _RecordingKernel()
    monkeypatch.setattr(jit_module, "_fused_summary_compiled", kernel)
    monkeypatch.setattr(jit_module, "_WARMED", False)
    design = _design(["hamming(7,4)"], 4, 16)
    engine = _jit_engine(design, compiled=False)
    assert not engine.compiled
    assert kernel.calls == 0
    assert jit_module._WARMED is False
