"""The summary path's loaded snapshot folds its stimulus only when read.

:meth:`~repro.validation.testbench.FIFOTestbench._loaded_snapshot`
returns eager ``knowns`` and a lazy ``states`` sequence that folds the
batch's stimulus words into the stages 1--2 image on first element
access or iteration, at most once.  For every pattern kind and both
inject phases, on a geometry with scan padding cells holding a one and
an X, the lazy states must equal the chains the object path loads into
the flops.  The single-flip table path reads only the knowns, so a
single-error array-sampled chunk folds nothing once the table is
memoised; a dense batch folds exactly once however often its states
are read; and a padding flop changed after the snapshot was taken must
not reach the fold.
"""

from collections import abc

import pytest

np = pytest.importorskip("numpy")

from repro.circuit.fifo import SyncFIFO                         # noqa: E402
from repro.circuit.scan import ScanChain                        # noqa: E402
from repro.core.protected import ProtectedDesign                # noqa: E402
from repro.engines import simd                                  # noqa: E402
from repro.faults.batch import sample_pattern_batch             # noqa: E402
from repro.validation import testbench as testbench_module      # noqa: E402
from repro.validation.campaign import (                         # noqa: E402
    run_sharded_multiple_error_campaign,
    run_sharded_single_error_campaign,
)
from repro.validation.testbench import FIFOTestbench            # noqa: E402

KINDS = ("single", "burst", "multiple", "none")
PHASES = ("sleep", "post_wake")
DEPTH = 8


@pytest.fixture
def folds(monkeypatch):
    """Every lazy snapshot whose fold ran, once per fold."""
    folded = []
    original = testbench_module._LoadedStates._fold

    def counting(self):
        if self._states is None:
            folded.append(self)
        return original(self)

    monkeypatch.setattr(testbench_module._LoadedStates, "_fold", counting)
    return folded


@pytest.fixture
def snapshots(monkeypatch):
    """Every ``(states, knowns)`` snapshot a test bench builds."""
    built = []
    original = FIFOTestbench._loaded_snapshot

    def recording(self, words):
        snapshot = original(self, words)
        built.append(snapshot)
        return snapshot

    monkeypatch.setattr(FIFOTestbench, "_loaded_snapshot", recording)
    return built


def _bench(num_chains=10):
    fifo = SyncFIFO(8, DEPTH, name="dut_fifo")
    # 76 registers in 10 chains of 8: four scan padding cells.
    design = ProtectedDesign(fifo, codes=["hamming(7,4)", "crc16"],
                             num_chains=num_chains, engine="simd")
    bench = FIFOTestbench(design, seed=5, words_per_sequence=DEPTH // 2 + 1)
    # No stage resets the padding: a known 1 and an X hole.
    bench.dut_design._padding[1].force(1)
    bench.dut_design._padding[3].force(None)
    return bench


def _sample(bench, kind, rng, batch_size=40):
    design = bench.dut_design
    return sample_pattern_batch(kind, design.num_chains,
                                design.chain_length, batch_size, rng,
                                num_errors=3)


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("kind", KINDS)
def test_lazy_states_equal_the_loaded_chains(kind, phase, folds, snapshots):
    summary_tb, object_tb = _bench(), _bench()
    assert summary_tb.dut_design.padding_cells == 4
    rng = np.random.default_rng(len(kind))
    for _ in range(3):
        flips = _sample(summary_tb, kind, rng)
        summary_tb.run_sequence_batch_summary(flips, flips.batch_size,
                                              inject_phase=phase)
        object_tb.run_sequence_batch(flips.patterns(), inject_phase=phase)
        # A batch leaves the object path's flops as loaded: their packed
        # chains are what the eager fold computed.
        loaded, loaded_knowns = object_tb.dut_design._pack_chains()
        states, knowns = snapshots[-1]
        assert isinstance(states, abc.Sequence)
        assert not isinstance(states, abc.MutableSequence)
        assert len(states) == len(loaded)
        assert [states[c] for c in range(len(states))] == loaded
        assert list(states) == loaded
        assert states[-1] == loaded[-1]
        assert states[2:5] == loaded[2:5]
        assert list(knowns) == loaded_knowns
        with pytest.raises(TypeError):
            states[0] = 0
    assert len(snapshots) == 3
    assert sorted(map(id, folds)) == sorted(id(s) for s, _ in snapshots)


def test_length_needs_no_fold(folds):
    bench = _bench()
    words = [bench.stimulus.next_int()
             for _ in range(bench.words_per_sequence)]
    states, knowns = bench._loaded_snapshot(words)
    assert len(states) == len(knowns) == bench.dut_design.num_chains
    assert folds == []


def test_padding_change_after_the_snapshot_does_not_reach_its_fold(folds):
    bench = _bench()
    padding = bench.dut_design._padding
    words = [bench.stimulus.next_int()
             for _ in range(bench.words_per_sequence)]
    lazy, knowns = bench._loaded_snapshot(words)
    eager_states, eager_knowns = bench._loaded_snapshot(words)
    eager = list(eager_states)
    padding[0].force(1)
    padding[1].force(0)
    padding[3].force(1)
    assert folds == [eager_states]
    assert list(lazy) == eager
    assert knowns == eager_knowns
    later, later_knowns = bench._loaded_snapshot(words)
    assert list(later) != eager
    assert later_knowns != eager_knowns


def test_chains_laid_out_otherwise_image_their_own_cells():
    """The image looks each written register and padding flop up in
    the chains, so chains rebuilt in another order than the design's
    (here every flop in reverse) image the cells they hold."""
    bench = _bench()
    design = bench.dut_design
    length = design.chain_length
    flops = [flop for chain in design.chains for flop in chain][::-1]
    design.chains = [ScanChain(flops[start:start + length],
                               name=f"reversed{start // length}")
                     for start in range(0, len(flops), length)]
    words = [bench.stimulus.next_int()
             for _ in range(bench.words_per_sequence)]
    states, knowns = bench._loaded_snapshot(words)
    bench.dut.reset()
    for word in words:
        bench.dut.push_int(word)
    assert (list(states), list(knowns)) == design._pack_chains()


def _campaign_kwargs():
    # 76 registers in 7 chains of 11: one scan padding cell.
    return dict(width=8, depth=8, num_chains=7, seed=20100308,
                sampler="array", batch_size=32, chunk_size=64)


def test_single_error_chunks_fold_only_to_build_the_table(monkeypatch, folds,
                                                         snapshots):
    """The sec4_single shape (array sampler, single errors, simd): the
    first batch of a cold process builds the single-flip table, which
    folds its snapshot once; every other batch, and every batch of a
    second campaign (the table is memoised), folds nothing."""
    monkeypatch.setattr(simd, "_SINGLE_FLIP_CACHE", {})
    cold = run_sharded_single_error_campaign(256, engine="simd",
                                             **_campaign_kwargs())
    assert len(snapshots) == 8
    assert folds == [snapshots[0][0]]
    folds.clear()
    snapshots.clear()
    warm = run_sharded_single_error_campaign(256, engine="simd",
                                             **_campaign_kwargs())
    assert len(snapshots) == 8
    assert folds == []
    assert warm == cold
    assert cold == run_sharded_single_error_campaign(
        256, engine="packed", **_campaign_kwargs())


@pytest.mark.parametrize("phase", PHASES)
def test_each_dense_batch_folds_exactly_once(folds, snapshots, phase):
    kwargs = dict(_campaign_kwargs(), inject_phase=phase)
    result = run_sharded_multiple_error_campaign(
        192, burst_size=4, clustered=False, engine="simd", **kwargs)
    assert len(snapshots) == 6
    assert [id(s) for s in folds] == [id(s) for s, _ in snapshots]
    # Reading a folded snapshot again does not fold it again.
    for states, _ in snapshots:
        list(states)
        states[0]
    assert len(folds) == 6
    assert result == run_sharded_multiple_error_campaign(
        192, burst_size=4, clustered=False, engine="packed", **kwargs)
