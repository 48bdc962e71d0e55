"""The summary chunk: one retain walk per campaign chunk, not per batch.

A batched campaign chunk on a summary engine runs its batches through
:meth:`~repro.validation.testbench.FIFOTestbench.\
run_sequence_batches_summary`, which walks the design's flops once on
entry; :meth:`~repro.core.protected.ProtectedDesign.\
sleep_wake_cycle_batch_summary` skips its own walk only inside that
scope.  These tests pin the walk counts, the counters against the
per-batch loop the chunk replaced, the powered-off failure, the scope's
exit on every path, and the workspace's once-checked pristine pairs.
"""

import random
import re

import pytest

np = pytest.importorskip("numpy")

import repro.core.protected as protected_module                # noqa: E402
from repro.campaigns.seeding import child_seed               # noqa: E402
from repro.campaigns.stats import StreamingCampaignResult     # noqa: E402
from repro.campaigns.tasks import (                           # noqa: E402
    VALIDATION_PATTERNS,
    FIFOValidationCampaignTask,
)
from repro.campaigns.worker_cache import FIFOChunkWorkspace  # noqa: E402
from repro.circuit.flipflop import DFlipFlop                 # noqa: E402
from repro.core.protected import ProtectedDesign             # noqa: E402
from repro.faults.batch import PatternBatch, sample_pattern_batch  # noqa: E402
from repro.power.domain import DomainState                   # noqa: E402

COMMON = dict(width=8, depth=8, codes=("hamming(7,4)", "crc16"),
              num_chains=8, engine="simd")


def _task(**overrides):
    fields = dict(COMMON, batch_size=4, sampler="array")
    fields.update(overrides)
    return FIFOValidationCampaignTask(**fields)


@pytest.fixture
def walks(monkeypatch):
    """Count the retain walks over a design's registers (each walk
    also covers the padding, as a second call)."""
    calls = []
    original = protected_module.retain_flops

    def counting(flops):
        calls.append(flops)
        return original(flops)

    monkeypatch.setattr(protected_module, "retain_flops", counting)
    return calls


def _register_walks(calls, design):
    return sum(flops is design.circuit.registers for flops in calls)


def _batches(design, sizes, seed=0):
    rng = np.random.default_rng(seed)
    for size in sizes:
        yield sample_pattern_batch("single", design.num_chains,
                                   design.chain_length, size, rng), size


def test_chunk_walks_once_and_standalone_batches_walk_each(walks,
                                                           monkeypatch):
    """A 16-batch chunk runs 16 summary batches but one register walk;
    standalone batches still walk once per call."""
    task = _task()
    workspace = task.build_worker_state()
    design = workspace.design
    batch_calls = []
    original = ProtectedDesign.sleep_wake_cycle_batch_summary

    def counting(self, *args, **kwargs):
        batch_calls.append(args[2])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ProtectedDesign, "sleep_wake_cycle_batch_summary",
                        counting)
    task.run_chunk_on(workspace, 5, 64)
    assert batch_calls == [4] * 16
    assert _register_walks(walks, design) == 1
    assert len(walks) == 2  # registers, then padding
    assert design.controller.sleep_cycles_completed == 16
    assert len(design.domain.wake_history) == 16

    for flips, size in _batches(design, [8, 8, 8]):
        design.sleep_wake_cycle_batch_summary(design._pack_chains(), flips,
                                              size)
    assert _register_walks(walks, design) == 4


def _per_batch_loop(task, workspace, chunk_seed, num_sequences):
    """The chunk as it ran before the chunk scope: each batch through
    ``run_sequence_batch_summary`` on its own (one walk each)."""
    workspace.reseed(chunk_seed)
    design, testbench = workspace.design, workspace.testbench
    num_chains, chain_length = design.num_chains, design.chain_length
    pattern_seed = child_seed(chunk_seed, "pattern")
    if task.sampler == "array":
        generator = np.random.default_rng(pattern_seed)

        def draw(group):
            return sample_pattern_batch(task.pattern, num_chains,
                                        chain_length, group, generator,
                                        num_errors=task.burst_size)
    else:
        factory = task._pattern_factory(num_chains, chain_length)
        rng = random.Random(pattern_seed)

        def draw(group):
            return PatternBatch.from_patterns(
                [factory(rng) for _ in range(group)], num_chains,
                chain_length)
    result = StreamingCampaignResult()
    remaining = num_sequences
    while remaining:
        group = min(task.batch_size, remaining)
        remaining -= group
        result.add_batch(testbench.run_sequence_batch_summary(
            draw(group), group, task.inject_phase))
    return result


def _bookkeeping(design):
    return (design.controller.sleep_cycles_completed,
            len(design.domain.wake_history),
            design.controller.transition_log,
            [(flop.q, flop.retention_value, flop.power)
             for flop in list(design.circuit.registers) + design._padding])


@pytest.mark.parametrize("pattern", VALIDATION_PATTERNS)
@pytest.mark.parametrize("sampler", ("array", "scalar"))
@pytest.mark.parametrize("phase", ("sleep", "post_wake"))
@pytest.mark.parametrize("num_sequences", (23, 3))
def test_chunk_counters_equal_the_per_batch_loop(pattern, sampler, phase,
                                                 num_sequences):
    """Every pattern kind, both samplers and both phases, with a short
    last batch (23 = 5 x 4 + 3) and a chunk shorter than one batch."""
    task = _task(pattern=pattern, sampler=sampler, inject_phase=phase,
                 burst_size=3)
    chunked, looped = task.build_worker_state(), task.build_worker_state()
    for chunk_seed in (11, 20100308):
        expected = _per_batch_loop(task, looped, chunk_seed, num_sequences)
        got = task.run_chunk_on(chunked, chunk_seed, num_sequences)
        assert got == expected
        assert got.stats.num_sequences == num_sequences
        assert _bookkeeping(chunked.design) == _bookkeeping(looped.design)


def test_powered_off_register_fails_the_chunk_entry():
    """``retain``'s message, raised on the first ``next()`` before any
    batch is drawn and before the controller or domain leaves ACTIVE."""
    workspace = _task().build_worker_state()
    design, testbench = workspace.design, workspace.testbench
    victim = design.circuit.registers[5]
    victim.power_off()
    drawn = []

    def batches():
        for batch in _batches(design, [4, 4]):
            drawn.append(batch)
            yield batch

    chunk = testbench.run_sequence_batches_summary(batches())
    message = f"cannot retain {victim.name!r}: master is powered off"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        next(chunk)
    assert drawn == []
    assert design.domain.state is DomainState.ACTIVE
    assert design.domain.wake_history == []
    assert design.controller.transition_log == ()
    assert not design._chunk_retained


def _assert_walks_again(design, walks):
    """Out of the scope: the next standalone batch walks, so a master
    changed since lands in its retention latch."""
    assert not design._chunk_retained
    before = _register_walks(walks, design)
    flop = design.circuit.registers[0]
    flop.force(1 - (flop.q or 0))
    (flips, size), = _batches(design, [4], seed=3)
    design.sleep_wake_cycle_batch_summary(design._pack_chains(), flips,
                                          size)
    assert _register_walks(walks, design) == before + 1
    assert flop.retention_value == flop.q


def test_scope_ends_after_normal_completion(walks):
    workspace = _task().build_worker_state()
    design, testbench = workspace.design, workspace.testbench
    results = list(testbench.run_sequence_batches_summary(
        _batches(design, [4, 4, 2])))
    assert [r.batch_size for r in results] == [4, 4, 2]
    assert _register_walks(walks, design) == 1
    _assert_walks_again(design, walks)


def test_scope_ends_after_an_exception(walks):
    """A malformed batch mid-chunk fails as a standalone one would,
    and the scope still ends."""
    workspace = _task().build_worker_state()
    design, testbench = workspace.design, workspace.testbench
    (good, size), = _batches(design, [4])
    bad = PatternBatch(design.num_chains, design.chain_length, 4, "single",
                       np.array([0]), np.array([design.num_chains]),
                       np.array([0]))
    chunk = testbench.run_sequence_batches_summary(
        iter([(good, size), (bad, 4)]))
    assert next(chunk).batch_size == 4
    with pytest.raises(ValueError, match="outside"):
        next(chunk)
    assert design.controller.sleep_cycles_completed == 1
    _assert_walks_again(design, walks)


def test_scope_ends_when_the_generator_closes_early(walks):
    workspace = _task().build_worker_state()
    design, testbench = workspace.design, workspace.testbench
    chunk = testbench.run_sequence_batches_summary(
        _batches(design, [4, 4, 4]))
    next(chunk)
    assert design._chunk_retained
    chunk.close()
    assert design.controller.sleep_cycles_completed == 1
    _assert_walks_again(design, walks)


def test_workspace_rejects_an_invalid_pristine_value(monkeypatch):
    """The pristine pairs are checked when the workspace captures
    them: a flop holding 2 fails the build, not a later chunk."""
    build = FIFOValidationCampaignTask._build_bench

    def corrupted(task):
        design, testbench = build(task)
        design.circuit.registers[7]._retention = 2
        return design, testbench

    monkeypatch.setattr(FIFOValidationCampaignTask, "_build_bench",
                        corrupted)
    with pytest.raises(ValueError, match="0, 1 or None; got 2"):
        FIFOChunkWorkspace(_task())


def test_reseed_restores_without_checking(monkeypatch):
    """Every reseed restores the captured pairs without running the
    flip-flop value check again, and still heals a poisoned bench."""
    task = _task()
    workspace = task.build_worker_state()
    reference = task.run_chunk(42, 12)
    design = workspace.design
    for flop in design.circuit.registers:
        flop.force(1)
        flop.power_off()
    calls = []
    check = DFlipFlop._check

    def counting(value):
        calls.append(value)
        return check(value)

    monkeypatch.setattr(DFlipFlop, "_check", staticmethod(counting))
    workspace.reseed(42)
    assert calls == []
    monkeypatch.undo()
    assert task.run_chunk_on(workspace, 42, 12) == reference
