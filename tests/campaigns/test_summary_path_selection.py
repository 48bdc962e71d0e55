"""Campaign-level summary-path selection.

The engine picks its summary path per batch: the simd single-flip table
for single-error groups, the dense pipeline for multi-error groups and
the fused kernels on the jit engine.  Whatever it picks, chunk counters
equal the per-sequence path of ``engine="packed"`` on the same random
stream.  The task carries no path option, so checkpoints written while
it had one (their fingerprint contains ``summary_path='auto'``) are
refused, naming the field; the remaining tests pin how such
fingerprint mismatches are reported.
"""

import json

import pytest

np = pytest.importorskip("numpy")

from repro.campaigns.checkpoints import CheckpointStore           # noqa: E402
from repro.campaigns.scheduler import run_sharded_campaign       # noqa: E402
from repro.campaigns.tasks import FIFOValidationCampaignTask      # noqa: E402

COMMON = dict(width=8, depth=8, codes=("hamming(7,4)", "crc16"),
              num_chains=8, batch_size=16, engine="simd",
              sampler="array")

#: The path the simd engine takes for each pattern kind (a clean batch
#: has at most one effective flip per sequence, so it takes the table).
SIMD_PATHS = {"single": "delta", "burst": "dense", "multiple": "dense",
              "none": "delta"}


def _chunk(task, chunk_seed=424242, num_sequences=50):
    """One chunk (50 sequences in groups of 16: a short final group)
    and the summary path the engine took for its last group."""
    state = task.build_worker_state()
    result = task.run_chunk_on(state, chunk_seed, num_sequences)
    return result, state.design._resolve_engine().last_summary_path


@pytest.mark.parametrize("sampler", ("scalar", "array"))
@pytest.mark.parametrize("kind", sorted(SIMD_PATHS))
def test_engine_picks_path_and_matches_packed(kind, sampler):
    """Both samplers' groups reach the summary path, which takes the
    table for single errors and the dense pipeline otherwise, with
    counters equal to the per-sequence chunk of engine="packed"."""
    common = dict(COMMON, pattern=kind, burst_size=3, sampler=sampler)
    summary, path = _chunk(FIFOValidationCampaignTask(**common))
    assert path == SIMD_PATHS[kind]
    packed = FIFOValidationCampaignTask(
        **dict(common, engine="packed")).run_chunk(
            chunk_seed=424242, num_sequences=50)
    assert summary == packed
    assert summary.stats.num_sequences == 50


def test_sharded_summary_campaign_matches_packed():
    """The validation-campaign facade on simd equals the packed engine
    and stays worker-count deterministic."""
    from repro.validation.campaign import run_sharded_single_error_campaign

    kwargs = dict(width=8, depth=8, num_chains=8, seed=20100308,
                  chunk_size=16, batch_size=8, sampler="array")
    simd = run_sharded_single_error_campaign(64, engine="simd", **kwargs)
    packed = run_sharded_single_error_campaign(64, engine="packed",
                                               **kwargs)
    assert simd == packed
    two = run_sharded_single_error_campaign(64, engine="simd",
                                            num_workers=2, **kwargs)
    assert two == simd


def _register_pure_jit(name="jit-pure"):
    """A registry entry for the fused engine in interpreter mode, so
    the campaign plumbing is exercised end to end without numba."""
    from repro.engines.jit import JitFusedEngine
    from repro.engines.registry import register_engine

    register_engine(name, lambda design: JitFusedEngine(
        design.monitor_bank, design.num_chains, design.chain_length,
        compiled=False))


@pytest.mark.parametrize("kind", sorted(SIMD_PATHS))
def test_jit_campaign_takes_the_fused_kernel(kind):
    """On a bank its plan supports, a jit chunk runs every group
    through the fused kernel; counters are bit-identical to simd's on
    the same seeds."""
    from repro.engines.registry import unregister_engine

    _register_pure_jit()
    try:
        common = dict(COMMON, pattern=kind, burst_size=3)
        jit, path = _chunk(FIFOValidationCampaignTask(
            **dict(common, engine="jit-pure")))
        assert path == "jit"
        simd, _ = _chunk(FIFOValidationCampaignTask(**common))
        assert jit == simd
        assert jit.stats.num_sequences == 50
    finally:
        unregister_engine("jit-pure")


def test_sharded_jit_campaign_is_worker_count_deterministic():
    """1- and 2-worker sharded runs of a jit campaign produce identical
    counters (the pool forks its workers after the inline
    registration, so every worker inherits it)."""
    import multiprocessing

    from repro.engines.registry import unregister_engine
    from repro.validation.campaign import run_sharded_single_error_campaign

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("only forked workers inherit the inline registration")

    _register_pure_jit()
    try:
        kwargs = dict(width=8, depth=8, num_chains=8, seed=20100308,
                      chunk_size=16, batch_size=8, engine="jit-pure",
                      sampler="array", executor="process")
        one = run_sharded_single_error_campaign(64, **kwargs)
        two = run_sharded_single_error_campaign(64, num_workers=2,
                                                **kwargs)
        simd = run_sharded_single_error_campaign(
            64, width=8, depth=8, num_chains=8, seed=20100308,
            chunk_size=16, batch_size=8, engine="simd",
            sampler="array")
        assert one == two == simd
    finally:
        unregister_engine("jit-pure")


def _summary_entry_points():
    """Each layer that used to take a forced path, as ``(name, call,
    removed keyword)``; ``call(**extra)`` runs it on a small batch."""
    from repro.faults.batch import PatternBatch
    from repro.validation.campaign import (
        run_sharded_multiple_error_campaign, run_sharded_single_error_campaign)

    sharded = dict(width=8, depth=8, num_chains=8, seed=5, chunk_size=16,
                   batch_size=8, engine="simd", sampler="array")

    def bench_call(layer):
        def call(**extra):
            state = FIFOValidationCampaignTask(**COMMON).build_worker_state()
            design = state.design
            flips = PatternBatch.from_patterns(
                [None] * 4, design.num_chains, design.chain_length)
            if layer == "testbench":
                return state.testbench.run_sequence_batch_summary(
                    flips, 4, **extra)
            if layer == "design":
                return design.sleep_wake_cycle_batch_summary(
                    design._pack_chains(), flips, 4, **extra)
            states, knowns = design._pack_chains()
            return design._resolve_engine().run_batch_summary(
                states, knowns, flips, 4, **extra)
        return call

    return [
        ("task", lambda **extra: FIFOValidationCampaignTask(
            **COMMON, **extra), "summary_path"),
        ("sharded-single", lambda **extra: run_sharded_single_error_campaign(
            16, **sharded, **extra), "summary_path"),
        ("sharded-multiple",
         lambda **extra: run_sharded_multiple_error_campaign(
             16, **sharded, **extra), "summary_path"),
        ("testbench", bench_call("testbench"), "path"),
        ("design", bench_call("design"), "path"),
        ("engine", bench_call("engine"), "path"),
    ]


@pytest.mark.parametrize(
    "layer", ["task", "sharded-single", "sharded-multiple", "testbench",
              "design", "engine"])
def test_removed_path_keyword_is_refused(layer):
    """No layer accepts the deleted forced-path keyword: a caller still
    passing it gets a TypeError naming it instead of a silently ignored
    option, while the same call without it runs."""
    (call, keyword), = [(call, keyword) for name, call, keyword
                        in _summary_entry_points() if name == layer]
    assert call() is not None
    with pytest.raises(TypeError, match=keyword):
        call(**{keyword: "dense"})


# ----------------------------------------------------------------------
# Checkpoint fingerprints across task-field changes
# ----------------------------------------------------------------------
def _with_summary_path(fingerprint: str) -> str:
    """The fingerprint the same task had while it still carried the
    ``summary_path`` field (always last, default ``'auto'``)."""
    assert fingerprint.endswith(")")
    return fingerprint[:-1] + ", summary_path='auto')"


def test_checkpoint_with_removed_summary_path_is_refused():
    """A checkpoint written while the task had a summary_path field is
    refused, naming that field as no longer present."""
    new = FIFOValidationCampaignTask(**COMMON).fingerprint()
    assert "summary_path" not in new
    old = _with_summary_path(new)
    with pytest.raises(ValueError) as excinfo:
        CheckpointStore.validate({"task": old, "format": 1},
                                 {"task": new, "format": 1})
    message = str(excinfo.value)
    assert "task field(s) no longer present: summary_path" in message
    assert "delete the file" in message


def test_resume_with_summary_path_checkpoint_end_to_end(tmp_path):
    """Through a campaign run: resuming from a checkpoint whose fingerprint
    still has summary_path aborts with the field named."""
    path = str(tmp_path / "campaign.json")
    task = FIFOValidationCampaignTask(**COMMON)
    run_sharded_campaign(task, 32, seed=9, chunk_size=16,
                         checkpoint_path=path)
    payload = json.loads((tmp_path / "campaign.json").read_text())
    payload["task"] = _with_summary_path(payload["task"])
    (tmp_path / "campaign.json").write_text(json.dumps(payload))
    with pytest.raises(ValueError,
                       match="no longer present: summary_path"):
        run_sharded_campaign(task, 64, seed=9, chunk_size=16,
                             checkpoint_path=path)


def _strip_field(fingerprint: str, field: str) -> str:
    """The same dataclass repr without one field (checkpoints written
    before the field existed look exactly like this)."""
    needle = f", {field}="
    start = fingerprint.index(needle)
    depth = 0
    end = start + len(needle)
    while end < len(fingerprint):
        ch = fingerprint[end]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            if depth == 0:
                break
            depth -= 1
        elif ch == "," and depth == 0:
            break
        end += 1
    return fingerprint[:start] + fingerprint[end:]


def test_stale_checkpoint_names_the_new_field():
    """A checkpoint predating a task field is refused with a message
    naming exactly that field (not just 'task')."""
    task = FIFOValidationCampaignTask(**COMMON)
    new = task.fingerprint()
    old = _strip_field(new, "sampler")
    assert "sampler" not in old
    with pytest.raises(ValueError) as excinfo:
        CheckpointStore.validate({"task": old, "format": 1},
                                 {"task": new, "format": 1})
    message = str(excinfo.value)
    assert "sampler" in message
    assert "predates" in message
    assert "delete the file" in message


def test_changed_field_values_are_spelled_out():
    old = FIFOValidationCampaignTask(**COMMON).fingerprint()
    new = FIFOValidationCampaignTask(**dict(COMMON, sampler="scalar")) \
        .fingerprint()
    with pytest.raises(ValueError,
                       match=r"sampler: 'array' -> 'scalar'"):
        CheckpointStore.validate({"task": old}, {"task": new})


def test_unparseable_fingerprint_falls_back_to_generic_message():
    with pytest.raises(ValueError, match="stale fields: task"):
        CheckpointStore.validate({"task": "opaque-hash-1234"},
                                 {"task": "opaque-hash-5678"})


def test_resume_with_stale_checkpoint_end_to_end(tmp_path):
    """Through a campaign run: a checkpoint written before a task field
    existed (fingerprint without sampler) aborts the resume with the
    field named in the error."""
    path = str(tmp_path / "campaign.json")
    task = FIFOValidationCampaignTask(**COMMON)
    run_sharded_campaign(task, 32, seed=9, chunk_size=16,
                         checkpoint_path=path)
    payload = json.loads((tmp_path / "campaign.json").read_text())
    payload["task"] = _strip_field(payload["task"], "sampler")
    (tmp_path / "campaign.json").write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="sampler"):
        run_sharded_campaign(task, 64, seed=9, chunk_size=16,
                             checkpoint_path=path)
