"""Campaign-level summary-path selection (``summary_path`` task field).

The task field routes the summary-path choice into the engine, bumps
the task fingerprint (pre-existing checkpoints are refused with a
message naming the field), and validates eagerly: forced paths need
``batch_size`` and a summary-capable engine.
"""

import json

import pytest

np = pytest.importorskip("numpy")

from repro.campaigns.checkpoints import CheckpointStore           # noqa: E402
from repro.campaigns.runner import ShardedCampaignRunner          # noqa: E402
from repro.campaigns.tasks import FIFOValidationCampaignTask      # noqa: E402

COMMON = dict(width=8, depth=8, codes=("hamming(7,4)", "crc16"),
              num_chains=8, batch_size=16, engine="simd",
              sampler="array")


def test_unknown_summary_path_rejected():
    with pytest.raises(ValueError, match="summary_path"):
        FIFOValidationCampaignTask(summary_path="fast", **COMMON)


def test_forced_path_requires_batch_size():
    with pytest.raises(ValueError, match="set batch_size"):
        FIFOValidationCampaignTask(summary_path="delta", engine="simd")


@pytest.mark.parametrize("kind", ("single", "multiple"))
def test_forced_dense_on_scalar_sampler(kind):
    """Scalar-sampler groups reach the summary path too: a forced
    "dense" chunk on simd equals "auto" and the per-sequence path of
    engine="packed" (short final group included)."""
    common = dict(COMMON, sampler="scalar", pattern=kind, burst_size=3)
    results = [
        FIFOValidationCampaignTask(**dict(common, **overrides)).run_chunk(
            chunk_seed=424242, num_sequences=50)
        for overrides in ({"summary_path": "dense"}, {},
                          {"engine": "packed"})]
    assert results[0] == results[1] == results[2]
    assert results[0].stats.num_sequences == 50


def test_forced_path_requires_summary_engine():
    """The object-path fallback cannot honour a forced path; the chunk
    fails loudly instead of silently running the fallback."""
    task = FIFOValidationCampaignTask(
        width=8, depth=8, codes=("hamming(7,4)", "crc16"), num_chains=8,
        batch_size=16, engine="packed", sampler="array",
        summary_path="delta")
    with pytest.raises(ValueError, match="summary_path"):
        task.run_chunk(chunk_seed=1, num_sequences=16)


@pytest.mark.parametrize("kind", ("single", "burst", "multiple"))
def test_delta_campaign_counters_match_dense(kind):
    """End to end through run_chunk: forced dense and auto (and, on
    single errors, forced delta) produce bit-identical chunk counters
    (short final group included)."""
    paths = ("delta", "dense", "auto") if kind == "single" \
        else ("dense", "auto")
    results = {}
    for path in paths:
        task = FIFOValidationCampaignTask(pattern=kind, burst_size=3,
                                          summary_path=path, **COMMON)
        results[path] = task.run_chunk(chunk_seed=424242,
                                       num_sequences=50)
    assert results[paths[0]] == results["dense"] == results["auto"]
    assert results["auto"].stats.num_sequences == 50


def test_forced_delta_on_burst_chunk_raises():
    """Forced "delta" is the single-flip table: a burst chunk has
    multi-flip sequences, so the chunk fails loudly, naming the flip
    count, instead of silently running the dense pass."""
    task = FIFOValidationCampaignTask(pattern="burst", burst_size=3,
                                      summary_path="delta", **COMMON)
    with pytest.raises(ValueError,
                       match="summary path 'delta'.*sequence with 3"):
        task.run_chunk(chunk_seed=424242, num_sequences=50)


def test_sharded_driver_forwards_summary_path():
    """The validation-campaign facade forwards summary_path to the
    task; forced paths and auto agree and stay worker-count
    deterministic."""
    from repro.validation.campaign import run_sharded_single_error_campaign

    kwargs = dict(width=8, depth=8, num_chains=8, seed=20100308,
                  chunk_size=16, batch_size=8, engine="simd",
                  sampler="array")
    delta = run_sharded_single_error_campaign(64, summary_path="delta",
                                              **kwargs)
    dense = run_sharded_single_error_campaign(64, summary_path="dense",
                                              **kwargs)
    auto = run_sharded_single_error_campaign(64, **kwargs)
    assert delta == dense == auto
    two = run_sharded_single_error_campaign(64, summary_path="delta",
                                            num_workers=2, **kwargs)
    assert two == delta


def _register_pure_jit(name="jit-pure"):
    """A registry entry for the fused engine in interpreter mode, so
    the campaign plumbing is exercised end to end without numba."""
    from repro.engines.jit import JitFusedEngine
    from repro.engines.registry import register_engine

    register_engine(name, lambda design: JitFusedEngine(
        design.monitor_bank, design.num_chains, design.chain_length,
        compiled=False))


def test_jit_path_accepted_and_routed():
    """summary_path='jit' passes task validation and reaches the
    engine; counters are bit-identical to the simd paths on the same
    seeds."""
    from repro.engines.registry import unregister_engine

    _register_pure_jit()
    try:
        jit = FIFOValidationCampaignTask(
            summary_path="jit", **dict(COMMON, engine="jit-pure"))
        auto = FIFOValidationCampaignTask(
            **dict(COMMON, engine="jit-pure"))
        simd = FIFOValidationCampaignTask(**COMMON)
        results = [task.run_chunk(chunk_seed=424242, num_sequences=50)
                   for task in (jit, auto, simd)]
        assert results[0] == results[1] == results[2]
        assert results[0].stats.num_sequences == 50
    finally:
        unregister_engine("jit-pure")


def test_forced_jit_path_on_simd_engine_fails_loudly():
    """Only the jit engine provides the 'jit' path; the simd engine
    rejects it with its unknown-path error rather than silently
    running something else."""
    task = FIFOValidationCampaignTask(summary_path="jit", **COMMON)
    with pytest.raises(ValueError, match="unknown summary path"):
        task.run_chunk(chunk_seed=1, num_sequences=16)


def test_sharded_jit_campaign_is_worker_count_deterministic():
    """1- and 2-worker sharded runs of a jit-path campaign produce
    identical counters (the pool forks its workers after the inline
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
                      sampler="array", summary_path="jit",
                      executor="process")
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


def test_fingerprint_carries_summary_path():
    auto = FIFOValidationCampaignTask(**COMMON)
    delta = FIFOValidationCampaignTask(summary_path="delta", **COMMON)
    assert "summary_path='auto'" in auto.fingerprint()
    assert "summary_path='delta'" in delta.fingerprint()
    assert auto.fingerprint() != delta.fingerprint()


def _strip_field(fingerprint: str, field: str) -> str:
    """A pre-PR8 fingerprint: the same dataclass repr without one
    field (checkpoints written before the field existed look exactly
    like this)."""
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
    """A checkpoint predating the summary_path field is refused with a
    message naming exactly that field (not just 'task')."""
    task = FIFOValidationCampaignTask(**COMMON)
    new = task.fingerprint()
    old = _strip_field(new, "summary_path")
    assert "summary_path" not in old
    with pytest.raises(ValueError) as excinfo:
        CheckpointStore.validate({"task": old, "format": 1},
                                 {"task": new, "format": 1})
    message = str(excinfo.value)
    assert "summary_path" in message
    assert "predates" in message
    assert "delete the file" in message


def test_changed_field_values_are_spelled_out():
    old = FIFOValidationCampaignTask(**COMMON).fingerprint()
    new = FIFOValidationCampaignTask(summary_path="delta",
                                     **COMMON).fingerprint()
    with pytest.raises(ValueError,
                       match=r"summary_path: 'auto' -> 'delta'"):
        CheckpointStore.validate({"task": old}, {"task": new})


def test_unparseable_fingerprint_falls_back_to_generic_message():
    with pytest.raises(ValueError, match="stale fields: task"):
        CheckpointStore.validate({"task": "opaque-hash-1234"},
                                 {"task": "opaque-hash-5678"})


def test_resume_with_stale_checkpoint_end_to_end(tmp_path):
    """Through the runner: a checkpoint written by a pre-PR8 campaign
    (task fingerprint without summary_path) aborts the resume with the
    field named in the error."""
    path = str(tmp_path / "campaign.json")
    task = FIFOValidationCampaignTask(**COMMON)
    ShardedCampaignRunner(task, 32, seed=9, chunk_size=16,
                          checkpoint_path=path).run()
    payload = json.loads((tmp_path / "campaign.json").read_text())
    payload["task"] = _strip_field(payload["task"], "summary_path")
    (tmp_path / "campaign.json").write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="summary_path"):
        ShardedCampaignRunner(task, 64, seed=9, chunk_size=16,
                              checkpoint_path=path).run()
