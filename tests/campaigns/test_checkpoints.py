"""Checkpoint layer: interval flush policy, atomicity, crash windows."""

import json

import pytest

from repro.campaigns.checkpoints import CheckpointStore
from repro.campaigns.runner import ShardedCampaignRunner
from tests.campaigns.test_executors import TrialTask


def _count_writes(monkeypatch):
    """Count payload rewrites going through CheckpointStore.write."""
    writes = []
    original = CheckpointStore.write

    def counting(self, header, completed):
        writes.append(len(completed))
        return original(self, header, completed)

    monkeypatch.setattr(CheckpointStore, "write", counting)
    return writes


class TestSaveInterval:
    def test_interval_bounds_write_count(self, tmp_path, monkeypatch):
        writes = _count_writes(monkeypatch)
        path = str(tmp_path / "campaign.json")
        ShardedCampaignRunner(TrialTask(), 120, seed=4, chunk_size=10,
                              checkpoint_path=path, save_interval=4).run()
        # 12 chunks at interval 4: three flushes, nothing left for the
        # final flush -- not twelve growing rewrites.
        assert writes == [4, 8, 12]
        payload = json.loads((tmp_path / "campaign.json").read_text())
        assert len(payload["completed"]) == 12

    def test_partial_interval_flushed_at_end(self, tmp_path, monkeypatch):
        writes = _count_writes(monkeypatch)
        path = str(tmp_path / "campaign.json")
        ShardedCampaignRunner(TrialTask(), 100, seed=4, chunk_size=10,
                              checkpoint_path=path, save_interval=4).run()
        # 10 chunks: two interval flushes plus the final partial one.
        assert writes == [4, 8, 10]

    def test_interval_one_is_historical_behaviour(self, tmp_path,
                                                  monkeypatch):
        writes = _count_writes(monkeypatch)
        path = str(tmp_path / "campaign.json")
        ShardedCampaignRunner(TrialTask(), 60, seed=4, chunk_size=10,
                              checkpoint_path=path).run()
        assert writes == [1, 2, 3, 4, 5, 6]

    def test_result_independent_of_save_interval(self, tmp_path):
        reference = ShardedCampaignRunner(TrialTask(), 90, seed=11,
                                          chunk_size=9).run()
        for interval in (1, 3, 7, 100):
            path = str(tmp_path / f"ckpt{interval}.json")
            result = ShardedCampaignRunner(
                TrialTask(), 90, seed=11, chunk_size=9,
                checkpoint_path=path, save_interval=interval).run()
            assert result == reference

    def test_invalid_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(str(tmp_path / "x.json"), save_interval=0)
        with pytest.raises(ValueError):
            ShardedCampaignRunner(TrialTask(), 10, seed=1, save_interval=0)


class TestCrashWindow:
    def test_hard_crash_loses_at_most_one_interval(self, tmp_path):
        """Kill-9 semantics: freeze the file as it was mid-run, resume
        from it, and prove the loss is bounded by ``save_interval``."""
        path = tmp_path / "campaign.json"
        reference = ShardedCampaignRunner(TrialTask(), 100, seed=42,
                                          chunk_size=10).run()
        interval = 3
        snapshot = {}

        def crash_after_seven(event):
            if event.chunks_completed == 7 and "bytes" not in snapshot:
                # A hard kill preserves whatever the store last wrote.
                snapshot["bytes"] = path.read_bytes()

        ShardedCampaignRunner(TrialTask(), 100, seed=42, chunk_size=10,
                              checkpoint_path=str(path),
                              save_interval=interval,
                              progress_callback=crash_after_seven).run()
        path.write_bytes(snapshot["bytes"])
        persisted = json.loads(path.read_text())["completed"]
        # 7 chunks were done; the file holds the last full interval.
        assert len(persisted) == 6
        assert 7 - len(persisted) <= interval

        reruns = []
        original = TrialTask.run_chunk_on

        def counting(self, state, seed, count):
            reruns.append(seed)
            return original(self, state, seed, count)

        TrialTask.run_chunk_on = counting
        try:
            resumed = ShardedCampaignRunner(
                TrialTask(), 100, seed=42, chunk_size=10,
                checkpoint_path=str(path), save_interval=interval).run()
        finally:
            TrialTask.run_chunk_on = original
        assert resumed == reference
        assert len(reruns) == 10 - len(persisted)

    def test_resume_mid_interval_under_parallel_executors(self, tmp_path):
        """Interval checkpoints restore correctly when the resumed run
        fans out over a pool."""
        path = str(tmp_path / "campaign.json")
        reference = ShardedCampaignRunner(TrialTask(), 80, seed=5,
                                          chunk_size=10).run()
        ShardedCampaignRunner(TrialTask(), 80, seed=5, chunk_size=10,
                              checkpoint_path=path, save_interval=3).run()
        payload = json.loads((tmp_path / "campaign.json").read_text())
        for lost in ("1", "4", "6"):
            del payload["completed"][lost]
        (tmp_path / "campaign.json").write_text(json.dumps(payload))
        for spec in ("serial", "process"):
            resumed = ShardedCampaignRunner(
                TrialTask(), 80, seed=5, chunk_size=10,
                checkpoint_path=path, save_interval=3, num_workers=2,
                executor=spec).run()
            assert resumed == reference


class TestStoreMechanics:
    def test_none_path_is_inert(self):
        store = CheckpointStore(None, save_interval=5)
        store.attach({"k": 1}, {})
        store.record(0, object())
        store.flush()
        assert store.load_payload() is None
        assert store.unsaved_chunks == 0

    def test_atomic_replace_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        ShardedCampaignRunner(TrialTask(), 30, seed=2, chunk_size=10,
                              checkpoint_path=path, save_interval=2).run()
        leftovers = [p for p in tmp_path.iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []

    def test_validate_reports_stale_fields(self):
        with pytest.raises(ValueError, match="stale fields: seed"):
            CheckpointStore.validate({"seed": 1, "total": 5},
                                     {"seed": 2, "total": 5})


#: sha256 and size of the checkpoint file of :func:`_pinned_campaign`,
#: recorded when the store still wrote through ``json.dump``.
PINNED_CHECKPOINT = (
    "ae533ce1f8b4c462baea4942979cd7779403bff54e46c1fbe208dc67dc9f0d30", 1486)


def _pinned_campaign(path):
    from repro.validation.campaign import run_sharded_multiple_error_campaign
    return run_sharded_multiple_error_campaign(
        384, burst_size=3, clustered=False, width=8, depth=8, num_chains=8,
        engine="simd", sampler="array", batch_size=64, chunk_size=128,
        executor="serial", checkpoint_path=path, seed=20100308)


def test_checkpoint_bytes_are_pinned(tmp_path):
    """A fixed three-chunk campaign writes a byte-for-byte known file:
    the encoder the store uses cannot change what it writes."""
    import hashlib

    pytest.importorskip("numpy")
    path = tmp_path / "pinned.json"
    _pinned_campaign(str(path))
    data = path.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == PINNED_CHECKPOINT
    assert json.loads(data)["completed"].keys() == {"0", "1", "2"}
