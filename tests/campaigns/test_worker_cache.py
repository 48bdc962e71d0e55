"""Worker-side state cache: lease accounting, LRU bounds, and the
warm-path determinism contract (reseed == fresh build, bit for bit)."""

from dataclasses import dataclass

import pytest

from repro.analysis.correction_capability import CorrectionCounters
from repro.campaigns.runner import CampaignTask
from repro.campaigns.tasks import FIFOValidationCampaignTask
from repro.campaigns.worker_cache import (
    DEFAULT_MAX_ENTRIES,
    ChunkTiming,
    FIFOChunkWorkspace,
    WorkerStateCache,
    task_state_key,
)


@dataclass
class StatefulTask(CampaignTask):
    """Task whose worker state is an observable sentinel object."""

    label: str = "a"
    builds = []  # class-level: records every build_worker_state call

    def empty_result(self):
        return CorrectionCounters()

    def run_chunk_on(self, state, chunk_seed, num_sequences):
        return CorrectionCounters(sequences=num_sequences)

    def build_worker_state(self):
        StatefulTask.builds.append(self.label)
        return {"label": self.label}


@dataclass
class StatelessTask(CampaignTask):
    """Keeps CampaignTask's default (None) worker state."""

    def empty_result(self):
        return CorrectionCounters()

    def run_chunk_on(self, state, chunk_seed, num_sequences):
        return CorrectionCounters(sequences=num_sequences)


def _sampler_task(mode: str) -> FIFOValidationCampaignTask:
    common = dict(width=4, depth=4, codes=("hamming(7,4)", "crc16"),
                  num_chains=4, pattern="burst", burst_size=2,
                  words_per_sequence=2)
    if mode == "scalar":
        return FIFOValidationCampaignTask(engine="packed", **common)
    if mode == "batched":
        return FIFOValidationCampaignTask(engine="simd", batch_size=4,
                                          **common)
    if mode == "fallback":
        return FIFOValidationCampaignTask(engine="packed", batch_size=4,
                                          **common)
    return FIFOValidationCampaignTask(engine="simd", batch_size=4,
                                      sampler="array", **common)


class TestTaskStateKey:
    def test_equal_tasks_share_a_key(self):
        assert task_state_key(StatefulTask("x")) == \
            task_state_key(StatefulTask("x"))

    def test_distinct_tasks_get_distinct_keys(self):
        assert task_state_key(StatefulTask("x")) != \
            task_state_key(StatefulTask("y"))

    def test_key_never_depends_on_object_identity(self):
        # Two equal-valued objects at different addresses: one key.
        a, b = StatefulTask("same"), StatefulTask("same")
        assert a is not b
        assert task_state_key(a) == task_state_key(b)


class TestWorkerStateCache:
    def setup_method(self):
        StatefulTask.builds = []

    def test_miss_builds_then_hit_reuses(self):
        cache = WorkerStateCache()
        task = StatefulTask("a")
        state, setup, hit = cache.lease(task)
        assert state == {"label": "a"} and not hit and setup >= 0.0
        again, setup2, hit2 = cache.lease(task)
        assert again is state and hit2 and setup2 == 0.0
        assert StatefulTask.builds == ["a"]
        assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0,
                                 "size": 1}

    def test_equal_valued_tasks_share_one_state(self):
        cache = WorkerStateCache()
        first, _, _ = cache.lease(StatefulTask("a"))
        second, _, hit = cache.lease(StatefulTask("a"))
        assert second is first and hit
        assert StatefulTask.builds == ["a"]

    def test_none_states_are_memoized_too(self):
        # A task without a warm path must not rebuild-per-lease just
        # because its state is None.
        cache = WorkerStateCache()
        state, _, hit = cache.lease(StatelessTask())
        assert state is None and not hit
        state, _, hit = cache.lease(StatelessTask())
        assert state is None and hit
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_beyond_max_entries(self):
        cache = WorkerStateCache(max_entries=2)
        cache.lease(StatefulTask("a"))
        cache.lease(StatefulTask("b"))
        cache.lease(StatefulTask("a"))   # refresh a: b is now LRU
        cache.lease(StatefulTask("c"))   # evicts b
        assert cache.evictions == 1
        assert task_state_key(StatefulTask("a")) in cache
        assert task_state_key(StatefulTask("b")) not in cache
        # b rebuilds; a survived the whole time.
        cache.lease(StatefulTask("b"))
        assert StatefulTask.builds == ["a", "b", "c", "b"]

    def test_clear_drops_states_keeps_counters(self):
        cache = WorkerStateCache()
        cache.lease(StatefulTask("a"))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 1
        _, _, hit = cache.lease(StatefulTask("a"))
        assert not hit  # a real rebuild after clear

    def test_default_cap_and_validation(self):
        assert WorkerStateCache().max_entries == DEFAULT_MAX_ENTRIES
        with pytest.raises(ValueError, match="max_entries"):
            WorkerStateCache(max_entries=0)


class TestChunkTiming:
    def test_cache_hit_defaults_false(self):
        timing = ChunkTiming(0.5, 1.5)
        assert timing.setup_seconds == 0.5
        assert timing.compute_seconds == 1.5
        assert timing.cache_hit is False


class TestFIFOChunkWorkspace:
    """The bit-identity contract: a reseeded reused bench is
    indistinguishable from a freshly built one, in every sampler mode,
    for any reuse order, even after a poisoned chunk."""

    SEEDS = (111, 222, 111, 333)  # includes a revisit

    @pytest.mark.parametrize("mode", ("scalar", "batched", "fallback", "array"))
    def test_warm_equals_cold_across_reuse_orders(self, mode):
        if mode not in ("scalar", "fallback"):
            pytest.importorskip("numpy")
        task = _sampler_task(mode)
        workspace = task.build_worker_state()
        assert isinstance(workspace, FIFOChunkWorkspace)
        for chunk_seed in self.SEEDS:
            cold = task.run_chunk(chunk_seed, 4)
            warm = task.run_chunk_on(workspace, chunk_seed, 4)
            assert warm == cold, (mode, chunk_seed)
        assert workspace.chunks_run == len(self.SEEDS)

    def test_reseed_heals_a_poisoned_bench(self):
        # Strand the bench the way a chunk that raised mid-sequence
        # would: power gated off, scan padding corrupted (padding is
        # injectable but never reset by any test-bench stage), state
        # registers trashed, controller mid-transition.
        task = _sampler_task("scalar")
        workspace = task.build_worker_state()
        reference = task.run_chunk(777, 4)

        design = workspace.design
        for flop in design._padding:
            flop.force(1)
            flop.force_retention(1)
        for flop in design.circuit.registers:
            flop.force(1)
            flop.power_off()
        for flop in workspace.testbench.reference.registers:
            flop.force(1)
        design.controller.sleep_request()

        assert task.run_chunk_on(workspace, 777, 4) == reference

    # Counters and post-chunk stream states of an 8-sequence chunk of
    # _golden_task(mode), recorded from a bench built directly with
    # lfsr_seed=child_seed(seed, "lfsr") and a stimulus seeded with
    # child_seed(seed, "stimulus") -- a seeding path independent of
    # reseed().  Per (mode, seed): corrected (= intact) sequences,
    # residual bits, comparator mismatches, inconsistent sequences,
    # injector (row, col) LFSR states, and the next four stimulus words.
    # The "fallback" mode (batch_size on the packed engine, the batch
    # path without numpy) is held to the "batched" rows: a batched
    # campaign does not depend on the engine.
    GOLDEN = {
        ("scalar", 111): (7, 2, 1, 1, (33, 36), (0, 14, 13, 4)),
        ("scalar", 222): (4, 9, 3, 3, (15, 45), (0, 11, 0, 3)),
        ("batched", 111): (7, 2, 1, 1, (33, 36), (0, 9, 6, 9)),
        ("batched", 222): (4, 9, 4, 4, (15, 45), (11, 3, 7, 14)),
        ("array", 111): (5, 8, 3, 3, (33, 36), (0, 9, 6, 9)),
        ("array", 222): (5, 8, 3, 3, (15, 45), (11, 3, 7, 14)),
    }

    @staticmethod
    def _golden_task(mode: str) -> FIFOValidationCampaignTask:
        common = dict(width=4, depth=4, codes=("hamming(7,4)",),
                      num_chains=4, pattern="multiple", burst_size=3,
                      words_per_sequence=2)
        if mode == "scalar":
            return FIFOValidationCampaignTask(engine="packed", **common)
        if mode == "batched":
            return FIFOValidationCampaignTask(engine="simd",
                                              batch_size=4, **common)
        if mode == "fallback":
            return FIFOValidationCampaignTask(engine="packed",
                                              batch_size=4, **common)
        return FIFOValidationCampaignTask(engine="simd", batch_size=4,
                                          sampler="array", **common)

    @pytest.mark.parametrize("mode", ("scalar", "batched", "fallback", "array"))
    def test_reseed_matches_golden_streams(self, mode):
        if mode not in ("scalar", "fallback"):
            pytest.importorskip("numpy")
        task = self._golden_task(mode)
        workspace = task.build_worker_state()
        for seed in (222, 111):  # reused bench, out of order
            (corrected, residual, mismatches, inconsistent, lfsr,
             stimulus) = self.GOLDEN[
                 ("batched" if mode == "fallback" else mode, seed)]
            result = task.run_chunk_on(workspace, seed, 8)
            assert result.to_dict() == {
                "stats": {
                    "num_sequences": 8, "sequences_with_errors": 8,
                    "total_injected": 24, "detected_sequences": 8,
                    "detected_with_errors": 8, "silent_corruptions": 0,
                    "corrected_sequences": corrected,
                    "corrected_with_errors": corrected,
                    "intact_sequences": corrected,
                    "total_residual_errors": residual,
                },
                "errors_reported_by_dut": 8,
                "mismatches_reported_by_comparator": mismatches,
                "inconsistent_sequences": inconsistent,
            }, (mode, seed)
            injector = workspace.design.injector
            assert (injector._row_lfsr.state,
                    injector._col_lfsr.state) == lfsr, (mode, seed)
            assert tuple(workspace.testbench.stimulus.next_int()
                         for _ in range(4)) == stimulus, (mode, seed)
            assert task.run_chunk(seed, 8) == result

    def test_engine_cache_survives_reseed(self):
        # The whole point of the workspace: the design's keyed engine
        # cache (workspaces, LUT memos) must not be dropped per chunk.
        pytest.importorskip("numpy")
        task = _sampler_task("batched")
        workspace = task.build_worker_state()
        task.run_chunk_on(workspace, 1, 4)
        cached = dict(workspace.design._engine_cache)
        assert cached  # the batched run instantiated its engine
        task.run_chunk_on(workspace, 2, 4)
        for key, engine in cached.items():
            assert workspace.design._engine_cache[key] is engine
