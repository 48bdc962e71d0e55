"""Property suite: the columnar summary path is bit-identical to the
per-sequence object path.

The campaign fast path (vectorised or scalar sampling ->
``run_batch_summary`` -> ``StreamingCampaignResult.add_batch``) must
produce exactly the counters of the object path (``ErrorPattern``
objects -> ``sleep_wake_cycle_batch``, one scalar cycle per sequence
-> per-sequence ``add``), for every summary-capable registry engine,
every pattern kind and both inject phases -- including a short final
group and the 2-worker sharded merge.  Batched scalar-sampler chunks
on a summary engine must take the summary path as well.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.campaigns.stats import StreamingCampaignResult   # noqa: E402
from repro.campaigns.tasks import (                          # noqa: E402
    VALIDATION_PATTERNS,
    FIFOValidationCampaignTask,
)
from repro.circuit.fifo import SyncFIFO                     # noqa: E402
from repro.core.protected import ProtectedDesign            # noqa: E402
from repro.engines.base import BatchOutcomeArrays           # noqa: E402
from repro.engines.registry import available_engines, get_engine  # noqa: E402
from repro.faults.batch import sample_pattern_batch         # noqa: E402
from repro.validation.campaign import (                     # noqa: E402
    run_sharded_single_error_campaign,
)
from repro.validation.testbench import FIFOTestbench        # noqa: E402

GEOMETRY = dict(width=8, depth=8)
CODES = ["hamming(7,4)", "crc16"]
NUM_CHAINS = 8


def _bench(engine, lfsr_seed=7, stimulus_seed=99):
    fifo = SyncFIFO(name="fifo", **GEOMETRY)
    design = ProtectedDesign(fifo, codes=CODES, num_chains=NUM_CHAINS,
                             engine=engine, lfsr_seed=lfsr_seed)
    return FIFOTestbench(design, seed=stimulus_seed)


def summary_engines():
    """Every registered engine advertising working summary support."""
    names = []
    for name in available_engines():
        probe = _bench("reference").dut_design
        engine = get_engine(name, probe)
        if engine.supports_summary:
            names.append(name)
    assert names, "no summary-capable engine registered"
    return names


@pytest.mark.parametrize("engine", summary_engines())
@pytest.mark.parametrize("kind", ("single", "burst", "multiple", "none"))
@pytest.mark.parametrize("phase", ("sleep", "post_wake"))
def test_summary_equals_object_path(engine, kind, phase):
    """Per-field array values and folded counters match the object
    path for the same sampled patterns (batch of 65 spans a word
    boundary)."""
    batch = 65
    rng = np.random.default_rng(20100308)
    tb_summary = _bench(engine)
    tb_object = _bench(engine)
    design = tb_summary.dut_design
    sampled = sample_pattern_batch(kind, design.num_chains,
                                   design.chain_length, batch, rng,
                                   num_errors=4)

    arrays = tb_summary.run_sequence_batch_summary(sampled, batch,
                                                   phase)
    results = tb_object.run_sequence_batch(sampled.patterns(), phase)

    assert isinstance(arrays, BatchOutcomeArrays)
    assert arrays.batch_size == batch
    for b, result in enumerate(results):
        cycle = result.cycle
        assert int(arrays.injected[b]) == cycle.injected_errors
        assert bool(arrays.detected[b]) == cycle.detected
        assert bool(arrays.corrected_claim[b]) == cycle.corrected_claim
        assert bool(arrays.state_intact[b]) == cycle.state_intact
        assert int(arrays.residual_errors[b]) == cycle.residual_errors
        assert int(arrays.corrections_applied[b]) \
            == cycle.corrections_applied

    streamed = StreamingCampaignResult()
    streamed.add_batch(arrays)
    reference = StreamingCampaignResult()
    for result in results:
        reference.add(result)
    assert streamed == reference


@pytest.mark.parametrize("engine", summary_engines())
def test_summary_leaves_design_state_untouched(engine):
    """Like the object batch path, a summary batch is virtual: the
    circuit state afterwards equals the loaded pre-batch state."""
    tb = _bench(engine)
    design = tb.dut_design
    rng = np.random.default_rng(3)
    sampled = sample_pattern_batch("burst", design.num_chains,
                                   design.chain_length, 16, rng,
                                   num_errors=6)
    tb.run_sequence_batch_summary(sampled, 16, "sleep")
    before = design._all_state()
    design.sleep_wake_cycle_batch_summary(design._pack_chains(), sampled,
                                          16)
    assert design._all_state() == before


@pytest.mark.parametrize("kind", ("single", "burst", "none"))
def test_array_mode_chunk_counters_are_engine_independent(kind):
    """run_chunk in array mode: a summary engine and an object-path
    fallback engine (no summary support) give bit-identical results,
    including a short final group (50 sequences, batch 16)."""
    results = {}
    for engine in ("simd", "packed"):
        task = FIFOValidationCampaignTask(
            width=8, depth=8, codes=tuple(CODES), num_chains=NUM_CHAINS,
            pattern=kind, burst_size=4, engine=engine, batch_size=16,
            sampler="array")
        results[engine] = task.run_chunk(chunk_seed=424242,
                                         num_sequences=50)
    assert results["simd"] == results["packed"]
    assert results["simd"].stats.num_sequences == 50


@pytest.mark.parametrize("phase", ("sleep", "post_wake"))
def test_array_mode_matches_object_mode_on_same_patterns(phase):
    """Within one chunk, routing the *same* sampled patterns through
    the summary path and through run_sequence_batch gives equal
    counters -- the inject-phase plumbing included."""
    task_summary = FIFOValidationCampaignTask(
        width=8, depth=8, codes=tuple(CODES), num_chains=NUM_CHAINS,
        pattern="multiple", burst_size=3, engine="simd", batch_size=8,
        inject_phase=phase, sampler="array")
    task_fallback = FIFOValidationCampaignTask(
        width=8, depth=8, codes=tuple(CODES), num_chains=NUM_CHAINS,
        pattern="multiple", burst_size=3, engine="reference", batch_size=8,
        inject_phase=phase, sampler="array")
    assert task_summary.run_chunk(7, 24) == task_fallback.run_chunk(7, 24)


@pytest.mark.parametrize("kind", VALIDATION_PATTERNS)
@pytest.mark.parametrize("phase", ("sleep", "post_wake"))
def test_scalar_sampler_batches_take_the_summary_path(kind, phase,
                                                      monkeypatch):
    """A batched scalar-sampler chunk on simd runs every group through
    the columnar summary path -- the per-sequence
    sleep_wake_cycle_batch is never called -- and its counters equal
    the packed engine's per-sequence chunk on the same random stream
    (50 sequences in groups of 16: a short final group)."""
    def task(engine):
        return FIFOValidationCampaignTask(
            width=8, depth=8, codes=tuple(CODES), num_chains=NUM_CHAINS,
            pattern=kind, burst_size=4, inject_phase=phase, engine=engine,
            batch_size=16)

    expected = task("packed").run_chunk(20100308, 50).to_dict()

    def per_sequence_batch(self, *args, **kwargs):
        raise AssertionError("a scalar-sampler group left the summary path")

    monkeypatch.setattr(ProtectedDesign, "sleep_wake_cycle_batch",
                        per_sequence_batch)
    assert task("simd").run_chunk(20100308, 50).to_dict() == expected


def test_scalar_cycle_reports_match_packed():
    """A plain sleep_wake_cycle on simd (whose scalar passes delegate to
    the packed engine) returns the packed engine's reports."""
    import random

    from repro.circuit.generators import make_random_state_circuit
    from repro.faults.patterns import multi_error_pattern

    designs = [ProtectedDesign(make_random_state_circuit(64, seed=3),
                               codes=CODES, num_chains=NUM_CHAINS,
                               engine=engine)
               for engine in ("simd", "packed")]
    rng = random.Random(5)
    for phase in ("sleep", "post_wake"):
        for _ in range(4):
            pattern = multi_error_pattern(NUM_CHAINS,
                                          designs[0].chain_length,
                                          rng.randint(1, 4), rng)
            simd, packed = (design.sleep_wake_cycle(injection=pattern,
                                                    inject_phase=phase)
                            for design in designs)
            assert simd.reports == packed.reports
            assert any(report.error_detected for report in simd.reports)


def test_array_mode_sharded_merge_is_worker_count_invariant():
    """1- and 2-worker array-mode campaigns merge to identical
    counters (the chunk plan and per-chunk generators are
    worker-count independent)."""
    kwargs = dict(width=8, depth=8, num_chains=NUM_CHAINS, seed=20100308,
                  chunk_size=16, batch_size=8, engine="simd",
                  sampler="array")
    one = run_sharded_single_error_campaign(64, num_workers=1, **kwargs)
    two = run_sharded_single_error_campaign(64, num_workers=2, **kwargs)
    assert one == two
    assert one.stats.num_sequences == 64
    assert one.stats.detection_rate() == 1.0
    assert one.stats.correction_rate() == 1.0


def test_array_sampler_requires_batch_size_and_known_mode():
    with pytest.raises(ValueError):
        FIFOValidationCampaignTask(sampler="array")
    with pytest.raises(ValueError):
        FIFOValidationCampaignTask(sampler="typo")


def test_scalar_mode_is_the_default_and_unchanged():
    """The sampler field defaults to the historical scalar mode and
    explicit "scalar" is the same campaign (equal fingerprints, equal
    chunk results)."""
    default = FIFOValidationCampaignTask(width=8, depth=8,
                                         num_chains=NUM_CHAINS,
                                         engine="packed")
    explicit = FIFOValidationCampaignTask(width=8, depth=8,
                                          num_chains=NUM_CHAINS,
                                          engine="packed",
                                          sampler="scalar")
    assert default == explicit
    assert default.fingerprint() == explicit.fingerprint()
    assert default.run_chunk(11, 8) == explicit.run_chunk(11, 8)


def test_add_batch_counter_definitions_match_add():
    """Synthetic columnar outcomes covering the rare branches (silent
    corruption, uncorrectable-but-intact, inconsistent) fold exactly
    like their per-sequence records."""
    from repro.campaigns.stats import InjectionRecord

    arrays = BatchOutcomeArrays(
        injected=np.array([0, 1, 2, 3, 1, 0]),
        detected=np.array([False, True, True, False, True, False]),
        uncorrectable=np.array([False, False, True, False, True, False]),
        residual_errors=np.array([0, 0, 2, 3, 1, 0]),
        corrections_applied=np.array([0, 1, 0, 0, 0, 0]))
    batched = StreamingCampaignResult()
    batched.add_batch(arrays)

    reference = StreamingCampaignResult()
    for b in range(6):
        injected = int(arrays.injected[b])
        detected = bool(arrays.detected[b])
        uncorrectable = bool(arrays.uncorrectable[b])
        residual = int(arrays.residual_errors[b])
        intact = residual == 0

        class _Result:
            cycle = None
            error_reported = detected
            mismatch_reported = not intact
            outcome_consistent = intact or (detected and uncorrectable)

        reference.stats.add(InjectionRecord(
            injected=injected, detected=detected,
            corrected=injected > 0 and detected and intact,
            state_intact=intact, residual_errors=residual))
        result = _Result()
        if result.error_reported:
            reference.errors_reported_by_dut += 1
        if result.mismatch_reported:
            reference.mismatches_reported_by_comparator += 1
        if not result.outcome_consistent:
            reference.inconsistent_sequences += 1
    assert batched == reference


def test_add_batch_counters_stay_python_ints(tmp_path):
    """Counters folded from ndarray reductions (``np.count_nonzero``
    returns ``np.int64``) stay plain ints through ``merge`` and
    ``to_dict``, and the checkpoint JSON equals the one of the same
    sequences folded one by one through ``add``."""
    from types import SimpleNamespace

    from repro.campaigns.checkpoints import CheckpointStore

    arrays = BatchOutcomeArrays(
        injected=np.array([0, 1, 2, 3, 1, 0], dtype=np.int64),
        detected=np.array([False, True, True, False, True, False]),
        uncorrectable=np.array([False, False, True, False, True, False]),
        residual_errors=np.array([0, 0, 2, 3, 1, 0], dtype=np.int64),
        corrections_applied=np.array([0, 1, 0, 0, 0, 0], dtype=np.int64))
    batched = StreamingCampaignResult()
    batched.add_batch(arrays)
    merged = StreamingCampaignResult().merge(batched)

    sequenced = StreamingCampaignResult()
    for b in range(6):
        detected = bool(arrays.detected[b])
        residual = int(arrays.residual_errors[b])
        uncorrectable = bool(arrays.uncorrectable[b])
        cycle = SimpleNamespace(injected_errors=int(arrays.injected[b]),
                                detected=detected,
                                state_intact=residual == 0,
                                residual_errors=residual)
        sequenced.add(SimpleNamespace(
            cycle=cycle, error_reported=detected,
            mismatch_reported=residual != 0,
            outcome_consistent=residual == 0 or (detected and uncorrectable)))

    for result in (batched, merged):
        payload = result.to_dict()
        leaves = list(payload["stats"].values()) + [
            value for key, value in payload.items() if key != "stats"]
        assert leaves
        assert all(type(leaf) is int for leaf in leaves), payload

    header = {"format": 1, "task": "summary"}
    written = []
    for name, result in (("batched", merged), ("sequenced", sequenced)):
        store = CheckpointStore(str(tmp_path / f"{name}.json"))
        store.write(header, {0: result})
        written.append((tmp_path / f"{name}.json").read_text("utf-8"))
    assert written[0] == written[1]
