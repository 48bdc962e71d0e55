"""Benchmark-tooling guard rails: check_regression degrades readably.

The CI regression guard must fail with a *message*, never a
traceback, on the common decay modes of the committed bench files:
malformed JSON, a fresh file missing a guarded metric, an empty or
absent history trajectory.  The companion ``record_bench`` writer must
stamp the numpy and numba versions into every envelope and history row
so cross-machine numbers are never compared silently.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def guard(tmp_path, monkeypatch):
    """check_regression rewired to a scratch repo layout."""
    module = _load_module("check_regression_under_test",
                          REPO_ROOT / "benchmarks" / "check_regression.py")
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(module, "FRESH_DIR", tmp_path / "results")
    monkeypatch.setattr(module, "HISTORY_PATH",
                        tmp_path / "BENCH_history.jsonl")
    (tmp_path / "results").mkdir()
    return module


def _write(path: Path, payload) -> None:
    path.write_text(json.dumps(payload) if not isinstance(payload, str)
                    else payload, encoding="utf-8")


def _bench_payload(results) -> dict:
    return {"bench": "engines", "results": results}


def test_clean_pass(guard, capsys):
    results = {"summary": {"seq_per_s": 100.0, "floors": {"seq_per_s": 50.0}}}
    _write(guard.REPO_ROOT / "BENCH_engines.json", _bench_payload(results))
    _write(guard.FRESH_DIR / "BENCH_engines.json", _bench_payload(results))
    assert guard.main(["engines"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "no committed history" in out


def test_malformed_committed_json_is_a_message_not_a_traceback(guard):
    _write(guard.REPO_ROOT / "BENCH_engines.json", "{truncated")
    _write(guard.FRESH_DIR / "BENCH_engines.json",
           _bench_payload({"s": {"m": 1.0, "floors": {"m": 0.5}}}))
    failures = guard.check_bench("engines")
    assert len(failures) == 1
    assert "unreadable" in failures[0]


def test_missing_results_mapping_is_named(guard):
    _write(guard.REPO_ROOT / "BENCH_engines.json", {"bench": "engines"})
    _write(guard.FRESH_DIR / "BENCH_engines.json", _bench_payload({}))
    failures = guard.check_bench("engines")
    assert "no 'results' mapping" in failures[0]
    assert "record_bench" in failures[0]


def test_missing_metric_in_fresh_results_is_named(guard):
    _write(guard.REPO_ROOT / "BENCH_engines.json", _bench_payload(
        {"campaign_delta_path": {"speedup": 3.0,
                                 "floors": {"speedup": 2.0}}}))
    _write(guard.FRESH_DIR / "BENCH_engines.json", _bench_payload(
        {"campaign_delta_path": {}}))
    failures = guard.check_bench("engines")
    assert "campaign_delta_path/speedup" in failures[0]
    assert "did the benchmark that records it run" in failures[0]


def test_missing_section_with_absent_requirement_skips(guard, capsys):
    """A committed section declaring ``requires`` on a module that is
    not importable here reports 'skipped, not regressed' when the
    fresh run never produced it (the optional benchmark could not have
    run), and the guard passes."""
    _write(guard.REPO_ROOT / "BENCH_engines.json", _bench_payload(
        {"campaign_jit_path": {"speedup": 3.2,
                               "requires": ["definitely_not_a_module"],
                               "floors": {"speedup": 2.0}}}))
    _write(guard.FRESH_DIR / "BENCH_engines.json", _bench_payload({}))
    assert guard.check_bench("engines") == []
    assert guard.main(["engines"]) == 0
    out = capsys.readouterr().out
    assert "skipped, not regressed" in out
    assert "definitely_not_a_module" in out


def test_missing_section_with_satisfied_requirement_still_fails(guard):
    """When every required module *is* importable, a missing section
    is a real regression -- the benchmark should have run."""
    _write(guard.REPO_ROOT / "BENCH_engines.json", _bench_payload(
        {"campaign_jit_path": {"speedup": 3.2, "requires": ["json"],
                               "floors": {"speedup": 2.0}}}))
    _write(guard.FRESH_DIR / "BENCH_engines.json", _bench_payload({}))
    failures = guard.check_bench("engines")
    assert len(failures) == 1
    assert "did the benchmark that records it run" in failures[0]


def test_present_section_with_requires_is_gated_normally(guard):
    """``requires`` only excuses absence: a section the fresh run did
    produce is floor-checked like any other, requirements or not."""
    committed = {"campaign_jit_path": {
        "speedup": 3.2, "requires": ["definitely_not_a_module"],
        "floors": {"speedup": 2.0}}}
    _write(guard.REPO_ROOT / "BENCH_engines.json",
           _bench_payload(committed))
    _write(guard.FRESH_DIR / "BENCH_engines.json", _bench_payload(
        {"campaign_jit_path": {"speedup": 1.1}}))
    failures = guard.check_bench("engines")
    assert "regressed below the committed floor" in failures[0]


def test_all_sections_skipped_is_not_nothing_to_guard(guard, capsys):
    """A bench whose every floored section legitimately skipped must
    not trip the 'declares no floors' backstop."""
    _write(guard.REPO_ROOT / "BENCH_jitonly.json", {
        "bench": "jitonly",
        "results": {"s": {"m": 3.0, "requires": ["definitely_not_a_module"],
                          "floors": {"m": 2.0}}}})
    _write(guard.FRESH_DIR / "BENCH_jitonly.json",
           {"bench": "jitonly", "results": {}})
    assert guard.check_bench("jitonly") == []


def test_regression_below_floor_fails(guard):
    _write(guard.REPO_ROOT / "BENCH_engines.json", _bench_payload(
        {"s": {"m": 3.0, "floors": {"m": 2.0}}}))
    _write(guard.FRESH_DIR / "BENCH_engines.json", _bench_payload(
        {"s": {"m": 1.5}}))
    failures = guard.check_bench("engines")
    assert "regressed below the committed floor" in failures[0]


def test_empty_history_prints_note_and_still_gates(guard, capsys):
    guard.HISTORY_PATH.write_text("")
    results = {"s": {"m": 3.0, "floors": {"m": 2.0}}}
    _write(guard.REPO_ROOT / "BENCH_engines.json", _bench_payload(results))
    _write(guard.FRESH_DIR / "BENCH_engines.json", _bench_payload(results))
    assert guard.main(["engines"]) == 0
    out = capsys.readouterr().out
    assert "missing or empty" in out


def test_corrupt_history_lines_are_skipped(guard, capsys):
    guard.HISTORY_PATH.write_text(
        "not-json\n"
        + json.dumps({"bench": "engines", "section": "s",
                      "recorded_at": "2026-01-01T00:00:00Z",
                      "metrics": {"m": 2.0}}) + "\n")
    results = {"s": {"m": 3.0, "floors": {"m": 2.0}}}
    _write(guard.REPO_ROOT / "BENCH_engines.json", _bench_payload(results))
    _write(guard.FRESH_DIR / "BENCH_engines.json", _bench_payload(results))
    assert guard.main(["engines"]) == 0
    assert "+50.0% vs 2026-01-01T00:00:00Z" in capsys.readouterr().out


def test_old_files_carrying_backend_are_still_read(guard, capsys):
    """Envelopes and history rows recorded while the array-backend
    registry existed carry a ``backend`` entry; the guard still reads
    both."""
    guard.HISTORY_PATH.write_text(
        json.dumps({"bench": "engines", "section": "s",
                    "recorded_at": "2026-01-01T00:00:00Z",
                    "numpy": "2.4.6", "backend": "numpy", "numba": None,
                    "metrics": {"m": 2.0}}) + "\n")
    results = {"s": {"m": 3.0, "floors": {"m": 2.0}}}
    _write(guard.REPO_ROOT / "BENCH_engines.json",
           dict(_bench_payload(results), backend="numpy"))
    _write(guard.FRESH_DIR / "BENCH_engines.json", _bench_payload(results))
    assert guard.main(["engines"]) == 0
    assert "+50.0% vs 2026-01-01T00:00:00Z" in capsys.readouterr().out


def test_non_numeric_history_value_degrades_to_note(guard):
    assert guard.format_delta(3.0, ("fast", "t")) == "no committed history"
    assert guard.format_delta(3.0, (True, "t")) == "no committed history"
    assert guard.format_delta(3.0, (0, "t")) == "no committed history"
    assert guard.format_delta(3.0, None) == "no committed history"


@pytest.fixture
def recorder(tmp_path, monkeypatch):
    """benchmarks/conftest.py's record_bench rewired to tmp dirs."""
    benchmarks = REPO_ROOT / "benchmarks"
    monkeypatch.syspath_prepend(str(benchmarks))
    module = _load_module("bench_conftest_under_test",
                          benchmarks / "conftest.py")
    monkeypatch.setattr(module, "BENCH_SCRATCH_DIR", tmp_path / "results")
    monkeypatch.setattr(module, "BENCH_REFERENCE_DIR", tmp_path)
    monkeypatch.setattr(module, "_WRITTEN_THIS_RUN", set())
    return module


def test_record_bench_embeds_version_metadata(recorder, tmp_path):
    """Every envelope and history row carries the numpy version (and
    no longer the removed array-backend name)."""
    recorder.record_bench("engines", {"seq_per_s": 10.0},
                          section="campaign_delta_path")
    payload = json.loads(
        (tmp_path / "results" / "BENCH_engines.json").read_text())
    assert "numpy" in payload and "backend" not in payload
    row = json.loads(
        (tmp_path / "results" / "BENCH_history.jsonl").read_text()
        .splitlines()[-1])
    assert "numpy" in row and "backend" not in row
    assert row["section"] == "campaign_delta_path"
    # The numba version rides along the same way: the installed
    # version string, or null where the [jit] extra is absent.
    for record in (payload, row):
        assert "numba" in record
        if importlib.util.find_spec("numba") is None:
            assert record["numba"] is None
        else:  # pragma: no cover - jit-smoke installs only
            assert isinstance(record["numba"], str)
    if importlib.util.find_spec("numpy") is not None:
        import numpy
        assert payload["numpy"] == numpy.__version__
        assert row["numpy"] == numpy.__version__
    else:  # pragma: no cover - pure-stdlib install
        assert payload["numpy"] is None


def test_engine_metadata_never_raises(recorder, monkeypatch):
    """A broken numpy/repro import degrades to None entries (benchmarks
    must record even on a pure-stdlib install)."""
    import builtins

    original = builtins.__import__

    def failing(name, *args, **kwargs):
        if name.startswith(("numpy", "repro")):
            raise ImportError(name)
        return original(name, *args, **kwargs)

    for mod in [m for m in list(sys.modules)
                if m.startswith(("numpy", "repro"))]:
        monkeypatch.delitem(sys.modules, mod)
    monkeypatch.setattr(builtins, "__import__", failing)
    assert recorder._engine_metadata() == {"numpy": None, "numba": None}


def test_fresh_reference_keeps_sections_this_install_cannot_measure(
        recorder, tmp_path, monkeypatch):
    """Re-recording the committed reference keeps a section whose
    ``requires`` names a missing module (its benchmark cannot run
    here), and still drops stale sections it could have re-measured.
    The scratch results get only what this run measured."""
    monkeypatch.setenv("REPRO_BENCH_UPDATE_REFERENCE", "1")
    gated = {"speedup": 3.0, "floors": {"speedup": 2.0},
             "requires": ["repro_no_such_module"]}
    _write(tmp_path / "BENCH_engines.json", _bench_payload({
        "campaign_gated": gated,
        "campaign_runnable": {"speedup": 1.0, "requires": ["json"]},
        "campaign_removed": {"speedup": 1.0}}))
    recorder.record_bench("engines", {"seq_per_s": 10.0},
                          section="campaign_delta_path")
    reference = json.loads((tmp_path / "BENCH_engines.json").read_text())
    assert reference["results"] == {
        "campaign_gated": gated,
        "campaign_delta_path": {"seq_per_s": 10.0}}
    fresh = json.loads(
        (tmp_path / "results" / "BENCH_engines.json").read_text())
    assert fresh["results"] == {"campaign_delta_path": {"seq_per_s": 10.0}}
