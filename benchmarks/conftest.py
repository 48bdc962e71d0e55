"""Shared fixtures and reporting helpers for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper's
evaluation section (see DESIGN.md's per-experiment index), checks the
*shape* of the result against the published numbers, and prints the
measured-versus-paper comparison so that EXPERIMENTS.md can be assembled
from the benchmark log.

Run with::

    pytest benchmarks/ --benchmark-only

Environment knobs:

* ``REPRO_BENCH_SEQUENCES`` -- overrides the Monte-Carlo sample sizes
  (default keeps the whole suite in the a-few-minutes range; the paper
  used 10^6-10^8 sequences).
"""

import importlib.util
import json
import os
import platform
import sys
import time
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.circuit.fifo import SyncFIFO               # noqa: E402
from repro.core.protected import ProtectedDesign       # noqa: E402


def bench_sequences(default: int) -> int:
    """Monte-Carlo sample size, overridable via REPRO_BENCH_SEQUENCES."""
    override = os.environ.get("REPRO_BENCH_SEQUENCES")
    if override:
        return max(1, int(override))
    return default


@pytest.fixture(scope="session")
def paper_fifo():
    """The paper's 32x32 FIFO case-study circuit (1040 registers)."""
    return SyncFIFO(32, 32, name="fifo32x32")


@pytest.fixture(scope="session")
def paper_protected_design(paper_fifo):
    """The paper's FPGA validation configuration: 80 chains x 13 flops,
    Hamming(7,4) correction plus CRC-16 verification."""
    return ProtectedDesign(paper_fifo, codes=["hamming(7,4)", "crc16"],
                           num_chains=80)


def print_section(title: str, body: str) -> None:
    """Print a titled block that survives pytest's output capture (-s)."""
    bar = "=" * max(len(title), 8)
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


#: Machine-readable benchmark results are written as
#: ``BENCH_<name>.json`` so the perf trajectory is tracked between
#: PRs.  One canonical writer emits every location from a single code
#: path: the untracked ``benchmarks/results/`` scratch directory is
#: always written (it is what CI uploads as an artifact and what the
#: regression guard reads), and with ``REPRO_BENCH_UPDATE_REFERENCE=1``
#: the *committed* reference copy at the repo root is refreshed from
#: the same payload -- so the two locations can never drift apart,
#: while ordinary benchmark runs still keep the tree clean.
BENCH_REFERENCE_DIR = Path(__file__).resolve().parent.parent
BENCH_SCRATCH_DIR = Path(__file__).resolve().parent / "results"

#: Targets record_bench has already written during this interpreter's
#: lifetime: the first write of a run truncates (dropping stale
#: sections from earlier runs), later writes merge section-wise.
_WRITTEN_THIS_RUN: set = set()

#: Every record_bench call also appends one line to a
#: ``BENCH_history.jsonl`` trajectory next to the JSON it wrote: the
#: flattened numeric metrics plus the envelope fingerprint.  The
#: scratch copy travels with the CI artifact; the committed root copy
#: (appended only under ``REPRO_BENCH_UPDATE_REFERENCE=1``) is the
#: cross-PR perf trajectory that ``check_regression.py`` prints deltas
#: against.
BENCH_HISTORY_NAME = "BENCH_history.jsonl"


def _unmeasurable_sections(target: Path) -> dict:
    """Sections of the committed reference ``target`` this install
    cannot re-measure: those whose ``requires`` list names a module
    that is not importable here (``check_regression`` skips the same
    sections).  A refreshed reference keeps them as they were, so
    re-recording on a host without, say, numba does not drop the jit
    section and its floors."""
    spec = importlib.util.spec_from_file_location(
        "_bench_check_regression",
        Path(__file__).resolve().parent / "check_regression.py")
    guard = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(guard)
    try:
        previous = json.loads(target.read_text("utf-8"))["results"]
        return {key: value for key, value in previous.items()
                if guard.missing_requirements(value)}
    except (ValueError, OSError, KeyError, TypeError, AttributeError):
        return {}


def flatten_metrics(results: dict, path=()) -> dict:
    """Numeric leaves of a results tree as ``{"a/b/c": value}``,
    skipping the ``floors`` sub-dicts (they are policy, not
    measurements)."""
    out = {}
    for key, value in results.items():
        if key == "floors":
            continue
        if isinstance(value, dict):
            out.update(flatten_metrics(value, path + (key,)))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out["/".join(path + (key,))] = value
    return out


def _engine_metadata() -> dict:
    """Array-library fingerprint embedded in every benchmark envelope
    and history row (never raises -- benchmarks must record even on a
    pure-stdlib install, where every entry is None).  The numba version
    rides along so jit-engine numbers are never compared across
    compiler versions (or against uncompiled runs) silently."""
    numpy_version = None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        pass
    numba_version = None
    try:
        from repro.engines.jit import NUMBA_VERSION
        numba_version = NUMBA_VERSION
    except Exception:
        pass
    return {"numpy": numpy_version, "numba": numba_version}


def record_bench(name: str, results: dict,
                 section: "str | None" = None) -> Path:
    """Write one benchmark's results as ``BENCH_<name>.json``.

    ``results`` must be JSON-serialisable; the envelope adds the
    Python/platform fingerprint, the numpy and numba versions and a
    timestamp so numbers from different machines -- or different array
    libraries -- are never compared silently.

    With ``section`` the file holds one sub-dict per microbenchmark
    (``results[section]``) and this call replaces only its own
    section, merging with the sections *this process* already wrote to
    the target -- that is how several benchmark functions share one
    ``BENCH_engines.json``.  The first write of a run starts the file
    fresh, so sections from renamed or removed benchmarks cannot
    linger and fool the regression guard -- except that a fresh
    committed reference keeps the sections this install cannot
    measure (their ``requires`` names a missing module).  Sections
    include a ``floors`` sub-dict mapping metric names to their
    acceptance floors; the CI regression guard
    (``benchmarks/check_regression.py``) compares freshly measured
    metrics against the committed reference floors.
    """
    directories = [BENCH_SCRATCH_DIR]
    if os.environ.get("REPRO_BENCH_UPDATE_REFERENCE"):
        directories.append(BENCH_REFERENCE_DIR)
    engine_meta = _engine_metadata()
    path = None
    for directory in directories:
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / f"BENCH_{name}.json"
        merged = results
        if section is not None:
            merged = {}
            if target in _WRITTEN_THIS_RUN and target.exists():
                try:
                    previous = json.loads(target.read_text("utf-8"))
                    merged = {
                        key: value
                        for key, value in previous.get("results",
                                                       {}).items()
                        if isinstance(value, dict)}
                except (ValueError, OSError):
                    merged = {}
            elif directory == BENCH_REFERENCE_DIR:
                merged = _unmeasurable_sections(target)
            merged[section] = results
        _WRITTEN_THIS_RUN.add(target)
        payload = {
            "bench": name,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "numpy": engine_meta["numpy"],
            "numba": engine_meta["numba"],
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                         time.gmtime()),
            "results": merged,
        }
        target.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")
        history_entry = {
            "bench": name,
            "section": section,
            "recorded_at": payload["recorded_at"],
            "python": payload["python"],
            "platform": payload["platform"],
            "numpy": engine_meta["numpy"],
            "numba": engine_meta["numba"],
            "metrics": flatten_metrics(results),
        }
        with open(directory / BENCH_HISTORY_NAME, "a",
                  encoding="utf-8") as handle:
            handle.write(json.dumps(history_entry, sort_keys=True) + "\n")
        if path is None:
            path = target
    return path
