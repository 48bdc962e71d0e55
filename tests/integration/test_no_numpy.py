"""The batch fallback on an install without numpy.

The core install is pure Python: without numpy only the ``reference``
and ``packed`` engines register, and ``sleep_wake_cycle_batch`` (and
the batched campaigns built on it) must run through the stdlib-only
per-sequence fallback.  The check runs in a subprocess that blocks the
numpy import before ``repro`` is first imported, so any numpy import
leaking into the fallback path or into the ``packed`` engine fails
it.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = textwrap.dedent("""\
    import random
    import sys

    sys.modules["numpy"] = None  # every "import numpy" now fails

    from repro.circuit.generators import make_random_state_circuit
    from repro.core.protected import ProtectedDesign
    from repro.engines.registry import available_engines
    from repro.faults.patterns import multi_error_pattern, single_error_pattern
    from repro.validation.campaign import run_sharded_single_error_campaign

    assert available_engines() == ("reference", "packed"), \\
        available_engines()
    design = ProtectedDesign(make_random_state_circuit(40, seed=5),
                             codes=["hamming(7,4)", "crc16"], num_chains=8)
    rng = random.Random(3)
    patterns = [None] + [single_error_pattern(8, design.chain_length, rng)
                         for _ in range(5)]
    outcomes = design.sleep_wake_cycle_batch(patterns)
    assert [o.corrections_applied for o in outcomes] == [0] + [1] * 5
    assert all(o.state_intact for o in outcomes)
    result = run_sharded_single_error_campaign(
        32, width=8, depth=8, num_chains=8, seed=20100308, chunk_size=16,
        batch_size=8)
    assert result.stats.correction_rate() == 1.0

    # The packed engine is the fast path of this install: an injected
    # cycle and a batch must match the reference engine's outcomes.
    def observed(outcome):
        return (outcome.injected_errors, outcome.detected,
                outcome.corrected_claim, outcome.state_intact,
                outcome.residual_errors, outcome.error_code,
                outcome.corrections_applied, outcome.reports)

    pair = [ProtectedDesign(make_random_state_circuit(40, seed=7),
                            codes=["hamming(7,4)", "crc16"], num_chains=8,
                            engine=engine)
            for engine in ("reference", "packed")]
    assert pair[1].engine == "packed"
    rng = random.Random(11)
    length = pair[0].chain_length
    patterns = [None, single_error_pattern(8, length, rng)] + [
        multi_error_pattern(8, length, 3, rng) for _ in range(4)]
    reference, packed = [design.sleep_wake_cycle(injection=patterns[2])
                         for design in pair]
    assert observed(packed) == observed(reference)
    reference, packed = [
        [observed(o) for o in design.sleep_wake_cycle_batch(patterns)]
        for design in pair]
    assert packed == reference
    assert {o[3] for o in reference} == {True, False}  # one stays corrupt
    """)


def test_batch_fallback_runs_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
