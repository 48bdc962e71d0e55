"""Bit-exact pins of the rush-current model.

``rush_current_pins.json`` holds ``float.hex`` values recorded from the
model when it still ran one grid search per figure: 144 configurations,
every damping regime of the stage (under-, critically and overdamped)
at 1, 2, 4 and 8 switch stages, with ``share_inductance`` 0 and 1e-10.
Each entry gives the six :class:`RLCParameters` fields, the stage count,
the peak current and droop, the settle time at tolerances 0.02 and 0.1,
and ``(t, current, current_derivative, droop)`` at five times (one of
them negative).  The single grid walk behind the process-wide memo must
reproduce every one of them to the last bit; the walk's accumulated
``t += dt`` grid is part of what is pinned.
"""

import json
from pathlib import Path

import pytest

from repro.power import rush_current
from repro.power.rush_current import RLCParameters, RushCurrentModel

PINS = json.loads(
    (Path(__file__).parent / "rush_current_pins.json").read_text())


def _pin_id(entry):
    share_l = float.fromhex(entry["params"][5])
    return f"{entry['regime']}-s{entry['stages']}-Lshare{share_l:g}"


@pytest.fixture(autouse=True)
def cold_memo(monkeypatch):
    """Every pin walks the grid itself instead of reading an entry left
    by another test."""
    monkeypatch.setattr(rush_current, "_TRANSIENT_CACHE", {})


def test_pins_cover_every_regime_stage_and_share():
    covered = {(e["regime"], e["stages"], e["params"][5]) for e in PINS}
    assert len(PINS) >= 100
    assert covered == {(regime, stages, share)
                       for regime in ("underdamped", "critically_damped",
                                      "overdamped")
                       for stages in (1, 2, 4, 8)
                       for share in ("0x0.0p+0", float.hex(1e-10))}


@pytest.mark.parametrize("entry", PINS, ids=[
    f"{index}-{_pin_id(entry)}" for index, entry in enumerate(PINS)])
def test_transient_matches_pins(entry):
    params = RLCParameters(*(float.fromhex(x) for x in entry["params"]))
    model = RushCurrentModel(params, num_switch_stages=entry["stages"])
    assert model._stage_params().regime.value == entry["regime"]
    got = {
        "peak_current": model.peak_current(),
        "peak_droop": model.peak_droop(),
        "settle_time_0.02": model.settle_time(0.02),
        "settle_time_0.1": model.settle_time(0.1),
    }
    assert {k: float.hex(v) for k, v in got.items()} == \
        {k: entry[k] for k in got}
    samples = []
    for t_hex, *_ in entry["samples"]:
        t = float.fromhex(t_hex)
        samples.append([t_hex] + [float.hex(f(t)) for f in (
            model.current, model.current_derivative, model.droop)])
    assert samples == entry["samples"]
