"""Tests for the flip-flop models."""

import pytest

from repro.circuit.flipflop import (
    DFlipFlop,
    FlopSnapshot,
    PowerState,
    RetentionFlipFlop,
    ScanFlipFlop,
    force_flops,
)


def _forced(value):
    """What :meth:`DFlipFlop.force` stores for ``value``, or the
    ``(type, message)`` it raises."""
    flop = DFlipFlop()
    try:
        flop.force(value)
    except ValueError as exc:
        return ValueError, str(exc)
    return flop.q, type(flop.q)


#: Values ``DFlipFlop._check`` stores (as they are, or normalised to
#: int) and ones it refuses: out-of-range integers, strings and floats,
#: whatever bit they spell.
VALID_BITS = [None, 0, 1, True, False]
INVALID_BITS = [2, -1, 3, "2", "x", 1.0, 0.0, 1.5, "1", "0"]


class TestDFlipFlop:
    def test_initial_value_defaults_to_unknown(self):
        assert DFlipFlop().q is None

    def test_check_stores_plain_ints_and_normalises_the_rest(self):
        stored = [DFlipFlop._check(value) for value in VALID_BITS]
        assert stored == [None, 0, 1, 1, 0]
        assert all(type(v) is int for v in stored[1:])
        for value in INVALID_BITS + [object(), [1]]:
            with pytest.raises(ValueError) as caught:
                DFlipFlop._check(value)
            assert str(caught.value) == \
                f"flip-flop values must be 0, 1 or None; got {value!r}"

    def test_check_normalises_numpy_integers_and_bools(self):
        np = pytest.importorskip("numpy")
        for value, bit in ((np.int64(1), 1), (np.uint8(0), 0),
                           (np.bool_(True), 1), (np.bool_(False), 0)):
            stored = DFlipFlop._check(value)
            assert stored == bit and type(stored) is int
        for value in (np.int64(2), np.int8(-1), np.float64(1.0),
                      np.float32(0.0), np.str_("1")):
            with pytest.raises(ValueError, match="0, 1 or None"):
                DFlipFlop._check(value)

    @pytest.mark.parametrize("value", ["1", 1.0, 1.5])
    def test_force_refuses_strings_and_floats(self, value):
        flop = RetentionFlipFlop(init=0)
        with pytest.raises(ValueError, match="0, 1 or None"):
            flop.force(value)
        with pytest.raises(ValueError, match="0, 1 or None"):
            flop.force_retention(value)
        assert (flop.q, flop.retention_value) == (0, None)

    def test_clock_captures_data(self):
        ff = DFlipFlop(init=0)
        assert ff.clock(1) == 1
        assert ff.q == 1

    def test_reset_and_force(self):
        ff = DFlipFlop(init=1)
        ff.reset()
        assert ff.q == 0
        ff.force(None)
        assert ff.q is None

    def test_flip_inverts_known_values_only(self):
        ff = DFlipFlop(init=1)
        ff.flip()
        assert ff.q == 0
        ff.force(None)
        ff.flip()
        assert ff.q is None

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            DFlipFlop(init=2)
        ff = DFlipFlop()
        with pytest.raises(ValueError):
            ff.clock(5)


class TestScanFlipFlop:
    def test_scan_enable_selects_scan_input(self):
        ff = ScanFlipFlop(init=0)
        ff.clock_scan(d=0, si=1, se=1)
        assert ff.q == 1
        ff.clock_scan(d=0, si=1, se=0)
        assert ff.q == 0

    def test_shift_returns_previous_value(self):
        ff = ScanFlipFlop(init=1)
        assert ff.shift(0) == 1
        assert ff.q == 0


class TestRetentionFlipFlop:
    def test_full_retention_sequence_preserves_value(self):
        ff = RetentionFlipFlop(init=1)
        ff.retain()
        ff.power_off()
        assert ff.q is None
        assert ff.retention_value == 1
        ff.power_on()
        ff.restore()
        assert ff.q == 1

    def test_power_off_without_retain_loses_state(self):
        ff = RetentionFlipFlop(init=1)
        ff.power_off()
        ff.power_on()
        ff.restore()
        assert ff.q is None  # nothing was saved

    def test_clock_while_off_raises(self):
        ff = RetentionFlipFlop(init=0)
        ff.power_off()
        with pytest.raises(RuntimeError):
            ff.clock(1)

    def test_retain_while_off_raises(self):
        ff = RetentionFlipFlop(init=0)
        ff.power_off()
        with pytest.raises(RuntimeError):
            ff.retain()

    def test_restore_while_off_raises(self):
        ff = RetentionFlipFlop(init=0)
        ff.retain()
        ff.power_off()
        with pytest.raises(RuntimeError):
            ff.restore()

    def test_corrupt_retention_flips_saved_value(self):
        ff = RetentionFlipFlop(init=0)
        ff.retain()
        ff.power_off()
        ff.corrupt_retention()
        ff.power_on()
        ff.restore()
        assert ff.q == 1

    def test_corrupt_unknown_retention_is_noop(self):
        ff = RetentionFlipFlop(init=0)
        ff.corrupt_retention()
        assert ff.retention_value is None

    def test_power_state_tracking(self):
        ff = RetentionFlipFlop(init=0)
        assert ff.power is PowerState.ON
        ff.retain()
        ff.power_off()
        assert ff.power is PowerState.OFF
        ff.power_on()
        assert ff.power is PowerState.ON

    def test_init_stores_plain_int(self):
        np = pytest.importorskip("numpy")
        for init in (True, np.int64(1)):
            flop = RetentionFlipFlop(init=init)
            assert flop.q == 1 and type(flop.q) is int
            assert flop.retention_value is None
            assert flop.power is PowerState.ON

    @pytest.mark.parametrize("init", VALID_BITS + INVALID_BITS)
    def test_init_normalises_like_force(self, init):
        """The constructor stores exactly what force() stores and
        raises force()'s message for anything else ("1" and 1.0
        included)."""
        expected = _forced(init)
        if expected[0] is ValueError:
            with pytest.raises(ValueError) as caught:
                RetentionFlipFlop(init=init)
            assert str(caught.value) == expected[1]
        else:
            flop = RetentionFlipFlop(init=init)
            assert (flop.q, type(flop.q)) == expected

    def test_force_retention(self):
        ff = RetentionFlipFlop(init=0)
        ff.force_retention(1)
        ff.restore()
        assert ff.q == 1


def _flop_state(flop):
    return (flop.power, flop.q, flop.retention_value)


def _scrambled_flops():
    """Flops in every power / master / retention combination."""
    flops = []
    for index, (q, retention, off) in enumerate(
            (q, retention, off) for q in (0, 1, None)
            for retention in (0, 1, None) for off in (False, True)):
        flop = RetentionFlipFlop(name=f"ff{index}", init=q)
        flop.force_retention(retention)
        if off:
            flop.power_off()
        flops.append(flop)
    return flops


class TestFlopSnapshot:
    def test_restore_matches_per_flop_calls(self):
        """Capturing pairs and restoring them later leaves every flop
        as power_on + force + force_retention of the same pairs does."""
        source = _scrambled_flops()
        pairs = [(f.q, f.retention_value) for f in source]
        snapshot = FlopSnapshot(source)
        for flop in source:
            flop.force(1)
            flop.force_retention(0)
            flop.power_off()
        snapshot.restore()
        reset = _scrambled_flops()
        for flop, (q, retention) in zip(reset, pairs):
            flop.power_on()
            flop.force(q)
            flop.force_retention(retention)
        assert [_flop_state(f) for f in source] == \
            [_flop_state(f) for f in reset]
        assert all(type(f.q) is type(g.q)
                   and type(f.retention_value) is type(g.retention_value)
                   for f, g in zip(source, reset))

    def test_restore_runs_no_check(self, monkeypatch):
        flops = _scrambled_flops()
        snapshot = FlopSnapshot(flops)

        def refuse(value):
            raise AssertionError("restore re-checked a captured value")

        monkeypatch.setattr(DFlipFlop, "_check", staticmethod(refuse))
        snapshot.restore()
        assert all(f.power is PowerState.ON for f in flops)

    @pytest.mark.parametrize("slot", ("_q", "_retention"))
    def test_capture_rejects_invalid_values(self, slot):
        flops = _scrambled_flops()[:3]
        setattr(flops[1], slot, 2)
        with pytest.raises(ValueError, match="0, 1 or None; got 2"):
            FlopSnapshot(flops)


class TestForceFlops:
    def test_matches_per_flop_force(self):
        values = VALID_BITS * 2
        bulk = [RetentionFlipFlop(init=1) for _ in values]
        force_flops(bulk, values)
        assert [(f.q, type(f.q)) for f in bulk] == \
            [_forced(value) for value in values]

    def test_rejects_invalid_values_after_earlier_flops(self):
        flops = [RetentionFlipFlop(init=1) for _ in range(3)]
        with pytest.raises(ValueError, match="0, 1 or None"):
            force_flops(flops, [0, 2, 0])
        assert [f.q for f in flops] == [0, 1, 1]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            force_flops([RetentionFlipFlop()], [0, 1])
