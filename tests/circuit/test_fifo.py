"""Tests for the synchronous FIFO case-study circuit."""

import random

import pytest

from repro.circuit.fifo import FIFOError, SyncFIFO


class TestGeometry:
    def test_paper_fifo_register_count(self):
        # 32x32 data bits plus 16 control flops = 1040 registers,
        # matching the paper's 80 chains x 13 flops.
        fifo = SyncFIFO(32, 32)
        assert fifo.num_registers == 1040

    def test_small_fifo_register_count(self):
        fifo = SyncFIFO(8, 4)
        # 32 data flops + 2 * 3-bit pointers + 4 flags = 42.
        assert fifo.num_registers == 8 * 4 + 2 * 3 + 4

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SyncFIFO(0, 4)
        with pytest.raises(ValueError):
            SyncFIFO(4, 0)

    def test_netlist_contains_retention_flops(self):
        fifo = SyncFIFO(8, 8)
        assert fifo.netlist.count("rsdff") == fifo.num_registers


class TestPushPop:
    def test_fifo_ordering(self):
        fifo = SyncFIFO(8, 4)
        for value in (3, 5, 250):
            assert fifo.push_int(value)
        assert fifo.pop_int() == 3
        assert fifo.pop_int() == 5
        assert fifo.pop_int() == 250

    def test_occupancy_and_flags(self):
        fifo = SyncFIFO(4, 4)
        assert fifo.is_empty and not fifo.is_full
        for i in range(4):
            assert fifo.push_int(i)
        assert fifo.is_full and not fifo.is_empty
        assert fifo.occupancy == 4

    def test_push_when_full_rejected_and_flagged(self):
        fifo = SyncFIFO(4, 2)
        fifo.push_int(1)
        fifo.push_int(2)
        assert not fifo.push_int(3)
        assert fifo.pop_int() == 1     # original data not clobbered

    def test_next_write_row_follows_the_write_pointer(self):
        fifo = SyncFIFO(4, 2)
        fifo.push_int(1)
        fifo.pop_int()
        row = fifo.next_write_row()
        assert row == 1
        targets = fifo._memory[row]
        assert [flop.name.split(".")[-1] for flop in targets] == [
            f"mem[1][{bit}]" for bit in range(4)]
        assert fifo.registers[row * 4:(row + 1) * 4] == list(targets)
        fifo.push_int(0b0110)
        assert [flop.q for flop in targets] == [0, 1, 1, 0]
        fifo.push_int(0b1111)
        assert fifo.next_write_row() is None  # full

    def test_pop_when_empty_returns_none(self):
        fifo = SyncFIFO(4, 2)
        assert fifo.pop() is None

    def test_wrap_around(self):
        fifo = SyncFIFO(8, 4)
        for round_trip in range(10):
            assert fifo.push_int(round_trip % 256)
            assert fifo.pop_int() == round_trip % 256
        assert fifo.is_empty

    def test_push_validates_word(self):
        fifo = SyncFIFO(4, 2)
        with pytest.raises(ValueError):
            fifo.push([1, 0])
        with pytest.raises(ValueError):
            fifo.push([1, 0, 2, 0])

    def test_peek_does_not_consume(self):
        fifo = SyncFIFO(8, 4)
        fifo.push_int(77)
        fifo.push_int(99)
        assert fifo.peek(0) is not None
        assert fifo.peek(5) is None
        assert fifo.occupancy == 2

    def test_reset_clears_everything(self):
        fifo = SyncFIFO(8, 4)
        fifo.push_int(1)
        fifo.push_int(2)
        fifo.reset()
        assert fifo.is_empty
        assert fifo.occupancy == 0
        assert fifo.pop() is None


class TestRetentionInteraction:
    def test_sleep_wake_preserves_contents_without_faults(self):
        fifo = SyncFIFO(8, 8)
        for i in range(5):
            fifo.push_int(i * 31 % 256)
        fifo.retain_all()
        fifo.power_off_all()
        fifo.power_on_all()
        fifo.restore_all()
        for i in range(5):
            assert fifo.pop_int() == i * 31 % 256

    def test_corrupted_pointer_detected_via_unknown_or_mismatch(self):
        fifo = SyncFIFO(8, 8)
        fifo.push_int(42)
        fifo.retain_all()
        fifo.power_off_all()
        # Flip a write-pointer retention bit while asleep.
        fifo._wr_ptr[0].corrupt_retention()
        fifo.power_on_all()
        fifo.restore_all()
        assert fifo.write_pointer != 1

    def test_operating_on_powered_off_fifo_raises(self):
        fifo = SyncFIFO(8, 4)
        fifo.push_int(9)
        fifo.retain_all()
        fifo.power_off_all()
        with pytest.raises(FIFOError):
            fifo.pop()


def _observed(fifo):
    return (fifo.write_pointer, fifo.read_pointer, fifo._full_flag.q,
            fifo._empty_flag.q, fifo._overflow_flag.q,
            fifo._underflow_flag.q)


class _PointerModel:
    """The FIFO's pointer and flag rules on plain integers: a push
    (pop) that fits moves its pointer by one modulo the pointer span,
    then full and empty are recomputed from the two pointers; one that
    does not fit only sets overflow (underflow)."""

    def __init__(self, depth, span):
        self.depth, self.span = depth, span
        self.write = self.read = 0
        self.full, self.empty, self.overflow, self.underflow = 0, 1, 0, 0

    def _occupancy(self):
        return (self.write - self.read) % self.span

    def _flags(self):
        self.full = int(self._occupancy() >= self.depth)
        self.empty = int(self._occupancy() == 0)

    def push(self):
        if self._occupancy() >= self.depth:
            self.overflow = 1
            return False
        self.write = (self.write + 1) % self.span
        self._flags()
        return True

    def pop(self):
        if self._occupancy() == 0:
            self.underflow = 1
            return False
        self.read = (self.read + 1) % self.span
        self._flags()
        return True

    def state(self):
        return (self.write, self.read, self.full, self.empty,
                self.overflow, self.underflow)


class TestPointerBookkeeping:
    """``push`` and ``pop`` read each pointer once and set the flags
    from the occupancy they saw.  Over wrap-around, overflow, underflow
    and pointers corrupted to an occupancy beyond the depth, pointers
    and flags must follow the rules of :class:`_PointerModel`."""

    @pytest.mark.parametrize("width, depth", [(4, 1), (3, 3), (4, 4),
                                              (2, 5)])
    def test_random_operations_follow_the_pointer_rules(self, width,
                                                        depth):
        fifo = SyncFIFO(width, depth)
        span = 1 << len(fifo._wr_ptr)
        model = _PointerModel(depth, span)
        rng = random.Random(width * 100 + depth)
        contents = []
        for step in range(400):
            roll = rng.random()
            if roll < 0.03:
                # A retention upset left the pointers anywhere.
                model.write, model.read = (rng.randrange(span),
                                           rng.randrange(span))
                fifo._write_value(fifo._wr_ptr, model.write)
                fifo._write_value(fifo._rd_ptr, model.read)
                contents = None
            elif roll < 0.55:
                value = rng.getrandbits(width)
                row = fifo.next_write_row()
                expected = model.push()
                assert (row is not None) == expected
                assert fifo.push_int(value) is expected, step
                if expected and contents is not None:
                    contents.append(value)
            else:
                expected = model.pop()
                popped = fifo.pop_int()
                assert (popped is not None) is expected, step
                if expected and contents is not None:
                    assert popped == contents.pop(0)
            assert _observed(fifo) == model.state(), step

    def test_wrap_around_and_overflow(self):
        fifo = SyncFIFO(4, 4)
        span = 1 << len(fifo._wr_ptr)
        for value in range(3 * span):   # both pointers wrap three times
            assert fifo.push_int(value % 16)
            assert fifo.next_write_row() == (value + 1) % 4
            assert fifo.pop_int() == value % 16
        assert _observed(fifo) == (3 * span % span, 3 * span % span,
                                   0, 1, 0, 0)
        for value in range(4):
            assert fifo.push_int(value)
        assert _observed(fifo)[2:] == (1, 0, 0, 0)
        assert not fifo.push_int(9)
        assert fifo.next_write_row() is None
        assert _observed(fifo) == (4, 0, 1, 0, 1, 0)
        assert [fifo.pop_int() for _ in range(4)] == [0, 1, 2, 3]
        assert _observed(fifo) == (4, 4, 0, 1, 1, 0)
