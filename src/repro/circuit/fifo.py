"""Synchronous FIFO -- the paper's 32x32 case-study circuit.

The paper validates the methodology on a 32-bit wide, 32-entry deep FIFO
"because it has high density of flip-flops and no error masking": every
stored bit lives in a flip-flop and is eventually read out, so any
retention upset that goes uncorrected is architecturally visible.

The model keeps all storage (data array, read/write pointers and status
flags) in :class:`~repro.circuit.flipflop.RetentionFlipFlop` instances
so that the power-gating sequence, fault injection and scan access all
operate on the real architectural state.  With the default 32x32
geometry the FIFO has ``32 * 32 = 1024`` data flops plus 16 control
flops, i.e. 1040 registers --- matching the paper's 80 chains x 13 flops
configuration.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.circuit.base import SequentialCircuit
from repro.circuit.flipflop import RetentionFlipFlop, force_flops
from repro.circuit.netlist import Netlist, PortDirection


class FIFOError(RuntimeError):
    """Raised on an illegal FIFO operation (push when full, pop when empty)."""


class SyncFIFO(SequentialCircuit):
    """A synchronous FIFO with register-based storage.

    Parameters
    ----------
    width:
        Data word width in bits (paper: 32).
    depth:
        Number of entries (paper: 32).
    name:
        Module name used for registers and the netlist.
    """

    def __init__(self, width: int = 32, depth: int = 32,
                 name: str = "fifo32x32"):
        if width <= 0 or depth <= 0:
            raise ValueError("FIFO width and depth must be positive")
        self.name = name
        self.width = width
        self.depth = depth
        self._ptr_bits = max(1, (depth - 1).bit_length()) + 1

        # Data array: depth x width retention flip-flops.
        self._memory: List[List[RetentionFlipFlop]] = [
            [RetentionFlipFlop(f"{name}.mem[{row}][{col}]", 0)
             for col in range(width)]
            for row in range(depth)
        ]
        # Read/write pointers (one wrap bit wider than the address).
        self._wr_ptr = [RetentionFlipFlop(name=f"{name}.wr_ptr[{i}]", init=0)
                        for i in range(self._ptr_bits)]
        self._rd_ptr = [RetentionFlipFlop(name=f"{name}.rd_ptr[{i}]", init=0)
                        for i in range(self._ptr_bits)]
        # Status flags and sticky error flags.
        self._full_flag = RetentionFlipFlop(name=f"{name}.full", init=0)
        self._empty_flag = RetentionFlipFlop(name=f"{name}.empty", init=1)
        self._overflow_flag = RetentionFlipFlop(name=f"{name}.overflow", init=0)
        self._underflow_flag = RetentionFlipFlop(name=f"{name}.underflow", init=0)

        self._registers = (
            [ff for row in self._memory for ff in row]
            + self._wr_ptr + self._rd_ptr
            + [self._full_flag, self._empty_flag,
               self._overflow_flag, self._underflow_flag])
        # Built on first use: campaign benches never read it, and its
        # ~2 000 cell instances dominate the FIFO's construction time.
        self._netlist: Optional[Netlist] = None

    # ------------------------------------------------------------------
    # SequentialCircuit interface
    # ------------------------------------------------------------------
    @property
    def registers(self) -> List[RetentionFlipFlop]:
        """All FIFO registers: data array, pointers, then flags."""
        return self._registers

    @property
    def netlist(self) -> Netlist:
        """Structural netlist of the FIFO (for cost accounting)."""
        if self._netlist is None:
            self._netlist = self._build_netlist()
        return self._netlist

    def _build_netlist(self) -> Netlist:
        netlist = Netlist(self.name)
        netlist.add_port("clk", PortDirection.INPUT)
        netlist.add_port("rst_n", PortDirection.INPUT)
        netlist.add_port("wr_en", PortDirection.INPUT)
        netlist.add_port("rd_en", PortDirection.INPUT)
        netlist.add_port("din", PortDirection.INPUT, self.width)
        netlist.add_port("dout", PortDirection.OUTPUT, self.width)
        netlist.add_port("full", PortDirection.OUTPUT)
        netlist.add_port("empty", PortDirection.OUTPUT)

        group = "fifo"
        # Storage and control registers are retention scan flip-flops.
        netlist.add_cells("rsdff", len(self._registers), group=group)
        # Write-address decoder: one AND per row (enable gating).
        netlist.add_cells("and2", self.depth, group=group)
        # Per-bit write enables for each row.
        netlist.add_cells("and2", self.depth, group=group)
        # Read multiplexer: a mux tree per output bit.
        netlist.add_cells("mux2", self.width * max(self.depth - 1, 1),
                          group=group)
        # Pointer increment / compare logic.
        netlist.add_cells("xor2", 4 * self._ptr_bits, group=group)
        netlist.add_cells("and2", 4 * self._ptr_bits, group=group)
        netlist.add_cells("inv", 2 * self._ptr_bits, group=group)
        # Flag generation.
        netlist.add_cells("nor2", 4, group=group)
        netlist.add_cells("or2", 4, group=group)
        return netlist

    # ------------------------------------------------------------------
    # Pointer helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _read_value(flops: Sequence[RetentionFlipFlop]) -> int:
        value = 0
        for i, ff in enumerate(flops):
            bit = ff.q
            if bit is None:
                raise FIFOError(
                    f"register {ff.name} holds an unknown value")
            value |= (bit & 1) << i
        return value

    @staticmethod
    def _write_value(flops: Sequence[RetentionFlipFlop], value: int) -> None:
        for i, ff in enumerate(flops):
            ff.force((value >> i) & 1)

    @property
    def write_pointer(self) -> int:
        """Current write pointer (includes the wrap bit)."""
        return self._read_value(self._wr_ptr)

    @property
    def read_pointer(self) -> int:
        """Current read pointer (includes the wrap bit)."""
        return self._read_value(self._rd_ptr)

    @property
    def occupancy(self) -> int:
        """Number of words currently stored."""
        return self._pointers()[2]

    def _pointers(self) -> Tuple[int, int, int]:
        """The write pointer, the read pointer and the occupancy, each
        pointer read once (the write pointer first)."""
        write = self.write_pointer
        read = self.read_pointer
        return write, read, (write - read) % (1 << self._ptr_bits)

    @property
    def is_full(self) -> bool:
        """True when the FIFO holds ``depth`` words."""
        return self.occupancy >= self.depth

    @property
    def is_empty(self) -> bool:
        """True when the FIFO holds no words."""
        return self.occupancy == 0

    def _set_flags(self, occupancy: int) -> None:
        """Set the full and empty flags for ``occupancy`` stored words.

        :meth:`push` and :meth:`pop` read each pointer once and pass the
        occupancy they saw plus or minus one: the pointers carry one
        wrap bit more than the address, so they span at least twice the
        depth and a push (pop) that fits moves the occupancy by exactly
        one.
        """
        self._full_flag.force(1 if occupancy >= self.depth else 0)
        self._empty_flag.force(1 if occupancy == 0 else 0)

    # ------------------------------------------------------------------
    # Functional operations
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Synchronous reset: clears storage, pointers and flags."""
        data = self.depth * self.width  # the first registers
        force_flops(self._registers[:data], [0] * data)
        self._write_value(self._wr_ptr, 0)
        self._write_value(self._rd_ptr, 0)
        self._full_flag.force(0)
        self._empty_flag.force(1)
        self._overflow_flag.force(0)
        self._underflow_flag.force(0)

    def push(self, word: Sequence[int]) -> bool:
        """Write one word; returns False (and sets overflow) when full."""
        if len(word) != self.width:
            raise ValueError(
                f"expected a {self.width}-bit word, got {len(word)} bits")
        write, _, occupancy = self._pointers()
        if occupancy >= self.depth:
            self._overflow_flag.force(1)
            return False
        for ff, bit in zip(self._memory[write % self.depth], word):
            v = int(bit)
            if v not in (0, 1):
                raise ValueError(f"data bits must be 0 or 1, got {bit!r}")
            ff.force(v)
        self._write_value(self._wr_ptr,
                          (write + 1) % (1 << self._ptr_bits))
        self._set_flags(occupancy + 1)
        return True

    def next_write_row(self) -> Optional[int]:
        """The memory row the next :meth:`push` writes, or None when
        the FIFO is full (that push only sets the overflow flag).  Row
        ``r``'s data registers are ``registers[r * width:(r + 1) *
        width]``, bit 0 first."""
        write, _, occupancy = self._pointers()
        if occupancy >= self.depth:
            return None
        return write % self.depth

    def pop(self) -> Optional[List[int]]:
        """Read one word; returns None (and sets underflow) when empty."""
        _, read, occupancy = self._pointers()
        if occupancy == 0:
            self._underflow_flag.force(1)
            return None
        row = read % self.depth
        word: List[int] = []
        for ff in self._memory[row]:
            bit = ff.q
            if bit is None:
                raise FIFOError(
                    f"stored data in row {row} holds an unknown value")
            word.append(bit)
        self._write_value(self._rd_ptr, (read + 1) % (1 << self._ptr_bits))
        self._set_flags(occupancy - 1)
        return word

    def push_int(self, value: int) -> bool:
        """Write an integer word (LSB-first bit expansion)."""
        bits = [(value >> i) & 1 for i in range(self.width)]
        return self.push(bits)

    def pop_int(self) -> Optional[int]:
        """Read a word as an integer (LSB-first packing)."""
        word = self.pop()
        if word is None:
            return None
        return sum(bit << i for i, bit in enumerate(word))

    def peek(self, offset: int = 0) -> Optional[List[int]]:
        """Read the word ``offset`` entries after the read pointer,
        without consuming it."""
        if offset < 0 or offset >= self.occupancy:
            return None
        row = (self.read_pointer + offset) % self.depth
        return [ff.q if ff.q is not None else 0 for ff in self._memory[row]]


__all__ = ["SyncFIFO", "FIFOError"]
