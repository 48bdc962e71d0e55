"""The packed-integer chain-state boundary of the integer engines:
``pack_state``, ``pack_chains`` and ``write_back_chains``."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuit.flipflop import ScanFlipFlop
from repro.circuit.scan import ScanChain
from repro.engines.packing import pack_chains, pack_state, write_back_chains

tri_bits = st.one_of(st.none(), st.integers(min_value=0, max_value=1))


def make_reference(values):
    return ScanChain([ScanFlipFlop(name=f"ff{i}", init=v)
                      for i, v in enumerate(values)])


class TestPackState:
    @given(st.lists(tri_bits, min_size=1, max_size=24))
    def test_round_trip_against_scan_chain(self, values):
        """Bit ``i`` of the packed pair is scan position ``i`` of
        ``ScanChain.read_state()``; unknown flops are 0 in both
        integers."""
        state, known = pack_state(values)
        read = make_reference(values).read_state()
        assert [((state >> i) & 1) if (known >> i) & 1 else None
                for i in range(len(values))] == read
        assert state & ~known == 0
        assert max(state, known).bit_length() <= len(values)

    @pytest.mark.parametrize("bad", [2, -1, 3, 10, 2.0, 0.5, "1"])
    def test_rejects_non_bits(self, bad):
        with pytest.raises(ValueError,
                           match="bit values must be 0, 1 or None"):
            pack_state([0, bad, 1])

    def test_rejects_a_trailing_two(self):
        with pytest.raises(ValueError, match=r"got 2\b"):
            pack_state([1] * 63 + [2])

    @given(st.lists(st.sampled_from([0, 1, None, True, False, 0.0, 1.0]),
                    max_size=70))
    def test_int_like_values_pack_like_ints(self, values):
        """Values equal to 0 or 1 pack exactly like the ints."""
        plain = [None if v is None else int(v) for v in values]
        assert pack_state(values) == pack_state(plain)

    def test_empty_values_pack_to_zero(self):
        assert pack_state([]) == (0, 0)

    def test_scan_in_side_is_bit_zero(self):
        assert pack_state([1, 0, 0, None, 1]) == (0b10001, 0b10111)


class TestPackChains:
    @given(st.integers(min_value=1, max_value=6).flatmap(
        lambda length: st.lists(st.lists(tri_bits, min_size=length,
                                         max_size=length),
                                min_size=1, max_size=5)))
    def test_matches_read_state(self, rows):
        """One ``(state, known)`` pair per chain, in chain order, each
        equal to ``pack_state`` of that chain's ``read_state()``."""
        chains = [make_reference(values) for values in rows]
        states, knowns = pack_chains(chains)
        assert list(zip(states, knowns)) == [
            pack_state(chain.read_state()) for chain in chains]

    def test_no_chains(self):
        assert pack_chains([]) == ([], [])


class TestWriteBackChains:
    @given(st.integers(min_value=1, max_value=16).flatmap(
        lambda length: st.tuples(
            st.lists(tri_bits, min_size=length, max_size=length),
            st.lists(tri_bits, min_size=length, max_size=length))))
    def test_writes_new_state_into_chain(self, pair):
        """After write-back the chain holds the new packed state, with
        every flop driven (formerly unknown flops included)."""
        old_values, new_values = pair
        chain = make_reference(old_values)
        states, knowns = pack_chains([chain])
        new_state, _ = pack_state(new_values)
        write_back_chains([chain], states, knowns, [new_state])
        assert chain.read_state() == [
            (new_state >> i) & 1 for i in range(len(new_values))]

    def test_clean_pass_forces_no_flop(self, monkeypatch):
        chain = make_reference([1, 0, 1, 1])
        states, knowns = pack_chains([chain])
        forced = []
        monkeypatch.setattr(ScanFlipFlop, "force",
                            lambda flop, value: forced.append(flop.name))
        write_back_chains([chain], states, knowns, states)
        assert forced == []

    def test_forces_only_changed_and_unknown_flops(self, monkeypatch):
        chain = make_reference([1, None, 0, 1, 0])
        states, knowns = pack_chains([chain])
        forced = []
        original = ScanFlipFlop.force

        def record(flop, value):
            forced.append(flop.name)
            original(flop, value)

        monkeypatch.setattr(ScanFlipFlop, "force", record)
        # Flip scan position 3; position 1 was unknown and is driven to 0.
        write_back_chains([chain], states, knowns, [states[0] ^ 0b01000])
        assert sorted(forced) == ["ff1", "ff3"]
        assert chain.read_state() == [1, 0, 0, 0, 0]

    def test_no_chains_is_a_no_op(self):
        write_back_chains([], [], [], [])
