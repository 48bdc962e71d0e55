"""Tests for the shared code interfaces and bit utilities."""

import pytest

from repro.codes.base import (
    BlockCode,
    CodeError,
    DecodeResult,
    DecodeStatus,
    StreamCode,
    as_bits,
    bits_to_int,
    hamming_distance,
    int_to_bits,
)
from repro.codes.crc import CRCCode


class TestBitUtilities:
    def test_as_bits_accepts_zeros_and_ones(self):
        assert as_bits([0, 1, 1, 0]) == (0, 1, 1, 0)

    def test_as_bits_accepts_booleans(self):
        assert as_bits([True, False]) == (1, 0)

    def test_as_bits_rejects_other_values(self):
        with pytest.raises(CodeError):
            as_bits([0, 2, 1])

    def test_bits_to_int_msb_first(self):
        assert bits_to_int([1, 0, 1, 1]) == 0b1011

    def test_int_to_bits_round_trip(self):
        for value in (0, 1, 5, 0xAB, 0xFFFF):
            width = max(value.bit_length(), 1)
            assert bits_to_int(int_to_bits(value, width)) == value

    def test_int_to_bits_rejects_overflow(self):
        with pytest.raises(CodeError):
            int_to_bits(16, 4)

    def test_int_to_bits_rejects_negative(self):
        with pytest.raises(CodeError):
            int_to_bits(-1, 4)

    def test_hamming_distance_counts_differences(self):
        assert hamming_distance([0, 0, 1, 1], [0, 1, 1, 0]) == 2

    def test_hamming_distance_requires_equal_length(self):
        with pytest.raises(CodeError):
            hamming_distance([0, 1], [0, 1, 0])


class TestDecodeResult:
    def test_clean_result_flags(self):
        result = DecodeResult(status=DecodeStatus.NO_ERROR, data=(1, 0))
        assert result.is_clean
        assert not result.error_observed

    def test_corrected_result_flags(self):
        result = DecodeResult(status=DecodeStatus.CORRECTED, data=(1, 0),
                              corrected_positions=(1,), syndrome=2)
        assert not result.is_clean
        assert result.error_observed

    def test_detected_result_flags(self):
        result = DecodeResult(status=DecodeStatus.DETECTED, data=(1, 0),
                              syndrome=3)
        assert not result.is_clean
        assert result.error_observed


class TestStreamState:
    def test_stream_state_matches_whole_stream_signature(self):
        crc = CRCCode.from_name("crc16")
        stream = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0]
        state = crc.new_state()
        state.shift_many(stream)
        assert state.signature() == crc.signature(stream)
        assert state.bits_consumed == len(stream)

    def test_stream_state_rejects_bad_bits(self):
        crc = CRCCode.from_name("crc16")
        state = crc.new_state()
        with pytest.raises(CodeError):
            state.shift(3)

    def test_verify_requires_correct_signature_width(self):
        crc = CRCCode.from_name("crc16")
        with pytest.raises(CodeError):
            crc.verify([1, 0, 1], [0, 1])


class _BareBlock(BlockCode):
    """A block code overriding nothing beyond the abstract methods."""

    n, k = 12, 8

    def encode(self, data):
        return as_bits(data) + (0,) * self.r

    def decode(self, codeword):
        return DecodeResult(DecodeStatus.NO_ERROR, as_bits(codeword)[:self.k])


class _BareStream(StreamCode):
    """A stream code overriding nothing beyond the abstract method."""

    signature_bits = 5

    def signature(self, stream):
        return (0,) * self.signature_bits


class TestBaseCostModel:
    def test_block_code_estimates_and_name(self):
        code = _BareBlock()
        assert code.encoder_xor_count() == 2 * code.r == 8
        assert code.decoder_xor_count() == 3 * code.r == 12
        assert code.corrector_gate_count() == 2 * code.n == 24
        assert code.name == "_BareBlock"

    def test_stream_code_estimate_and_name(self):
        code = _BareStream()
        assert code.feedback_xor_count() == code.signature_bits == 5
        assert code.name == "_BareStream"

    def test_interleaved_name_uses_the_inner_name(self):
        from repro.codes.interleave import InterleavedCode

        assert InterleavedCode(_BareBlock(), 3).name == \
            "interleaved(_BareBlock,x3)"
