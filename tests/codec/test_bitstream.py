"""Tests for bit-level I/O."""

import pytest

from repro.codec.bitstream import BitReader, BitWriter


class TestBitWriter:
    def test_single_bits(self):
        writer = BitWriter()
        for bit in [1, 0, 1, 0, 1, 0, 1, 0]:
            writer.write_bit(bit)
        assert writer.getvalue() == bytes([0b10101010])

    def test_partial_byte_padded(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        assert writer.getvalue() == bytes([0b10100000])

    def test_multi_byte_value(self):
        writer = BitWriter()
        writer.write_bits(0x1234, 16)
        assert writer.getvalue() == bytes([0x12, 0x34])

    def test_bit_length(self):
        writer = BitWriter()
        writer.write_bits(0b111, 3)
        assert writer.bit_length == 3
        writer.write_bits(0, 13)
        assert writer.bit_length == 16

    def test_rejects_negative(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_bits(-1, 4)
        with pytest.raises(ValueError):
            writer.write_bits(1, -1)

    def test_rejects_value_wider_than_count(self):
        # Dropping the high bits would corrupt the stream silently.
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_bits(0b1111, 2)
        with pytest.raises(ValueError):
            writer.write_bits(1, 0)
        assert writer.bit_length == 0
        writer.write_bits(0b11, 2)
        writer.write_bits(0, 0)
        assert writer.getvalue() == bytes([0b11000000])

    def test_long_field_spans_bytes(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        writer.write_bits((1 << 70) | 1, 71)
        assert writer.bit_length == 74
        assert writer.getvalue() == (
            ((0b101 << 71 | (1 << 70) | 1) << 6).to_bytes(10, "big"))


class TestBitReader:
    def test_roundtrip(self):
        writer = BitWriter()
        values = [(0b1, 1), (0b1011, 4), (0xABCD, 16), (0, 7)]
        for value, width in values:
            writer.write_bits(value, width)
        reader = BitReader(writer.getvalue())
        for value, width in values:
            assert reader.read_bits(width) == value

    def test_eof(self):
        reader = BitReader(b"\xff")
        reader.read_bits(8)
        with pytest.raises(EOFError):
            reader.read_bit()

    def test_read_bits_past_end_raises(self):
        reader = BitReader(b"\xab")
        assert reader.read_bits(3) == 0b101
        with pytest.raises(EOFError):
            reader.read_bits(6)
        assert reader.read_bits(5) == 0b01011
        assert reader.read_bits(0) == 0

    def test_read_exp_golomb_crosses_bytes(self):
        # 0000000 1 0000011: seven zeros, so the codeword is the eight
        # bits from the one (0b10000011 = 131), minus one.
        reader = BitReader(bytes([0b00000001, 0b00000110]))
        assert reader.read_exp_golomb() == 130
        assert reader.bits_remaining == 1

    def test_bits_remaining(self):
        reader = BitReader(b"\x00\x00")
        assert reader.bits_remaining == 16
        reader.read_bits(5)
        assert reader.bits_remaining == 11
