"""Exponential-Golomb entropy coding (as used by H.264's CAVLC headers).

Unsigned exp-Golomb writes ``value + 1`` as ``leading_zeros`` zero bits
followed by the binary representation; signed values are mapped with the
H.264 zig-zag mapping ``v -> 2|v| - (v > 0)``.
"""

from __future__ import annotations

from repro.codec.bitstream import BitReader, BitWriter


def write_unsigned_exp_golomb(writer: BitWriter, value: int) -> None:
    """Write an unsigned integer (>= 0)."""
    if value < 0:
        raise ValueError("unsigned exp-Golomb needs value >= 0")
    code = value + 1
    # ``length - 1`` zeros then ``code`` itself, as one field.
    writer.write_bits(code, 2 * code.bit_length() - 1)


def read_unsigned_exp_golomb(reader: BitReader) -> int:
    """Read an unsigned integer."""
    return reader.read_exp_golomb()


def write_signed_exp_golomb(writer: BitWriter, value: int) -> None:
    """Write a signed integer using the H.264 mapping."""
    mapped = 2 * value - 1 if value > 0 else -2 * value
    write_unsigned_exp_golomb(writer, mapped)


def read_signed_exp_golomb(reader: BitReader) -> int:
    """Read a signed integer using the H.264 mapping."""
    mapped = reader.read_exp_golomb()
    if mapped % 2 == 1:
        return (mapped + 1) // 2
    return -(mapped // 2)
