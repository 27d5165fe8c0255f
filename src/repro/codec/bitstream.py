"""Bit-level reading and writing.

Both the JPEG-style and the H.264-style codecs serialise symbols into a
packed big-endian bitstream; these two classes are the only place bit
twiddling happens.  Both work on whole words: the writer shifts a field
into an integer accumulator and flushes complete bytes, the reader
converts the bytes a field spans with one ``int.from_bytes``.
"""

from __future__ import annotations

#: Zero bits after which an exp-Golomb prefix is rejected as malformed.
MAX_EXP_GOLOMB_ZEROS = 64

# A 9-byte window holds at least 65 bits from any bit offset, so one
# window decides between "prefix ends" and "more than 64 zeros".
_WINDOW_BYTES = 9


class BitWriter:
    """Accumulates bits most-significant-first into a byte string."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._current = 0
        self._filled = 0

    def write_bit(self, bit: int) -> None:
        """Append one bit (0 or 1)."""
        self.write_bits(bit & 1, 1)

    def write_bits(self, value: int, count: int) -> None:
        """Append ``count`` bits of ``value``, MSB first.

        ``value`` must fit in ``count`` bits; a wider value would lose
        its high bits, so it is rejected.
        """
        if count < 0:
            raise ValueError("bit count must be >= 0")
        if value < 0:
            raise ValueError("value must be non-negative")
        if value >> count:
            raise ValueError(f"value {value} does not fit in {count} bits")
        current = (self._current << count) | value
        filled = self._filled + count
        if filled >= 8:
            spare = filled & 7
            self._bytes += (current >> spare).to_bytes(filled >> 3, "big")
            current &= (1 << spare) - 1
            filled = spare
        self._current = current
        self._filled = filled

    def getvalue(self) -> bytes:
        """The padded byte string (trailing zero bits fill the last byte)."""
        result = bytearray(self._bytes)
        if self._filled:
            result.append(self._current << (8 - self._filled))
        return bytes(result)

    @property
    def bit_length(self) -> int:
        """Bits written so far."""
        return len(self._bytes) * 8 + self._filled


class BitReader:
    """Reads bits most-significant-first from a byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._position = 0

    def read_bit(self) -> int:
        """Read one bit; raises :class:`EOFError` past the end."""
        return self.read_bits(1)

    def read_bits(self, count: int) -> int:
        """Read ``count`` bits as an unsigned integer.

        Raises :class:`EOFError` when fewer than ``count`` bits remain.
        """
        if count < 0:
            raise ValueError("bit count must be >= 0")
        start = self._position
        end = start + count
        if end > len(self._data) * 8:
            raise EOFError("bitstream exhausted")
        last = (end + 7) >> 3
        chunk = int.from_bytes(self._data[start >> 3: last], "big")
        self._position = end
        return (chunk >> (last * 8 - end)) & ((1 << count) - 1)

    def read_exp_golomb(self) -> int:
        """Read one unsigned exp-Golomb codeword and return its value.

        The codeword is ``z`` zero bits, a one, and ``z`` suffix bits;
        its value is the ``z + 1``-bit number from that one onwards,
        minus one.  Raises :class:`ValueError` when more than
        :data:`MAX_EXP_GOLOMB_ZEROS` zeros lead, and :class:`EOFError`
        when the stream ends first.
        """
        position = self._position
        start = position >> 3
        window = self._data[start: start + _WINDOW_BYTES]
        available = len(window) * 8 - (position & 7)
        bits = int.from_bytes(window, "big") & ((1 << available) - 1)
        zeros = available - bits.bit_length()
        if zeros > MAX_EXP_GOLOMB_ZEROS:
            raise ValueError("malformed exp-Golomb code")
        if not bits:
            raise EOFError("bitstream exhausted")
        length = 2 * zeros + 1
        if length <= available:
            self._position = position + length
            return (bits >> (available - length)) - 1
        # The suffix runs past the window: read it as a plain field.
        self._position = position + zeros
        return self.read_bits(zeros + 1) - 1

    @property
    def bits_remaining(self) -> int:
        """Bits left in the stream (including padding)."""
        return len(self._data) * 8 - self._position
