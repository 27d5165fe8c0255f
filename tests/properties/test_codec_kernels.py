"""The word-level codec kernels against their scalar formulations.

The bitstream reads and writes whole fields, exp-Golomb codewords are
parsed from a byte window by ``int.bit_length``, one block coder serves
both frame codecs, motion search runs once per displacement over the
whole frame and ADPCM runs one loop over Python lists.  The references
below are the implementations those replaced — bit-at-a-time I/O, the
per-coefficient run-length lists, the per-block search and the
per-sample ADPCM state machine — kept here, and only here, to pin the
kernels to them byte for byte.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.codec.adpcm import INDEX_TABLE, STEP_TABLE, AdpcmCodec
from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.blocks import BLOCK
from repro.codec.motion import motion_search
from repro.codec.zigzag import (
    ZIGZAG_ORDER,
    inverse_zigzag,
    read_blocks,
    run_length_decode,
    run_length_encode,
    write_blocks,
    zigzag,
)

from ..codec.test_motion import reference_field


# -- reference bit I/O ---------------------------------------------------------


class RefBitWriter:
    """One bit at a time, most significant first."""

    def __init__(self):
        self.bits = []

    def write_bit(self, bit):
        self.bits.append(bit & 1)

    def write_bits(self, value, count):
        for shift in range(count - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def getvalue(self):
        padded = self.bits + [0] * (-len(self.bits) % 8)
        return bytes(
            int("".join(map(str, padded[i: i + 8])), 2)
            for i in range(0, len(padded), 8)
        )


class RefBitReader:
    def __init__(self, data):
        self.data = data
        self.position = 0

    def read_bit(self):
        byte_index, bit_index = divmod(self.position, 8)
        if byte_index >= len(self.data):
            raise EOFError("bitstream exhausted")
        self.position += 1
        return (self.data[byte_index] >> (7 - bit_index)) & 1

    def read_bits(self, count):
        value = 0
        for _ in range(count):
            value = (value << 1) | self.read_bit()
        return value


def ref_write_ue(writer, value):
    code = value + 1
    length = code.bit_length()
    writer.write_bits(0, length - 1)
    writer.write_bits(code, length)


def ref_write_se(writer, value):
    ref_write_ue(writer, 2 * value - 1 if value > 0 else -2 * value)


def ref_read_ue(reader):
    zeros = 0
    while reader.read_bit() == 0:
        zeros += 1
        if zeros > 64:
            raise ValueError("malformed exp-Golomb code")
    code = 1
    for _ in range(zeros):
        code = (code << 1) | reader.read_bit()
    return code - 1


def ref_read_se(reader):
    mapped = ref_read_ue(reader)
    return (mapped + 1) // 2 if mapped % 2 == 1 else -(mapped // 2)


def outcome(read, *args):
    """``("ok", value)`` or ``("raise", exception type)``."""
    try:
        return ("ok", read(*args))
    except (EOFError, ValueError) as error:
        return ("raise", type(error))


# -- reference block coder -------------------------------------------------------


def ref_write_blocks(writer, levels):
    previous_dc = 0
    for block in levels:
        scanned = zigzag(block).astype(np.int64)
        dc = int(scanned[0])
        ref_write_se(writer, dc - previous_dc)
        previous_dc = dc
        for run, value in run_length_encode(scanned[1:]):
            ref_write_ue(writer, run)
            ref_write_se(writer, value)


def ref_read_blocks(reader, count):
    blocks = np.zeros((count, BLOCK, BLOCK), dtype=np.float64)
    previous_dc = 0
    for index in range(count):
        dc = previous_dc + ref_read_se(reader)
        previous_dc = dc
        pairs = []
        while True:
            run = ref_read_ue(reader)
            value = ref_read_se(reader)
            pairs.append((run, value))
            if run == 0 and value == 0:
                break
        vector = np.concatenate(
            ([float(dc)], run_length_decode(pairs, BLOCK * BLOCK - 1))
        )
        blocks[index] = inverse_zigzag(vector)
    return blocks


# -- reference ADPCM ---------------------------------------------------------------


@dataclass
class AdpcmState:
    predictor: int = 0
    index: int = 0


def ref_update(code, state, seen):
    step = int(STEP_TABLE[state.index])
    difference = step >> 3
    if code & 4:
        difference += step
    if code & 2:
        difference += step >> 1
    if code & 1:
        difference += step >> 2
    if code & 8:
        state.predictor -= difference
    else:
        state.predictor += difference
    seen.update({"low_clamp"} if state.predictor < -32768 else ())
    seen.update({"high_clamp"} if state.predictor > 32767 else ())
    state.predictor = max(-32768, min(32767, state.predictor))
    state.index += int(INDEX_TABLE[code & 7])
    seen.update({"index_floor"} if state.index < 0 else ())
    seen.update({"index_ceiling"} if state.index > len(STEP_TABLE) - 1 else ())
    state.index = max(0, min(len(STEP_TABLE) - 1, state.index))


def ref_encode_sample(sample, state, seen):
    step = int(STEP_TABLE[state.index])
    delta = sample - state.predictor
    code = 0
    if delta < 0:
        code = 8
        delta = -delta
    if delta >= step:
        code |= 4
        delta -= step
    if delta >= step // 2:
        code |= 2
        delta -= step // 2
    if delta >= step // 4:
        code |= 1
    ref_update(code, state, seen)
    return code


def ref_encode(samples, seen):
    state = AdpcmState()
    codes = [ref_encode_sample(int(sample), state, seen)
             for sample in np.asarray(samples, dtype=np.int64)]
    if len(codes) % 2:
        codes.append(0)
    return bytes((codes[i] << 4) | codes[i + 1]
                 for i in range(0, len(codes), 2))


def ref_decode(data, count, seen):
    state = AdpcmState()
    samples = np.zeros(count, dtype=np.int16)
    for i in range(count):
        byte = data[i // 2]
        code = (byte >> 4) & 0xF if i % 2 == 0 else byte & 0xF
        ref_update(code, state, seen)
        samples[i] = state.predictor
    return samples


# -- strategies --------------------------------------------------------------------


@st.composite
def fields(draw):
    """``(value, count)`` with ``value`` fitting in ``count`` bits."""
    count = draw(st.integers(0, 80))
    value = draw(st.integers(0, (1 << count) - 1)) if count else 0
    return value, count


#: Byte strings rich in zero runs (long exp-Golomb prefixes).
zero_heavy_bytes = st.lists(
    st.one_of(st.sampled_from([0x00, 0x00, 0x01, 0x80, 0xFF]),
              st.integers(0, 255)),
    max_size=24,
).map(bytes)

#: Exp-Golomb values from one-bit codewords up to ones longer than the
#: reader's 9-byte window.
golomb_values = st.one_of(st.integers(0, 20), st.integers(0, 1 << 12),
                          st.integers(0, (1 << 45) - 1))


@st.composite
def pcm_blocks(draw):
    """int16 blocks, odd lengths included, mixing full-scale steps (both
    predictor clamps, both step-index bounds), random samples and samples
    exactly on one of the encoder's decision thresholds.

    The thresholds depend on the encoder state, so the strategy tracks
    it by running the reference encoder along.
    """
    state = AdpcmState()
    samples = []
    for _ in range(draw(st.integers(0, 300))):
        kind = draw(st.sampled_from(["full", "random", "threshold"]))
        if kind == "full":
            sample = draw(st.sampled_from([-32768, 32767, 0]))
        elif kind == "random":
            sample = draw(st.integers(-32768, 32767))
        else:
            step = int(STEP_TABLE[state.index])
            offset = (draw(st.sampled_from([0, step]))
                      + draw(st.sampled_from([0, step // 2]))
                      + draw(st.sampled_from([0, step // 4]))
                      + draw(st.sampled_from([-1, 0, 0, 1])))
            sign = draw(st.sampled_from([-1, 1]))
            sample = min(32767, max(-32768, state.predictor + sign * offset))
        ref_encode_sample(sample, state, set())
        samples.append(sample)
    return np.array(samples, dtype=np.int16)


# -- bitstream -----------------------------------------------------------------------


@given(st.lists(st.one_of(fields(), st.integers(0, 1)), max_size=40))
def test_writer_bytes_match_bit_at_a_time(ops):
    writer, reference = BitWriter(), RefBitWriter()
    for op in ops:
        if isinstance(op, tuple):
            writer.write_bits(*op)
            reference.write_bits(*op)
        else:
            writer.write_bit(op)
            reference.write_bit(op)
        assert writer.bit_length == len(reference.bits)
    assert writer.getvalue() == reference.getvalue()


@given(st.binary(max_size=16), st.lists(st.integers(0, 70), max_size=12))
def test_read_bits_matches_bit_at_a_time(data, counts):
    reader, reference = BitReader(data), RefBitReader(data)
    for count in counts:
        got = outcome(reader.read_bits, count)
        assert got == outcome(reference.read_bits, count)
        if got[0] == "raise":
            break
        assert reader.bits_remaining == len(data) * 8 - reference.position


@given(st.integers(0, 15), st.lists(golomb_values, min_size=1, max_size=12))
def test_exp_golomb_reads_across_byte_boundaries(offset, values):
    writer = RefBitWriter()
    writer.write_bits(0, offset)
    for value in values:
        ref_write_ue(writer, value)
    reader = BitReader(writer.getvalue())
    reader.read_bits(offset)
    for value in values:
        assert reader.read_exp_golomb() == value
    assert reader.bits_remaining == -len(writer.bits) % 8


@given(zero_heavy_bytes, st.integers(0, 7))
@example(b"\x00" * 20, 0)  # more than 64 zeros: malformed
@example(b"\x00", 0)  # the stream ends inside the prefix
@example(bytes([0b00000001, 0b00000000]), 0)  # ... inside the suffix
@example(b"\x00" * 8 + b"\x01", 7)  # exactly 64 zeros, then a one
@example(b"\x00" * 8 + b"\x00\x80", 0)  # 64 zeros, one, cut suffix
def test_exp_golomb_errors_match_bit_at_a_time(data, offset):
    reader, reference = BitReader(data), RefBitReader(data)
    assert outcome(reader.read_bits, offset) == outcome(
        reference.read_bits, offset)
    while True:
        got = outcome(reader.read_exp_golomb)
        assert got == outcome(ref_read_ue, reference)
        if got[0] == "raise":
            break
        assert reader.bits_remaining == len(data) * 8 - reference.position


def test_exp_golomb_error_split():
    with pytest.raises(ValueError):
        BitReader(b"\x00" * 20).read_exp_golomb()
    with pytest.raises(EOFError):
        BitReader(b"\x00").read_exp_golomb()
    with pytest.raises(EOFError):
        # Seven zeros and the one; the seven suffix bits are missing.
        BitReader(bytes([0b00000001])).read_exp_golomb()


# -- block coder ---------------------------------------------------------------------


@st.composite
def level_stacks(draw):
    """Quantised ``(n, 8, 8)`` level stacks: sparse, with some large
    magnitudes, an all-zero block and the last zig-zag coefficient."""
    count = draw(st.integers(1, 5))
    levels = np.zeros((count, BLOCK * BLOCK))
    for index in range(count):
        nonzero = draw(st.integers(0, 64))
        positions = draw(st.lists(st.integers(0, 63), max_size=nonzero))
        for position in positions:
            levels[index, position] = draw(st.one_of(
                st.integers(-3, 3), st.integers(-5000, 5000)))
    if count > 1 and draw(st.booleans()):
        levels[draw(st.integers(0, count - 1))] = 0.0
    if draw(st.booleans()):
        levels[draw(st.integers(0, count - 1)), ZIGZAG_ORDER[63]] = draw(
            st.sampled_from([-1.0, 1.0, 77.0]))
    return levels.reshape(count, BLOCK, BLOCK)


@given(level_stacks())
@example(np.zeros((2, BLOCK, BLOCK)))
def test_block_coder_matches_reference(levels):
    writer, reference = BitWriter(), RefBitWriter()
    write_blocks(writer, levels)
    ref_write_blocks(reference, levels)
    data = writer.getvalue()
    assert data == reference.getvalue()
    decoded = read_blocks(BitReader(data), len(levels))
    assert decoded.dtype == np.float64
    assert np.array_equal(decoded, levels)
    assert np.array_equal(
        decoded, ref_read_blocks(RefBitReader(data), len(levels)))


def test_block_coder_last_coefficient_only():
    levels = np.zeros((1, BLOCK, BLOCK))
    levels.reshape(-1)[ZIGZAG_ORDER[63]] = -9.0
    writer = BitWriter()
    write_blocks(writer, levels)
    assert np.array_equal(read_blocks(BitReader(writer.getvalue()), 1),
                          levels)


def test_block_coder_rejects_overlong_run():
    writer = RefBitWriter()
    ref_write_se(writer, 4)  # DC
    ref_write_ue(writer, 62)  # 62 zeros ...
    ref_write_se(writer, 1)  # ... then the 63rd AC level: fits
    ref_write_ue(writer, 0)
    ref_write_se(writer, 2)  # a 64th AC level: too many
    ref_write_ue(writer, 0)
    ref_write_se(writer, 0)
    data = writer.getvalue()
    with pytest.raises(ValueError, match="exceeds block size"):
        read_blocks(BitReader(data), 1)
    with pytest.raises(ValueError, match="exceeds block size"):
        ref_read_blocks(RefBitReader(data), 1)


# -- motion search -------------------------------------------------------------------


@st.composite
def frame_pairs(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shape = (rows * BLOCK, cols * BLOCK)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["random", "flat", "few-levels"]))
    if kind == "flat":
        current = np.full(shape, float(draw(st.integers(0, 255))))
        reference = np.full(shape, float(draw(st.integers(0, 255))))
    else:
        top = 256 if kind == "random" else 3
        current = rng.integers(0, top, shape).astype(np.float64)
        reference = rng.integers(0, top, shape).astype(np.float64)
    if draw(st.booleans()):
        # A clipped float reconstruction, as the encoder's reference.
        reference = np.clip(reference + rng.normal(0, 1.5, shape), 0, 255)
    if draw(st.booleans()):
        # Both frames are truncated to integers before the search.
        current = np.clip(current + rng.uniform(-0.99, 0.99, shape), 0, 255)
    return current, reference


@given(frame_pairs(), st.integers(0, 4))
def test_motion_search_matches_per_block_reference(frames, search_range):
    current, reference = frames
    assert np.array_equal(motion_search(current, reference, search_range),
                          reference_field(current, reference, search_range))


# -- ADPCM ---------------------------------------------------------------------------


@given(pcm_blocks())
def test_adpcm_matches_per_sample_reference(block):
    codec = AdpcmCodec()
    encoded = codec.encode_block(block)
    assert encoded == ref_encode(block, set())
    decoded = codec.decode_block(encoded, len(block))
    assert decoded.dtype == np.int16
    assert np.array_equal(decoded, ref_decode(encoded, len(block), set()))


def test_adpcm_reference_cases_reach_every_bound():
    """Full-scale steps, as the strategy draws them, hit every clamp."""
    block = np.array([32767] * 40 + [-32768] * 40 + [0] * 200
                     + [32767, -32768] * 30 + [0] * 7, dtype=np.int16)
    seen = set()
    encoded = ref_encode(block, seen)
    ref_decode(encoded, len(block), seen)
    assert seen == {"low_clamp", "high_clamp", "index_floor",
                    "index_ceiling"}
    codec = AdpcmCodec()
    assert codec.encode_block(block) == encoded
    assert np.array_equal(codec.decode_block(encoded, len(block)),
                          ref_decode(encoded, len(block), set()))
