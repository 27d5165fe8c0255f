"""The IMA ADPCM codec (4:1 compression of 16-bit PCM).

This is the standard IMA/DVI ADPCM algorithm — the paper's second
application is "the Adaptive Differential Pulse Code Modulation
application (encoder+decoder)" performing "a 4:1 compression, which is
reverted by the decoder" (Section 4.2).  Each 16-bit sample becomes a
4-bit code; the decoder reconstructs an approximation, and — crucially for
the fault-tolerance experiments — both directions are fully deterministic
given the input block and the initial predictor state.
"""

from __future__ import annotations

import numpy as np

#: IMA ADPCM step-size table (89 entries).
STEP_TABLE = np.array(
    [
        7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31,
        34, 37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130,
        143, 157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449,
        494, 544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411,
        1552, 1707, 1878, 2066, 2272, 2499, 2749, 3024, 3327, 3660, 4026,
        4428, 4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493, 10442,
        11487, 12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623,
        27086, 29794, 32767,
    ],
    dtype=np.int32,
)

#: IMA ADPCM index adjustment table for the 3 magnitude bits.
INDEX_TABLE = np.array([-1, -1, -1, -1, 2, 4, 6, 8], dtype=np.int32)


# Python-list views of the tables: the per-sample loops index these.
_STEPS = STEP_TABLE.tolist()
_INDEX_STEPS = INDEX_TABLE.tolist()
_MAX_INDEX = len(_STEPS) - 1


class AdpcmCodec:
    """Block-oriented IMA ADPCM encoder/decoder.

    ``encode_block`` packs two 4-bit codes per byte; each block is coded
    independently from a zero predictor state so blocks are
    self-contained tokens (the networks pass one block per token).
    """

    def encode_block(self, samples: np.ndarray) -> bytes:
        """Encode a 1-D int16 array into packed 4-bit codes."""
        steps, index_steps = _STEPS, _INDEX_STEPS
        predictor = 0
        index = 0
        codes = []
        for sample in np.asarray(samples, dtype=np.int64).tolist():
            step = steps[index]
            delta = sample - predictor
            if delta < 0:
                code = 8
                delta = -delta
            else:
                code = 0
            # ``difference`` is what the decoder will add back: the
            # quantised ``delta`` (step/8 plus the steps the bits claim).
            difference = step >> 3
            if delta >= step:
                code |= 4
                delta -= step
                difference += step
            if delta >= step >> 1:
                code |= 2
                delta -= step >> 1
                difference += step >> 1
            if delta >= step >> 2:
                code |= 1
                difference += step >> 2
            if code & 8:
                predictor -= difference
                if predictor < -32768:
                    predictor = -32768
            else:
                predictor += difference
                if predictor > 32767:
                    predictor = 32767
            index += index_steps[code & 7]
            if index < 0:
                index = 0
            elif index > _MAX_INDEX:
                index = _MAX_INDEX
            codes.append(code)
        if len(codes) % 2:
            codes.append(0)
        packed = np.array(codes, dtype=np.uint8)
        return ((packed[0::2] << 4) | packed[1::2]).tobytes()

    def decode_block(self, data: bytes, count: int) -> np.ndarray:
        """Decode ``count`` samples from packed codes."""
        if not 0 <= count <= 2 * len(data):
            raise ValueError(
                f"cannot decode {count} samples from {len(data)} bytes"
            )
        packed = np.frombuffer(data, dtype=np.uint8)
        nibbles = np.empty(2 * len(packed), dtype=np.uint8)
        nibbles[0::2] = packed >> 4
        nibbles[1::2] = packed & 0xF
        steps, index_steps = _STEPS, _INDEX_STEPS
        predictor = 0
        index = 0
        samples = []
        for code in nibbles[:count].tolist():
            step = steps[index]
            difference = step >> 3
            if code & 4:
                difference += step
            if code & 2:
                difference += step >> 1
            if code & 1:
                difference += step >> 2
            if code & 8:
                predictor -= difference
                if predictor < -32768:
                    predictor = -32768
            else:
                predictor += difference
                if predictor > 32767:
                    predictor = 32767
            index += index_steps[code & 7]
            if index < 0:
                index = 0
            elif index > _MAX_INDEX:
                index = _MAX_INDEX
            samples.append(predictor)
        return np.array(samples, dtype=np.int16)

    def roundtrip_block(self, samples: np.ndarray) -> np.ndarray:
        """Encode then decode (what the paper's app pipeline computes)."""
        encoded = self.encode_block(samples)
        return self.decode_block(encoded, len(samples))
