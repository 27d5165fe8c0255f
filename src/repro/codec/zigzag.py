"""Zig-zag scanning, run-length coding and the shared block entropy coder.

:func:`write_blocks` / :func:`read_blocks` are the block entropy coder
both frame codecs share: per block, the DC level differentially coded
against the previous block, then ``(zero_run, value)`` pairs over the
zig-zag-scanned AC levels up to the last nonzero one, then an
end-of-block ``(0, 0)`` pair; every number is an exp-Golomb codeword
(unsigned for runs, signed for levels).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.blocks import BLOCK


def _zigzag_order(n: int = BLOCK) -> np.ndarray:
    """Indices of the zig-zag scan for an ``n x n`` block."""
    # Anti-diagonals in order; odd diagonals are walked with the row
    # index ascending ((0,1) before (1,0)), even ones descending — the
    # standard JPEG zig-zag.
    order = sorted(
        ((i, j) for i in range(n) for j in range(n)),
        key=lambda ij: (
            ij[0] + ij[1],
            ij[0] if (ij[0] + ij[1]) % 2 else -ij[0],
        ),
    )
    flat = np.array([i * n + j for i, j in order], dtype=np.int64)
    return flat


#: Flat scan order for 8x8 blocks (index into the row-major block).
ZIGZAG_ORDER = _zigzag_order()


def zigzag(block: np.ndarray) -> np.ndarray:
    """Scan an 8x8 block into a 64-vector in zig-zag order."""
    return block.reshape(-1)[ZIGZAG_ORDER]


def inverse_zigzag(vector: np.ndarray) -> np.ndarray:
    """Rebuild the 8x8 block from its zig-zag vector."""
    block = np.zeros(BLOCK * BLOCK, dtype=vector.dtype)
    block[ZIGZAG_ORDER] = vector
    return block.reshape(BLOCK, BLOCK)


def run_length_encode(vector: np.ndarray) -> List[Tuple[int, int]]:
    """Encode a zig-zag vector as ``(zero_run, value)`` pairs.

    A terminating ``(0, 0)`` pair marks end-of-block once only zeros
    remain, as in JPEG's EOB symbol.
    """
    pairs: List[Tuple[int, int]] = []
    run = 0
    values = [int(v) for v in vector]
    last_nonzero = -1
    for index, value in enumerate(values):
        if value != 0:
            last_nonzero = index
    for value in values[: last_nonzero + 1]:
        if value == 0:
            run += 1
        else:
            pairs.append((run, value))
            run = 0
    pairs.append((0, 0))
    return pairs


def run_length_decode(pairs: List[Tuple[int, int]], length: int = 64) -> np.ndarray:
    """Decode ``(zero_run, value)`` pairs back into a vector."""
    values: List[int] = []
    for run, value in pairs:
        if run == 0 and value == 0:
            break
        values.extend([0] * run)
        values.append(value)
    if len(values) > length:
        raise ValueError("run-length data exceeds block size")
    values.extend([0] * (length - len(values)))
    return np.array(values, dtype=np.float64)


def write_blocks(writer: BitWriter, levels: np.ndarray) -> None:
    """Entropy-code a stack of quantised ``(n, 8, 8)`` level blocks.

    Each block goes out as one bit field: its codewords are packed into
    a Python int and handed to :meth:`BitWriter.write_bits` once.
    """
    count = len(levels)
    scanned = levels.reshape(count, BLOCK * BLOCK)[:, ZIGZAG_ORDER]
    scanned = scanned.astype(np.int64)
    # One past the last nonzero AC level of each row (1: no AC levels).
    nonzero = scanned[:, :0:-1] != 0
    stops = np.where(
        nonzero.any(axis=1), BLOCK * BLOCK - nonzero.argmax(axis=1), 1
    )
    write = writer.write_bits
    previous_dc = 0
    for row, stop in zip(scanned.tolist(), stops.tolist()):
        dc = row[0]
        delta = dc - previous_dc
        previous_dc = dc
        # Signed exp-Golomb: ``v`` is sent as the unsigned code of
        # ``2v - 1`` (v > 0) or ``-2v``; ``field`` holds ``code + 1``.
        field = 2 * delta if delta > 0 else 1 - 2 * delta
        width = 2 * field.bit_length() - 1
        run = 0
        for value in row[1:stop]:
            if value:
                run_code = run + 1
                code = 2 * value if value > 0 else 1 - 2 * value
                run_width = 2 * run_code.bit_length() - 1
                code_width = 2 * code.bit_length() - 1
                field = (
                    (((field << run_width) | run_code) << code_width) | code
                )
                width += run_width + code_width
                run = 0
            else:
                run += 1
        # End of block: run 0 and value 0 are both the codeword ``1``.
        write((field << 2) | 3, width + 2)


def read_blocks(reader: BitReader, count: int) -> np.ndarray:
    """Decode ``count`` blocks written by :func:`write_blocks`.

    Returns the ``(count, 8, 8)`` float64 level blocks.
    """
    read = reader.read_exp_golomb
    size = BLOCK * BLOCK
    scanned = [0] * (count * size)
    previous_dc = 0
    for base in range(0, count * size, size):
        mapped = read()
        previous_dc += (mapped + 1) >> 1 if mapped & 1 else -(mapped >> 1)
        scanned[base] = previous_dc
        position = base
        while True:
            run = read()
            mapped = read()
            if not run and not mapped:
                break
            position += run + 1
            if position >= base + size:
                raise ValueError("run-length data exceeds block size")
            scanned[position] = (
                (mapped + 1) >> 1 if mapped & 1 else -(mapped >> 1)
            )
    blocks = np.empty((count, size), dtype=np.float64)
    blocks[:, ZIGZAG_ORDER] = np.array(scanned, dtype=np.float64).reshape(
        count, size
    )
    return blocks.reshape(count, BLOCK, BLOCK)
