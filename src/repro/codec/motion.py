"""Frame-wide block motion search and compensation (the H.264 inter path)."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.codec.blocks import BLOCK


def _candidates(search_range: int) -> List[Tuple[int, int]]:
    """Displacements within ``search_range``, in tie-break order.

    The order is ``(|dy| + |dx|, dy, dx)``: the first minimum-SAD
    candidate in this list is the smallest vector, lowest ``dy``, then
    lowest ``dx``.
    """
    span = range(-search_range, search_range + 1)
    return sorted(
        ((dy, dx) for dy in span for dx in span),
        key=lambda v: (abs(v[0]) + abs(v[1]), v[0], v[1]),
    )


def motion_search(
    current: np.ndarray,
    reference: np.ndarray,
    search_range: int = 4,
    block: int = BLOCK,
) -> np.ndarray:
    """Full-search motion estimation for every block of a frame.

    For each ``block x block`` tile of ``current`` (shape a multiple of
    ``block``), finds the integer vector ``(dy, dx)`` within
    ``search_range`` minimising the sum of absolute differences to the
    displaced tile of ``reference``; both frames are truncated to
    integers first.  Displaced tiles must lie inside the frame.  Ties go
    to the smallest ``(|dy| + |dx|, dy, dx)``, so the search is
    deterministic.

    Returns the ``(rows, cols, 2)`` int64 vector field.
    """
    if search_range < 0:
        raise ValueError("search_range must be >= 0")
    if current.shape != reference.shape:
        raise ValueError("current and reference frames differ in shape")
    height, width = current.shape
    if height % block or width % block:
        raise ValueError("frame shape must be a multiple of the block size")
    r = search_range
    cur = current.astype(np.int64)
    padded = np.pad(reference.astype(np.int64), r)
    tops = np.arange(0, height, block)
    lefts = np.arange(0, width, block)
    candidates = np.array(_candidates(r), dtype=np.int64)
    sads = np.empty((len(candidates), len(tops), len(lefts)), dtype=np.int64)
    for k, (dy, dx) in enumerate(candidates.tolist()):
        shifted = padded[r + dy: r + dy + height, r + dx: r + dx + width]
        difference = np.abs(cur - shifted)
        sads[k] = np.add.reduceat(
            np.add.reduceat(difference, tops, axis=0), lefts, axis=1
        )
    # A displaced tile must lie inside the frame; the others get a SAD
    # no in-frame candidate reaches.
    dys = candidates[:, 0, None]
    dxs = candidates[:, 1, None]
    row_ok = (tops + dys >= 0) & (tops + dys + block <= height)
    col_ok = (lefts + dxs >= 0) & (lefts + dxs + block <= width)
    inside = row_ok[:, :, None] & col_ok[:, None, :]
    sads[~inside] = np.iinfo(np.int64).max
    return candidates[sads.argmin(axis=0)]


def motion_compensate(
    reference: np.ndarray,
    motion: np.ndarray,
    block: int = BLOCK,
) -> np.ndarray:
    """Build the motion-compensated prediction frame.

    ``motion`` has shape ``(rows, cols, 2)`` holding ``(dy, dx)`` per
    block of the padded frame grid.
    """
    rows, cols, _ = motion.shape
    height, width = rows * block, cols * block
    if reference.shape != (height, width):
        raise ValueError("reference shape does not match the motion grid")
    predicted = np.zeros_like(reference)
    for r, vectors in enumerate(motion.tolist()):
        for c, (dy, dx) in enumerate(vectors):
            y, x = r * block + int(dy), c * block + int(dx)
            predicted[
                r * block: (r + 1) * block, c * block: (c + 1) * block
            ] = reference[y: y + block, x: x + block]
    return predicted
