"""Tests for motion estimation / compensation."""

from typing import Tuple

import numpy as np
import pytest

from repro.codec.blocks import BLOCK
from repro.codec.motion import motion_compensate, motion_search


def motion_estimate(
    current: np.ndarray,
    reference: np.ndarray,
    top: int,
    left: int,
    search_range: int = 4,
    block: int = BLOCK,
) -> Tuple[int, int, float]:
    """Scalar reference: full search for the one block at ``(top, left)``.

    Tries every in-frame vector within ``search_range`` and keeps the
    minimum of ``(sad, |dy| + |dx|, dy, dx)``.  :func:`motion_search`
    must pick the same vector for every block.
    """
    height, width = reference.shape
    patch = current[top: top + block, left: left + block].astype(np.int64)
    candidates = []
    for dy in range(-search_range, search_range + 1):
        for dx in range(-search_range, search_range + 1):
            y, x = top + dy, left + dx
            if y < 0 or x < 0 or y + block > height or x + block > width:
                continue
            candidate = reference[y: y + block, x: x + block].astype(np.int64)
            sad = float(np.abs(patch - candidate).sum())
            candidates.append((sad, abs(dy) + abs(dx), dy, dx))
    if not candidates:
        return (0, 0, float(np.abs(patch).sum()))
    sad, _, dy, dx = min(candidates)
    return (dy, dx, sad)


def reference_field(current, reference, search_range=4):
    """The vector field built block by block with :func:`motion_estimate`."""
    rows, cols = current.shape[0] // BLOCK, current.shape[1] // BLOCK
    field = np.zeros((rows, cols, 2), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            dy, dx, _ = motion_estimate(current, reference, r * BLOCK,
                                        c * BLOCK, search_range)
            field[r, c] = (dy, dx)
    return field


def textured(height=32, width=32, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 255, (height, width)).astype(np.float64)


def block_sad(current, reference, r, c, vector):
    dy, dx = (int(v) for v in vector)
    top, left = r * BLOCK, c * BLOCK
    patch = current[top: top + BLOCK, left: left + BLOCK]
    shifted = reference[top + dy: top + dy + BLOCK,
                        left + dx: left + dx + BLOCK]
    return float(np.abs(patch.astype(np.int64)
                        - shifted.astype(np.int64)).sum())


class TestMotionEstimate:
    """The per-block search cases, checked on the frame-wide search."""

    def test_finds_exact_translation(self):
        reference = textured()
        # Current frame: reference shifted down-right by (2, 3).
        current = np.roll(np.roll(reference, 2, axis=0), 3, axis=1)
        field = motion_search(current, reference, search_range=4)
        assert tuple(field[1, 1]) == (-2, -3)
        assert block_sad(current, reference, 1, 1, field[1, 1]) == 0.0
        assert np.array_equal(field, reference_field(current, reference))

    def test_zero_motion_on_static(self):
        reference = textured(seed=1)
        field = motion_search(reference, reference)
        assert not field.any()

    def test_prefers_smallest_vector_on_tie(self):
        flat = np.zeros((32, 32))
        field = motion_search(flat, flat, search_range=3)
        assert not field.any()

    def test_respects_frame_bounds(self):
        reference = textured()
        current = textured(seed=5)
        field = motion_search(current, reference, search_range=4)
        rows, cols, _ = field.shape
        for r in range(rows):
            for c in range(cols):
                y = r * BLOCK + field[r, c, 0]
                x = c * BLOCK + field[r, c, 1]
                # Candidates reaching outside the frame are skipped.
                assert 0 <= y <= 32 - BLOCK and 0 <= x <= 32 - BLOCK
        assert np.array_equal(field, reference_field(current, reference))


class TestMotionSearch:
    def test_matches_reference_on_textured_frames(self):
        for seed in range(3):
            current = textured(40, 48, seed)
            reference = textured(40, 48, seed + 10)
            for search_range in (0, 1, 4):
                assert np.array_equal(
                    motion_search(current, reference, search_range),
                    reference_field(current, reference, search_range),
                )

    def test_equal_length_tie_goes_to_lowest_dy(self):
        # Anti-diagonal stripes: shifting up one row or left one column
        # gives the same patch, so (-1, 0) and (0, -1) both match exactly.
        levels = np.random.default_rng(6).integers(0, 255, 70)
        y, x = np.indices((32, 32))
        reference = levels[x + y + 2].astype(np.float64)
        current = levels[x + y + 1].astype(np.float64)
        field = motion_search(current, reference, search_range=2)
        assert tuple(field[2, 2]) == (-1, 0)
        assert np.array_equal(field, reference_field(current, reference, 2))

    def test_truncates_fractional_reference(self):
        # The encoder's reference is a clipped float reconstruction;
        # both searches compare its integer parts.
        rng = np.random.default_rng(3)
        current = textured(seed=4)
        reference = np.clip(current + rng.normal(0, 2, current.shape), 0, 255)
        assert np.array_equal(motion_search(current, reference, 2),
                              reference_field(current, reference, 2))

    def test_rejects_bad_arguments(self):
        frame = np.zeros((16, 16))
        with pytest.raises(ValueError):
            motion_search(frame, frame, search_range=-1)
        with pytest.raises(ValueError):
            motion_search(frame, np.zeros((16, 24)))
        with pytest.raises(ValueError):
            motion_search(np.zeros((12, 16)), np.zeros((12, 16)))


class TestMotionCompensate:
    def test_zero_field_is_identity(self):
        reference = textured()
        motion = np.zeros((4, 4, 2), dtype=np.int64)
        assert np.array_equal(motion_compensate(reference, motion),
                              reference)

    def test_uniform_shift(self):
        reference = textured()
        motion = np.zeros((4, 4, 2), dtype=np.int64)
        motion[1, 1] = (2, 1)
        predicted = motion_compensate(reference, motion)
        block = predicted[8:16, 8:16]
        assert np.array_equal(block, reference[10:18, 9:17])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            motion_compensate(np.zeros((16, 16)),
                              np.zeros((4, 4, 2), dtype=np.int64))
