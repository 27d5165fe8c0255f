"""Tests for Eqs. 3-8 (Section 3.4) against the paper's published numbers."""

import math

import pytest

from repro.rtc.curves import CurveError, ZeroCurve
from repro.rtc.pjd import PJD
from repro.rtc.sizing import (
    detection_latency_bound,
    detection_latency_bound_fail_stop,
    divergence_threshold,
    fifo_capacity,
    initial_fill,
    replicator_blocking_bound,
    size_duplicated_network,
)

MJPEG_PRODUCER = PJD(30.0, 2.0, 30.0)
MJPEG_R1 = PJD(30.0, 5.0, 30.0)
MJPEG_R2 = PJD(30.0, 30.0, 30.0)
MJPEG_CONSUMER = PJD(30.0, 2.0, 30.0)


@pytest.fixture
def mjpeg_sizing():
    return size_duplicated_network(
        MJPEG_PRODUCER,
        [MJPEG_R1, MJPEG_R2],
        [MJPEG_R1, MJPEG_R2],
        MJPEG_CONSUMER,
    )


class TestFifoCapacity:
    def test_identical_models_capacity_one(self):
        model = PJD(10.0, 0.0, 10.0)
        assert fifo_capacity(model.upper(), model.lower()) == 1

    def test_paper_mjpeg_replicator_capacities(self, mjpeg_sizing):
        # Table 2 (MJPEG): |R1| = 2, |R2| = 3.
        assert mjpeg_sizing.replicator_capacities == (2, 3)

    def test_capacity_grows_with_consumer_jitter(self):
        producer = PJD(10.0, 1.0, 10.0).upper()
        tight = fifo_capacity(producer, PJD(10.0, 1.0, 10.0).lower())
        loose = fifo_capacity(producer, PJD(10.0, 9.0, 10.0).lower())
        assert loose >= tight

    def test_rate_mismatch_raises(self):
        with pytest.raises(CurveError):
            fifo_capacity(PJD(5.0).upper(), PJD(10.0).lower())


class TestInitialFill:
    def test_paper_mjpeg_initial_fills(self, mjpeg_sizing):
        # Table 2 (MJPEG): |S1|_0 = 2, |S2|_0 = 3.
        assert mjpeg_sizing.selector_initial_fill == (2, 3)

    def test_priming_is_max(self, mjpeg_sizing):
        assert mjpeg_sizing.selector_priming == 3

    def test_zero_jitter_minimal_fill(self):
        model = PJD(10.0, 0.0, 10.0)
        fill = initial_fill(model.upper(), model.lower())
        assert fill == 1


class TestDivergenceThreshold:
    def test_needs_two_replicas(self):
        curve = PJD(10.0).upper()
        with pytest.raises(ValueError):
            divergence_threshold([curve], [PJD(10.0).lower()])

    def test_mismatched_lists(self):
        with pytest.raises(ValueError):
            divergence_threshold(
                [PJD(10.0).upper()],
                [PJD(10.0).lower(), PJD(10.0).lower()],
            )

    def test_strictly_above_supremum(self):
        uppers = [MJPEG_R1.upper(), MJPEG_R2.upper()]
        lowers = [MJPEG_R1.lower(), MJPEG_R2.lower()]
        threshold = divergence_threshold(uppers, lowers)
        # sup over pairs is 3 for these models; D must strictly exceed it.
        assert threshold == 4

    def test_symmetric_models_small_threshold(self):
        model = PJD(10.0, 0.0, 10.0)
        threshold = divergence_threshold(
            [model.upper()] * 2, [model.lower()] * 2
        )
        assert threshold == 2  # sup = 1, strict


class TestDetectionBounds:
    def test_fail_stop_matches_paper_structure(self):
        # With D = 3 and R2's lower curve the paper computes 180 ms.
        bound = detection_latency_bound_fail_stop(
            [MJPEG_R1.lower(), MJPEG_R2.lower()], threshold=3
        )
        assert bound == pytest.approx(180.0)

    def test_threshold_one_minimum(self):
        bound = detection_latency_bound_fail_stop(
            [PJD(10.0).lower()], threshold=1
        )
        assert bound == pytest.approx(10.0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            detection_latency_bound_fail_stop([PJD(10.0).lower()], 0)

    def test_limping_replica_takes_longer(self):
        healthy = PJD(10.0).lower()
        fail_stop = detection_latency_bound(healthy, threshold=2)
        limping = detection_latency_bound(
            healthy, threshold=2, faulty_upper=PJD(40.0).upper()
        )
        assert limping >= fail_stop

    def test_zero_curve_equals_fail_stop(self):
        healthy = PJD(10.0).lower()
        a = detection_latency_bound(healthy, 2, faulty_upper=ZeroCurve())
        b = detection_latency_bound(healthy, 2)
        assert a == b

    def test_blocking_bound(self):
        producer = PJD(30.0, 2.0, 30.0).lower()
        # capacity 3 -> 4 producer tokens at the slowest rate.
        bound = replicator_blocking_bound(producer, 3)
        assert bound == pytest.approx(4 * 30.0 + 2.0)

    def test_blocking_bound_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            replicator_blocking_bound(PJD(10.0).lower(), 0)


class TestSizeDuplicatedNetwork:
    def test_paper_mjpeg_full(self, mjpeg_sizing):
        got = mjpeg_sizing.as_dict()
        assert got["|R1|"] == 2
        assert got["|R2|"] == 3
        assert got["|S1|_0"] == 2
        assert got["|S2|_0"] == 3
        # |S2| = priming + backlog = 3 + 3 = 6 matches the paper; |S1|
        # differs by the documented common-priming correction (5 vs 4).
        assert got["|S2|"] == 6
        assert got["|S1|"] == 5
        # Table renderers rely on the key order.
        assert list(got) == [
            "|R1|", "|R2|", "|S1|", "|S2|", "|S1|_0", "|S2|_0",
            "D_selector", "D_replicator", "selector_bound_ms",
            "replicator_bound_ms",
        ]

    def test_selector_fifo_is_max(self, mjpeg_sizing):
        assert mjpeg_sizing.selector_fifo_size == 6

    def test_bounds_positive_and_finite(self, mjpeg_sizing):
        assert 0 < mjpeg_sizing.selector_detection_bound < math.inf
        assert 0 < mjpeg_sizing.replicator_detection_bound < math.inf

    def test_blocking_bounds_in_details(self, mjpeg_sizing):
        assert "replicator_blocking_bound_R1" in mjpeg_sizing.details
        assert "replicator_blocking_bound_R2" in mjpeg_sizing.details
        # Occupancy detection is at least as fast as the divergence bound
        # for these models.
        assert (
            mjpeg_sizing.details["replicator_blocking_bound_R2"]
            <= mjpeg_sizing.replicator_detection_bound
        )

    def test_requires_two_replicas(self):
        with pytest.raises(ValueError):
            size_duplicated_network(
                MJPEG_PRODUCER, [MJPEG_R1], [MJPEG_R1], MJPEG_CONSUMER
            )

    def test_adpcm_sizing_sane(self):
        sizing = size_duplicated_network(
            PJD(6.3, 0.5, 6.3),
            [PJD(6.3, 1.5, 6.3), PJD(6.3, 6.3, 6.3)],
            [PJD(6.3, 1.5, 6.3), PJD(6.3, 6.3, 6.3)],
            PJD(6.3, 0.5, 6.3),
        )
        assert sizing.replicator_capacities[1] >= sizing.replicator_capacities[0]
        assert sizing.selector_detection_bound > 0
