"""Tests for service curves and GPC analysis."""

import math

import pytest

from repro.rtc.pjd import PJD
from repro.rtc.service import (
    RateLatencyServiceCurve,
    backlog_bound,
    delay_bound,
    gpc_transform,
    horizontal_deviation,
    vertical_deviation,
)


class TestRateLatencyCurve:
    def test_shape(self):
        beta = RateLatencyServiceCurve(rate=0.5, latency=4.0)
        assert beta(0.0) == 0.0
        assert beta(4.0) == 0.0
        assert beta(6.0) == pytest.approx(1.0)
        assert beta(24.0) == pytest.approx(10.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RateLatencyServiceCurve(rate=0.0)
        with pytest.raises(ValueError):
            RateLatencyServiceCurve(rate=1.0, latency=-1.0)

    def test_long_run_rate(self):
        assert RateLatencyServiceCurve(0.25).long_run_rate() == 0.25


class TestDeviations:
    def test_delay_periodic_stream_fast_server(self):
        # One token per 10 ms, server does one per 5 ms after 2 ms stall:
        # delay <= latency + one service quantum.
        alpha = PJD(10.0, 0.0, 10.0)
        beta = RateLatencyServiceCurve(rate=0.2, latency=2.0)
        delay = delay_bound(alpha.upper(), beta)
        assert 0 < delay <= 2.0 + 5.0 + 1e-6

    def test_delay_grows_with_jitter(self):
        beta = RateLatencyServiceCurve(rate=0.15, latency=1.0)
        smooth = delay_bound(PJD(10.0, 0.0, 10.0).upper(), beta)
        bursty = delay_bound(PJD(10.0, 20.0, 2.0).upper(), beta)
        assert bursty > smooth

    def test_delay_infinite_when_overloaded(self):
        alpha = PJD(5.0).upper()  # 0.2 tokens/ms
        beta = RateLatencyServiceCurve(rate=0.1)
        assert math.isinf(delay_bound(alpha, beta))

    def test_backlog_bound_tokens(self):
        alpha = PJD(10.0, 20.0, 2.0)
        beta = RateLatencyServiceCurve(rate=0.15, latency=1.0)
        backlog = backlog_bound(alpha.upper(), beta)
        assert backlog >= 1
        # Vertical deviation is the fractional version.
        assert backlog >= vertical_deviation(alpha.upper(), beta) - 1

    def test_backlog_overload_sentinel(self):
        alpha = PJD(5.0).upper()
        beta = RateLatencyServiceCurve(rate=0.1)
        assert backlog_bound(alpha, beta) == -1

    @pytest.mark.parametrize("model, rate, latency, expected", [
        (PJD(10.0, 25.0, 0.0), 0.1, 3.0, 38.0),
        (PJD(2.0, 5.0, 0.0), 0.5, 3.0, 10.0),
    ])
    def test_delay_bound_sees_jumps_of_long_periods(self, model, rate,
                                                    latency, expected):
        # The delay is worst just after an upper-curve jump (here at
        # k*p - j); the probe there must step past the curve's EPS
        # tolerance, or jumps of periods >= 1 are missed.
        beta = RateLatencyServiceCurve(rate, latency)
        assert delay_bound(model.upper(), beta) == pytest.approx(
            expected, abs=1e-6)

    @pytest.mark.parametrize("model, rate, latency", [
        (PJD(10.0, 25.0, 0.0), 0.1, 3.0),
        (PJD(2.0, 5.0, 0.0), 0.5, 3.0),
        (PJD(10.0, 20.0, 2.0), 0.15, 1.0),
        (PJD(7.0, 3.0, 7.0), 0.2, 2.5),
    ])
    def test_delay_bound_covers_dense_sweep(self, model, rate, latency):
        # h(alpha_u, beta) against a dense sweep of t: the demand
        # alpha_u(t) is served by latency + demand / rate.
        upper = model.upper()
        sweep = max(
            latency + upper(t) / rate - t
            for t in (i * 0.01 for i in range(1, 20001))
        )
        beta = RateLatencyServiceCurve(rate, latency)
        assert delay_bound(upper, beta) >= sweep - 1e-6

    def test_horizontal_deviation_zero_for_instant_server(self):
        alpha = PJD(10.0, 0.0, 10.0)
        beta = RateLatencyServiceCurve(rate=100.0, latency=0.0)
        assert horizontal_deviation(alpha.upper(), beta) < 0.1


class TestGpcTransform:
    def test_output_curves_sane(self):
        alpha = PJD(10.0, 4.0, 10.0)
        beta = RateLatencyServiceCurve(rate=0.2, latency=2.0)
        out_u, out_l, remaining = gpc_transform(
            alpha.upper(), alpha.lower(), beta
        )
        for delta in [5.0, 15.0, 35.0, 95.0]:
            # The output never guarantees more than the input promised...
            assert out_l(delta) <= alpha.lower()(delta) + 1e-9
            # ...nor bursts less than the input could have.
            assert out_u(delta) >= alpha.upper()(delta) - 1e-9

    def test_remaining_service_nonnegative_and_reduced(self):
        alpha = PJD(10.0, 0.0, 10.0)
        beta = RateLatencyServiceCurve(rate=0.3, latency=0.0)
        _, _, remaining = gpc_transform(alpha.upper(), alpha.lower(), beta)
        for delta in [10.0, 30.0, 100.0]:
            assert 0.0 <= remaining(delta) <= beta(delta) + 1e-9
        assert remaining.long_run_rate() == pytest.approx(0.2)

    def test_chain_two_components(self):
        """Propagate through two GPCs — internal-FIFO sizing workflow."""
        alpha = PJD(10.0, 2.0, 10.0)
        beta1 = RateLatencyServiceCurve(rate=0.25, latency=1.0)
        beta2 = RateLatencyServiceCurve(rate=0.2, latency=2.0)
        u1, l1, _ = gpc_transform(alpha.upper(), alpha.lower(), beta1)
        backlog2 = backlog_bound(u1, beta2)
        assert backlog2 >= 1
        u2, l2, _ = gpc_transform(u1, l1, beta2)
        assert u2.long_run_rate() == pytest.approx(0.1)
