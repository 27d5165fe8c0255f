"""Service curves and the greedy-processing-component (GPC) analysis.

Section 3.3 of the paper *assumes* "the reference process network has
been designed correctly, i.e., all FIFO queues have been sized
appropriately" — the design-stage analysis that produces that guarantee
is classic Real-Time Calculus (the paper's reference [1]).  This module
supplies it, so the library covers the whole design flow:

* :class:`RateLatencyServiceCurve` — the standard ``beta(t) = rate *
  max(0, t - latency)`` resource model (a CPU share, a TDMA slot, a
  dedicated core);
* :func:`gpc_transform` — processing a stream bounded by ``[alpha_u,
  alpha_l]`` on a component guaranteeing ``beta``: returns the output
  arrival curves and the remaining service;
* :func:`horizontal_deviation` / :func:`vertical_deviation` — the delay
  and backlog bounds ``h(alpha_u, beta)`` and ``v(alpha_u, beta)``;
* :func:`delay_bound` / :func:`backlog_bound` — convenience wrappers.

Together with :mod:`repro.rtc.sizing` this allows sizing *internal*
FIFOs of a critical subnetwork (e.g. the MJPEG split→decode→merge
queues), not just the replicator/selector interfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.rtc.curves import (
    EPS,
    NUDGE,
    Curve,
    DerivedCurve,
    PiecewiseConstantCurve,
    supremum_difference,
)
from repro.rtc.minplus import min_plus_deconvolution


@dataclass(frozen=True)
class RateLatencyServiceCurve(Curve):
    """``beta(t) = rate * max(0, t - latency)``.

    ``rate`` is in tokens per ms, ``latency`` in ms.  This is the lower
    service bound of a component that, once backlogged, serves at least
    ``rate`` after an initial stall of at most ``latency``.
    """

    rate: float
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("service rate must be positive")
        if self.latency < 0:
            raise ValueError("service latency must be >= 0")

    def value(self, delta: float) -> float:
        return self.rate * max(0.0, delta - self.latency)

    def breakpoints(self, horizon: float) -> List[float]:
        # Piecewise linear: the only kink is at the latency.  For the
        # solvers (which compare against staircases) also expose a grid
        # at token granularity so crossings are localised.
        points = [0.0]
        if 0 < self.latency <= horizon:
            points.append(self.latency)
        step = 1.0 / self.rate
        position = self.latency + step
        while position <= horizon + EPS:
            points.append(position)
            position += step
        return points

    def long_run_rate(self) -> float:
        return self.rate

    def __repr__(self) -> str:
        return f"beta(rate={self.rate:g}, latency={self.latency:g})"


def horizontal_deviation(upper: Curve, service: Curve,
                         horizon: Optional[float] = None) -> float:
    """``h(alpha_u, beta)`` — the worst-case delay through the component.

    The maximum horizontal distance: ``sup_t inf { d >= 0 |
    alpha_u(t) <= beta(t + d) }``.
    """
    if horizon is None:
        horizon = max(upper.suggested_horizon(),
                      service.suggested_horizon())
    if upper.long_run_rate() > service.long_run_rate() + EPS:
        return math.inf
    worst = 0.0
    points = sorted(set(upper.breakpoints(horizon)) | {horizon})
    for t in points:
        # Probe just after the jump; an offset within EPS would be
        # swallowed by the staircase's evaluation tolerance.
        demand = upper.value(t + NUDGE)
        if demand <= 0:
            continue
        # Find the earliest time the service curve reaches the demand.
        d = _service_crossing(service, demand, horizon * 2 + t) - t
        worst = max(worst, d)
    return max(worst, 0.0)


def _service_crossing(service: Curve, level: float, horizon: float) -> float:
    """``inf { t | service(t) >= level }`` for a wide-sense increasing
    curve (bisection; service curves are continuous)."""
    low, high = 0.0, horizon
    if service.value(high) < level - EPS:
        return math.inf
    for _ in range(80):
        mid = (low + high) / 2.0
        if service.value(mid) >= level - EPS:
            high = mid
        else:
            low = mid
    return high


def vertical_deviation(upper: Curve, service: Curve,
                       horizon: Optional[float] = None) -> float:
    """``v(alpha_u, beta)`` — the worst-case backlog in the component."""
    return supremum_difference(upper, service, horizon,
                               require_bounded=False)


def delay_bound(upper: Curve, service: Curve,
                horizon: Optional[float] = None) -> float:
    """Worst-case token delay through a GPC (alias of ``h``)."""
    return horizontal_deviation(upper, service, horizon)


def backlog_bound(upper: Curve, service: Curve,
                  horizon: Optional[float] = None) -> int:
    """Worst-case queue occupancy in front of a GPC, in whole tokens."""
    backlog = vertical_deviation(upper, service, horizon)
    if math.isinf(backlog):
        return -1
    return max(int(math.ceil(backlog - EPS)), 0)


def gpc_transform(
    upper: Curve,
    lower: Curve,
    service: Curve,
    horizon: Optional[float] = None,
) -> Tuple[Curve, Curve, Curve]:
    """Process a stream on a greedy component with service ``beta``.

    Returns ``(alpha_u', alpha_l', beta')``:

    * the output upper curve ``alpha_u' = alpha_u (/) beta`` (min-plus
      deconvolution — the standard output bound);
    * the output lower curve ``alpha_l' = min(alpha_l, beta)`` (the
      component forwards at least the guaranteed service applied to the
      guaranteed input, conservatively bounded);
    * the remaining service ``beta'(t) = max(beta(t) - alpha_u(t), 0)``
      available to lower-priority streams.
    """
    if horizon is None:
        horizon = max(upper.suggested_horizon(),
                      service.suggested_horizon())
    out_upper = min_plus_deconvolution(upper, service, horizon)
    out_lower = lower.min_with(service)
    remaining = DerivedCurve(
        lambda d: max(service.value(d) - upper.value(d), 0.0),
        children=(service, upper),
        rate=max(service.long_run_rate() - upper.long_run_rate(), 0.0),
        label=f"({service!r} - {upper!r})+",
    )
    return out_upper, out_lower, remaining
