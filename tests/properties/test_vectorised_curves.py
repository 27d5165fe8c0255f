"""The array solvers against scalar reference implementations.

The RTC solvers evaluate curves through ``Curve.values`` over numpy
candidate arrays, and the PJD curves build their breakpoints with
``np.arange``.  The references below are the scalar formulations those
replaced — per-point ``value`` loops and ``while``-loop breakpoint
enumeration — kept here, and only here, to pin the array path to them
bit for bit.  Models cover the regimes where tolerance handling matters:
jitters below ``EPS`` (the sub-epsilon guard in the PJD closed forms),
``min_distance > 0`` (the burst cap) and windows at breakpoints
``+- NUDGE``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.rtc.curves import (
    EPS,
    NUDGE,
    CurveError,
    DerivedCurve,
    infimum_crossing,
    supremum_difference,
)
from repro.rtc.pjd import PJD

from .strategies import pjd_models


def _ceil(value):
    return int(math.ceil(value - EPS))


def _with_jitter(model, fraction):
    """``model`` with its jitter replaced by ``fraction * period``."""
    return PJD(model.period, fraction * model.period, model.min_distance)


#: Jitters, as fractions of the period, below ``EPS`` (where only the
#: PJD curves' ``jitter > 0`` guards see them) and between ``EPS`` and
#: ``NUDGE / 2`` (where the supremum lies strictly between breakpoints
#: closer together than the nudge, found only by the gap midpoints).
tiny_jitters = st.one_of(
    st.floats(min_value=1e-3 * EPS, max_value=EPS),
    st.floats(min_value=2 * EPS, max_value=10 * EPS),
)


def models_with_period(period=None):
    """PJD models of ``period`` (any, if ``None``), a share of them with
    a tiny jitter."""
    return st.one_of(
        pjd_models(period=period),
        st.builds(_with_jitter, pjd_models(period=period), tiny_jitters),
    )


models = models_with_period()


@st.composite
def model_pairs(draw):
    """``(a, b)`` with a shared period (bounded suprema) or, sometimes,
    independent periods (exercising the rate check)."""
    a = draw(models)
    if draw(st.booleans()) or draw(st.booleans()):
        b = draw(models_with_period(a.period))
    else:
        b = draw(models)
    return a, b


horizons = st.floats(min_value=0.0, max_value=400.0,
                     allow_nan=False, allow_infinity=False)


# -- scalar references ---------------------------------------------------

def reference_upper_breakpoints(model, horizon):
    points = {0.0}
    k = max(1, _ceil(model.jitter / model.period))
    while True:
        point = k * model.period - model.jitter
        if point > horizon + EPS:
            break
        if point > 0:
            points.add(point)
        k += 1
    if model.min_distance > 0:
        k = 1
        while True:
            point = k * model.min_distance
            if point > horizon + EPS:
                break
            points.add(point)
            k += 1
    points.add(NUDGE)
    return sorted(points)


def reference_lower_breakpoints(model, horizon):
    points = {0.0}
    k = 1
    while True:
        point = k * model.period + model.jitter
        if point > horizon + EPS:
            break
        points.add(point)
        k += 1
    return sorted(points)


def reference_candidate_points(upper, lower, horizon):
    merged = set()
    for point in upper.breakpoints(horizon):
        merged.add(point)
        merged.add(point + NUDGE)
    for point in lower.breakpoints(horizon):
        merged.add(max(point - NUDGE, 0.0))
        merged.add(point)
    merged.add(0.0)
    merged.add(horizon)
    ordered = sorted(p for p in merged if -EPS <= p <= horizon + EPS)
    with_midpoints = list(ordered)
    for left, right in zip(ordered, ordered[1:]):
        with_midpoints.append((left + right) / 2.0)
    return sorted(with_midpoints)


def reference_supremum(upper, lower, horizon=None, require_bounded=True,
                       rate_tolerance=1e-3):
    rate_upper = upper.long_run_rate()
    rate_lower = lower.long_run_rate()
    rate_slack = max(abs(rate_lower), EPS) * rate_tolerance
    if rate_upper > rate_lower + rate_slack + EPS:
        if require_bounded:
            raise CurveError("unbounded")
        return math.inf
    if horizon is None:
        horizon = max(upper.suggested_horizon(), lower.suggested_horizon())
    best = 0.0
    for point in reference_candidate_points(upper, lower, horizon):
        difference = upper.value(point) - lower.value(point)
        if difference > best:
            best = difference
    return best


def reference_infimum(curve, level, horizon=None):
    if level <= 0:
        return 0.0
    auto_horizon = horizon is None
    if auto_horizon:
        rate = curve.long_run_rate()
        if rate > 0 and not math.isinf(rate):
            horizon = max(curve.suggested_horizon(), 2.0 * level / rate)
        else:
            horizon = curve.suggested_horizon()
    for _ in range(8 if auto_horizon else 1):
        points = set(curve.breakpoints(horizon))
        points.add(horizon)
        for point in sorted(points):
            if curve.value(point) >= level - EPS:
                return point
        if curve.long_run_rate() <= EPS:
            return math.inf
        horizon *= 2.0
    raise CurveError("no crossing")


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _probe_windows(model, horizon):
    """Breakpoints of both curves, each also ``+- NUDGE`` and ``+- EPS``,
    plus zero and the sub-EPS band."""
    points = np.array(model.upper().breakpoints(horizon)
                      + model.lower().breakpoints(horizon))
    return np.concatenate((
        points,
        points + NUDGE,
        points - NUDGE,
        points + EPS,
        points - EPS,
        [0.0, EPS / 2, EPS, 2 * EPS, horizon],
    ))


# -- properties ----------------------------------------------------------

@given(models, horizons)
def test_pjd_values_equal_scalar_value_bitwise(model, horizon):
    deltas = _probe_windows(model, horizon)
    for curve in model.curves():
        scalar = [curve.value(delta) for delta in deltas.tolist()]
        assert _bits(curve.values(deltas)) == _bits(scalar)


@given(models, horizons)
# A breakpoint exactly at ``horizon + EPS`` is kept (the bound is ``<=``).
@example(model=PJD(10.0, 0.0, 5.0), horizon=30.0 - EPS)
def test_pjd_breakpoints_equal_while_loop_enumeration(model, horizon):
    upper = model.upper().breakpoints(horizon)
    lower = model.lower().breakpoints(horizon)
    assert isinstance(upper, list) and isinstance(lower, list)
    assert _bits(upper) == _bits(reference_upper_breakpoints(model,
                                                             horizon))
    assert _bits(lower) == _bits(reference_lower_breakpoints(model,
                                                             horizon))


@given(model_pairs(), st.one_of(st.none(), horizons))
@example(pair=(PJD(10.0, 2e-7), PJD(10.0, 2e-7)), horizon=None)
def test_supremum_difference_equals_scalar_scan(pair, horizon):
    a, b = pair
    try:
        expected = reference_supremum(a.upper(), b.lower(), horizon)
    except CurveError:
        with pytest.raises(CurveError):
            supremum_difference(a.upper(), b.lower(), horizon)
        return
    actual = supremum_difference(a.upper(), b.lower(), horizon)
    assert _bits([actual]) == _bits([expected])


@given(model_pairs(), horizons)
def test_unbounded_supremum_matches_scalar_scan(pair, horizon):
    a, b = pair
    expected = reference_supremum(a.upper(), b.lower(), horizon,
                                  require_bounded=False)
    actual = supremum_difference(a.upper(), b.lower(), horizon,
                                 require_bounded=False)
    assert _bits([actual]) == _bits([expected])


@given(models, st.sampled_from([0, 0.5, 1, 2, 3, 5, 9]),
       st.one_of(st.none(), horizons))
def test_infimum_crossing_equals_scalar_scan(model, level, horizon):
    for curve in model.curves():
        try:
            expected = reference_infimum(curve, level, horizon)
        except CurveError:
            with pytest.raises(CurveError):
                infimum_crossing(curve, level, horizon)
            continue
        actual = infimum_crossing(curve, level, horizon)
        assert _bits([actual]) == _bits([expected])


@given(model_pairs(), st.sampled_from([1, 2, 3, 5]))
def test_default_values_path_matches_scalar_scan(pair, level):
    """Curves without an array override (here a ``DerivedCurve``) run
    through the base ``Curve.values`` map and agree with the scalar
    references as well."""
    a, b = pair
    difference = DerivedCurve(
        lambda d: max(b.lower().value(d) - a.upper().value(d) / 2.0, 0.0),
        children=(b.lower(), a.upper()),
        rate=max(b.rate - a.rate / 2.0, 0.0),
    )
    horizon = 100.0
    deltas = _probe_windows(b, horizon)
    scalar = [difference.value(delta) for delta in deltas.tolist()]
    assert _bits(difference.values(deltas)) == _bits(scalar)
    assert _bits([supremum_difference(a.upper(), difference, horizon,
                                      require_bounded=False)]) == _bits(
        [reference_supremum(a.upper(), difference, horizon,
                            require_bounded=False)])
    try:
        expected = reference_infimum(difference, level, horizon)
    except CurveError:
        with pytest.raises(CurveError):
            infimum_crossing(difference, level, horizon)
        return
    assert _bits([infimum_crossing(difference, level, horizon)]) == _bits(
        [expected])
