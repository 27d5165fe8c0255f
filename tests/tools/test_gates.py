"""Tests for the paired performance gates."""

import math

import pytest

import repro.tools.gates as gates
from repro.tools.gates import (
    OBS_OVERHEAD_PCT,
    SWEEP_GAIN_MIN,
    main,
    obs_overhead_check,
    sweep_gain_check,
)


class TestObsOverhead:
    """The interleaved streaming-overhead budget."""

    def test_within_budget_passes(self):
        assert obs_overhead_check(4.0) is None
        assert obs_overhead_check(OBS_OVERHEAD_PCT) is None

    def test_breach_is_flagged(self):
        line = obs_overhead_check(20.0)
        assert line is not None
        assert "streaming overhead" in line
        assert "+20.0 %" in line

    def test_measurement_machinery_runs(self):
        """The interleaved measurement produces a finite percentage.

        The binding < 5 % assertion lives in ``main`` (the CI
        paired-gates job), where the full-round measurement runs on an
        otherwise idle host; asserting a live timing budget inside the
        unit suite would flake under suite-induced load.
        """
        overhead = gates.measure_obs_overhead(rounds=2)
        assert isinstance(overhead, float)
        assert math.isfinite(overhead)


class TestSweepGain:
    """The multi-batch sweep dedup gain floor."""

    def test_below_floor_fails(self):
        line = sweep_gain_check(1.2)
        assert line is not None
        assert "1.20x" in line
        assert f"{SWEEP_GAIN_MIN:.2f}x floor" in line

    def test_at_or_above_floor_passes(self):
        assert sweep_gain_check(SWEEP_GAIN_MIN) is None
        assert sweep_gain_check(2.4) is None

    def test_matrix_is_half_duplicates(self):
        specs = gates.sweep_gain_specs()
        assert len(specs) == 12
        assert len({spec.digest() for spec in specs}) == 6


class TestMain:
    def _pin(self, monkeypatch, overhead, gain):
        monkeypatch.setattr(gates, "measure_obs_overhead", lambda: overhead)
        monkeypatch.setattr(gates, "measure_sweep_gain", lambda: gain)

    def test_within_bounds_exits_zero(self, monkeypatch, capsys):
        self._pin(monkeypatch, overhead=1.0, gain=2.0)
        assert main() == 0
        out = capsys.readouterr().out
        assert "streaming obs overhead (interleaved): +1.0 %" in out
        assert "multi-batch sweep gain (interleaved): 2.00x" in out

    @pytest.mark.parametrize("overhead, gain, breached", [
        (OBS_OVERHEAD_PCT + 1.0, 2.0, "streaming overhead"),
        (1.0, SWEEP_GAIN_MIN - 0.1, "multi-batch sweep gain"),
    ], ids=["obs-overhead", "sweep-gain"])
    def test_any_breach_exits_one(self, monkeypatch, capsys,
                                  overhead, gain, breached):
        self._pin(monkeypatch, overhead, gain)
        assert main() == 1
        err = capsys.readouterr().err
        assert err.count("FAIL:") == 1
        assert breached in err
