"""MTTF / availability campaign tests.

The dependability triple must be a pure function of (seed, config) —
independent of parallelism — and every cycle must go through the full
oracle suite, so a broken countermeasure fails its cycles via the
``recovery`` oracle.  Small cycle budgets keep these in tier-1.
"""

import json

import pytest

from repro.campaign.mttf import MttfConfig, MttfResult, run_mttf_campaign
from repro.campaign.report import (
    MTTF_SCHEMA_ID,
    build_mttf_report,
    render_mttf_report,
    validate_mttf_report,
)
from repro.recovery import RecoverySpec

#: A configuration small enough for tier-1 but large enough to converge.
FAST = dict(seed=11, max_cycles=16, min_cycles=6, window=4, rel_tol=0.2)


def _run(**overrides):
    config = dict(FAST)
    config.update(overrides)
    return run_mttf_campaign(MttfConfig(**config))


class TestPinned:
    def test_triple_is_pinned(self, solve_counter):
        """The dependability triple is part of the results contract;
        every cycle reuses the sizing its scenario was generated with."""
        result = run_mttf_campaign(MttfConfig(
            seed=11, max_cycles=8, min_cycles=4, window=4, jobs=1))
        assert len(result.cycles) == 5
        assert result.mttf_ms == 643.8947944428529
        assert result.mttr_ms == 50.08888276401329
        assert result.availability == 0.9278241197752515
        assert solve_counter.elsewhere == 0
        # Two batches of four generated cycles, one solve each.
        assert solve_counter.generating == 8


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MttfConfig(max_cycles=0)
        with pytest.raises(ValueError):
            MttfConfig(min_cycles=0)
        with pytest.raises(ValueError):
            MttfConfig(window=0)
        with pytest.raises(ValueError):
            MttfConfig(rel_tol=0.0)


class TestCampaign:
    def test_converges_on_the_seeded_matrix(self):
        result = _run()
        assert result.cycles
        assert result.ok, result.summary()["failures"]
        assert result.converged
        assert len(result.cycles) < FAST["max_cycles"]
        assert result.mttf_ms and result.mttf_ms > 0
        assert result.mttr_ms and result.mttr_ms > 0
        assert 0.0 < result.availability < 1.0

    def test_every_cycle_is_faulted_and_recovered(self):
        result = _run()
        for cycle in result.cycles:
            assert cycle.outcome.scenario.fault is not None
            assert cycle.outcome.scenario.recovery == RecoverySpec()
            assert cycle.ttf_ms is not None and cycle.ttf_ms > 0
            assert cycle.mttr_ms is not None and cycle.mttr_ms > 0

    def test_deterministic(self):
        assert _run().summary() == _run().summary()

    def test_result_is_jobs_independent(self):
        # The convergence batch size is fixed by the window, not the
        # worker count, so parallelism cannot move the stopping cycle.
        assert _run(jobs=1).summary() == _run(jobs=2).summary()

    def test_availability_trace_matches_running_estimate(self):
        result = _run()
        assert len(result.availability_trace) == len(result.cycles)
        # Recompute the final estimate from the raw cycle metrics.
        ttf = [c.ttf_ms for c in result.cycles]
        mttr = [c.mttr_ms for c in result.cycles]
        mttf_ms = sum(ttf) / len(ttf)
        mttr_ms = sum(mttr) / len(mttr)
        expected = mttf_ms / (mttf_ms + mttr_ms)
        assert result.availability_trace[-1] == pytest.approx(expected)

    def test_cycle_budget_stops_an_unconverged_campaign(self):
        result = _run(max_cycles=3, min_cycles=3, window=4)
        assert len(result.cycles) == 3
        assert not result.converged

    def test_broken_countermeasure_fails_every_cycle(self):
        result = _run(
            max_cycles=4, min_cycles=4, window=4,
            recovery=RecoverySpec(reprime=False),
        )
        assert not result.ok
        assert len(result.failures) == len(result.cycles) == 4
        for cycle in result.failures:
            assert any(v.oracle == "recovery"
                       for v in cycle.outcome.violations)


class TestReport:
    def test_build_validate_render(self):
        result = _run()
        report = build_mttf_report(result)
        validate_mttf_report(report)
        assert report["schema"] == MTTF_SCHEMA_ID
        assert report["mttf"]["cycles"] == len(result.cycles)
        assert report["mttf"]["availability"] == result.availability
        rendered = render_mttf_report(report)
        assert "availability" in rendered
        assert "MTTF" in rendered

    def test_report_survives_json(self):
        report = build_mttf_report(_run())
        validate_mttf_report(json.loads(json.dumps(report)))

    def test_broken_campaign_report_lists_failures(self):
        result = _run(max_cycles=4, min_cycles=4, window=4,
                      recovery=RecoverySpec(reprime=False))
        report = build_mttf_report(result)
        validate_mttf_report(report)
        assert report["mttf"]["ok"] is False
        rendered = render_mttf_report(report)
        assert "recovery" in rendered


class TestLedger:
    def test_mttf_records_and_status(self, tmp_path):
        from repro.obs.ledger import LedgerWriter, build_status, read_ledger
        from repro.obs.live import render_top

        path = tmp_path / "mttf.ledger"
        with LedgerWriter(path) as ledger:
            config = MttfConfig(ledger=ledger, **FAST)
            result = run_mttf_campaign(config)
        replay = read_ledger(path)
        assert replay.ok, replay.warnings

        starts = replay.by_type("mttf-start")
        cycles = replay.by_type("mttf-cycle")
        ends = replay.by_type("mttf-end")
        assert len(starts) == 1 and len(ends) == 1
        assert len(cycles) == len(result.cycles)
        assert starts[0]["seed"] == FAST["seed"]
        assert ends[0]["availability"] == result.availability
        assert ends[0]["converged"] == result.converged

        status = build_status(replay)
        assert status["complete"]
        assert status["mttf"]["cycles"] == len(result.cycles)
        assert status["mttf"]["availability"] == result.availability
        top = render_top(status)
        assert "mttf" in top
        assert "availability" in top
