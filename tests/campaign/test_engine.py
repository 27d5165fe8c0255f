"""Campaign engine tests: verdict semantics, wiring, determinism.

Verdict logic is pinned with hand-built :class:`TaskResult` fakes (no
simulation); the end-to-end wiring tests run tiny real campaigns —
small token budgets keep them in tier-1 territory.
"""

from repro.campaign.engine import (
    VERDICT_EXPECTED,
    VERDICT_MISSED,
    VERDICT_PASS,
    VERDICT_VIOLATION,
    CampaignConfig,
    CampaignResult,
    evaluate_scenario,
    run_campaign,
    run_scenario,
)
from repro.campaign.scenario import (
    MISSIZE_CAPACITY,
    Scenario,
    SyntheticModels,
)
from repro.exec import KIND_DUPLICATED, KIND_REFERENCE
from repro.exec.results import DetectionRecord, TaskResult
from repro.rtc.pjd import PJD


def _models():
    return SyntheticModels(
        producer=PJD(10.0, 1.0, 10.0),
        replicas=(PJD(10.0, 2.0, 10.0), PJD(10.0, 8.0, 10.0)),
        consumer=PJD(10.0, 1.0, 10.0),
    )


def _sized(**kwargs):
    defaults = dict(index=0, app="synthetic", tokens=60, warmup_tokens=20,
                    seed=5, models=_models())
    defaults.update(kwargs)
    return Scenario(**defaults).sized()


def _clean(kind):
    return TaskResult(kind=kind, value_hashes=["h1", "h2", "h3"])


def _false_positive(kind):
    return TaskResult(
        kind=kind,
        value_hashes=["h1", "h2", "h3"],
        detections=[DetectionRecord(time=100.0, site="selector",
                                    replica=0, mechanism="divergence")],
    )


class TestVerdicts:
    def test_clean_scenario_passes(self):
        outcome = evaluate_scenario(
            _sized(), _clean(KIND_REFERENCE), _clean(KIND_DUPLICATED)
        )
        assert outcome.verdict == VERDICT_PASS
        assert outcome.passed

    def test_unexpected_violation(self):
        outcome = evaluate_scenario(
            _sized(), _clean(KIND_REFERENCE),
            _false_positive(KIND_DUPLICATED),
        )
        assert outcome.verdict == VERDICT_VIOLATION
        assert not outcome.passed
        assert {v.oracle for v in outcome.violations} == {
            "no-false-positive"
        }

    def test_self_test_passes_by_violating(self):
        selftest = _sized(missize=MISSIZE_CAPACITY,
                             expect_violation=True)
        outcome = evaluate_scenario(
            selftest, _clean(KIND_REFERENCE),
            _false_positive(KIND_DUPLICATED),
        )
        assert outcome.verdict == VERDICT_EXPECTED
        assert outcome.passed

    def test_self_test_that_stays_silent_fails(self):
        selftest = _sized(missize=MISSIZE_CAPACITY,
                             expect_violation=True)
        outcome = evaluate_scenario(
            selftest, _clean(KIND_REFERENCE), _clean(KIND_DUPLICATED)
        )
        assert outcome.verdict == VERDICT_MISSED
        assert not outcome.passed


class TestCampaignDigest:
    def _result(self, verdict_outcomes):
        result = CampaignResult(seed=7, budget=2, oracle_names=("run-ok",))
        result.outcomes = verdict_outcomes
        return result

    def _outcome(self, scenario, violating):
        duplicated = (_false_positive(KIND_DUPLICATED) if violating
                      else _clean(KIND_DUPLICATED))
        return evaluate_scenario(scenario, _clean(KIND_REFERENCE),
                                 duplicated)

    def test_digest_reflects_verdicts(self):
        scenario = _sized()
        passing = self._result([self._outcome(scenario, violating=False)])
        failing = self._result([self._outcome(scenario, violating=True)])
        assert passing.digest() != failing.digest()

    def test_digest_stable_for_equal_content(self):
        a = self._result([self._outcome(_sized(), violating=False)])
        b = self._result([self._outcome(_sized(), violating=False)])
        assert a.digest() == b.digest()

    def test_failures_and_ok(self):
        outcome = self._outcome(_sized(), violating=True)
        result = self._result([outcome])
        assert result.failures == [outcome]
        assert not result.ok
        assert self._result(
            [self._outcome(_sized(), violating=False)]
        ).ok


class TestExecution:
    def test_run_scenario_returns_ordered_pair(self):
        reference, duplicated = run_scenario(_sized(tokens=40,
                                                    warmup_tokens=10))
        assert reference.kind == KIND_REFERENCE
        assert duplicated.kind == KIND_DUPLICATED
        assert reference.ok and duplicated.ok
        assert duplicated.value_hashes == reference.value_hashes

    def test_campaign_is_deterministic(self):
        config = CampaignConfig(seed=7, budget=3, self_tests=False,
                                shrink=False)
        first = run_campaign(config)
        second = run_campaign(config)
        assert first.digest() == second.digest()
        assert [o.verdict for o in first.outcomes] == [
            o.verdict for o in second.outcomes
        ]
        assert len(first.outcomes) == 3

    def test_self_tests_are_caught_and_shrunk(self):
        config = CampaignConfig(seed=7, budget=0, self_tests=True,
                                shrink=True, max_shrink_runs=6)
        messages = []
        result = run_campaign(config, progress=messages.append)
        assert len(result.outcomes) == 3
        assert all(o.verdict == VERDICT_EXPECTED for o in result.outcomes)
        assert result.ok  # self-tests pass by violating
        # Every violated outcome gets a shrink entry keyed by its digest.
        assert set(result.shrunk) == {o.digest for o in result.outcomes}
        for outcome in result.outcomes:
            shrink = result.shrunk[outcome.digest]
            assert shrink.runs <= 6
            assert shrink.target_oracles
        assert any("generated 3 scenarios" in m for m in messages)

    def test_shrink_spends_its_runs_on_candidates(self):
        # The main batch has judged every violated scenario, so its
        # violations are the shrink baseline: a one-run budget judges one
        # real (smaller) candidate instead of re-running the original.
        config = CampaignConfig(seed=7, budget=0, self_tests=True,
                                shrink=True, max_shrink_runs=1)
        result = run_campaign(config)
        assert len(result.shrunk) == 3
        for outcome in result.outcomes:
            shrink = result.shrunk[outcome.digest]
            assert shrink.runs == 1
            assert shrink.reduced and shrink.token_reduction > 0
            assert shrink.target_oracles == tuple(
                sorted({v.oracle for v in outcome.violations})
            )

    def test_broken_countermeasure_self_test_trips_recovery_oracle(self):
        # Satellite of the recovery battery: the generator's broken
        # countermeasure self-test must be caught by the post-recovery-
        # equivalence oracle specifically — not by collateral damage.
        from repro.campaign.scenario import ScenarioGenerator

        [broken] = [t for t in ScenarioGenerator(seed=7).self_tests()
                    if t.scenario.recovery is not None]
        assert not broken.scenario.recovery.reprime
        reference, duplicated = run_scenario(broken)
        outcome = evaluate_scenario(broken, reference, duplicated)
        assert outcome.verdict == VERDICT_EXPECTED
        assert outcome.passed
        assert "recovery" in {v.oracle for v in outcome.violations}

    def test_oracle_subset_respected(self):
        config = CampaignConfig(seed=7, budget=0, self_tests=True,
                                shrink=False, oracles=("run-ok",))
        result = run_campaign(config)
        # Mis-sized self-tests still *complete*, so with only run-ok
        # armed nothing barks and both self-tests are missed.
        assert result.oracle_names == ("run-ok",)
        assert all(o.verdict == VERDICT_MISSED for o in result.outcomes)
        assert not result.ok


#: ``run_campaign(CampaignConfig(seed=7, budget=12, jobs=1))``: the
#: campaign digest and, per violated scenario digest, the digest of its
#: shrunk minimal reproducer.  Any change to generation, sizing, the
#: oracles or the shrink search that moves a result moves these.
PINNED_CAMPAIGN_DIGEST = (
    "823c8d6b599773d13aecd8c65c48943a11d0ec2570ed88a6ac15d3f02044845e"
)
PINNED_SHRUNK_DIGESTS = {
    "57177d1dab9d2c3a57395f6ebf1efcd6eeb0e4625ecf63ec9a098166ba288878":
        "4ee91bdc5244bd1e6f8784a0fcd3c5434671e75477e93ecfebcb506c0286cac7",
    "aa4bbfb49ae3d5ea4f63c47d99f97dc0f3921188cf8b0dd4669c595e8aa8c3db":
        "d0c4ed3e6d653de53b5bc01a75f4beea9c7cd50dbf3aceed586ac937562fa7c2",
    "fc494b0f7f621ab3443865e2d6a7410a00221b9ecc8de195a4f973b7033b4cb8":
        "3e7f6ce2b702eaa1e8d4d6b351616910d2ea31fe0b6683de8250dec237c8a9c2",
}


class TestSizeOnce:
    def test_campaign_digests_are_pinned(self):
        result = run_campaign(CampaignConfig(seed=7, budget=12, jobs=1))
        assert result.digest() == PINNED_CAMPAIGN_DIGEST
        assert {
            digest: shrunk.minimal.scenario.digest()
            for digest, shrunk in result.shrunk.items()
        } == PINNED_SHRUNK_DIGESTS

    def test_campaign_solves_only_while_generating(self, solve_counter):
        """Spec building, judging and shrinking reuse the sizing solved
        at generation: no Section 3.4 solve (memo hit or not) happens
        anywhere else in a campaign."""
        result = run_campaign(CampaignConfig(seed=7, budget=12, jobs=1))
        assert result.shrunk  # the shrink search ran
        assert sum(s.runs for s in result.shrunk.values()) > len(
            result.shrunk)
        assert solve_counter.elsewhere == 0
        # One solve per sampled draw (seed 7 rejects none of its 12) and
        # one per self-test application (the two mis-sized self-tests
        # share the bursty app): nothing is solved twice.
        assert solve_counter.generating == 12 + 2


class TestStreaming:
    """The ISSUE-8 acceptance loop: a streamed campaign's ledger replay
    must reproduce the batch-end report exactly."""

    def _streamed_campaign(self, tmp_path, jobs=2, budget=4):
        from repro.campaign.report import build_campaign_report
        from repro.obs.ledger import LedgerWriter, read_ledger

        path = tmp_path / "campaign.ledger"
        with LedgerWriter(path) as ledger:
            config = CampaignConfig(seed=7, budget=budget, jobs=jobs,
                                    shrink=True, max_shrink_runs=6,
                                    ledger=ledger)
            result = run_campaign(config)
        return result, build_campaign_report(result), read_ledger(path)

    def test_replay_matches_batch_end_report(self, tmp_path):
        from repro.campaign.engine import stream_summary
        from repro.obs.ledger import merged_snapshot

        result, report, replay = self._streamed_campaign(tmp_path)
        assert replay.ok, replay.warnings

        # Verdict counts: ledger scenario-verdict records == report.
        verdicts = {}
        for record in replay.by_type("scenario-verdict"):
            verdicts[record["verdict"]] = (
                verdicts.get(record["verdict"], 0) + 1
            )
        for name, count in report["verdicts"].items():
            assert verdicts.get(name, 0) == count

        # Merged detect.latency_ms p50/p95/max: replay == report, exact.
        replayed_stream = stream_summary(merged_snapshot(replay))
        assert replayed_stream == report["stream"]
        latency = report["stream"]["percentiles"]["detect.latency_ms"]
        assert latency["count"] > 0

        # The campaign-end record carries the same summary (so a status
        # probe needs no report file at all).
        end = replay.by_type("campaign-end")[-1]
        assert end["stream"] == report["stream"]
        assert end["verdicts"] == report["verdicts"]
        assert end["digest"] == report["campaign"]["digest"]

    def test_replay_survives_json_roundtrip(self, tmp_path):
        # The acceptance comparison must be exact across JSON (ledger
        # lines and report files are both JSON): float repr round-trips.
        import json

        from repro.campaign.engine import stream_summary
        from repro.obs.ledger import merged_snapshot

        _result, report, replay = self._streamed_campaign(tmp_path)
        replayed = json.loads(
            json.dumps(stream_summary(merged_snapshot(replay)))
        )
        assert replayed == json.loads(json.dumps(report["stream"]))

    def test_streaming_does_not_change_campaign_digest(self, tmp_path):
        from repro.obs.ledger import LedgerWriter

        config = CampaignConfig(seed=7, budget=3, self_tests=False,
                                shrink=False)
        plain = run_campaign(config)
        with LedgerWriter(tmp_path / "c.ledger") as ledger:
            streamed = run_campaign(CampaignConfig(
                seed=7, budget=3, self_tests=False, shrink=False,
                ledger=ledger,
            ))
        assert streamed.digest() == plain.digest()
        assert [o.verdict for o in streamed.outcomes] == [
            o.verdict for o in plain.outcomes
        ]

    def test_shrink_sweeps_stay_out_of_the_ledger(self, tmp_path):
        # Self-tests violate and get shrunk; the shrink search runs its
        # own executor without the ledger, so task counts replayed from
        # the ledger describe the main batch only.
        _result, report, replay = self._streamed_campaign(
            tmp_path, jobs=1, budget=0
        )
        scenarios = report["campaign"]["scenarios"]
        assert report["shrunk"]  # shrinking actually happened
        assert len(replay.by_type("task-finished")) == 2 * scenarios
        assert len(replay.by_type("sweep-start")) == 1
