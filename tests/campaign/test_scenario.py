"""Tests for campaign scenarios and the seeded matrix generator."""

import dataclasses
import math

import pytest

from repro.campaign.scenario import (
    MARGIN_CHOICES,
    MISSIZE_CAPACITY,
    MISSIZE_THRESHOLD,
    Scenario,
    ScenarioError,
    ScenarioGenerator,
    SizedScenario,
    SyntheticModels,
    scenario_from_jsonable,
    scenario_to_jsonable,
)
from repro.exec import KIND_DUPLICATED, KIND_REFERENCE
from repro.faults.models import FAIL_STOP, FaultSpec
from repro.rtc.pjd import PJD


def _models():
    return SyntheticModels(
        producer=PJD(10.0, 1.0, 10.0),
        replicas=(PJD(10.0, 2.0, 10.0), PJD(10.0, 8.0, 10.0)),
        consumer=PJD(10.0, 1.0, 10.0),
    )


def _scenario(**kwargs):
    defaults = dict(index=0, app="synthetic", tokens=80, warmup_tokens=30,
                    seed=5, models=_models())
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestValidation:
    def test_warmup_must_fit_budget(self):
        with pytest.raises(ScenarioError):
            _scenario(tokens=10, warmup_tokens=20)

    def test_margin_below_one_rejected(self):
        with pytest.raises(ScenarioError):
            _scenario(capacity_margin=0.5)

    def test_unknown_missize_rejected(self):
        with pytest.raises(ScenarioError):
            _scenario(missize="bogus")

    def test_unknown_app_without_models_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(index=0, app="no-such-app", tokens=10,
                     warmup_tokens=0, seed=1)


class TestSpecs:
    def test_pair_kinds_and_shared_sizing(self):
        scenario = _scenario()
        reference, duplicated = scenario.sized().specs()
        assert reference.kind == KIND_REFERENCE
        assert duplicated.kind == KIND_DUPLICATED
        assert reference.sizing == duplicated.sizing
        assert reference.tokens == duplicated.tokens == scenario.tokens

    def test_margin_scales_capacities_not_thresholds(self):
        exact = _scenario().build_app().sizing()
        padded = _scenario(capacity_margin=2.0).apply_sizing(exact)
        assert padded.replicator_capacities == tuple(
            2 * c for c in exact.replicator_capacities
        )
        assert padded.selector_threshold == exact.selector_threshold
        assert padded.replicator_threshold == exact.replicator_threshold

    def test_missize_threshold(self):
        base = _scenario().build_app().sizing()
        sizing = _scenario(
            missize=MISSIZE_THRESHOLD, expect_violation=True
        ).apply_sizing(base)
        assert sizing.selector_threshold == 1
        assert sizing.replicator_threshold == 1

    def test_missize_capacity(self):
        base = _scenario().build_app().sizing()
        sizing = _scenario(
            missize=MISSIZE_CAPACITY, expect_violation=True
        ).apply_sizing(base)
        assert sizing.replicator_capacities == (1, 1)

    def test_missized_runs_drop_strict_single_fault(self):
        _, duplicated = _scenario(missize=MISSIZE_CAPACITY,
                                  expect_violation=True).sized().specs()
        assert duplicated.strict_single_fault is False
        _, healthy = _scenario().sized().specs()
        assert healthy.strict_single_fault is True


def _solve_and_apply(scenario, app):
    """The sizing a scenario's runs use, solved from scratch: a fresh
    Section 3.4 solve with the margin / mis-sizing transform spelled
    out independently of :meth:`Scenario.apply_sizing`."""
    sizing = app.sizing()
    margin = scenario.capacity_margin
    if margin != 1.0:
        sizing = dataclasses.replace(
            sizing,
            replicator_capacities=tuple(
                int(math.ceil(c * margin))
                for c in sizing.replicator_capacities),
            selector_capacities=tuple(
                int(math.ceil(c * margin))
                for c in sizing.selector_capacities),
        )
    if scenario.missize == MISSIZE_THRESHOLD:
        sizing = dataclasses.replace(
            sizing, selector_threshold=1, replicator_threshold=1)
    elif scenario.missize == MISSIZE_CAPACITY:
        sizing = dataclasses.replace(sizing, replicator_capacities=(1, 1))
    return sizing


class TestSizeOnce:
    """The sizing solved at generation and carried beside the scenario
    is exactly what a fresh solve would give."""

    @pytest.mark.parametrize("margin", (1.0,) + MARGIN_CHOICES)
    @pytest.mark.parametrize("missize",
                             (None, MISSIZE_THRESHOLD, MISSIZE_CAPACITY))
    def test_apply_sizing_matches_a_fresh_solve(self, margin, missize):
        scenario = _scenario(capacity_margin=margin, missize=missize,
                             expect_violation=missize is not None)
        base = scenario.sized().sizing
        fresh = _solve_and_apply(scenario, scenario.build_app())
        assert scenario.apply_sizing(base) == fresh

    def test_apply_sizing_never_solves(self, monkeypatch):
        import repro.apps.base

        base = _scenario().build_app().sizing()

        def refuse(*_args, **_kwargs):
            raise AssertionError("apply_sizing solved")

        monkeypatch.setattr(repro.apps.base, "size_duplicated_network",
                            refuse)
        for margin in MARGIN_CHOICES:
            _scenario(capacity_margin=margin).apply_sizing(base)

    def test_generated_records_match_a_fresh_solve(self):
        generator = ScenarioGenerator(seed=7)
        records = generator.generate(20) + generator.self_tests()
        assert all(isinstance(r, SizedScenario) for r in records)
        for record in records:
            fresh = record.scenario.sized()
            assert record.sizing == fresh.sizing
            assert record.applied_sizing() == _solve_and_apply(
                record.scenario, fresh.app)
            assert ([s.digest() for s in record.specs()]
                    == [s.digest() for s in fresh.specs()])

    def test_with_scenario_refuses_another_application(self):
        record = _scenario().sized()
        shorter = dataclasses.replace(record.scenario, tokens=40)
        assert record.with_scenario(shorter).sizing is record.sizing
        other = _scenario(models=SyntheticModels(
            producer=PJD(12.0, 1.0, 12.0),
            replicas=(PJD(12.0, 2.0, 12.0), PJD(12.0, 8.0, 12.0)),
            consumer=PJD(12.0, 1.0, 12.0),
        ))
        with pytest.raises(ScenarioError):
            record.with_scenario(other)


class TestDigest:
    def test_stable_across_instances(self):
        assert _scenario().digest() == _scenario().digest()

    def test_sensitive_to_every_dimension(self):
        base = _scenario()
        variants = [
            _scenario(seed=6),
            _scenario(tokens=81),
            _scenario(capacity_margin=1.5),
            _scenario(fault=FaultSpec(replica=0, time=400.0,
                                      kind=FAIL_STOP)),
            _scenario(missize=MISSIZE_THRESHOLD, expect_violation=True),
        ]
        digests = {base.digest(), *(v.digest() for v in variants)}
        assert len(digests) == len(variants) + 1


class TestJsonRoundTrip:
    def test_roundtrip_identity(self):
        scenario = _scenario(
            fault=FaultSpec(replica=1, time=350.0, kind=FAIL_STOP),
            capacity_margin=1.5,
        )
        decoded = scenario_from_jsonable(scenario_to_jsonable(scenario))
        assert decoded == scenario
        assert decoded.digest() == scenario.digest()

    def test_validators_rerun_on_decode(self):
        payload = scenario_to_jsonable(_scenario())
        payload["tokens"] = -1
        with pytest.raises(ScenarioError):
            scenario_from_jsonable(payload)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_jsonable({"__type__": "Mystery"})

    def test_untagged_object_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_jsonable({"tokens": 3})


class TestGenerator:
    def test_budget_respected(self):
        scenarios = ScenarioGenerator(seed=7).generate(15)
        assert len(scenarios) == 15
        assert [s.scenario.index for s in scenarios] == list(range(15))

    def test_all_scenarios_feasible(self):
        generator = ScenarioGenerator(seed=7)
        for sized in generator.generate(30):
            scenario = sized.scenario
            assert 1 <= scenario.tokens <= generator.max_tokens
            assert scenario.warmup_tokens <= scenario.tokens
            # The pair must at least build.
            sized.specs()

    def test_covers_faulted_and_fault_free(self):
        generated = ScenarioGenerator(seed=7).generate(40)
        scenarios = [s.scenario for s in generated]
        kinds = {s.fault.kind for s in scenarios if s.fault is not None}
        assert kinds  # faults occur
        assert any(s.fault is None for s in scenarios)

    def test_self_tests_expect_violation(self):
        tests = [t.scenario for t in ScenarioGenerator(seed=7).self_tests()]
        missized = [t for t in tests if t.missize is not None]
        assert {t.missize for t in missized} == {MISSIZE_THRESHOLD,
                                                 MISSIZE_CAPACITY}
        broken = [t for t in tests if t.recovery is not None]
        assert len(broken) == 1
        assert broken[0].fault is not None
        assert not broken[0].recovery.reprime
        assert all(t.expect_violation for t in tests)
        assert all(t.index < 0 for t in tests)

    def test_fault_time_lands_after_warmup(self):
        for sized in ScenarioGenerator(seed=3).generate(40):
            scenario = sized.scenario
            if scenario.fault is None:
                continue
            period = sized.app.producer_model.period
            assert scenario.fault.time > scenario.warmup_tokens * period
