"""Reproducer persistence: roundtrip, replay, and corruption recovery.

The recovery tests mirror ``tests/exec/test_cache.py``: every way a
reproducer file can rot on disk — truncation, corruption, schema drift,
hand-edits that break the digest — must surface as the *named*
:exc:`ReproducerError`, never as a stray ``KeyError``/``JSONDecodeError``
that would crash a campaign replay loop mid-directory.
"""

import json

import pytest

from repro.apps.synthetic import SyntheticApp
from repro.campaign.oracles import Violation
from repro.campaign.persist import (
    REPRODUCER_SCHEMA_ID,
    Reproducer,
    ReproducerError,
    load_reproducer,
    replay_reproducer,
    save_reproducer,
    save_run_report,
)
from repro.campaign.scenario import (
    MISSIZE_CAPACITY,
    Scenario,
    SyntheticModels,
)
from repro.faults.models import FAIL_STOP, FaultSpec
from repro.rtc.pjd import PJD


def _scenario(**kwargs):
    models = SyntheticModels(
        producer=PJD(10.0, 1.0, 10.0),
        replicas=(PJD(10.0, 2.0, 10.0), PJD(10.0, 8.0, 10.0)),
        consumer=PJD(10.0, 1.0, 10.0),
    )
    defaults = dict(index=0, app="synthetic", tokens=60, warmup_tokens=20,
                    seed=5, models=models)
    defaults.update(kwargs)
    return Scenario(**defaults)


def _reproducer(**kwargs):
    defaults = dict(
        scenario=_scenario(
            fault=FaultSpec(replica=0, time=350.0, kind=FAIL_STOP)
        ),
        target_oracles=("detection-latency",),
        violations=(Violation("detection-latency", "too slow"),),
        campaign_seed=7,
    )
    defaults.update(kwargs)
    return Reproducer(**defaults)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        original = _reproducer()
        path = save_reproducer(original, tmp_path / "r.json")
        loaded = load_reproducer(path)
        assert loaded == original
        assert loaded.scenario.digest() == original.scenario.digest()

    def test_document_carries_expanded_task_pair(self, tmp_path):
        path = save_reproducer(_reproducer(), tmp_path / "r.json")
        document = json.loads(path.read_text())
        assert document["schema"] == REPRODUCER_SCHEMA_ID
        assert set(document["tasks"]) == {"reference", "duplicated"}

    def test_creates_parent_directories(self, tmp_path):
        path = save_reproducer(_reproducer(),
                               tmp_path / "deep" / "er" / "r.json")
        assert path.exists()

    def test_loads_reproducer_naming_the_stepped_core(self, tmp_path):
        # Reproducers written while TaskSpec still carried an execution
        # core name it in both task specs; "stepped" is the only core
        # left, so such files must keep loading.
        original = _reproducer()
        path = save_reproducer(original, tmp_path / "r.json")
        document = json.loads(path.read_text())
        for label in ("reference", "duplicated"):
            document["tasks"][label]["exec_mode"] = "stepped"
        path.write_text(json.dumps(document))
        assert load_reproducer(path) == original


class TestRecovery:
    """Every rot mode raises ReproducerError — nothing else."""

    def _saved(self, tmp_path):
        return save_reproducer(_reproducer(), tmp_path / "r.json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproducerError, match="cannot read"):
            load_reproducer(tmp_path / "nope.json")

    def test_corrupted_json(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_text("{ not json !!")
        with pytest.raises(ReproducerError, match="not valid JSON"):
            load_reproducer(path)

    def test_truncated_file(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ReproducerError):
            load_reproducer(path)

    def test_non_object_top_level(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_text("[1, 2, 3]")
        with pytest.raises(ReproducerError, match="top level"):
            load_reproducer(path)

    def test_schema_mismatch(self, tmp_path):
        path = self._saved(tmp_path)
        document = json.loads(path.read_text())
        document["schema"] = "repro.campaign-reproducer/99"
        path.write_text(json.dumps(document))
        with pytest.raises(ReproducerError, match="schema"):
            load_reproducer(path)

    def test_missing_key(self, tmp_path):
        path = self._saved(tmp_path)
        document = json.loads(path.read_text())
        del document["scenario_digest"]
        path.write_text(json.dumps(document))
        with pytest.raises(ReproducerError, match="missing key"):
            load_reproducer(path)

    def test_hand_edited_scenario_breaks_digest(self, tmp_path):
        path = self._saved(tmp_path)
        document = json.loads(path.read_text())
        document["scenario"]["tokens"] = 61  # digest no longer matches
        path.write_text(json.dumps(document))
        with pytest.raises(ReproducerError, match="digest mismatch"):
            load_reproducer(path)

    def test_invalid_scenario_revalidated(self, tmp_path):
        path = self._saved(tmp_path)
        document = json.loads(path.read_text())
        document["scenario"]["tokens"] = -1
        path.write_text(json.dumps(document))
        with pytest.raises(ReproducerError):
            load_reproducer(path)

    def test_malformed_target_oracles(self, tmp_path):
        path = self._saved(tmp_path)
        document = json.loads(path.read_text())
        document["target_oracles"] = "detection-latency"
        path.write_text(json.dumps(document))
        with pytest.raises(ReproducerError, match="target_oracles"):
            load_reproducer(path)

    def test_malformed_violation_entry(self, tmp_path):
        path = self._saved(tmp_path)
        document = json.loads(path.read_text())
        document["violations"] = [{"oracle": "equivalence"}]  # no message
        path.write_text(json.dumps(document))
        with pytest.raises(ReproducerError, match="violation"):
            load_reproducer(path)

    def test_invalid_task_spec(self, tmp_path):
        path = self._saved(tmp_path)
        document = json.loads(path.read_text())
        document["tasks"]["duplicated"] = {"bogus": True}
        path.write_text(json.dumps(document))
        with pytest.raises(ReproducerError, match="duplicated"):
            load_reproducer(path)

    def test_generator_core_task_spec_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        document = json.loads(path.read_text())
        document["tasks"]["duplicated"]["exec_mode"] = "generator"
        path.write_text(json.dumps(document))
        with pytest.raises(ReproducerError, match="duplicated"):
            load_reproducer(path)

    def test_non_integer_campaign_seed(self, tmp_path):
        path = self._saved(tmp_path)
        document = json.loads(path.read_text())
        document["campaign_seed"] = "seven"
        path.write_text(json.dumps(document))
        with pytest.raises(ReproducerError, match="campaign_seed"):
            load_reproducer(path)

    def test_replay_loop_quarantines_bad_files(self, tmp_path):
        """The campaign-loop property the strictness buys: a directory
        scan survives arbitrary rot, collecting errors per file."""
        good = save_reproducer(_reproducer(), tmp_path / "good.json")
        (tmp_path / "rotten.json").write_text("{ nope")
        (tmp_path / "stale.json").write_text(
            json.dumps({"schema": "other/1"})
        )
        loaded, quarantined = [], []
        for path in sorted(tmp_path.iterdir()):
            try:
                loaded.append(load_reproducer(path))
            except ReproducerError as error:
                quarantined.append((path.name, str(error)))
        assert len(loaded) == 1
        assert loaded[0].scenario.digest() == _reproducer(
        ).scenario.digest()
        assert sorted(name for name, _ in quarantined) == [
            "rotten.json", "stale.json",
        ]


class TestReplay:
    def test_replay_reproduces_recorded_violation(self, tmp_path):
        """End to end: a mis-sized scenario's reproducer file, loaded
        back and replayed, reproduces the same oracle class."""
        app = SyntheticApp.bursty(seed=0)
        models = SyntheticModels(
            producer=app.producer_model,
            replicas=(app.replica_input_models[0],
                      app.replica_input_models[1]),
            consumer=app.consumer_model,
        )
        scenario = _scenario(tokens=40, warmup_tokens=0, models=models,
                             missize=MISSIZE_CAPACITY,
                             expect_violation=True)
        reproducer = Reproducer(scenario=scenario,
                                target_oracles=("no-false-positive",))
        loaded = load_reproducer(
            save_reproducer(reproducer, tmp_path / "r.json")
        )
        outcome = replay_reproducer(loaded)
        assert loaded.matches(outcome)

    def test_clean_scenario_does_not_match(self):
        reproducer = Reproducer(
            scenario=_scenario(tokens=40, warmup_tokens=10),
            target_oracles=("no-false-positive",),
        )
        outcome = replay_reproducer(reproducer)
        assert not reproducer.matches(outcome)
        assert outcome.passed


class TestRunReport:
    def test_save_run_report_writes_valid_artifact(self, tmp_path):
        path = save_run_report(
            _scenario(tokens=40, warmup_tokens=10).sized(),
            tmp_path / "report.json",
        )
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.run-report/1"

    def test_report_describes_the_closed_loop_run(self, tmp_path):
        """A closed-loop reproducer's report must describe the run the
        oracles judged — recovery armed — not an open-loop rerun."""
        from repro.campaign.engine import run_scenario
        from repro.campaign.scenario import ScenarioGenerator

        [broken] = [t for t in ScenarioGenerator(seed=1).self_tests()
                    if t.scenario.recovery is not None]
        _reference, duplicated = run_scenario(broken)
        path = save_run_report(broken, tmp_path / "report.json")
        document = json.loads(path.read_text())
        assert document["throughput"]["events"] == duplicated.events
        assert document["detection"]["reports"] == len(
            duplicated.detections)
