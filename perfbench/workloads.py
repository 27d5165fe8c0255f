"""The benchmark's three workloads.

Each workload has one layer that does most of its work and that layer is
near zero in at least one other workload (see ``README.md`` for the
measured splits):

* ``table2``   — one Table 2 row per media application (codec + apps);
* ``campaign`` — a synthetic-only fault-injection campaign past the RTC
  sizing memo (rtc);
* ``stream``   — paper-shaped long streams with a late fail-stop fault
  and recovery armed, no executor (kpn).

A workload is built in :meth:`Workload.setup` (untimed by ``wall_s``,
timed by ``setup_s``), executed once by :meth:`Workload.run` (the timed
region) and judged by :meth:`Workload.check`, which runs after the
clock stops.  Program entry points are looked up on their modules at
call time, never bound here at import time, so the traced run's
rebindings reach every call the workload makes.

Inputs derive from the workload seed only.  For :data:`DEFAULT_SEED`
and :data:`HELDOUT_SEED` the digest of the simulated results is pinned:
a change that only makes the program faster must leave it identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

#: Seed whose result digests are pinned, and the held-out seed that a
#: speed claim must also hold on.
DEFAULT_SEED = 1
HELDOUT_SEED = 2

#: Pool size the workloads ask for; ``jobs`` is capped at the host's
#: usable cores.  A host with fewer cores measures fork/IPC overhead,
#: not parallel throughput.
REQUESTED_JOBS = 2


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_jobs() -> int:
    return min(REQUESTED_JOBS, usable_cores())


def _digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """What one execution of a workload produced and how it was judged."""

    #: Deterministic simulated events (``RunStats.events`` summed).
    events: int = 0
    #: Simulation runs attempted, and those that errored or failed a check.
    attempted: int = 0
    failed: int = 0
    #: Digest of the simulated results (outputs, detections, verdicts).
    digest: str = ""
    #: Named correctness checks and whether each held.
    checks: Dict[str, bool] = field(default_factory=dict)
    #: Workload-specific figures the per-layer table reports.
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(self.checks.values()) and self.failed == 0


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path, tiny: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.tiny = tiny
        self.jobs = pool_jobs()

    def setup(self) -> None:
        """Import, build inputs and start any worker pool."""

    def run(self) -> Any:
        """The timed region; returns the raw result :meth:`check` reads."""
        raise NotImplementedError

    def check(self, raw: Any) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        """Stop every process the workload started."""

    def pinned(self, outcome: Outcome) -> None:
        """Compare the digest against the pinned one for pinned seeds."""
        want = PINNED_DIGESTS.get((self.name, self.seed, self.tiny))
        if want is not None:
            outcome.checks["digest_pinned"] = outcome.digest == want
            if outcome.digest != want:
                outcome.failed = outcome.attempted


# -- table2 ----------------------------------------------------------------

#: ``app -> (runs, warmup_tokens, post_tokens)``.  Sized so that H.264,
#: the costliest codec per token, does not swamp MJPEG and ADPCM.  Every
#: ``post_tokens`` outlives the app's Eq. 8 detection window (8, 8 and 6
#: producer periods) plus twice its divergence threshold.
TABLE2_ROWS = {"mjpeg": (2, 20, 40), "adpcm": (2, 20, 40),
               "h264": (1, 10, 20)}
TABLE2_TINY_ROWS = {"mjpeg": (1, 5, 20), "adpcm": (1, 5, 20),
                    "h264": (1, 2, 16)}


class Table2(Workload):
    """One Table 2 row (reference, fault-free and fail-stop runs) for
    each of MJPEG, ADPCM and H.264, through one persistent executor."""

    name = "table2"

    def setup(self) -> None:
        from repro.apps import AdpcmApp, H264EncoderApp, MjpegDecoderApp
        from repro.apps.base import AppScale
        from repro.exec import SweepExecutor, WorkerPool
        import repro.experiments.table2  # noqa: F401

        classes = {"mjpeg": MjpegDecoderApp, "adpcm": AdpcmApp,
                   "h264": H264EncoderApp}
        self.apps = [classes[name](AppScale(), seed=self.seed)
                     for name in self.rows()]
        self.executor = SweepExecutor(jobs=self.jobs)
        if self.jobs > 1:
            # Fork the workers now: one no-op chunk launches them all.
            self.executor.pool = WorkerPool(self.jobs)
            list(self.executor.pool.map_chunks(abs, [0]))

    def rows(self) -> Dict[str, tuple]:
        return TABLE2_TINY_ROWS if self.tiny else TABLE2_ROWS

    def run(self) -> List[Dict[str, Any]]:
        from repro.experiments import table2

        rows = []
        for app in self.apps:
            runs, warmup, post = self.rows()[app.name]
            row: Dict[str, Any] = {"app": app.name}
            try:
                row["result"] = table2.run_table2(
                    app, runs=runs, warmup_tokens=warmup,
                    post_tokens=post,
                    base_seed=self.seed, executor=self.executor,
                )
            except AssertionError as error:  # failed run / false positive
                row["error"] = str(error)
            stats = self.executor.stats
            row["tasks"] = stats.tasks
            row["errors"] = stats.errors
            row["events"] = int(self.executor.metrics.counters.get(
                "sim.events", 0))
            rows.append(row)
        return rows

    def check(self, rows) -> Outcome:
        outcome = Outcome()
        payload = []
        for row in rows:
            outcome.attempted += row["tasks"]
            outcome.events += row["events"]
            result = row.get("result")
            name = row["app"]
            outcome.checks[f"{name}.runs_ok_no_false_positive"] = (
                "error" not in row)
            if result is None:
                outcome.failed += row["tasks"]
                continue
            verdicts = {
                "within_bounds": result.within_bounds,
                "detected_in_every_run": result.detected_in_every_run,
                "outputs_equivalent": result.outputs_equivalent,
            }
            for key, held in verdicts.items():
                outcome.checks[f"{name}.{key}"] = held
            outcome.failed += (row["tasks"] if not all(verdicts.values())
                               else row["errors"])
            payload.append({
                **result.as_dict(),
                "reference_interframe": result.reference_interframe.row(),
                "duplicated_interframe": result.duplicated_interframe.row(),
                "consumer_stalls": result.consumer_stalls,
            })
        outcome.digest = _digest(payload)
        self.pinned(outcome)
        return outcome

    def close(self) -> None:
        self.executor.close()


# -- campaign --------------------------------------------------------------

#: Scenarios per campaign: well past the 128-entry ``size_duplicated_
#: network`` memo, whose LRU then thrashes on the campaign's cyclic
#: re-sizing (120 scenarios hit it 67% of the time; 160 hit it ~0%).
CAMPAIGN_BUDGET = 160
CAMPAIGN_TINY_BUDGET = 4

#: The default campaign mix restricted to its synthetic apps (weights
#: as in ``repro.campaign.scenario.DEFAULT_APP_WEIGHTS``): a media draw
#: would move 40-63% of the time into the codec and make wall time
#: depend on how many media scenarios a seed happens to draw.
CAMPAIGN_APP_WEIGHTS = (("synthetic-rand", 0.78), ("synthetic-bursty", 0.12))


class Campaign(Workload):
    """``run_campaign`` with self-tests and shrink, the ledger streamed
    to a file as ``repro campaign --ledger`` does, and no result cache."""

    name = "campaign"

    def setup(self) -> None:
        from repro.campaign import ScenarioGenerator
        import repro.campaign.engine  # noqa: F401
        import repro.obs.ledger  # noqa: F401

        self.generator = ScenarioGenerator(
            self.seed, app_weights=CAMPAIGN_APP_WEIGHTS)
        self.ledger_path = self.work_dir / f"ledger-{os.getpid()}.jsonl"

    def run(self):
        from repro.campaign import engine
        from repro.obs import ledger as obs_ledger

        writer = obs_ledger.LedgerWriter(self.ledger_path)
        try:
            return engine.run_campaign(engine.CampaignConfig(
                seed=self.seed,
                budget=CAMPAIGN_TINY_BUDGET if self.tiny else CAMPAIGN_BUDGET,
                jobs=self.jobs,
                self_tests=True,
                shrink=True,
                cache=None,
                generator=self.generator,
                ledger=writer,
            ))
        finally:
            writer.close()

    def check(self, result) -> Outcome:
        from repro.campaign.engine import VERDICT_MISSED, VERDICT_VIOLATION

        outcome = Outcome()
        outcome.attempted = result.stats.tasks
        outcome.events = int(result.metrics.counters.get("sim.events", 0))
        verdicts = result.verdict_counts()
        outcome.checks["no_violation"] = verdicts[VERDICT_VIOLATION] == 0
        outcome.checks["no_missed_self_test"] = verdicts[VERDICT_MISSED] == 0
        outcome.failed = 2 * (verdicts[VERDICT_VIOLATION]
                              + verdicts[VERDICT_MISSED])
        outcome.digest = _digest({
            "campaign": result.digest(),
            "runs": [[o.digest, _task_payload(o.reference),
                      _task_payload(o.duplicated)]
                     for o in result.outcomes],
        })
        outcome.extra["campaign.scenarios"] = len(result.outcomes)
        outcome.extra["obs.bytes"] = self.ledger_path.stat().st_size
        self.pinned(outcome)
        return outcome

    def close(self) -> None:
        if self.ledger_path.exists():
            self.ledger_path.unlink()


def _task_payload(result) -> List[Any]:
    """The simulated outputs of one task — not its timing or event
    count, which a faster engine may legitimately change."""
    return [
        result.ok, result.error, result.value_hashes, result.times,
        [[d.time, d.site, d.replica, d.mechanism] for d in result.detections],
        result.injected_at, result.selector_drops,
    ]


# -- stream ----------------------------------------------------------------

#: Tokens per stream; the fault lands at :data:`STREAM_FAULT_AT` of the
#: stream (the paper injects after ~18,000 of 20,000 frames).
STREAM_TOKENS = 20000
STREAM_TINY_TOKENS = 400
STREAM_FAULT_AT = 0.9


class Stream(Workload):
    """A bursty and a randomized synthetic app: reference run, then the
    duplicated run with a late fail-stop fault and recovery armed."""

    name = "stream"

    def setup(self) -> None:
        from repro.apps.synthetic import SyntheticApp
        import repro.experiments.runner  # noqa: F401
        import repro.recovery  # noqa: F401

        self.apps = [
            SyntheticApp.bursty(seed=self.seed),
            SyntheticApp.randomized(random.Random(self.seed), seed=self.seed),
        ]
        self.tokens = STREAM_TINY_TOKENS if self.tiny else STREAM_TOKENS

    def run(self):
        from repro.experiments import runner
        from repro.faults.models import FAIL_STOP, FaultSpec
        from repro.recovery.spec import RecoverySpec

        pairs = []
        for replica, app in enumerate(self.apps):
            reference = runner.run_reference(app, self.tokens, self.seed)
            fault = FaultSpec(
                replica=replica % 2,
                time=runner.fault_time_for(
                    app, int(self.tokens * STREAM_FAULT_AT)),
                kind=FAIL_STOP,
            )
            duplicated = runner.run_duplicated(
                app, self.tokens, self.seed, fault=fault,
                recovery=RecoverySpec(),
            )
            pairs.append((app.name, reference, duplicated))
        return pairs

    def check(self, pairs) -> Outcome:
        from repro.exec.results import hash_values

        outcome = Outcome()
        payload = []
        for name, reference, duplicated in pairs:
            outcome.attempted += 2
            outcome.events += reference.events + duplicated.events
            injected = duplicated.injector.injected_at
            detected = injected is not None and any(
                d.time >= injected for d in duplicated.detections)
            recovered = bool(duplicated.recovery
                             and duplicated.recovery.get("completed"))
            ref_hashes = hash_values(reference.values)
            dup_hashes = hash_values(duplicated.values)
            same = ref_hashes == dup_hashes
            outcome.checks[f"{name}.detected"] = detected
            outcome.checks[f"{name}.recovered"] = recovered
            outcome.checks[f"{name}.values_equal"] = same
            if not (detected and recovered and same):
                outcome.failed += 2
            payload.append([
                name, ref_hashes, dup_hashes, reference.times,
                duplicated.times, injected,
                [[d.time, d.site, d.replica, d.mechanism]
                 for d in duplicated.detections],
                duplicated.selector_drops,
            ])
        outcome.digest = _digest(payload)
        self.pinned(outcome)
        return outcome


WORKLOADS = {cls.name: cls for cls in (Table2, Campaign, Stream)}

#: ``(workload, seed, tiny) -> digest`` of the simulated results, for the
#: default and held-out seeds at full and at test size.
PINNED_DIGESTS: Dict[tuple, str] = {
    ("table2", 1, False):
        "55ab384314eed0c3eeec52efd07807355431d6ff0bed0c8f5b3182fa43f5f5fc",
    ("table2", 2, False):
        "9c0602afd10b66d3e83f780177d0e6e8bb386c68956daaf4020331fc97410bbb",
    ("campaign", 1, False):
        "fd9cdc155e452651f44711ce2bb1f4abc5164cb54466b3f5477cc56faa98cf57",
    ("campaign", 2, False):
        "c12b5af43205589bdb621ce775ef718cd0be19ace8c344c83fafda662ce96c87",
    ("stream", 1, False):
        "52bf8409840650f210f70c4d9a0f1a10c9ed7273b01be2252e42ed5930c85e11",
    ("stream", 2, False):
        "9583630aab4168ec1ee143253da5fb386529e5272610c747ce822ee5c6787c10",
    ("table2", 1, True):
        "d2e101ec24589912ff07ead962e50de5b1f93286aa92fdebfff97ecdd97d15b0",
    ("table2", 2, True):
        "d0042475797bd983ad72b5362a01571c103c38cd30409147921e975184d390b8",
    ("campaign", 1, True):
        "3c95a0bcde6cb6d13b26c27f5370ba5c8af9d769dfa5b0777fe57ee5c9f978c2",
    ("campaign", 2, True):
        "1d5143dc721ead31548ead40b0c82e80610de81d439796144aba52a20c34e38e",
    ("stream", 1, True):
        "2e7f7584c036c18e65452e48af09c4d6eb94769fc73d983e6bafa42983e007a7",
    ("stream", 2, True):
        "d255695a8d60bfaf3fc9b3487d9c6e301e19786e4e0ed4ae2f627dc14a91f5b6",
}
