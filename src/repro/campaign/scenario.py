"""Scenarios and the seeded scenario-matrix generator.

A :class:`Scenario` is one cell of the campaign matrix — an application,
a (possibly absent) fault, a token budget, a sizing margin and a run
seed — as plain frozen data: JSON round-trippable
(:func:`scenario_to_jsonable` / :func:`scenario_from_jsonable`) and
content-digested (:meth:`Scenario.digest`).  A :class:`SizedScenario`
pairs it with its built application and the Section 3.4 sizing solved
once for it; that record is what the campaign passes around and what
converts into the pair of :class:`~repro.exec.TaskSpec` runs (reference
twin + duplicated network) that the engine executes.

:class:`ScenarioGenerator` samples the matrix from a campaign seed.
Scenario ``i`` is a pure function of ``(seed, i)`` — generation order,
partial regeneration (shrinking) and parallel workers all agree (see
:func:`repro.faults.sampling.derive_rng`).  The generator already solves
each scenario's sizing to fit its token budget, so it hands back
:class:`SizedScenario` records and nothing downstream solves again.
Deliberately mis-sized **self-test** scenarios ride along with
``expect_violation=True``: they must be caught by the oracles, proving
the campaign has teeth.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import ALL_APPLICATIONS
from repro.apps.base import AppScale, StreamingApplication
from repro.apps.synthetic import SyntheticApp
from repro.exec.taskspec import TaskSpec, _canon
from repro.faults.models import FAIL_STOP, RATE_DEGRADE, FaultSpec
from repro.faults.sampling import FaultSampler, derive_rng
from repro.recovery.spec import RecoverySpec
from repro.rtc.pjd import PJD
from repro.rtc.sizing import SizingResult

#: Version of the scenario schema; participates in every digest.
#: v2: ``recovery`` (closed-loop countermeasure policy per cell).
SCENARIO_SCHEMA_VERSION = 2

#: Deliberate mis-sizing kinds (oracle self-tests).
MISSIZE_THRESHOLD = "threshold"  # divergence thresholds forced to 1 (Eq. 5)
MISSIZE_CAPACITY = "capacity"    # replicator FIFOs forced to 1 (Eq. 3)

_MISSIZES = (MISSIZE_THRESHOLD, MISSIZE_CAPACITY)

_REGISTRY: Dict[str, type] = {cls.name: cls for cls in ALL_APPLICATIONS}


class ScenarioError(ValueError):
    """A scenario that cannot be built or decoded."""


@dataclass(frozen=True)
class SyntheticModels:
    """Explicit PJD models of a synthetic-family scenario."""

    producer: PJD
    replicas: Tuple[PJD, PJD]
    consumer: PJD


@dataclass(frozen=True)
class Scenario:
    """One campaign cell as plain data.

    ``app`` is a registry name (``mjpeg``/``adpcm``/``h264``) or a
    synthetic-family label (``models`` then carries the explicit PJDs).
    ``capacity_margin`` over-provisions the Eq. 3 capacities (a margin of
    1.0 is the exact paper sizing); ``missize`` deliberately breaks the
    sizing for oracle self-tests, in which case ``expect_violation`` is
    set and the campaign *requires* a violation.
    """

    index: int
    app: str
    tokens: int
    warmup_tokens: int
    seed: int
    app_seed: int = 0
    models: Optional[SyntheticModels] = None
    fault: Optional[FaultSpec] = None
    capacity_margin: float = 1.0
    missize: Optional[str] = None
    expect_violation: bool = False
    #: Closed-loop countermeasure policy; ``None`` leaves detection
    #: open-loop (the pre-recovery campaign behaviour).
    recovery: Optional[RecoverySpec] = None

    def __post_init__(self) -> None:
        if self.tokens < 1:
            raise ScenarioError("tokens must be >= 1")
        if not 0 <= self.warmup_tokens <= self.tokens:
            raise ScenarioError("warmup must lie within the token budget")
        if self.capacity_margin < 1.0:
            raise ScenarioError(
                "capacity_margin must be >= 1.0 (use missize for "
                "deliberate under-sizing)"
            )
        if self.missize is not None and self.missize not in _MISSIZES:
            raise ScenarioError(f"unknown missize kind {self.missize!r}")
        if self.app not in _REGISTRY and self.models is None:
            raise ScenarioError(
                f"unknown application {self.app!r} without explicit models"
            )

    # -- construction ------------------------------------------------------

    def build_app(self) -> StreamingApplication:
        """Reconstruct the application this scenario describes."""
        if self.models is not None:
            return SyntheticApp(
                producer=self.models.producer,
                replicas=list(self.models.replicas),
                consumer=self.models.consumer,
                seed=self.app_seed,
                name=self.app,
            )
        return _REGISTRY[self.app](AppScale(), seed=self.app_seed)

    def sized(self) -> "SizedScenario":
        """This scenario with its application built and sized — one
        Section 3.4 solve.  Replay, persistence and tests start here; the
        campaign gets its records from :class:`ScenarioGenerator`."""
        app = self.build_app()
        return SizedScenario(self, app, app.sizing())

    def apply_sizing(self, base: SizingResult) -> SizingResult:
        """``base`` (the exact Section 3.4 sizing of this scenario's
        application) with the margin / mis-sizing applied.  Pure: never
        solves."""
        sizing = base
        if self.capacity_margin != 1.0:
            sizing = dataclasses.replace(
                sizing,
                replicator_capacities=tuple(
                    int(math.ceil(c * self.capacity_margin))
                    for c in sizing.replicator_capacities
                ),
                selector_capacities=tuple(
                    int(math.ceil(c * self.capacity_margin))
                    for c in sizing.selector_capacities
                ),
            )
        if self.missize == MISSIZE_THRESHOLD:
            sizing = dataclasses.replace(
                sizing, selector_threshold=1, replicator_threshold=1
            )
        elif self.missize == MISSIZE_CAPACITY:
            sizing = dataclasses.replace(
                sizing, replicator_capacities=(1, 1)
            )
        return sizing

    # -- identity ----------------------------------------------------------

    def digest(self) -> str:
        """Stable content digest of this scenario (hex SHA-256)."""
        payload = {
            "schema": SCENARIO_SCHEMA_VERSION,
            "scenario": _canon(self),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable identity for progress and reports."""
        parts = [f"#{self.index}", self.app, f"tokens={self.tokens}",
                 f"seed={self.seed}"]
        if self.fault is None:
            parts.append("fault-free")
        else:
            parts.append(f"{self.fault.kind}@r{self.fault.replica}")
        if self.capacity_margin != 1.0:
            parts.append(f"margin={self.capacity_margin:g}")
        if self.missize is not None:
            parts.append(f"missize={self.missize}")
        if self.recovery is not None:
            tag = "recovery"
            if not self.recovery.respawn:
                tag = "recovery=isolate"
            elif not self.recovery.reprime:
                tag = "recovery=broken"
            parts.append(tag)
        return " ".join(parts)


@dataclass(frozen=True)
class SizedScenario:
    """A scenario with its application and exact sizing, solved once.

    The record the campaign passes from generation through spec
    building, judging, shrinking and the MTTF loop.  ``sizing`` is the
    margin-free Section 3.4 result for ``app``; it travels *beside* the
    scenario and never enters :meth:`Scenario.digest`, so carrying it
    changes no digest.
    """

    scenario: Scenario
    app: StreamingApplication
    sizing: SizingResult

    def applied_sizing(self) -> SizingResult:
        """The sizing the runs use: margin / mis-sizing applied."""
        return self.scenario.apply_sizing(self.sizing)

    def specs(self) -> Tuple[TaskSpec, TaskSpec]:
        """The (reference, duplicated) task pair for this scenario."""
        scenario = self.scenario
        sizing = self.applied_sizing()
        reference = TaskSpec.reference(
            self.app, scenario.tokens, scenario.seed, sizing=sizing
        )
        duplicated = TaskSpec.duplicated(
            self.app,
            scenario.tokens,
            scenario.seed,
            sizing=sizing,
            fault=scenario.fault,
            # Mis-sized self-tests may implicate both replicas; let the
            # run record that rather than abort (the ablation idiom).
            strict_single_fault=scenario.missize is None,
            recovery=scenario.recovery,
        )
        return reference, duplicated

    def with_scenario(self, scenario: Scenario) -> "SizedScenario":
        """``scenario`` carried with this record's app and sizing.

        Only valid for a scenario of the same application (equal
        ``app``, ``app_seed`` and ``models``) — the shape of every
        shrink candidate, which changes tokens, warmup, fault and
        margin only.  Anything else would need a fresh solve, so it is
        refused rather than silently mis-sized.
        """
        ours, theirs = self.scenario, scenario
        if (theirs.app, theirs.app_seed, theirs.models) != (
                ours.app, ours.app_seed, ours.models):
            raise ScenarioError(
                f"{theirs.label()} is a different application than "
                f"{ours.label()}; size it with Scenario.sized()"
            )
        return SizedScenario(scenario, self.app, self.sizing)


# -- JSON round-trip -------------------------------------------------------

_JSON_TYPES = {
    cls.__name__: cls
    for cls in (Scenario, SyntheticModels, FaultSpec, PJD, RecoverySpec)
}

_TUPLE_FIELDS = {"SyntheticModels": ("replicas",)}


def scenario_to_jsonable(obj):
    """Encode a :class:`Scenario` (or nested dataclass) for JSON."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__
        if name not in _JSON_TYPES:
            raise ScenarioError(f"cannot encode {name!r} as scenario JSON")
        body = {
            f.name: scenario_to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        body["__type__"] = name
        return body
    if isinstance(obj, (list, tuple)):
        return [scenario_to_jsonable(item) for item in obj]
    raise ScenarioError(
        f"cannot encode {type(obj).__name__!r} as scenario JSON"
    )


def scenario_from_jsonable(data):
    """Decode :func:`scenario_to_jsonable` output; validators re-run."""
    if isinstance(data, dict) and "__type__" in data:
        name = data["__type__"]
        cls = _JSON_TYPES.get(name)
        if cls is None:
            raise ScenarioError(f"unknown scenario type {name!r} in JSON")
        kwargs = {
            key: scenario_from_jsonable(value)
            for key, value in data.items()
            if key != "__type__"
        }
        for field_name in _TUPLE_FIELDS.get(name, ()):
            if isinstance(kwargs.get(field_name), list):
                kwargs[field_name] = tuple(kwargs[field_name])
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as error:
            raise ScenarioError(
                f"invalid {name} in scenario JSON: {error}"
            ) from error
    if isinstance(data, list):
        return [scenario_from_jsonable(item) for item in data]
    if isinstance(data, dict):
        raise ScenarioError("untagged object in scenario JSON")
    return data


# -- generation ------------------------------------------------------------

#: Default application mix.  Synthetic-heavy: random synthetic apps
#: explore the model space at ~30 ms a run, while occasional media apps
#: keep the full codec pipelines in the coverage set.
DEFAULT_APP_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("synthetic-rand", 0.78),
    ("synthetic-bursty", 0.12),
    ("adpcm", 0.07),
    ("mjpeg", 0.03),
)

#: Over-provisioning factors for the sizing-margin axis.
MARGIN_CHOICES = (1.25, 1.5, 2.0)


class ScenarioGenerator:
    """Samples the campaign's scenario matrix from one seed.

    Every scenario derives its own RNG stream from ``(seed, index)``;
    infeasible draws (token budgets beyond ``max_tokens``) retry on a
    per-index sub-stream, so one index's rejections never perturb
    another's sample.
    """

    def __init__(
        self,
        seed: int,
        app_weights: Optional[Sequence[Tuple[str, float]]] = None,
        fault_rate: float = 0.7,
        margin_rate: float = 0.2,
        max_tokens: int = 420,
        max_attempts: int = 8,
        recovery: Optional[RecoverySpec] = None,
    ) -> None:
        self.seed = seed
        self.app_weights = tuple(app_weights or DEFAULT_APP_WEIGHTS)
        for name, _weight in self.app_weights:
            if name not in _REGISTRY and not name.startswith("synthetic"):
                raise ScenarioError(f"unknown application {name!r}")
        self.fault_rate = fault_rate
        self.margin_rate = margin_rate
        self.max_tokens = max_tokens
        self.max_attempts = max_attempts
        #: When set, every faulted scenario closes the loop with this
        #: countermeasure policy (fault-free cells stay open-loop — a
        #: manager with nothing to detect would be pure overhead).
        self.recovery = recovery
        self.sampler = FaultSampler(seed)

    def generate(self, budget: int) -> List[SizedScenario]:
        """The first ``budget`` scenarios of this seed's matrix."""
        return [self.scenario(index) for index in range(budget)]

    def scenario(self, index: int) -> SizedScenario:
        """Scenario ``index`` — a pure function of ``(seed, index)`` —
        with the application and sizing its token budget was fitted
        to."""
        for attempt in range(self.max_attempts):
            candidate = self._sample(index, attempt)
            if candidate is not None:
                return candidate
        return self._fallback(index)

    def self_tests(self) -> List[SizedScenario]:
        """Deliberately mis-sized scenarios the oracles *must* catch.

        Negative indices keep them out of the budgeted matrix; the bursty
        synthetic application is the regime where under-sized thresholds
        and capacities demonstrably false-positive (the A1/A3 ablations).
        """
        app = SyntheticApp.bursty(seed=0)
        sizing = app.sizing()
        models = SyntheticModels(
            producer=app.producer_model,
            replicas=(app.replica_input_models[0],
                      app.replica_input_models[1]),
            consumer=app.consumer_model,
        )
        tests = []
        for offset, missize in enumerate(_MISSIZES):
            rng = derive_rng(self.seed, "selftest", missize)
            scenario = Scenario(
                index=-(offset + 1),
                app="synthetic-bursty",
                tokens=160,
                warmup_tokens=0,
                seed=rng.randrange(1_000_000),
                models=models,
                fault=None,
                missize=missize,
                expect_violation=True,
            )
            tests.append(SizedScenario(scenario, app, sizing))
        tests.append(self._broken_countermeasure_test())
        return tests

    def _broken_countermeasure_test(self) -> SizedScenario:
        """The deliberately broken countermeasure the ``recovery``
        oracle *must* catch.

        A fail-stop fault recovers with ``reprime=False``: the replica
        is killed and respawned but the selector's virtual counters are
        never re-primed, so the fault flag clears against stale state
        and the replica deterministically relapses into a stall
        detection after the claimed completion — exactly what the
        post-recovery-equivalence check flags.
        """
        rng = derive_rng(self.seed, "selftest", "broken-countermeasure")
        app = SyntheticApp()
        models = SyntheticModels(
            producer=app.producer_model,
            replicas=(app.replica_input_models[0],
                      app.replica_input_models[1]),
            consumer=app.consumer_model,
        )
        warmup = 30
        period = app.producer_model.period
        fault = FaultSpec(
            replica=0,
            time=(warmup + 0.25) * period,
            kind=FAIL_STOP,
        )
        broken = RecoverySpec(reprime=False)
        sizing = app.sizing()
        scenario = Scenario(
            index=-(len(_MISSIZES) + 1),
            app=app.name,
            tokens=warmup + self._post_tokens(period, sizing, fault, broken),
            warmup_tokens=warmup,
            seed=rng.randrange(1_000_000),
            models=models,
            fault=fault,
            recovery=broken,
            expect_violation=True,
        )
        return SizedScenario(scenario, app, sizing)

    # -- internals ---------------------------------------------------------

    def _sample(self, index: int,
                attempt: int) -> Optional[SizedScenario]:
        rng = derive_rng(self.seed, "scenario", index, attempt)
        names = [name for name, _ in self.app_weights]
        weights = [weight for _, weight in self.app_weights]
        name = rng.choices(names, weights=weights, k=1)[0]

        app_seed = 0
        models = None
        if name == "synthetic-rand":
            app = SyntheticApp.randomized(rng)
        elif name == "synthetic-bursty":
            app = SyntheticApp.bursty(
                period=round(rng.uniform(6.0, 12.0), 1),
                burst=rng.choice((3, 4, 5)),
            )
        else:
            app_seed = rng.randrange(1000)
            app = _REGISTRY[name](AppScale(), seed=app_seed)
        if isinstance(app, SyntheticApp):
            models = SyntheticModels(
                producer=app.producer_model,
                replicas=(app.replica_input_models[0],
                          app.replica_input_models[1]),
                consumer=app.consumer_model,
            )

        warmup = rng.randint(25, 60)
        fault = None
        if rng.random() < self.fault_rate:
            fault = self.sampler.sample(
                index, app.producer_model.period, warmup
            )
        margin = 1.0
        if rng.random() < self.margin_rate:
            margin = rng.choice(MARGIN_CHOICES)

        recovery = self.recovery if fault is not None else None
        sizing = app.sizing()
        tokens = warmup + self._post_tokens(
            app.producer_model.period, sizing, fault, recovery
        )
        if tokens > self.max_tokens:
            return None
        scenario = Scenario(
            index=index,
            app=app.name if models is not None else name,
            tokens=tokens,
            warmup_tokens=warmup,
            seed=rng.randrange(1_000_000),
            app_seed=app_seed,
            models=models,
            fault=fault,
            capacity_margin=margin,
            recovery=recovery,
        )
        return SizedScenario(scenario, app, sizing)

    def _post_tokens(self, period: float, sizing: SizingResult,
                     fault: Optional[FaultSpec],
                     recovery: Optional[RecoverySpec] = None) -> int:
        """Tokens past the warmup so detection fits inside the run.

        The stream must outlive the worst-case Eq. 8 window (in producer
        periods) plus threshold-sized slack; a rate-degradation fault
        stretches the window by ``s / (s - 1)`` because the limping
        replica keeps delivering at ``1/s`` of its rate.  A closed-loop
        scenario additionally needs the handover to drain (one more
        detection window's worth of healthy writes) *and* a second
        window past completion, so the post-recovery-equivalence oracle
        has room to observe a broken countermeasure relapse.
        ``period`` is the producer period and ``sizing`` the exact
        Section 3.4 result the caller already solved.
        """
        bound = max(sizing.selector_detection_bound,
                    sizing.replicator_detection_bound)
        slack = 2 * max(sizing.selector_threshold,
                        sizing.replicator_threshold)
        post = int(math.ceil(bound / period)) + slack + 8
        if fault is not None and fault.kind == RATE_DEGRADE:
            factor = fault.slowdown / (fault.slowdown - 1.0)
            post = int(math.ceil(post * factor))
        if recovery is not None and fault is not None:
            post += 2 * (int(math.ceil(bound / period)) + slack)
            post += int(math.ceil(recovery.response_ms / period))
        return post

    def _fallback(self, index: int) -> SizedScenario:
        """A known-small scenario when every sampled draw was infeasible."""
        rng = derive_rng(self.seed, "fallback", index)
        app = SyntheticApp()
        models = SyntheticModels(
            producer=app.producer_model,
            replicas=(app.replica_input_models[0],
                      app.replica_input_models[1]),
            consumer=app.consumer_model,
        )
        warmup = rng.randint(25, 60)
        fault = None
        if rng.random() < self.fault_rate:
            fault = self.sampler.sample(
                index, app.producer_model.period, warmup
            )
        recovery = self.recovery if fault is not None else None
        sizing = app.sizing()
        scenario = Scenario(
            index=index,
            app=app.name,
            tokens=warmup + self._post_tokens(
                app.producer_model.period, sizing, fault, recovery
            ),
            warmup_tokens=warmup,
            seed=rng.randrange(1_000_000),
            models=models,
            fault=fault,
            recovery=recovery,
        )
        return SizedScenario(scenario, app, sizing)
