"""Pickleable, content-addressed descriptions of experiment runs.

Every experiment in this repository is assembled from independent seeded
runs (a reference run, a fault-free duplicated run, a faulted duplicated
run, optionally with a polling baseline monitor attached).  A
:class:`TaskSpec` captures one such run as plain data:

* **pickleable** — only frozen dataclasses, numbers and strings, so a
  spec can cross a process boundary into a worker pool;
* **reconstructible** — the application is described by its registry
  name (or, for :class:`~repro.apps.synthetic.SyntheticApp`, by its
  explicit PJD models), never by an object graph;
* **digestable** — :meth:`TaskSpec.digest` is a stable SHA-256 over a
  canonical JSON form, which keys the on-disk result cache
  (:mod:`repro.exec.cache`).  Two specs with the same digest describe
  byte-identical runs, because every run is a pure function of its spec
  (see ``tests/experiments/test_parallel_identity.py``).

The solved :class:`~repro.rtc.sizing.SizingResult` rides inside the spec:
spec builders pass the sizing their caller already solved (the campaign
solves each scenario once, when it generates it), so workers never
re-solve it.  A spec shipped without a sizing is sized in
:func:`~repro.exec.worker.execute_task`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.apps import ALL_APPLICATIONS
from repro.apps.base import AppScale, StreamingApplication
from repro.faults.models import FaultSpec
from repro.recovery.spec import RecoverySpec
from repro.rtc.pjd import PJD
from repro.rtc.sizing import SizingResult

#: Version of the TaskSpec schema itself.  Bump on any change to the
#: fields below or to their run semantics: the version participates in
#: the digest, so old cache entries stop matching automatically.
#: v2: execution-core field (step machine vs generator).
#: v3: ``recovery`` (closed-loop countermeasure manager).
#: v4: execution-core field removed (the engine has one core).
TASK_SCHEMA_VERSION = 4

#: ``kind`` values.
KIND_REFERENCE = "reference"
KIND_DUPLICATED = "duplicated"

_KINDS = (KIND_REFERENCE, KIND_DUPLICATED)


class TaskSpecError(ValueError):
    """An application or option combination that cannot be shipped."""


_REGISTRY: Dict[str, type] = {cls.name: cls for cls in ALL_APPLICATIONS}


@dataclass(frozen=True)
class SyntheticAppSpec:
    """Explicit-model description of a :class:`SyntheticApp` instance.

    Synthetic applications carry their PJD models as constructor
    parameters, so reconstruction needs the models themselves rather
    than a registry name.
    """

    producer: PJD
    replicas: Tuple[PJD, PJD]
    consumer: PJD
    name: str = "synthetic"


@dataclass(frozen=True)
class DistanceMonitorSpec:
    """Declarative attachment of the distance-function baseline monitor.

    Mirrors the Table 3 setup: an ``l = 1`` distance function over the
    replicas' consumption events at the replicator, with bounds derived
    from the (possibly jitter-minimised) replica input models.
    """

    poll_interval: float
    stop_time: float
    event_kind: str = "read"
    l: int = 1
    margin_factor: float = 0.05


@dataclass(frozen=True)
class TaskSpec:
    """One experiment run as plain data.

    ``kind`` selects the harness (:func:`~repro.experiments.runner.
    run_reference` or :func:`~repro.experiments.runner.run_duplicated`);
    the remaining fields are that harness's parameters.  Build specs via
    :meth:`reference` / :meth:`duplicated`, which capture the application
    identity safely.
    """

    kind: str
    app: str
    tokens: int
    seed: int
    app_seed: int = 0
    paper_scale: bool = False
    minimized: bool = False
    synthetic: Optional[SyntheticAppSpec] = None
    #: Pre-solved sizing, shipped so workers never re-run the solver.
    #: Also the vehicle for ablation overrides (threshold / capacities).
    sizing: Optional[SizingResult] = None
    #: Reference runs only: which replica variant parameterises the net.
    variant: int = 0
    #: Duplicated runs only.
    fault: Optional[FaultSpec] = None
    verify_duplicates: bool = False
    strict_single_fault: bool = True
    selector_stall_detection: bool = True
    record_events: bool = False
    monitor: Optional[DistanceMonitorSpec] = None
    #: Run the Section 4 conformance audit in the worker and return the
    #: (serialisable) ValidationReport with the result.
    validate: bool = False
    #: Ship raw consumer payloads back (results always carry per-token
    #: content hashes; raw values can be large for the video apps).
    keep_values: bool = False
    #: Duplicated runs only: arm the closed-loop countermeasure manager
    #: (:mod:`repro.recovery`) on the detection log.
    recovery: Optional[RecoverySpec] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise TaskSpecError(f"unknown task kind {self.kind!r}")
        if self.monitor is not None and not self.record_events:
            raise TaskSpecError("a monitor needs record_events=True")
        if self.validate and not self.record_events:
            raise TaskSpecError("validation needs record_events=True")
        if self.kind == KIND_REFERENCE and (
            self.fault is not None or self.monitor is not None
        ):
            raise TaskSpecError("reference runs take no fault or monitor")
        if self.kind == KIND_REFERENCE and self.recovery is not None:
            raise TaskSpecError("reference runs take no recovery spec")

    # -- construction ------------------------------------------------------

    @classmethod
    def reference(
        cls,
        app: StreamingApplication,
        tokens: int,
        seed: int,
        sizing: Optional[SizingResult] = None,
        variant: int = 0,
    ) -> "TaskSpec":
        """A reference-network run of ``app`` (Figure 1, top)."""
        return cls(
            kind=KIND_REFERENCE,
            tokens=tokens,
            seed=seed,
            sizing=sizing,
            variant=variant,
            **_app_fields(app),
        )

    @classmethod
    def duplicated(
        cls,
        app: StreamingApplication,
        tokens: int,
        seed: int,
        sizing: Optional[SizingResult] = None,
        fault: Optional[FaultSpec] = None,
        verify_duplicates: bool = False,
        strict_single_fault: bool = True,
        selector_stall_detection: bool = True,
        record_events: bool = False,
        monitor: Optional[DistanceMonitorSpec] = None,
        validate: bool = False,
        keep_values: bool = False,
        recovery: Optional[RecoverySpec] = None,
    ) -> "TaskSpec":
        """A duplicated-network run of ``app`` (Figure 1, bottom)."""
        return cls(
            kind=KIND_DUPLICATED,
            tokens=tokens,
            seed=seed,
            sizing=sizing,
            fault=fault,
            verify_duplicates=verify_duplicates,
            strict_single_fault=strict_single_fault,
            selector_stall_detection=selector_stall_detection,
            record_events=record_events or monitor is not None or validate,
            monitor=monitor,
            validate=validate,
            keep_values=keep_values,
            recovery=recovery,
            **_app_fields(app),
        )

    # -- identity ----------------------------------------------------------

    def digest(self) -> str:
        """Stable content digest of this spec (hex SHA-256).

        Canonicalises the spec (dataclasses to tagged dicts, dict keys
        sorted, floats via their shortest-roundtrip repr) and includes
        :data:`TASK_SCHEMA_VERSION`, so semantic changes to the spec
        format invalidate old digests wholesale.
        """
        payload = {"schema": TASK_SCHEMA_VERSION, "spec": _canon(self)}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __hash__(self) -> int:
        return hash(self.digest())

    def label(self) -> str:
        """Short human-readable identity for progress reporting."""
        parts = [self.app, self.kind, f"seed={self.seed}"]
        if self.fault is not None:
            parts.append(f"fault={self.fault.kind}@r{self.fault.replica}")
        if self.monitor is not None:
            parts.append("monitor")
        return " ".join(parts)

def _canon(obj):
    """Reduce ``obj`` to a canonical JSON-compatible structure."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr is the shortest round-tripping form — stable across
        # processes and platforms for IEEE doubles.
        return f"f:{obj!r}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        body = {
            f.name: _canon(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        body["__type__"] = type(obj).__name__
        return body
    if isinstance(obj, (list, tuple)):
        return [_canon(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): _canon(value) for key, value in obj.items()}
    raise TaskSpecError(
        f"cannot canonicalise {type(obj).__name__!r} for digesting"
    )


def _models_equal(a: StreamingApplication, b: StreamingApplication) -> bool:
    return (
        a.producer_model == b.producer_model
        and a.consumer_model == b.consumer_model
        and list(a.replica_input_models) == list(b.replica_input_models)
        and list(a.replica_output_models) == list(b.replica_output_models)
    )


def _app_fields(app: StreamingApplication) -> Dict[str, object]:
    """Capture an application instance as reconstructible spec fields.

    Registry applications (mjpeg / adpcm / h264) are described by name +
    scale + seed (+ the jitter-minimised flag); synthetic applications by
    their explicit models.  Raises :class:`TaskSpecError` for instances
    whose models were mutated away from what reconstruction would build —
    such an app cannot be shipped to a worker faithfully.
    """
    from repro.apps.synthetic import SyntheticApp

    if isinstance(app, SyntheticApp):
        inputs = tuple(app.replica_input_models)
        outputs = tuple(app.replica_output_models)
        if inputs != outputs:
            raise TaskSpecError(
                f"{app.name}: synthetic apps with distinct input/output "
                "replica models are not reconstructible"
            )
        return {
            "app": app.name,
            "app_seed": app.seed,
            "paper_scale": app.scale.paper_scale,
            "minimized": False,
            "synthetic": SyntheticAppSpec(
                producer=app.producer_model,
                replicas=inputs,
                consumer=app.consumer_model,
                name=app.name,
            ),
        }
    cls = _REGISTRY.get(app.name)
    minimized = bool(getattr(app, "is_minimized", False))
    if cls is not None and type(app) is cls:
        candidate = cls(
            AppScale(paper_scale=app.scale.paper_scale), seed=app.seed
        )
        if minimized:
            candidate = candidate.minimized()
        if _models_equal(candidate, app):
            return {
                "app": app.name,
                "app_seed": app.seed,
                "paper_scale": app.scale.paper_scale,
                "minimized": minimized,
                "synthetic": None,
            }
    raise TaskSpecError(
        f"{app.name}: instance cannot be reconstructed from its class "
        "(unknown application or locally mutated models)"
    )


# -- JSON round-trip -------------------------------------------------------
#
# The campaign layer persists minimal reproducers as *replayable TaskSpec
# JSON* (human-diffable, unlike the pickle cache).  Encoding tags every
# nested dataclass with its type name; decoding rebuilds the object graph
# through the constructors, so validation in ``__post_init__`` re-runs on
# load and malformed documents fail loudly.

_JSON_TYPES: Dict[str, type] = {}

#: Dataclass fields that must be decoded back into tuples (JSON only has
#: arrays); everything else keeps the list/scalar shape it decoded to.
_TUPLE_FIELDS = {
    "SyntheticAppSpec": ("replicas",),
    "SizingResult": (
        "replicator_capacities",
        "selector_capacities",
        "selector_initial_fill",
    ),
}


def _register_json_types() -> None:
    if _JSON_TYPES:
        return
    from repro.faults.models import FaultSpec as _FaultSpec

    for cls in (TaskSpec, SyntheticAppSpec, DistanceMonitorSpec, PJD,
                SizingResult, _FaultSpec, RecoverySpec):
        _JSON_TYPES[cls.__name__] = cls


def spec_to_jsonable(obj):
    """Encode a :class:`TaskSpec` (or nested spec dataclass) for JSON."""
    _register_json_types()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__
        if name not in _JSON_TYPES:
            raise TaskSpecError(
                f"cannot encode {name!r} as replayable JSON"
            )
        body = {
            f.name: spec_to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        body["__type__"] = name
        return body
    if isinstance(obj, (list, tuple)):
        return [spec_to_jsonable(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): spec_to_jsonable(val) for key, val in obj.items()}
    raise TaskSpecError(
        f"cannot encode {type(obj).__name__!r} as replayable JSON"
    )


def spec_from_jsonable(data):
    """Decode the output of :func:`spec_to_jsonable`.

    Raises :class:`TaskSpecError` on unknown tags or constructor-rejected
    values (the dataclass validators re-run on decode).
    """
    _register_json_types()
    if isinstance(data, dict) and "__type__" in data:
        name = data["__type__"]
        cls = _JSON_TYPES.get(name)
        if cls is None:
            raise TaskSpecError(f"unknown spec type {name!r} in JSON")
        kwargs = {
            key: spec_from_jsonable(value)
            for key, value in data.items()
            if key != "__type__"
        }
        for field_name in _TUPLE_FIELDS.get(name, ()):
            if isinstance(kwargs.get(field_name), list):
                kwargs[field_name] = tuple(kwargs[field_name])
        if cls is TaskSpec and kwargs.get("exec_mode") == "stepped":
            # Schema-v3 documents (e.g. saved reproducers) name the
            # execution core; "stepped" is the only one left, so the key
            # is redundant.  Any other value still fails the constructor.
            del kwargs["exec_mode"]
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as error:
            raise TaskSpecError(
                f"invalid {name} in replayable JSON: {error}"
            ) from error
    if isinstance(data, dict):
        return {key: spec_from_jsonable(val) for key, val in data.items()}
    if isinstance(data, list):
        return [spec_from_jsonable(item) for item in data]
    return data


def build_app(spec: TaskSpec) -> StreamingApplication:
    """Reconstruct the application an executed spec describes."""
    from repro.apps.synthetic import SyntheticApp

    scale = AppScale(paper_scale=spec.paper_scale)
    if spec.synthetic is not None:
        app: StreamingApplication = SyntheticApp(
            producer=spec.synthetic.producer,
            replicas=list(spec.synthetic.replicas),
            consumer=spec.synthetic.consumer,
            scale=scale,
            seed=spec.app_seed,
            name=spec.synthetic.name,
        )
    else:
        cls = _REGISTRY.get(spec.app)
        if cls is None:
            raise TaskSpecError(f"unknown application {spec.app!r}")
        app = cls(scale, seed=spec.app_seed)
    if spec.minimized:
        app = app.minimized()
    return app
