"""Machine-checkable invariant oracles derived from the paper.

Each :class:`Oracle` inspects one executed scenario — the reference /
duplicated :class:`~repro.exec.TaskResult` pair plus the applied
:class:`~repro.rtc.sizing.SizingResult` — and returns the list of
:class:`Violation` instances it can prove.  Oracles never raise on a
malformed outcome: an aborted run is the ``run-ok`` oracle's finding,
and the data-dependent oracles stand down rather than pile secondary
noise on top of it.

=====================  ==================================================
oracle                 paper claim it checks
=====================  ==================================================
``run-ok``             a correctly sized network never aborts its run
``no-false-positive``  Eq. 3/5 sizing admits zero fault-free detections
``isolation``          Lemma 1: only the faulty replica is implicated
``detection-latency``  Eqs. 6-8: faults are detected within the bound
``equivalence``        Theorem 2: consumer stream identical to reference
``recovery``           Theorem 2 holds *again* after a closed-loop
                       recovery, within the weakly-hard (m, k) budget
=====================  ==================================================

The ``detection-latency`` oracle enforces the per-site Eq. 8 numbers
only for **fail-stop** faults — Eq. 8 is the fail-stop specialisation,
and a rate-degraded replica keeps delivering tokens, so its divergence
grows slower than the fail-stop argument assumes.  Rate-degradation
still *must* be detected within the run (the generator budgets the
stream for the ``s / (s - 1)`` stretch); only the numeric bound is
waived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.scenario import Scenario, SizedScenario
from repro.exec.results import TaskResult
from repro.faults.models import FAIL_STOP
from repro.rtc.sizing import SizingResult

#: Slack for float latency-vs-bound comparisons (ms).
LATENCY_TOLERANCE = 1e-6


class OracleError(ValueError):
    """An unknown oracle was requested."""


@dataclass(frozen=True)
class Violation:
    """One proven invariant violation in one scenario."""

    oracle: str
    message: str

    def as_dict(self) -> Dict[str, str]:
        return {"oracle": self.oracle, "message": self.message}


@dataclass(frozen=True)
class OutcomeContext:
    """Everything an oracle may inspect for one executed scenario."""

    scenario: Scenario
    sizing: SizingResult
    reference: TaskResult
    duplicated: TaskResult

    @property
    def injected_at(self) -> Optional[float]:
        """The actual injection instant (falls back to the spec time)."""
        if self.duplicated.injected_at is not None:
            return self.duplicated.injected_at
        if self.scenario.fault is not None:
            return self.scenario.fault.time
        return None

    @property
    def runs_ok(self) -> bool:
        return self.reference.ok and self.duplicated.ok


@dataclass(frozen=True)
class Oracle:
    """A named invariant check with its paper provenance."""

    name: str
    claim: str
    check: Callable[[OutcomeContext], List[Violation]] = field(repr=False)

    def __call__(self, ctx: OutcomeContext) -> List[Violation]:
        return self.check(ctx)


# -- individual checks -----------------------------------------------------


def _check_run_ok(ctx: OutcomeContext) -> List[Violation]:
    violations = []
    for label, result in (("reference", ctx.reference),
                          ("duplicated", ctx.duplicated)):
        if not result.ok:
            violations.append(Violation(
                "run-ok",
                f"{label} run aborted: {result.error}",
            ))
    return violations


def _check_no_false_positive(ctx: OutcomeContext) -> List[Violation]:
    if not ctx.runs_ok:
        return []
    injected_at = ctx.injected_at
    if injected_at is None:
        # Fault-free: Eq. 3/5 sizing promises *zero* detections.
        if ctx.duplicated.detections:
            first = ctx.duplicated.detections[0]
            return [Violation(
                "no-false-positive",
                f"{len(ctx.duplicated.detections)} detection(s) in a "
                f"fault-free run; first at t={first.time:.3f} "
                f"({first.site}/{first.mechanism}: {first.detail})",
            )]
        return []
    early = [d for d in ctx.duplicated.detections if d.time < injected_at]
    if early:
        first = early[0]
        return [Violation(
            "no-false-positive",
            f"detection at t={first.time:.3f} precedes injection at "
            f"t={injected_at:.3f} ({first.site}/{first.mechanism})",
        )]
    return []


def _check_isolation(ctx: OutcomeContext) -> List[Violation]:
    fault = ctx.scenario.fault
    if fault is None or not ctx.runs_ok:
        return []
    wrong = [d for d in ctx.duplicated.detections
             if d.replica != fault.replica]
    if wrong:
        first = wrong[0]
        return [Violation(
            "isolation",
            f"healthy replica {first.replica} implicated at "
            f"t={first.time:.3f} ({first.site}/{first.mechanism}) while "
            f"the fault is in replica {fault.replica}",
        )]
    return []


def _check_detection_latency(ctx: OutcomeContext) -> List[Violation]:
    fault = ctx.scenario.fault
    if fault is None or not ctx.runs_ok:
        return []
    duplicated = ctx.duplicated
    overall = duplicated.detection_latency()
    if overall is None:
        return [Violation(
            "detection-latency",
            f"{fault.kind} fault at t={ctx.injected_at:.3f} was never "
            f"detected within the {ctx.scenario.tokens}-token run",
        )]
    if fault.kind != FAIL_STOP:
        return []
    violations = []
    per_site = (
        ("selector", duplicated.latency_selector,
         ctx.sizing.selector_detection_bound),
        ("replicator", duplicated.latency_replicator,
         ctx.sizing.replicator_detection_bound),
    )
    for site, latency, bound in per_site:
        if latency is not None and latency > bound + LATENCY_TOLERANCE:
            violations.append(Violation(
                "detection-latency",
                f"{site} latency {latency:.3f} ms exceeds the Eq. 8 "
                f"bound {bound:.3f} ms",
            ))
    return violations


def _check_equivalence(ctx: OutcomeContext) -> List[Violation]:
    if not ctx.runs_ok:
        return []
    reference, duplicated = ctx.reference, ctx.duplicated
    violations = []
    if duplicated.value_hashes != reference.value_hashes:
        length = min(len(duplicated.value_hashes),
                     len(reference.value_hashes))
        prefix = length
        for i in range(length):
            if duplicated.value_hashes[i] != reference.value_hashes[i]:
                prefix = i
                break
        violations.append(Violation(
            "equivalence",
            f"consumer stream diverges from the reference network at "
            f"token {prefix} (reference delivered "
            f"{len(reference.value_hashes)} tokens, duplicated "
            f"{len(duplicated.value_hashes)})",
        ))
    if duplicated.stalls != 0:
        violations.append(Violation(
            "equivalence",
            f"consumer stalled {duplicated.stalls} time(s) — Theorem 2 "
            f"requires timing equivalence (zero stalls)",
        ))
    return violations


def _check_recovery(ctx: OutcomeContext) -> List[Violation]:
    """Post-recovery equivalence: after the countermeasure completes,
    the duplicated network must behave like Theorem 2 promises again —
    no further detections, the reference stream, and every deadline
    miss of the transient inside the weakly-hard ``(m, k)`` budget and
    confined to ``[injection, completion]``.
    """
    spec = ctx.scenario.recovery
    if spec is None or not ctx.runs_ok:
        return []
    from repro.recovery.weakly_hard import account

    summary = ctx.duplicated.recovery or {}
    attempts = summary.get("attempts", [])
    fault = ctx.scenario.fault
    if fault is None:
        if attempts:
            first = attempts[0]
            return [Violation(
                "recovery",
                f"countermeasure fired at t={first['detected_at']:.3f} "
                f"in a fault-free run (a recovery needs a fault)",
            )]
        return []
    if not attempts:
        return [Violation(
            "recovery",
            f"{fault.kind} fault at t={ctx.injected_at:.3f} never "
            f"triggered the countermeasure manager",
        )]
    if not spec.respawn:
        # Fail-safe isolation: the replica stays quarantined; there is
        # no post-recovery regime to re-establish.
        return []
    violations = []
    incomplete = [a for a in attempts if a.get("completed_at") is None]
    if incomplete:
        return [Violation(
            "recovery",
            f"recovery of replica {incomplete[0]['replica'] + 1} "
            f"(detected t={incomplete[0]['detected_at']:.3f}) never "
            f"completed within the {ctx.scenario.tokens}-token run",
        )]
    completed_at = max(a["completed_at"] for a in attempts)
    late = [d for d in ctx.duplicated.detections
            if d.time > completed_at + LATENCY_TOLERANCE]
    if late:
        first = late[0]
        violations.append(Violation(
            "recovery",
            f"detection at t={first.time:.3f} "
            f"({first.site}/{first.mechanism}) after recovery claimed "
            f"completion at t={completed_at:.3f} — Theorem 2 was not "
            f"re-established",
        ))
    if ctx.duplicated.value_hashes != ctx.reference.value_hashes:
        violations.append(Violation(
            "recovery",
            "post-recovery consumer stream differs from the reference "
            "network (recovered run must still deliver Theorem 2 "
            "values)",
        ))
    acct = account(
        ctx.reference.times,
        ctx.duplicated.times,
        spec.m,
        spec.k,
        spec.miss_tolerance_ms,
    )
    if not acct.within_budget:
        violations.append(Violation(
            "recovery",
            f"weakly-hard budget exceeded: {acct.worst_window} misses "
            f"in a {spec.k}-token window (allowed m={spec.m})",
        ))
    if not acct.confined_to(ctx.injected_at, completed_at):
        violations.append(Violation(
            "recovery",
            f"{acct.misses} deadline miss(es) outside the recovery "
            f"window [{ctx.injected_at:.3f}, {completed_at:.3f}]",
        ))
    return violations


#: All oracles, in report order.
ALL_ORACLES: Tuple[Oracle, ...] = (
    Oracle(
        name="run-ok",
        claim="a correctly sized network completes its run",
        check=_check_run_ok,
    ),
    Oracle(
        name="no-false-positive",
        claim="Eq. 3/Eq. 5 sizing admits zero fault-free detections",
        check=_check_no_false_positive,
    ),
    Oracle(
        name="isolation",
        claim="Lemma 1: only the faulty replica is ever implicated",
        check=_check_isolation,
    ),
    Oracle(
        name="detection-latency",
        claim="Eqs. 6-8: faults are detected within the latency bound",
        check=_check_detection_latency,
    ),
    Oracle(
        name="equivalence",
        claim="Theorem 2: consumer stream identical to the reference",
        check=_check_equivalence,
    ),
    Oracle(
        name="recovery",
        claim="post-recovery equivalence within the weakly-hard budget",
        check=_check_recovery,
    ),
)

_BY_NAME = {oracle.name: oracle for oracle in ALL_ORACLES}


def oracles_by_name(
    names: Optional[Sequence[str]] = None,
) -> Tuple[Oracle, ...]:
    """Resolve oracle names (``None`` or empty means *all*)."""
    if not names:
        return ALL_ORACLES
    unknown = sorted(set(names) - set(_BY_NAME))
    if unknown:
        known = ", ".join(sorted(_BY_NAME))
        raise OracleError(
            f"unknown oracle(s) {', '.join(unknown)}; known: {known}"
        )
    # Preserve canonical order, drop duplicates.
    wanted = set(names)
    return tuple(o for o in ALL_ORACLES if o.name in wanted)


def judge(
    sized: SizedScenario,
    reference: TaskResult,
    duplicated: TaskResult,
    oracles: Sequence[Oracle] = ALL_ORACLES,
) -> Tuple[Violation, ...]:
    """Every violation ``oracles`` prove on one executed scenario.

    The one place a (reference, duplicated) result pair is judged: the
    campaign's main batch and each shrink candidate both come here.
    Violations are in oracle order.
    """
    ctx = OutcomeContext(
        scenario=sized.scenario,
        sizing=sized.applied_sizing(),
        reference=reference,
        duplicated=duplicated,
    )
    violations: List[Violation] = []
    for oracle in oracles:
        violations.extend(oracle(ctx))
    return tuple(violations)
