"""Campaign report artifacts (``repro.campaign-report/1``).

One plain-data document per campaign, in the same style as the obs
layer's ``repro.run-report/1``: an in-repo schema
(:data:`CAMPAIGN_REPORT_SCHEMA`, checked by
:func:`validate_campaign_report` through the obs validator), a builder
(:func:`build_campaign_report`) and a human-readable renderer
(:func:`render_campaign_report`).  CI uploads the JSON as the
campaign-smoke artifact; the digest inside is the determinism witness
two runs of the same seed must agree on.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.campaign.engine import CampaignResult, stream_summary
from repro.campaign.oracles import ALL_ORACLES
from repro.obs.report import _validate_node

#: Schema identifier embedded in every campaign report.
CAMPAIGN_SCHEMA_ID = "repro.campaign-report/1"

#: The report contract (leaf values are accepted-type tuples; a list
#: entry describes each element; ``None`` is allowed at any leaf).
CAMPAIGN_REPORT_SCHEMA: Dict[str, Any] = {
    "schema": (str,),                      # == CAMPAIGN_SCHEMA_ID
    "campaign": {
        "seed": (int,),                    # campaign seed
        "budget": (int,),                  # requested scenario count
        "scenarios": (int,),               # executed incl. self-tests
        "digest": (str,),                  # determinism witness
        "oracles": [(str,)],               # active oracle names
        "ok": (bool,),                     # no surviving violations
    },
    "verdicts": {
        "pass": (int,),
        "violation": (int,),
        "expected-violation": (int,),
        "missed-expected-violation": (int,),
    },
    "oracle_stats": [{
        "name": (str,),                    # oracle name
        "claim": (str,),                   # paper claim it checks
        "violations": (int,),              # total violations it raised
    }],
    "scenarios": [{
        "index": (int,),                   # matrix index (negative: self-test)
        "digest": (str,),                  # scenario content digest
        "label": (str,),                   # human-readable identity
        "app": (str,),                     # application name
        "tokens": (int,),                  # producer tokens
        "fault_kind": (str,),              # nullable: fault-free scenario
        "verdict": (str,),                 # pass | violation | expected-...
        "violations": [{
            "oracle": (str,),
            "message": (str,),
        }],
        "latency_selector_ms": (float, int),    # nullable
        "latency_replicator_ms": (float, int),  # nullable
    }],
    "shrunk": [{
        "digest": (str,),                  # original scenario digest
        "target_oracles": [(str,)],        # oracles being preserved
        "from_tokens": (int,),             # original token budget
        "to_tokens": (int,),               # minimal reproducer budget
        "runs": (int,),                    # executions the search spent
        "reduced": (bool,),                # did shrinking make progress?
    }],
    "executor": dict,                      # SweepStats.as_dict() or {}
    "stream": dict,                        # batch-end streaming aggregate
                                           # (percentile digests + fleet
                                           # counters) or {}
}


def build_campaign_report(result: CampaignResult) -> Dict[str, Any]:
    """Flatten a :class:`CampaignResult` into the report document."""
    verdicts = {"pass": 0, "violation": 0, "expected-violation": 0,
                "missed-expected-violation": 0}
    oracle_counts = {oracle.name: 0 for oracle in ALL_ORACLES}
    scenarios: List[Dict[str, Any]] = []
    for outcome in result.outcomes:
        verdicts[outcome.verdict] += 1
        for violation in outcome.violations:
            oracle_counts[violation.oracle] = (
                oracle_counts.get(violation.oracle, 0) + 1
            )
        scenario = outcome.scenario
        scenarios.append({
            "index": scenario.index,
            "digest": outcome.digest,
            "label": scenario.label(),
            "app": scenario.app,
            "tokens": scenario.tokens,
            "fault_kind": (
                scenario.fault.kind if scenario.fault is not None else None
            ),
            "verdict": outcome.verdict,
            "violations": [v.as_dict() for v in outcome.violations],
            "latency_selector_ms": outcome.duplicated.latency_selector,
            "latency_replicator_ms": outcome.duplicated.latency_replicator,
        })

    shrunk = [
        {
            "digest": digest,
            "target_oracles": list(entry.target_oracles),
            "from_tokens": entry.original.scenario.tokens,
            "to_tokens": entry.minimal.scenario.tokens,
            "runs": entry.runs,
            "reduced": entry.reduced,
        }
        for digest, entry in sorted(result.shrunk.items())
    ]

    return {
        "schema": CAMPAIGN_SCHEMA_ID,
        "campaign": {
            "seed": result.seed,
            "budget": result.budget,
            "scenarios": len(result.outcomes),
            "digest": result.digest(),
            "oracles": list(result.oracle_names),
            "ok": result.ok,
        },
        "verdicts": verdicts,
        "oracle_stats": [
            {
                "name": oracle.name,
                "claim": oracle.claim,
                "violations": oracle_counts.get(oracle.name, 0),
            }
            for oracle in ALL_ORACLES
            if oracle.name in result.oracle_names
        ],
        "scenarios": scenarios,
        "shrunk": shrunk,
        "executor": (
            result.stats.as_dict() if result.stats is not None else {}
        ),
        "stream": stream_summary(result.metrics),
    }


#: Schema identifier embedded in every MTTF campaign report.
MTTF_SCHEMA_ID = "repro.mttf-report/1"

#: The MTTF report contract (same validator conventions as above).
MTTF_REPORT_SCHEMA: Dict[str, Any] = {
    "schema": (str,),                      # == MTTF_SCHEMA_ID
    "mttf": {
        "seed": (int,),                    # campaign seed
        "cycles": (int,),                  # inject→recover cycles judged
        "converged": (bool,),              # moving average settled?
        "ok": (bool,),                     # every cycle passed oracles
        "mttf_ms": (float, int),           # nullable: mean time to failure
        "mttr_ms": (float, int),           # nullable: mean time to repair
        "availability": (float, int),      # nullable: MTTF/(MTTF+MTTR)
    },
    "recovery": dict,                      # RecoverySpec.as_dict()
    "verdicts": dict,                      # verdict -> count
    "cycles": [{
        "index": (int,),                   # cycle number
        "label": (str,),                   # scenario identity
        "verdict": (str,),                 # pass | violation | ...
        "ttf_ms": (float, int),            # nullable
        "mttr_ms": (float, int),           # nullable
        "availability": (float, int),      # nullable running estimate
        "violations": [{
            "oracle": (str,),
            "message": (str,),
        }],
    }],
}


def build_mttf_report(result) -> Dict[str, Any]:
    """Flatten a :class:`~repro.campaign.mttf.MttfResult` into the
    ``repro.mttf-report/1`` document."""
    cycles: List[Dict[str, Any]] = []
    for index, cycle in enumerate(result.cycles):
        trace = result.availability_trace
        cycles.append({
            "index": index,
            "label": cycle.outcome.scenario.label(),
            "verdict": cycle.verdict,
            "ttf_ms": cycle.ttf_ms,
            "mttr_ms": cycle.mttr_ms,
            "availability": trace[index] if index < len(trace) else None,
            "violations": [
                v.as_dict() for v in cycle.outcome.violations
            ],
        })
    return {
        "schema": MTTF_SCHEMA_ID,
        "mttf": {
            "seed": result.seed,
            "cycles": len(result.cycles),
            "converged": result.converged,
            "ok": result.ok,
            "mttf_ms": result.mttf_ms,
            "mttr_ms": result.mttr_ms,
            "availability": result.availability,
        },
        "recovery": result.recovery.as_dict(),
        "verdicts": result.verdict_counts(),
        "cycles": cycles,
    }


def validate_mttf_report(report: Dict[str, Any]) -> None:
    """Check a report against :data:`MTTF_REPORT_SCHEMA`."""
    if report.get("schema") != MTTF_SCHEMA_ID:
        raise ValueError(
            f"report schema is {report.get('schema')!r}, expected "
            f"{MTTF_SCHEMA_ID!r}"
        )
    _validate_node(report, MTTF_REPORT_SCHEMA, path="mttf-report")


def render_mttf_report(report: Dict[str, Any]) -> str:
    """Human-readable MTTF campaign summary."""
    head = report["mttf"]
    lines: List[str] = []
    state = "converged" if head["converged"] else "cycle budget hit"
    lines.append(
        f"MTTF campaign: seed={head['seed']} {head['cycles']} cycle(s) "
        f"({state})"
    )

    def fmt(value, digits=2):
        return "n/a" if value is None else f"{value:.{digits}f}"

    lines.append(
        f"  MTTF {fmt(head['mttf_ms'])} ms, MTTR {fmt(head['mttr_ms'])} "
        f"ms, availability {fmt(head['availability'], 6)}"
    )
    verdicts = report["verdicts"]
    lines.append(
        "  verdicts: " + ", ".join(
            f"{count} {name}" for name, count in sorted(verdicts.items())
        )
    )
    recovery = report["recovery"]
    lines.append(
        f"  countermeasure: respawn={recovery.get('respawn')} "
        f"reprime={recovery.get('reprime')} "
        f"response={recovery.get('response_ms')} ms "
        f"(m,k)=({recovery.get('m')},{recovery.get('k')})"
    )
    failures = [c for c in report["cycles"]
                if c["verdict"] not in ("pass", "expected-violation")]
    if failures:
        lines.append("")
        lines.append("Failures")
        for cycle in failures:
            lines.append(
                f"  cycle {cycle['index']} {cycle['label']}  "
                f"[{cycle['verdict']}]"
            )
            for violation in cycle["violations"]:
                lines.append(
                    f"    {violation['oracle']}: {violation['message']}"
                )
    return "\n".join(lines)


def validate_campaign_report(report: Dict[str, Any]) -> None:
    """Check a report against :data:`CAMPAIGN_REPORT_SCHEMA`.

    Raises :class:`ValueError` naming the offending path.
    """
    if report.get("schema") != CAMPAIGN_SCHEMA_ID:
        raise ValueError(
            f"report schema is {report.get('schema')!r}, expected "
            f"{CAMPAIGN_SCHEMA_ID!r}"
        )
    _validate_node(report, CAMPAIGN_REPORT_SCHEMA, path="campaign-report")


def render_campaign_report(report: Dict[str, Any]) -> str:
    """Human-readable campaign summary."""
    campaign = report["campaign"]
    verdicts = report["verdicts"]
    lines: List[str] = []
    lines.append(
        f"Campaign: seed={campaign['seed']} budget={campaign['budget']} "
        f"({campaign['scenarios']} scenarios incl. self-tests)"
    )
    lines.append(f"  digest {campaign['digest']}")
    lines.append(
        f"  {verdicts['pass']} pass, {verdicts['violation']} violation(s), "
        f"{verdicts['expected-violation']} expected violation(s), "
        f"{verdicts['missed-expected-violation']} missed self-test(s)"
    )
    lines.append("")
    lines.append("Oracles")
    for entry in report["oracle_stats"]:
        lines.append(
            f"  {entry['name']:<20} {entry['violations']:>3} violation(s)"
            f"  — {entry['claim']}"
        )
    failures = [s for s in report["scenarios"]
                if s["verdict"] in ("violation",
                                    "missed-expected-violation")]
    if failures:
        lines.append("")
        lines.append("Failures")
        for scenario in failures:
            lines.append(f"  {scenario['label']}  [{scenario['verdict']}]")
            for violation in scenario["violations"]:
                lines.append(
                    f"    {violation['oracle']}: {violation['message']}"
                )
    if report["shrunk"]:
        lines.append("")
        lines.append("Minimal reproducers")
        for entry in report["shrunk"]:
            lines.append(
                f"  {entry['digest'][:16]}...  tokens "
                f"{entry['from_tokens']} -> {entry['to_tokens']} "
                f"({entry['runs']} runs; "
                f"{', '.join(entry['target_oracles'])})"
            )
    executor = report["executor"]
    if executor:
        lines.append("")
        lines.append(
            f"Executor: {executor.get('tasks')} tasks, "
            f"{executor.get('executed')} executed, "
            f"{executor.get('cache_hits')} cache hits, "
            f"jobs={executor.get('jobs')}, "
            f"wall {executor.get('wall_time_s', 0.0):.1f} s"
        )
    stream = report.get("stream") or {}
    latency = (stream.get("percentiles") or {}).get("detect.latency_ms")
    if latency and latency.get("count"):
        counters = stream.get("counters") or {}
        lines.append("")
        lines.append(
            f"Fleet detect.latency_ms (merged sketch, n={latency['count']}):"
            f" p50 {latency['p50']:.2f} ms, p95 {latency['p95']:.2f} ms, "
            f"max {latency['max']:.2f} ms; "
            f"{counters.get('detect.false_positives', 0)} false positive(s)"
        )
    return "\n".join(lines)
