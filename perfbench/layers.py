"""Which entry points of ``src/repro`` the traced run wraps, and the
per-layer metrics computed from the spans and counters they record.

Layers are named after the packages under ``src/repro``.  A span's name
is ``<layer>.<op>``; wrappers without a span only count.  For each layer,
the README lists the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Optional

from perfbench.spans import Patcher, Tracer, self_time_by_layer, span_wrapper

#: Span names whose per-call durations are kept (for percentiles).
KEEP_DURATIONS = ("rtc.size",)

#: Layers whose self time is work (``exec.wait`` is the parent idling
#: on the pool and is reported apart).
LAYERS = ("rtc", "apps", "codec", "kpn", "core", "campaign", "exec", "obs")


def _count_events(tracer: Tracer, _args, stats) -> None:
    tracer.count("kpn.events", stats.events)


def _count_duplicated_run(tracer: Tracer, _args, run) -> None:
    tracer.count("core.detections", len(run.detections))
    tracer.count("core.selector_drops", len(run.selector_drops))
    tracer.count("core.channel_ops", run.network.replicator_ops.calls
                 + run.network.selector_ops.calls)
    if run.injector is not None and run.injector.injected_at is not None:
        tracer.count("faults.injections")
    if run.recovery:
        tracer.count("recovery.countermeasures",
                     sum(1 for attempt in run.recovery.get("attempts", ())
                         if attempt.get("completed_at") is not None))


def _count_sweep(tracer: Tracer, args, _results) -> None:
    stats = args[0].stats
    tracer.count("exec.tasks", stats.tasks)
    tracer.count("exec.busy_s", sum(stats.task_wall_s))
    tracer.count("exec.cache_hits", stats.cache_hits)
    tracer.count("exec.deduped", stats.deduped)
    tracer.count("exec.jobs_x_sweep_s", stats.jobs * stats.wall_time_s)


def _count_shrink(tracer: Tracer, _args, result) -> None:
    tracer.count("campaign.shrink_runs", result.runs)


def install(tracer: Tracer) -> Patcher:
    """Wrap every layer entry point; returns the patcher that undoes it.

    The replicator and selector channel ops are not wrapped: they run
    once per token per replica, and a span there cost ~2.3 us per op
    (+33% wall on ``stream``), more than the ops themselves.  Their
    count comes from the channels' own ``OpCounter``s instead.
    """
    from repro.apps.sources import SyntheticAudio, SyntheticVideo
    from repro.campaign.scenario import ScenarioGenerator
    from repro.codec.adpcm import AdpcmCodec
    from repro.codec.h264 import H264Decoder, H264Encoder
    from repro.codec.jpeg import JpegCodec
    from repro.exec.executor import SweepExecutor
    from repro.kpn.simulator import Simulator
    from repro.obs.ledger import LedgerWriter
    import repro.campaign.engine  # noqa: F401
    import repro.campaign.shrink  # noqa: F401
    import repro.core.duplicate  # noqa: F401
    import repro.exec.pool  # noqa: F401
    import repro.exec.worker  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.rtc.sizing  # noqa: F401

    patcher = Patcher()

    def spanned(name: Optional[str], post=None):
        return lambda fn: span_wrapper(tracer, name, fn, post)

    patcher.function("repro.rtc.sizing", "size_duplicated_network",
                     spanned("rtc.size"))
    patcher.method(SyntheticVideo, "frame", spanned("apps.video"))
    patcher.method(SyntheticAudio, "block", spanned("apps.audio"))
    for cls, attr, name in (
        (JpegCodec, "encode", "codec.jpeg"),
        (JpegCodec, "decode", "codec.jpeg"),
        (AdpcmCodec, "encode_block", "codec.adpcm"),
        (AdpcmCodec, "decode_block", "codec.adpcm"),
        (H264Encoder, "encode_frame", "codec.h264"),
        (H264Decoder, "decode_frame", "codec.h264"),
    ):
        patcher.method(cls, attr, spanned(name))
    patcher.method(Simulator, "run", spanned("kpn.run", _count_events))
    for attr in ("build_duplicated", "build_reference"):
        patcher.function("repro.core.duplicate", attr, spanned("core.build"))
    patcher.function("repro.experiments.runner", "run_duplicated",
                     spanned(None, _count_duplicated_run))
    patcher.method(ScenarioGenerator, "generate",
                   spanned("campaign.generate"))
    patcher.function("repro.campaign.engine", "evaluate_scenario",
                     spanned("campaign.judge"))
    patcher.function("repro.campaign.shrink", "shrink_scenario",
                     spanned("campaign.shrink", _count_shrink))
    patcher.method(SweepExecutor, "run", spanned("exec.sweep", _count_sweep))
    patcher.function("repro.exec.worker", "run_chunk", spanned("exec.chunk"))
    patcher.function("repro.exec.pool", "wait", spanned("exec.wait"))
    patcher.method(LedgerWriter, "emit", spanned("obs.emit"))
    patcher.method(LedgerWriter, "flush", spanned("obs.flush"))
    return patcher


def layer_metrics(merged: Dict[str, Any], wall_s: float, covered_s: float,
                  memo: Dict[str, float], extra: Dict[str, float]
                  ) -> Dict[str, float]:
    """Per-layer metrics from the merged span totals of every process.

    ``covered_s`` is the time the parent's top-level spans cover of its
    ``wall_s``, ``memo`` the parent's RTC memo hit fractions, ``extra``
    the workload's own figures (``obs.bytes``, ``campaign.scenarios``).
    """
    counters = merged["counters"]
    totals = merged["totals"]
    self_s = self_time_by_layer(
        {k: v for k, v in totals.items() if k != "exec.wait"})

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    work = sum(self_s.values()) or 1.0
    rtc_ms = sorted(d * 1e3 for d in merged["durations"].get("rtc.size", ()))
    events = counters.get("kpn.events", 0)
    sweep_x_jobs = counters.get("exec.jobs_x_sweep_s", 0)
    metrics = {
        "rtc.calls": calls("rtc.size"),
        "rtc.call_p50_ms": statistics.median(rtc_ms) if rtc_ms else 0.0,
        "rtc.call_max_ms": rtc_ms[-1] if rtc_ms else 0.0,
        "rtc.memo_hit_frac": memo["sizing"],
        "rtc.pjd_hit_frac": memo["pjd"],
        "apps.frames": calls("apps.video") + calls("apps.audio"),
        "codec.calls": sum(calls(f"codec.{c}")
                           for c in ("jpeg", "adpcm", "h264")),
        "codec.jpeg_s": own("codec.jpeg"),
        "codec.adpcm_s": own("codec.adpcm"),
        "codec.h264_s": own("codec.h264"),
        "kpn.events": events,
        "kpn.us_per_event": own("kpn.run") / events * 1e6 if events else 0.0,
        "core.build_s": incl("core.build"),
        "core.channel_ops": counters.get("core.channel_ops", 0),
        "core.detections": counters.get("core.detections", 0),
        "core.selector_drops": counters.get("core.selector_drops", 0),
        "faults.injections": counters.get("faults.injections", 0),
        "recovery.countermeasures":
            counters.get("recovery.countermeasures", 0),
        "campaign.generate_s": incl("campaign.generate"),
        "campaign.judge_s": incl("campaign.judge"),
        "campaign.shrink_s": incl("campaign.shrink"),
        "campaign.scenarios": extra.get("campaign.scenarios", 0),
        "campaign.shrink_runs": counters.get("campaign.shrink_runs", 0),
        "exec.tasks": counters.get("exec.tasks", 0),
        "exec.sweep_s": incl("exec.sweep"),
        "exec.busy_s": counters.get("exec.busy_s", 0.0),
        "exec.wait_s": incl("exec.wait"),
        "exec.worker_util": (counters.get("exec.busy_s", 0.0) / sweep_x_jobs
                             if sweep_x_jobs else 0.0),
        "exec.cache_hits": counters.get("exec.cache_hits", 0),
        "exec.deduped": counters.get("exec.deduped", 0),
        "obs.records": calls("obs.emit"),
        "obs.bytes": extra.get("obs.bytes", 0),
        "trace.work_s": work,
        "trace.coverage_pct": 100.0 * covered_s / wall_s,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        metrics[f"{layer}.share_pct"] = 100.0 * self_s.get(layer, 0.0) / work
    return metrics


#: Units of the per-layer metrics, by name suffix.
def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_frac") or name.endswith("_util"):
        return "fraction"
    if name.endswith("us_per_event"):
        return "us"
    if name.endswith("bytes"):
        return "bytes"
    return "count"
