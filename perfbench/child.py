"""One measured process: set a workload up, run it once, judge it.

``python3 -m perfbench.child --mode {setup,timed,traced} --workload W
--seed N --work-dir D --spawned-at T`` prints one JSON line.  ``T`` is
the parent's ``time.perf_counter()`` just before it started this
process; on Linux that clock is system-wide, so ``setup_s`` includes
interpreter start-up.

``setup`` and ``timed`` processes never import the tracing code, so the
end-to-end numbers measure unpatched code.  A ``traced`` process
installs the wrappers before setup (so pool workers fork with them),
undoes them afterwards and reports whether every binding was restored.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest reaped descendant
    (the pool workers, once the pool is shut down)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def rtc_memo_counts():
    from repro.obs.rtccache import rtc_cache_stats

    stats = rtc_cache_stats()
    pjd = [stats["pjd_upper"], stats["pjd_lower"]]
    return {
        "sizing": (stats["sizing"]["hits"], stats["sizing"]["misses"]),
        "pjd": (sum(s["hits"] for s in pjd), sum(s["misses"] for s in pjd)),
    }


def hit_fraction(before, after) -> float:
    hits = after[0] - before[0]
    lookups = hits + after[1] - before[1]
    return hits / lookups if lookups else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.probe import HostProbe
    from perfbench.workloads import WORKLOADS

    tracer = patcher = None
    if args.mode == "traced":
        from perfbench import layers
        from perfbench.spans import Tracer

        span_dir = args.work_dir / f"spans-{os.getpid()}"
        span_dir.mkdir()
        tracer = Tracer(flush_dir=span_dir,
                        keep_durations=layers.KEEP_DURATIONS)
        os.register_at_fork(after_in_child=tracer.after_fork_in_child)
        patcher = layers.install(tracer)
        originals = list(patcher.applied)

    workload = WORKLOADS[args.workload](args.seed, args.work_dir,
                                        tiny=args.tiny)
    workload.setup()
    report = {"setup_s": time.perf_counter() - args.spawned_at,
              "pid": os.getpid()}
    if args.mode == "setup":
        workload.close()
        print(json.dumps(report))
        return 0

    if tracer is not None:
        memo_before = rtc_memo_counts()
        tracer.reset()
    with HostProbe() as probe:
        started = time.perf_counter()
        raw = workload.run()
        report["wall_s"] = time.perf_counter() - started
    report["probe_s"] = probe.mean_s()
    try:
        outcome = workload.check(raw)
    finally:
        workload.close()
    report.update(events=outcome.events, attempted=outcome.attempted,
                  failed=outcome.failed, correct=outcome.correct,
                  checks=outcome.checks, digest=outcome.digest,
                  peak_rss_mb=peak_rss_mb())

    if tracer is not None:
        from perfbench import layers
        from perfbench.spans import merge_snapshots, read_span_files

        memo_after = rtc_memo_counts()
        parent = tracer.snapshot()
        tracer.active = False
        patcher.undo()
        report["restored"] = all(
            (vars(owner)[attr] if isinstance(owner, type)
             else getattr(owner, attr)) is original
            for owner, attr, original in originals)
        merged = merge_snapshots([parent] + read_span_files(span_dir))
        report["processes"] = merged["processes"]
        report["layers"] = layers.layer_metrics(
            merged, report["wall_s"], covered_s=parent["top_s"],
            memo={key: hit_fraction(memo_before[key], memo_after[key])
                  for key in memo_before},
            extra=outcome.extra,
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
