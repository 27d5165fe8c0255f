"""Paired performance gates: ledger overhead and multi-batch sweep gain.

Run with ``PYTHONPATH=src python -m repro.tools.gates``.  Both gates
interleave their A and B sides within one measurement loop, so host
frequency drift hits both equally and cancels out of the ratio; that is
what lets them hold a fixed budget on any host, where sequential timing
pairs cannot.  The module takes no options: it prints both readings and
exits 1 when either budget is breached, else 0.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

#: Budget for the streaming overhead, percent of the plain sweep.
OBS_OVERHEAD_PCT = 5.0

#: Minimum multi-batch speedup (legacy-executor time / current time)
#: demanded from :func:`measure_sweep_gain`.  The structural target is
#: >= 2x (dedup halves a 50 %-duplicate batch and the persistent pool
#: amortises fork startup); the floor is softer so load spikes on shared
#: CI runners don't flake the build.
SWEEP_GAIN_MIN = 1.5


def measure_obs_overhead(rounds: int = 40) -> float:
    """Measure the streaming overhead with interleaved A/B rounds.

    The plain and the ledger-streaming sweep alternate within one
    measurement loop, so host frequency drift hits both sides equally
    and cancels out of the ratio — sequentially-run benchmark pairs
    cannot resolve a 5 % budget on a drifting host.  The workload is
    campaign-representative (six 500-token synthetic reference tasks;
    the ledger cost is a fixed two records per task, so toy tasks
    would measure the JSONL encoder, not the streaming design).
    Returns the percent by which the best streamed round exceeds the
    best plain round (min-vs-min, the noise-robust statistic).
    """
    from repro.apps.synthetic import SyntheticApp
    from repro.exec import TaskSpec, run_sweep
    from repro.obs import LedgerWriter

    app = SyntheticApp.bursty(seed=3)
    sizing = app.sizing()
    specs = [TaskSpec.reference(app, 500, seed, sizing=sizing)
             for seed in range(1, 7)]
    run_sweep(specs)  # warm code paths and allocator before timing
    best_off = best_on = float("inf")
    with tempfile.TemporaryDirectory() as tmp:
        with LedgerWriter(Path(tmp) / "obs-overhead.ledger") as ledger:
            for _ in range(rounds):
                begin = time.perf_counter()
                run_sweep(specs)
                best_off = min(best_off, time.perf_counter() - begin)
                begin = time.perf_counter()
                run_sweep(specs, ledger=ledger)
                best_on = min(best_on, time.perf_counter() - begin)
    return (best_on / best_off - 1.0) * 100.0


def obs_overhead_check(overhead_pct: float) -> Optional[str]:
    """A failure line when the streaming overhead breaks its budget;
    ``None`` when within :data:`OBS_OVERHEAD_PCT`."""
    if overhead_pct <= OBS_OVERHEAD_PCT:
        return None
    return (
        f"streaming overhead {overhead_pct:+.1f} % exceeds the "
        f"{OBS_OVERHEAD_PCT:.1f} % budget (interleaved streamed-vs-plain "
        "sweep, paired within this run)"
    )


def sweep_gain_specs():
    """The 50 %-duplicate scenario matrix the multi-batch gate runs.

    Six unique 30-token synthetic reference specs, each appearing twice —
    the duplicate fraction campaign batches exhibit when scenario axes
    overlap (and the published dedup target: half the batch shares
    digests with the other half).
    """
    from repro.apps.synthetic import SyntheticApp
    from repro.exec import TaskSpec

    app = SyntheticApp.bursty(seed=3)
    sizing = app.sizing()
    unique = [
        TaskSpec.reference(app, 30, seed, sizing=sizing)
        for seed in range(1, 7)
    ]
    return unique + unique


def measure_sweep_gain(
    rounds: int = 5, batches: int = 3, jobs: int = 2
) -> float:
    """Multi-batch sweep speedup of the current executor over the
    pre-persistent-pool one, measured with interleaved A/B rounds.

    Each round times ``batches`` consecutive sweeps of the 50 %-duplicate
    matrix (:func:`sweep_gain_specs`, jobs=2, no cache) twice: once
    through the *legacy* configuration — a fresh pool per batch, no
    dedup, static chunking (``dedup=False, persistent=False,
    target_chunk_s=None``) — and once through the current default — one
    persistent warm pool reused across all batches, digest dedup on.
    Legacy and current alternate within one loop so host frequency drift
    hits both sides equally, and the returned gain is min-vs-min:
    ``best legacy time / best current time`` (> 1 means faster now).
    The gain is structural — fewer executions and fewer forks — so it
    holds on single-core runners where raw pool parallelism cannot.
    """
    from repro.exec import SweepExecutor

    specs = sweep_gain_specs()

    def legacy_run() -> float:
        begin = time.perf_counter()
        for _ in range(batches):
            SweepExecutor(
                jobs=jobs, dedup=False, persistent=False,
                target_chunk_s=None,
            ).run(specs)
        return time.perf_counter() - begin

    def current_run() -> float:
        begin = time.perf_counter()
        with SweepExecutor(jobs=jobs) as executor:
            for _ in range(batches):
                executor.run(specs)
        return time.perf_counter() - begin

    legacy_run()  # warm imports, allocator and fork machinery
    current_run()
    best_legacy = best_current = float("inf")
    for _ in range(rounds):
        best_legacy = min(best_legacy, legacy_run())
        best_current = min(best_current, current_run())
    return best_legacy / best_current


def sweep_gain_check(gain: float) -> Optional[str]:
    """A failure line when the multi-batch sweep gain falls below
    :data:`SWEEP_GAIN_MIN`; ``None`` when at or above the floor."""
    if gain >= SWEEP_GAIN_MIN:
        return None
    return (
        f"multi-batch sweep gain {gain:.2f}x is below the "
        f"{SWEEP_GAIN_MIN:.2f}x floor (persistent pool + dedup vs "
        "per-batch legacy executor, interleaved within this run)"
    )


def main() -> int:
    """Run both gates, print their readings; 1 on any breach, else 0."""
    overhead = measure_obs_overhead()
    print(f"streaming obs overhead (interleaved): {overhead:+.1f} % "
          f"(budget {OBS_OVERHEAD_PCT:.1f} %)")
    gain = measure_sweep_gain()
    print(f"multi-batch sweep gain (interleaved): {gain:.2f}x "
          f"(floor {SWEEP_GAIN_MIN:.2f}x)")
    failures = [line for line in (obs_overhead_check(overhead),
                                  sweep_gain_check(gain)) if line]
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    if failures:
        return 1
    print("OK: both paired gates within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
