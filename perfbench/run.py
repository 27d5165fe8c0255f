"""End-to-end benchmark of the fault detection and tolerance framework.

Run from the repository root::

    python3 perfbench/run.py --workload {table2,campaign,stream} \\
        --seed 1 --seconds 20 --trace 0

Every measured execution happens in a fresh child process
(``perfbench/child.py``), so each one pays the cold start a user of
``repro`` pays.  With ``--trace 0`` the harness first starts a few
set-up-only children (``setup_s`` is the median over every set-up it
saw), then runs the workload once per child until the next run would
overshoot ``--seconds``.  ``wall_s`` is the median run.  With
``--trace 1`` it runs one untraced and one traced child and reports the
per-layer table.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.probe import REFERENCE_S  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    REQUESTED_JOBS,
    WORKLOADS,
    pool_jobs,
    usable_cores,
)

#: Set-up-only children per untraced run (each timed child adds one more
#: set-up sample).
SETUP_SAMPLES = 5

#: No child may take longer than this; the whole run must end in 180 s.
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "events_per_s": "1/s",
                    "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def fingerprint() -> dict:
    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = usable_cores()
    return {
        "nproc": nproc,
        "jobs": pool_jobs(),
        "requested_jobs": REQUESTED_JOBS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        # With fewer cores than the pool asks for, parallel workloads
        # measure fork and IPC overhead, not parallel throughput.
        "label": ("overhead-measurement" if nproc < REQUESTED_JOBS
                  else "parallel"),
    }


def spawn(mode: str, args, work_dir: Path) -> dict:
    command = [
        sys.executable, "-m", "perfbench.child", "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--work-dir", str(work_dir),
    ]
    if args.tiny:
        command.append("--tiny")
    spawned_at = time.perf_counter()
    # Its own session, so a timeout can stop the pool workers with it.
    proc = subprocess.Popen(
        command + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise ChildFailed(f"{mode} child timed out after "
                          f"{CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def normalised(report: dict) -> float:
    """The child's timed region in seconds at the reference host speed."""
    return report["wall_s"] * REFERENCE_S / report["probe_s"]


def measure(args, work_dir: Path) -> dict:
    setups = [spawn("setup", args, work_dir)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    runs, took = [], []
    started = time.perf_counter()
    while True:
        at = time.perf_counter()
        report = spawn("timed", args, work_dir)
        took.append(time.perf_counter() - at)
        report["wall_norm_s"] = normalised(report)
        runs.append(report)
        setups.append(report["setup_s"])
        print(f"  run {len(runs)}: wall {report['wall_s']:.3f} s "
              f"({report['wall_norm_s']:.3f} s normalised), setup "
              f"{report['setup_s']:.3f} s, {report['events']} events, "
              f"correct={report['correct']}")
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(took) > args.seconds:
            break
    speed = statistics.mean(r["probe_s"] for r in runs)
    raw_wall = statistics.median(r["wall_s"] for r in runs)
    print(f"  raw medians: wall {raw_wall:.3f} s, setup "
          f"{statistics.median(setups):.3f} s; host probe {speed * 1e3:.3f} "
          f"ms (reference {REFERENCE_S * 1e3:.3f} ms)")
    metrics = {
        "setup_s": statistics.median(setups) * REFERENCE_S / speed,
        "wall_s": statistics.median(r["wall_norm_s"] for r in runs),
        "events_per_s": statistics.median(r["events"] / r["wall_norm_s"]
                                          for r in runs),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }
    return {"runs": runs, "metrics": metrics, "units": END_TO_END_UNITS}


def measure_traced(args, work_dir: Path) -> dict:
    from perfbench.layers import LAYERS, unit_of

    plain = spawn("timed", args, work_dir)
    traced = spawn("traced", args, work_dir)
    if not traced["restored"]:
        raise ChildFailed("a wrapped binding was not restored")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_pct"] = 100.0 * (
        normalised(traced) / normalised(plain) - 1.0)
    print(f"  untraced wall {plain['wall_s']:.3f} s, traced wall "
          f"{traced['wall_s']:.3f} s, {traced['processes']} traced "
          f"process(es), spans cover {metrics['trace.coverage_pct']:.1f}%")
    print(f"  {'layer':<10}{'self_s':>10}{'share':>9}")
    for layer in LAYERS:
        print(f"  {layer:<10}{metrics[layer + '.self_s']:>10.3f}"
              f"{metrics[layer + '.share_pct']:>8.1f}%")
    return {"runs": [plain, traced], "metrics": metrics,
            "units": {name: unit_of(name) for name in metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs (for the benchmark's tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # The build step: byte-compile once so no set-up sample pays it.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src")], check=True, stdout=subprocess.DEVNULL)

    print("fingerprint: " + json.dumps(fingerprint(), sort_keys=True))
    work_dir = ROOT / ".perfbench-work" / str(os.getpid())
    work_dir.mkdir(parents=True)
    try:
        result = (measure_traced if args.trace else measure)(args, work_dir)
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    runs = result["runs"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"  digest {runs[0]['digest'][:16]}  failed_frac "
          f"{failed / attempted if attempted else 1.0:.4f} "
          f"({failed}/{attempted} runs)")
    for name, value in result["metrics"].items():
        print(f"  {name:<28}{value:>16.6g} {result['units'][name]}")
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
