"""Each workload passes its correctness checks at a tiny size, traced
and untraced; the printed metrics match ``BENCHMARK.json``; and the
harness refuses to run without the program."""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.layers import LAYERS
from perfbench.workloads import (
    DEFAULT_SEED,
    HELDOUT_SEED,
    PINNED_DIGESTS,
    WORKLOADS,
)

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170,
    )


@functools.lru_cache(maxsize=None)
def tiny_result(workload: str, trace: int, seed: int) -> dict:
    proc = _bench("--workload", workload, "--seed", str(seed),
                  "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_is_correct(workload):
    # The default seed's tiny digest is pinned, so this also checks it.
    result = tiny_result(workload, 0, DEFAULT_SEED)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_covers_the_wall(workload):
    result = tiny_result(workload, 1, HELDOUT_SEED)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.coverage_pct"] >= 95.0
    shares = sum(metrics[f"{layer}.share_pct"] for layer in LAYERS)
    assert abs(shares - 100.0) < 1e-6


def test_digests_are_pinned_for_default_and_heldout_seeds():
    for name in WORKLOADS:
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            for tiny in (False, True):
                assert len(PINNED_DIGESTS[(name, seed, tiny)]) == 64


@pytest.mark.parametrize("section,trace",
                         [("end_to_end", 0), ("per_layer", 1)])
def test_benchmark_json_names_every_metric_printed(section, trace):
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload in WORKLOADS:
        result = tiny_result(workload, trace,
                             HELDOUT_SEED if trace else DEFAULT_SEED)
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared, workload


def test_benchmark_json_shape():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "stream", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
