"""Tests of the outside-in tracer: self time, undo, and worker merge."""

import multiprocessing
import os
import pickle
import sys
import time

from perfbench import layers
from perfbench.spans import (
    Patcher,
    Tracer,
    merge_snapshots,
    read_span_files,
    self_time_by_layer,
    span_wrapper,
)


def _nested_toy(tracer):
    def leaf():
        time.sleep(0.002)

    leaf_a = span_wrapper(tracer, "b.leaf", leaf)
    leaf_b = span_wrapper(tracer, "c.leaf", leaf)

    def middle():
        time.sleep(0.001)
        leaf_a()
        leaf_b()

    middle_span = span_wrapper(tracer, "b.middle", middle)

    def root():
        time.sleep(0.001)
        middle_span()
        leaf_a()

    return span_wrapper(tracer, "a.root", root)


def test_self_times_of_nested_spans_sum_to_wall():
    tracer = Tracer()
    root = _nested_toy(tracer)
    started = time.perf_counter()
    root()
    wall = time.perf_counter() - started

    totals = tracer.totals
    root_incl = totals["a.root"][1]
    self_sum = sum(entry[2] for entry in totals.values())
    assert abs(self_sum - root_incl) < 1e-9
    assert root_incl <= wall
    assert tracer.top_s == root_incl
    assert totals["b.leaf"][0] == 2 and totals["c.leaf"][0] == 1
    # Every self time is positive and no larger than its span.
    for calls, incl, own in totals.values():
        assert 0 < own <= incl
    layers_ = self_time_by_layer(totals)
    assert set(layers_) == {"a", "b", "c"}
    assert abs(sum(layers_.values()) - root_incl) < 1e-9


def test_count_only_wrapper_records_no_span():
    tracer = Tracer()
    counted = span_wrapper(tracer, None, lambda x: x * 2,
                           post=lambda t, args, result: t.count("n", result))
    assert counted(3) == 6
    assert tracer.totals == {} and tracer.counters == {"n": 6}


def test_every_rebinding_is_undone():
    import repro.apps.base
    import repro.exec.executor
    import repro.exec.worker
    import repro.rtc.sizing

    original_sizing = repro.rtc.sizing.size_duplicated_network
    patcher = layers.install(Tracer())
    try:
        applied = list(patcher.applied)
        # A name imported by value elsewhere is rebound there too, and
        # the pool entry point stays picklable (pickle checks identity).
        assert (repro.apps.base.size_duplicated_network
                is repro.rtc.sizing.size_duplicated_network
                is not original_sizing)
        assert repro.exec.executor.run_chunk is repro.exec.worker.run_chunk
        assert pickle.loads(pickle.dumps(repro.exec.worker.run_chunk)) \
            is repro.exec.worker.run_chunk
    finally:
        patcher.undo()
    assert patcher.applied == []
    assert len(applied) > 20
    for owner, attr, original in applied:
        current = (vars(owner)[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        assert current is original, (owner, attr)
    assert repro.apps.base.size_duplicated_network is original_sizing


def test_patcher_rebinds_every_alias():
    module_a = type(sys)("fakepkg")
    module_b = type(sys)("fakepkg.user")

    def target():
        return 1

    module_a.target = target
    module_b.alias = target
    sys.modules.update({"fakepkg": module_a, "fakepkg.user": module_b})
    try:
        patcher = Patcher(prefix="fakepkg")
        changed = patcher.function("fakepkg", "target",
                                   lambda fn: lambda: fn() + 1)
        assert changed == 2
        assert module_a.target() == 2 and module_b.alias is module_a.target
        patcher.undo()
        assert module_a.target is target and module_b.alias is target
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.user"]


def _worker_body(tracer, rounds):
    work = span_wrapper(tracer, "w.op", lambda: time.sleep(0.001))
    for _ in range(rounds):
        work()


def test_per_pid_worker_span_files_merge(tmp_path):
    tracer = Tracer(flush_dir=tmp_path)
    os.register_at_fork(after_in_child=tracer.after_fork_in_child)
    try:
        parent_span = span_wrapper(tracer, "p.op", lambda: None)
        frame = tracer.enter("p.open")  # open in the parent at fork time
        context = multiprocessing.get_context("fork")
        workers = [context.Process(target=_worker_body, args=(tracer, n))
                   for n in (2, 3)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive() and worker.exitcode == 0
        tracer.exit(frame)
        parent_span()
    finally:
        tracer.active = False

    files = read_span_files(tmp_path)
    assert len(files) == 2
    assert {snap["pid"] for snap in files} == {w.pid for w in workers}
    # Children started empty: the parent's open span is not theirs.
    for snap in files:
        assert set(snap["totals"]) == {"w.op"}
    merged = merge_snapshots([tracer.snapshot()] + files)
    assert merged["processes"] == 3
    assert merged["totals"]["w.op"][0] == 5
    assert merged["totals"]["p.op"][0] == 1
    assert merged["totals"]["p.open"][0] == 1
