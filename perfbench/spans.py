"""Outside-in span tracing for the end-to-end benchmark.

The program under test carries no tracing of its own.  This module wraps
the public entry points of each layer from the outside: a wrapper
records a span (name, start, end, parent) around the call, and the
tracer folds spans into per-name totals as they close.  Nothing is kept
per call except for names that ask for a duration list.

*Self time* of a span is its duration minus the time its direct child
spans cover, so the self times of a span tree sum to the root's
duration.  A layer's self time is the sum over the spans named
``<layer>.<op>``.

Functions are rebound in **every** ``repro.*`` module that holds them
(``from x import f`` copies the reference, so patching the defining
module alone would miss callers — and would break pickling of pool
entry points, which pickle checks by identity).  Methods are rebound on
their class.  :meth:`Patcher.undo` restores every binding it changed.

Pool workers fork from the traced parent after the wrappers go in, so
they inherit them.  A fork handler resets the child's tracer, and the
child writes its cumulative totals to ``spans-<pid>.json`` each time a
top-level span closes (workers leave through ``os._exit``, so there is
no exit hook to rely on).  :func:`read_span_files` sums the files.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

PostHook = Callable[["Tracer", tuple, Any], None]


class Tracer:
    """Per-process span and counter accumulator."""

    def __init__(self, flush_dir: Optional[Path] = None,
                 keep_durations: Iterable[str] = ()) -> None:
        self.flush_dir = flush_dir
        self.keep_durations = frozenset(keep_durations)
        self.owner_pid = os.getpid()
        self.active = True
        self.reset()

    def reset(self) -> None:
        #: Open spans: ``[name, start, child_time]``.
        self.stack: List[list] = []
        #: ``name -> [calls, inclusive_s, self_s]``.
        self.totals: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        #: Summed duration of spans that closed with no parent open.
        self.top_s = 0.0

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        self.stack.pop()
        name = frame[0]
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[2]
        if name in self.keep_durations:
            self.durations.setdefault(name, []).append(duration)
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.top_s += duration
            if self.flush_dir is not None and os.getpid() != self.owner_pid:
                self.flush()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -- fork and flush ----------------------------------------------------

    def after_fork_in_child(self) -> None:
        """Start a forked child empty: the parent's open spans and totals
        belong to the parent."""
        if self.active:
            self.reset()

    def snapshot(self) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "totals": {k: list(v) for k, v in self.totals.items()},
            "counters": dict(self.counters),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "top_s": self.top_s,
        }

    def flush(self) -> None:
        """Write this process's cumulative totals (atomically replaced)."""
        path = self.flush_dir / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum per-process snapshots into one (``pid`` becomes a count)."""
    merged: Dict[str, Any] = {"processes": 0, "totals": {}, "counters": {},
                              "durations": {}}
    for snap in snapshots:
        merged["processes"] += 1
        for name, (calls, incl, self_s) in snap["totals"].items():
            entry = merged["totals"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += self_s
        for name, value in snap["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, values in snap["durations"].items():
            merged["durations"].setdefault(name, []).extend(values)
    return merged


def read_span_files(directory: Path) -> List[Dict[str, Any]]:
    """The per-pid snapshots worker processes left in ``directory``."""
    return [json.loads(path.read_text())
            for path in sorted(directory.glob("spans-*.json"))]


# -- wrappers ---------------------------------------------------------------

def span_wrapper(tracer: Tracer, name: Optional[str], fn: Callable,
                 post: Optional[PostHook] = None) -> Callable:
    """``fn`` wrapped in a span called ``name`` (``None``: no span) and
    followed by ``post(tracer, args, result)``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name) if name is not None else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if frame is not None:
                tracer.exit(frame)
        if post is not None:
            post(tracer, args, result)
        return result

    return wrapper


class Patcher:
    """Rebinds functions and methods, and undoes every rebinding."""

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        #: ``(owner, attribute, original)`` in the order applied.
        self.applied: List[Tuple[object, str, object]] = []

    def _modules(self):
        for module_name, module in list(sys.modules.items()):
            if module is None:
                continue
            if module_name == self.prefix or module_name.startswith(
                    self.prefix + "."):
                yield module

    def function(self, module_name: str, attr: str,
                 make: Callable[[Callable], Callable]) -> int:
        """Rebind ``module_name.attr`` everywhere a ``repro`` module holds
        it.  Returns the number of bindings changed."""
        original = getattr(sys.modules[module_name], attr)
        replacement = make(original)
        changed = 0
        for module in self._modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, replacement)
                    self.applied.append((module, name, original))
                    changed += 1
        return changed

    def method(self, cls: type, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self.applied.append((cls, attr, original))

    def undo(self) -> None:
        for owner, attr, original in reversed(self.applied):
            setattr(owner, attr, original)
        self.applied.clear()


def self_time_by_layer(totals: Dict[str, List[float]]) -> Dict[str, float]:
    """Sum span self times by the layer prefix of their name."""
    layers: Dict[str, float] = {}
    for name, (_calls, _incl, self_s) in totals.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    return layers
