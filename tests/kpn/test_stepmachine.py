"""Tests for the generator-free step-machine execution core."""

import json

import pytest

from repro.kpn.errors import ProtocolError
from repro.kpn.network import Network
from repro.kpn.operations import Delay
from repro.kpn.process import (
    FunctionProcess,
    PacedRelay,
    PeriodicConsumer,
    PeriodicSource,
    Process,
    RecordingSink,
)
from repro.kpn import stepmachine
from repro.kpn.simulator import Simulator
from repro.kpn.stepmachine import compile_stepfn
from repro.kpn.tracefile import recorder_to_dict
from repro.kpn.trace import TraceRecorder
from repro.rtc.pjd import PJD


def pipeline(seed=7, tokens=12, capacity=4):
    """source → transform → paced relay → sink, fully traced."""
    recorder = TraceRecorder(record_events=True)
    net = Network("p", recorder=recorder)
    src = net.add_process(
        PeriodicSource("src", PJD(10.0, jitter=4.0), tokens, seed=seed)
    )
    fn = net.add_process(
        FunctionProcess("fn", lambda v: v * 2, service=1.5, seed=seed + 1)
    )
    relay = net.add_process(
        PacedRelay("relay", PJD(10.0, jitter=2.0), seed=seed + 2)
    )
    snk = net.add_process(RecordingSink("snk"))
    a = net.add_fifo("a", capacity)
    b = net.add_fifo("b", capacity)
    c = net.add_fifo("c", capacity)
    src.output = a.writer
    fn.input, fn.output = a.reader, b.writer
    relay.input, relay.output = b.reader, c.writer
    snk.input = c.reader
    return net, snk


def trace_bytes(net):
    payload = recorder_to_dict(net.recorder)
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()


class TestCompileStepfn:
    @pytest.mark.parametrize("process", [
        PeriodicSource("s", PJD(10.0), 3),
        PeriodicConsumer("c", PJD(10.0), 3),
        FunctionProcess("f", lambda v: v),
        PacedRelay("r", PJD(10.0)),
        RecordingSink("k"),
    ], ids=lambda p: type(p).__name__)
    def test_standard_shapes_get_handwritten_machines(self, process):
        step, generator = compile_stepfn(process)
        assert callable(step)
        assert generator is None  # trusted machine, no generator kept

    def test_custom_process_falls_back_to_generator_adapter(self):
        class Custom(Process):
            def behavior(self):
                yield Delay(1.0)

        step, generator = compile_stepfn(Custom("x"))
        assert callable(step)
        assert generator is not None

    def test_subclass_of_standard_shape_uses_its_own_behavior(self):
        class Widened(PeriodicSource):
            def behavior(self):
                yield Delay(1.0)

        _step, generator = compile_stepfn(Widened("w", PJD(10.0), 1))
        assert generator is not None


def force_generator_adapter(monkeypatch):
    """Route every process through its ``behavior()`` generator."""
    monkeypatch.setattr(stepmachine, "_COMPILERS", {})


class TestExecModeEquivalence:
    """Hand-written machines against their generator reference."""

    def test_stepped_and_generator_traces_byte_identical(self, monkeypatch):
        net_s, snk_s = pipeline()
        net_s.run()
        force_generator_adapter(monkeypatch)
        net_g, snk_g = pipeline()
        net_g.run()
        assert snk_s.records == snk_g.records
        assert trace_bytes(net_s) == trace_bytes(net_g)

    def test_stepped_is_default(self):
        net, _snk = pipeline()
        sim = net.instantiate()
        for name in net.processes:
            assert sim.handle(name).generator is None, name

    def test_generator_mode_still_runs(self, monkeypatch):
        force_generator_adapter(monkeypatch)
        net, snk = pipeline(tokens=5)
        sim = net.instantiate()
        for name in net.processes:
            assert sim.handle(name).generator is not None, name
        stats = sim.run()
        assert len(snk.records) == 5
        assert stats.events > 0

    def test_protocol_error_on_bad_operation_in_stepped_mode(self):
        class Bad(Process):
            def behavior(self):
                yield "not-an-operation"

        sim = Simulator()
        sim.register(Bad("bad"))
        with pytest.raises(ProtocolError):
            sim.run()

    def test_transition_hook_observes_whole_run(self):
        net, snk = pipeline(tokens=6)
        sim = net.instantiate()
        transitions = []
        sim.set_transition_hook(
            lambda *args: transitions.append(args)
        )
        sim.run()
        assert len(snk.records) == 6
        assert {kind for _t, _p, kind, _d in transitions} >= {
            "start", "compute", "done"
        }
