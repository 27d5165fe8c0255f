"""Property tests: step machines are observationally equivalent to the
generators they replace.

The hand-written step machines are admissible only if they never change
observable behaviour (DESIGN.md determinism policy).  The golden suite
pins nine fixed scenarios; these properties search the space of
*random* linear pipelines — random PJD timings, stage mixes, capacities
and seeds — and require the complete per-channel event streams to be
byte-identical whether each process runs as its machine or through the
``behavior()`` generator adapter.
"""

import json

import pytest
from hypothesis import given, strategies as st

from repro.kpn import stepmachine
from repro.kpn.network import Network
from repro.kpn.process import (
    FunctionProcess,
    PacedRelay,
    PeriodicConsumer,
    PeriodicSource,
)
from repro.kpn.trace import TraceRecorder
from repro.kpn.tracefile import recorder_to_dict
from repro.rtc.pjd import PJD

from .strategies import jitters, periods


@st.composite
def pipeline_specs(draw):
    """A random linear pipeline: source → stages → consumer."""
    period = draw(periods(min_value=5.0, max_value=30.0))
    jitter = draw(jitters(max_value=0.8 * period))
    tokens = draw(st.integers(min_value=3, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    capacity = draw(st.integers(min_value=1, max_value=5))
    stages = draw(st.lists(
        st.sampled_from(["fn", "relay"]), min_size=0, max_size=3
    ))
    service = draw(st.floats(min_value=0.0, max_value=0.5 * period,
                             allow_nan=False, allow_infinity=False))
    return dict(period=period, jitter=jitter, tokens=tokens, seed=seed,
                capacity=capacity, stages=stages, service=service)


def build_pipeline(spec):
    recorder = TraceRecorder(record_events=True)
    net = Network("prop", recorder=recorder)
    src = net.add_process(PeriodicSource(
        "src", PJD(spec["period"], jitter=spec["jitter"]),
        spec["tokens"], seed=spec["seed"],
    ))
    upstream = src
    for index, kind in enumerate(spec["stages"]):
        if kind == "fn":
            stage = FunctionProcess(
                f"s{index}", lambda v: v + 1,
                service=spec["service"], seed=spec["seed"] + index,
            )
        else:
            stage = PacedRelay(
                f"s{index}",
                PJD(spec["period"], jitter=0.5 * spec["jitter"]),
                seed=spec["seed"] + index,
            )
        net.add_process(stage)
        fifo = net.add_fifo(f"c{index}", spec["capacity"])
        upstream.output = fifo.writer
        stage.input = fifo.reader
        upstream = stage
    consumer = net.add_process(PeriodicConsumer(
        "snk", PJD(spec["period"], jitter=0.25 * spec["jitter"]),
        spec["tokens"], seed=spec["seed"] + 99,
    ))
    last = net.add_fifo("last", spec["capacity"])
    upstream.output = last.writer
    consumer.input = last.reader
    return net, consumer


def run_trace(spec):
    net, consumer = build_pipeline(spec)
    net.run(max_events=20_000)
    payload = recorder_to_dict(net.recorder)
    blob = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()
    return blob, [t.value for t in consumer.tokens], consumer.arrival_times


@given(pipeline_specs())
def test_stepped_equals_generator(spec):
    stepped = run_trace(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stepmachine, "_COMPILERS", {})
        generator = run_trace(spec)
    assert stepped == generator
