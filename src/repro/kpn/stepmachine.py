"""Generator-free, self-polling step machines for the standard shapes.

CPython resumes a generator by re-hydrating its suspended frame; at
engine scale (one resume per yielded operation, millions per campaign)
that frame traffic is the dominant simulator cost.  This module
compiles each standard process shape from
:mod:`repro.kpn.process` into an explicit *step machine*: a closure

    ``step(value, now) -> Operation | None``

that the engine calls exactly where it used to call ``generator.send``.
``value`` is the completed operation's result (a token for reads, else
``None``), ``now`` is the current virtual instant, and a ``None`` return
means the process finished (the ``StopIteration`` analogue).  State
lives in closure cells (``nonlocal``), which CPython loads as fast as
locals — unlike instance attributes, which would make a naive
object-based machine *slower* than the generator it replaces.

Self-polling contract
---------------------

The hand-written machines go one step further than transliterating the
generator: they poll their channels *internally* and complete
immediately-satisfiable reads and writes without returning to the
engine, eliminating one engine round-trip (step call + operation
dispatch) per non-blocking channel operation.  A machine only ever
returns

* ``Delay`` — virtual time must advance (only the engine can do that);
* a ``Read``/``Write`` whose poll did **not** commit — the engine
  re-polls it (failed polls are idempotent: ``empty``/``full``/``wait``
  mutate nothing) and parks or schedules the retry exactly as it does
  for generator processes;
* ``None`` — the process finished.

Because every committed channel operation still happens at the same
virtual instant, inside the same engine event, and triggers the same
``retry`` wake calls against the engine's shared sequence counter, the
observable event order — and therefore every trace — is byte-identical
to generator execution.  The golden-trace suite and the Hypothesis
equivalence properties pin this.

Every machine is otherwise a field-exact transliteration of the
corresponding generator body: the same floating-point expressions in
the same order, the same RNG draw sequence, the same error messages.

Processes without a hand-written machine (application shapes such as
``SplitStream``, baseline monitors, test processes) fall back to
:func:`generator_stepfn`, a thin adapter over their ``behavior()``
generator — the engine therefore runs *every* network, it is simply
fastest for the shapes that dominate event counts.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional, Tuple

import numpy as np

from repro.kpn.errors import ProtocolError
from repro.kpn.operations import Delay, Operation, Read, Write
from repro.kpn.process import (
    FunctionProcess,
    PacedRelay,
    PeriodicConsumer,
    PeriodicSource,
    Process,
    RecordingSink,
    cached_pjd_schedule,
)
from repro.kpn.tokens import Token

_tuple_new = tuple.__new__

#: ``step`` signature every machine (and the generator adapter) exposes.
StepFn = Callable[[Any, float], Optional[Operation]]


def generator_stepfn(process: Process) -> Tuple[StepFn, Any]:
    """Adapter: drive an arbitrary ``behavior()`` generator through the
    stepped engine contract.  Returns ``(step, generator)`` — the engine
    keeps the generator so :meth:`Simulator.kill` can close it."""
    generator = process.behavior()
    send = generator.send

    def step(value: Any, now: float) -> Optional[Operation]:
        try:
            return send(value)
        except StopIteration:
            return None

    return step, generator


# -- hand-written machines ---------------------------------------------------
#
# State encoding: a small nonlocal int.  0 = first step (build schedule,
# verify wiring — the work a generator does on its first ``send``);
# positive states name the engine return the machine is suspended at:
# _AFTER_DELAY — a Delay completed, _AFTER_WRITE — a blocked write was
# committed by the engine's wake re-poll, _AFTER_READ — a blocked read
# was committed (``value`` is the token).

_AFTER_DELAY = 1
_AFTER_WRITE = 2
_AFTER_READ = 3

#: Internal phases of the read→service→emit machines.
_PH_READ = 0
_PH_SERVICE = 1
_PH_EMIT = 2


def _source_stepfn(process: PeriodicSource) -> StepFn:
    state = 0
    index = 0
    schedule: Tuple[float, ...] = ()
    count = process.count
    before = 0.0
    payload = process.payload
    name = process.name
    release_append = process.release_times.append
    commit_append = process.commit_times.append
    delay_op = Delay(0.0)
    write_op: Optional[Write] = None
    poll: Any = None
    windex = 0

    def step(value: Any, now: float) -> Optional[Operation]:
        nonlocal state, index, schedule, before, write_op, poll, windex
        if state == _AFTER_WRITE:
            # The engine's wake re-poll committed the blocked write.
            commit_append(now)
            if now > before + 1e-12:
                process.blocked_writes += 1
            index += 1
            released = False
        elif state == _AFTER_DELAY:
            # The release delay completed — token ``index`` goes out now.
            released = True
        else:  # first step
            output = process.output
            if output is None:
                raise ProtocolError(
                    f"{name}: output endpoint not connected"
                )
            schedule = cached_pjd_schedule(
                process.timing, count, process.seed, process.start
            )
            write_op = Write(output, None)
            poll = write_op.poll
            windex = write_op.index
            released = False
        while True:
            if not released:
                if index >= count:
                    return None
                wait = schedule[index] - now
                if wait > 0:
                    state = _AFTER_DELAY
                    delay_op.duration = wait
                    return delay_op
            released = False
            if payload is not None:
                payload_value, size = payload(index)
            else:
                payload_value = index
                size = 0
            token = _tuple_new(
                Token, (payload_value, index + 1, now, size, name)
            )
            release_append(now)
            before = now
            status, _ = poll(windex, token, now)
            if status == "ok":
                # Committed at the release instant: ``now == before``,
                # so the generator's blocked-write test is skipped too.
                commit_append(now)
                index += 1
                continue
            write_op.token = token
            state = _AFTER_WRITE
            return write_op

    return step


def _consumer_stepfn(process: PeriodicConsumer) -> StepFn:
    state = 0
    index = 0
    schedule: Tuple[float, ...] = ()
    count = process.count
    attempt = 0.0
    keep = process.keep_values
    tie_epsilon = process.TIE_EPSILON
    arrival_append = process.arrival_times.append
    token_append = process.tokens.append
    delay_op = Delay(0.0)
    read_op: Optional[Read] = None
    poll: Any = None
    rindex = 0

    def step(value: Any, now: float) -> Optional[Operation]:
        nonlocal state, index, schedule, attempt, read_op, poll, rindex
        if state == _AFTER_READ:
            # The engine's wake re-poll committed the stalled read.
            if now > attempt + 1e-12:
                process.stalls += 1
                process.total_stall_time += now - attempt
            arrival_append(now)
            if keep:
                token_append(value)
            index += 1
            released = False
        elif state == _AFTER_DELAY:
            released = True
        else:  # first step
            if process.input is None:
                raise ProtocolError(
                    f"{process.name}: input endpoint not connected"
                )
            # Pre-shift the schedule by the tie epsilon: the generator
            # computes ``schedule[i] + TIE_EPSILON - now`` per read, and
            # ``(a + b) - c`` with ``a + b`` folded ahead of time is
            # the identical IEEE operation sequence, so waits — and
            # traces — are bit-exact.
            schedule = tuple(
                t + tie_epsilon
                for t in cached_pjd_schedule(
                    process.timing, count, process.seed, process.start
                )
            )
            read_op = Read(process.input)
            poll = read_op.poll
            rindex = read_op.index
            released = False
        while True:
            if not released:
                if index >= count:
                    return None
                wait = schedule[index] - now
                if wait > 0:
                    state = _AFTER_DELAY
                    delay_op.duration = wait
                    return delay_op
            released = False
            attempt = now
            status, payload = poll(rindex, now)
            if status == "ok":
                # Same-instant completion: the stall test is vacuous.
                arrival_append(now)
                if keep:
                    token_append(payload)
                index += 1
                continue
            read_op.retry_at = payload
            state = _AFTER_READ
            return read_op

    return step


def _function_stepfn(process: FunctionProcess) -> StepFn:
    state = 0
    rng: Optional[np.random.Generator] = None
    pending: Optional[Token] = None
    name = process.name
    transform = process.transform
    takes_seqno = process.takes_seqno
    out_size = process.out_size
    service_time = process._service_time
    delay_op = Delay(0.0)
    read_op: Optional[Read] = None
    write_op: Optional[Write] = None
    rpoll: Any = None
    rindex = 0
    wpoll: Any = None
    windex = 0

    def step(value: Any, now: float) -> Optional[Operation]:
        nonlocal state, rng, pending, read_op, write_op
        nonlocal rpoll, rindex, wpoll, windex
        if state == _AFTER_READ:
            token = value
            phase = _PH_SERVICE
        elif state == _AFTER_DELAY:
            token = pending
            pending = None
            phase = _PH_EMIT
        elif state == _AFTER_WRITE:
            process.processed += 1
            token = None
            phase = _PH_READ
        else:  # first step
            if process.input is None or process.output is None:
                raise ProtocolError(f"{name}: endpoints not connected")
            rng = np.random.default_rng(process.seed)
            read_op = Read(process.input)
            write_op = Write(process.output, None)
            rpoll = read_op.poll
            rindex = read_op.index
            wpoll = write_op.poll
            windex = write_op.index
            token = None
            phase = _PH_READ
        while True:
            if phase == _PH_READ:
                status, payload = rpoll(rindex, now)
                if status != "ok":
                    read_op.retry_at = payload
                    state = _AFTER_READ
                    return read_op
                token = payload
                phase = _PH_SERVICE
            if phase == _PH_SERVICE:
                duration = service_time(token, rng)
                if duration > 0:
                    state = _AFTER_DELAY
                    pending = token
                    delay_op.duration = duration
                    return delay_op
                phase = _PH_EMIT
            seqno = token[1]
            if takes_seqno:
                out_value = transform(token[0], seqno)
            else:
                out_value = transform(token[0])
            size = out_size(out_value) if out_size is not None else token[3]
            out_token = _tuple_new(
                Token, (out_value, seqno, now, size, name)
            )
            status, _ = wpoll(windex, out_token, now)
            if status != "ok":
                write_op.token = out_token
                state = _AFTER_WRITE
                return write_op
            process.processed += 1
            phase = _PH_READ

    return step


def _paced_relay_stepfn(process: PacedRelay) -> StepFn:
    state = 0
    rng: Optional[np.random.Generator] = None
    pending: Optional[Token] = None
    half_jitter = 0.0
    nominal = process.start
    previous = -math.inf
    name = process.name
    transform = process.transform
    out_size = process.out_size
    release_append = process.release_times.append
    delay_op = Delay(0.0)
    read_op: Optional[Read] = None
    write_op: Optional[Write] = None
    rpoll: Any = None
    rindex = 0
    wpoll: Any = None
    windex = 0

    def step(value: Any, now: float) -> Optional[Operation]:
        nonlocal state, rng, pending, nominal, previous, half_jitter
        nonlocal read_op, write_op, rpoll, rindex, wpoll, windex
        if state == _AFTER_READ:
            token = value
            phase = _PH_SERVICE
        elif state == _AFTER_DELAY:
            token = pending
            pending = None
            phase = _PH_EMIT
        elif state == _AFTER_WRITE:
            token = None
            phase = _PH_READ
        else:  # first step
            if process.input is None or process.output is None:
                raise ProtocolError(f"{name}: endpoints not connected")
            rng = np.random.default_rng(process.seed)
            half_jitter = process.timing.jitter / 2.0
            read_op = Read(process.input)
            write_op = Write(process.output, None)
            rpoll = read_op.poll
            rindex = read_op.index
            wpoll = write_op.poll
            windex = write_op.index
            token = None
            phase = _PH_READ
        while True:
            if phase == _PH_READ:
                status, payload = rpoll(rindex, now)
                if status != "ok":
                    read_op.retry_at = payload
                    state = _AFTER_READ
                    return read_op
                token = payload
                phase = _PH_SERVICE
            if phase == _PH_SERVICE:
                # ``slowdown`` and the timing model are read live, per
                # token, exactly like the generator — fault injection
                # mutates them mid-run.
                nominal += process.timing.period * process.slowdown
                target = nominal
                if half_jitter > 0:
                    target += rng.uniform(-half_jitter, half_jitter)
                target = max(
                    target,
                    previous + process.timing.min_distance
                    * process.slowdown,
                    now,
                )
                wait = target - now
                if wait > 0:
                    state = _AFTER_DELAY
                    pending = token
                    delay_op.duration = wait
                    return delay_op
                phase = _PH_EMIT
            previous = now
            out_value = (
                transform(token[0]) if transform is not None else token[0]
            )
            size = out_size(out_value) if out_size is not None else token[3]
            out_token = _tuple_new(
                Token, (out_value, token[1], now, size, name)
            )
            release_append(now)
            status, _ = wpoll(windex, out_token, now)
            if status != "ok":
                write_op.token = out_token
                state = _AFTER_WRITE
                return write_op
            phase = _PH_READ

    return step


def _sink_stepfn(process: RecordingSink) -> StepFn:
    state = 0
    records = process.records
    read_op: Optional[Read] = None
    poll: Any = None
    rindex = 0

    def step(value: Any, now: float) -> Optional[Operation]:
        nonlocal state, read_op, poll, rindex
        if state == _AFTER_READ:
            records.append((now, value))
        else:  # first step
            if process.input is None:
                raise ProtocolError(
                    f"{process.name}: input endpoint not connected"
                )
            read_op = Read(process.input)
            poll = read_op.poll
            rindex = read_op.index
            state = _AFTER_READ
        while True:
            # ``limit`` is read live, like the generator's loop condition.
            limit = process.limit
            if limit is not None and len(records) >= limit:
                return None
            status, payload = poll(rindex, now)
            if status != "ok":
                read_op.retry_at = payload
                return read_op
            records.append((now, payload))

    return step


#: Exact-type dispatch: a subclass may override ``behavior`` with
#: different semantics, so only the shapes themselves compile.
_COMPILERS = {
    PeriodicSource: _source_stepfn,
    PeriodicConsumer: _consumer_stepfn,
    FunctionProcess: _function_stepfn,
    PacedRelay: _paced_relay_stepfn,
    RecordingSink: _sink_stepfn,
}


def compile_stepfn(process: Any) -> Tuple[StepFn, Any]:
    """Build the step function for ``process``.

    Returns ``(step, generator_or_None)``: a hand-written machine (and
    ``None``) for the standard shapes, else the generator adapter (and
    the live generator, kept for :meth:`Simulator.kill`).  An instance
    with a ``behavior`` attribute of its own always takes the generator
    path — whatever it yields is authoritative.
    """
    compiler = _COMPILERS.get(type(process))
    if compiler is not None and "behavior" not in process.__dict__:
        return compiler(process), None
    return generator_stepfn(process)
