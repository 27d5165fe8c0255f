"""The replicator channel (Section 3.1, rules R1-R3; detection: Section 3.3).

One writing interface (the producer ``P``), one reading interface per
replica ``R_1 .. R_n`` (``n = 2`` in the paper).  Internally one FIFO
queue per replica, of capacity ``|R_k|``:

1. each queue has ``fill_k`` / ``space_k`` variables, initially
   ``fill_k = 0``, ``space_k = |R_k|``;
2. each reading interface destructively and blockingly reads its own queue;
3. a write enqueues the token into *every* queue if
   ``min_k space_k > 0``, else it blocks.

Fault detection (Section 3.3) replaces the blocking in rule 3: the queues
were sized by Eq. 3 so that a healthy replica never lets its queue fill up;
finding ``space_k == 0`` at a write instant therefore *is* the detection of
a timing fault in replica ``k`` (``fault_k := TRUE``), after which the
replicator stops inserting tokens into that queue — this is what prevents
the deadlock of the motivational example (Section 1.1): the producer can
no longer block on the faulty side, so the healthy replica keeps running.

A second, "analogous" mechanism (the paper's threshold computation for the
replicator channel) monitors the divergence of the replicas' *consumption*
counts: if ``reads_i - reads_j > D`` then replica ``j`` is consuming too
slowly and is flagged faulty.  With ``n > 2`` replicas every healthy
replica that lags the healthy front by more than ``D`` is flagged, so the
channel keeps serving the survivors down to the last one (``n`` replicas
tolerate ``n - 1`` faults, the paper's Section 1 generalisation).  Pass
``divergence_threshold=None`` to disable it and reproduce the
occupancy-only variant.

No wall-clock or virtual-time values are read by any detection rule —
detection is purely counter-based, the paper's "no runtime time-keeping".
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Sequence, Tuple

from repro.core.detection import (
    MECHANISM_DIVERGENCE,
    MECHANISM_OVERFLOW,
    DetectionLog,
    all_flagged_message,
    lagging,
)
from repro.kpn.errors import ProtocolError, SimulationError
from repro.kpn.channel import ReadEndpoint, WriteEndpoint
from repro.kpn.tokens import Token
from repro.kpn.trace import ChannelTrace


class ReplicatorChannel:
    """A replicator channel with autonomous timing-fault detection.

    Parameters
    ----------
    name:
        Channel name.
    capacities:
        ``(|R_1|, ..., |R_n|)`` from Eq. 3; their count is the number of
        replicas ``n >= 2``.
    divergence_threshold:
        Optional integer ``D`` for consumption-divergence detection
        (Eq. 5 computed on the replica input curves); ``None`` disables.
    transfer_latency:
        Optional ``f(token) -> ms`` communication latency (SCC model).
    traces:
        Optional sequence of :class:`ChannelTrace` (one per queue).
    detection_log:
        Shared :class:`DetectionLog`; a fresh one is created if omitted.
    strict_single_fault:
        When True (default), flagging *every* replica faulty raises
        :class:`SimulationError` — ``n`` replicas admit at most ``n - 1``
        permanent timing faults (one in the paper's setup).
    op_cost:
        Optional callable invoked once per channel operation with the
        number of primitive counter updates performed; feeds the runtime
        overhead accounting of Table 2.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        enabled, every committed operation samples the live ``space_k``
        levels (``chan.<name>.space_k``) and the consumption divergence
        ``max_k reads_k - min_k reads_k`` (``chan.<name>.divergence``,
        ``|reads_1 - reads_2|`` for two replicas) — the quantity the
        Eq. 5 threshold ``D`` bounds at this channel.
    """

    def __init__(
        self,
        name: str,
        capacities: Sequence[int],
        divergence_threshold: Optional[int] = None,
        transfer_latency: Optional[Callable[[Token], float]] = None,
        traces: Optional[Sequence[ChannelTrace]] = None,
        detection_log: Optional[DetectionLog] = None,
        strict_single_fault: bool = True,
        op_cost: Optional[Callable[[int], None]] = None,
        metrics=None,
    ) -> None:
        if len(capacities) < 2:
            raise ValueError("replicator needs at least two queue capacities")
        if any(c < 1 for c in capacities):
            raise ValueError("queue capacities must be >= 1")
        if divergence_threshold is not None and divergence_threshold < 1:
            raise ValueError("divergence threshold must be >= 1")
        self.name = name
        self.capacities = tuple(capacities)
        self.n = n = len(self.capacities)
        #: Replica indices, for the per-op loops.
        self._replicas = tuple(range(n))
        #: Counter updates per write: ``n`` space checks plus enqueue
        #: bookkeeping (3 for the paper's two replicas).
        self._updates_per_write = 1 + n
        self.threshold = divergence_threshold
        self._latency = transfer_latency
        self.traces = traces
        # Note: `or` would misfire here — an empty DetectionLog is falsy.
        self.log = detection_log if detection_log is not None else DetectionLog()
        self.strict_single_fault = strict_single_fault
        self._op_cost = op_cost
        if metrics is not None and metrics.enabled:
            self._m_space = tuple(
                metrics.timeseries(f"chan.{name}.space_{k + 1}")
                for k in self._replicas
            )
            self._m_div = metrics.timeseries(f"chan.{name}.divergence")
        else:
            self._m_space = None
            self._m_div = None
        self._queues: Tuple[Deque, ...] = tuple(deque() for _ in range(n))
        self.fault = [False] * n
        self.reads = [0] * n
        self.writes = 0
        #: Interface under post-countermeasure catch-up (see
        #: :meth:`reprime`, two replicas only); consumption-divergence
        #: detection is muted until the healthy replica's read counter
        #: catches back up.
        self._recovering: Optional[int] = None
        self._sim = None
        self._parked_readers: Tuple[Deque, ...] = tuple(
            deque() for _ in range(n)
        )
        self._parked_writers: Deque = deque()

    # -- wiring -------------------------------------------------------------

    def bind(self, sim) -> None:
        """Attach the simulator used to wake parked processes."""
        self._sim = sim

    @property
    def writer(self) -> WriteEndpoint:
        """The producer-facing write endpoint."""
        return WriteEndpoint(self, 0)

    def reader(self, replica: int) -> ReadEndpoint:
        """The read endpoint of replica ``replica`` (``0 .. n-1``)."""
        if replica not in self._replicas:
            raise ValueError(f"replica index must be in 0..{self.n - 1}")
        return ReadEndpoint(self, replica)

    # -- state --------------------------------------------------------------

    def fill(self, replica: int) -> int:
        """``fill_k`` — tokens currently queued for replica ``replica``."""
        return len(self._queues[replica])

    def space(self, replica: int) -> int:
        """``space_k`` — free capacity of queue ``replica``."""
        return self.capacities[replica] - len(self._queues[replica])

    # -- detection helpers ------------------------------------------------

    def _charge(self, operations: int) -> None:
        if self._op_cost is not None:
            self._op_cost(operations)

    def _sample(self, now: float) -> None:
        """Record the live occupancy and divergence signals (cold path)."""
        for k, series in enumerate(self._m_space):
            series.append(now, self.space(k))
        self._m_div.append(now, max(self.reads) - min(self.reads))

    def _flag(self, replica: int, mechanism: str, now: float, detail: str) -> None:
        if self.fault[replica]:
            return
        self.fault[replica] = True
        self.log.record(now, "replicator", replica, mechanism, detail)
        if self.strict_single_fault and all(self.fault):
            raise SimulationError(
                all_flagged_message(self.name, self.n, "FIFO capacities")
            )
        # The faulty queue will never be written again; a parked reader on
        # it would wait forever, which models the faulty replica stalling.

    def quarantine(self, replica: int) -> None:
        """Mark a replica faulty without recording a detection.

        Used by the multi-port fault coordinator when *another* channel
        of the same replica detected the fault: the replica is condemned
        as a whole (Section 2's fault model is per replica, not per
        channel), so this channel stops serving it too.
        """
        if not self.fault[replica]:
            self.fault[replica] = True

    # -- recovery -----------------------------------------------------------

    def reprime(self, replica: int) -> int:
        """Re-prime interface ``replica`` for a respawned generation.

        The stale queue is flushed (its tokens were meant for the dead
        generation), the read counter fast-forwards to the producer's
        write counter — the respawned replica starts exactly at the live
        input frontier — and the fault flag clears so rule R3 enqueues
        into this queue again.  The consumption-divergence check is
        muted until the *healthy* replica's read counter has caught back
        up to the recovered one's (the fast-forward put the recovered
        counter ahead by the healthy backlog; that offset is transient
        bookkeeping, not divergence).  Occupancy-based detection stays
        armed throughout — a failed respawn fills the queue and is
        re-detected.  Returns the number of flushed tokens.

        Recovery is defined for the paper's two replicas only; a channel
        with ``n != 2`` replicas raises :class:`ValueError`.
        """
        if self.n != 2:
            raise ValueError(
                f"recovery needs exactly two replicas, not {self.n}"
            )
        if replica not in (0, 1):
            raise ValueError("replica index must be 0 or 1")
        flushed = len(self._queues[replica])
        self._queues[replica].clear()
        self.reads[replica] = self.writes
        self.fault[replica] = False
        self._recovering = replica
        return flushed

    def _check_divergence(self, now: float) -> None:
        # Muted while a replica is recovering (two replicas only).  No
        # replica can lag the healthy front by more than D while the
        # spread over all of them is within D: the per-op fast path,
        # one subtraction for the paper's pair (two max/min builtin
        # calls per op measurably slow the stream workload).
        threshold = self.threshold
        if threshold is None or self._recovering is not None:
            return
        reads = self.reads
        if self.n == 2:
            # A flagged replica leaves one healthy: nothing to compare.
            if (-threshold <= reads[0] - reads[1] <= threshold
                    or True in self.fault):
                return
        elif max(reads) - min(reads) <= threshold:
            return
        for k in lagging(reads, self.fault, threshold):
            self._flag(
                k,
                MECHANISM_DIVERGENCE,
                now,
                f"reads={'/'.join(map(str, self.reads))} D={self.threshold}",
            )

    # -- channel protocol (engine-facing) -----------------------------------

    def poll_read(self, index: int, now: float):
        if index not in self._replicas:
            raise ProtocolError(f"{self.name}: bad read interface {index}")
        queue = self._queues[index]
        self._charge(1)  # fill/space update of one queue
        if not queue:
            return ("empty", None)
        ready, token = queue[0]
        if ready > now + 1e-12:
            return ("wait", ready)
        queue.popleft()
        self.reads[index] += 1
        if self._recovering is not None:
            recovering = self._recovering
            if self.reads[1 - recovering] >= self.reads[recovering]:
                self._recovering = None
        if self.traces is not None:
            self.traces[index].on_read(now, token.seqno, index)
        if self._m_div is not None:
            self._sample(now)
        self._check_divergence(now)
        self._wake(self._parked_writers)
        return ("ok", token)

    def poll_write(self, index: int, token: Token, now: float):
        if index != 0:
            raise ProtocolError(f"{self.name}: bad write interface {index}")
        # n space checks + enqueue bookkeeping
        self._charge(self._updates_per_write)
        # Occupancy-based detection (Section 3.3): a full healthy queue at a
        # write instant means that replica stopped (or slowed) consuming.
        for k in self._replicas:
            if not self.fault[k] and self.space(k) == 0:
                self._flag(
                    k,
                    MECHANISM_OVERFLOW,
                    now,
                    f"space_{k + 1}=0 at write of seq {token.seqno}",
                )
        targets = [k for k in self._replicas if not self.fault[k]]
        if not targets:
            # Only reachable with strict_single_fault=False.
            return ("full", None)
        delay = self._latency(token) if self._latency is not None else 0.0
        for k in targets:
            self._queues[k].append((now + delay, token))
            if self.traces is not None:
                self.traces[k].on_write(now, token.seqno, k)
        self.writes += 1
        if self._m_div is not None:
            self._sample(now)
        for k in targets:
            self._wake(self._parked_readers[k])
        return ("ok", None)

    def park_reader(self, index: int, handle) -> None:
        if not handle.is_parked:
            handle.is_parked = True
            self._parked_readers[index].append(handle)

    def park_writer(self, index: int, handle) -> None:
        if not handle.is_parked:
            handle.is_parked = True
            self._parked_writers.append(handle)

    # -- internals ------------------------------------------------------------

    def _wake(self, parked: Deque) -> None:
        # FIFO wake order (see Fifo._wake): deterministic retry sequence.
        sim = self._sim
        while parked:
            handle = parked.popleft()
            handle.is_parked = False
            if sim is not None:
                sim.retry(handle)

    def __repr__(self) -> str:
        fills = "/".join(str(len(queue)) for queue in self._queues)
        return (
            f"ReplicatorChannel({self.name}, fills={fills}, "
            f"fault={self.fault})"
        )
