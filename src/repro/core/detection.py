"""Fault detection bookkeeping shared by the replicator and selector.

Detections are *events*: at some virtual instant a channel concludes from
its occupancy counters alone (no timers, no timestamps — the paper's key
efficiency claim) that one replica has suffered a timing fault.  This
module records those events so experiments can compute detection latencies
against the injection instants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


#: Detection mechanisms, named after the paper's Section 3.3 paragraphs.
MECHANISM_OVERFLOW = "overflow"  # replicator: space_k == 0 at a write
MECHANISM_DIVERGENCE = "divergence"  # |space_1 - space_2| exceeds D
MECHANISM_STALL = "stall"  # selector: space_k > |S_k|
MECHANISM_VALUE = "value-mismatch"  # optional fail-silent assumption check


def lagging(counts, fault, threshold: int):
    """Healthy replicas whose counter lags the healthy front by more than
    ``threshold`` — the divergence rule (Eq. 5's ``D``) for any number of
    replicas.

    ``counts[k]`` is replica ``k``'s token counter and ``fault[k]`` its
    flag.  Divergence is only defined between healthy replicas, so there
    is no laggard unless two or more are healthy; with two replicas only
    the slower one can lag.
    """
    healthy = [k for k, flagged in enumerate(fault) if not flagged]
    if len(healthy) < 2:
        return []
    front = max([counts[k] for k in healthy])
    return [k for k in healthy if front - counts[k] > threshold]


def all_flagged_message(channel: str, n: int, undersized: str) -> str:
    """The error raised when every one of ``n`` replicas is flagged.

    ``n`` replicas tolerate ``n - 1`` faults, so flagging the last healthy
    one means the fault budget was exceeded or ``undersized`` (the
    channel's design-time numbers) were too small.
    """
    if n == 2:
        subject, budget = "both replicas", "single-fault"
    else:
        subject, budget = f"all {n} replicas", f"{n - 1}-fault"
    return (
        f"{channel}: {subject} flagged faulty — {budget} assumption "
        f"violated (or {undersized} under-sized)"
    )


@dataclass(frozen=True)
class FaultReport:
    """One fault-detection event.

    Attributes
    ----------
    time:
        Virtual instant of the detection.
    site:
        ``"replicator"`` or ``"selector"`` — the paper shows both channels
        detect faults independently.
    replica:
        Index of the replica deemed faulty (0-based).
    mechanism:
        One of the ``MECHANISM_*`` constants.
    detail:
        Free-form diagnostic (counter values at detection time).
    """

    time: float
    site: str
    replica: int
    mechanism: str
    detail: str = ""


class DetectionLog:
    """Ordered record of fault detections for one channel (or one run).

    Observers subscribed with :meth:`subscribe` are invoked on every new
    report — the multi-port fault coordinator uses this to quarantine a
    flagged replica on *all* channels, not just the detecting one.
    """

    def __init__(self) -> None:
        self.reports: List[FaultReport] = []
        self._observers: List = []

    def subscribe(self, observer) -> None:
        """Register ``observer(report)`` to be called on each record."""
        self._observers.append(observer)

    def unsubscribe(self, observer) -> None:
        """Remove a previously subscribed observer.

        Removes the first matching registration (observers may be
        subscribed more than once); unknown observers raise
        :class:`ValueError`, surfacing double-unsubscribe bugs early.
        """
        self._observers.remove(observer)

    def record(
        self,
        time: float,
        site: str,
        replica: int,
        mechanism: str,
        detail: str = "",
    ) -> FaultReport:
        """Append and return a new report, then notify observers in
        subscription order.

        A raising observer cannot suppress the others: the report is
        appended before any observer runs, every observer fires exactly
        once, and the first exception (if any) propagates afterwards —
        so a broken coordinator never silently loses detections.
        """
        report = FaultReport(time, site, replica, mechanism, detail)
        self.reports.append(report)
        first_error: Optional[BaseException] = None
        # Snapshot: an observer that (un)subscribes during notification
        # must not change this report's delivery set.
        for observer in tuple(self._observers):
            try:
                observer(report)
            except BaseException as error:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        return report

    def first(
        self,
        site: Optional[str] = None,
        replica: Optional[int] = None,
    ) -> Optional[FaultReport]:
        """Earliest report matching the filters, or ``None``."""
        for report in self.reports:
            if site is not None and report.site != site:
                continue
            if replica is not None and report.replica != replica:
                continue
            return report
        return None

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    def __bool__(self) -> bool:
        return bool(self.reports)
