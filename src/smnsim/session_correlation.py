"""Session-alert correlation.

Events that belong to the same network connection almost surely belong to
the same attack, so the unit of clustering here is the session, not a time
window. Firewall connect markers queue up globally; the first ordinary event
that matches a queued connect turns it into a live session alert, later
events join by endpoint rules, and the disconnect marker stamps the end time
and schedules the alert for destruction after a grace period so stragglers
can still be filed.

An event joins an alert when its time falls inside the session span and one
of three endpoint clauses holds: it travels the session's source-to-target
direction, it originates at the session's target, or it originates at the
target of some event already queued (lateral movement). Matching is by IP;
ports are recorded but do not discriminate.

The engine keeps its own clock. ``sweep(now)`` removes the destroy-pending
alerts whose deadline has come and the connects older than ``connect_ttl``,
and the engine remembers the latest tick it swept to. ``on_event(ev, now)``
first sweeps to ``now - 1``, unless the engine was swept that far already,
so a caller need not sweep; one that sweeps to ``now`` before each event, as
``smnsim correlate`` does, makes that inner sweep a no-op. A sweep only
removes, and only by the latest tick it is given, so an engine that sees no
event for many ticks and is then swept once holds what sweeping it on every
one of them would have left. Until its next event it keeps its ended alerts
and stale connects, which no report reads: the report lists open alerts
only.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from enum import Enum

from .event_pipeline import ConnectionMarker, NormalizedEvent


class SessionStatus(Enum):
    OPEN = "open"
    DESTROY_PENDING = "destroy-pending"


@dataclass
class SessionInfo:
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    start_time: int
    end_time: int | None = None  # None while the connection is still up


@dataclass
class SessionAlert:
    session_id: str
    info: SessionInfo
    event_queue: list[NormalizedEvent] = field(default_factory=list)
    status: SessionStatus = SessionStatus.OPEN
    destroy_deadline: int | None = None


@dataclass(frozen=True)
class SessionRecord:
    """Immutable snapshot of an alert, as emitted to consoles and parents."""

    session_id: str
    src: str
    dst: str
    start_time: int
    end_time: int | None
    event_ids: tuple[str, ...]
    classifications: tuple[str, ...]
    severities: tuple[int, ...]

    @property
    def top_classification(self) -> str:
        """Classification of the highest-severity queued event."""
        if not self.event_ids:
            return "unknown"
        best = max(range(len(self.severities)), key=lambda i: self.severities[i])
        return self.classifications[best]


@dataclass(frozen=True)
class EmitAction:
    kind: str  # update | ending
    record: SessionRecord


def format_session_line(record: SessionRecord) -> str:
    end = "open" if record.end_time is None else str(record.end_time)
    ids = " ".join(record.event_ids)
    return (
        f"SESSION {record.session_id} {record.src} {record.dst} "
        f"{record.start_time} {end} {len(record.event_ids)} [{ids}]"
    )


def belongs_to(ev: NormalizedEvent, alert: SessionAlert) -> bool:
    """Endpoint-and-time membership test against one alert."""
    info = alert.info
    if ev.create_time < info.start_time:
        return False
    if info.end_time is not None and ev.create_time > info.end_time:
        return False
    if ev.src_ip == info.src_ip and ev.dst_ip == info.dst_ip:
        return True
    if ev.src_ip == info.dst_ip:
        return True
    return any(ev.src_ip == queued.dst_ip for queued in alert.event_queue)


@dataclass
class CorrelationConfig:
    grace: int = 60  # ticks an ended alert stays matchable
    connect_ttl: int = 600  # ticks an unbound connect entry stays queued


@dataclass
class ConnectionQueue:
    """Global queue of connect markers not yet bound to an alert."""

    entries: list[NormalizedEvent] = field(default_factory=list)


@dataclass
class SessionStore:
    """Live (open and destroy-pending) alerts of one management node."""

    alerts: list[SessionAlert] = field(default_factory=list)
    next_id: int = 1


class CorrelationEngine:
    """Per-node correlation state: one store, one connection queue."""

    def __init__(self, owner: str, config: CorrelationConfig | None = None) -> None:
        self.owner = owner
        self.config = config or CorrelationConfig()
        self.store = SessionStore()
        self.conn_queue = ConnectionQueue()
        #: the latest tick swept to; ticks start at 0
        self.swept = -1
        # accounting: every non-marker event lands in exactly one bucket
        self.joined_events = 0
        self.independent_events = 0

    # -- helpers ----------------------------------------------------------

    def snapshot(self, alert: SessionAlert) -> SessionRecord:
        info = alert.info
        return SessionRecord(
            session_id=alert.session_id,
            src=f"{info.src_ip}:{info.src_port}",
            dst=f"{info.dst_ip}:{info.dst_port}",
            start_time=info.start_time,
            end_time=info.end_time,
            event_ids=tuple(e.event_id for e in alert.event_queue),
            classifications=tuple(e.classification for e in alert.event_queue),
            severities=tuple(e.severity for e in alert.event_queue),
        )

    def open_session_lines(self) -> list[str]:
        """The session lines of the alerts still open, in store order."""
        return [
            format_session_line(self.snapshot(alert))
            for alert in self.store.alerts
            if alert.status is SessionStatus.OPEN
        ]

    def _new_id(self) -> str:
        sid = f"{self.owner}#{self.store.next_id}"
        self.store.next_id += 1
        return sid

    def _matching_alert(self, ev: NormalizedEvent) -> SessionAlert | None:
        """Earliest-started live alert the event belongs to."""
        best: SessionAlert | None = None
        for alert in self.store.alerts:
            if belongs_to(ev, alert):
                if best is None or alert.info.start_time < best.info.start_time:
                    best = alert
        return best

    def _matching_connect(self, ev: NormalizedEvent) -> NormalizedEvent | None:
        """Latest queued connect for the event's endpoints not after it."""
        best: NormalizedEvent | None = None
        for entry in self.conn_queue.entries:
            if (
                entry.src_ip == ev.src_ip
                and entry.dst_ip == ev.dst_ip
                and entry.create_time <= ev.create_time
            ):
                if best is None or entry.create_time >= best.create_time:
                    best = entry
        return best

    # -- algorithm --------------------------------------------------------

    def on_event(self, ev: NormalizedEvent, now: int) -> list[EmitAction]:
        if now - 1 > self.swept:
            self.sweep(now - 1)
        if ev.connection_marker is ConnectionMarker.CONNECT:
            self.conn_queue.entries.append(ev)
            return []
        if ev.connection_marker is ConnectionMarker.DISCONNECT:
            return self._on_disconnect(ev, now)
        return self._on_plain(ev, now)

    def _on_plain(self, ev: NormalizedEvent, now: int) -> list[EmitAction]:
        alert = self._matching_alert(ev)
        if alert is None:
            entry = self._matching_connect(ev)
            if entry is None:
                # Nothing to attach to: the event stands alone and ends
                # immediately; nothing is retained in the store.
                self.independent_events += 1
                record = SessionRecord(
                    session_id=self._new_id(),
                    src=f"{ev.src_ip}:{ev.src_port}",
                    dst=f"{ev.dst_ip}:{ev.dst_port}",
                    start_time=ev.create_time,
                    end_time=ev.create_time,
                    event_ids=(ev.event_id,),
                    classifications=(ev.classification,),
                    severities=(ev.severity,),
                )
                return [EmitAction("ending", record)]
            alert = SessionAlert(
                session_id=self._new_id(),
                info=SessionInfo(
                    src_ip=entry.src_ip,
                    src_port=entry.src_port,
                    dst_ip=entry.dst_ip,
                    dst_port=entry.dst_port,
                    start_time=entry.create_time,
                ),
            )
            assert not any(
                a.info.src_ip == alert.info.src_ip
                and a.info.dst_ip == alert.info.dst_ip
                and a.info.start_time == alert.info.start_time
                for a in self.store.alerts
            ), "duplicate live session key"
            self.conn_queue.entries.remove(entry)
            self.store.alerts.append(alert)
        self.joined_events += 1
        insort(alert.event_queue, ev, key=lambda e: e.create_time)
        return [EmitAction("update", self.snapshot(alert))]

    def _on_disconnect(self, ev: NormalizedEvent, now: int) -> list[EmitAction]:
        best: SessionAlert | None = None
        for alert in self.store.alerts:
            if (
                alert.status is SessionStatus.OPEN
                and alert.info.src_ip == ev.src_ip
                and alert.info.dst_ip == ev.dst_ip
            ):
                if best is None or alert.info.start_time < best.info.start_time:
                    best = alert
        if best is not None:
            best.info.end_time = ev.create_time
            best.status = SessionStatus.DESTROY_PENDING
            best.destroy_deadline = now + self.config.grace
            return [EmitAction("ending", self.snapshot(best))]
        entry = self._matching_connect(ev)
        if entry is not None:
            self.conn_queue.entries.remove(entry)
        return []

    def sweep(self, now: int) -> list[SessionAlert]:
        """Remove and return pending alerts past their deadline; expire
        stale connects."""
        self.swept = max(self.swept, now)
        done = [
            a
            for a in self.store.alerts
            if a.status is SessionStatus.DESTROY_PENDING
            and a.destroy_deadline is not None
            and a.destroy_deadline <= now
        ]
        for alert in done:
            self.store.alerts.remove(alert)
        self.conn_queue.entries = [
            e
            for e in self.conn_queue.entries
            if now - e.create_time <= self.config.connect_ttl
        ]
        return done
