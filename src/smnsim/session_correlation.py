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

Of the alerts an event belongs to, it joins the earliest-started, and of
equal starts the one created first (``SessionAlert.ordinal``). Matching is
keyed, not a scan of the store (Valeur et al., IEEE TDSC 2004): the engine
indexes its live alerts by (source, target) and by target, each bucket a
list in creation order, and by the target of each queued event, each bucket
mapping ordinal to alert so that a second event to one target adds nothing.
Only the alerts in an event's three buckets -- its own direction, and its
source as a target or as a queued target -- can pass a clause, so only
their spans are checked. No tie is left to bucket order: the ordinal
decides. An alert stays indexed until a sweep removes it; its queued
targets are read back from its queue then, so no alert keeps a set of
them. Two live alerts may share endpoints and start: a doubled connect can
bind after the first alert ended, inside its grace period.

``sweep`` still scans the store for due deadlines. A deadline heap makes
the storm workload several times faster again, but the benchmark keeps one
array per repetition, so more repetitions raise its peak memory past its
bound; the heap waits until that is fixed. ``store.alerts`` stays the live
alerts in creation order, and a disconnect ends the earliest-started open
alert of its pair, read from the pair's bucket.

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

``SessionRecord`` and ``EmitAction`` are slotted, not frozen, as the event
records are: a frozen record pays ``object.__setattr__`` for every field it
is built with, and nothing hashes or mutates them. ``snapshot`` builds a new
record for every update, so one handed out never changes.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from enum import Enum

from .event_pipeline import ConnectionMarker, NormalizedEvent


class SessionStatus(Enum):
    OPEN = "open"
    DESTROY_PENDING = "destroy-pending"


@dataclass(slots=True)
class SessionInfo:
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    start_time: int
    end_time: int | None = None  # None while the connection is still up


@dataclass(slots=True)
class SessionAlert:
    session_id: str
    info: SessionInfo
    event_queue: list[NormalizedEvent] = field(default_factory=list)
    status: SessionStatus = SessionStatus.OPEN
    destroy_deadline: int | None = None  # set together with DESTROY_PENDING
    #: creation order within its engine: of two alerts with equal starts,
    #: the one created first wins a match
    ordinal: int = 0


@dataclass(slots=True)
class SessionRecord:
    """A snapshot of an alert, as emitted to consoles and parents; a later
    change to the alert makes a new record, never edits this one."""

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


@dataclass(slots=True)
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
    """Per-node correlation state: one store, one connection queue, and the
    store's alerts indexed by the endpoints an event can match them on."""

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
        # live alerts by (src_ip, dst_ip) and by dst_ip, in creation order,
        # and by the dst_ip of each queued event, as ordinal -> alert so
        # that queueing an event to a known target adds nothing
        self._by_pair: dict[tuple[str, str], list[SessionAlert]] = {}
        self._by_dst: dict[str, list[SessionAlert]] = {}
        self._by_queued_dst: dict[str, dict[int, SessionAlert]] = {}

    # -- helpers ----------------------------------------------------------

    def snapshot(self, alert: SessionAlert) -> SessionRecord:
        info = alert.info
        return SessionRecord(
            alert.session_id,
            f"{info.src_ip}:{info.src_port}",
            f"{info.dst_ip}:{info.dst_port}",
            info.start_time,
            info.end_time,
            tuple(e.event_id for e in alert.event_queue),
            tuple(e.classification for e in alert.event_queue),
            tuple(e.severity for e in alert.event_queue),
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
        """Earliest-started live alert the event belongs to, the first
        created on equal starts. Only the alerts in the event's three
        buckets can pass an endpoint clause, so only their spans are
        checked."""
        t = ev.create_time
        best: SessionAlert | None = None
        for bucket in (
            self._by_pair.get((ev.src_ip, ev.dst_ip), ()),
            self._by_dst.get(ev.src_ip, ()),
            self._by_queued_dst.get(ev.src_ip, {}).values(),
        ):
            for alert in bucket:
                info = alert.info
                start = info.start_time
                if start > t or (info.end_time is not None and t > info.end_time):
                    continue
                if (
                    best is None
                    or start < best.info.start_time
                    or (start == best.info.start_time and alert.ordinal < best.ordinal)
                ):
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

    def _index(self, alert: SessionAlert) -> None:
        info = alert.info
        self._by_pair.setdefault((info.src_ip, info.dst_ip), []).append(alert)
        self._by_dst.setdefault(info.dst_ip, []).append(alert)

    def _unindex(self, alert: SessionAlert) -> None:
        info = alert.info
        for index, key in (
            (self._by_pair, (info.src_ip, info.dst_ip)),
            (self._by_dst, info.dst_ip),
        ):
            bucket = index[key]
            bucket.remove(alert)
            if not bucket:
                del index[key]
        for dst in {e.dst_ip for e in alert.event_queue}:
            queued = self._by_queued_dst[dst]
            del queued[alert.ordinal]
            if not queued:
                del self._by_queued_dst[dst]

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
                    self._new_id(),
                    f"{ev.src_ip}:{ev.src_port}",
                    f"{ev.dst_ip}:{ev.dst_port}",
                    ev.create_time,
                    ev.create_time,
                    (ev.event_id,),
                    (ev.classification,),
                    (ev.severity,),
                )
                return [EmitAction("ending", record)]
            # its endpoints and start may equal a live alert's: a doubled
            # connect binds after the first alert ended, within grace
            ordinal = self.store.next_id
            alert = SessionAlert(
                session_id=self._new_id(),
                info=SessionInfo(
                    src_ip=entry.src_ip,
                    src_port=entry.src_port,
                    dst_ip=entry.dst_ip,
                    dst_port=entry.dst_port,
                    start_time=entry.create_time,
                ),
                ordinal=ordinal,
            )
            self.conn_queue.entries.remove(entry)
            self.store.alerts.append(alert)
            self._index(alert)
        self.joined_events += 1
        insort(alert.event_queue, ev, key=lambda e: e.create_time)
        self._by_queued_dst.setdefault(ev.dst_ip, {})[alert.ordinal] = alert
        return [EmitAction("update", self.snapshot(alert))]

    def _on_disconnect(self, ev: NormalizedEvent, now: int) -> list[EmitAction]:
        best = min(
            (
                a
                for a in self._by_pair.get((ev.src_ip, ev.dst_ip), ())
                if a.status is SessionStatus.OPEN
            ),
            key=lambda a: (a.info.start_time, a.ordinal),
            default=None,
        )
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
            if a.status is SessionStatus.DESTROY_PENDING and a.destroy_deadline <= now
        ]
        if done:
            gone = {a.ordinal for a in done}
            self.store.alerts = [a for a in self.store.alerts if a.ordinal not in gone]
            for alert in done:
                self._unindex(alert)
        self.conn_queue.entries = [
            e
            for e in self.conn_queue.entries
            if now - e.create_time <= self.config.connect_ttl
        ]
        return done
