"""Event handling stages ahead of session association.

Device agents filter emitted events, translate them into a uniform record and
merge repeats; management nodes then rate the records against the asset
database and drop the lowest before session correlation. Cross-device
clustering by weighted feature similarity is kept as a library stage that
no node runs. Connection begin/end markers sorted out of
firewall traffic are sacred throughout: they delimit sessions, so no stage
may merge or drop them.

Inside a run, uniform records travel as objects: each flush of a device
is one ``DEVICE_EVENT`` frame whose payload is the tuple of its aggregated
records, in time order. Their one text form, the ``smnsim correlate``
input, is one XML element per line modelled on IDMEF (RFC 4765), with a
fixed attribute order, e.g.::

    <event id="1.1.1-4" analyzer="1.1.1" kind="Firewall" time="20"
           class="fw.connect" src="10.0.0.9" sport="4242" dst="10.0.1.5"
           dport="80" sev="1" count="1" conn="connect"/>

(shown wrapped; in the file it is a single line). ``parse_event_line``
reads a line in that spelling with no entity in one match, and any other
line, attributes in any order and spacing, through its general parser.

On the device an event is the scenario's ``Emit`` directive, bounded by
the simulator's set-up, whether parsed or built by hand, which
``filter_event`` and ``normalize`` read with the emitting device's address
and kind. ``NormalizedEvent`` is slotted, not frozen: a frozen
twelve-field record costs some 4 µs more to build, every assignment going
through ``object.__setattr__``, and nothing hashes or mutates these records.
Its checks stay in ``__post_init__``, so a bad record still never exists.
The run builds it positionally, in field order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING

from .addressing import NodeAddress, TreeShape
from .device_model import KIND_BY_NAME, DeviceKind

if TYPE_CHECKING:
    from .config import Emit


class PipelineError(Exception):
    pass


class ZeroWeights(PipelineError):
    pass


class EventLineError(PipelineError):
    pass


class ConnectionMarker(Enum):
    NONE = "none"
    CONNECT = "connect"
    DISCONNECT = "disconnect"


def _check_port(port: int, name: str) -> None:
    if not 0 <= port <= 65535:
        raise ValueError(f"{name} {port} outside 0..65535")


@dataclass(slots=True)
class NormalizedEvent:
    """The uniform record every cross-device stage works on."""

    event_id: str
    analyzer_address: NodeAddress
    analyzer_kind: DeviceKind
    create_time: int
    classification: str
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    severity: int
    count: int = 1
    connection_marker: ConnectionMarker = ConnectionMarker.NONE

    def __post_init__(self) -> None:
        _check_port(self.src_port, "src_port")
        _check_port(self.dst_port, "dst_port")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if (
            self.connection_marker is not ConnectionMarker.NONE
            and self.analyzer_kind is not DeviceKind.FIREWALL
        ):
            raise ValueError("connection markers come from firewalls only")


@dataclass(frozen=True)
class AssetRecord:
    """What ``rate_event`` knows of one IP, the key ``AssetDb.records`` files
    it under; ``parse_topology`` bounds the value to 1..5 as it reads it."""

    asset_value: int
    vulnerability_ids: frozenset[str] = frozenset()


@dataclass
class AssetDb:
    """Asset values and vulnerabilities by IP, plus which event classes
    exploit which vulnerability ids."""

    records: dict[str, AssetRecord] = field(default_factory=dict)
    class_vulns: dict[str, frozenset[str]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Filtering


_MARKER_BY_NATIVE = {
    "fw.connect": ConnectionMarker.CONNECT,
    "fw.disconnect": ConnectionMarker.DISCONNECT,
}

#: Native classes that a firewall's filter never drops: the ones
#: ``normalize`` makes connection markers of.
PROTECTED_CLASSES = frozenset(_MARKER_BY_NATIVE)


@dataclass(frozen=True)
class FilterRule:
    """Drop rule; None fields match anything, a trailing '*' on the class
    matches a prefix."""

    device_kind: DeviceKind | None = None
    native_class: str | None = None
    src_ip: str | None = None
    dst_ip: str | None = None

    def matches(self, ev: Emit, kind: DeviceKind) -> bool:
        if self.device_kind is not None and kind is not self.device_kind:
            return False
        if self.native_class is not None:
            if self.native_class.endswith("*"):
                if not ev.native_class.startswith(self.native_class[:-1]):
                    return False
            elif ev.native_class != self.native_class:
                return False
        if self.src_ip is not None and ev.src_ip != self.src_ip:
            return False
        if self.dst_ip is not None and ev.dst_ip != self.dst_ip:
            return False
        return True


def filter_event(ev: Emit, kind: DeviceKind, rules: list[FilterRule]) -> bool:
    """True to keep the event a device of ``kind`` emitted, False to drop it.
    A firewall's connection markers always reach correlation."""
    if kind is DeviceKind.FIREWALL and ev.native_class in PROTECTED_CLASSES:
        return True
    for rule in rules:
        if rule.matches(ev, kind):
            return False
    return True


# ---------------------------------------------------------------------------
# Normalization


@dataclass
class ClassificationMap:
    """Translates (device kind, native class) to the canonical taxonomy;
    an unmapped class other than a connection marker is ``unknown``."""

    rules: dict[tuple[DeviceKind, str], str] = field(default_factory=dict)

    def resolve(self, kind: DeviceKind, native_class: str) -> str:
        mapped = self.rules.get((kind, native_class))
        if mapped is not None:
            return mapped
        if native_class in _MARKER_BY_NATIVE:
            return native_class
        return "unknown"


def normalize(
    ev: Emit,
    address: NodeAddress,
    kind: DeviceKind,
    mapping: ClassificationMap,
    id_prefix: str,
    seq: int,
) -> NormalizedEvent:
    """Translate the event the device at ``address`` of ``kind`` emitted. Its
    id is ``id_prefix``, the device's address text and a ``-``, which the
    device formats once per flush, then its per-device sequence number."""
    marker = ConnectionMarker.NONE
    if kind is DeviceKind.FIREWALL:
        marker = _MARKER_BY_NATIVE.get(ev.native_class, ConnectionMarker.NONE)
    return NormalizedEvent(
        f"{id_prefix}{seq}", address, kind, ev.tick, mapping.resolve(kind, ev.native_class),
        ev.src_ip, ev.src_port, ev.dst_ip, ev.dst_port, ev.severity, 1, marker,
    )


# ---------------------------------------------------------------------------
# Single-device aggregation


PORTSCAN_CLASS = "recon.portscan"

_BY_TIME = attrgetter("create_time")
_NO_MARKER = ConnectionMarker.NONE


def _merged(
    group: list[NormalizedEvent], classification: str, dst_port: int
) -> NormalizedEvent:
    """The first of ``group`` carrying a merge's class and target port, the
    group's highest severity and its summed count."""
    ev = group[0]
    return NormalizedEvent(
        ev.event_id, ev.analyzer_address, ev.analyzer_kind, ev.create_time, classification,
        ev.src_ip, ev.src_port, ev.dst_ip, dst_port,
        max(e.severity for e in group), sum(e.count for e in group),
    )


def _aggregate_bucket(
    bucket: list[NormalizedEvent], portscan_threshold: int, out: list[NormalizedEvent]
) -> None:
    """Append to ``out`` what one bucket of time-ordered events leaves: its
    port-scan records, then its merged and unmerged plain events, then its
    connection markers, each kind in the order its first event came."""
    scans: list[NormalizedEvent] = []
    rest: list[NormalizedEvent] = []
    markers: list[NormalizedEvent] = []
    pairs: dict[tuple[str, str], list[NormalizedEvent]] = {}
    for ev in bucket:
        if ev.connection_marker is _NO_MARKER:
            pairs.setdefault((ev.src_ip, ev.dst_ip), []).append(ev)
        else:
            markers.append(ev)
    for group in pairs.values():
        if (len(group) >= portscan_threshold
                and len({e.dst_port for e in group}) >= portscan_threshold):
            scans.append(_merged(group, PORTSCAN_CLASS, 0))
        elif len(group) == 1:
            rest.append(group[0])
        else:
            same: dict[str, list[NormalizedEvent]] = {}
            for ev in group:
                same.setdefault(ev.classification, []).append(ev)
            for merge in same.values():
                first = merge[0]
                rest.append(
                    first if len(merge) == 1
                    else _merged(merge, first.classification, first.dst_port)
                )
    out += scans
    out += rest
    out += markers


def aggregate_single_device(
    window: list[NormalizedEvent],
    window_ticks: int,
    portscan_threshold: int = 10,
) -> list[NormalizedEvent]:
    """Merge repeats from one device.

    Events are bucketed into tumbling spans of ``window_ticks``. Within a
    bucket, a source hitting at least ``portscan_threshold`` distinct target
    ports collapses into one port-scan record first; remaining events that
    agree on (classification, source ip, target ip) merge with summed counts,
    the highest severity and the earliest time. Connection markers pass
    through untouched, and so does any event nothing merges with. The
    records come out in time order. ``window_ticks`` is at least 1, as the
    topology parser requires.
    """
    if len(window) == 1:
        ev = window[0]
        if portscan_threshold > 1 or ev.connection_marker is not _NO_MARKER:
            return [ev]
    events = sorted(window, key=_BY_TIME)
    out: list[NormalizedEvent] = []
    if not events:
        return out
    if events[0].create_time // window_ticks == events[-1].create_time // window_ticks:
        _aggregate_bucket(events, portscan_threshold, out)
    else:
        buckets: dict[int, list[NormalizedEvent]] = {}
        for ev in events:
            buckets.setdefault(ev.create_time // window_ticks, []).append(ev)
        # in time order, as the events came
        for bucket in buckets.values():
            _aggregate_bucket(bucket, portscan_threshold, out)
    if len(out) > 1:
        # records of one time come from one bucket, in its order
        out.sort(key=_BY_TIME)
    return out


# ---------------------------------------------------------------------------
# Rating and validation


def rate_event(ev: NormalizedEvent, assets: AssetDb) -> int:
    """Value-loss score: target asset value x severity, doubled when the
    event class exploits a vulnerability the target actually has."""
    record = assets.records.get(ev.dst_ip)
    asset_value = record.asset_value if record is not None else 1
    factor = 1
    if record is not None:
        exploited = assets.class_vulns.get(ev.classification, frozenset())
        if exploited & record.vulnerability_ids:
            factor = 2
    return asset_value * ev.severity * factor


def validate(
    events: list[NormalizedEvent], assets: AssetDb, threshold: int
) -> list[tuple[NormalizedEvent, int]]:
    """Score events and drop those below the threshold. Connection markers
    always survive; the correlation stage cannot work without them."""
    kept = []
    for ev in events:
        score = rate_event(ev, assets)
        if score >= threshold or ev.connection_marker is not ConnectionMarker.NONE:
            kept.append((ev, score))
    return kept


# ---------------------------------------------------------------------------
# Cross-device aggregation


@dataclass(frozen=True)
class SimilarityWeights:
    src_ip: float = 0.25
    dst_ip: float = 0.25
    dst_port: float = 0.15
    classification: float = 0.25
    time_proximity: float = 0.10

    def total(self) -> float:
        return (
            self.src_ip
            + self.dst_ip
            + self.dst_port
            + self.classification
            + self.time_proximity
        )


DEFAULT_TIME_HORIZON = 300


def _class_similarity(a: str, b: str) -> float:
    if a == b:
        return 1.0
    if a.split(".", 1)[0] == b.split(".", 1)[0]:
        return 0.5
    return 0.0


def similarity(
    a: NormalizedEvent,
    b: NormalizedEvent,
    weights: SimilarityWeights = SimilarityWeights(),
    horizon: int = DEFAULT_TIME_HORIZON,
) -> float:
    """Weighted mean of per-feature similarities, each in [0, 1]."""
    total = weights.total()
    if total <= 0:
        raise ZeroWeights("at least one similarity weight must be positive")
    dt = abs(a.create_time - b.create_time)
    time_sim = max(0.0, 1.0 - dt / horizon) if horizon > 0 else 0.0
    acc = (
        weights.src_ip * (1.0 if a.src_ip == b.src_ip else 0.0)
        + weights.dst_ip * (1.0 if a.dst_ip == b.dst_ip else 0.0)
        + weights.dst_port * (1.0 if a.dst_port == b.dst_port else 0.0)
        + weights.classification * _class_similarity(a.classification, b.classification)
        + weights.time_proximity * time_sim
    )
    return acc / total


@dataclass
class MetaAlert:
    """A cluster of similar events from different devices."""

    member_event_ids: list[str]
    representative: NormalizedEvent
    score: int


class CrossDeviceAggregator:
    """Greedy first-fit online clustering of scored events.

    An event joins the first existing cluster whose representative is at
    least ``merge_threshold`` similar, else opens a new one. Representatives
    keep the earliest time, highest severity and summed count.
    """

    def __init__(
        self,
        weights: SimilarityWeights = SimilarityWeights(),
        merge_threshold: float = 0.7,
        horizon: int = DEFAULT_TIME_HORIZON,
    ) -> None:
        if not 0 < merge_threshold <= 1:
            raise ValueError("merge_threshold must be in (0, 1]")
        self.weights = weights
        self.merge_threshold = merge_threshold
        self.horizon = horizon
        self.alerts: list[MetaAlert] = []

    def add(self, ev: NormalizedEvent, score: int) -> MetaAlert:
        for alert in self.alerts:
            if (
                similarity(ev, alert.representative, self.weights, self.horizon)
                >= self.merge_threshold
            ):
                alert.member_event_ids.append(ev.event_id)
                alert.representative = replace(
                    alert.representative,
                    create_time=min(alert.representative.create_time, ev.create_time),
                    severity=max(alert.representative.severity, ev.severity),
                    count=alert.representative.count + ev.count,
                )
                alert.score = max(alert.score, score)
                return alert
        alert = MetaAlert(member_event_ids=[ev.event_id], representative=ev, score=score)
        self.alerts.append(alert)
        return alert


# ---------------------------------------------------------------------------
# Event line format


_EVENT_LINE_RE = re.compile(r"<event\s+(.*?)/>\s*$")
_ATTR_RE = re.compile(r'(\w+)="([^"]*)"')
_EVENT_ATTRS = (
    "id",
    "analyzer",
    "kind",
    "time",
    "class",
    "src",
    "sport",
    "dst",
    "dport",
    "sev",
    "count",
    "conn",
)

#: What an attribute value escapes, ``&`` first so no escape is escaped twice;
#: a line break as a character reference, so that an event stays one line.
_ESCAPES = (("&", "&amp;"), ('"', "&quot;"), ("<", "&lt;"), (">", "&gt;"),
            ("\n", "&#10;"), ("\r", "&#13;"))


def _escape(text: str) -> str:
    for char, entity in _ESCAPES:
        text = text.replace(char, entity)
    return text


def _unescape(text: str) -> str:
    for char, entity in reversed(_ESCAPES):
        text = text.replace(entity, char)
    return text


def format_event_line(ev: NormalizedEvent) -> str:
    """The event as one line; the text fields escape ``&``, ``"``, ``<``,
    ``>``, newline and carriage return as XML does, so any event reads back
    as itself."""
    return (
        f'<event id="{_escape(ev.event_id)}" analyzer="{ev.analyzer_address}" '
        f'kind="{ev.analyzer_kind.value}" time="{ev.create_time}" '
        f'class="{_escape(ev.classification)}" src="{_escape(ev.src_ip)}" '
        f'sport="{ev.src_port}" dst="{_escape(ev.dst_ip)}" dport="{ev.dst_port}" '
        f'sev="{ev.severity}" count="{ev.count}" conn="{ev.connection_marker.value}"/>'
    )


#: A line as ``format_event_line`` writes it, its values free of ``&`` (so
#: unescaped) and of newlines (which the general parser's ``.`` refuses), with
#: its groups in field order: the general parser reads the same attributes.
_VALUE = r'([^"&\n]*)'
_CANONICAL_EVENT = re.compile(
    f'<event id="{_VALUE}" analyzer="{_VALUE}" '
    f'kind="({"|".join(map(re.escape, KIND_BY_NAME))})" time="([0-9]+)" '
    f'class="{_VALUE}" src="{_VALUE}" sport="([0-9]+)" dst="{_VALUE}" dport="([0-9]+)" '
    f'sev="([1-5])" count="([0-9]+)" conn="({"|".join(m.value for m in ConnectionMarker)})"/>'
)
_MARKERS = {m.value: m for m in ConnectionMarker}


def parse_event_line(line: str, shape: TreeShape) -> NormalizedEvent:
    """The event ``line`` holds. A line in the spelling ``format_event_line``
    writes, with no ``&``, is read in one match; any other line, or a value
    that match does not bound (an address, a port, a count, a marker from a
    device other than a firewall), goes to the general parser, which alone
    raises ``EventLineError``."""
    m = _CANONICAL_EVENT.fullmatch(line)
    if m is not None:
        event_id, analyzer, kind, time, cls, src, sport, dst, dport, sev, count, conn = m.groups()
        try:
            return NormalizedEvent(
                event_id, NodeAddress.parse(analyzer, shape), KIND_BY_NAME[kind], int(time),
                cls, src, int(sport), dst, int(dport), int(sev), int(count), _MARKERS[conn],
            )
        except ValueError:
            pass  # the general parser says what is wrong
    return _parse_event_attrs(line, shape)


def _parse_event_attrs(line: str, shape: TreeShape) -> NormalizedEvent:
    """The general parser: the attributes in any order and spacing, entities
    unescaped, a repeated one read at its last."""
    m = _EVENT_LINE_RE.match(line.strip())
    if m is None:
        raise EventLineError(f"not an event line: {line!r}")
    attrs = dict(_ATTR_RE.findall(m.group(1)))
    if "&" in line:
        attrs = {name: _unescape(value) for name, value in attrs.items()}
    missing = [a for a in _EVENT_ATTRS if a not in attrs]
    if missing:
        raise EventLineError(f"missing attributes {missing} in {line!r}")
    kind = KIND_BY_NAME.get(attrs["kind"])
    if kind is None:
        raise EventLineError(f"unknown analyzer kind {attrs['kind']!r}")
    try:
        ev = NormalizedEvent(
            attrs["id"], NodeAddress.parse(attrs["analyzer"], shape), kind,
            int(attrs["time"]), attrs["class"], attrs["src"], int(attrs["sport"]),
            attrs["dst"], int(attrs["dport"]), int(attrs["sev"]), int(attrs["count"]),
            ConnectionMarker(attrs["conn"]),
        )
        # bounded as a scenario bounds an emit's sev= and its tick
        if not 1 <= ev.severity <= 5:
            raise ValueError(f"sev {ev.severity} outside 1..5")
        if ev.create_time < 0:
            raise ValueError(f"time must be >= 0, got {ev.create_time}")
    except ValueError as exc:
        raise EventLineError(f"bad event line {line!r}: {exc}") from exc
    return ev
