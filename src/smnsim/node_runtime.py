"""Management-node kernel and simulated device agent.

A management node keeps a live tree of its subordinates (devices and child
management nodes alike), drives their state machines from heartbeat traffic,
rates device events against the asset database and correlates the kept ones
into session alerts, splices child topology reports into its own view, and
executes or forwards commands. A device agent mirrors the managed-device
side: it emits heartbeats and scripted events and answers policy and
vulnerability commands. A harness files a device's scripted events on its
agent before the run: the agent's ``buffer`` is its script of the
scenario's ``Emit`` directives not yet flushed, in tick order. An emit
waits there until the first window boundary after its tick at which the
device is not silenced; that flush filters the emits whose tick is before
it, normalizes them with the agent's address and kind, aggregates them and
sends them to the parent as one ``DEVICE_EVENT`` frame, whose payload is
the tuple of the aggregated events.

Neither kind of node needs its clock run on every tick. ``next_wake`` names
the first tick at which a node's clock (``SmnNode.on_tick``,
``DeviceAgent.step``) can act when no frame arrives, so a harness runs a node
then, or when a frame arrives for it, and lets it sleep in between. The
correlation engine's grace periods and connect expiry set no wake: the
engine sweeps itself when the next event reaches it (see
``session_correlation``).

Both kinds of node return their outbound frames unnumbered; the harness
numbers each one as it goes on the network (see ``messaging``). A
management node hears a child's heartbeat (network test or state package)
in one of two ways. Through ``on_frame``, when it arrives. Or, when none of
the heartbeat's conditions has an arrow from the child's state, so that it
would only move a deadline, through ``heard``, on the child's record, with
the tick the frame would arrive at; no frame is then built. Which way is
settled where the heartbeat is sent: the sender offers each heartbeat due
to its ``hear`` hook first and builds a frame only when the hook declines
it. A harness binds the hook to the parent's record of the sender (see
``simulator``); the default takes nothing, so every heartbeat travels.
Once one heartbeat of a sender travels, the rest of its tick travel too,
unoffered: arriving first, it may move the record so that the next one has
an arrow (a network test that brings a child from NET_DOWN to UNREACHABLE
gives T3 of the state package after it one).

A harness applies a silence or abnormal window at its start, so a node
keeps only the tick its latest one ends. The harness drops every frame a
silenced node returns (see ``simulator``); the node offers no heartbeat,
a management node builds and logs no topology report, and a device defers
its flush until the silence ends.

A device event takes its sender's record through T7 into HANDLING_ALERT and
T8 back out, with the event's rating and correlation in between; a frame's
events take their pairs one after the other, in order. Nothing in
between reads the record, the view or the root's changes, so from a
waiting state the pair is closed: the node logs both ``STATE`` lines and
leaves the record in the status T8 would, the waiting state it started
from, and the view, its cached embedding text and the console mirror are
left alone, as the two steps would leave them. From any other state T7 has
no arrow, and neither has T8: a parent steps its children's records by
heartbeats and timeouts alone, so outside this pair a record is never in a
busy state.

A topology report equal to the subtree a management node already holds for
that child splices nothing (see ``device_tree``) and records no change,
so the console mirror replays only real changes. The node still logs
``ASSEMBLE`` and, below the root, still reports upward.

A management node alone decides who may act on a response case;
``emergency_response`` holds the case's own rules. The owner holds the case
and advances it itself. Escalating tells the owner's parent, which records
in ``coordinated`` that it coordinates the case, and for which owner: only
it may enlist, and only nodes below it, and it advances the case by sending
the owner ``Advance``. Any other node logs ``RESPOND-ERROR unknown case``.
So the owner takes an ``Enlisted`` or ``Advance`` as its coordinator's.

Everything a node does is visible as log lines:

    NODE <addr> <tick> <action> <detail>
    CASE <case-id> <tick> <actor> <action>

which the scenario harness collects into golden-comparable reports.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING

from . import emergency_response as er
from .addressing import AddressError, NodeAddress
from .device_model import (
    ARROWS_FROM,
    DeviceKind,
    DeviceState,
    DeviceStatus,
    INITIAL_STATUS,
    TransferCondition,
    WAITING_STATES,
    step,
)
from .device_tree import AddressedDeviceTree, DeviceNodeRecord, TreeError
from .emergency_response import CounterplanStore, ResponseCase, ResponseError
from .event_pipeline import (
    AssetDb,
    ClassificationMap,
    ConnectionMarker,
    FilterRule,
    NormalizedEvent,
    aggregate_single_device,
    filter_event,
    normalize,
    validate,
)
from .messaging import (
    Advance,
    Advisory,
    Confirm,
    Enlisted,
    Escalate,
    Frame,
    MsgType,
    Order,
)
from .session_correlation import (
    CorrelationConfig,
    CorrelationEngine,
    SessionRecord,
    format_session_line,
)

if TYPE_CHECKING:
    from .config import Emit

_T = TransferCondition

#: A wake tick past the end of any run.
NEVER = sys.maxsize

_TICK = attrgetter("tick")


@dataclass(frozen=True)
class HeartbeatConfig:
    """Cadence of liveness traffic and when silence counts as loss.

    The state-package timeout is the shorter one so a silent node first
    degrades to unreachable and only then to network-down. Every node of a
    run shares one, and a parent times its children by its own; frozen, so
    that no node can change it under the others.
    """

    network_test_interval: int = 5
    state_pkg_interval: int = 8
    network_test_timeout: int = 30
    state_pkg_timeout: int = 20

    def __post_init__(self) -> None:
        if self.network_test_timeout <= self.network_test_interval:
            raise ValueError("network test timeout must exceed its interval")
        if self.state_pkg_timeout <= self.state_pkg_interval:
            raise ValueError("state package timeout must exceed its interval")


@dataclass
class PipelineSettings:
    """Node-level tunables for event handling and reporting."""

    validation_threshold: int = 5
    window_ticks: int = 10
    portscan_threshold: int = 10
    grace: int = 60
    connect_ttl: int = 600
    report_interval: int = 50
    command_delay: int = 3


@dataclass
class ChildRecord:
    """What a management node tracks per direct subordinate."""

    address: NodeAddress
    kind: DeviceKind
    status: DeviceStatus = INITIAL_STATUS
    net_deadline: int = 0
    pkg_deadline: int = 0


_COMMAND_CONDS = {
    "policy": (_T.T9, _T.T10),
    "vulnerability": (_T.T11, _T.T12),
}


#: the message types, bound once: reading an ``Enum`` member off its class
#: costs a Python-level lookup on every heartbeat and frame
_NETWORK_TEST, _STATE_PKG = MsgType.NETWORK_TEST, MsgType.DEVICE_STATE_PKG
_DEVICE_EVENT, _TOPOLOGY_REPORT = MsgType.DEVICE_EVENT, MsgType.TOPOLOGY_REPORT
_COMMAND, _COMMAND_ACK = MsgType.COMMAND, MsgType.COMMAND_ACK
_RESPONSE_COORD, _SESSION_ALERT = MsgType.RESPONSE_COORD, MsgType.SESSION_ALERT

_NET_TEST_CONDS = (_T.T1,)
_NORMAL_PKG_CONDS = (_T.T3, _T.T6)
_ABNORMAL_PKG_CONDS = (_T.T3, _T.T5)


#: bound once, as the message types are
_NO_MARKER = ConnectionMarker.NONE
_ALERT = DeviceState.HANDLING_ALERT.value
#: the status T8 leaves a record in, by the waiting state T7 took it from
_AFTER_ALERT = {state: DeviceStatus(state, state) for state in WAITING_STATES}
#: the status a node starts in
_RUNNING_OK = DeviceStatus(DeviceState.RUNNING_OK)


def _heartbeat_conds(msg_type: MsgType, payload: object) -> tuple[TransferCondition, ...]:
    """The conditions a heartbeat applies to its sender's record at the
    parent, in order: T1 for a network test; T3, then T5 or T6, for a state
    package."""
    if msg_type is _NETWORK_TEST:
        return _NET_TEST_CONDS
    return _ABNORMAL_PKG_CONDS if payload == "abnormal" else _NORMAL_PKG_CONDS


def _renew(child: ChildRecord, hb: HeartbeatConfig, msg_type: MsgType, now: int) -> None:
    """Move the deadline that a heartbeat of ``msg_type`` heard at ``now``
    renews, by the timeout ``hb`` gives it."""
    if msg_type is _NETWORK_TEST:
        child.net_deadline = now + hb.network_test_timeout
    else:
        child.pkg_deadline = now + hb.state_pkg_timeout


class _Node:
    """What management nodes and device agents share: an address and the
    parent it names, a heartbeat cadence, the pipeline settings, a status,
    the log lines they leave for the harness and their silence's end."""

    def __init__(
        self,
        address: NodeAddress,
        hb: HeartbeatConfig | None,
        settings: PipelineSettings | None,
    ) -> None:
        self.address = address
        self.parent = address.parent()
        self.hb = hb or HeartbeatConfig()
        self.settings = settings or PipelineSettings()
        self.status = _RUNNING_OK
        self.lines: list[str] = []
        #: the end of the latest silence window, which began when applied
        self.silent_until = 0

    def _log(self, now: int, action: str, detail: str = "") -> None:
        line = f"NODE {self.address} {now} {action}"
        if detail:
            line += f" {detail}"
        self.lines.append(line)

    def drain_lines(self) -> list[str]:
        lines, self.lines = self.lines, []
        return lines

    def silence(self, until: int) -> None:
        self.silent_until = max(self.silent_until, until)

    @staticmethod
    def hear(msg_type: MsgType, payload: str, now: int) -> bool:
        """Offered each heartbeat this node sends at ``now``; True when its
        parent took it, so that no frame is built. A harness sets a hook per
        node bound to the parent's record of it; this default takes nothing."""
        return False

    def _heartbeats(
        self, out: list[Frame], now: int, net_due: bool, pkg_due: bool, payload: str
    ) -> None:
        """Append to ``out`` a frame of each heartbeat due at ``now`` that
        ``hear`` declines: the network test when ``net_due``, then the state
        package carrying ``payload`` when ``pkg_due``. Once the network test
        travels, the state package travels unoffered."""
        hear = self.hear
        if net_due and not hear(_NETWORK_TEST, "", now):
            out.append(Frame(_NETWORK_TEST, self.address, self.parent))
            hear = _Node.hear
        if pkg_due and not hear(_STATE_PKG, payload, now):
            out.append(Frame(_STATE_PKG, self.address, self.parent, payload))

    def silenced(self, now: int) -> bool:
        return now < self.silent_until

    def _apply_cond(self, holder, cond: TransferCondition, now: int) -> bool:
        """Step ``holder.status`` (this node or a tracked child) by ``cond``
        and log the change; True when the state changed."""
        old = holder.status.state
        if cond._value_ not in ARROWS_FROM[old._value_]:
            return False
        holder.status = step(holder.status, cond)[0]
        if holder.status.state is old:
            return False
        self._log(
            now,
            "STATE",
            f"{holder.address} {cond.value} {old.value}->{holder.status.state.value}",
        )
        self._state_changed(holder)
        return True

    def _state_changed(self, holder) -> None:
        """Called after ``_apply_cond`` changed ``holder``'s state."""


class SmnNode(_Node):
    """One security management node."""

    def __init__(
        self,
        address: NodeAddress,
        settings: PipelineSettings | None = None,
        hb: HeartbeatConfig | None = None,
        assets: AssetDb | None = None,
        counterplans: CounterplanStore | None = None,
    ) -> None:
        super().__init__(address, hb, settings)
        self.virtual_view = AddressedDeviceTree(
            shape=address.shape,
            root=DeviceNodeRecord(address=address, state=DeviceState.RUNNING_OK),
        )
        self.children: dict[NodeAddress, ChildRecord] = {}
        s = self.settings
        self.engine = CorrelationEngine(
            str(address), CorrelationConfig(grace=s.grace, connect_ttl=s.connect_ttl)
        )
        self.assets = assets or AssetDb()
        self.counterplans = counterplans or CounterplanStore()
        #: the cases this node launched, by id; none is ever removed, so
        #: their count numbers the next
        self.cases: dict[str, ResponseCase] = {}
        #: per case escalated to this node for coordination, its owner
        self.coordinated: dict[str, NodeAddress] = {}
        #: ids of the commands sent and not yet acked, in issue order
        self.pending_commands: dict[str, None] = {}
        self.command_counter = 0
        #: the view's changes, each a subtree's text, for the console mirror,
        #: which replays the root's view alone, so only the root records them
        self.changesets: list[str] = []
        self.session_lines: list[str] = []
        self.last_record: SessionRecord | None = None
        self.events_received = 0  # non-marker events
        self.events_dropped = 0

    # -- bookkeeping -------------------------------------------------------

    def add_child(self, address: NodeAddress, kind: DeviceKind) -> None:
        record = ChildRecord(address=address, kind=kind)
        record.net_deadline = self.hb.network_test_timeout
        record.pkg_deadline = self.hb.state_pkg_timeout
        # on_tick visits children in address order, which fixes the order of
        # their STATE lines. A child added after its last sibling in address
        # order, as a topology in address order adds every one, is appended;
        # only one that sorts before the last re-sorts them.
        children = self.children
        last = next(reversed(children), None)
        children[address] = record
        if last is not None and address.segments < last.segments:
            self.children = dict(sorted(children.items(), key=lambda kv: kv[0].segments))
        self.virtual_view.add_device(DeviceNodeRecord(address, record.status.state))

    def _case_line(self, case_id: str, now: int, actor: object, action: str) -> None:
        self.lines.append(er.format_case_line(case_id, now, str(actor), action))

    def drain_changesets(self) -> list[str]:
        out, self.changesets = self.changesets, []
        return out

    def _record(self, change: str | None) -> None:
        if self.parent is None and change is not None:
            self.changesets.append(change)

    def _state_changed(self, holder) -> None:
        self._record(self.virtual_view.set_state(holder.address, holder.status.state))

    def _emit_report(self, now: int) -> list[Frame]:
        """The topology report to the parent, logged; none at the root or
        while silenced, where the report could not travel."""
        if self.parent is None or self.silenced(now):
            return []
        self._log(now, "REPORT", "")
        report = self.virtual_view.serialize()
        return [Frame(_TOPOLOGY_REPORT, self.address, self.parent, report)]

    # -- frame handling ----------------------------------------------------

    def on_frame(self, frame: Frame, now: int) -> list[Frame]:
        mt = frame.msg_type
        if mt is _COMMAND:
            return self._on_command(frame, now)
        if mt is _COMMAND_ACK:
            cmd_id = frame.payload
            if cmd_id in self.pending_commands:
                del self.pending_commands[cmd_id]
                self._log(now, "ACK", f"{cmd_id} {frame.src}")
            return []
        if mt is _RESPONSE_COORD:
            return self._on_response_coord(frame, now)
        # every other type comes from a child
        child = self.children.get(frame.src)
        if child is None:
            self._log(now, "UNKNOWN", f"{frame.src} {mt.name}")
            return []
        if mt is _NETWORK_TEST or mt is _STATE_PKG:
            for cond in _heartbeat_conds(mt, frame.payload):
                self._apply_cond(child, cond, now)
            _renew(child, self.hb, mt, now)
            return []
        if mt is _DEVICE_EVENT:
            return self._on_device_event(child, frame, now)
        if mt is _TOPOLOGY_REPORT:
            return self._on_topology_report(child, frame, now)
        return self._on_session_alert(frame)

    def heard(self, child: ChildRecord, msg_type: MsgType, payload: str, now: int) -> bool:
        """Take a heartbeat of ``child`` (one of this node's records; a network
        test, or a state package carrying ``payload``) as arriving at ``now``
        when ``on_frame`` would only move the deadline it renews, because
        none of its conditions has an arrow from the child's state: move that
        deadline and return True. Otherwise change nothing and return False;
        the heartbeat must then reach ``on_frame`` as a frame."""
        arrows = ARROWS_FROM[child.status.state._value_]
        for cond in _heartbeat_conds(msg_type, payload):
            if cond._value_ in arrows:
                return False
        _renew(child, self.hb, msg_type, now)
        return True

    def _on_device_event(self, child: ChildRecord, frame: Frame, now: int) -> list[Frame]:
        # The frame carries one flush's events, in order. From a waiting state
        # T7 and T8 are a closed pair around each (see the module docstring):
        # log both and leave the status T8 would.
        events: tuple[NormalizedEvent, ...] = frame.payload
        state = child.status.state
        paired = _T.T7._value_ in ARROWS_FROM[state._value_]
        if paired:
            t7 = f"{child.address} T7 {state.value}->{_ALERT}"
            t8 = f"{child.address} T8 {_ALERT}->{state.value}"
        log, out = self._log, []
        kept = iter(validate(events, self.assets, self.settings.validation_threshold))
        take = next(kept, None)
        for ev in events:
            if paired:
                log(now, "STATE", t7)
            if ev.connection_marker is _NO_MARKER:
                self.events_received += 1
            if take is None or take[0] is not ev:
                self.events_dropped += 1
                log(now, "DROP", ev.event_id)
            else:
                take = next(kept, None)
                for action in self.engine.on_event(ev, now):
                    record = self.last_record = action.record
                    if action.kind == "ending":
                        self.session_lines.append(format_session_line(record))
                        log(now, "ALERT", record.session_id)
                        if self.parent is not None:
                            out.append(Frame(_SESSION_ALERT, self.address, self.parent, record))
            if paired:
                log(now, "STATE", t8)
        if paired:
            child.status = _AFTER_ALERT[state]
        return out

    def _on_topology_report(self, child: ChildRecord, frame: Frame, now: int) -> list[Frame]:
        try:
            change = self.virtual_view.assemble(frame.payload)
        except (TreeError, AddressError) as exc:
            self._log(now, "BADREPORT", f"{frame.src} {exc}")
            return []
        self._record(change)
        self._log(now, "ASSEMBLE", str(frame.src))
        return self._emit_report(now)

    def _on_session_alert(self, frame: Frame) -> list[Frame]:
        record = self.last_record = frame.payload
        self.session_lines.append(format_session_line(record))
        if self.parent is None:
            return []
        return [Frame(_SESSION_ALERT, self.address, self.parent, record)]

    def _on_command(self, frame: Frame, now: int) -> list[Frame]:
        order: Order = frame.payload
        conds = _COMMAND_CONDS.get(order.kind)
        if conds is not None:
            # execution is immediate for a management node
            self._apply_cond(self, conds[0], now)
            self._apply_cond(self, conds[1], now)
        self._log(now, "CMD", f"{order.cmd_id} {order.kind}")
        return [Frame(_COMMAND_ACK, self.address, frame.src, order.cmd_id)]

    # -- commands ----------------------------------------------------------

    def dispatch_command(
        self, target: NodeAddress, kind: str, now: int
    ) -> tuple[str, list[Frame]]:
        """Log and send a ``kind`` command to ``target``, below this node as
        set-up requires (``Simulation``); return its id and the frame."""
        self.command_counter += 1
        cmd_id = f"{self.address}!{self.command_counter}"
        self.pending_commands[cmd_id] = None
        self._log(now, "COMMAND", f"{cmd_id} {kind} {target}")
        return cmd_id, [Frame(_COMMAND, self.address, target, Order(kind, cmd_id))]

    def log_unacked(self, now: int) -> None:
        """Log one ``UNACKED`` line per command still waiting for its ACK, in
        issue order: the end of a run names the commands whose ACK was lost."""
        for cmd_id in self.pending_commands:
            self._log(now, "UNACKED", cmd_id)

    # -- emergency response ------------------------------------------------

    def respond_launch(self, now: int) -> ResponseCase:
        """Open a case on ``last_record``, the latest session record to reach
        this node: one its own engine emitted (an update or an ending), or
        one a child forwarded (a session that ended below it)."""
        record = self.last_record
        if record is None:
            raise ResponseError(f"{self.address} has no alert to respond to")
        case_id = f"{self.address}#c{len(self.cases) + 1}"
        case = ResponseCase(case_id, self.counterplans.resolve(record.top_classification))
        self.cases[case_id] = case
        self._case_line(case_id, now, self.address, f"launch:{case.plan}")
        return case

    def respond_escalate(self, case_id: str, now: int) -> list[Frame]:
        """Send the case to this node's parent, which coordinates it."""
        if self.parent is None:
            raise ResponseError(f"{self.address} has no parent to escalate to")
        self._case_line(case_id, now, self.address, "escalate")
        return [Frame(_RESPONSE_COORD, self.address, self.parent, Escalate(case_id))]

    def respond_enlist(
        self, case_id: str, targets: list[NodeAddress], now: int
    ) -> list[Frame]:
        owner = self.coordinated.get(case_id)
        if owner is None:
            raise ResponseError(f"{self.address} does not coordinate {case_id}")
        for target in targets:
            if not self.address.is_ancestor(target):
                raise ResponseError(f"{target} not below {self.address}")
        self._log(now, "ENLIST", f"{case_id} {','.join(str(t) for t in targets)}")
        coord = _RESPONSE_COORD
        frames = [Frame(coord, self.address, t, Advisory(case_id, owner)) for t in targets]
        frames.append(Frame(coord, self.address, owner, Enlisted(case_id, tuple(targets))))
        return frames

    def respond_advance(self, case_id: str, now: int) -> list[Frame]:
        case = self.cases.get(case_id)
        if case is not None:
            self._advance_local(case, self.address, now)
            return []
        owner = self.coordinated.get(case_id)
        if owner is not None:
            return [Frame(_RESPONSE_COORD, self.address, owner, Advance(case_id))]
        self._log(now, "RESPOND-ERROR", f"unknown case {case_id}")
        return []

    def _advance_local(self, case: ResponseCase, actor: NodeAddress, now: int) -> None:
        try:
            er.advance(case)
            self._case_line(case.case_id, now, actor, f"advance:{case.phase.value}")
        except ResponseError:
            self._case_line(case.case_id, now, actor, "advance-rejected")

    def _on_response_coord(self, frame: Frame, now: int) -> list[Frame]:
        msg, src = frame.payload, frame.src
        case_id = msg.case_id
        if type(msg) is Escalate:
            self.coordinated[case_id] = src
            self._log(now, "COORD", case_id)
            return []
        if type(msg) is Advisory:
            self._log(now, "ADVISORY", case_id)
            return [Frame(_RESPONSE_COORD, self.address, msg.owner, Confirm(case_id))]
        case = self.cases.get(case_id)
        if case is None:
            return []
        if type(msg) is Confirm:
            case.confirmed.add(src)
            self._case_line(case_id, now, src, "confirm")
        elif type(msg) is Enlisted:
            for target in er.enlist(case, msg.targets):
                self._case_line(case_id, now, src, f"enlist:{target}")
        else:
            self._advance_local(case, src, now)
        return []

    # -- clock -------------------------------------------------------------

    def on_tick(self, now: int) -> list[Frame]:
        out: list[Frame] = []
        hb = self.hb
        for child in self.children.values():
            if now >= child.pkg_deadline:
                self._apply_cond(child, _T.T4, now)
                child.pkg_deadline = now + hb.state_pkg_timeout
            if now >= child.net_deadline:
                changed = self._apply_cond(child, _T.T2, now)
                child.net_deadline = now + hb.network_test_timeout
                if (
                    changed
                    and child.status.state is DeviceState.NET_DOWN
                    and child.kind is DeviceKind.SMN
                ):
                    self._record(
                        self.virtual_view.disassemble(child.address, DeviceState.NET_DOWN)
                    )
                    self._log(now, "DISASSEMBLE", str(child.address))
                    out.extend(self._emit_report(now))
        if self.parent is not None:
            net_due = now % hb.network_test_interval == 0
            pkg_due = now % hb.state_pkg_interval == 0
            if (net_due or pkg_due) and not self.silenced(now):
                self._heartbeats(out, now, net_due, pkg_due, "normal")
            if now % self.settings.report_interval == 0:
                out.extend(self._emit_report(now))
        return out

    def next_wake(self, now: int) -> int:
        """The first tick after ``now`` at which ``on_tick`` can act, given no
        new frame: the earliest child deadline and, below the root, the next
        network test, state package or topology report; ``NEVER`` for a root
        without children."""
        wake = NEVER
        for child in self.children.values():
            wake = min(wake, child.pkg_deadline, child.net_deadline)
        if self.parent is not None:
            for every in (
                self.hb.network_test_interval,
                self.hb.state_pkg_interval,
                self.settings.report_interval,
            ):
                wake = min(wake, now - now % every + every)
        return wake


class DeviceAgent(_Node):
    """Simulated managed device: heartbeats, scripted events, command acks."""

    def __init__(
        self,
        address: NodeAddress,
        kind: DeviceKind,
        hb: HeartbeatConfig | None = None,
        settings: PipelineSettings | None = None,
        filter_rules: list[FilterRule] | None = None,
        mapping: ClassificationMap | None = None,
    ) -> None:
        super().__init__(address, hb, settings)
        self.kind = kind
        self.filter_rules = filter_rules or []
        self.mapping = mapping or ClassificationMap()
        #: events this device has normalized; the last one's id ends in it
        self.event_seq = 0
        #: what each event id starts with, before the sequence number
        self._id_prefix = f"{address}-"
        #: the emits not yet flushed, in tick order: the device's script,
        #: which a harness files before the run
        self.buffer: list[Emit] = []
        #: the end of the latest abnormal window, as ``silent_until``
        self.abnormal_until = 0
        self.pending_acks: list[tuple[int, str, TransferCondition, NodeAddress]] = []

    def mark_abnormal(self, until: int) -> None:
        self.abnormal_until = max(self.abnormal_until, until)

    def on_frame(self, frame: Frame, now: int) -> list[Frame]:
        if frame.msg_type is not _COMMAND:
            return []
        order: Order = frame.payload
        conds = _COMMAND_CONDS.get(order.kind)
        if conds is None:
            return [Frame(_COMMAND_ACK, self.address, frame.src, order.cmd_id)]
        self._apply_cond(self, conds[0], now)
        self.pending_acks.append(
            (now + self.settings.command_delay, order.cmd_id, conds[1], frame.src)
        )
        return []

    def next_wake(self, now: int) -> int:
        """The first tick after ``now`` at which ``step`` can act, given no new
        frame: the next heartbeat, the flush of the first emit in the buffer
        (the first window boundary after its tick, or after ``now`` when a
        silence deferred it), or the earliest pending ack."""
        net, pkg = self.hb.network_test_interval, self.hb.state_pkg_interval
        wake = min(now - now % net + net, now - now % pkg + pkg)
        if self.buffer:
            window = self.settings.window_ticks
            u = max(self.buffer[0].tick, now)
            wake = min(wake, u - u % window + window)
        for due, *_ in self.pending_acks:
            wake = min(wake, due)
        return wake

    def step(self, now: int) -> list[Frame]:
        out: list[Frame] = []
        if self.pending_acks:
            still: list[tuple[int, str, TransferCondition, NodeAddress]] = []
            for due, cmd_id, cond_out, reply_to in self.pending_acks:
                if due <= now:
                    # a command completes on schedule, in a silence too
                    self._apply_cond(self, cond_out, now)
                    self._log(now, "CMD", f"{cmd_id} done")
                    out.append(Frame(_COMMAND_ACK, self.address, reply_to, cmd_id))
                else:
                    still.append((due, cmd_id, cond_out, reply_to))
            self.pending_acks = still
        if self.silenced(now):
            # no heartbeat is offered, and the flush waits
            return []
        net_due = now % self.hb.network_test_interval == 0
        pkg_due = now % self.hb.state_pkg_interval == 0
        if net_due or pkg_due:
            abnormal = pkg_due and now < self.abnormal_until
            self._heartbeats(out, now, net_due, pkg_due, "abnormal" if abnormal else "normal")
        buffer = self.buffer
        if buffer and buffer[0].tick < now and now % self.settings.window_ticks == 0:
            # the emits before this tick, a prefix of the tick-ordered buffer
            cut = bisect_left(buffer, now, key=_TICK)
            self.buffer = buffer[cut:]
            out.extend(self._flush(buffer[:cut]))
        return out

    def _flush(self, ready: list[Emit]) -> list[Frame]:
        """The one ``DEVICE_EVENT`` frame of the emits ``ready``, in tick
        order: those the filter keeps, normalized and aggregated; no frame
        when the filter keeps none."""
        address, kind, rules = self.address, self.kind, self.filter_rules
        kept = [e for e in ready if filter_event(e, kind, rules)] if rules else ready
        if not kept:
            return []
        mapping, prefix, seq = self.mapping, self._id_prefix, self.event_seq
        normalized = [
            normalize(e, address, kind, mapping, prefix, seq + n) for n, e in enumerate(kept, 1)
        ]
        self.event_seq += len(kept)
        aggregated = aggregate_single_device(
            normalized, self.settings.window_ticks, self.settings.portscan_threshold
        )
        return [Frame(_DEVICE_EVENT, address, self.parent, tuple(aggregated))]
