"""Deterministic scenario runner.

One tick is one global delivery step. Per tick the harness applies scenario
directives and lets the nodes that are due or addressed drain their mailbox
and act, in address order: each node a frame arrived for, each node whose
own timers fall due, as kept on a timing wheel from ``next_wake``
(``SmnNode.next_wake``, ``DeviceAgent.next_wake``), and each management
node a ``command`` or ``respond`` directive logged on. A node skipped on a
tick has nothing to do on it, management nodes included: the harness does
not drive correlation, since a correlation engine sweeps itself when an
event reaches it (see ``session_correlation``). The harness then injects
the collected outbound frames, replays the root's changes onto the
console mirror, and advances the network one hop. Identical inputs and
seed give byte-identical reports.

Each step is skipped where it has nothing to do. The directive pass runs
only on a tick with directives, before the wheel is read, since a directive
that logs at a management node files the node for the same tick. A quiet
tick, with no node due, no frame arrived and no frame outbound, only steps
the network, which still moves the frames in transit. Every tick steps the
network once.

Nodes return their frames unnumbered, and ``_send``, which hands them to
the network, numbers each one there with the sender's ``FrameBuilder``
(one per node, kept here), so frames that never travel take no number (see
``messaging``).

``deadletters.txt`` lists the frames loss windows dropped, one line each
in the order the network dropped them, with the tick, the hop, the type,
the sender and the destination (see ``SimNetwork``). It names no ``seq``:
a heartbeat its parent takes is never built and takes no number, so the
visit-every-node reference loop, which builds every heartbeat, numbers the
same dropped frame otherwise, and the two loops must report the same.

Every node runs on the topology's one cadence, ``topology.heartbeat``. A
heartbeat that would change nothing at its parent but a deadline is never
built: its sender offers it to its ``hear`` hook, which ``__init__`` binds
to the parent, its ``ChildRecord`` of the sender and the network's loss
windows, and the parent takes it by ``SmnNode.heard`` as arriving at the
next tick, as the frame would. That is exact. Slots follow address order, so when a node
runs, its parent has already run at this tick or does not run at it, and
the record stands as it will when the tick's frames land.
Until the frame's turn in the parent's mailbox nothing touches that child's
record: the frames before it there are acknowledgements, reports, alerts
and frames from other children, and the child's own events follow its
heartbeats; an event leaves the record in the waiting state it found (its
T7/T8 pair is closed, see ``node_runtime``). Deadlines only move later, so
a parent filed on the timing wheel under an older deadline wakes, finds
nothing due and files again. The hook declines a heartbeat, which then goes
as a frame, when one of its conditions has an arrow from the parent's
record of the child, or when a loss window covers its hop (it keeps its
draw from the network's random source); and a sender offers no heartbeat
after one of its tick went as a frame (see ``node_runtime``).

A scenario's emits are no tick's directives: set-up files each one on its
device's agent, whose ``buffer`` is then the device's script of emits not
yet flushed, in tick order (see ``node_runtime``), and the agent's
``next_wake`` names the flush of the first. Set-up alone checks a script's
values, parsed or built by hand, and refuses one out of tick order, so each
buffer is in tick order as filed. A flush travels as one ``DEVICE_EVENT``
frame carrying its events, so a loss window with a rate below 1 on the
device's hop draws once per flush and keeps or drops all its events
together, with one dead letter for a dropped flush.

A scenario window is applied at its start tick, before any node runs, so
a window held has begun: a node keeps only the end of its latest silence or
abnormal window, and the network holds each loss window, which covers its
hop until the first tick it has ended: the network's step into that tick
drops it. The network alone decides a loss, with its own random source
seeded with the scenario's ``seed`` (see ``SimNetwork``).
``_run_node`` alone drops a silenced node's frames, so they take no
number.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .addressing import AddressError, NodeAddress
from .config import (
    Command,
    ConfigError,
    Directive,
    Emit,
    InjectLoss,
    Respond,
    ScenarioScript,
    TopologyConfig,
    Window,
)
from .device_model import DeviceKind
from .device_tree import TreeError, build_tree
from .emergency_response import CounterplanStore, ResponseError
from .messaging import Frame, FrameBuilder, LossWindow, MsgType, SimNetwork, covering_rates
from .node_runtime import ChildRecord, DeviceAgent, SmnNode


class InvariantViolation(Exception):
    pass


#: The fields each respond action takes; launch and enlist require the first.
_RESPOND_FIELDS = {
    "launch": ("owner",),
    "escalate": (),
    "enlist": ("targets",),
    "advance": ("actor",),
}


@dataclass
class RunReport:
    """Everything a run leaves behind, as plain newline-delimited text."""

    sessions: list[str] = field(default_factory=list)
    tree_text: str = ""
    mirror_text: str = ""
    node_lines: list[str] = field(default_factory=list)
    case_lines: list[str] = field(default_factory=list)
    dead_letters: list[str] = field(default_factory=list)

    def files(self) -> dict[str, str]:
        def block(lines: list[str]) -> str:
            return "\n".join(lines) + "\n" if lines else ""

        return {
            "sessions.txt": block(self.sessions),
            "tree.txt": self.tree_text + "\n",
            "mirror.txt": self.mirror_text + "\n",
            "nodes.txt": block(self.node_lines),
            "cases.txt": block(self.case_lines),
            "deadletters.txt": block(self.dead_letters),
        }

    def write(self, outdir: str) -> None:
        os.makedirs(outdir, exist_ok=True)
        for name, content in self.files().items():
            with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
                fh.write(content)


def _hearing(record: ChildRecord, parent: SmnNode, windows: list[LossWindow]):
    """A node's ``hear`` hook: ``parent`` takes a heartbeat sent at ``now``
    by ``SmnNode.heard`` on ``record``, its record of the node, as arriving
    at ``now + 1``, unless one of ``windows``, the network's list of loss
    windows, covers the hop. The deadline moves by the parent's cadence,
    the run's one, as ``on_frame`` would move it.

    The hook's state is bound as defaults, not closed over: that makes two
    objects per node for the garbage collector to scan while a simulation
    is set up, where closure cells make seven."""

    def hear(
        msg_type: MsgType,
        payload: str,
        now: int,
        record: ChildRecord = record,
        parent: SmnNode = parent,
        windows: list[LossWindow] = windows,
        heard=SmnNode.heard,
    ) -> bool:
        if windows and covering_rates(windows, record.address, parent.address):
            return False
        return heard(parent, record, msg_type, payload, now + 1)

    return hear


def _emit_range_error(d: Emit) -> ConfigError:
    """The error for an emit whose ``sev`` or a port is out of range."""
    if not 1 <= d.severity <= 5:
        return ConfigError(f"sev {d.severity} outside 1..5", d.line_no)
    name, port = ("src", d.src_port) if not 0 <= d.src_port <= 65535 else ("dst", d.dst_port)
    return ConfigError(f"{name} port {port} outside 0..65535", d.line_no)


class Simulation:
    def __init__(
        self,
        topology: TopologyConfig,
        scenario: ScenarioScript,
        debug: bool = False,
    ) -> None:
        self.topology = topology
        self.scenario = scenario
        self.debug = debug
        self.shape = topology.shape
        self.network = SimNetwork(topology.nodes, scenario.seed)

        counterplans = CounterplanStore()
        if topology.counterplan_dir:
            counterplans = CounterplanStore.load_dir(topology.counterplan_dir)

        self.order = self.network.order
        self.smns: dict[NodeAddress, SmnNode] = {}
        self.agents: dict[NodeAddress, DeviceAgent] = {}
        self._nodes: list[SmnNode | DeviceAgent] = []
        # in address order, so that each node's parent is built before it
        for addr in self.order:
            kind = topology.nodes[addr]
            if kind is DeviceKind.SMN:
                node = self.smns[addr] = SmnNode(
                    address=addr,
                    settings=topology.pipeline,
                    hb=topology.heartbeat,
                    assets=topology.assets,
                    counterplans=counterplans,
                )
            else:
                node = self.agents[addr] = DeviceAgent(
                    address=addr,
                    kind=kind,
                    hb=topology.heartbeat,
                    settings=topology.pipeline,
                    filter_rules=topology.filter_rules,
                    mapping=topology.mapping,
                )
            self._nodes.append(node)
            if node.parent is not None:
                smn = self.smns[node.parent]
                smn.add_child(addr, kind)
                node.hear = _hearing(smn.children[addr], smn, self.network.loss_windows)
        self._builders = {addr: FrameBuilder() for addr in self.order}
        self._smn_slots = frozenset(self.network.slots[addr] for addr in self.smns)
        # The timing wheel: tick -> slots of the nodes due then, and per slot
        # the tick it is filed under. Every node acts at tick 0.
        self._wake = [0] * len(self.order)
        self._wheel: dict[int, set[int]] = {0: set(range(len(self.order)))}
        self.root = self.smns[topology.root]
        self.mirror = build_tree(self.root.virtual_view.serialize(), self.shape)
        self.handles: dict[str, tuple[NodeAddress, str]] = {}
        self.collected: list[str] = []
        #: the directives other than emits by tick, each with what it names
        self._by_tick: dict[int, list[tuple[Directive, object]]] = {}
        self._validate_directives()

    # -- setup helpers -----------------------------------------------------

    def _validate_directives(self) -> None:
        """The one gate for a script's rules, parsed or built by hand: a value
        or name that breaks one is a ConfigError on its line (``drain`` has
        none), never a failure mid-run or a directive ignored. ``drain`` and
        ticks are ``>= 0``, and ticks in order. An emit's ports lie in
        0..65535 and its ``sev`` in 1..5. A window or loss window ends after
        its tick; a loss window's rate lies in (0, 1], on a tree link. A
        respond action is known and given only the fields it takes, a launch
        its owner and an enlist its targets, each once; every node it names
        is a management node, and an action other than launch names a handle
        an earlier launch binds. File each emit on its device's agent,
        appending it to the agent's ``buffer``, and the other directives by
        tick with what they name: a window's node, a command's target, a
        ``LossWindow``, and a respond's owner, targets and actor. The run
        ends ``drain`` ticks after the latest directive."""
        if self.scenario.drain < 0:
            raise ConfigError(f"drain must be >= 0, got {self.scenario.drain}")
        launched: set[str] = set()
        #: per device text an emit names, its agent's buffer
        buffers: dict[str, list[Emit]] = {}
        latest = 0
        for d in self.scenario.directives:
            line_no, tick = d.line_no, d.tick
            if tick < latest:
                raise ConfigError(
                    f"tick must be >= 0, got {tick}" if tick < 0
                    else "directives must be time-ordered",
                    line_no,
                )
            latest = tick
            if isinstance(d, Emit):
                if not (1 <= d.severity <= 5 and 0 <= d.src_port <= 65535
                        and 0 <= d.dst_port <= 65535):
                    raise _emit_range_error(d)
                buffer = buffers.get(d.device)
                if buffer is None:
                    addr = self._addr(d.device, line_no)
                    if addr not in self.agents:
                        raise ConfigError(f"emit target {addr} is not a device", line_no)
                    buffer = buffers[d.device] = self.agents[addr].buffer
                buffer.append(d)
                continue
            if isinstance(d, InjectLoss) and not 0 < d.rate <= 1:
                rate = str(d.rate).removesuffix(".0")
                raise ConfigError(f"rate {rate} outside (0, 1]", line_no)
            if isinstance(d, (Window, InjectLoss)) and d.until <= tick:
                raise ConfigError(f"until {d.until} is not after tick {tick}", line_no)
            if isinstance(d, Window):
                addr = self._addr(d.node, line_no)
                if d.abnormal and addr not in self.agents:
                    raise ConfigError(f"abnormal target {addr} is not a device", line_no)
                named = self._nodes[self.network.slots[addr]]
            elif isinstance(d, Command):
                named = self._addr(d.target, line_no)
                if not self.root.address.is_ancestor(named):
                    raise ConfigError(f"command target {named} is not below the root", line_no)
            elif isinstance(d, InjectLoss):
                # frames cross only tree links, so a window off them drops none
                src, dst = self._addr(d.src, line_no), self._addr(d.dst, line_no)
                if src.parent() != dst and dst.parent() != src:
                    raise ConfigError(f"inject-loss {src}->{dst} is not a tree link", line_no)
                named = (src, dst, d.until, d.rate)
            else:
                takes = _RESPOND_FIELDS.get(d.action)
                if takes is None:
                    raise ConfigError(f"unknown respond action {d.action!r}", line_no)
                for name in ("owner", "targets", "actor"):
                    if getattr(d, name) is not None and name not in takes:
                        raise ConfigError(f"unknown respond {d.action} field {name!r}", line_no)
                if d.action in ("launch", "enlist") and getattr(d, takes[0]) is None:
                    raise ConfigError(f"respond {d.action} needs {takes[0]}=", line_no)
                # an enlisted device would drop its advisory and never confirm,
                # and a target named twice would be advised twice
                targets: list[NodeAddress] = []
                for text in d.targets or ():
                    target = self._smn("target", text, line_no)
                    if target in targets:
                        raise ConfigError(f"respond enlist target {target} given twice", line_no)
                    targets.append(target)
                owner = None if d.owner is None else self._smn("owner", d.owner, line_no)
                actor = None if d.actor is None else self._smn("actor", d.actor, line_no)
                if d.action == "launch":
                    launched.add(d.handle)
                elif d.handle not in launched:
                    raise ConfigError(f"no earlier respond launch binds {d.handle!r}", line_no)
                named = (owner, targets, actor)
            self._by_tick.setdefault(tick, []).append((d, named))
        #: the run's last tick: the drain after the latest directive
        self.end_tick = latest + self.scenario.drain

    def _addr(self, text: str, line_no: int) -> NodeAddress:
        """The declared node ``text`` names."""
        try:
            addr = NodeAddress.parse(text, self.shape)
        except AddressError as exc:
            raise ConfigError(f"bad address {text!r}: {exc}", line_no) from exc
        if addr not in self.topology.nodes:
            raise ConfigError(f"unknown node {text}", line_no)
        return addr

    def _smn(self, name: str, text: str, line_no: int) -> NodeAddress:
        """The management node ``text`` names as a respond ``name``."""
        addr = self._addr(text, line_no)
        if addr not in self.smns:
            raise ConfigError(f"respond {name} {addr} is not a management node", line_no)
        return addr

    # -- directives --------------------------------------------------------

    def _apply_directives(self, tick: int, outbound: list[Frame]) -> None:
        logged = False
        for d, named in self._by_tick.get(tick, ()):
            if isinstance(d, Window):
                if d.abnormal:
                    named.mark_abnormal(d.until)
                else:
                    named.silence(d.until)
            elif isinstance(d, Command):
                outbound.extend(self.root.dispatch_command(named, d.kind, tick)[1])
                logged = True
            elif isinstance(d, Respond):
                self._do_respond(d, named, tick, outbound)
                logged = True
            else:
                self.network.loss_windows.append(named)
        if logged:
            # a node leaves the lines a directive logged on it at its own
            # slot of this tick, so it runs now
            for slot in self._smn_slots:
                if self._nodes[slot].lines:
                    self._schedule(slot, tick)

    def _do_respond(self, d: Respond, named: tuple, tick: int, outbound: list[Frame]) -> None:
        """Act on ``d``; ``named`` is its owner, targets and actor, as set-up
        resolved them."""
        owner, targets, actor = named
        try:
            if d.action == "launch":
                case = self.smns[owner].respond_launch(tick)
                self.handles[d.handle] = (owner, case.case_id)
                return
            if d.handle not in self.handles:
                self.root._log(tick, "RESPOND-ERROR", f"{d.handle} has no case: its launch failed")
                return
            owner, case_id = self.handles[d.handle]
            if d.action == "escalate":
                outbound.extend(self.smns[owner].respond_escalate(case_id, tick))
            elif d.action == "enlist":
                # the node the case escalates to, which alone may enlist
                enlister = self.smns[owner.parent() or owner]
                outbound.extend(enlister.respond_enlist(case_id, targets, tick))
            else:
                outbound.extend(self.smns[actor or owner].respond_advance(case_id, tick))
        except ResponseError as exc:
            self.root._log(tick, "RESPOND-ERROR", str(exc))

    # -- the loop ----------------------------------------------------------

    def _schedule(self, slot: int, tick: int) -> None:
        """File the node in ``slot`` under ``tick`` alone."""
        filed = self._wake[slot]
        if filed == tick:
            return
        bucket = self._wheel.get(filed)
        if bucket is not None:
            bucket.discard(slot)
        self._wheel.setdefault(tick, set()).add(slot)
        self._wake[slot] = tick

    def _run_node(self, slot: int, tick: int, addressed: bool) -> list[Frame]:
        node = self._nodes[slot]
        out: list[Frame] = []
        if addressed:
            addr = self.order[slot]
            frame = self.network.poll(addr)
            while frame is not None:
                out.extend(node.on_frame(frame, tick))
                frame = self.network.poll(addr)
        ticked = node.on_tick(tick) if slot in self._smn_slots else node.step(tick)
        self._schedule(slot, node.next_wake(tick))
        if tick < node.silent_until:
            # no frame of a silenced node travels, answer or heartbeat
            return []
        out.extend(ticked)
        return out

    def _send(self, outbound: list[Frame]) -> None:
        """Number the tick's outbound frames and hand them to the network.
        Heartbeats a parent took were never built (see the module
        docstring)."""
        send, builders = self.network.send, self._builders
        for frame in outbound:
            builders[frame.src].build(frame)
            send(frame)

    def run(self) -> RunReport:
        network, root, wheel, nodes = self.network, self.root, self._wheel, self._nodes
        by_tick, debug = self._by_tick, self.debug
        for tick in range(self.end_tick + 1):
            outbound: list[Frame] = []
            # first, as a directive that logs at a management node files it
            # for this tick
            if tick in by_tick:
                self._apply_directives(tick, outbound)
            due = wheel.pop(tick, ())
            arrived = network.arrived
            if not (due or arrived or outbound):
                # a quiet tick: no node to run, so only the network moves
                network.step()
                continue
            if arrived:
                network.arrived = set()
                due = arrived.union(due)
            for slot in sorted(due):
                outbound.extend(self._run_node(slot, tick, slot in arrived))
                node = nodes[slot]
                if node.lines:
                    self.collected.extend(node.drain_lines())
            if outbound:
                self._send(outbound)
            if root.changesets:
                for change in root.drain_changesets():
                    self.mirror.apply_changeset(change)
            network.step()
            if debug:
                self._check_invariants()
        return self._report()

    def _check_invariants(self) -> None:
        """The ``--debug`` pass, whole on every tick a node runs on (a quiet
        tick runs none, so it changes nothing checked here): the console
        mirror equals the root's view, the view of every management node and
        the mirror are valid trees, and every management node accounts for
        its events."""
        have = self.mirror.serialize()
        want = self.root.virtual_view.serialize()
        if have != want:
            raise InvariantViolation(f"mirror diverged:\n  {have}\n  {want}")
        try:
            for smn in self.smns.values():
                smn.virtual_view.validate()
            self.mirror.validate()
        except TreeError as exc:
            raise InvariantViolation(str(exc)) from exc
        self._check_accounting()

    def _check_accounting(self) -> None:
        """Every management node accounts for each event it received as
        dropped, joined to an alert or independent."""
        for smn in self.smns.values():
            engine = smn.engine
            accounted = (
                smn.events_dropped + engine.joined_events + engine.independent_events
            )
            if accounted != smn.events_received:
                raise InvariantViolation(
                    f"{smn.address}: {smn.events_received} events in, {accounted} accounted"
                )

    def _report(self) -> RunReport:
        """Check the event accounting and build the report. Management nodes
        in address order, the root first, log the commands still waiting for
        their ACK at the last tick and list their alerts still open after
        the ended sessions the root holds."""
        self._check_accounting()
        sessions = list(self.root.session_lines)
        for slot in sorted(self._smn_slots):
            node = self._nodes[slot]
            node.log_unacked(self.end_tick)
            self.collected.extend(node.drain_lines())
            sessions.extend(node.engine.open_session_lines())
        return RunReport(
            sessions=sessions,
            tree_text=self.root.virtual_view.serialize(),
            mirror_text=self.mirror.serialize(),
            node_lines=[l for l in self.collected if l.startswith("NODE ")],
            case_lines=[l for l in self.collected if l.startswith("CASE ")],
            dead_letters=list(self.network.dead_letters),
        )

