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
the collected outbound frames, replays the root's change sets onto the
console mirror, and advances the network one hop. Identical inputs and
seed give byte-identical reports.

Nodes return their frames unnumbered, and ``_send``, which hands them to
the network, numbers each one there with the sender's ``FrameBuilder``
(one per node, kept here), so frames that never travel take no number (see
``messaging``).

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

A scenario window is applied at its start tick, before any node runs, so
a window held has begun: a node keeps only the end of its latest silence or
abnormal window, and the network holds each loss window, which covers its
hop until the first tick it has ended, when ``_apply_directives`` drops it
from the network's list. The network alone decides a loss, with its own
random source seeded with the scenario's ``seed`` (see ``SimNetwork``).
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
        self._by_tick: dict[int, list[Directive]] = {}
        #: per device text an emit names, the agent and its slot
        self._emit_targets: dict[str, tuple[DeviceAgent, int]] = {}
        self._validate_directives()

    # -- setup helpers -----------------------------------------------------

    def _validate_directives(self) -> None:
        """Check what each directive names against the topology, and each
        emit's ports and severity, so a bad address or value is a ConfigError
        here, never a failure mid-run, and file the directives by tick, and
        the agent and slot of each emit's device. A loss window lies on a tree
        link, every node a respond action names is a management node, and an
        action other than launch must name a handle that an earlier launch
        binds."""
        launched: set[str] = set()
        for d in self.scenario.directives:
            self._by_tick.setdefault(d.tick, []).append(d)
            line_no = d.line_no
            if isinstance(d, Emit):
                # the parser bounds what it reads; this bounds a hand-built one
                if not (0 <= d.src_port <= 65535 and 0 <= d.dst_port <= 65535
                        and 1 <= d.severity <= 5):
                    raise ConfigError(f"emit port or sev out of range in {d}", line_no)
                if d.device in self._emit_targets:
                    continue
                addr = self._addr(d.device, line_no)
                if addr not in self.agents:
                    raise ConfigError(f"emit target {addr} is not a device", line_no)
                self._emit_targets[d.device] = (self.agents[addr], self.network.slots[addr])
            elif isinstance(d, Window):
                addr = self._addr(d.node, line_no)
                if d.abnormal and addr not in self.agents:
                    raise ConfigError(f"abnormal target {addr} is not a device", line_no)
            elif isinstance(d, Command):
                target = self._addr(d.target, line_no)
                if not self.root.address.is_ancestor(target):
                    raise ConfigError(f"command target {target} is not below the root", line_no)
            elif isinstance(d, InjectLoss):
                # frames cross only tree links, so a window off them drops none
                src, dst = self._addr(d.src, line_no), self._addr(d.dst, line_no)
                if src.parent() != dst and dst.parent() != src:
                    raise ConfigError(f"inject-loss {src}->{dst} is not a tree link", line_no)
            else:
                # an enlisted device would drop its advisory and never confirm
                named = [("target", t) for t in d.targets]
                named += (("owner", d.owner), ("actor", d.actor))
                for name, text in named:
                    if not text:
                        continue
                    addr = self._addr(text, line_no)
                    if addr not in self.smns:
                        raise ConfigError(
                            f"respond {name} {addr} is not a management node", line_no
                        )
                if d.action == "launch":
                    launched.add(d.handle)
                elif d.handle not in launched:
                    raise ConfigError(f"no earlier respond launch binds {d.handle!r}", line_no)

    def _addr(self, text: str, line_no: int) -> NodeAddress:
        """The declared node ``text`` names."""
        try:
            addr = NodeAddress.parse(text, self.shape)
        except AddressError as exc:
            raise ConfigError(f"bad address {text!r}: {exc}", line_no) from exc
        if addr not in self.topology.nodes:
            raise ConfigError(f"unknown node {text}", line_no)
        return addr

    def _node(self, text: str) -> NodeAddress:
        """The node a directive names; ``_validate_directives`` checked it."""
        return NodeAddress.parse(text, self.shape)

    # -- directives --------------------------------------------------------

    def _apply_directives(self, tick: int, outbound: list[Frame]) -> None:
        logged, windows = False, self.network.loss_windows
        for d in self._by_tick.get(tick, ()):
            if isinstance(d, Emit):
                self._do_emit(d)
            elif isinstance(d, Window):
                node = self._node(d.node)
                if d.abnormal:
                    self.agents[node].mark_abnormal(d.until)
                else:
                    (self.smns.get(node) or self.agents[node]).silence(d.until)
            elif isinstance(d, Command):
                _, frames = self.root.dispatch_command(self._node(d.target), d.kind, tick)
                outbound.extend(frames)
                logged = True
            elif isinstance(d, Respond):
                self._do_respond(d, tick, outbound)
                logged = True
            else:
                windows.append((self._node(d.src), self._node(d.dst), d.until, d.rate))
        if windows:
            # a window ended by this tick covers no hop again
            windows[:] = [w for w in windows if w[2] > tick]
        if logged:
            # a node leaves the lines a directive logged on it at its own
            # slot of this tick, so it runs now
            for slot in self._smn_slots:
                if self._nodes[slot].lines:
                    self._schedule(slot, tick)

    def _do_emit(self, d: Emit) -> None:
        # the flush is filed unless the agent wakes earlier (maybe this tick)
        agent, slot = self._emit_targets[d.device]
        flush = agent.inject(d)
        if flush < self._wake[slot]:
            self._schedule(slot, flush)

    def _do_respond(self, d: Respond, tick: int, outbound: list[Frame]) -> None:
        try:
            if d.action == "launch":
                owner = self._node(d.owner)
                case = self.smns[owner].respond_launch(tick)
                self.handles[d.handle] = (owner, case.case_id)
                return
            if d.handle not in self.handles:
                self.root._log(tick, "RESPOND-ERROR", f"{d.handle} has no case: its launch failed")
                return
            owner, case_id = self.handles[d.handle]
            owner_node = self.smns[owner]
            if d.action == "escalate":
                outbound.extend(owner_node.respond_escalate(case_id, tick))
            elif d.action == "enlist":
                # the node the case escalates to, which alone may enlist
                actor = owner.parent() or owner
                targets = [self._node(t) for t in d.targets]
                outbound.extend(self.smns[actor].respond_enlist(case_id, targets, tick))
            else:
                actor = self._node(d.actor) if d.actor else owner
                outbound.extend(self.smns[actor].respond_advance(case_id, tick))
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
        end_tick = self.scenario.last_tick + self.scenario.drain
        for tick in range(end_tick + 1):
            outbound: list[Frame] = []
            self._apply_directives(tick, outbound)
            arrived, self.network.arrived = self.network.arrived, set()
            ran = sorted(arrived.union(self._wheel.pop(tick, ())))
            for slot in ran:
                outbound.extend(self._run_node(slot, tick, slot in arrived))
                node = self._nodes[slot]
                if node.lines:
                    self.collected.extend(node.drain_lines())
            self._send(outbound)
            changesets = self.root.drain_changesets()
            for changes in changesets:
                self.mirror.apply_changeset(changes)
            if self.debug and changesets:
                self._check_mirror()
            self.network.step()
            if self.debug:
                self._check_invariants(ran, bool(changesets))
        return self._report()

    def _check_mirror(self) -> None:
        have = self.mirror.serialize()
        want = self.root.virtual_view.serialize()
        if have != want:
            raise InvariantViolation(f"mirror diverged:\n  {have}\n  {want}")

    def _check_invariants(self, ran: list[int] | None = None, mirrored: bool = True) -> None:
        """Validate the views of the management nodes in the slots ``ran``
        (all of them when None), since the view of a node that did not run
        cannot have changed, and the mirror when ``mirrored`` (change sets
        were applied to it); check every node's event accounting."""
        smns = self.smns.values() if ran is None else [
            self._nodes[slot] for slot in ran if slot in self._smn_slots
        ]
        try:
            for smn in smns:
                smn.virtual_view.validate()
            if mirrored:
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
        end_tick = self.scenario.last_tick + self.scenario.drain
        sessions = list(self.root.session_lines)
        for slot in sorted(self._smn_slots):
            node = self._nodes[slot]
            node.log_unacked(end_tick)
            self.collected.extend(node.drain_lines())
            sessions.extend(node.engine.open_session_lines())
        return RunReport(
            sessions=sessions,
            tree_text=self.root.virtual_view.serialize(),
            mirror_text=self.mirror.serialize(),
            node_lines=[l for l in self.collected if l.startswith("NODE ")],
            case_lines=[l for l in self.collected if l.startswith("CASE ")],
            dead_letters=[dl.line() for dl in self.network.dead_letters],
        )

