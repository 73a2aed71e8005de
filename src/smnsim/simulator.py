"""Deterministic scenario runner.

One tick is one global delivery step. Per tick the harness applies scenario
directives and lets the nodes that are due or addressed drain their mailbox
and act, in address order: every management node (its child deadlines and
correlation sweep run each tick), each device agent a frame arrived for,
and each device agent whose own timers fall due, as kept on a timing wheel
from ``DeviceAgent.next_wake``. A device agent skipped on a tick has
nothing to do on it. The harness then injects the collected outbound
frames, replays the root's change sets onto the console mirror, and
advances the network one hop. Identical inputs and seed give byte-identical
reports.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from .addressing import NodeAddress
from .config import ConfigError, ScenarioScript, TopologyConfig
from .device_model import DeviceDescriptor, DeviceKind
from .device_tree import AddressedDeviceTree, build_tree
from .emergency_response import CounterplanStore, ResponseError
from .event_pipeline import AssetDb, NormalizedEvent, RawDeviceEvent, validate
from .messaging import Frame, LinkTable, SimNetwork
from .node_runtime import DeviceAgent, PipelineSettings, SmnNode
from .session_correlation import (
    CorrelationConfig,
    CorrelationEngine,
    SessionStatus,
    format_session_line,
)


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


@dataclass
class _LossWindow:
    src: NodeAddress
    dst: NodeAddress
    start: int
    end: int
    rate: float


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
        self.rng = random.Random(scenario.seed)
        self._tick = 0
        self.loss_windows: list[_LossWindow] = []

        counterplans = CounterplanStore()
        if topology.counterplan_dir:
            counterplans = CounterplanStore.load_dir(topology.counterplan_dir)

        self.smns: dict[NodeAddress, SmnNode] = {}
        self.agents: dict[NodeAddress, DeviceAgent] = {}
        for addr, decl in topology.nodes.items():
            if decl.kind is DeviceKind.SMN:
                self.smns[addr] = SmnNode(
                    address=addr,
                    shape=self.shape,
                    parent=addr.parent(),
                    settings=topology.pipeline,
                    hb=decl.hb,
                    assets=topology.assets,
                    counterplans=counterplans,
                    label=decl.label,
                )
            else:
                descriptor = DeviceDescriptor(
                    address=addr,
                    kind=decl.kind,
                    name=decl.label,
                    endpoint_ip=decl.ip,
                    asset_value=decl.asset_value,
                    vulnerability_ids=decl.vulnerability_ids,
                )
                self.agents[addr] = DeviceAgent(
                    descriptor=descriptor,
                    shape=self.shape,
                    parent=addr.parent(),
                    hb=decl.hb,
                    settings=topology.pipeline,
                    filter_rules=topology.filter_rules,
                    mapping=topology.mapping,
                )
        for addr, decl in topology.nodes.items():
            parent = addr.parent()
            if parent is not None:
                self.smns[parent].add_child(addr, decl.kind, decl.label, decl.hb)

        self.links = LinkTable.from_addresses(list(topology.nodes))
        self.network = SimNetwork(self.links, loss_hook=self._lossy)
        self.order = self.network.order
        self._nodes = [self.smns.get(a) or self.agents[a] for a in self.order]
        self._smn_slots = frozenset(
            slot for slot, addr in enumerate(self.order) if addr in self.smns
        )
        # The timing wheel: tick -> slots of the device agents due then, and
        # per slot the tick it is filed under. Every agent acts at tick 0.
        self._wake = [0] * len(self.order)
        self._wheel: dict[int, set[int]] = {
            0: {slot for slot in range(len(self.order)) if slot not in self._smn_slots}
        }
        self.root = self.smns[topology.root]
        self.mirror = AddressedDeviceTree(
            shape=self.shape,
            root=build_tree(self.root.virtual_view.serialize(), self.shape).root,
        )
        self.handles: dict[str, tuple[NodeAddress, str]] = {}
        self.collected: list[str] = []
        self._by_tick: dict[int, list] = {}
        for d in scenario.directives:
            self._by_tick.setdefault(d.tick, []).append(d)
        self._validate_directives()

    # -- setup helpers -----------------------------------------------------

    def _validate_directives(self) -> None:
        """Parse every directive's values once before the run, so a bad value
        is a ConfigError here and never a traceback mid-run. The values are
        parsed again when applied: keeping them would hold a parsed copy of
        every emit for the whole run."""
        for d in self.scenario.directives:
            self._parse_values(d)

    def _parse_values(self, d):
        """What ``_apply_directives`` needs of directive ``d``, checked."""
        args, line_no = d.args, d.line_no
        if d.op == "emit":
            addr = self._addr(args["device"], line_no)
            if addr not in self.agents:
                raise ConfigError(f"emit target {addr} is not a device", line_no)
            severity = _number(int, args.get("sev", "1"), "sev", line_no)
            if not 1 <= severity <= 5:
                raise ConfigError(f"sev {severity} outside 1..5", line_no)
            return (
                addr,
                *_endpoint(args["src"], "src", line_no),
                *_endpoint(args["dst"], "dst", line_no),
                severity,
            )
        if d.op in ("silence", "abnormal"):
            addr = self._addr(args["node"], line_no)
            if d.op == "abnormal" and addr not in self.agents:
                raise ConfigError(f"abnormal target {addr} is not a device", line_no)
            return addr, _until(d)
        if d.op == "command":
            target = self._addr(args["target"], line_no)
            if not self.root.address.is_ancestor(target):
                raise ConfigError(f"command target {target} is not below the root", line_no)
            return target
        if d.op == "inject-loss":
            rate = _number(float, args["rate"], "rate", line_no)
            if not 0 < rate <= 1:
                raise ConfigError(f"rate {args['rate']} outside (0, 1]", line_no)
            return _LossWindow(
                src=self._addr(args["from"], line_no),
                dst=self._addr(args["to"], line_no),
                start=d.tick,
                end=_until(d),
                rate=rate,
            )
        if d.op == "respond" and args["action"] == "launch" and "owner" not in args:
            raise ConfigError("respond launch needs owner=", line_no)
        return None

    def _addr(self, text: str, line_no: int | None = None) -> NodeAddress:
        try:
            addr = NodeAddress.parse(text, self.shape)
        except Exception as exc:
            raise ConfigError(f"bad address {text!r}: {exc}", line_no) from exc
        if addr not in self.topology.nodes:
            raise ConfigError(f"unknown node {text}", line_no)
        return addr

    def _lossy(self, frame: Frame, at: NodeAddress, hop: NodeAddress) -> bool:
        for w in self.loss_windows:
            if w.src == at and w.dst == hop and w.start <= self._tick < w.end:
                if w.rate >= 1.0 or self.rng.random() < w.rate:
                    return True
        return False

    # -- directives --------------------------------------------------------

    def _apply_directives(self, tick: int, outbound: list[Frame]) -> None:
        for d in self._by_tick.get(tick, ()):
            values = self._parse_values(d)
            if d.op == "emit":
                self._do_emit(d, values, tick)
            elif d.op == "silence":
                node, until = values
                (self.smns.get(node) or self.agents[node]).silence(tick, until)
            elif d.op == "abnormal":
                node, until = values
                self.agents[node].mark_abnormal(tick, until)
            elif d.op == "command":
                _, frames = self.root.dispatch_command(
                    values, d.args["kind"], "scripted", tick
                )
                outbound.extend(frames)
            elif d.op == "respond":
                self._do_respond(d, tick, outbound)
            elif d.op == "inject-loss":
                self.loss_windows.append(values)

    def _do_emit(self, d, values, tick: int) -> None:
        addr, src_ip, src_port, dst_ip, dst_port, severity = values
        agent = self.agents[addr]
        agent.inject(
            RawDeviceEvent(
                device_address=addr,
                device_kind=agent.descriptor.kind,
                native_class=d.args["class"],
                timestamp=tick,
                src_ip=src_ip,
                src_port=src_port,
                dst_ip=dst_ip,
                dst_port=dst_port,
                severity=severity,
                detail=d.args.get("detail", ""),
            )
        )
        # the agent may be filed under this very tick, which must stand
        slot = self.network.slots[addr]
        self._schedule(slot, min(self._wake[slot], agent.next_wake(tick)))

    def _do_respond(self, d, tick: int, outbound: list[Frame]) -> None:
        action = d.args["action"]
        handle = d.args["handle"]
        try:
            if action == "launch":
                owner = self._addr(d.args["owner"], d.line_no)
                case = self.smns[owner].respond_launch(tick)
                self.handles[handle] = (owner, case.case_id)
                return
            owner, case_id = self.handles[handle]
            owner_node = self.smns[owner]
            if action == "escalate":
                outbound.extend(owner_node.respond_escalate(case_id, tick))
            elif action == "enlist":
                targets = [
                    self._addr(t, d.line_no) for t in d.args["targets"].split(",")
                ]
                case = owner_node.cases[case_id]
                actor = case.coordinator if case.coordinator is not None else owner
                actor_node = self.smns[actor]
                outbound.extend(actor_node.respond_enlist(case_id, targets, tick))
            elif action == "advance":
                actor = self._addr(d.args.get("actor", str(owner)), d.line_no)
                note = d.args.get("note", "")
                outbound.extend(
                    self.smns[actor].respond_advance(case_id, note, tick)
                )
            else:
                raise ConfigError(f"unknown respond action {action!r}", d.line_no)
        except KeyError:
            raise ConfigError(f"unknown case handle {handle!r}", d.line_no) from None
        except ResponseError as exc:
            self.root._log(tick, "RESPOND-ERROR", str(exc))

    # -- the loop ----------------------------------------------------------

    def _schedule(self, slot: int, tick: int) -> None:
        """File the device agent in ``slot`` under ``tick`` alone."""
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
        if slot in self._smn_slots:
            ticked = node.on_tick(tick)
            if node.silenced(tick):
                return []
            out.extend(ticked)
        else:
            out.extend(node.step(tick))
            self._schedule(slot, node.next_wake(tick))
        return out

    def run(self) -> RunReport:
        end_tick = self.scenario.last_tick + self.scenario.drain
        for tick in range(end_tick + 1):
            self._tick = tick
            outbound: list[Frame] = []
            self._apply_directives(tick, outbound)
            arrived, self.network.arrived = self.network.arrived, set()
            due = self._wheel.pop(tick, ())
            for slot in sorted(self._smn_slots.union(due, arrived)):
                outbound.extend(self._run_node(slot, tick, slot in arrived))
                self.collected.extend(self._nodes[slot].drain_lines())
            for frame in outbound:
                self.network.send(frame)
            for changes in self.root.drain_changesets():
                self.mirror.apply_changeset(changes)
            if self.debug:
                self._check_mirror()
            for addr in self.smns:
                if addr != self.root.address:
                    self.smns[addr].drain_changesets()
            self.network.step()
            if self.debug:
                self._check_invariants()
        return self._report()

    def _check_mirror(self) -> None:
        have = self.mirror.serialize()
        want = self.root.virtual_view.serialize()
        if have != want:
            raise InvariantViolation(f"mirror diverged:\n  {have}\n  {want}")

    def _check_invariants(self) -> None:
        try:
            for smn in self.smns.values():
                smn.virtual_view.validate()
            self.mirror.validate()
        except Exception as exc:
            raise InvariantViolation(str(exc)) from exc
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
        sessions = list(self.root.session_lines)
        for alert in self.root.engine.store.alerts:
            if alert.status is SessionStatus.OPEN:
                sessions.append(format_session_line(self.root.engine.snapshot(alert)))
        return RunReport(
            sessions=sessions,
            tree_text=self.root.virtual_view.serialize(),
            mirror_text=self.mirror.serialize(),
            node_lines=[l for l in self.collected if l.startswith("NODE ")],
            case_lines=[l for l in self.collected if l.startswith("CASE ")],
            dead_letters=[dl.line() for dl in self.network.dead_letters],
        )


def _number(convert, text: str, name: str, line_no: int):
    try:
        return convert(text)
    except ValueError:
        raise ConfigError(f"{name} is not a number: {text!r}", line_no) from None


def _until(d) -> int:
    """The end tick of window directive ``d``, which must come after its start."""
    until = _number(int, d.args["until"], "until", d.line_no)
    if until <= d.tick:
        raise ConfigError(f"until {until} is not after tick {d.tick}", d.line_no)
    return until


def _endpoint(text: str, name: str, line_no: int) -> tuple[str, int]:
    ip, _, port = text.partition(":")
    if not port:
        return ip, 0
    number = _number(int, port, f"{name} port", line_no)
    if not 0 <= number <= 65535:
        raise ConfigError(f"{name} port {number} outside 0..65535", line_no)
    return ip, number


def run_correlate(
    events: list[NormalizedEvent],
    settings: PipelineSettings | None = None,
    assets=None,
) -> list[str]:
    """Standalone pipeline + correlation over an event list; returns the
    session lines (ended alerts in emission order, then still-open ones)."""
    settings = settings or PipelineSettings()
    assets = assets or AssetDb()
    engine = CorrelationEngine(
        "cli", CorrelationConfig(grace=settings.grace, connect_ttl=settings.connect_ttl)
    )
    lines: list[str] = []
    for ev in events:
        now = ev.create_time
        engine.sweep(now)
        kept = validate([ev], assets, settings.validation_threshold)
        if not kept:
            continue
        for action in engine.on_event(kept[0][0], now):
            if action.kind == "ending":
                lines.append(format_session_line(action.record))
    for alert in engine.store.alerts:
        if alert.status is SessionStatus.OPEN:
            lines.append(format_session_line(engine.snapshot(alert)))
    return lines
