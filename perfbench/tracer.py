"""Per-layer tracing of smnsim from outside the program.

``Tracer.install(spans)`` replaces public functions and methods of each
smnsim layer with wrappers and ``Tracer.uninstall()`` puts the originals
back; nothing under ``src/`` changes. With ``spans`` a wrapper records one
span per call (name, start, end, parent) in flat arrays kept in memory.
Without it, wrappers only count the calls that happen up to millions of
times (``similarity``, ``NodeAddress`` construction and hashing, the device
state-machine ``step``, mailbox pushes); counting them in a repetition of
their own keeps their wrappers out of every self time. A span's self time is
its duration minus the time its child spans cover; a layer's self time is
the sum over the spans of that layer.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter

from smnsim import config, device_model, device_tree, event_pipeline, messaging
from smnsim import node_runtime, session_correlation, simulator
from smnsim.addressing import NodeAddress

_FRAME_TYPES = [t.name for t in messaging.MsgType]

#: Counters and high-water marks fed by the hooks below.
_COUNTERS = (
    ["simulator.node_visits", "simulator.busy_visits", "messaging.poll.empty",
     "event_pipeline.aggregate_single_device.events_in",
     "event_pipeline.aggregate_single_device.events_out",
     "event_pipeline.validate.events_in", "event_pipeline.validate.kept",
     "device_model.step.applied", "device_tree.serialize.bytes"]
    + [f"messaging.frames_sent.{t}" for t in _FRAME_TYPES]
)
_MAXIMA = (
    "messaging.mailbox_depth_max",
    "session_correlation.live_alerts_max",
    "session_correlation.queued_events_max",
    "session_correlation.conn_queue_max",
)


def _size(obj, *path: str) -> int:
    """len() of ``obj.<path>``, or 0 when that attribute is gone."""
    for name in path:
        obj = getattr(obj, name, None)
    return len(obj) if obj is not None else 0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter({k: 0 for k in _COUNTERS})
        self.maxima: dict[str, int] = {k: 0 for k in _MAXIMA}
        self.root_arrivals: list[tuple[int, str]] = []  # (tick, SESSION line)
        self._busy: set = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn, hook=None):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            idx = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
            finally:
                span_end[idx] = perf_counter()
                stack.pop()
            return result

        return wrapper

    def _counted(self, name: str, fn, hook=None):
        counts, key = self.counts, name + ".calls"
        counts[key] = 0

        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _method(self, cls, attr: str, name: str, hook=None, timed: bool = True) -> None:
        make = self._timed if timed else self._counted
        self._set(cls, attr, make(name, vars(cls)[attr], hook))

    def _function(self, module, attr: str, name: str, hook=None, timed: bool = True) -> None:
        """Wrap a module function wherever an smnsim module refers to it."""
        original = getattr(module, attr)
        wrapped = (self._timed if timed else self._counted)(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "smnsim" or mod_name.startswith("smnsim."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    # -- hooks -------------------------------------------------------------

    def _on_poll(self, args, frame) -> None:
        if frame is None:
            self.counts["messaging.poll.empty"] += 1
        else:
            self._busy.add(args[1])

    def _on_visit(self, args, frames) -> None:
        """A node visit is busy when it received or emitted a frame."""
        address = args[0].address
        self.counts["simulator.node_visits"] += 1
        if frames or address in self._busy:
            self.counts["simulator.busy_visits"] += 1
        self._busy.discard(address)

    def _on_send(self, args, _result) -> None:
        self.counts["messaging.frames_sent." + args[1].msg_type.name] += 1

    def _raise(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def _on_push(self, args, _result) -> None:
        self._raise("messaging.mailbox_depth_max", len(args[0]))

    def _on_smn_frame(self, args, _frames) -> None:
        node, frame, now = args[0], args[1], args[2]
        if node.parent is None and frame.msg_type is messaging.MsgType.SESSION_ALERT:
            self.root_arrivals.append((now, frame.text()))

    def _on_aggregate(self, args, result) -> None:
        self.counts["event_pipeline.aggregate_single_device.events_in"] += len(args[0])
        self.counts["event_pipeline.aggregate_single_device.events_out"] += len(result)

    def _on_validate(self, args, result) -> None:
        self.counts["event_pipeline.validate.events_in"] += len(args[0])
        self.counts["event_pipeline.validate.kept"] += len(result)

    def _on_state_step(self, _args, result) -> None:
        if result[1]:
            self.counts["device_model.step.applied"] += 1

    def _on_event(self, args, actions) -> None:
        engine = args[0]
        self._raise("session_correlation.live_alerts_max", _size(engine, "store", "alerts"))
        self._raise("session_correlation.conn_queue_max",
                    _size(engine, "conn_queue", "entries"))
        for action in actions:
            if action.kind == "update":
                self._raise("session_correlation.queued_events_max",
                            len(action.record.event_ids))

    def _on_serialize(self, _args, text) -> None:
        self.counts["device_tree.serialize.bytes"] += len(text)

    # -- install / uninstall -----------------------------------------------

    def install(self, spans: bool) -> None:
        """Wrap with timed spans (``spans``) or with the hot-call counters.

        The benchmark traces one repetition each way, so the counting
        wrappers never add to a span's self time."""
        m, f = self._method, self._function
        if not spans:
            m(messaging.Mailbox, "push", "messaging.mailbox_push", self._on_push, timed=False)
            m(NodeAddress, "__init__", "addressing.construct", timed=False)
            m(NodeAddress, "__hash__", "addressing.hash", timed=False)
            f(event_pipeline, "similarity", "event_pipeline.similarity", timed=False)
            f(device_model, "step", "device_model.step", self._on_state_step, timed=False)
            return
        m(simulator.Simulation, "run", "simulator.run")
        m(node_runtime.SmnNode, "on_tick", "node_runtime.smn_on_tick", self._on_visit)
        m(node_runtime.SmnNode, "on_frame", "node_runtime.smn_on_frame", self._on_smn_frame)
        m(node_runtime.DeviceAgent, "step", "node_runtime.agent_step", self._on_visit)
        m(messaging.SimNetwork, "poll", "messaging.poll", self._on_poll)
        m(messaging.SimNetwork, "send", "messaging.send", self._on_send)
        m(messaging.SimNetwork, "step", "messaging.network_step")
        m(messaging.FrameBuilder, "build", "messaging.build")
        f(messaging, "next_hop", "messaging.next_hop")
        parse = vars(NodeAddress)["parse"].__func__
        self._set(NodeAddress, "parse", classmethod(self._timed("addressing.parse", parse)))
        m(event_pipeline.CrossDeviceAggregator, "add", "event_pipeline.cross_device_add")
        f(event_pipeline, "parse_event_line", "event_pipeline.parse_event_line")
        f(event_pipeline, "format_event_line", "event_pipeline.format_event_line")
        f(event_pipeline, "aggregate_single_device", "event_pipeline.aggregate_single_device",
          self._on_aggregate)
        f(event_pipeline, "validate", "event_pipeline.validate", self._on_validate)
        m(session_correlation.CorrelationEngine, "on_event", "session_correlation.on_event",
          self._on_event)
        m(session_correlation.CorrelationEngine, "sweep", "session_correlation.sweep")
        m(device_tree.AddressedDeviceTree, "serialize", "device_tree.serialize",
          self._on_serialize)
        m(device_tree.AddressedDeviceTree, "assemble", "device_tree.assemble")
        m(device_tree.AddressedDeviceTree, "apply_changeset", "device_tree.apply_changeset")
        f(device_tree, "build_tree", "device_tree.build_tree")
        f(config, "parse_topology", "config.parse_topology")
        f(config, "parse_scenario", "config.parse_scenario")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def span_totals(self) -> tuple[list[int], list[float], list[float]]:
        """Calls, total seconds and self seconds per span name id.

        A child span always has a larger index than its parent, so one pass
        from the end sees every child before its parent."""
        k = len(self.names)
        calls, total, self_s = [0] * k, [0.0] * k, [0.0] * k
        child = [0.0] * len(self.span_start)
        starts, ends, parents, names = (
            self.span_start, self.span_end, self.span_parent, self.span_name)
        for i in range(len(starts) - 1, -1, -1):
            d = ends[i] - starts[i]
            n = names[i]
            calls[n] += 1
            total[n] += d
            self_s[n] += d - child[i]
            if parents[i] >= 0:
                child[parents[i]] += d
        return calls, total, self_s

    def durations(self, name: str) -> list[float]:
        n = self.names.index(name)
        return [e - s for s, e, i in zip(self.span_start, self.span_end, self.span_name)
                if i == n]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric by name, as (value, unit). The set of names
        does not depend on the workload; a layer it does not call reads 0."""
        calls, _total, self_s = self.span_totals()
        out: dict[str, tuple[float, str]] = {}
        layers: Counter[str] = Counter()
        for n, name in enumerate(self.names):
            layers[name.split(".", 1)[0]] += self_s[n]
            if name == "simulator.run":
                out["simulator.loop_self_s"] = (self_s[n], "s")
                continue
            out[f"{name}.calls"] = (calls[n], "count")
            out[f"{name}.self_s"] = (self_s[n], "s")
        for key, value in self.counts.items():
            out[key] = (value, "bytes" if key.endswith(".bytes") else "count")
        for key, value in self.maxima.items():
            out[key] = (value, "count")
        c = self.counts
        on_event = self.durations("session_correlation.on_event")
        out.update({
            "simulator.busy_ratio": (
                _ratio(c["simulator.busy_visits"], c["simulator.node_visits"]), "ratio"),
            "messaging.poll.empty_ratio": (
                _ratio(c["messaging.poll.empty"], out["messaging.poll.calls"][0]), "ratio"),
            "event_pipeline.validate.kept_ratio": (
                _ratio(c["event_pipeline.validate.kept"], c["event_pipeline.validate.events_in"]),
                "ratio"),
            "device_model.step.applied_ratio": (
                _ratio(c["device_model.step.applied"], c["device_model.step.calls"]), "ratio"),
            "session_correlation.on_event.us_p99": (
                statistics.quantiles(on_event, n=100)[98] * 1e6 if len(on_event) >= 100
                else 0.0, "us"),
        })
        for layer, seconds in layers.items():
            out[f"layer.{layer}.self_s"] = (seconds, "s")
        return out
