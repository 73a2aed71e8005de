"""Topology and scenario file parsing.

Both formats are plain line-oriented text so runs diff cleanly. A topology
file opens with a ``[tree]`` section fixing depth and degree, then declares
nodes and tunables::

    [tree]
    depth = 3
    degree = 4

    [node 1.0.0]
    kind = SMN

    [node 1.1.1]
    kind = Firewall
    ip = 10.0.1.1
    asset_value = 3
    vulnerabilities = CVE-7

A ``[node …]`` section gives a node's kind and asset record; the
``[heartbeat]`` section gives the one cadence every node shares, so a node
section takes no heartbeat key. The parser reads each topology line once,
with plain string operations, and that one path raises every error.

A scenario file is a time-ordered directive list::

    seed = 7
    drain = 150
    at 20 emit 1.1.1 class=fw.connect src=10.0.0.9:4242 dst=10.0.1.5:80 sev=1
    at 100 silence 1.1.0 until 200
    at 40 command policy 1.1.1
    at 90 respond launch w1 owner=1.1.0
    at 30 inject-loss 1.1.0->1.0.0 until 80 rate=1.0

Each ``at`` line parses to one typed directive (``Emit``, ``Window``,
``Command``, ``Respond``, ``InjectLoss``) with its numbers parsed and
bounded; node addresses stay text for the simulator to resolve. Ticks and
``drain`` are ``>= 0``, and ``seed`` and ``drain`` are given at most once.
An emit spelled as above (single spaces, fields in that order, both ports,
no comment) is read by one match; any other spelling takes the general
parser to the same directive, and only that parser raises errors.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, fields

from .addressing import MAX_DEPTH, AddressError, NodeAddress, TreeShape
from .device_model import KIND_BY_NAME, DeviceKind
from .event_pipeline import AssetDb, AssetRecord, ClassificationMap, FilterRule
from .node_runtime import HeartbeatConfig, PipelineSettings


class ConfigError(Exception):
    def __init__(self, message: str, line_no: int | None = None) -> None:
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


_HB_KEYS = tuple(f.name for f in fields(HeartbeatConfig))

#: the keys of a ``[node …]`` section; ``label`` is accepted and ignored
_NODE_KEYS = {"kind", "ip", "asset_value", "vulnerabilities", "label"}


@dataclass
class TopologyConfig:
    shape: TreeShape
    nodes: dict[NodeAddress, DeviceKind]
    root: NodeAddress
    heartbeat: HeartbeatConfig
    pipeline: PipelineSettings
    filter_rules: list[FilterRule]
    mapping: ClassificationMap
    assets: AssetDb
    counterplan_dir: str | None = None
    #: accepted keys the simulator does not use, in file order
    ignored_keys: list[str] = field(default_factory=list)


def _split_kv(line: str, line_no: int) -> tuple[str, str]:
    if "=" not in line:
        raise ConfigError(f"expected 'key = value', got {line!r}", line_no)
    key, _, value = line.partition("=")
    return key.strip(), value.strip()


def _int(
    value: str, line_no: int, key: str = "", low: int | None = None, high: int | None = None
) -> int:
    """``value`` as an integer, of at least ``low`` and at most ``high`` where
    given; ``key`` names the value in the error."""
    try:
        number = int(value)
    except ValueError:
        raise ConfigError(f"not an integer: {value!r}", line_no) from None
    if (low is not None and number < low) or (high is not None and number > high):
        span = f">= {low}" if high is None else f"{low}..{high}"
        raise ConfigError(f"{key} must be {span}, got {number}", line_no)
    return number


_NO_VULNS: frozenset[str] = frozenset()


def _vuln_set(text: str) -> frozenset[str]:
    if not text:
        return _NO_VULNS
    return frozenset(v.strip() for v in text.split(",") if v.strip())


def _key_values(tokens: list[str], known: tuple, what: str, line_no: int) -> dict[str, str]:
    """``k=v`` tokens as a dict; a key outside ``known`` is an error."""
    given: dict[str, str] = {}
    for token in tokens:
        k, _, v = token.partition("=")
        if k not in known:
            raise ConfigError(f"unknown {what} field {k!r}", line_no)
        given[k] = v
    return given


def _parse_filter_rule(value: str, line_no: int) -> FilterRule:
    given = _key_values(value.split(), ("kind", "class", "src", "dst"), "filter", line_no)
    kind = KIND_BY_NAME.get(given.get("kind"))
    if kind is None and "kind" in given:
        raise ConfigError(f"unknown device kind {given['kind']!r}", line_no)
    return FilterRule(kind, given.get("class"), given.get("src"), given.get("dst"))


#: Sections whose keys may each be given once, besides ``[node …]`` and
#: ``[assets]``, which find a repeat in the dict they fill. ``[classify]``
#: compares its parsed (kind, native) keys instead, and ``[filter] drop``
#: repeats.
_ONCE_SECTIONS = ("tree", "heartbeat", "pipeline", "vulnmap")


def parse_topology(text: str, base_dir: str = ".") -> TopologyConfig:
    shape: TreeShape | None = None
    depth = degree = None
    heartbeat_kv: dict[str, int] = {}
    pipeline_kv: dict[str, tuple[str, int]] = {}
    node_sections: list[tuple[str, dict[str, str], int]] = []
    filter_rules: list[FilterRule] = []
    mapping_rules: dict[tuple[DeviceKind, str], str] = {}
    asset_entries: dict[str, tuple[int, frozenset[str]]] = {}
    class_vulns: dict[str, frozenset[str]] = {}
    counterplan_dir: str | None = None
    ignored_keys: list[str] = []
    #: (section, key) of each key given in one of ``_ONCE_SECTIONS``
    seen: set[tuple[str, str]] = set()
    #: per ``[node …]`` header text, the keys given under it so far: a key
    #: that a repeated header gives again is given twice, as within one
    #: section
    node_headers: dict[str, dict[str, str]] = {}

    section = ""
    #: the keys of the ``[node …]`` section being read, if one is
    node_kv: dict[str, str] | None = None
    #: the entry of ``node_headers`` for its header text: ``node_kv`` itself
    #: unless the header repeats
    node_keys: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[: line.index("#")]
        line = line.strip()
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
            section = line[1:-1].strip()
            if section.startswith("node "):
                node_kv = {}
                node_sections.append((section[len("node ") :].strip(), node_kv, line_no))
                earlier = node_headers.get(section)
                node_keys = node_headers[section] = node_kv if earlier is None else {**earlier}
            else:
                node_kv = None
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"expected 'key = value', got {line!r}", line_no)
        key = key.strip()
        value = value.strip()
        if node_kv is not None:
            if key in node_keys:
                raise ConfigError(f"key {key!r} given twice in [{section}]", line_no)
            if key not in _NODE_KEYS:
                raise ConfigError(f"unknown node key {key!r}", line_no)
            if key == "label":
                _ignore(ignored_keys, key)
            node_kv[key] = node_keys[key] = value
            continue
        if section == "assets":
            if key in asset_entries:
                raise ConfigError(f"key {key!r} given twice in [assets]", line_no)
            entry = value.split(None, 1)
            asset_value = _int(entry[0] if entry else value, line_no, "asset value", 1, 5)
            vulns = _vuln_set(entry[1]) if len(entry) > 1 else _NO_VULNS
            asset_entries[key] = (asset_value, vulns)
            continue
        if section in _ONCE_SECTIONS:
            if (section, key) in seen:
                raise ConfigError(f"key {key!r} given twice in [{section}]", line_no)
            seen.add((section, key))
        if section == "tree":
            if key == "depth":
                depth = _int(value, line_no, key, low=1)
                if depth > MAX_DEPTH:
                    raise ConfigError(f"depth must be <= {MAX_DEPTH}, got {depth}", line_no)
            elif key == "degree":
                degree = _int(value, line_no, key, low=1)
            else:
                raise ConfigError(f"unknown tree key {key!r}", line_no)
        elif section == "heartbeat":
            if key not in _HB_KEYS:
                raise ConfigError(f"unknown heartbeat key {key!r}", line_no)
            heartbeat_kv[key] = _int(value, line_no, key, low=1)
        elif section == "pipeline":
            if key in _IGNORED_PIPELINE_KEYS:
                _ignore(ignored_keys, key)
            else:
                pipeline_kv[key] = (value, line_no)
        elif section == "filter":
            if key != "drop":
                raise ConfigError(f"unknown filter key {key!r}", line_no)
            filter_rules.append(_parse_filter_rule(value, line_no))
        elif section == "classify":
            parts = key.split()
            if len(parts) != 2:
                raise ConfigError(f"expected '<Kind> <native> = <class>'", line_no)
            kind = KIND_BY_NAME.get(parts[0])
            if kind is None:
                raise ConfigError(f"unknown device kind {parts[0]!r}", line_no)
            if (kind, parts[1]) in mapping_rules:
                raise ConfigError(f"key {key!r} given twice in [{section}]", line_no)
            mapping_rules[(kind, parts[1])] = value
        elif section == "vulnmap":
            class_vulns[key] = _vuln_set(value)
        elif section == "counterplans":
            if key != "dir":
                raise ConfigError(f"unknown counterplans key {key!r}", line_no)
            counterplan_dir = os.path.join(base_dir, value)
        else:
            raise ConfigError(f"key outside any known section: {line!r}", line_no)

    if depth is None or degree is None:
        raise ConfigError("[tree] section with depth and degree is required")
    shape = TreeShape(depth=depth, max_degree=degree)
    try:
        heartbeat = HeartbeatConfig(**heartbeat_kv)
    except ValueError as exc:
        raise ConfigError(f"[heartbeat]: {exc}") from exc

    pipeline = _build_pipeline(pipeline_kv)
    nodes: dict[NodeAddress, DeviceKind] = {}
    assets = AssetDb(class_vulns=class_vulns)
    for addr_text, kv, line_no in node_sections:
        try:
            address = NodeAddress.parse(addr_text, shape)
        except AddressError as exc:
            raise ConfigError(f"bad node address {addr_text!r}: {exc}", line_no) from exc
        if address in nodes:
            raise ConfigError(f"node {addr_text} declared twice", line_no)
        kind_name = kv.get("kind", "")
        kind = KIND_BY_NAME.get(kind_name)
        if kind is None:
            raise ConfigError(f"node {addr_text}: unknown kind {kind_name!r}", line_no)
        asset_value = _int(kv.get("asset_value", "1"), line_no, "asset_value", 1, 5)
        nodes[address] = kind
        ip = kv.get("ip", "")
        if ip:
            assets.records[ip] = AssetRecord(asset_value, _vuln_set(kv.get("vulnerabilities", "")))

    roots = [a for a in nodes if a.level == 1]
    if len(roots) != 1:
        raise ConfigError(f"expected exactly one root node, found {len(roots)}")
    root = roots[0]
    if nodes[root] is not DeviceKind.SMN:
        raise ConfigError(f"root {root} must be a management node")
    for addr in nodes:
        parent = addr.parent()
        if parent is None:
            continue
        if parent not in nodes:
            raise ConfigError(f"node {addr} declared without its parent {parent}")
        if nodes[parent] is not DeviceKind.SMN:
            raise ConfigError(f"parent of {addr} is not a management node")

    for ip, (asset_value, vulns) in asset_entries.items():
        assets.records[ip] = AssetRecord(asset_value, vulns)

    return TopologyConfig(
        shape=shape,
        nodes=nodes,
        root=root,
        heartbeat=heartbeat,
        pipeline=pipeline,
        filter_rules=filter_rules,
        mapping=ClassificationMap(rules=mapping_rules),
        assets=assets,
        counterplan_dir=counterplan_dir,
        ignored_keys=ignored_keys,
    )


#: every field of PipelineSettings is an integer
_PIPELINE_KEYS = {f.name for f in fields(PipelineSettings)}

#: Least values: a run takes each tick modulo the two intervals, and
#: ``validate`` refuses a negative threshold.
_PIPELINE_MINIMA = {"validation_threshold": 0, "window_ticks": 1, "report_interval": 1}


#: Cross-device clustering keys: still accepted, but no node clusters.
_IGNORED_PIPELINE_KEYS = {"similarity_weights", "merge_threshold", "time_horizon"}


def _ignore(ignored: list[str], key: str) -> None:
    """Name an accepted but unused key once, in file order."""
    if key not in ignored:
        ignored.append(key)


def _build_pipeline(kv: dict[str, tuple[str, int]]) -> PipelineSettings:
    """Settings from the ``[pipeline]`` keys (value and line number)."""
    settings = PipelineSettings()
    for key, (value, line_no) in kv.items():
        if key not in _PIPELINE_KEYS:
            raise ConfigError(f"unknown pipeline key {key!r}", line_no)
        setattr(settings, key, _int(value, line_no, key, _PIPELINE_MINIMA.get(key)))
    return settings


def load_topology(path: str) -> TopologyConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_topology(fh.read(), base_dir=os.path.dirname(path) or ".")


# ---------------------------------------------------------------------------
# Scenarios


@dataclass(slots=True)
class Directive:
    tick: int
    line_no: int


@dataclass(slots=True)
class Emit(Directive):
    """``emit <device> class=C src=IP[:PORT] dst=IP[:PORT] [sev=N]``"""

    device: str
    native_class: str
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    severity: int


@dataclass(slots=True)
class Window(Directive):
    """``silence <node> until T`` or ``abnormal <device> until T``"""

    node: str
    until: int
    abnormal: bool


@dataclass(slots=True)
class Command(Directive):
    """``command <kind> <target>``"""

    kind: str
    target: str


@dataclass(slots=True)
class Respond(Directive):
    """``respond <action> <handle> [owner=N] [targets=N,...] [actor=N]``"""

    action: str
    handle: str
    owner: str = ""
    targets: tuple[str, ...] = ()
    actor: str = ""


@dataclass(slots=True)
class InjectLoss(Directive):
    """``inject-loss <from>-><to> until T [rate=R]``"""

    src: str
    dst: str
    until: int
    rate: float


@dataclass
class ScenarioScript:
    seed: int = 0
    drain: int = 120
    directives: list[Directive] = field(default_factory=list)

    @property
    def last_tick(self) -> int:
        """The latest tick a directive names; a hand-built script need not
        be in tick order."""
        return max((d.tick for d in self.directives), default=0)


#: The fields each respond action takes; launch and enlist require the first.
_RESPOND_FIELDS = {
    "launch": ("owner",),
    "escalate": (),
    "enlist": ("targets",),
    "advance": ("actor",),
}


#: The canonical emit spelling. No field holds ``#`` or whitespace, so the
#: general parser would read the same tokens; the device holds no ``=``, so
#: it never looks like a field.
_CANONICAL_EMIT = re.compile(
    r"at ([0-9]+) emit ([^\s#=]+) class=([^\s#]+)"
    r" src=([^\s#:]+):([0-9]+) dst=([^\s#:]+):([0-9]+) sev=([1-5])"
)


def parse_scenario(text: str) -> ScenarioScript:
    """``text``'s directives, each value that needs no topology parsed and bounded."""
    script = ScenarioScript()
    last_tick = 0
    given: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        match = _CANONICAL_EMIT.fullmatch(raw)
        if match is not None:
            tick, device, cls, src_ip, src_port, dst_ip, dst_port, sev = match.groups()
            tick, src_port, dst_port = int(tick), int(src_port), int(dst_port)
            if tick >= last_tick and src_port <= 65535 and dst_port <= 65535:
                last_tick = tick
                script.directives.append(
                    Emit(tick, line_no, device, cls, src_ip, src_port, dst_ip, dst_port, int(sev))
                )
                continue
        # any other line, or a value out of range: the general parser decides
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("at "):
            key, value = _split_kv(line, line_no)
            if key in given:
                raise ConfigError(f"key {key!r} given twice", line_no)
            given.add(key)
            if key == "seed":
                script.seed = _int(value, line_no)
            elif key == "drain":
                script.drain = _int(value, line_no, key, low=0)
            else:
                raise ConfigError(f"unknown scenario key {key!r}", line_no)
            continue
        parts = line.split()
        tick = _int(parts[1], line_no, "tick", low=0)
        if tick < last_tick:
            raise ConfigError("directives must be time-ordered", line_no)
        last_tick = tick
        op = parts[2] if len(parts) > 2 else ""
        script.directives.append(_parse_directive(op, parts[3:], tick, line_no))
    return script


def _parse_directive(op: str, rest: list[str], tick: int, line_no: int) -> Directive:
    if op == "emit":
        if not rest:
            raise ConfigError("emit needs a device address", line_no)
        given = _key_values(rest[1:], ("class", "src", "dst", "sev"), "emit", line_no)
        for required in ("class", "src", "dst"):
            if required not in given:
                raise ConfigError(f"emit missing {required}=", line_no)
        severity = _number(int, given.get("sev", "1"), "sev", line_no)
        if not 1 <= severity <= 5:
            raise ConfigError(f"sev {severity} outside 1..5", line_no)
        src = _endpoint(given["src"], "src", line_no)
        dst = _endpoint(given["dst"], "dst", line_no)
        return Emit(tick, line_no, rest[0], given["class"], *src, *dst, severity)
    if op in ("silence", "abnormal"):
        if len(rest) != 3 or rest[1] != "until":
            raise ConfigError(f"{op} form: {op} <node> until <tick>", line_no)
        return Window(tick, line_no, rest[0], _until(rest[2], tick, line_no), op == "abnormal")
    if op == "command":
        if len(rest) != 2:
            raise ConfigError("command form: command <kind> <target>", line_no)
        return Command(tick, line_no, rest[0], rest[1])
    if op == "respond":
        if len(rest) < 2:
            raise ConfigError("respond form: respond <action> <handle> [k=v...]", line_no)
        action = rest[0]
        known = _RESPOND_FIELDS.get(action)
        if known is None:
            raise ConfigError(f"unknown respond action {action!r}", line_no)
        given = _key_values(rest[2:], known, f"respond {action}", line_no)
        if action in ("launch", "enlist") and known[0] not in given:
            raise ConfigError(f"respond {action} needs {known[0]}=", line_no)
        if "targets" in given:
            given["targets"] = tuple(given["targets"].split(","))
        return Respond(tick, line_no, action, rest[1], **given)
    if op != "inject-loss":
        raise ConfigError(f"unknown directive {op!r}", line_no)
    if len(rest) < 3 or "->" not in rest[0] or rest[1] != "until":
        raise ConfigError(
            "inject-loss form: inject-loss <from>-><to> until <tick> [rate=R]",
            line_no,
        )
    src, _, dst = rest[0].partition("->")
    rate_text = _key_values(rest[3:], ("rate",), "inject-loss", line_no).get("rate", "1.0")
    rate = _number(float, rate_text, "rate", line_no)
    if not 0 < rate <= 1:
        raise ConfigError(f"rate {rate_text} outside (0, 1]", line_no)
    until = _until(rest[2], tick, line_no)
    return InjectLoss(tick, line_no, src, dst, until, rate)


def _number(convert, text: str, name: str, line_no: int):
    try:
        return convert(text)
    except ValueError:
        raise ConfigError(f"{name} is not a number: {text!r}", line_no) from None


def _until(text: str, tick: int, line_no: int) -> int:
    """The end tick of a window that starts at ``tick``, which it must follow."""
    until = _number(int, text, "until", line_no)
    if until <= tick:
        raise ConfigError(f"until {until} is not after tick {tick}", line_no)
    return until


def _endpoint(text: str, name: str, line_no: int) -> tuple[str, int]:
    ip, _, port = text.partition(":")
    if not port:
        return ip, 0
    number = _number(int, port, f"{name} port", line_no)
    if not 0 <= number <= 65535:
        raise ConfigError(f"{name} port {number} outside 0..65535", line_no)
    return ip, number


def load_scenario(path: str) -> ScenarioScript:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())
