"""The topology parser as it stood before its single-pass rewrite, kept as
the oracle of ``test_topology_oracle``: on any text, ``parse_topology`` here
and in ``smnsim.config`` must give equal configurations, or raise
``ConfigError``s with the same message and line.

The code below is the old parser and its helpers, copied unchanged but for
one line: an ``[assets]`` entry with an empty value raised ``IndexError``
there, and raises ``ConfigError`` ("not an integer: ''") here, as it now
does in ``smnsim.config``. Only the record types and the error class are
imported, so that the two parsers' results compare equal.
"""

from __future__ import annotations

import os
from dataclasses import fields

from smnsim.addressing import MAX_DEPTH, AddressError, NodeAddress, TreeShape
from smnsim.config import ConfigError, NodeDecl, TopologyConfig
from smnsim.device_model import DeviceKind
from smnsim.event_pipeline import (
    _KIND_BY_NAME,
    AssetDb,
    AssetRecord,
    ClassificationMap,
    FilterRule,
)
from smnsim.node_runtime import HeartbeatConfig, PipelineSettings

_HB_KEYS = tuple(f.name for f in fields(HeartbeatConfig))

_NODE_KEYS = {"kind", "ip", "asset_value", "vulnerabilities", *_HB_KEYS}


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


def _vuln_set(text: str) -> frozenset[str]:
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
    kind = _KIND_BY_NAME.get(given.get("kind"))
    if kind is None and "kind" in given:
        raise ConfigError(f"unknown device kind {given['kind']!r}", line_no)
    return FilterRule(kind, given.get("class"), given.get("src"), given.get("dst"))


#: Sections whose keys may each be given once; ``[classify]`` compares its
#: parsed (kind, native) keys instead, and ``[filter] drop`` repeats.
_ONCE_SECTIONS = ("tree", "heartbeat", "pipeline", "assets", "vulnmap")


def parse_topology(text: str, base_dir: str = ".") -> TopologyConfig:
    shape: TreeShape | None = None
    depth = degree = None
    hb_defaults: dict[str, int] = {}
    pipeline_kv: dict[str, tuple[str, int]] = {}
    node_sections: list[tuple[str, dict[str, str], int]] = []
    filter_rules: list[FilterRule] = []
    mapping_rules: dict[tuple[DeviceKind, str], str] = {}
    asset_entries: dict[str, tuple[int, frozenset[str]]] = {}
    class_vulns: dict[str, frozenset[str]] = {}
    counterplan_dir: str | None = None
    ignored_keys: list[str] = []
    #: (section, key) of each key given in a section that takes it once
    seen: set[tuple[str, str]] = set()

    section = ""
    current_node: dict[str, str] | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section.startswith("node "):
                current_node = {}
                node_sections.append((section[len("node ") :].strip(), current_node, line_no))
            else:
                current_node = None
            continue
        key, value = _split_kv(line, line_no)
        if section in _ONCE_SECTIONS or current_node is not None:
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
            hb_defaults[key] = _int(value, line_no, key, low=1)
        elif section == "pipeline":
            if key in _IGNORED_PIPELINE_KEYS:
                _ignore(ignored_keys, key)
            else:
                pipeline_kv[key] = (value, line_no)
        elif section.startswith("node "):
            assert current_node is not None
            if key == "label":
                _ignore(ignored_keys, key)
            elif key not in _NODE_KEYS:
                raise ConfigError(f"unknown node key {key!r}", line_no)
            else:
                current_node[key] = value
        elif section == "filter":
            if key != "drop":
                raise ConfigError(f"unknown filter key {key!r}", line_no)
            filter_rules.append(_parse_filter_rule(value, line_no))
        elif section == "classify":
            parts = key.split()
            if len(parts) != 2:
                raise ConfigError(f"expected '<Kind> <native> = <class>'", line_no)
            kind = _KIND_BY_NAME.get(parts[0])
            if kind is None:
                raise ConfigError(f"unknown device kind {parts[0]!r}", line_no)
            if (kind, parts[1]) in mapping_rules:
                raise ConfigError(f"key {key!r} given twice in [{section}]", line_no)
            mapping_rules[(kind, parts[1])] = value
        elif section == "assets":
            entry = value.split(None, 1)
            asset_value = _int(entry[0] if entry else value, line_no, "asset value", 1, 5)
            vulns = _vuln_set(entry[1]) if len(entry) > 1 else frozenset()
            asset_entries[key] = (asset_value, vulns)
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

    pipeline = _build_pipeline(pipeline_kv)
    nodes: dict[NodeAddress, NodeDecl] = {}
    for addr_text, kv, line_no in node_sections:
        try:
            address = NodeAddress.parse(addr_text, shape)
        except AddressError as exc:
            raise ConfigError(f"bad node address {addr_text!r}: {exc}", line_no) from exc
        if address in nodes:
            raise ConfigError(f"node {addr_text} declared twice", line_no)
        kind_name = kv.get("kind", "")
        kind = _KIND_BY_NAME.get(kind_name)
        if kind is None:
            raise ConfigError(f"node {addr_text}: unknown kind {kind_name!r}", line_no)
        hb_kv = dict(hb_defaults)
        for hb_key in _HB_KEYS:
            if hb_key in kv:
                hb_kv[hb_key] = _int(kv[hb_key], line_no, hb_key, low=1)
        try:
            hb = HeartbeatConfig(**hb_kv)
        except ValueError as exc:
            raise ConfigError(f"node {addr_text}: {exc}", line_no) from exc
        nodes[address] = NodeDecl(
            address=address,
            kind=kind,
            ip=kv.get("ip", ""),
            asset_value=_int(kv.get("asset_value", "1"), line_no, "asset_value", 1, 5),
            vulnerability_ids=_vuln_set(kv.get("vulnerabilities", "")),
            hb=hb,
        )

    roots = [a for a in nodes if a.level == 1]
    if len(roots) != 1:
        raise ConfigError(f"expected exactly one root node, found {len(roots)}")
    root = roots[0]
    if nodes[root].kind is not DeviceKind.SMN:
        raise ConfigError(f"root {root} must be a management node")
    for addr, decl in nodes.items():
        parent = addr.parent()
        if parent is None:
            continue
        if parent not in nodes:
            raise ConfigError(f"node {addr} declared without its parent {parent}")
        if nodes[parent].kind is not DeviceKind.SMN:
            raise ConfigError(f"parent of {addr} is not a management node")

    assets = AssetDb(class_vulns=class_vulns)
    for decl in nodes.values():
        if decl.ip:
            assets.records[decl.ip] = AssetRecord(
                ip=decl.ip,
                asset_value=decl.asset_value,
                vulnerability_ids=decl.vulnerability_ids,
            )
    for ip, (asset_value, vulns) in asset_entries.items():
        assets.records[ip] = AssetRecord(
            ip=ip, asset_value=asset_value, vulnerability_ids=vulns
        )

    return TopologyConfig(
        shape=shape,
        nodes=nodes,
        root=root,
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
