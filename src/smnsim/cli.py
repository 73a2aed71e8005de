"""Command-line front end.

Subcommands::

    smnsim simulate --topology FILE --scenario FILE [--seed N] --out DIR
    smnsim tree parse FILE --depth N --degree D
    smnsim tree serialize FILE --depth N --degree D
    smnsim correlate --events FILE [--config FILE | --depth N --degree D]
    smnsim statemachine trace --conditions T1,T3,...

Exit status: 0 on success, 1 when a run violates an invariant or the input
data is invalid (``TreeError``, ``AddressError``, ``EventLineError``,
``ResponseError``), 2 on usage errors (``UsageError``), configuration errors
(``ConfigError``) and input files that cannot be read or are not UTF-8
text. Each failure prints one line on stderr. Topology keys that are
accepted but not used are named in one line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from .addressing import AddressError, TreeShape
from .config import ConfigError, TopologyConfig, load_scenario, load_topology
from .device_model import DeviceState, DeviceStatus, TransferCondition, step
from .device_tree import TreeError, build_tree
from .emergency_response import ResponseError
from .event_pipeline import AssetDb, EventLineError, parse_event_line, validate
from .node_runtime import PipelineSettings
from .session_correlation import CorrelationConfig, CorrelationEngine, format_session_line
from .simulator import InvariantViolation, Simulation


class UsageError(Exception):
    """A command-line value the argument parser takes but the command cannot
    use."""


def _shape(depth: int, degree: int) -> TreeShape:
    try:
        return TreeShape(depth=depth, max_degree=degree)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smnsim")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sim = sub.add_parser("simulate", help="run a scenario against a topology")
    sim.add_argument("--topology", required=True)
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sim.add_argument("--out", required=True, help="directory for report files")
    sim.add_argument("--debug", action="store_true", help="check invariants every tick")

    tree = sub.add_parser("tree", help="embedding structure utilities")
    tree_sub = tree.add_subparsers(dest="tree_cmd", required=True)
    for name in ("parse", "serialize"):
        t = tree_sub.add_parser(name)
        t.add_argument("file")
        t.add_argument("--depth", type=int, required=True)
        t.add_argument("--degree", type=int, required=True)

    cor = sub.add_parser("correlate", help="run correlation over an event file")
    cor.add_argument("--events", required=True)
    cor.add_argument("--config", default=None, help="topology file for pipeline settings")
    cor.add_argument("--depth", type=int, default=None, help="tree depth without --config (4)")
    cor.add_argument("--degree", type=int, default=None, help="node degree without --config (9)")

    sm = sub.add_parser("statemachine", help="device state machine utilities")
    sm_sub = sm.add_subparsers(dest="sm_cmd", required=True)
    trace = sm_sub.add_parser("trace")
    trace.add_argument("--conditions", required=True, help="comma list, e.g. T1,T3,T7,T8")

    return parser


def _load_topology(path: str) -> TopologyConfig:
    topology = load_topology(path)
    if topology.ignored_keys:
        print(f"{path}: ignored keys: {', '.join(topology.ignored_keys)}", file=sys.stderr)
    return topology


def _cmd_simulate(args) -> int:
    topology = _load_topology(args.topology)
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario.seed = args.seed
    sim = Simulation(topology, scenario, debug=args.debug)
    report = sim.run()
    report.write(args.out)
    print(f"wrote report files to {args.out}")
    return 0


def _cmd_tree(args) -> int:
    shape = _shape(args.depth, args.degree)
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read().strip()
    tree = build_tree(text, shape)
    if args.tree_cmd == "serialize":
        print(tree.serialize())
    else:
        for node in tree.nodes():
            print(f"{node.address} {node.state.value}")
    return 0


def _cmd_correlate(args) -> int:
    """Validate and correlate the event lines in file order on one engine,
    swept to each event's time before it; print the sessions that ended, in
    that order, then those still open. A topology given by ``--config``
    fixes the tree shape, so ``--depth`` and ``--degree`` are refused
    beside it."""
    if args.config:
        if args.depth is not None or args.degree is not None:
            raise UsageError("--depth and --degree cannot be given with --config")
        topology = _load_topology(args.config)
        shape, settings, assets = topology.shape, topology.pipeline, topology.assets
    else:
        shape = _shape(4 if args.depth is None else args.depth,
                       9 if args.degree is None else args.degree)
        settings, assets = PipelineSettings(), AssetDb()
    events = []
    with open(args.events, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(parse_event_line(line, shape))
    engine = CorrelationEngine(
        "cli", CorrelationConfig(grace=settings.grace, connect_ttl=settings.connect_ttl)
    )
    for ev in events:
        now = ev.create_time
        engine.sweep(now)
        kept = validate([ev], assets, settings.validation_threshold)
        if kept:
            for action in engine.on_event(kept[0][0], now):
                if action.kind == "ending":
                    print(format_session_line(action.record))
    for line in engine.open_session_lines():
        print(line)
    return 0


def _cmd_statemachine(args) -> int:
    status = DeviceStatus(state=DeviceState.NET_DOWN)
    sequence = [status.state.value]
    for name in args.conditions.split(","):
        name = name.strip()
        try:
            cond = TransferCondition(name)
        except ValueError:
            raise UsageError(f"unknown condition {name!r}") from None
        status, _ = step(status, cond)
        sequence.append(status.state.value)
    print(" ".join(sequence))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.cmd == "simulate":
            return _cmd_simulate(args)
        if args.cmd == "tree":
            return _cmd_tree(args)
        if args.cmd == "correlate":
            return _cmd_correlate(args)
        if args.cmd == "statemachine":
            return _cmd_statemachine(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (TreeError, AddressError, EventLineError, ResponseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
