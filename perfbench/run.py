"""smnsim benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload fleet-attack --seed 1 --seconds 40 --trace 0

Inputs come from ``gen.py`` and depend only on ``--seed``. One repetition
sets the program up from the generated text (parse, then construct) and
runs it once through the public library API:

* ``fleet-idle`` and ``fleet-attack``: ``Simulation(...).run()`` on the
  91-node tree, with no emits or with about 8k of them;
* ``correlate-storm``: the body of ``smnsim correlate`` -- per event line
  ``parse_event_line``, ``sweep``, ``validate``, ``on_event`` -- on one
  ``CorrelationEngine`` with 1,000 concurrent endpoint pairs.

``--trace 0`` repeats until ``--seconds`` are used (at least three times)
and prints the end-to-end metrics. The only instrument inside a run is one
``perf_counter`` stamp per simulated tick (per fed event on
``correlate-storm``). Every repetition runs the same deterministic program,
so the stamps cut each one into the same segments; a segment's time is its
fastest over the repetitions, which drops what other tenants of a shared
host add to some repetitions and not to others. Set-up time is likewise the
fastest of many set-ups. ``--trace 1`` makes three repetitions -- plain, with
spans, with counters -- and prints the per-layer metrics of ``tracer.py``
and the tracing overhead. Every repetition is checked from outside through
public attributes; the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
try:
    import smnsim
    from smnsim import config, event_pipeline, session_correlation, simulator
    from smnsim.device_tree import TreeError
    from smnsim.event_pipeline import ConnectionMarker
    from smnsim.session_correlation import SessionStatus
except ImportError as exc:
    sys.exit(f"perfbench: cannot import smnsim from {SRC}: {exc}")

import gen  # noqa: E402  (perfbench/ is on sys.path as the script directory)
from tracer import Tracer  # noqa: E402

WORKLOADS = ("fleet-idle", "fleet-attack", "correlate-storm")
MIN_REPS = 3
SETUPS_PER_REP = 4  # set-ups alone before each repetition, for the setup_s floor
BASELINE = os.path.join(HERE, "baseline_digests.json")

#: Per-layer counts that must read 0: the workload was chosen to bypass them.
BYPASS = {
    "fleet-idle": (
        "event_pipeline.cross_device_add.calls",
        "event_pipeline.parse_event_line.calls",
        "session_correlation.on_event.calls",
    ),
    "fleet-attack": (),
    "correlate-storm": (
        "simulator.node_visits",
        "messaging.network_step.calls",
        "messaging.poll.calls",
        "device_tree.serialize.calls",
    ),
}

#: Metrics of the last output line; BENCHMARK.json lists the same names.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("tick_ms_p50", "ms"),
    ("tick_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    "simulator.node_visits",
    "simulator.busy_ratio",
    "messaging.poll.calls",
    "messaging.poll.empty_ratio",
    "messaging.frames_sent.NETWORK_TEST",
    "messaging.frames_sent.DEVICE_STATE_PKG",
    "messaging.frames_sent.DEVICE_EVENT",
    "messaging.frames_sent.SESSION_ALERT",
    "messaging.frames_sent.TOPOLOGY_REPORT",
    "messaging.next_hop.calls",
    "messaging.network_step.calls",
    "messaging.mailbox_depth_max",
    "addressing.parse.calls",
    "addressing.parse.self_s",
    "addressing.construct.calls",
    "addressing.hash.calls",
    "event_pipeline.cross_device_add.calls",
    "event_pipeline.similarity.calls",
    "event_pipeline.clusters_end",
    "event_pipeline.parse_event_line.calls",
    "event_pipeline.format_event_line.calls",
    "event_pipeline.aggregate_single_device.events_in",
    "event_pipeline.aggregate_single_device.events_out",
    "event_pipeline.validate.kept_ratio",
    "node_runtime.smn_on_frame.calls",
    "device_model.step.calls",
    "device_model.step.applied_ratio",
    "session_correlation.on_event.calls",
    "session_correlation.sweep.calls",
    "session_correlation.sweep.self_s",
    "session_correlation.live_alerts_max",
    "session_correlation.queued_events_max",
    "session_correlation.conn_queue_max",
    "session_correlation.joined_ratio",
    "device_tree.serialize.calls",
    "device_tree.serialize.bytes",
    "device_tree.build_tree.calls",
    "device_tree.apply_changeset.calls",
    "config.parse_topology.self_s",
    "layer.config.self_s",
    "layer.session_correlation.self_s",
    "trace.overhead_s",
)


@dataclass
class Rep:
    """One set-up plus one run, with what the checks found."""

    setup_s: float
    run_s: float
    #: Host seconds between stamps, covering the whole run: one per tick
    #: (per fed event on the storm), then the tail after the last stamp. An
    #: array, not a list of floats, so that the repetitions a run keeps do
    #: not pin heap pages and grow peak_rss_mb with their number.
    segments: array
    digest: str
    problems: list[str]
    state: object  # the Simulation, or the CorrelationEngine
    alert_lags: list[int] = field(default_factory=list)


def _sha256(files: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()


def _pct(values: list[float], q: int) -> float:
    """q-th percentile (1..99); the median for q == 50."""
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[q - 1]


class Fleet:
    """``Simulation(...).run()`` over the generated tree and scenario."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.topology = gen.topology(seed)
        self.scenario = (gen.idle_scenario if name == "fleet-idle" else gen.attack_scenario)(seed)
        self.emits = sum(1 for line in self.scenario.splitlines() if line.startswith("at "))
        self.nodes = len(config.parse_topology(self.topology).nodes)

    def setup(self):
        return simulator.Simulation(
            config.parse_topology(self.topology), config.parse_scenario(self.scenario)
        )

    def rep(self) -> Rep:
        t0 = perf_counter()
        sim = self.setup()
        setup_s = perf_counter() - t0
        stamps: list[float] = []
        network_step = sim.network.step

        def stamped_step() -> None:
            network_step()
            stamps.append(perf_counter())

        sim.network.step = stamped_step
        gc.collect()
        t0 = perf_counter()
        report = sim.run()
        t1 = perf_counter()
        files = report.files()
        edges = [t0] + stamps + [t1]
        return Rep(
            setup_s=setup_s,
            run_s=t1 - t0,
            segments=array("d", (b - a for a, b in zip(edges, edges[1:]))),
            digest=_sha256(files),
            problems=self.check(sim, len(stamps)),
            state=sim,
            alert_lags=alert_lags(files),
        )

    @staticmethod
    def ticks(segments) -> list[float]:
        """Host seconds per simulated tick; the tail builds the report."""
        return list(segments[:-1])

    @staticmethod
    def check(sim, stamps: int) -> list[str]:
        problems = []
        ticks = sim.scenario.last_tick + sim.scenario.drain + 1
        if stamps != ticks:
            problems.append(f"{stamps} network steps stamped for {ticks} ticks")
        for smn in sim.smns.values():
            engine = smn.engine
            accounted = smn.events_dropped + engine.joined_events + engine.independent_events
            if accounted != smn.events_received:
                problems.append(
                    f"{smn.address}: {smn.events_received} events received, {accounted} "
                    "dropped + joined + independent"
                )
        if sim.mirror.serialize() != sim.root.virtual_view.serialize():
            problems.append("console mirror differs from the root's view")
        for name, tree in [("mirror", sim.mirror)] + [
            (str(a), smn.virtual_view) for a, smn in sim.smns.items()
        ]:
            try:
                tree.validate()
            except TreeError as exc:
                problems.append(f"{name} view invalid: {exc}")
        sent = Counter()
        for smn in sim.smns.values():
            if smn.parent == sim.root.address:
                sent.update(smn.session_lines)
        if Counter(sim.root.session_lines) != sent:
            problems.append("SESSION lines at the root differ from those its children sent")
        return problems

    def end_state(self, sim) -> dict[str, tuple[float, str]]:
        return {
            "event_pipeline.clusters_end": (
                sum(len(getattr(getattr(s, "aggregator", None), "alerts", ()))
                    for s in sim.smns.values()), "count"),
            "session_correlation.joined_ratio": (
                _joined_ratio([s.engine for s in sim.smns.values()]), "ratio"),
            "messaging.dead_letters": (len(sim.network.dead_letters), "count"),
            "messaging.dropped": (sim.network.dropped, "count"),
        }


def _joined_ratio(engines) -> float:
    joined = sum(e.joined_events for e in engines)
    alone = sum(e.independent_events for e in engines)
    return joined / (joined + alone) if joined + alone else 0.0


def alert_lags(files: dict[str, str]) -> list[int]:
    """Ticks from each session's end to its SESSION line reaching the root.

    The emitting node logs ``NODE <addr> <tick> ALERT <session>``; the frame
    then needs one tick per level to reach the root. The traced run checks
    this against the arrival ticks it observes at the root."""
    emitted = {}
    for line in files["nodes.txt"].splitlines():
        parts = line.split()
        if parts[3] == "ALERT":
            hops = sum(1 for s in parts[1].split(".") if s != "0") - 1
            emitted[parts[4]] = int(parts[2]) + hops
    lags = []
    for line in files["sessions.txt"].splitlines():
        parts = line.split()
        if parts[5] != "open":
            lags.append(emitted[parts[1]] - int(parts[5]))
    return lags


class Storm:
    """The ``smnsim correlate`` body on one engine, fed one line at a time."""

    name = "correlate-storm"

    def __init__(self, seed: int) -> None:
        self.topology = gen.topology(seed)
        self.events = gen.storm_events(seed).splitlines()
        topology = config.parse_topology(self.topology)
        parsed = [event_pipeline.parse_event_line(t, topology.shape) for t in self.events]
        self.times = [ev.create_time for ev in parsed]
        kept = event_pipeline.validate(
            parsed, topology.assets, topology.pipeline.validation_threshold)
        self.kept_plain = sum(
            1 for ev, _ in kept if ev.connection_marker is ConnectionMarker.NONE)

    def setup(self):
        topology = config.parse_topology(self.topology)
        s = topology.pipeline
        engine = session_correlation.CorrelationEngine(
            "cli", session_correlation.CorrelationConfig(grace=s.grace, connect_ttl=s.connect_ttl))
        return topology, engine

    def rep(self) -> Rep:
        t0 = perf_counter()
        topology, engine = self.setup()
        setup_s = perf_counter() - t0
        parse, validate = event_pipeline.parse_event_line, event_pipeline.validate
        fmt = session_correlation.format_session_line
        shape, assets = topology.shape, topology.assets
        threshold = topology.pipeline.validation_threshold
        lines: list[str] = []
        stamps: list[float] = []
        gc.collect()
        t0 = perf_counter()
        for text in self.events:
            ev = parse(text, shape)
            now = ev.create_time
            engine.sweep(now)
            kept = validate([ev], assets, threshold)
            if kept:
                for action in engine.on_event(kept[0][0], now):
                    if action.kind == "ending":
                        lines.append(fmt(action.record))
            stamps.append(perf_counter())
        for alert in engine.store.alerts:
            if alert.status is SessionStatus.OPEN:
                lines.append(fmt(engine.snapshot(alert)))
        t1 = perf_counter()
        edges = [t0] + stamps + [t1]
        problems = []
        accounted = engine.joined_events + engine.independent_events
        if accounted != self.kept_plain:
            problems.append(f"{accounted} joined + independent, {self.kept_plain} events kept")
        return Rep(setup_s, t1 - t0, array("d", (b - a for a, b in zip(edges, edges[1:]))),
                   _sha256({"sessions.txt": "\n".join(lines)}), problems, engine)

    def ticks(self, segments) -> list[float]:
        """Host seconds per tick: the events of one ``time`` summed; the
        tail lists the alerts still open."""
        tick_s: list[float] = []
        for i, d in enumerate(segments[:-1]):
            if i and self.times[i] == self.times[i - 1]:
                tick_s[-1] += d
            else:
                tick_s.append(d)
        return tick_s

    def end_state(self, engine) -> dict[str, tuple[float, str]]:
        return {
            "event_pipeline.clusters_end": (0, "count"),
            "session_correlation.joined_ratio": (_joined_ratio([engine]), "ratio"),
            "messaging.dead_letters": (0, "count"),
            "messaging.dropped": (0, "count"),
        }


def make_workload(name: str, seed: int):
    return Storm(seed) if name == "correlate-storm" else Fleet(name, seed)


def _attempt(workload, problems: list[str]) -> Rep | None:
    """One repetition; a raise or a failed check counts as a failure."""
    try:
        rep = workload.rep()
    except Exception:  # any raise is a failed run, reported and counted
        problems.append(traceback.format_exc().rstrip().splitlines()[-1])
        traceback.print_exc()
        return None
    if rep.problems:
        problems.append("; ".join(rep.problems))
        return None
    return rep


def _baseline(name: str, seed: int) -> str | None:
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            return json.load(fh).get(name, {}).get(str(seed))
    except FileNotFoundError:
        return None


def _print_digest(workload, seed: int, digest: str | None) -> None:
    base = _baseline(workload.name, seed)
    verdict = ("not recorded for this seed" if base is None
               else "identical" if base == digest else "DIFFERENT")
    print(f"report sha256 {digest}")
    print(f"seed commit   {base or '-'} ({verdict})")


def timed(workload, seconds: int) -> tuple[list[Rep | None], list[str], list[float]]:
    """Repetitions until ``seconds`` are used, each after a few set-ups
    alone, so that set-up is sampled over the whole run; stops at the first
    failure."""
    setups: list[float] = []
    attempts: list[Rep | None] = []
    problems: list[str] = []
    start = perf_counter()
    while not problems:
        r0 = perf_counter()
        gc.collect()  # free the last repetition first, so peak_rss_mb holds one at a time
        for _ in range(SETUPS_PER_REP):
            s0 = perf_counter()
            workload.setup()
            setups.append(perf_counter() - s0)
        rep = _attempt(workload, problems)
        if rep is not None:
            rep.state = None  # keep one repetition's memory, not all of them
        attempts.append(rep)
        last = perf_counter() - r0
        if len(attempts) >= MIN_REPS and perf_counter() - start + last > seconds:
            break
    return attempts, problems, setups + [r.setup_s for r in attempts if r]


def floor(reps: list[Rep]) -> list[float]:
    """Each segment's fastest time over the repetitions."""
    return [min(times) for times in zip(*(r.segments for r in reps))]


def end_to_end(workload, reps: list[Rep], setups: list[float]) -> dict[str, tuple[float, str]]:
    segments = floor(reps)
    ticks = workload.ticks(segments)
    return {
        "setup_s": (min(setups), "s"),
        "run_s": (sum(segments), "s"),
        "tick_ms_p50": (_pct(ticks, 50) * 1e3, "ms"),
        "tick_ms_p99": (_pct(ticks, 99) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _line(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<52} {text:>14} {unit:<6} {note}".rstrip())


def report_timed(workload, reps: list[Rep], setups: list[float]) -> dict[str, tuple[float, str]]:
    metrics = end_to_end(workload, reps, setups)
    segments = len(reps[0].segments)
    ticks = len(workload.ticks(reps[0].segments))
    notes = {
        "setup_s": f"fastest of {len(setups)} set-ups",
        "run_s": f"sum of {segments} segment floors over {len(reps)} runs",
        "tick_ms_p50": f"over {ticks} tick floors",
        "tick_ms_p99": f"over {ticks} tick floors",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    print("end-to-end metrics:")
    for name, (value, unit) in metrics.items():
        _line(name, value, unit, notes[name])
    run_s = metrics["run_s"][0]
    _line("run_s_wall_median", statistics.median(r.run_s for r in reps), "s",
          f"median wall time of {len(reps)} runs, host noise included")
    na = "n/a"
    if isinstance(workload, Fleet):
        _line("node_ticks_per_s", workload.nodes * ticks / run_s, "1/s",
              f"{workload.nodes} nodes x {ticks} ticks")
        if workload.emits:
            _line("events_per_s", workload.emits / run_s, "1/s", f"{workload.emits} emits")
        else:
            _line("events_per_s", na, "", "fleet-idle emits nothing")
        _line("event_us_p50", na, "", "correlate-storm only")
        _line("event_us_p99", na, "", "correlate-storm only")
        lags = reps[0].alert_lags
        if lags:
            for q in (50, 99):
                _line(f"alert_lag_ticks_p{q}", _pct(lags, q), "ticks",
                      f"deterministic, over {len(lags)} sessions")
        else:
            _line("alert_lag_ticks_p50", na, "", "no sessions")
            _line("alert_lag_ticks_p99", na, "", "no sessions")
    else:
        events = floor(reps)[:-1]
        _line("node_ticks_per_s", na, "", "fleet workloads only")
        _line("events_per_s", len(workload.events) / run_s, "1/s",
              f"{len(workload.events)} event lines")
        _line("event_us_p50", _pct(events, 50) * 1e6, "us", f"over {len(events)} event floors")
        _line("event_us_p99", _pct(events, 99) * 1e6, "us", f"over {len(events)} event floors")
        _line("alert_lag_ticks_p50", na, "", "no root: an ending alert is emitted at once")
        _line("alert_lag_ticks_p99", na, "", "no root: an ending alert is emitted at once")
    _line("failed_frac", 0.0, "", f"0 of {len(reps)} runs failed")
    return metrics


def traced(workload) -> tuple[list[Rep | None], list[str], dict[str, tuple[float, str]]]:
    """One plain repetition, one with spans and one with the hot-call
    counters; all three must give the same report."""
    problems: list[str] = []
    tracer = Tracer()
    attempts = [_attempt(workload, problems)]
    for spans in (True, False):
        tracer.install(spans)
        try:
            attempts.append(_attempt(workload, problems))
        finally:
            tracer.uninstall()
    if problems:
        return attempts, problems, {}
    plain, spanned, counted = attempts
    metrics = tracer.metrics()
    metrics.update(workload.end_state(spanned.state))
    metrics["trace.overhead_s"] = (spanned.run_s - plain.run_s, "s")
    metrics["trace.plain_run_s"] = (plain.run_s, "s")
    metrics["trace.spans_run_s"] = (spanned.run_s, "s")
    metrics["trace.counters_run_s"] = (counted.run_s, "s")
    problems += [f"bypass broken: {name} = {metrics[name][0]}"
                 for name in BYPASS[workload.name] if metrics[name][0]]
    if isinstance(workload, Fleet):
        problems += arrival_problems(spanned, tracer.root_arrivals)
    return attempts, problems, metrics


def arrival_problems(rep: Rep, arrivals: list[tuple[int, str]]) -> list[str]:
    observed = sorted(tick - int(line.split()[5]) for tick, line in arrivals)
    if observed != sorted(rep.alert_lags):
        return ["alert lags derived from the report differ from arrivals seen at the root"]
    return []


def report_traced(workload, metrics: dict[str, tuple[float, str]]) -> None:
    print("per-layer metrics (traced run):")
    for name in sorted(metrics):
        value, unit = metrics[name]
        _line(name, value, unit)
    layers = {n: v for n, (v, _u) in metrics.items() if n.startswith("layer.")}
    total = sum(layers.values())
    print("self time per layer:")
    for name, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        _line(name, seconds, "s", f"{100 * seconds / total:.1f}%" if total else "")
    if BYPASS[workload.name]:
        print(f"bypass holds: {', '.join(BYPASS[workload.name])} all 0")
    _line("trace.overhead_s", metrics["trace.overhead_s"][0], "s",
          "wall time with spans - plain wall time")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="smnsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.abspath(smnsim.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: smnsim was imported from {smnsim.__file__}, not from {SRC}")

    workload = make_workload(args.workload, args.seed)
    mode = "traced" if args.trace else "timed"
    print(f"perfbench {args.workload} seed {args.seed} {mode}, {args.seconds} s")
    if isinstance(workload, Fleet):
        print(f"inputs: {workload.nodes} nodes, {workload.emits} emits, {gen.SPAN_TICKS} ticks")
    else:
        print(f"inputs: {len(workload.events)} event lines, {gen.STORM_PAIRS} endpoint pairs, "
              f"{workload.kept_plain} ordinary events kept")

    if args.trace:
        attempts, problems, metrics = traced(workload)
        names = PER_LAYER
    else:
        attempts, problems, setups = timed(workload, args.seconds)
        names = [n for n, _u in END_TO_END]
    reps = [r for r in attempts if r is not None]
    attempted, failed = len(attempts), len(attempts) - len(reps)
    digests = sorted({r.digest for r in reps})
    if len(digests) > 1:
        problems.append(f"report digest differs between runs: {digests}")
    _print_digest(workload, args.seed, digests[0] if digests else None)
    for problem in problems:
        print(f"FAILED: {problem}")
    if problems:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    if args.trace:
        report_traced(workload, metrics)
    else:
        metrics = report_timed(workload, reps, setups)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
