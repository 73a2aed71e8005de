"""The agenda in ``Simulation.run`` against the visit-every-node reference
loop: byte-identical reports on seeded random scenarios."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from reference_loop import USAGE, ReferenceSimulation
from smnsim.addressing import NodeAddress
from smnsim.config import load_topology, parse_scenario, parse_topology
from smnsim.device_model import ARROWS_FROM, TransferCondition
from smnsim.simulator import Simulation

TOPOLOGY = Path(__file__).resolve().parent.parent / "demo" / "topology.cfg"
SITES = ("1.1.0", "1.2.0")
DEVICES = ("1.1.1", "1.1.2", "1.1.3", "1.2.1", "1.2.2", "1.2.3")
LINKS = [("1.1.0", "1.0.0"), ("1.2.0", "1.0.0")] + [(d, d[:3] + ".0") for d in DEVICES]
CLASSES = (
    "fw.connect", "fw.disconnect", "fw.deny", "sig.2001", "sig.2002",
    "hm.login", "hm.heartbeat", "av.trojan", "scan.vuln",
)
SMNS = ("1.0.0",) + SITES
SOURCES = ("10.0.0.9:4242", "10.0.0.99:4444")
TARGETS = ("10.0.1.5", "10.0.2.2", "10.0.1.1")
SCENARIOS = 150
EMIT_DENSE_SCENARIOS = 60


def random_scenario(rng: random.Random) -> str:
    """Directives of every kind the agenda must wake a node for, or not."""
    head = [f"seed = {rng.randrange(1000)}", f"drain = {rng.randint(25, 90)}"]
    lines: list[tuple[int, str]] = []
    handles: list[str] = []
    for tick in sorted(rng.randrange(100) for _ in range(rng.randint(5, 30))):
        until = tick + rng.randint(1, 60)
        op = rng.choices(
            ("emit", "session", "silence", "abnormal", "command", "loss", "respond"),
            (8, 2, 2, 1, 2, 1, 2),
        )[0]
        if op == "session":
            lines.extend(random_session(rng, tick))
            continue
        if op == "respond":
            text = f"respond {random_respond(rng, handles)}"
        elif op == "emit":
            port = rng.choice(("80", "22", str(rng.randint(1, 20))))
            text = (
                f"emit {rng.choice(DEVICES)} class={rng.choice(CLASSES)} "
                f"src={rng.choice(SOURCES)} dst={rng.choice(TARGETS)}:{port} "
                f"sev={rng.randint(1, 5)}"
            )
        elif op == "silence":
            text = f"silence {rng.choice(DEVICES + SITES)} until {until}"
        elif op == "abnormal":
            text = f"abnormal {rng.choice(DEVICES)} until {until}"
        elif op == "command":
            kind = rng.choice(("policy", "vulnerability", "reboot"))
            text = f"command {kind} {rng.choice(DEVICES + SITES)}"
        else:
            src, dst = rng.choice(LINKS)
            if rng.random() < 0.5:
                src, dst = dst, src
            rate = rng.choice(("1.0", "0.5"))
            text = f"inject-loss {src}->{dst} until {until} rate={rate}"
        lines.append((tick, f"at {tick} {text}"))
    lines.sort(key=lambda line: line[0])  # stable: same-tick lines keep their order
    return "\n".join(head + [text for _, text in lines]) + "\n"


def random_session(rng: random.Random, tick: int) -> list[tuple[int, str]]:
    """A connect at a site's firewall, a kept event on its endpoints from the
    same site around the time a short ``connect_ttl`` expires the connect
    (it opens an alert unless the connect has expired), and sometimes the
    disconnect."""
    site = rng.choice(SITES)[:3]
    ends = f"src={rng.choice(SOURCES)} dst={rng.choice(TARGETS)}:80"
    later = tick + rng.randint(15, 30)
    lines = [
        (tick, f"at {tick} emit {site}.1 class=fw.connect {ends} sev=1"),
        (later, f"at {later} emit {site}.{rng.randint(1, 3)} class=sig.2001 {ends} sev=5"),
    ]
    if rng.random() < 0.5:
        end = later + rng.randint(0, 20)
        lines.append((end, f"at {end} emit {site}.1 class=fw.disconnect {ends} sev=1"))
    return lines


def emit_dense_scenario(rng: random.Random) -> str:
    """Many emits to two devices: several at one tick, many on flush ticks
    (multiples of either topology's window), some inside silence and
    abnormal windows, and some while a command's ack is pending at the
    device. Each device's script waits in its buffer from set-up on, and
    its ``next_wake`` must name each flush from the first emit there, after
    a silence too."""
    devices = rng.sample(DEVICES, 2)
    lines: list[tuple[int, str]] = []

    def emit(tick: int, device: str) -> None:
        port = rng.choice(("80", str(rng.randint(1, 12))))
        lines.append((tick, (
            f"at {tick} emit {device} class={rng.choice(CLASSES)} "
            f"src={rng.choice(SOURCES)} dst={rng.choice(TARGETS)}:{port} "
            f"sev={rng.randint(1, 5)}"
        )))

    for _ in range(rng.randint(3, 6)):
        tick, device = rng.randrange(90), rng.choice(devices)
        op = rng.choice(("silence", "abnormal", "command"))
        if op == "command":
            kind = rng.choice(("policy", "vulnerability"))
            lines.append((tick, f"at {tick} command {kind} {device}"))
            # the command reaches the device a few ticks on, and its ack
            # waits there for three more
            for _ in range(rng.randint(1, 4)):
                emit(tick + rng.randint(1, 9), device)
            continue
        node = device if op == "abnormal" or rng.random() < 0.7 else device[:3] + ".0"
        until = tick + rng.randint(1, 25)
        lines.append((tick, f"at {tick} {op} {node} until {until}"))
        for _ in range(rng.randint(1, 4)):
            emit(rng.randint(tick, until), device)
    for _ in range(rng.randint(20, 60)):
        tick = rng.choice((rng.randrange(100), 7 * rng.randrange(15), 10 * rng.randrange(10)))
        for _ in range(rng.choice((1, 1, 2, 3))):
            emit(tick, rng.choice(devices))
    lines.sort(key=lambda line: line[0])
    head = [f"seed = {rng.randrange(1000)}", f"drain = {rng.randint(0, 40)}"]
    return "\n".join(head + [text for _, text in lines]) + "\n"


def random_respond(rng: random.Random, handles: list[str]) -> str:
    """A respond action; most log at a management node when they run, and a
    launch only succeeds once its owner has correlated an event."""
    action = rng.choice(("launch", "escalate", "enlist", "advance")) if handles else "launch"
    if action == "launch":
        handles.append(f"w{len(handles) + 1}")
        return f"launch {handles[-1]} owner={rng.choice(SMNS)}"
    handle = rng.choice(handles[-2:])
    if action == "escalate":
        return f"escalate {handle}"
    if action == "enlist":
        # a drawn device names its site, as only a management node may be
        # enlisted: the same draws, so the same scenarios otherwise
        drawn = [t if t in SITES else t[:3] + ".0" for t in rng.sample(DEVICES + SITES, 2)]
        return f"enlist {handle} targets={','.join(dict.fromkeys(drawn))}"
    actor = rng.choice(SMNS)
    rng.randrange(9)  # the draw of a note the directive no longer takes: same scenarios
    return f"advance {handle} actor={actor}"


def _edit(text: str, *pairs: tuple[str, str]) -> str:
    for old, new in pairs:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


@pytest.fixture(scope="module")
def topologies():
    """The demo topology; the same with a flush window that is not a multiple
    of a heartbeat interval, so flushes fall between heartbeats; and that one
    with alerts and connects that expire within a run, sparser heartbeats and
    a report interval that is not a multiple of either heartbeat interval, so
    expiries and reports fall on ticks no heartbeat wakes a management node
    for."""
    text = TOPOLOGY.read_text()
    odd = _edit(text, ("window_ticks = 10", "window_ticks = 7"))
    short = _edit(
        odd,
        ("grace = 60", "grace = 9"),
        ("connect_ttl = 600", "connect_ttl = 23"),
        ("report_interval = 50", "report_interval = 13"),
        ("network_test_interval = 5", "network_test_interval = 9"),
        ("state_pkg_interval = 8", "state_pkg_interval = 14"),
        ("network_test_timeout = 30", "network_test_timeout = 40"),
        ("state_pkg_timeout = 20", "state_pkg_timeout = 31"),
    )
    return [parse_topology(t, base_dir=str(TOPOLOGY.parent)) for t in (text, odd, short)]


def assert_reports_arrive(topology, script, files: dict[str, str]) -> None:
    """Every topology report a node logs before the last tick reaches its
    parent at the next tick, which logs ``ASSEMBLE`` or ``BADREPORT`` for
    it, or a loss window drops it on its hop at the tick it is sent, which
    ``deadletters.txt`` says; and every report it says was dropped was
    logged and never received."""
    shape = topology.shape
    last_tick = script.last_tick + script.drain
    reports, received = [], set()
    for line in files["nodes.txt"].splitlines():
        _, addr, tick, action, *detail = line.split()
        if action == "REPORT":
            reports.append((NodeAddress.parse(addr, shape), int(tick)))
        elif action in ("ASSEMBLE", "BADREPORT"):
            received.add((addr, int(tick), detail[0]))
    dead = set(files["deadletters.txt"].splitlines())
    assert reports
    lost = set()
    for sender, tick in reports:
        parent = sender.parent()
        if (str(parent), tick + 1, str(sender)) in received:
            continue
        line = f"DEADLETTER {tick} {sender}->{parent} TOPOLOGY_REPORT {sender} {parent}"
        lost.add(line)
        assert tick >= last_tick or line in dead, f"NODE {sender} {tick} REPORT"
    assert {line for line in dead if " TOPOLOGY_REPORT " in line} <= lost


#: the conditions of the heartbeats a device sends outside an abnormal
#: window: T1 for a network test, T3 and T6 for a state package
STEADY_HEARTBEAT_CONDS = frozenset(
    c.value for c in (TransferCondition.T1, TransferCondition.T3, TransferCondition.T6)
)


def watch_steady_records(sim: Simulation) -> list[int]:
    """Check, at the end of every tick of ``sim.run()``, the parent's record
    of each steady device against the closed form of its heartbeat cadence.

    A device is steady from a tick on while no emit of tick ``now`` or
    earlier waits in its buffer (which holds its whole script of emits not
    yet flushed, from set-up on), its pending acks are empty, no silence,
    abnormal or loss window covers it or its hop to its parent, and no
    condition of its heartbeats has an arrow from the parent's record of
    its state. A heartbeat sent while steady then moves only the
    deadline it renews, so each deadline is the last multiple of its interval
    (sent while steady), plus one tick of travel, plus its timeout. Returns a
    list whose one item counts the deadlines checked."""
    checked = [0]
    since: dict[NodeAddress, int] = {}
    network = sim.network
    step = network.step

    def check_then_step() -> None:
        now = network.now
        for addr, agent in sim.agents.items():
            record = sim.smns[agent.parent].children[addr]
            hop = {addr, agent.parent}
            if (
                agent.buffer and agent.buffer[0].tick <= now or agent.pending_acks
                or now < agent.silent_until or now < agent.abnormal_until
                or any({src, dst} == hop for src, dst, _, _ in network.loss_windows)
                or STEADY_HEARTBEAT_CONDS & ARROWS_FROM[record.status.state.value]
            ):
                since.pop(addr, None)
                continue
            start = since.setdefault(addr, now)
            hb = agent.hb
            for interval, timeout, deadline in (
                (hb.network_test_interval, hb.network_test_timeout, record.net_deadline),
                (hb.state_pkg_interval, hb.state_pkg_timeout, record.pkg_deadline),
            ):
                sent = now - now % interval
                if sent >= start:
                    assert deadline == sent + 1 + timeout, f"{addr} at tick {now}"
                    checked[0] += 1
        step()

    network.step = check_then_step
    return checked


@pytest.mark.parametrize("seed", range(SCENARIOS))
def test_agenda_matches_reference_loop(seed, topologies):
    topology = topologies[seed % 3]
    text = random_scenario(random.Random(seed))
    script = parse_scenario(text)
    want = ReferenceSimulation(topology, parse_scenario(text), debug=True).run()
    sim = Simulation(topology, script, debug=True)
    checked = watch_steady_records(sim)
    have = sim.run()
    assert have.files() == want.files(), text
    assert_reports_arrive(topology, script, have.files())
    assert checked[0] > 0


#: What ``watch_steady_records`` checked over the random scenarios, but
#: those of ``REDRAWN``, when a device's buffer held only the emits of past
#: ticks: filing whole scripts there at set-up must not make it check less.
STEADY_CHECKED = 217_312
#: Scenarios that run otherwise since a flush travels as one frame: in seed
#: 17 a rate-0.5 window on 1.1.1's uplink draws once for the two events
#: flushed at tick 100, where it drew once per event, so the later draws
#: differ (drawing once per event again, it checks 1,505 deadlines, as it did).
REDRAWN = {17}


def test_the_steady_check_covers_every_deadline_it_did(topologies):
    checked = 0
    for seed in range(SCENARIOS):
        if seed in REDRAWN:
            continue
        script = parse_scenario(random_scenario(random.Random(seed)))
        sim = Simulation(topologies[seed % 3], script)
        counted = watch_steady_records(sim)
        sim.run()
        checked += counted[0]
    assert checked >= STEADY_CHECKED


@pytest.mark.parametrize("seed", range(EMIT_DENSE_SCENARIOS))
def test_agenda_matches_reference_loop_under_dense_emits(seed, topologies):
    topology = topologies[seed % 3]
    text = emit_dense_scenario(random.Random(seed))
    script = parse_scenario(text)
    want = ReferenceSimulation(topology, parse_scenario(text), debug=True).run()
    have = Simulation(topology, script, debug=True).run()
    assert have.files() == want.files(), text
    assert_reports_arrive(topology, script, have.files())


@pytest.mark.parametrize("args", [[], [str(TOPOLOGY)]])
def test_reference_loop_without_a_scenario_is_a_usage_error(args):
    """Given nothing to compare, the script says how to call it and fails,
    so an empty scenario glob does not pass unnoticed."""
    tests = Path(__file__).resolve().parent
    done = subprocess.run(
        [sys.executable, str(tests / "reference_loop.py"), *args],
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": str(tests.parent / "src")},
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", USAGE + "\n")


def test_idle_devices_act_only_when_due():
    """Between heartbeats a device agent is not visited at all."""
    topology = load_topology(str(TOPOLOGY))
    sim = Simulation(topology, parse_scenario("drain = 40\n"))
    steps = []
    for agent in sim.agents.values():
        step = agent.step
        agent.step = lambda now, step=step: steps.append(now) or step(now)
    sim.run()
    # every 5th tick (network test) and every 8th (state package), 0..40
    due = sorted({t for t in range(41) if t % 5 == 0 or t % 8 == 0})
    assert sorted(set(steps)) == due
    assert len(steps) == len(due) * len(sim.agents)
