"""The agenda in ``Simulation.run`` against the visit-every-node reference
loop: byte-identical reports on seeded random scenarios."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from reference_loop import USAGE, ReferenceSimulation
from smnsim.config import load_topology, parse_scenario, parse_topology
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
    device. Only the emit that finds a device's buffer empty files the
    device for the next flush; every other emit must find that flush, or an
    earlier wake, filed already."""
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
        return f"enlist {handle} targets={','.join(rng.sample(DEVICES + SITES, 2))}"
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


@pytest.mark.parametrize("seed", range(SCENARIOS))
def test_agenda_matches_reference_loop(seed, topologies):
    topology = topologies[seed % 3]
    text = random_scenario(random.Random(seed))
    want = ReferenceSimulation(topology, parse_scenario(text), debug=True).run()
    have = Simulation(topology, parse_scenario(text), debug=True).run()
    assert have.files() == want.files(), text


@pytest.mark.parametrize("seed", range(EMIT_DENSE_SCENARIOS))
def test_agenda_matches_reference_loop_under_dense_emits(seed, topologies):
    topology = topologies[seed % 3]
    text = emit_dense_scenario(random.Random(seed))
    want = ReferenceSimulation(topology, parse_scenario(text), debug=True).run()
    have = Simulation(topology, parse_scenario(text), debug=True).run()
    assert have.files() == want.files(), text


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
