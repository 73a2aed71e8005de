"""The agenda in ``Simulation.run`` against the visit-every-node reference
loop: byte-identical reports on seeded random scenarios."""

import random
from pathlib import Path

import pytest

from reference_loop import ReferenceSimulation
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
SOURCES = ("10.0.0.9:4242", "10.0.0.99:4444")
TARGETS = ("10.0.1.5", "10.0.2.2", "10.0.1.1")
SCENARIOS = 150


def random_scenario(rng: random.Random) -> str:
    """Directives of every kind the agenda must wake a node for, or not."""
    lines = [f"seed = {rng.randrange(1000)}", f"drain = {rng.randint(25, 90)}"]
    for tick in sorted(rng.randrange(100) for _ in range(rng.randint(5, 30))):
        until = tick + rng.randint(1, 60)
        op = rng.choices(
            ("emit", "silence", "abnormal", "command", "loss"), (8, 2, 1, 2, 1)
        )[0]
        if op == "emit":
            port = rng.choice(("80", "22", str(rng.randint(1, 20))))
            lines.append(
                f"at {tick} emit {rng.choice(DEVICES)} class={rng.choice(CLASSES)} "
                f"src={rng.choice(SOURCES)} dst={rng.choice(TARGETS)}:{port} "
                f"sev={rng.randint(1, 5)}"
            )
        elif op == "silence":
            lines.append(f"at {tick} silence {rng.choice(DEVICES + SITES)} until {until}")
        elif op == "abnormal":
            lines.append(f"at {tick} abnormal {rng.choice(DEVICES)} until {until}")
        elif op == "command":
            kind = rng.choice(("policy", "vulnerability", "reboot"))
            lines.append(f"at {tick} command {kind} {rng.choice(DEVICES + SITES)}")
        else:
            src, dst = rng.choice(LINKS)
            if rng.random() < 0.5:
                src, dst = dst, src
            rate = rng.choice(("1.0", "0.5"))
            lines.append(f"at {tick} inject-loss {src}->{dst} until {until} rate={rate}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def topologies():
    """The demo topology, and the same with a flush window that is not a
    multiple of a heartbeat interval, so flushes fall between heartbeats."""
    text = TOPOLOGY.read_text()
    odd = text.replace("window_ticks = 10", "window_ticks = 7")
    assert odd != text
    return [parse_topology(t, base_dir=str(TOPOLOGY.parent)) for t in (text, odd)]


@pytest.mark.parametrize("seed", range(SCENARIOS))
def test_agenda_matches_reference_loop(seed, topologies):
    topology = topologies[seed % 2]
    text = random_scenario(random.Random(seed))
    want = ReferenceSimulation(topology, parse_scenario(text), debug=True).run()
    have = Simulation(topology, parse_scenario(text), debug=True).run()
    assert have.files() == want.files(), text


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
