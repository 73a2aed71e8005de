from pathlib import Path

import pytest

from reference_loop import ReferenceSimulation
from smnsim import cli
from smnsim.config import ConfigError, load_topology, parse_scenario, parse_topology
from smnsim.simulator import Simulation

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "demo"
GOLDEN = Path(__file__).resolve().parent / "golden"
REPORT_FILES = [
    "cases.txt",
    "deadletters.txt",
    "mirror.txt",
    "nodes.txt",
    "sessions.txt",
    "tree.txt",
]


@pytest.mark.parametrize("debug", [False, True])
@pytest.mark.parametrize("scenario", ["attack", "devices", "heartbeat", "respond"])
def test_demo_reports_match_golden(scenario, debug, tmp_path):
    argv = [
        "simulate",
        "--topology", str(DEMO / "topology.cfg"),
        "--scenario", str(DEMO / f"{scenario}.scn"),
        "--out", str(tmp_path),
    ]
    assert cli.main(argv + ["--debug"] if debug else argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == REPORT_FILES
    for name in REPORT_FILES:
        want = (GOLDEN / scenario / name).read_bytes()
        assert (tmp_path / name).read_bytes() == want, f"{scenario}/{name}"


def test_emitted_source_reaches_the_report_as_written():
    """Events stay objects from device to report, so a source with a quote in
    it is not cut at the quote, as the event line's attribute syntax cuts it."""
    odd = '10.0.0.99"x:4444'
    topology = load_topology(str(DEMO / "topology.cfg"))
    text = (DEMO / "attack.scn").read_text().replace("10.0.0.99:4444", odd)
    report = Simulation(topology, parse_scenario(text)).run()
    want = (GOLDEN / "attack" / "sessions.txt").read_text().replace("10.0.0.99:4444", odd)
    assert report.files()["sessions.txt"] == want


ROOT_DEVICES_TOPOLOGY = """\
[tree]
depth = 3
degree = 4

[node 1.0.0]
kind = SMN

[node 1.1.0]
kind = Firewall
ip = 10.0.1.1

[node 1.2.0]
kind = IDS
ip = 10.0.1.2
"""


def test_session_open_at_root_is_reported():
    scenario = parse_scenario(
        "drain = 60\n"
        "at 20 emit 1.1.0 class=fw.connect src=10.0.0.9:4242 dst=10.0.1.5:80\n"
        "at 25 emit 1.2.0 class=sig.1 src=10.0.0.9:4242 dst=10.0.1.5:80 sev=5\n"
    )
    report = Simulation(parse_topology(ROOT_DEVICES_TOPOLOGY), scenario).run()
    assert report.sessions == ["SESSION 1.0.0#1 10.0.0.9:4242 10.0.1.5:80 20 open 1 [1.2.0-1]"]


def test_abnormal_on_management_node_rejected():
    topology = load_topology(str(DEMO / "topology.cfg"))
    Simulation(topology, parse_scenario("at 5 abnormal 1.1.1 until 10\n"))
    with pytest.raises(ConfigError, match="line 1: abnormal target 1.1.0 is not a device"):
        Simulation(topology, parse_scenario("at 5 abnormal 1.1.0 until 10\n"))


@pytest.mark.parametrize("loop", [Simulation, ReferenceSimulation])
def test_silenced_device_answers_no_command(loop):
    topology = load_topology(str(DEMO / "topology.cfg"))
    scenario = parse_scenario(
        "drain = 60\nat 10 silence 1.1.1 until 60\nat 12 command reboot 1.1.1\n"
    )
    lines = loop(topology, scenario).run().node_lines
    assert "NODE 1.0.0 12 COMMAND 1.0.0!1 reboot 1.1.1" in lines
    assert [l for l in lines if " ACK " in l and int(l.split()[2]) < 60] == []


def test_actions_on_a_failed_launch_are_logged_and_the_run_goes_on():
    """The launch at tick 9 fails: the emitted events leave their devices only
    at the tick-10 window flush, so 1.1.0 has no alert yet."""
    topology = load_topology(str(DEMO / "topology.cfg"))
    scenario = parse_scenario(
        "drain = 30\n"
        "at 2 emit 1.1.1 class=fw.connect src=10.0.0.9:4242 dst=10.0.1.5:80\n"
        "at 4 emit 1.1.2 class=sig.2001 src=10.0.0.9:4242 dst=10.0.1.5:80 sev=5\n"
        "at 9 respond launch w1 owner=1.1.0\n"
        "at 10 respond escalate w1\n"
    )
    report = Simulation(topology, scenario).run()
    assert [l for l in report.node_lines if "RESPOND-ERROR" in l] == [
        "NODE 1.0.0 9 RESPOND-ERROR 1.1.0 has no alert to respond to",
        "NODE 1.0.0 10 RESPOND-ERROR w1 has no case: its launch failed",
    ]
    assert report.case_lines == []
    # the run went on: the events reach 1.1.0 at tick 11
    assert "NODE 1.1.0 11 STATE 1.1.2 T7 S211->S22" in report.node_lines
