import gc
import random
from pathlib import Path

import pytest

from reference_loop import ReferenceSimulation
from smnsim import cli
from smnsim.addressing import NodeAddress
from smnsim.config import (
    ConfigError,
    Emit,
    InjectLoss,
    Respond,
    ScenarioScript,
    load_topology,
    parse_scenario,
    parse_topology,
)
from smnsim.device_model import DeviceKind
from smnsim.event_pipeline import NormalizedEvent
from smnsim.messaging import FrameBuilder, MsgType, SimNetwork
from smnsim.node_runtime import HeartbeatConfig, SmnNode
from smnsim.session_correlation import CorrelationEngine
from smnsim.simulator import InvariantViolation, Simulation

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "demo"
DEMO_TOPOLOGY = DEMO / "topology.cfg"
GOLDEN = Path(__file__).resolve().parent / "golden"
REPORT_FILES = [
    "cases.txt",
    "deadletters.txt",
    "mirror.txt",
    "nodes.txt",
    "sessions.txt",
    "tree.txt",
]


GEN0 = GOLDEN / "gen0"
#: topology, scenario and golden report directory of each golden run
GOLDEN_RUNS = {
    **{
        name: (DEMO / "topology.cfg", DEMO / f"{name}.scn", GOLDEN / name)
        for name in ("attack", "central", "devices", "heartbeat", "respond", "windows")
    },
    # the benchmark's generated seed-0 tree of 91 nodes under the first 100
    # ticks of its attack load (see the head of gen0/attack.scn)
    "gen0": (GEN0 / "topology.cfg", GEN0 / "attack.scn", GEN0 / "attack"),
}


@pytest.mark.parametrize("debug", [False, True])
@pytest.mark.parametrize("scenario", list(GOLDEN_RUNS))
def test_demo_reports_match_golden(scenario, debug, tmp_path):
    topology, script, golden = GOLDEN_RUNS[scenario]
    argv = [
        "simulate",
        "--topology", str(topology),
        "--scenario", str(script),
        "--out", str(tmp_path),
    ]
    assert cli.main(argv + ["--debug"] if debug else argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == REPORT_FILES
    for name in REPORT_FILES:
        want = (golden / name).read_bytes()
        assert (tmp_path / name).read_bytes() == want, f"{scenario}/{name}"


def test_generated_load_matches_reference_loop():
    topology = load_topology(str(GEN0 / "topology.cfg"))
    files = ReferenceSimulation(
        topology, parse_scenario((GEN0 / "attack.scn").read_text())
    ).run().files()
    assert files == {name: (GEN0 / "attack" / name).read_text() for name in REPORT_FILES}


def test_an_alert_open_at_a_site_smn_reaches_the_sessions_report():
    """A site device's connect is never closed by a disconnect: the alert it
    opens at the site SMN is still open when the run ends, and is listed in
    ``sessions.txt``, not dropped."""
    topology = load_topology(str(DEMO / "topology.cfg"))
    text = (
        "drain = 40\n"
        "at 20 emit 1.1.1 class=fw.connect src=10.0.0.99:4444 dst=10.0.1.5:80 sev=1\n"
        "at 30 emit 1.1.2 class=sig.2001 src=10.0.0.99:4444 dst=10.0.1.5:80 sev=4\n"
    )
    report = Simulation(topology, parse_scenario(text)).run()
    assert report.files()["sessions.txt"] == (
        "SESSION 1.1.0#1 10.0.0.99:4444 10.0.1.5:80 20 open 1 [1.1.2-1]\n"
    )


def test_emitted_source_reaches_the_report_as_written():
    """Events stay objects from device to report, so a source with a quote in
    it is not cut at the quote, as the event line's attribute syntax cuts it."""
    odd = '10.0.0.99"x:4444'
    topology = load_topology(str(DEMO / "topology.cfg"))
    text = (DEMO / "attack.scn").read_text().replace("10.0.0.99:4444", odd)
    report = Simulation(topology, parse_scenario(text)).run()
    want = (GOLDEN / "attack" / "sessions.txt").read_text().replace("10.0.0.99:4444", odd)
    assert report.files()["sessions.txt"] == want


def test_a_flushed_emit_keeps_each_ip_with_its_own_port():
    """The ``emit`` directive waits in the device's buffer as it is, and the
    flush builds the ``NormalizedEvent`` from it positionally: the record
    must equal the keyword-built one, each IP with its own port."""
    topology = load_topology(str(DEMO / "topology.cfg"))
    text = "drain = 7\nat 23 emit 1.1.2 class=sig.7 src=10.0.0.7:1111 dst=10.0.0.8:2222 sev=4\n"
    sim = Simulation(topology, parse_scenario(text))
    ids = sim.agents[NodeAddress.parse("1.1.2", sim.shape)]
    sent = []
    send = sim.network.send
    sim.network.send = lambda frame: sent.append(frame) or send(frame)
    sim.run()
    assert ids.buffer == []
    assert [f.payload for f in sent if f.msg_type is MsgType.DEVICE_EVENT] == [(
        NormalizedEvent(
            event_id="1.1.2-1",
            analyzer_address=ids.address,
            analyzer_kind=DeviceKind.IDS,
            create_time=23,
            classification="unknown",
            src_ip="10.0.0.7",
            src_port=1111,
            dst_ip="10.0.0.8",
            dst_port=2222,
            severity=4,
        ),
    )]


def _hand_built(**fields) -> ScenarioScript:
    """A script the parser never saw: one emit, the defaults in range."""
    emit = dict(
        tick=3, line_no=1, device="1.1.2", native_class="sig.7", src_ip="10.0.0.7",
        src_port=1111, dst_ip="10.0.0.8", dst_port=2222, severity=4,
    )
    return ScenarioScript(drain=20, directives=[Emit(**{**emit, **fields})])


@pytest.mark.parametrize(
    "fields",
    [{"src_port": 70000}, {"dst_port": 70000}, {"src_port": -1}, {"severity": 9},
     {"severity": 0}],
)
def test_a_hand_built_emit_out_of_range_fails_the_run(fields, tmp_path):
    """The scenario parser bounds ports and ``sev``; an ``Emit`` built by hand
    is bounded when the run is set up, so it never reaches a flush or a
    report, even on a device whose filter would drop it."""
    topology = load_topology(str(DEMO / "topology.cfg"))
    with pytest.raises(ConfigError, match="line 1: emit .* out of range"):
        Simulation(topology, _hand_built(**fields)).run()
    with pytest.raises(ConfigError, match="out of range"):
        Simulation(topology, _hand_built(device="1.1.3", native_class="hm.heartbeat",
                                         **fields)).run()


def test_a_hand_built_emit_at_the_bounds_is_flushed():
    topology = load_topology(str(DEMO / "topology.cfg"))
    for fields in ({"src_port": 0, "dst_port": 65535, "severity": 1},
                   {"src_port": 65535, "dst_port": 0, "severity": 5}):
        sim = Simulation(topology, _hand_built(**fields))
        sim.run()
        ids = sim.agents[NodeAddress.parse("1.1.2", sim.shape)]
        assert (ids.buffer, ids.event_seq) == ([], 1)


@pytest.mark.parametrize("name", ["attack", "gen0"])
def test_a_hand_built_script_out_of_tick_order_runs_as_the_ordered_one(name):
    """Set-up files each emit on its device in stable tick order, so a
    hand-built script whose ticks are shuffled, the directives of each tick
    kept in their order, flushes as the parsed, time-ordered one: the same
    reports. The latest tick goes first, so the run's length must come from
    the latest directive, not the last one."""
    topology, script, golden = GOLDEN_RUNS[name]
    ordered = parse_scenario(script.read_text())
    by_tick = {}
    for d in ordered.directives:
        by_tick.setdefault(d.tick, []).append(d)
    ticks = list(by_tick)
    random.Random(name).shuffle(ticks)
    ticks.remove(ordered.last_tick)
    ticks.insert(0, ordered.last_tick)
    directives = [d for tick in ticks for d in by_tick[tick]]
    shuffled = ScenarioScript(ordered.seed, ordered.drain, directives)
    assert directives[-1].tick < ordered.last_tick
    files = Simulation(load_topology(str(topology)), shuffled).run().files()
    for report in REPORT_FILES:
        assert files[report].encode() == (golden / report).read_bytes(), report
    assert shuffled.last_tick == ordered.last_tick


def test_a_loss_window_draws_once_per_flush_and_drops_it_whole():
    """A flush is one frame, so a rate-0.5 window on the device's hop draws
    once for its three events: a draw below the rate drops all three with
    one dead letter, any other lets all three reach the parent."""
    text = DEMO_TOPOLOGY.read_text().replace("window_ticks = 10", "window_ticks = 7")
    topology = parse_topology(text, base_dir=str(DEMO))
    # flushed at 21, a tick on which 1.1.1 sends no heartbeat
    scenario = (
        "at 15 emit 1.1.1 class=fw.deny src=10.0.0.9:1 dst=10.0.1.5:80 sev=5\n"
        "at 16 emit 1.1.1 class=fw.deny src=10.0.0.9:1 dst=10.0.1.6:80 sev=5\n"
        "at 17 emit 1.1.1 class=fw.deny src=10.0.0.9:1 dst=10.0.1.7:80 sev=5\n"
        "at 21 inject-loss 1.1.1->1.1.0 until 22 rate=0.5\n"
    )
    for seed, lost in ((1, True), (0, False)):  # first draws 0.134 and 0.844
        sim = Simulation(topology, parse_scenario(f"seed = {seed}\ndrain = 10\n" + scenario))
        rng, draws = sim.network._rng, []
        draw = rng.random
        rng.random = lambda: draws.append(sim.network.now) or draw()
        files = sim.run().files()
        assert draws == [21]
        assert files["deadletters.txt"] == (
            "DEADLETTER 21 1.1.1->1.1.0 DEVICE_EVENT 1.1.1 1.1.0\n" if lost else ""
        )
        taken = [line for line in files["nodes.txt"].splitlines()
                 if line.startswith("NODE 1.1.0 22 STATE 1.1.1 T7 ")]
        assert len(taken) == (0 if lost else 3)


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


@pytest.mark.parametrize(
    "text, directive, message",
    [
        ("at 5 inject-loss 1.1.0->1.1.1 until 5", InjectLoss(5, 1, "1.1.0", "1.1.1", 5, 1.0),
         "until 5 is not after tick 5"),
        ("at 5 inject-loss 1.1.0->1.1.1 until 3", InjectLoss(5, 1, "1.1.0", "1.1.1", 3, 1.0),
         "until 3 is not after tick 5"),
        ("at 5 respond launch w1", Respond(5, 1, "launch", "w1"), "respond launch needs owner="),
    ],
)
def test_a_hand_built_directive_the_parser_refuses_is_refused_at_set_up(text, directive, message):
    """A loss window that does not end after its tick, which would cover one
    tick, and a launch without an owner, which would fail mid-run, are
    refused at set-up with the parser's message for their text."""
    topology = load_topology(str(DEMO / "topology.cfg"))
    with pytest.raises(ConfigError, match=f"line 1: {message}"):
        parse_scenario(text + "\n")
    with pytest.raises(ConfigError, match=f"line 1: {message}"):
        Simulation(topology, ScenarioScript(directives=[directive]))


def test_an_empty_enlist_target_is_refused_at_set_up():
    """``targets=1.2.0,`` names an empty address, which the parser passes on
    and set-up refuses, before the run could fail to parse it."""
    topology = load_topology(str(DEMO / "topology.cfg"))
    scenario = parse_scenario(
        "at 5 respond launch w1 owner=1.1.0\nat 6 respond enlist w1 targets=1.2.0,\n"
    )
    with pytest.raises(ConfigError, match="line 2: bad address ''"):
        Simulation(topology, scenario)


@pytest.mark.parametrize("loop", [Simulation, ReferenceSimulation])
def test_silenced_device_answers_no_command(loop):
    topology = load_topology(str(DEMO / "topology.cfg"))
    scenario = parse_scenario(
        "drain = 60\nat 10 silence 1.1.1 until 60\nat 12 command reboot 1.1.1\n"
    )
    lines = loop(topology, scenario).run().node_lines
    assert "NODE 1.0.0 12 COMMAND 1.0.0!1 reboot 1.1.1" in lines
    assert [l for l in lines if " ACK " in l and int(l.split()[2]) < 60] == []


@pytest.mark.parametrize("loop", [Simulation, ReferenceSimulation])
def test_silenced_device_completes_a_command_and_loses_its_ack(loop):
    """As a silenced management node does: the policy command reaches 1.1.1 at
    tick 12 and completes at 15, inside the silence, so no ack reaches the root,
    which names the command at the end of the run."""
    topology = load_topology(str(DEMO / "topology.cfg"))
    scenario = parse_scenario(
        "drain = 60\nat 10 command policy 1.1.1\nat 13 silence 1.1.1 until 40\n"
    )
    lines = loop(topology, scenario).run().node_lines
    assert [l for l in lines if " CMD " in l] == ["NODE 1.1.1 15 CMD 1.0.0!1 done"]
    assert [l for l in lines if " ACK " in l] == []
    assert lines[-1] == "NODE 1.0.0 73 UNACKED 1.0.0!1"


def test_no_engine_is_swept_twice_in_a_row_at_the_same_tick(monkeypatch):
    """An engine sweeps itself only to a tick past the one it last swept to,
    so no sweep repeats the one before it."""
    sweep = CorrelationEngine.sweep
    last: dict[CorrelationEngine, int] = {}
    repeats = []

    def spy(engine, now):
        if last.get(engine) == now:
            repeats.append((engine.owner, now))
        last[engine] = now
        return sweep(engine, now)

    monkeypatch.setattr(CorrelationEngine, "sweep", spy)
    topology = load_topology(str(DEMO / "topology.cfg"))
    Simulation(topology, parse_scenario((DEMO / "attack.scn").read_text())).run()
    assert last and repeats == []


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


def test_an_enlist_before_the_escalation_is_refused_by_the_owners_parent():
    """The owner's parent is the node an enlist acts at; it coordinates no
    case it was not escalated, so the enlist is logged as an error and the
    case stays as it was."""
    topology = load_topology(str(DEMO / "topology.cfg"))
    text = (DEMO / "respond.scn").read_text().split("at 92 ")[0]
    text += "at 92 respond enlist w1 targets=1.2.0\n"
    report = Simulation(topology, parse_scenario(text)).run()
    assert [l for l in report.node_lines if "RESPOND-ERROR" in l or "ENLIST" in l] == [
        "NODE 1.0.0 92 RESPOND-ERROR 1.0.0 does not coordinate 1.1.0#c1",
    ]
    assert report.case_lines == ["CASE 1.1.0#c1 90 1.1.0 launch:exploit"]


def test_a_discarded_simulation_leaves_no_cycle_to_collect():
    """Nothing a simulation holds refers back to it, the network's loss hook
    included, so dropping a set-up or a finished run frees it at once."""
    topology = load_topology(str(DEMO / "topology.cfg"))
    text = (DEMO / "respond.scn").read_text() + "at 150 inject-loss 1.1.0->1.0.0 until 170 rate=0.5\n"
    gc.collect()
    gc.disable()
    try:
        Simulation(topology, parse_scenario(text))
        assert gc.collect() == 0
        Simulation(topology, parse_scenario(text), debug=True).run()
        assert gc.collect() == 0
    finally:
        gc.enable()


HEARTBEATS = (MsgType.NETWORK_TEST, MsgType.DEVICE_STATE_PKG)


def _spy_heartbeat_sends(sim: Simulation) -> list[tuple[int, str, MsgType]]:
    """(tick, sender, type) of each heartbeat frame ``sim`` hands its network."""
    sent = []
    send = sim.network.send

    def spy(frame):
        if frame.msg_type in HEARTBEATS:
            sent.append((sim.network.now, str(frame.src), frame.msg_type))
        send(frame)

    sim.network.send = spy
    return sent


def test_every_node_shares_the_topology_heartbeat():
    """The ``[heartbeat]`` section is the run's one cadence: every node of a
    ``Simulation`` sends by that one object, and every parent starts its
    children's deadlines at its timeouts."""
    text = (DEMO / "topology.cfg").read_text().replace(
        "network_test_timeout = 30", "network_test_timeout = 45"
    )
    topology = parse_topology(text, base_dir=str(DEMO))
    assert topology.heartbeat == HeartbeatConfig(5, 8, 45, 20)
    sim = Simulation(topology, parse_scenario("drain = 0\n"))
    assert len(sim._nodes) == len(topology.nodes) == 9
    assert all(node.hb is topology.heartbeat for node in sim._nodes)
    records = [record for smn in sim.smns.values() for record in smn.children.values()]
    assert len(records) == 8
    assert {(r.net_deadline, r.pkg_deadline) for r in records} == {(45, 20)}


def test_an_idle_run_sends_only_the_tick_0_heartbeats():
    """At tick 0 every child is NET_DOWN at its parent, so its network test
    changes a state and goes as a frame, and its state package after it;
    later heartbeats change only a deadline and never become frames."""
    topology = load_topology(str(DEMO / "topology.cfg"))
    sim = Simulation(topology, parse_scenario("drain = 100\n"))
    sent = _spy_heartbeat_sends(sim)
    report = sim.run()
    children = sorted(str(a) for a in topology.nodes if a != sim.root.address)
    assert sorted(sent, key=lambda s: (s[1], s[2].value)) == [
        (0, child, msg_type) for child in children for msg_type in HEARTBEATS
    ]
    want = ReferenceSimulation(topology, parse_scenario("drain = 100\n")).run()
    assert report.files() == want.files()


def test_every_frame_built_goes_on_the_network(monkeypatch):
    """A frame is numbered only as it goes on the network, so the frames each
    sender sends of one type carry 1..n. On the generated tree left idle, and
    on the demo tree with a silenced management node, whose frames the
    harness drops unnumbered."""
    built, sent = [], []
    build, send = FrameBuilder.build, SimNetwork.send

    def spy_build(builder, frame):
        build(builder, frame)
        built.append(frame)

    def spy_send(network, frame):
        sent.append(frame)
        send(network, frame)

    monkeypatch.setattr(FrameBuilder, "build", spy_build)
    monkeypatch.setattr(SimNetwork, "send", spy_send)
    runs = [
        (GEN0 / "topology.cfg", "drain = 100\n"),
        (DEMO / "topology.cfg", "drain = 200\nat 40 silence 1.1.0 until 120\n"),
    ]
    for path, text in runs:
        built.clear()
        sent.clear()
        Simulation(load_topology(str(path)), parse_scenario(text)).run()
        assert sent and len(built) == len(sent)
        assert {id(frame) for frame in built} == {id(frame) for frame in sent}
        seqs = {}
        for frame in sent:
            seqs.setdefault((frame.src, frame.msg_type), []).append(frame.seq)
        assert all(got == list(range(1, len(got) + 1)) for got in seqs.values()), path


def test_a_heartbeat_crossing_a_loss_window_reaches_the_network():
    """Each heartbeat of 1.1.1 inside a rate-0.5 window on its uplink goes as
    a frame, so it takes its draw from the loss source, as before."""
    topology = load_topology(str(DEMO / "topology.cfg"))
    text = "drain = 80\nat 20 inject-loss 1.1.1->1.1.0 until 60 rate=0.5\n"
    sim = Simulation(topology, parse_scenario(text))
    sent = _spy_heartbeat_sends(sim)
    report = sim.run()
    in_window = [(t, m) for t, src, m in sent if src == "1.1.1" and 20 <= t < 60]
    assert in_window == [
        (t, m)
        for t in range(20, 60)
        for m, every in zip(HEARTBEATS, (5, 8))
        if t % every == 0
    ]
    assert sim.network.dropped > 0
    assert report.files() == ReferenceSimulation(topology, parse_scenario(text)).run().files()


def test_a_silenced_smn_offers_no_heartbeat_and_its_parent_renews_nothing():
    """While 1.1.0 is silenced it builds no heartbeat and offers its hook
    none, so the root's deadlines for it move only where they fall due;
    before and after the silence its heartbeats are offered."""
    topology = load_topology(str(DEMO / "topology.cfg"))
    text = "drain = 200\nat 40 silence 1.1.0 until 120\n"
    sim = Simulation(topology, parse_scenario(text))
    site = sim.smns[NodeAddress.parse("1.1.0", sim.shape)]
    record = sim.root.children[site.address]
    offers, built, deadlines = [], [], {}
    hear, on_tick, step = site.hear, site.on_tick, sim.network.step

    def spy_hear(msg_type, payload, now):
        offers.append(now)
        return hear(msg_type, payload, now)

    def spy_on_tick(now):
        frames = on_tick(now)
        built.extend(now for frame in frames if frame.msg_type in HEARTBEATS)
        return frames

    def spy_step():
        deadlines[sim.network.now] = (record.net_deadline, record.pkg_deadline)
        step()

    site.hear, site.on_tick, sim.network.step = spy_hear, spy_on_tick, spy_step
    report = sim.run()
    silent = range(40, 120)
    assert [t for t in offers if t in silent] == []
    assert [t for t in built if t in silent] == []
    assert min(offers) < 40 and max(offers) >= 120
    hb = topology.heartbeat
    timeouts = (hb.network_test_timeout, hb.state_pkg_timeout)
    for t in silent:
        for old, new, timeout in zip(deadlines[t - 1], deadlines[t], timeouts):
            assert new == old or (t >= old and new == t + timeout), t
    assert report.files() == ReferenceSimulation(topology, parse_scenario(text)).run().files()


def test_a_heartbeat_after_one_that_travels_travels_unoffered():
    """At tick 0 the parent's record of 1.1.1 is NET_DOWN, from which T1 has
    an arrow, so its network test travels. Its state package then travels
    too without being offered, although neither T3 nor T6 has an arrow from
    NET_DOWN: the network test, arriving first, makes the record UNREACHABLE,
    from which T3 has one."""
    topology = load_topology(str(DEMO / "topology.cfg"))
    sim = Simulation(topology, parse_scenario("drain = 0\n"))
    device = sim.agents[NodeAddress.parse("1.1.1", sim.shape)]
    record = sim.smns[device.parent].children[device.address]
    offers = []
    hear = device.hear

    def spy_hear(msg_type, payload, now):
        offers.append((now, msg_type))
        return hear(msg_type, payload, now)

    device.hear = spy_hear
    sent = _spy_heartbeat_sends(sim)
    sim.run()
    assert offers == [(0, MsgType.NETWORK_TEST)]
    assert [(t, m) for t, src, m in sent if src == "1.1.1"] == [(0, m) for m in HEARTBEATS]
    assert (record.net_deadline, record.pkg_deadline) == (
        topology.heartbeat.network_test_timeout,
        topology.heartbeat.state_pkg_timeout,
    )


def test_an_ended_loss_window_is_dropped():
    """A loss window is kept only while it can cover a hop: demo/devices.scn's
    window on 1.2.2's uplink is held at ticks 50-109 alone, the list is
    empty after the run, and the reports still match the golden."""
    topology, script, golden = GOLDEN_RUNS["devices"]
    sim = Simulation(load_topology(str(topology)), parse_scenario(script.read_text()))
    held = []
    step = sim.network.step

    def spy_step():
        if sim.network.loss_windows:
            held.append(sim.network.now)
        step()

    sim.network.step = spy_step
    files = sim.run().files()
    assert held == list(range(50, 110))
    assert sim.network.loss_windows == []
    for name in REPORT_FILES:
        assert files[name].encode() == (golden / name).read_bytes(), name


#: A command from the root to 1.1.1 at tick 12 is sent that tick, crosses
#: 1.1.0 at tick 13, on which no node of the demo tree runs, and lands at 14.
#: A loss window on its last hop ends at 13, so it does not drop it; a
#: silence window ends the only other directive.
QUIET_HOP = (
    "drain = 40\n"
    "at 5 inject-loss 1.1.0->1.1.1 until 13\n"
    "at 12 command policy 1.1.1\n"
    "at 30 silence 1.2.1 until 40\n"
)


def test_directives_are_applied_only_on_their_ticks():
    sim = Simulation(load_topology(str(DEMO_TOPOLOGY)), parse_scenario(QUIET_HOP))
    applied = []
    apply = sim._apply_directives
    sim._apply_directives = lambda tick, outbound: applied.append(tick) or apply(tick, outbound)
    sim.run()
    # the network, not the directive pass, drops the loss window at 13
    assert applied == [5, 12, 30]
    assert sim.network.loss_windows == []


def test_a_command_crossing_a_hop_on_a_quiet_tick_lands_as_the_window_ends():
    """On a tick no node runs, only the network moves: the command in
    transit still takes its hop, after the ended window is pruned."""
    topology = load_topology(str(DEMO_TOPOLOGY))
    sim = Simulation(topology, parse_scenario(QUIET_HOP), debug=True)
    ran = set()
    run_node = sim._run_node
    sim._run_node = lambda slot, tick, addressed: ran.add(tick) or run_node(slot, tick, addressed)
    files = sim.run().files()
    assert 13 not in ran and {12, 14} <= ran
    assert files["deadletters.txt"] == ""
    assert "NODE 1.0.0 12 COMMAND 1.0.0!1 policy 1.1.1\n" in files["nodes.txt"]
    assert "UNACKED" not in files["nodes.txt"]
    want = ReferenceSimulation(topology, parse_scenario(QUIET_HOP), debug=True).run()
    assert files == want.files()


def test_every_run_checks_the_event_accounting():
    topology = load_topology(str(DEMO / "topology.cfg"))
    sim = Simulation(topology, parse_scenario((DEMO / "attack.scn").read_text()))
    sim.root.events_dropped += 1
    with pytest.raises(InvariantViolation, match="1.0.0: .* events in, .* accounted"):
        sim.run()


def test_a_broken_event_count_exits_1(monkeypatch, tmp_path, capsys):
    init = SmnNode.__init__

    def miscounting(node, *args, **kwargs):
        init(node, *args, **kwargs)
        node.events_received = 1

    monkeypatch.setattr(SmnNode, "__init__", miscounting)
    argv = [
        "simulate",
        "--topology", str(DEMO / "topology.cfg"),
        "--scenario", str(DEMO / "heartbeat.scn"),
        "--out", str(tmp_path),
    ]
    assert cli.main(argv) == 1
    assert "invariant violation" in capsys.readouterr().err
