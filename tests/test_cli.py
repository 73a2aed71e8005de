import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smnsim import cli
from smnsim.addressing import MAX_DEPTH

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "demo"
GOLDEN = Path(__file__).resolve().parent / "golden"

CONNECT = (
    '<event id="1.1.1-1" analyzer="1.1.1" kind="Firewall" time="20" class="fw.connect" '
    'src="10.0.0.9" sport="4242" dst="10.0.1.5" dport="80" sev="1" count="1" '
    'conn="connect"/>'
)
HIT = (
    '<event id="1.1.2-1" analyzer="1.1.2" kind="IDS" time="25" class="exploit.attempt" '
    'src="10.0.0.9" sport="4242" dst="10.0.1.5" dport="80" sev="5" count="1" '
    'conn="none"/>'
)


def simulate_argv(topology, out, *extra):
    return [
        "simulate",
        "--topology", str(topology),
        "--scenario", str(DEMO / "attack.scn"),
        "--out", str(out),
        *extra,
    ]


def demo_topology_text(plans: Path = DEMO / "plans") -> str:
    return (DEMO / "topology.cfg").read_text().replace("dir = plans", f"dir = {plans}")


def test_tree_parse_and_serialize(capsys):
    path = DEMO / "tree12.txt"
    shape = ["--depth", "4", "--degree", "3"]
    assert cli.main(["tree", "serialize", str(path), *shape]) == 0
    assert capsys.readouterr().out == path.read_text().strip() + "\n"
    assert cli.main(["tree", "parse", str(path), *shape]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12
    assert lines[0] == "1.0.0.0 S211"
    assert all(line.endswith(" S211") for line in lines)


def _chain(depth: int) -> str:
    """The embedding text of a one-child-per-level chain ``depth`` deep."""
    addrs = [".".join(["1"] * k + ["0"] * (depth - k)) for k in range(1, depth + 1)]
    return ":".join(f"[{a}:S211" for a in addrs) + "]" * depth


def test_a_chain_as_deep_as_a_shape_may_be_parses_and_serializes(tmp_path, capsys):
    path = tmp_path / "chain.txt"
    path.write_text(_chain(MAX_DEPTH) + "\n")
    shape = ["--depth", str(MAX_DEPTH), "--degree", "1"]
    assert cli.main(["tree", "parse", str(path), *shape]) == 0
    assert len(capsys.readouterr().out.splitlines()) == MAX_DEPTH
    assert cli.main(["tree", "serialize", str(path), *shape]) == 0
    assert capsys.readouterr().out == path.read_text()


@pytest.mark.parametrize("cmd", ["parse", "serialize"])
def test_a_chain_deeper_than_a_shape_may_be_is_a_usage_error(cmd, tmp_path, capsys):
    """A valid 1,100-level chain once overflowed the stack of the recursive
    parser; now its shape is refused in one line."""
    path = tmp_path / "chain.txt"
    path.write_text(_chain(1100) + "\n")
    assert cli.main(["tree", cmd, str(path), "--depth", "1100", "--degree", "1"]) == 2
    want = f"usage error: depth must be <= {MAX_DEPTH}, got 1100\n"
    assert capsys.readouterr().err == want


def test_statemachine_trace(capsys):
    assert cli.main(["statemachine", "trace", "--conditions", "T1,T3,T7,T8"]) == 0
    assert capsys.readouterr().out == "S11 S12 S211 S22 S211\n"
    assert cli.main(["statemachine", "trace", "--conditions", "T1,T99"]) == 2
    assert capsys.readouterr().err == "unknown condition 'T99'\n"


def test_correlate_reports_open_session(tmp_path, capsys):
    events = tmp_path / "f.events"
    events.write_text(CONNECT + "\n" + HIT + "\n")
    argv = ["correlate", "--events", str(events), "--depth", "3", "--degree", "9"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == "SESSION cli#1 10.0.0.9:4242 10.0.1.5:80 20 open 1 [1.1.2-1]\n"


def test_correlate_two_connects_at_one_tick(tmp_path, capsys):
    """A doubled connect: the first session ends, and a later event inside
    its grace period binds the second connect to a session of its own."""
    connect2 = CONNECT.replace("1.1.1-1", "1.1.1-2").replace('"4242"', '"4243"')
    disconnect = (
        CONNECT.replace("1.1.1-1", "1.1.1-3").replace('"20"', '"30"')
        .replace("fw.connect", "fw.disconnect").replace('"connect"', '"disconnect"')
    )
    late = HIT.replace("1.1.2-1", "1.1.2-2").replace('"25"', '"35"')
    events = tmp_path / "f.events"
    events.write_text("\n".join([CONNECT, connect2, HIT, disconnect, late]) + "\n")
    argv = ["correlate", "--events", str(events), "--depth", "3", "--degree", "9"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (
        "SESSION cli#1 10.0.0.9:4243 10.0.1.5:80 20 30 1 [1.1.2-1]\n"
        "SESSION cli#2 10.0.0.9:4242 10.0.1.5:80 20 open 1 [1.1.2-2]\n"
    )


def test_correlate_malformed_event_line(tmp_path, capsys):
    events = tmp_path / "bad.events"
    events.write_text(CONNECT + "\n<event id=\"x\"/>\n")
    argv = ["correlate", "--events", str(events), "--depth", "3", "--degree", "9"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: missing attributes") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('sev="5"', 'sev="99"', "sev 99 outside 1..5"),
        ('sev="5"', 'sev="0"', "sev 0 outside 1..5"),
        ('time="25"', 'time="-9"', "time must be >= 0, got -9"),
    ],
)
def test_correlate_an_out_of_range_event_line_exits_1(old, new, message, tmp_path, capsys):
    events = tmp_path / "bad.events"
    events.write_text(CONNECT + "\n" + HIT.replace(old, new) + "\n")
    argv = ["correlate", "--events", str(events), "--depth", "3", "--degree", "9"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: bad event line") and err.endswith(f": {message}\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("[1.0.0:S211:[1.2.0:S211]", "expected ']' at position 24"),
        ("[1.0.0:S211:[2.1.0:S211]]", "2.1.0 is not a tree child of 1.0.0"),
        ("[1.0.0:S211:[1.1.0:S211]:[1.1.0:S211]]", "duplicate child 1.1.0 under 1.0.0"),
        ("[1.0.0:S9]", "unknown state code 'S9' at position 7"),
        ("[1.x.0:S211]",
         "bad address '1.x.0': segment 'x' in '1.x.0' is not a number at position 1"),
        ("[1.0.0:S211:[1.1.3:S211]]",
         "bad address '1.1.3': segment 3 is 3, allowed range 0..2 at position 13"),
    ],
)
def test_a_malformed_embedding_exits_1_in_one_line(text, message, tmp_path, capsys):
    path = tmp_path / "tree.txt"
    path.write_text(text + "\n")
    assert cli.main(["tree", "parse", str(path), "--depth", "3", "--degree", "2"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_correlate_event_from_a_bad_analyzer_address_exits_1(tmp_path, capsys):
    events = tmp_path / "bad.events"
    events.write_text(CONNECT.replace('analyzer="1.1.1"', 'analyzer="1.0.2.0"') + "\n")
    argv = ["correlate", "--events", str(events), "--depth", "4", "--degree", "9"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad event line") and err.count("\n") == 1
    assert err.endswith("non-zero segment 2 at position 3 after a zero\n")


def test_simulate_unknown_topology_key(tmp_path, capsys):
    topology = tmp_path / "topology.cfg"
    topology.write_text("[tree]\ndepth = 3\ndegree = 4\n\n[pipeline]\nbogus = 1\n")
    assert cli.main(simulate_argv(topology, tmp_path / "out")) == 2
    assert capsys.readouterr().err == "config error: line 6: unknown pipeline key 'bogus'\n"


def test_a_child_declared_under_a_device_is_a_config_error(tmp_path, capsys):
    """Only a management node has children: a topology whose site 1.2.0 is
    a firewall exits 2 before the run, naming its first child."""
    text = demo_topology_text()
    site = "[node 1.2.0]\n# site-b\nkind = SMN\n"
    assert text.count(site) == 1
    topology = tmp_path / "topology.cfg"
    topology.write_text(text.replace(site, "[node 1.2.0]\nkind = Firewall\n"))
    assert cli.main(simulate_argv(topology, tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        "config error: parent of 1.2.1 is not a management node\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags", [["--depth", "4"], ["--degree", "9"], ["--depth", "3", "--degree", "4"]]
)
def test_correlate_refuses_a_shape_beside_a_config(flags, tmp_path, capsys):
    """The topology of ``--config`` fixes the tree shape, so a shape flag
    beside it is a usage error, not silently ignored."""
    events = tmp_path / "f.events"
    events.write_text(CONNECT + "\n" + HIT + "\n")
    argv = ["correlate", "--events", str(events), "--config", str(DEMO / "topology.cfg")]
    assert cli.main(argv + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --depth and --degree cannot be given with --config\n"
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("SESSION cli#1 ")


def test_simulate_threaded_is_usage_error(tmp_path, capsys):
    argv = simulate_argv(DEMO / "topology.cfg", tmp_path / "out", "--threaded")
    assert cli.main(argv) == 2
    assert "unrecognized arguments: --threaded" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["tree", "parse", str(DEMO / "tree12.txt"), "--depth", "0", "--degree", "3"],
        ["tree", "serialize", str(DEMO / "tree12.txt"), "--depth", "4", "--degree", "0"],
        ["correlate", "--events", str(DEMO / "tree12.txt"), "--depth", "-1"],
    ],
)
def test_an_empty_tree_shape_is_a_usage_error(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("role", ["topology", "scenario", "plan", "tree", "events", "config"])
def test_a_file_that_is_not_utf8_exits_2(role, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(b"# caf\xe9\n")
    topology = tmp_path / "topology.cfg"
    topology.write_text(demo_topology_text(tmp_path))
    argv = {
        "topology": simulate_argv(bad, tmp_path / "out"),
        "scenario": ["simulate", "--topology", str(topology), "--scenario", str(bad),
                     "--out", str(tmp_path / "out")],
        "plan": simulate_argv(topology, tmp_path / "out"),
        "tree": ["tree", "parse", str(bad), "--depth", "4", "--degree", "3"],
        "events": ["correlate", "--events", str(bad)],
        "config": ["correlate", "--events", str(bad), "--config", str(bad)],
    }[role]
    if role == "plan":
        (tmp_path / "x.plan").write_bytes(b"== identification ==\n\xff\n")
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input is not UTF-8 text: ") and err.count("\n") == 1


def test_a_malformed_counterplan_exits_1(tmp_path, capsys):
    """Plan files are read when the run is set up; a bad one is bad input."""
    (tmp_path / "dos.plan").write_text("== identification ==\nlook\n== bogus ==\n")
    topology = tmp_path / "topology.cfg"
    topology.write_text(demo_topology_text(tmp_path))
    assert cli.main(simulate_argv(topology, tmp_path / "out")) == 1
    assert capsys.readouterr().err == "error: unknown section 'bogus' in plan dos\n"


def test_ignored_clustering_keys_are_named_and_change_nothing(tmp_path, capsys):
    text = demo_topology_text().replace(
        "validation_threshold = 5\n",
        "validation_threshold = 5\n"
        "similarity_weights = 0.25,0.25,0.15,0.25,0.10\n"
        "merge_threshold = 0.7\n"
        "time_horizon = 300\n",
    )
    for role in ("hq", "site-a"):
        text = text.replace(f"# {role}\n", f"label = {role}\n")
    topology = tmp_path / "topology.cfg"
    topology.write_text(text)
    out = tmp_path / "out"
    assert cli.main(simulate_argv(topology, out)) == 0
    err = capsys.readouterr().err
    assert err == (
        f"{topology}: ignored keys: similarity_weights, merge_threshold, time_horizon, label\n"
    )
    for golden in (GOLDEN / "attack").iterdir():
        assert (out / golden.name).read_bytes() == golden.read_bytes()


def _simulate_windows(scenario: Path, out: Path, *extra: str) -> dict[str, bytes]:
    argv = [
        "simulate",
        "--topology", str(DEMO / "topology.cfg"),
        "--scenario", str(scenario),
        "--out", str(out),
        *extra,
    ]
    assert cli.main(argv) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_simulate_seed_overrides_the_scenario_seed(tmp_path):
    """``--seed`` replaces the scenario's ``seed``, the source of the loss
    windows' draws: ``windows.scn`` declares seed 11, and its two rate-0.5
    windows drop other frames under seed 12."""
    golden = {p.name: p.read_bytes() for p in (GOLDEN / "windows").iterdir()}
    scenario = DEMO / "windows.scn"
    assert _simulate_windows(scenario, tmp_path / "s11", "--seed", "11") == golden
    reseeded = _simulate_windows(scenario, tmp_path / "s12", "--seed", "12")
    assert reseeded != golden
    assert len(golden["nodes.txt"].splitlines()) == 41
    assert len(reseeded["nodes.txt"].splitlines()) == 43
    copy = tmp_path / "windows12.scn"
    copy.write_text(scenario.read_text().replace("seed = 11\n", "seed = 12\n"))
    assert "seed = 12\n" in copy.read_text()
    assert _simulate_windows(copy, tmp_path / "copy12") == reseeded


def test_simulate_non_integer_pipeline_value(tmp_path, capsys):
    text = (DEMO / "topology.cfg").read_text().replace("grace = 60", "grace = sixty")
    topology = tmp_path / "topology.cfg"
    topology.write_text(text)
    assert cli.main(simulate_argv(topology, tmp_path / "out")) == 2
    assert capsys.readouterr().err == "config error: line 18: not an integer: 'sixty'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "directive, message",
    [
        ("at 5 silence 1.1.1 until soon", "until is not a number: 'soon'"),
        ("at 5 inject-loss 1.1.0->1.0.0 until 9 rate=half", "rate is not a number: 'half'"),
        (
            "at 5 emit 1.1.1 class=fw.deny src=1.2.3.4:99999 dst=10.0.1.5:80",
            "src port 99999 outside 0..65535",
        ),
        ("at 5 emit 1.1.1 class=fw.deny src=1.2.3.4:1 dst=10.0.1.5:80 sev=high",
         "sev is not a number: 'high'"),
        ("at 5 emit 1.1.1 class=fw.deny src=1.2.3.4:1 dst=10.0.1.5:80 sev=9",
         "sev 9 outside 1..5"),
        ("at 5 emit 1.1.1 class=fw.deny src=1.2.3.4:1 dst=10.0.1.5:80 detail=x",
         "unknown emit field 'detail'"),
        ("at -5 emit 1.1.1 class=fw.deny src=1.2.3.4:1 dst=10.0.1.5:80 sev=1",
         "tick must be >= 0, got -5"),
        ("drain = 20", "key 'drain' given twice"),
        ("at 5 command policy 1.0.0", "command target 1.0.0 is not below the root"),
        ("at 5 silence 1.1.1 until 5", "until 5 is not after tick 5"),
        ("at 5 abnormal 1.1.1 until 2", "until 2 is not after tick 5"),
        ("at 5 inject-loss 1.1.0->1.0.0 until 4", "until 4 is not after tick 5"),
        ("at 5 inject-loss 1.1.0->1.0.0 until 9 rate=7", "rate 7 outside (0, 1]"),
        ("at 5 inject-loss 1.1.0->1.0.0 until 9 rate=0", "rate 0 outside (0, 1]"),
        ("at 5 inject-loss 1.0.0->1.0.0 until 9", "inject-loss 1.0.0->1.0.0 is not a tree link"),
        ("at 5 inject-loss 1.1.1->1.2.0 until 9", "inject-loss 1.1.1->1.2.0 is not a tree link"),
        ("at 5 respond dance w1", "unknown respond action 'dance'"),
        ("at 5 respond launch w1 owner=1.1.0 ownr=1.1.0",
         "unknown respond launch field 'ownr'"),
        ("at 5 respond launch w1 owner=1.1.1", "respond owner 1.1.1 is not a management node"),
        ("at 5 respond advance w1 actor=1.2.1", "respond actor 1.2.1 is not a management node"),
        ("at 5 respond advance w1 actor=1.1.0 note=done", "unknown respond advance field 'note'"),
        ("at 5 respond enlist w1", "respond enlist needs targets="),
        ("at 5 respond enlist w1 targets=1.2.0,1.3.0", "unknown node 1.3.0"),
        ("at 5 respond enlist w1 targets=1.2.0,1.2.1",
         "respond target 1.2.1 is not a management node"),
        ("at 5 respond escalate w1", "no earlier respond launch binds 'w1'"),
    ],
)
def test_simulate_bad_directive_value_fails_before_the_run(directive, message, tmp_path, capsys):
    scenario = tmp_path / "bad.scn"
    scenario.write_text("drain = 10\nat 1 silence 1.1.2 until 3\n" + directive + "\n")
    argv = simulate_argv(DEMO / "topology.cfg", tmp_path / "out")
    argv[argv.index("--scenario") + 1] = str(scenario)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"config error: line 3: {message}\n"
    assert not (tmp_path / "out").exists()


EMITS_AT_5_AND_20 = (
    "at 5 emit 1.1.1 class=fw.connect src=10.0.0.9:4242 dst=10.0.1.5:80 sev=1\n"
    "at 20 emit 1.1.1 class=fw.disconnect src=10.0.0.9:4242 dst=10.0.1.5:80 sev=1\n"
)


@pytest.mark.parametrize(
    "head, line, message",
    [
        ("drain = -15\n", 1, "drain must be >= 0, got -15"),
        ("drain = -50\n", 1, "drain must be >= 0, got -50"),
        ("seed = 1\nseed = 2\n", 2, "key 'seed' given twice"),
        ("seed = 1\ndrain = 30\n\ndrain = 40\n", 4, "key 'drain' given twice"),
    ],
)
def test_simulate_bad_scenario_key_fails_before_the_run(head, line, message, tmp_path, capsys):
    scenario = tmp_path / "bad.scn"
    scenario.write_text(head + EMITS_AT_5_AND_20)
    argv = simulate_argv(DEMO / "topology.cfg", tmp_path / "out")
    argv[argv.index("--scenario") + 1] = str(scenario)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"config error: line {line}: {message}\n"
    assert not (tmp_path / "out").exists()


# A key inside a [node] section is reported at the section's line.
@pytest.mark.parametrize(
    "old, new, line, message",
    [
        ("asset_value = 4", "asset_value = 9", 39, "asset_value must be 1..5, got 9"),
        ("ip = 10.0.2.3", "asset_value = 0", 57, "asset_value must be 1..5, got 0"),
        ("network_test_interval = 5", "network_test_interval = 0", 9,
         "network_test_interval must be >= 1, got 0"),
        ("window_ticks = 10", "window_ticks = 0", 16, "window_ticks must be >= 1, got 0"),
        ("report_interval = 50", "report_interval = 0", 20,
         "report_interval must be >= 1, got 0"),
        ("validation_threshold = 5", "validation_threshold = -1", 15,
         "validation_threshold must be >= 0, got -1"),
        ("depth = 3", "depth = 0", 5, "depth must be >= 1, got 0"),
        ("depth = 3", "depth = 65", 5, "depth must be <= 64, got 65"),
        # keys the simulator does not know name their own line
        ("asset_value = 4", "asset_vlaue = 4", 42, "unknown node key 'asset_vlaue'"),
        # a run has one cadence, the [heartbeat] section's
        ("asset_value = 4", "asset_value = 4\nnetwork_test_interval = 7", 43,
         "unknown node key 'network_test_interval'"),
        ("[classify]\n", "[classify]\nstrict = true\n", 65,
         "expected '<Kind> <native> = <class>'"),
        # so does the second of two values for one key
        ("depth = 3", "depth = 3\ndepth = 4", 6, "key 'depth' given twice in [tree]"),
        ("state_pkg_timeout = 20", "state_pkg_timeout = 20\nstate_pkg_timeout = 21", 13,
         "key 'state_pkg_timeout' given twice in [heartbeat]"),
        ("grace = 60", "grace = 60\ngrace = 61", 19, "key 'grace' given twice in [pipeline]"),
        ("ip = 10.0.1.5", "ip = 10.0.1.5\nip = 10.0.1.6", 42,
         "key 'ip' given twice in [node 1.1.3]"),
        ("command_delay = 3", "command_delay = 3\n[pipeline]\ngrace = 61", 23,
         "key 'grace' given twice in [pipeline]"),
        ("[counterplans]", "[assets]\n10.0.0.1 = 2\n10.0.0.1 = 5\n[counterplans]", 74,
         "key '10.0.0.1' given twice in [assets]"),
        ("[counterplans]", "[assets]\n10.0.0.1 = 2\n[assets]\n10.0.0.1 = 5\n[counterplans]", 75,
         "key '10.0.0.1' given twice in [assets]"),
        ("exploit.attempt = CVE-2014-7", "exploit.attempt = CVE-2014-7\nexploit.attempt = CVE-1",
         71, "key 'exploit.attempt' given twice in [vulnmap]"),
        # [classify] compares the (kind, native) pair, not the text
        ("Firewall fw.deny = access.denied",
         "Firewall fw.deny = access.denied\nFirewall  fw.deny = access.other", 68,
         "key 'Firewall  fw.deny' given twice in [classify]"),
    ],
)
def test_simulate_bad_topology_value_names_its_line(old, new, line, message, tmp_path, capsys):
    text = demo_topology_text()
    assert text.count(old) == 1
    topology = tmp_path / "topology.cfg"
    topology.write_text(text.replace(old, new))
    assert cli.main(simulate_argv(topology, tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"config error: line {line}: {message}\n"
    assert not (tmp_path / "out").exists()


FUZZ_SCENARIO = """\
seed = 3
drain = 20
at 2 emit 1.1.1 class=fw.connect src=10.0.0.9:4242 dst=10.0.1.5:80 sev=1
at 4 emit 1.1.2 class=sig.2001 src=10.0.0.9:4242 dst=10.0.1.5:80 sev=5
at 5 silence 1.2.1 until 12
at 6 abnormal 1.1.3 until 15
at 7 command policy 1.2.1
at 8 inject-loss 1.2.2->1.2.0 until 14 rate=0.5
at 16 respond launch w1 owner=1.1.0
at 17 respond escalate w1
"""
VALUE = re.compile(r"[\w.]+")
#: ticks and the drain set how long a run lasts, so they stay at most 20
RUN_LENGTH = re.compile(r"^(?:at |drain = )([\w.]+)", re.M)
TOKENS = st.text(
    st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")), min_size=1, max_size=8
)


def _short(token: str) -> bool:
    try:
        return int(token) <= 20
    except ValueError:
        return True


def replace_one_value(text: str, data) -> str:
    spans = [m.span() for m in VALUE.finditer(text)]
    start, end = data.draw(st.sampled_from(spans))
    if (start, end) in {m.span(1) for m in RUN_LENGTH.finditer(text)}:
        value = st.one_of(st.integers(-5, 20).map(str), TOKENS.filter(_short))
    else:
        # values near zero are where most bounds sit
        value = st.one_of(st.integers(-2, 2).map(str), st.integers().map(str), TOKENS)
    return text[:start] + data.draw(value) + text[end:]


def run_simulate(topology_text: str, scenario_text: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        topology, scenario = Path(tmp, "t.cfg"), Path(tmp, "s.scn")
        topology.write_text(topology_text, encoding="utf-8")
        scenario.write_text(scenario_text, encoding="utf-8")
        return cli.main([
            "simulate", "--topology", str(topology), "--scenario", str(scenario),
            "--out", str(Path(tmp, "out")),
        ])


def test_fuzz_inputs_run_as_given():
    assert run_simulate(demo_topology_text(), FUZZ_SCENARIO) == 0


@given(st.data())
@settings(max_examples=300)
def test_fuzz_one_value_exits_cleanly(data):
    """One value of the topology or of the scenario replaced by an arbitrary
    integer or token: the run exits 0, 1 or 2, never with a traceback."""
    topology, scenario = demo_topology_text(), FUZZ_SCENARIO
    if data.draw(st.booleans()):
        topology = replace_one_value(topology, data)
    else:
        scenario = replace_one_value(scenario, data)
    assert run_simulate(topology, scenario) in (0, 1, 2)
