from pathlib import Path

import pytest

from smnsim import cli

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


def test_correlate_malformed_event_line(tmp_path, capsys):
    events = tmp_path / "bad.events"
    events.write_text(CONNECT + "\n<event id=\"x\"/>\n")
    argv = ["correlate", "--events", str(events), "--depth", "3", "--degree", "9"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: missing attributes") and len(err.splitlines()) == 1


def test_simulate_unknown_topology_key(tmp_path, capsys):
    topology = tmp_path / "topology.cfg"
    topology.write_text("[tree]\ndepth = 3\ndegree = 4\n\n[pipeline]\nbogus = 1\n")
    assert cli.main(simulate_argv(topology, tmp_path / "out")) == 2
    assert capsys.readouterr().err == "config error: unknown pipeline key 'bogus'\n"


def test_simulate_threaded_is_usage_error(tmp_path, capsys):
    argv = simulate_argv(DEMO / "topology.cfg", tmp_path / "out", "--threaded")
    assert cli.main(argv) == 2
    assert "unrecognized arguments: --threaded" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ignored_clustering_keys_are_named_and_change_nothing(tmp_path, capsys):
    text = (DEMO / "topology.cfg").read_text()
    text = text.replace(
        "validation_threshold = 5\n",
        "validation_threshold = 5\n"
        "similarity_weights = 0.25,0.25,0.15,0.25,0.10\n"
        "merge_threshold = 0.7\n"
        "time_horizon = 300\n",
    ).replace("dir = plans", f"dir = {DEMO / 'plans'}")
    topology = tmp_path / "topology.cfg"
    topology.write_text(text)
    out = tmp_path / "out"
    assert cli.main(simulate_argv(topology, out)) == 0
    err = capsys.readouterr().err
    assert err == (
        f"{topology}: ignored keys: similarity_weights, merge_threshold, time_horizon\n"
    )
    for golden in (GOLDEN / "attack").iterdir():
        assert (out / golden.name).read_bytes() == golden.read_bytes()


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
        ("at 5 command policy 1.0.0", "command target 1.0.0 is not below the root"),
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
