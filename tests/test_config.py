import pytest

from smnsim.config import (
    Command,
    ConfigError,
    Emit,
    InjectLoss,
    Respond,
    Window,
    parse_scenario,
    parse_topology,
)


def test_parse_scenario_types_each_directive():
    script = parse_scenario(
        "at 2 emit 1.1.1 class=fw.connect src=10.0.0.9:4242 dst=10.0.1.5 sev=3\n"
        "at 3 abnormal 1.1.3 until 15\n"
        "at 4 command policy 1.2.1\n"
        "at 5 respond launch w1 owner=1.1.0\n"
        "at 6 respond enlist w1 targets=1.2.0,1.1.0\n"
        "at 7 inject-loss 1.2.2->1.2.0 until 14\n"
    )
    assert script.directives == [
        Emit(2, 1, "1.1.1", "fw.connect", "10.0.0.9", 4242, "10.0.1.5", 0, 3),
        Window(3, 2, "1.1.3", 15, abnormal=True),
        Command(4, 3, "policy", "1.2.1"),
        Respond(5, 4, "launch", "w1", owner="1.1.0"),
        Respond(6, 5, "enlist", "w1", targets=("1.2.0", "1.1.0")),
        InjectLoss(7, 6, "1.2.2", "1.2.0", 14, 1.0),
    ]


@pytest.mark.parametrize(
    "directive, message",
    [
        ("at 5 emit 1.1.1 class=fw.deny src=1.2.3.4:1 dst=10.0.1.5:80 sev=9",
         "sev 9 outside 1..5"),
        ("at 5 silence 1.1.1 until 5", "until 5 is not after tick 5"),
        ("at 5 abnormal 1.1.1 until 2", "until 2 is not after tick 5"),
        ("at 5 inject-loss 1.1.0->1.0.0 until 9 rate=7", "rate 7 outside (0, 1]"),
        # canonical emit spellings with a value out of range
        ("at 5 emit 1.1.1 class=fw.deny src=1.2.3.4:65536 dst=10.0.1.5:80 sev=1",
         "src port 65536 outside 0..65535"),
        ("at 5 emit 1.1.1 class=fw.deny src=1.2.3.4:1 dst=10.0.1.5:65536 sev=1",
         "dst port 65536 outside 0..65535"),
        ("at 5 emit 1.1.1 class=fw.deny src=1.2.3.4:1 dst=10.0.1.5:80 sev=6",
         "sev 6 outside 1..5"),
    ],
)
def test_parse_scenario_bounds_values_without_a_topology(directive, message):
    with pytest.raises(ConfigError) as raised:
        parse_scenario("drain = 10\nat 1 silence 1.1.2 until 3\n" + directive + "\n")
    assert str(raised.value) == f"line 3: {message}"


CANONICAL = "at 5 emit 1.1.1 class=fw.deny src=1.2.3.4:1 dst=10.0.1.5:80 sev=2"


@pytest.mark.parametrize(
    "line",
    [
        CANONICAL,
        CANONICAL + "  # a trailing comment",
        "at 5 emit 1.1.1 sev=2 class=fw.deny src=1.2.3.4:1 dst=10.0.1.5:80",
    ],
)
def test_an_emit_spelling_gives_the_canonical_directive(line):
    assert parse_scenario(line + "\n").directives == [
        Emit(5, 1, "1.1.1", "fw.deny", "1.2.3.4", 1, "10.0.1.5", 80, 2)
    ]


def test_filter_drop_repeats():
    topology = parse_topology(
        "[tree]\ndepth = 2\ndegree = 2\n[node 1.0]\nkind = SMN\n"
        "[filter]\ndrop = class=a\ndrop = class=b\n"
    )
    assert [rule.native_class for rule in topology.filter_rules] == ["a", "b"]
