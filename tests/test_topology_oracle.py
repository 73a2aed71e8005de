"""The topology parser against its oracle, the parser it replaced
(``oracle_topology``): on every input, equal configurations, or
``ConfigError``s with the same message and line. Any other exception from
either parser fails the test."""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings

import oracle_topology
from smnsim.config import ConfigError, TopologyConfig, parse_topology
from test_parser_fuzz import mutated

ROOT = Path(__file__).resolve().parent.parent
TOPOLOGY_FILES = sorted(
    [*(ROOT / "demo").rglob("*.cfg"), *(ROOT / "tests" / "golden").rglob("*.cfg")]
)
DEMO_TEXT = (ROOT / "demo" / "topology.cfg").read_text()
GEN0_TEXT = (ROOT / "tests" / "golden" / "gen0" / "topology.cfg").read_text()


_spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
GEN = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(GEN)


def _orders(config: TopologyConfig) -> tuple:
    """The iteration orders ``==`` on the configuration does not compare."""
    return (
        list(config.nodes),
        list(config.assets.records),
        list(config.assets.class_vulns),
        list(config.mapping.rules),
    )


def _outcome(parse, text: str):
    try:
        config = parse(text, base_dir="base")
    except ConfigError as exc:
        return str(exc)
    return config, _orders(config)


def assert_agrees(text: str) -> None:
    assert _outcome(parse_topology, text) == _outcome(oracle_topology.parse_topology, text)


def test_inputs_exist():
    assert len(TOPOLOGY_FILES) >= 2


@pytest.mark.parametrize("path", TOPOLOGY_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_topology_files(path):
    text = path.read_text()
    assert isinstance(_outcome(parse_topology, text)[0], TopologyConfig)
    assert_agrees(text)


@pytest.mark.parametrize("seed", range(10))
def test_generated_topologies(seed):
    assert_agrees(GEN.topology(seed))


@given(mutated(DEMO_TEXT, GEN0_TEXT))
@settings(max_examples=600)
def test_mutated_topologies(text):
    assert_agrees(text)


TREE = "[tree]\ndepth = 3\ndegree = 4\n"
ROOT_NODE = "[node 1.0.0]\nkind = SMN\n"
SITE = "[node 1.1.0]\nkind = SMN\n"


EDGE_CASES = [
    # a repeated [node X] section: the key it repeats, wherever it is
    TREE + ROOT_NODE + SITE + SITE,
    TREE + ROOT_NODE + SITE + "[node 1.2.0]\nkind = SMN\n" + SITE,
    TREE + ROOT_NODE + "[node 1.1.0]\nip = 10.0.0.1\n" + SITE,
    TREE + ROOT_NODE + SITE + "[node 1.1.0]\nip = 10.0.0.1\n",
    TREE + ROOT_NODE + "[node 1.1.0]\n" + SITE,
    TREE + ROOT_NODE + SITE + "[node  1.1.0]\nkind = SMN\n",
    TREE + ROOT_NODE + SITE + "[node 1.1.0]\nip = 10.0.0.1\n[node 1.1.0]\nip = 10.0.0.2\n",
    # a repeated label, in one section and in a repeated one
    TREE + "[node 1.0.0]\nkind = SMN\nlabel = hq\nlabel = hq\n",
    TREE + "[node 1.0.0]\nlabel = hq\nkind = SMN\n[node 1.0.0]\nlabel = x\n",
    TREE + "[node 1.0.0]\nkind = SMN\nlabel = hq\n[node 1.1.0]\nkind = SMN\nlabel = a\n",
    # repeated keys in the sections that take each key once
    TREE + "depth = 3\n" + ROOT_NODE,
    TREE + "[heartbeat]\nstate_pkg_interval = 8\nstate_pkg_interval = 9\n" + ROOT_NODE,
    TREE + "[pipeline]\ngrace = 1\n[pipeline]\ngrace = 2\n" + ROOT_NODE,
    TREE + "[pipeline]\nmerge_threshold = 1\nmerge_threshold = 2\n" + ROOT_NODE,
    TREE + ROOT_NODE + "[assets]\n10.0.0.1 = 3\n10.0.0.1 = 4\n",
    TREE + ROOT_NODE + "[assets]\n10.0.0.1 = 3\n[assets]\n10.0.0.1 = 4\n",
    TREE + ROOT_NODE + "[vulnmap]\na = CVE-1\na = CVE-2\n",
    TREE + ROOT_NODE + "[classify]\nIDS x = a\nIDS  x = b\n",
    # a key that looks like a header
    TREE + "[x] = 3\n" + ROOT_NODE,
    TREE + ROOT_NODE + "[x] = 3\n",
    TREE + ROOT_NODE + "[assets]\n[x] = 3\n",
    "[x] = 3\n" + TREE + ROOT_NODE,
    # values that hold '=' or '#'
    TREE + ROOT_NODE + "[filter]\ndrop = kind=IDS class=sig.2001 src=10.0.0.9\n",
    TREE + ROOT_NODE + "[filter]\ndrop = kind=IDS class=a=b\n",
    TREE + ROOT_NODE + "[filter]\ndrop = kind=IDS=x\n",
    TREE + ROOT_NODE + "[classify]\nIDS sig.1 = a=b\n",
    TREE + "[node 1.0.0]\nkind = SMN\nip = 10.0.0.1 # hq\n",
    TREE + "[node 1.0.0]\nkind = SMN # root\nip = 10.0#0.1\n",
    TREE + ROOT_NODE + "[assets]\n10.0.0.1 = 3 CVE-1,#CVE-2\n",
    TREE + ROOT_NODE + "[vulnmap]\na#b = CVE-1\n",
    TREE + "[node 1.0.0]#c\nkind = SMN\n",
    TREE + "# [node 1.0.0]\n" + ROOT_NODE,
    # headers with spaces inside their brackets
    "[ tree ]\ndepth = 3\ndegree = 4\n[ node 1.0.0 ]\nkind = SMN\n",
    TREE + "[node   1.0.0 ]\nkind = SMN\n[ assets ]\n10.0.0.1 = 2\n",
    TREE + "[ node ]\nkind = SMN\n",
    TREE + "[node]\nkind = SMN\n",
    TREE + "[node\t1.0.0]\nkind = SMN\n",
    TREE + "[]\nkind = SMN\n",
    TREE + "[ ]\n" + ROOT_NODE,
    # values at and past their bounds
    TREE + ROOT_NODE + "[assets]\n10.0.0.1 =\n",
    TREE + ROOT_NODE + "[assets]\n10.0.0.1 = 6\n",
    TREE + ROOT_NODE + "[assets]\n10.0.0.1 = 5  CVE-1 , CVE-2,,\n",
    TREE + "[node 1.0.0]\nkind = SMN\nasset_value = 0\n",
    TREE + "[node 1.0.0]\nkind = SMN\nip = 10.0.0.1\nasset_value =\n",
    TREE + "[node 1.0.0]\nkind = SMN\nvulnerabilities = ,\n",
    TREE + "[node 1.0.0]\nkind = SMN\nnetwork_test_timeout = 5\n",
    TREE + "[heartbeat]\nnetwork_test_timeout = 5\n" + ROOT_NODE,
    TREE + "[heartbeat]\nnetwork_test_timeout = 5\n[node 1.0.0]\nkind = X\n",
    TREE + "[heartbeat]\nnetwork_test_timeout = 5\n"
    "[node 1.0.0]\nkind = SMN\nnetwork_test_timeout = 31\n[node 1.1.0]\nkind = SMN\n",
    TREE + "[heartbeat]\nstate_pkg_timeout = 40\n"
    "[node 1.0.0]\nkind = SMN\nstate_pkg_interval = 9\n[node 1.1.0]\nkind = SMN\n",
    # lines that are no key and no header
    TREE + ROOT_NODE + "kind SMN\n",
    TREE + ROOT_NODE + "[node 1.1.0\n",
    TREE + ROOT_NODE + "=\n",
    "depth = 3\n",
    "",
]


@pytest.mark.parametrize("text", EDGE_CASES, ids=[f"edge{i}" for i in range(len(EDGE_CASES))])
def test_edge_cases(text):
    assert_agrees(text)


def test_nodes_share_the_default_heartbeat():
    config = parse_topology(GEN0_TEXT)
    assert len({id(decl.hb) for decl in config.nodes.values()}) == 1
