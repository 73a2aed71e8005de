"""Arbitrary text into each input parser: only the parser's own error type
may escape, never a ValueError, KeyError, IndexError or RecursionError from
inside it."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smnsim.addressing import TreeShape
from smnsim.config import ConfigError, parse_scenario, parse_topology
from smnsim.device_tree import AddressInconsistent, TreeError, build_tree
from smnsim.event_pipeline import EventLineError, parse_event_line

DEMO = Path(__file__).resolve().parent.parent / "demo"
SHAPE = TreeShape(depth=4, max_degree=3)

EVENT_LINE = (
    '<event id="1.1.2-1" analyzer="1.1.2" kind="IDS" time="25" class="exploit.attempt" '
    'src="10.0.0.9" sport="4242" dst="10.0.1.5" dport="80" sev="5" count="1" '
    'conn="none"/>'
)

# Characters the formats are made of, so that mutations stay near the grammar.
SYNTAX = st.text(
    alphabet=st.sampled_from(list("[]:.=<>/\"'&;#-_ \n\t0123456789SNTabcdefgkmnorstvx\x00é")),
    max_size=12,
)


def mutated(*samples: str):
    """One of the valid ``samples`` with one span replaced by a few format
    characters, or arbitrary text."""

    @st.composite
    def draw(draw_):
        if draw_(st.booleans()):
            return draw_(st.text(max_size=60))
        valid = draw_(st.sampled_from(samples))
        start = draw_(st.integers(0, len(valid)))
        end = draw_(st.integers(start, min(len(valid), start + 20)))
        return valid[:start] + draw_(SYNTAX) + valid[end:]

    return draw()


@given(mutated((DEMO / "tree12.txt").read_text().strip()))
@settings(max_examples=400)
def test_build_tree_raises_only_tree_errors(text):
    try:
        tree = build_tree(text, SHAPE)
    except TreeError:
        return
    tree.validate()
    assert build_tree(tree.serialize(), SHAPE).serialize() == tree.serialize()


def test_deep_nesting_is_rejected_before_it_recurses():
    text = "[1.0.0.0:S1:" * 5000 + "]" * 5000
    with pytest.raises(AddressInconsistent):
        build_tree(text, SHAPE)


@given(mutated(EVENT_LINE))
@settings(max_examples=400)
def test_parse_event_line_raises_only_event_line_errors(text):
    try:
        parse_event_line(text, SHAPE)
    except EventLineError:
        pass


@given(mutated((DEMO / "topology.cfg").read_text()))
@settings(max_examples=400)
def test_parse_topology_raises_only_config_errors(text):
    try:
        parse_topology(text)
    except ConfigError:
        pass


@given(mutated(*((DEMO / name).read_text() for name in ("respond.scn", "devices.scn"))))
@settings(max_examples=400)
def test_parse_scenario_raises_only_config_errors(text):
    try:
        parse_scenario(text)
    except ConfigError:
        pass
