"""Arbitrary text into each input parser: only the parser's own error type
may escape, never a ValueError, KeyError, IndexError or RecursionError from
inside it. Emit lines near the canonical spelling must read the same through
the scenario parser's one-match path as through its general parser, and
event lines near theirs the same through ``parse_event_line`` as through
its general parser."""

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smnsim.addressing import TreeShape
from smnsim.config import (
    _CANONICAL_EMIT,
    ConfigError,
    _int,
    _parse_directive,
    parse_scenario,
    parse_topology,
)
from smnsim.device_tree import TreeError, build_tree
from smnsim.event_pipeline import (
    _CANONICAL_EVENT,
    EventLineError,
    _parse_event_attrs,
    format_event_line,
    parse_event_line,
)

DEMO = Path(__file__).resolve().parent.parent / "demo"
GEN0_ATTACK = Path(__file__).resolve().parent / "golden" / "gen0" / "attack.scn"
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
    with pytest.raises(TreeError, match="1.0.0.0 is not a tree child of 1.0.0.0"):
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


# -- canonical emit lines against the general parser --------------------------

#: Each emit line follows this one, so that it is read on line 2. The parser
#: only reads: set-up checks the order of ticks and the bounds of values.
BEFORE = "at 10 silence 1.1.2 until 12\n"


def general(line: str):
    """The directive, or the error text, that the general parser gives for
    ``line`` after ``BEFORE``: ``parse_scenario``'s loop body without the
    canonical match."""
    parts = line.split("#", 1)[0].split()
    try:
        return _parse_directive(parts[2], parts[3:], _int(parts[1], 2), 2)
    except ConfigError as exc:
        return str(exc)


#: Ways a line can leave the canonical spelling, or stay in it with a value
#: at or past a bound, which set-up checks.
EDGES = ("port", "no port", "sev", "no sev", "tick", "# in a value", "= or : in a value",
         "device", "reorder", "duplicate", "tab or double space", "leading space", "comment")


@st.composite
def emit_lines(draw):
    """A canonical emit line, changed at none to three of ``EDGES``."""
    pick = lambda *options: draw(st.sampled_from(options))  # noqa: E731
    tick, device, lead, trail = pick("10", "11"), "1.1.1", "", ""
    values = {"class": "fw.connect", "src": "10.0.0.9", "dst": "10.0.1.5", "sev": pick("1", "5")}
    ports = {"src": pick("0", "4242", "65535"), "dst": pick("0", "80", "65535")}
    order = ["class", "src", "dst", "sev"]
    seps = [" "] * 7
    for edge in draw(st.lists(st.sampled_from(EDGES), max_size=3)):
        if edge == "port":
            ports[pick("src", "dst")] = pick("65536", "99999", "080", "\u0668\u0660", "")
        elif edge == "no port":
            ports[pick("src", "dst")] = None
        elif edge == "sev":
            values["sev"] = pick("0", "6", "05", "\u0665", "")
        elif edge == "no sev" and "sev" in order:
            order.remove("sev")
        elif edge == "tick":
            tick = pick("0", "9", "011", "\u0661\u0661", "+11", "-1")
        elif edge == "# in a value":
            values[pick("class", "src", "dst")] = pick("a#b", "a#")
        elif edge == "= or : in a value":
            values[pick("class", "src", "dst", "sev")] = pick("a=b", "a:b")
        elif edge == "device":
            device = pick("1.1=1", "1.#1", "\u0661.1.1")
        elif edge == "reorder":
            order = draw(st.permutations(order))
        elif edge == "duplicate":
            order.insert(draw(st.integers(0, len(order))), pick(*order))
        elif edge == "tab or double space":
            seps[draw(st.integers(0, len(seps) - 1))] = pick("\t", "  ")
        elif edge == "leading space":
            lead = " "
        elif edge == "comment":
            trail = pick(" # comment", "#", "  #x")
    tokens = ["emit", device] + [
        f"{k}={values[k]}" + (f":{ports[k]}" if ports.get(k) is not None else "") for k in order
    ]
    return lead + f"at {tick}" + "".join(sep + t for sep, t in zip(seps, tokens)) + trail


@given(emit_lines())
@example("at 10 emit 1.1.1 class=a#b src=10.0.0.9:1 dst=10.0.1.5:80 sev=1")
@example("at 10 emit 1.1.1 class=fw.connect src=10.0.0.9:1 dst=10.0.1.5:65536 sev=1")
@example("at 9 emit 1.1.1 class=fw.connect src=10.0.0.9:1 dst=10.0.1.5:80 sev=1")
@settings(max_examples=600)
def test_canonical_emit_match_agrees_with_the_general_parser(line):
    try:
        got = parse_scenario(BEFORE + line + "\n").directives[1]
    except ConfigError as exc:
        got = str(exc)
    assert got == general(line)


def test_generated_scenario_emits_take_the_canonical_match_unchanged():
    text = GEN0_ATTACK.read_text()
    emits = [line for line in text.splitlines() if line.startswith("at ")]
    assert emits and all(_CANONICAL_EMIT.fullmatch(line) for line in emits)
    parsed = parse_scenario(text).directives
    assert len(parsed) == len(emits)
    for directive, line in zip(parsed, emits):
        parts = line.split()
        assert directive == _parse_directive(
            parts[2], parts[3:], int(parts[1]), directive.line_no)


# -- canonical event lines against the general parser -------------------------

#: The shape the analyzers of ``event_lines`` are declared in.
EVENT_SHAPE = TreeShape(depth=3, max_degree=9)

#: Ways a line can leave the canonical spelling, or stay in it with a value
#: at the edge of a bound.
EVENT_EDGES = ("port", "time", "sev", "count", "kind", "conn", "analyzer", "entity",
               "markup", "reorder", "duplicate", "missing", "extra", "spacing", "ends")


@st.composite
def event_lines(draw):
    """A canonical event line, changed at none to three of ``EVENT_EDGES``."""
    pick = lambda *options: draw(st.sampled_from(options))  # noqa: E731
    kind = pick("Firewall", "IDS")
    attrs = [
        ("id", "1.1.1-4"), ("analyzer", "1.1.1"), ("kind", kind), ("time", pick("0", "20")),
        ("class", "fw.connect"), ("src", "10.0.0.9"), ("sport", pick("0", "4242", "65535")),
        ("dst", "10.0.1.5"), ("dport", pick("0", "80", "65535")), ("sev", pick("1", "5")),
        ("count", pick("1", "3")),
        ("conn", pick("none", "connect", "disconnect") if kind == "Firewall" else "none"),
    ]
    seps, head, tail = [" "] * len(attrs), "<event", "/>"

    def put(name: str, *values: str) -> None:
        attrs[[a for a, _ in attrs].index(name)] = (name, pick(*values))

    for edge in draw(st.lists(st.sampled_from(EVENT_EDGES), max_size=3)):
        names = [a for a, _ in attrs]
        if edge == "port" and "sport" in names and "dport" in names:
            put(pick("sport", "dport"), "65536", "99999", "080", "-1", "\u0668\u0660", "")
        elif edge == "time" and "time" in names:
            put("time", "-1", "+3", "007", "1_0", "\u0661", "", "9" * 5000)
        elif edge == "sev" and "sev" in names:
            put("sev", "0", "6", "05", "\u0665", "")
        elif edge == "count" and "count" in names:
            put("count", "0", "01", "")
        elif edge == "kind" and "kind" in names:
            put("kind", "Firewall", "IDS", "SMN", "ids", "")
        elif edge == "conn" and "conn" in names:
            put("conn", "none", "connect", "disconnect", "NONE", "")
        elif edge == "analyzer" and "analyzer" in names:
            put("analyzer", "1.0.0", "1.1.0", "1.9.9", "1.1.10", "1.x.1", "1.1", "")
        elif edge in ("entity", "markup"):
            name = pick(*(a for a in ("id", "class", "src", "dst") if a in names) or names)
            if edge == "entity":
                put(name, "a&amp;b", "&lt;x&gt;", "&quot;", "&", "&amp;lt;")
            else:
                put(name, "a<b", "x/>y", "a=b", "b c", "\t", "a\nb", "a\rb", "\u00e9", "")
        elif edge == "reorder":
            attrs = draw(st.permutations(attrs))
        elif edge == "duplicate":
            name, value = pick(*attrs)
            attrs.insert(draw(st.integers(0, len(attrs))), (name, value + "1"))
            seps.append(" ")
        elif edge == "missing" and attrs:
            attrs.remove(pick(*attrs))
        elif edge == "extra":
            attrs.insert(draw(st.integers(0, len(attrs))), ("note", "x"))
            seps.append(" ")
        elif edge == "spacing" and seps:
            seps[draw(st.integers(0, len(seps) - 1))] = pick("\t", "  ", "")
        elif edge == "ends":
            head, tail = pick((" <event", "/>"), ("<event", " />"), ("<event", "/> "),
                              ("<event", "/>\n"), ("<event", ">"), ("<event", "/>/>"))
    return head + "".join(sep + f'{name}="{value}"' for sep, (name, value) in zip(seps, attrs)) \
        + tail


def event_outcome(parse, line: str):
    """The event ``parse`` reads from ``line``, or the text of its error."""
    try:
        return parse(line, EVENT_SHAPE)
    except EventLineError as exc:
        return str(exc)


CANONICAL_LINE = (
    '<event id="1.1.1-4" analyzer="1.1.1" kind="Firewall" time="20" class="fw.connect" '
    'src="10.0.0.9" sport="4242" dst="10.0.1.5" dport="80" sev="1" count="1" conn="connect"/>'
)


@given(event_lines())
@example(CANONICAL_LINE)
@example(CANONICAL_LINE.replace('kind="Firewall"', 'kind="IDS"'))
@example(CANONICAL_LINE.replace('dport="80"', 'dport="65536"'))
@example(CANONICAL_LINE.replace('count="1"', 'count="0"'))
@example(CANONICAL_LINE.replace('analyzer="1.1.1"', 'analyzer="1.1.10"'))
@example(CANONICAL_LINE.replace('time="20"', f'time="{"9" * 5000}"'))
@settings(max_examples=800)
def test_canonical_event_match_agrees_with_the_general_parser(line):
    assert event_outcome(parse_event_line, line) == event_outcome(_parse_event_attrs, line)


@given(st.text(alphabet='a1.&"<>;/=lt#0\n\r', max_size=12))
@settings(max_examples=200)
def test_a_formatted_event_takes_the_canonical_match_unless_a_value_escapes(text):
    ev = replace(_parse_event_attrs(CANONICAL_LINE, EVENT_SHAPE), classification=text)
    line = format_event_line(ev)
    assert (_CANONICAL_EVENT.fullmatch(line) is not None) == ("&" not in line)
    assert parse_event_line(line, EVENT_SHAPE) == ev
