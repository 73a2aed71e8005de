import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smnsim.addressing import NodeAddress, TreeShape
from smnsim.device_model import DeviceState
from smnsim.device_tree import (
    DeviceNodeRecord,
    EmbeddingSyntaxError,
    TreeError,
    build_tree,
)

from treegen import LEAVES, random_tree

SHAPE = TreeShape(depth=4, max_degree=9)

TWELVE_NODE_TEXT = (
    "[1.0.0.0:S211:[1.1.0.0:S211:[1.1.1.0:S211:[1.1.1.1:S211]:[1.1.1.2:S211]"
    ":[1.1.1.3:S211]]:[1.1.2.0:S211]]:[1.2.0.0:S211:[1.2.1.0:S211]"
    ":[1.2.2.0:S211:[1.2.2.1:S211]:[1.2.2.2:S211]]]]"
)


def A(text):
    return NodeAddress.parse(text, SHAPE)


@pytest.fixture
def twelve():
    return build_tree(TWELVE_NODE_TEXT, SHAPE)


def test_build_twelve_node_tree(twelve):
    assert len(twelve.nodes()) == 12
    assert {str(n.address) for n in twelve.nodes()} == {
        "1.0.0.0",
        "1.1.0.0",
        "1.1.1.0",
        "1.1.1.1",
        "1.1.1.2",
        "1.1.1.3",
        "1.1.2.0",
        "1.2.0.0",
        "1.2.1.0",
        "1.2.2.0",
        "1.2.2.1",
        "1.2.2.2",
    }
    twelve.validate()


def test_serialize_is_byte_identical(twelve):
    assert twelve.serialize() == TWELVE_NODE_TEXT


def test_single_node_round_trip():
    tree = build_tree("[1.0.0.0:S11]", SHAPE)
    assert len(tree.nodes()) == 1
    assert tree.serialize() == "[1.0.0.0:S11]"


def test_build_rejects_address_inconsistency():
    with pytest.raises(TreeError, match="1.2.1.0 is not a tree child of 1.0.0.0"):
        build_tree("[1.0.0.0:S211:[1.2.1.0:S211]]", SHAPE)


def test_build_rejects_duplicate_children():
    with pytest.raises(TreeError, match="duplicate child 1.1.0.0 under 1.0.0.0"):
        build_tree("[1.0.0.0:S211:[1.1.0.0:S11]:[1.1.0.0:S11]]", SHAPE)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "[1.0.0.0:S211",
        "[1.0.0.0:S99]",
        "[1.0.0.0:S211]x",
        "[bogus:S211]",
    ],
)
def test_build_rejects_syntax_errors(text):
    with pytest.raises(EmbeddingSyntaxError):
        build_tree(text, SHAPE)


def test_syntax_error_reports_position():
    try:
        build_tree("[1.0.0.0:S99]", SHAPE)
    except EmbeddingSyntaxError as exc:
        assert exc.pos == 9
    else:
        pytest.fail("expected a syntax error")


def test_accepts_all_ten_state_codes():
    for code in ("S1", "S11", "S12", "S2", "S21", "S211", "S212", "S22", "S23", "S24"):
        text = f"[1.0.0.0:{code}]"
        assert build_tree(text, SHAPE).serialize() == text


def test_find_present_nodes(twelve):
    assert twelve.find(A("1.1.1.2")).address == A("1.1.1.2")
    assert twelve.find(A("1.2.1.0")).address == A("1.2.1.0")
    assert twelve.find(A("1.1.2.1")) is None


def test_subtree_serialization_is_substring(twelve):
    sub = twelve.find(A("1.2.0.0"))
    from smnsim.device_tree import serialize_node

    text = serialize_node(sub)
    assert text == "[1.2.0.0:S211:[1.2.1.0:S211]:[1.2.2.0:S211:[1.2.2.1:S211]:[1.2.2.2:S211]]]"
    assert text in TWELVE_NODE_TEXT


def test_add_device(twelve):
    twelve.add_device(DeviceNodeRecord(address=A("1.1.2.1"), state=DeviceState.NET_DOWN))
    assert twelve.find(A("1.1.2.1")) is not None
    twelve.validate()


def test_add_device_rejects_duplicates(twelve):
    with pytest.raises(TreeError, match="1.1.1.2 already present"):
        twelve.add_device(DeviceNodeRecord(address=A("1.1.1.2"), state=DeviceState.NET_DOWN))


# -- assemble / disassemble ---------------------------------------------------


def stub_main_tree():
    return build_tree("[1.0.0.0:S211:[1.1.0.0:S11]:[1.2.0.0:S11]]", SHAPE)


def test_assemble_replaces_stub():
    tree = stub_main_tree()
    tree.assemble("[1.1.0.0:S211:[1.1.1.0:S211]]")
    assert tree.find(A("1.1.1.0")) is not None
    assert (
        tree.serialize()
        == "[1.0.0.0:S211:[1.1.0.0:S211:[1.1.1.0:S211]]:[1.2.0.0:S11]]"
    )
    tree.validate()


def test_assemble_is_idempotent_on_equal_input():
    tree = stub_main_tree()
    tree.assemble("[1.1.0.0:S211:[1.1.1.0:S211]]")
    before = tree.serialize()
    tree.assemble("[1.1.0.0:S211:[1.1.1.0:S211]]")
    assert tree.serialize() == before


def test_assemble_keeps_child_position():
    tree = stub_main_tree()
    tree.assemble("[1.1.0.0:S211:[1.1.1.0:S211]]")
    first, second = tree.root.children.values()
    assert (first.address, second.address) == (A("1.1.0.0"), A("1.2.0.0"))


def test_assemble_unknown_root_rejected():
    tree = stub_main_tree()
    with pytest.raises(TreeError, match="1.3.0.0 not in main tree"):
        tree.assemble("[1.3.0.0:S211]")


def test_disassemble_keeps_stub(twelve):
    twelve.disassemble(A("1.1.0.0"), DeviceState.NET_DOWN)
    stub = twelve.find(A("1.1.0.0"))
    assert stub is not None and stub.state is DeviceState.NET_DOWN
    remaining = {str(n.address) for n in twelve.nodes()}
    assert {"1.1.1.0", "1.1.1.1", "1.1.1.2", "1.1.1.3", "1.1.2.0"}.isdisjoint(remaining)
    twelve.validate()


def test_disassemble_leaf_changes_state_only(twelve):
    before = len(twelve.nodes())
    twelve.disassemble(A("1.2.1.0"), DeviceState.NET_DOWN)
    assert len(twelve.nodes()) == before
    assert twelve.find(A("1.2.1.0")).state is DeviceState.NET_DOWN


def test_disassemble_then_assemble_restores(twelve):
    from smnsim.device_tree import serialize_node

    prior = serialize_node(twelve.find(A("1.1.0.0")))
    original = twelve.serialize()
    twelve.disassemble(A("1.1.0.0"), DeviceState.NET_DOWN)
    twelve.assemble(prior)
    assert twelve.serialize() == original


def test_disassemble_absent_rejected(twelve):
    with pytest.raises(TreeError, match="1.3.0.0 not in tree"):
        twelve.disassemble(A("1.3.0.0"), DeviceState.NET_DOWN)


# -- changes & mirror ---------------------------------------------------------


def mirror_of(tree):
    return build_tree(tree.serialize(), tree.shape)


def test_changeset_mirror_assemble():
    tree = stub_main_tree()
    mirror = mirror_of(tree)
    change = tree.assemble("[1.1.0.0:S211:[1.1.1.0:S211]]")
    assert change == "[1.1.0.0:S211:[1.1.1.0:S211]]"
    mirror.apply_changeset(change)
    assert mirror.serialize() == tree.serialize()


def test_changeset_mirror_disassemble(twelve):
    mirror = mirror_of(twelve)
    change = twelve.disassemble(A("1.1.0.0"), DeviceState.NET_DOWN)
    assert change == "[1.1.0.0:S11]"
    mirror.apply_changeset(change)
    assert mirror.serialize() == twelve.serialize()


def test_changeset_mirror_update(twelve):
    mirror = mirror_of(twelve)
    changes = (
        twelve.set_state(A("1.1.1.1"), DeviceState.HANDLING_ALERT),
        twelve.set_state(A("1.2.2.0"), DeviceState.UNREACHABLE),
    )
    assert changes == ("[1.1.1.1:S22]", "[1.2.2.0:S12:[1.2.2.1:S211]:[1.2.2.2:S211]]")
    for change in changes:
        mirror.apply_changeset(change)
    assert mirror.serialize() == twelve.serialize()


def test_a_change_the_tree_already_holds_is_a_noop(twelve):
    before = twelve.serialize()
    node = twelve.find(A("1.2.0.0"))
    twelve.apply_changeset(node.text)
    assert twelve.serialize() == before
    assert twelve.find(A("1.2.0.0")) is node


def test_stale_changeset_detected(twelve):
    with pytest.raises(TreeError, match=r"^cannot apply \[1\.3\.0\.0:S22\]: 1.3.0.0 not in"):
        twelve.apply_changeset("[1.3.0.0:S22]")


# -- randomized round trips ---------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100)
def test_random_tree_round_trip(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, depth=rng.randint(1, 6), degree=rng.randint(1, 5))
    rebuilt = build_tree(tree.serialize(), tree.shape)
    assert rebuilt.serialize() == tree.serialize()


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60)
def test_random_disassemble_assemble_round_trip(seed):
    from smnsim.device_tree import serialize_node

    rng = random.Random(seed)
    tree = random_tree(rng, depth=rng.randint(2, 6), degree=rng.randint(1, 5))
    victim = rng.choice(tree.nodes())
    original = tree.serialize()
    prior = serialize_node(victim)
    mirror = mirror_of(tree)
    mirror.apply_changeset(tree.disassemble(victim.address, DeviceState.NET_DOWN))
    assert mirror.serialize() == tree.serialize()
    change = tree.assemble(prior)
    if change is not None:
        mirror.apply_changeset(change)
    assert mirror.serialize() == tree.serialize()
    assert tree.serialize() == original
    tree.validate()


# -- cached embedding text ----------------------------------------------------


def uncached(node):
    """The embedding text of ``node``'s subtree, built without the cache."""
    inner = "".join(":" + uncached(child) for child in node.children.values())
    return f"[{node.address}:{node.state.value}{inner}]"


def assert_cache_sound(tree):
    """Every cached text equals a fresh build, and so does serialize(), whose
    text is returned."""
    for node in tree.nodes():
        assert node.text is None or node.text == uncached(node)
    # serialize a copy, so the check leaves the tree's cache as it found it
    text = copy.deepcopy(tree).serialize()
    assert text == uncached(tree.root)
    return text


REPORTED = "[1.1.0.0:S211:[1.1.1.0:S211:[1.1.1.1:S22]]]"


def reported_tree():
    tree = stub_main_tree()
    tree.assemble(REPORTED)
    tree.serialize()
    return tree


def test_an_identical_report_changes_nothing():
    tree = reported_tree()
    spliced = tree.find(A("1.1.0.0"))
    assert tree.assemble(REPORTED) is None
    assert tree.find(A("1.1.0.0")) is spliced
    assert tree.serialize() == "[1.0.0.0:S211:" + REPORTED + ":[1.2.0.0:S11]]"


@pytest.mark.parametrize(
    "change",
    [
        lambda tree: tree.set_state(A("1.1.0.0"), DeviceState.UNREACHABLE),
        lambda tree: tree.set_state(A("1.1.1.1"), DeviceState.UNREACHABLE),
        lambda tree: tree.disassemble(A("1.1.0.0"), DeviceState.NET_DOWN),
        lambda tree: tree.disassemble(A("1.1.1.0"), DeviceState.NET_DOWN),
    ],
    ids=["state", "nested-state", "disassemble", "nested-disassemble"],
)
def test_a_report_after_a_local_change_is_spliced_again(change):
    tree = reported_tree()
    change(tree)
    assert_cache_sound(tree)
    assert tree.assemble(REPORTED) == REPORTED
    assert tree.serialize() == "[1.0.0.0:S211:" + REPORTED + ":[1.2.0.0:S11]]"
    assert_cache_sound(tree)


OPS = ["set_state", "add_device", "same", "changed", "nested", "disassemble", "serialize"]


def _report_for(node, shape, rng):
    """A child's report for ``node``: its subtree with one state changed and,
    where the shape allows, one child added."""
    copy_tree = build_tree(uncached(node), shape)
    target = rng.choice(copy_tree.nodes())
    copy_tree.set_state(target.address, rng.choice(LEAVES))
    if target.address.level < shape.depth:
        free = [k for k in range(1, shape.max_degree + 1) if k not in target.children]
        if free:
            copy_tree.add_device(
                DeviceNodeRecord(
                    address=target.address.child(rng.choice(free)), state=rng.choice(LEAVES)
                )
            )
    return uncached(copy_tree.root)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.lists(st.sampled_from(OPS), min_size=1, max_size=25),
)
@settings(max_examples=150)
def test_cached_text_survives_every_change(seed, ops):
    rng = random.Random(seed)
    tree = random_tree(rng, depth=rng.randint(2, 5), degree=rng.randint(1, 4), max_nodes=25)
    tree.serialize()
    mirror = mirror_of(tree)
    for op in ops:
        node = rng.choice(tree.nodes())
        change: str | None = None
        if op == "set_state":
            change = tree.set_state(node.address, rng.choice(LEAVES))
        elif op == "add_device":
            free = [k for k in range(1, tree.shape.max_degree + 1) if k not in node.children]
            if node.address.level < tree.shape.depth and free:
                addr = node.address.child(rng.choice(free))
                state = rng.choice(LEAVES)
                for view in (tree, mirror):
                    view.add_device(DeviceNodeRecord(address=addr, state=state))
        elif op == "same":
            cached = node.text is not None
            change = tree.assemble(uncached(node))
            assert change == (None if cached else uncached(node))
        elif op == "changed":
            change = tree.assemble(_report_for(node, tree.shape, rng))
        elif op == "nested":
            deeper = [n for n in tree.nodes() if n.address.level > node.address.level + 1]
            if deeper:
                change = tree.assemble(_report_for(rng.choice(deeper), tree.shape, rng))
        elif op == "disassemble":
            change = tree.disassemble(node.address, rng.choice(LEAVES))
        else:
            tree.serialize()
            mirror.serialize()
        if change is not None:
            mirror.apply_changeset(change)
        for view in (tree, mirror):
            view.validate()
        assert assert_cache_sound(mirror) == assert_cache_sound(tree)
