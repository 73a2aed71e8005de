import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smnsim.addressing import NodeAddress, TreeShape
from smnsim.device_model import DeviceKind, DeviceState
from smnsim.device_tree import (
    AddressInconsistent,
    AssemblingNodeMissing,
    DeviceNodeRecord,
    DuplicateAddress,
    DuplicateChild,
    EmbeddingSyntaxError,
    NotFound,
    ParentNotSMN,
    StaleChangeSet,
    build_tree,
    structurally_equal,
)

from treegen import random_tree

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
    assert {str(a) for a in twelve.addresses()} == {
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
    with pytest.raises(AddressInconsistent):
        build_tree("[1.0.0.0:S211:[1.2.1.0:S211]]", SHAPE)


def test_build_rejects_duplicate_children():
    with pytest.raises(DuplicateChild):
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
    twelve.add_device(
        DeviceNodeRecord(address=A("1.1.2.1"), state=DeviceState.NET_DOWN, kind=DeviceKind.IDS)
    )
    assert twelve.find(A("1.1.2.1")) is not None
    twelve.validate()


def test_add_device_rejects_non_smn_parent(twelve):
    twelve.find(A("1.1.2.0")).kind = DeviceKind.HOST_MONITOR
    with pytest.raises(ParentNotSMN):
        twelve.add_device(
            DeviceNodeRecord(address=A("1.1.2.1"), state=DeviceState.NET_DOWN)
        )


def test_add_device_rejects_duplicates(twelve):
    with pytest.raises(DuplicateAddress):
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
    with pytest.raises(AssemblingNodeMissing):
        tree.assemble("[1.3.0.0:S211]")


def test_assemble_preserves_stub_kind():
    tree = stub_main_tree()
    tree.find(A("1.1.0.0")).kind = DeviceKind.SMN
    tree.assemble("[1.1.0.0:S211]")
    assert tree.find(A("1.1.0.0")).kind is DeviceKind.SMN


def test_disassemble_keeps_stub(twelve):
    twelve.disassemble(A("1.1.0.0"), DeviceState.NET_DOWN)
    stub = twelve.find(A("1.1.0.0"))
    assert stub is not None and stub.state is DeviceState.NET_DOWN
    remaining = {str(a) for a in twelve.addresses()}
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
    with pytest.raises(NotFound):
        twelve.disassemble(A("1.3.0.0"), DeviceState.NET_DOWN)


# -- change sets & mirror -----------------------------------------------------


def mirror_of(tree):
    return build_tree(tree.serialize(), tree.shape)


def test_changeset_mirror_assemble():
    tree = stub_main_tree()
    mirror = mirror_of(tree)
    changes = tree.assemble("[1.1.0.0:S211:[1.1.1.0:S211]]")
    mirror.apply_changeset(changes)
    assert mirror.serialize() == tree.serialize()


def test_changeset_mirror_disassemble(twelve):
    mirror = mirror_of(twelve)
    changes = twelve.disassemble(A("1.1.0.0"), DeviceState.NET_DOWN)
    mirror.apply_changeset(changes)
    assert mirror.serialize() == twelve.serialize()


def test_changeset_mirror_update(twelve):
    mirror = mirror_of(twelve)
    changes = (
        twelve.set_state(A("1.1.1.1"), DeviceState.HANDLING_ALERT),
        twelve.set_state(A("1.2.2.0"), DeviceState.UNREACHABLE),
    )
    mirror.apply_changeset(changes)
    assert mirror.serialize() == twelve.serialize()


def test_empty_changeset_is_noop(twelve):
    before = twelve.serialize()
    twelve.apply_changeset(())
    assert twelve.serialize() == before


def test_stale_changeset_detected(twelve):
    from smnsim.device_tree import ChangeRecord

    with pytest.raises(StaleChangeSet):
        twelve.apply_changeset(
            (ChangeRecord(op="update", address=A("1.3.0.0"), state=DeviceState.NET_DOWN),)
        )
    with pytest.raises(StaleChangeSet, match="unknown change op 'full'"):
        twelve.apply_changeset((ChangeRecord(op="full", embedding=twelve.serialize()),))


# -- randomized round trips ---------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100)
def test_random_tree_round_trip(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, depth=rng.randint(1, 6), degree=rng.randint(1, 5))
    rebuilt = build_tree(tree.serialize(), tree.shape)
    assert structurally_equal(tree.root, rebuilt.root)
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
    changes = tree.disassemble(victim.address, DeviceState.NET_DOWN)
    mirror.apply_changeset(changes)
    assert mirror.serialize() == tree.serialize()
    changes = tree.assemble(prior)
    mirror.apply_changeset(changes)
    assert mirror.serialize() == tree.serialize()
    assert tree.serialize() == original
    tree.validate()
