import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from smnsim.addressing import (
    DegreeExceeded,
    DepthExceeded,
    DisjointRoots,
    NodeAddress,
    NonNumericSegment,
    SegmentOutOfRange,
    ShapeMismatch,
    TreeShape,
    WrongSegmentCount,
    ZeroSuffixViolation,
)

SHAPE4 = TreeShape(depth=4, max_degree=9)
SHAPE7 = TreeShape(depth=7, max_degree=9)


def addr(*segs, shape=SHAPE4):
    return NodeAddress(tuple(segs), shape)


def test_parse_paper_style_address():
    a = NodeAddress.parse("1.2.4.0.0.0.0", SHAPE7)
    assert a.segments == (1, 2, 4, 0, 0, 0, 0)


def test_parse_root():
    assert NodeAddress.parse("1.0.0.0", SHAPE4).segments == (1, 0, 0, 0)


def test_parse_rejects_zero_suffix_violation():
    with pytest.raises(ZeroSuffixViolation):
        NodeAddress.parse("1.0.2.0", SHAPE4)


def test_parse_rejects_wrong_segment_count():
    with pytest.raises(WrongSegmentCount):
        NodeAddress.parse("1.2.3", SHAPE4)


def test_parse_rejects_non_numeric():
    with pytest.raises(NonNumericSegment):
        NodeAddress.parse("1.x.0.0", SHAPE4)


def test_parse_rejects_out_of_range():
    with pytest.raises(SegmentOutOfRange):
        NodeAddress.parse("1.2.4.0", TreeShape(depth=4, max_degree=3))


def test_parse_rejects_zero_root():
    with pytest.raises(SegmentOutOfRange):
        NodeAddress.parse("0.0.0.0", SHAPE4)


def test_format_examples():
    assert str(NodeAddress.parse("1.2.4.0.0.0.0", SHAPE7)) == "1.2.4.0.0.0.0"
    assert str(addr(1, 0, 0, 0)) == "1.0.0.0"
    assert str(addr(1, 1, 1, 2)) == "1.1.1.2"


def test_level_examples():
    assert NodeAddress.parse("1.2.4.0.0.0.0", SHAPE7).level == 3
    assert addr(1, 0, 0, 0).level == 1
    assert addr(1, 1, 1, 2).level == 4


def test_parent_examples():
    assert addr(1, 1, 1, 1).parent() == addr(1, 1, 1, 0)
    assert addr(1, 0, 0, 0).parent() is None
    seven = NodeAddress.parse("1.2.4.0.0.0.0", SHAPE7)
    assert seven.parent() == NodeAddress.parse("1.2.0.0.0.0.0", SHAPE7)


def test_child_examples():
    assert addr(1, 1, 0, 0).child(2) == addr(1, 1, 2, 0)
    assert addr(1, 1, 1, 0).child(3) == addr(1, 1, 1, 3)
    with pytest.raises(DepthExceeded):
        addr(1, 1, 1, 1).child(1)
    with pytest.raises(DegreeExceeded):
        addr(1, 1, 0, 0).child(10)


def test_is_ancestor_examples():
    assert addr(1, 1, 0, 0).is_ancestor(addr(1, 1, 1, 2))
    assert not addr(1, 1, 1, 2).is_ancestor(addr(1, 1, 1, 2))
    assert not addr(1, 2, 0, 0).is_ancestor(addr(1, 1, 1, 2))


def test_is_ancestor_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        addr(1, 0, 0, 0).is_ancestor(NodeAddress.parse("1.0.0.0.0.0.0", SHAPE7))


def test_common_ancestor_examples():
    assert addr(1, 1, 1, 1).common_ancestor(addr(1, 1, 2, 0)) == addr(1, 1, 0, 0)
    assert addr(1, 1, 1, 1).common_ancestor(addr(1, 1, 1, 1)) == addr(1, 1, 1, 1)
    assert addr(1, 1, 1, 1).common_ancestor(addr(1, 2, 2, 1)) == addr(1, 0, 0, 0)


def test_common_ancestor_disjoint_roots():
    shape = TreeShape(depth=2, max_degree=3)
    a = NodeAddress((1, 1), shape)
    b = NodeAddress((2, 1), shape)
    with pytest.raises(DisjointRoots):
        a.common_ancestor(b)


# -- property tests ---------------------------------------------------------


@st.composite
def addresses(draw, shape=SHAPE4):
    # One simulation has one tree, so all addresses share the root segment.
    level = draw(st.integers(min_value=1, max_value=shape.depth))
    segs = [1] + [
        draw(st.integers(min_value=1, max_value=shape.max_degree))
        for _ in range(level - 1)
    ]
    segs += [0] * (shape.depth - level)
    return NodeAddress(tuple(segs), shape)


@given(addresses())
def test_parse_format_round_trip(a):
    assert NodeAddress.parse(str(a), SHAPE4) == a


@given(addresses(), st.integers(min_value=1, max_value=9))
def test_parent_of_child_is_self(a, k):
    if a.level < a.shape.depth:
        assert a.child(k).parent() == a


@given(addresses())
def test_level_of_parent(a):
    p = a.parent()
    if p is not None:
        assert p.level == a.level - 1


@given(addresses(), addresses())
def test_ancestor_is_strict_partial_order(a, b):
    assert not a.is_ancestor(a)
    down = a.is_ancestor(b)
    up = b.is_ancestor(a)
    assert not (down and up)


@given(addresses(), addresses(), addresses())
def test_ancestor_transitive(a, b, c):
    if a.is_ancestor(b) and b.is_ancestor(c):
        assert a.is_ancestor(c)


@given(addresses(), addresses())
def test_common_ancestor_dominates_both(a, b):
    ca = a.common_ancestor(b)
    assert ca == a or ca.is_ancestor(a)
    assert ca == b or ca.is_ancestor(b)


@given(addresses(), addresses())
def test_common_ancestor_matches_chain_walk(a, b):
    # Independent oracle: intersect the two ancestor-or-self chains and take
    # the deepest element.
    def chain(x):
        out = [x]
        while (p := out[-1].parent()) is not None:
            out.append(p)
        return out

    shared = [x for x in chain(a) if x in chain(b)]
    assert a.common_ancestor(b) == shared[0]


# -- canonical addresses ----------------------------------------------------


@given(addresses().map(lambda a: a.segments))
def test_equal_segments_build_one_object(segs):
    a = NodeAddress(segs, SHAPE4)
    assert NodeAddress(tuple(segs), SHAPE4) is a
    assert NodeAddress(list(segs), TreeShape(depth=4, max_degree=9)) is a


@given(addresses())
def test_parse_and_parent_return_the_canonical_object(a):
    assert NodeAddress.parse(str(a), SHAPE4) is a
    assert NodeAddress.parse(str(a), TreeShape(depth=4, max_degree=9)) is a
    assert a.parent() is a.parent()


@given(addresses())
def test_text_is_the_dotted_segments(a):
    assert str(a) == ".".join(map(str, a.segments))


@given(addresses())
def test_copies_are_the_canonical_object(a):
    assert copy.copy(a) is a
    assert copy.deepcopy(a) is a
    assert pickle.loads(pickle.dumps(a)) is a


def test_addresses_of_other_shapes_are_other_objects():
    a = NodeAddress.parse("1.2.0.0", SHAPE4)
    b = NodeAddress.parse("1.2.0.0", TreeShape(depth=4, max_degree=3))
    assert a is not b and a != b
    assert a.shape == SHAPE4 and b.shape.max_degree == 3


@pytest.mark.parametrize(
    "text, error",
    [
        ("1.2.3", WrongSegmentCount),
        ("1.x.0.0", NonNumericSegment),
        ("1.0.2.0", ZeroSuffixViolation),
        ("0.0.0.0", SegmentOutOfRange),
        ("1.2.4.0", SegmentOutOfRange),  # valid for SHAPE4, not for degree 3
    ],
)
def test_a_failed_parse_is_not_cached(text, error):
    NodeAddress.parse("1.2.4.0", SHAPE4)
    shape = TreeShape(depth=4, max_degree=3)
    for _ in range(2):
        with pytest.raises(error):
            NodeAddress.parse(text, shape)


def test_a_failed_construction_is_not_cached():
    for _ in range(2):
        with pytest.raises(ZeroSuffixViolation):
            addr(1, 0, 2, 0)
        with pytest.raises(SegmentOutOfRange):
            addr(1, 10, 0, 0)


def test_addresses_are_immutable_and_keep_their_repr():
    a = addr(1, 2, 0, 0)
    with pytest.raises(AttributeError):
        a.segments = (1, 3, 0, 0)
    with pytest.raises(AttributeError):
        a.level = 3
    assert repr(a) == (
        "NodeAddress(segments=(1, 2, 0, 0), shape=TreeShape(depth=4, max_degree=9))"
    )
