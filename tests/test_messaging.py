import random

import pytest

from smnsim.addressing import NodeAddress, TreeShape
from smnsim.messaging import (
    Frame,
    FrameBuilder,
    LinkTable,
    Mailbox,
    MsgType,
    SimNetwork,
    Unroutable,
    next_hop,
)

SHAPE = TreeShape(depth=4, max_degree=4)


def A(text):
    return NodeAddress.parse(text, SHAPE)


def frame(msg_type=MsgType.DEVICE_EVENT, src="1.1.1.1", dst="1.1.1.0", seq=1):
    return Frame(msg_type=msg_type, src=A(src), dst=A(dst), seq=seq)


def test_builder_sequences_per_type():
    b = FrameBuilder(A("1.1.0.0"))
    f1 = b.build(MsgType.NETWORK_TEST, A("1.0.0.0"))
    f2 = b.build(MsgType.NETWORK_TEST, A("1.0.0.0"))
    f3 = b.build(MsgType.DEVICE_EVENT, A("1.0.0.0"), "x")
    assert (f1.seq, f2.seq, f3.seq) == (1, 2, 1)
    assert (f1.text(), f3.text()) == ("", "x")
    assert f3 == Frame(MsgType.DEVICE_EVENT, A("1.1.0.0"), A("1.0.0.0"), 1, "x")


# -- routing --------------------------------------------------------------------


TREE = ["1.0.0.0", "1.1.0.0", "1.2.0.0", "1.1.1.0", "1.1.2.0", "1.2.2.0", "1.2.2.1"]


@pytest.fixture
def links():
    return LinkTable.from_addresses([A(t) for t in TREE])


def test_link_table_entries(links):
    assert links.parents == {A(t): A(t).parent() for t in TREE}
    assert links.parents[A("1.0.0.0")] is None
    assert A("1.2.2.1") in links and A("1.3.0.0") not in links
    with pytest.raises(ValueError, match="1.2.2.1 declared without its parent 1.2.2.0"):
        LinkTable.from_addresses([A(t) for t in TREE if t != "1.2.2.0"])


def test_next_hop_climbs_toward_common_ancestor(links):
    assert next_hop(A("1.1.1.0"), A("1.2.0.0"), links) == A("1.1.0.0")


def test_next_hop_descends_into_subtree(links):
    assert next_hop(A("1.0.0.0"), A("1.2.2.1"), links) == A("1.2.0.0")


def test_next_hop_deliver(links):
    assert next_hop(A("1.1.1.0"), A("1.1.1.0"), links) is None


def test_next_hop_unroutable_outside_tree(links):
    with pytest.raises(Unroutable):
        next_hop(A("1.0.0.0"), A("1.3.0.0"), links)
    # below a declared node, toward an undeclared child
    with pytest.raises(Unroutable, match="1.1.3.0 not reachable below 1.1.0.0"):
        next_hop(A("1.1.0.0"), A("1.1.3.0"), links)


def route(links, src, dst):
    path = [src]
    while True:
        hop = next_hop(path[-1], dst, links)
        if hop is None:
            return path
        path.append(hop)


def test_route_matches_ancestor_chain_oracle(links):
    # Oracle: climb from src to the common ancestor, then walk the reversed
    # climb from dst.
    rng = random.Random(7)
    addrs = [A(t) for t in TREE]
    for _ in range(100):
        src, dst = rng.choice(addrs), rng.choice(addrs)
        ca = src.common_ancestor(dst)
        up = [src]
        while up[-1] != ca:
            up.append(up[-1].parent())
        down = [dst]
        while down[-1] != ca:
            down.append(down[-1].parent())
        expected = up + list(reversed(down))[1:]
        assert route(links, src, dst) == expected
        assert len(expected) - 1 <= 2 * SHAPE.depth


# -- mailbox and network -----------------------------------------------------------


def test_mailbox_priority_then_fifo():
    box = Mailbox()
    low1 = frame(msg_type=MsgType.DEVICE_EVENT, seq=1)
    low2 = frame(msg_type=MsgType.DEVICE_EVENT, seq=2)
    urgent = frame(msg_type=MsgType.RESPONSE_COORD, seq=1)
    box.push(low1)
    box.push(low2)
    box.push(urgent)
    assert box.pop() is urgent
    assert box.pop() is low1
    assert box.pop() is low2
    assert box.pop() is None


def test_network_direct_link_delivers_next_step(links):
    net = SimNetwork(links)
    f = frame(src="1.1.1.0", dst="1.1.0.0")
    net.send(f)
    assert net.poll(A("1.1.0.0")) is None
    net.step()
    assert net.arrived == {net.slots[A("1.1.0.0")]}
    assert net.order[net.slots[A("1.1.0.0")]] == A("1.1.0.0")
    assert net.poll(A("1.1.0.0")) == f


def test_network_frame_to_self_arrives_next_step(links):
    net = SimNetwork(links)
    f = frame(src="1.2.2.1", dst="1.2.2.1")
    net.send(f)
    net.step()
    assert net.arrived == {net.slots[A("1.2.2.1")]}
    assert net.poll(A("1.2.2.1")) == f


def test_network_multi_hop(links):
    net = SimNetwork(links)
    f = frame(src="1.1.1.0", dst="1.2.2.1")
    net.send(f)
    hops = 0
    while net.poll(A("1.2.2.1")) is None:
        net.step()
        hops += 1
        assert hops <= 2 * SHAPE.depth
    # 1.1.1.0 -> 1.1.0.0 -> 1.0.0.0 -> 1.2.0.0 -> 1.2.2.0 -> 1.2.2.1
    assert hops == 5


def test_network_per_stream_fifo(links):
    net = SimNetwork(links)
    frames = [frame(src="1.1.1.0", dst="1.0.0.0", seq=i) for i in range(1, 6)]
    for f in frames:
        net.send(f)
    for _ in range(3):
        net.step()
    got = []
    while (f := net.poll(A("1.0.0.0"))) is not None:
        got.append(f.seq)
    assert got == [1, 2, 3, 4, 5]


def test_network_dead_letter_for_unknown_destination(links):
    net = SimNetwork(links)
    f = frame(src="1.0.0.0", dst="1.3.0.0")
    net.send(f)
    net.step()
    assert len(net.dead_letters) == 1
    assert net.dead_letters[0].line() == "DEADLETTER 1.0.0.0 1.3.0.0 DEVICE_EVENT 1"


def test_network_loss_hook_drops(links):
    drop_all = lambda f, at, hop, now: True
    net = SimNetwork(links, loss_hook=drop_all)
    net.send(frame(src="1.1.1.0", dst="1.1.0.0"))
    for _ in range(5):
        net.step()
    assert net.poll(A("1.1.0.0")) is None
    assert net.dropped == 1
    assert net.transit == []
    assert net.arrived == set()


def test_link_table_parents_are_the_declared_addresses():
    declared = {t: A(t) for t in TREE}
    links = LinkTable.from_addresses(list(declared.values()))
    for addr, parent in links.parents.items():
        assert parent is None or parent is declared[str(parent)]


def test_loss_hook_sees_each_hop_and_the_step_count():
    """A frame to the declared parent takes the one-hop path; any other goes
    hop by hop; the hook sees both, with the number of steps taken before."""
    declared = {t: A(t) for t in TREE}
    links = LinkTable.from_addresses(list(declared.values()))
    seen = []
    net = SimNetwork(links, loss_hook=lambda f, at, hop, now: seen.append((f.seq, str(hop), now)))
    up = FrameBuilder(declared["1.1.1.0"]).build(MsgType.NETWORK_TEST, declared["1.1.0.0"])
    net.send(up)
    net.send(frame(src="1.1.1.0", dst="1.2.0.0", seq=2))
    for _ in range(4):
        net.step()
    assert seen == [(1, "1.1.0.0", 0), (2, "1.1.0.0", 0), (2, "1.0.0.0", 1), (2, "1.2.0.0", 2)]
    assert net.poll(A("1.1.0.0")) is up
    assert net.poll(A("1.2.0.0")).seq == 2
