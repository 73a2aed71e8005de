import random

import pytest

from smnsim.addressing import NodeAddress, TreeShape
from smnsim.messaging import (
    Frame,
    FrameBuilder,
    Mailbox,
    MsgType,
    SimNetwork,
    Unroutable,
    next_hop,
)

from oracle_addressing import common_ancestor
from treegen import random_tree

SHAPE = TreeShape(depth=4, max_degree=4)


def A(text):
    return NodeAddress.parse(text, SHAPE)


def frame(msg_type=MsgType.DEVICE_EVENT, src="1.1.1.1", dst="1.1.1.0", seq=1):
    return Frame(msg_type=msg_type, src=A(src), dst=A(dst), seq=seq)


def test_builder_sequences_per_type():
    src, dst = A("1.1.0.0"), A("1.0.0.0")
    f1, f2 = Frame(MsgType.NETWORK_TEST, src, dst), Frame(MsgType.NETWORK_TEST, src, dst)
    f3 = Frame(MsgType.DEVICE_EVENT, src, dst, "x")
    assert (f1.seq, f2.seq, f3.seq) == (0, 0, 0)
    b = FrameBuilder()
    for f in (f1, f2, f3):
        b.build(f)
    assert (f1.seq, f2.seq, f3.seq) == (1, 2, 1)
    assert (f1.payload, f3.payload) == ("", "x")
    assert f3 == Frame(MsgType.DEVICE_EVENT, src, dst, "x", 1)


# -- routing --------------------------------------------------------------------


TREE = ["1.0.0.0", "1.1.0.0", "1.2.0.0", "1.1.1.0", "1.1.2.0", "1.2.2.0", "1.2.2.1"]
NODES = [A(t) for t in TREE]


@pytest.fixture
def parents():
    return SimNetwork(NODES).parents


def test_network_parents(parents):
    assert parents == {a: a.parent() for a in NODES}
    assert parents[A("1.0.0.0")] is None
    assert A("1.2.2.1") in parents and A("1.3.0.0") not in parents
    with pytest.raises(ValueError, match="1.2.2.1 declared without its parent 1.2.2.0"):
        SimNetwork([a for a in NODES if a != A("1.2.2.0")])


def test_next_hop_climbs_toward_common_ancestor(parents):
    assert next_hop(A("1.1.1.0"), A("1.2.0.0"), parents) == A("1.1.0.0")


def test_next_hop_descends_into_subtree(parents):
    assert next_hop(A("1.0.0.0"), A("1.2.2.1"), parents) == A("1.2.0.0")


def test_next_hop_deliver(parents):
    assert next_hop(A("1.1.1.0"), A("1.1.1.0"), parents) is None


def test_next_hop_unroutable_outside_tree(parents):
    with pytest.raises(Unroutable):
        next_hop(A("1.0.0.0"), A("1.3.0.0"), parents)
    # below a declared node, toward an undeclared child
    with pytest.raises(Unroutable, match="1.1.3.0 not reachable below 1.1.0.0"):
        next_hop(A("1.1.0.0"), A("1.1.3.0"), parents)


def route(parents, src, dst):
    path = [src]
    while True:
        hop = next_hop(path[-1], dst, parents)
        if hop is None:
            return path
        path.append(hop)


def test_route_matches_ancestor_chain_oracle(parents):
    # Oracle: climb from src to the common ancestor, then walk the reversed
    # climb from dst.
    rng = random.Random(7)
    addrs = [A(t) for t in TREE]
    for _ in range(100):
        src, dst = rng.choice(addrs), rng.choice(addrs)
        ca = common_ancestor(src, dst)
        up = [src]
        while up[-1] != ca:
            up.append(up[-1].parent())
        down = [dst]
        while down[-1] != ca:
            down.append(down[-1].parent())
        expected = up + list(reversed(down))[1:]
        assert route(parents, src, dst) == expected
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


def test_network_direct_link_delivers_next_step():
    net = SimNetwork(NODES)
    f = frame(src="1.1.1.0", dst="1.1.0.0")
    net.send(f)
    assert net.poll(A("1.1.0.0")) is None
    net.step()
    assert net.arrived == {net.slots[A("1.1.0.0")]}
    assert net.order[net.slots[A("1.1.0.0")]] == A("1.1.0.0")
    assert net.poll(A("1.1.0.0")) == f


def test_network_frame_to_self_arrives_next_step():
    net = SimNetwork(NODES)
    f = frame(src="1.2.2.1", dst="1.2.2.1")
    net.send(f)
    net.step()
    assert net.arrived == {net.slots[A("1.2.2.1")]}
    assert net.poll(A("1.2.2.1")) == f


def test_network_multi_hop():
    net = SimNetwork(NODES)
    f = frame(src="1.1.1.0", dst="1.2.2.1")
    net.send(f)
    hops = 0
    while net.poll(A("1.2.2.1")) is None:
        net.step()
        hops += 1
        assert hops <= 2 * SHAPE.depth
    # 1.1.1.0 -> 1.1.0.0 -> 1.0.0.0 -> 1.2.0.0 -> 1.2.2.0 -> 1.2.2.1
    assert hops == 5


def test_network_per_stream_fifo():
    net = SimNetwork(NODES)
    frames = [frame(src="1.1.1.0", dst="1.0.0.0", seq=i) for i in range(1, 6)]
    for f in frames:
        net.send(f)
    for _ in range(3):
        net.step()
    got = []
    while (f := net.poll(A("1.0.0.0"))) is not None:
        got.append(f.seq)
    assert got == [1, 2, 3, 4, 5]


def test_network_dead_letter_for_unknown_destination():
    net = SimNetwork(NODES)
    f = frame(src="1.0.0.0", dst="1.3.0.0")
    net.send(f)
    net.step()
    assert len(net.dead_letters) == 1
    assert net.dead_letters[0].line() == "DEADLETTER 1.0.0.0 1.3.0.0 DEVICE_EVENT 1"


def test_network_loss_hook_drops():
    drop_all = lambda f, at, hop, now: True
    net = SimNetwork(NODES, loss_hook=drop_all)
    net.send(frame(src="1.1.1.0", dst="1.1.0.0"))
    for _ in range(5):
        net.step()
    assert net.poll(A("1.1.0.0")) is None
    assert net.dropped == 1
    assert net.transit == []
    assert net.arrived == set()


def test_network_parents_are_the_declared_addresses():
    declared = {t: A(t) for t in TREE}
    for parent in SimNetwork(list(declared.values())).parents.values():
        assert parent is None or parent is declared[str(parent)]


def test_loss_hook_sees_each_hop_and_the_step_count():
    """A frame to the declared parent takes the one-hop path; any other goes
    hop by hop; the hook sees both, with the number of steps taken before."""
    seen = []
    net = SimNetwork(NODES, loss_hook=lambda f, at, hop, now: seen.append((f.seq, str(hop), now)))
    up = frame(MsgType.NETWORK_TEST, src="1.1.1.0", dst="1.1.0.0")
    net.send(up)
    net.send(frame(src="1.1.1.0", dst="1.2.0.0", seq=2))
    for _ in range(4):
        net.step()
    assert seen == [(1, "1.1.0.0", 0), (2, "1.1.0.0", 0), (2, "1.0.0.0", 1), (2, "1.2.0.0", 2)]
    assert net.poll(A("1.1.0.0")) is up
    assert net.poll(A("1.2.0.0")).seq == 2


def test_network_order_puts_every_node_after_its_parent():
    """Slots follow address order, so every node's parent has a lower slot,
    on random trees up to depth 64 whose addresses come in any order. A
    node's heartbeat hook rests on this: when a node runs, its parent has
    already run at that tick, or does not run at it (see ``simulator``)."""
    rng = random.Random(64)
    deepest = 0
    for depth in [64] * 5 + [rng.randint(1, 64) for _ in range(35)]:
        tree = random_tree(rng, depth, rng.randint(1, 4), max_nodes=200, chain=0.9)
        addresses = [node.address for node in tree.nodes()]
        rng.shuffle(addresses)
        network = SimNetwork(addresses)
        for addr in addresses:
            parent = addr.parent()
            if parent is not None:
                assert network.slots[parent] < network.slots[addr], addr
        deepest = max(deepest, max(addr.level for addr in addresses))
    assert deepest == 64
