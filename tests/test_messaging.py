import random

import pytest

from smnsim.addressing import NodeAddress, TreeShape
from smnsim.messaging import (
    Frame,
    FrameBuilder,
    Mailbox,
    MsgType,
    SimNetwork,
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


def test_network_parents():
    with pytest.raises(ValueError, match="1.2.2.1 declared without its parent 1.2.2.0"):
        SimNetwork([a for a in NODES if a != A("1.2.2.0")])


def test_next_hop_climbs_toward_common_ancestor():
    assert next_hop(A("1.1.1.0"), A("1.2.0.0")) == A("1.1.0.0")


def test_next_hop_descends_into_subtree():
    assert next_hop(A("1.0.0.0"), A("1.2.2.1")) == A("1.2.0.0")


def test_next_hop_deliver():
    assert next_hop(A("1.1.1.0"), A("1.1.1.0")) is None


def route(src, dst):
    path = [src]
    while True:
        hop = next_hop(path[-1], dst)
        if hop is None:
            return path
        path.append(hop)


def test_route_matches_ancestor_chain_oracle():
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
        assert route(src, dst) == expected
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


def test_network_send_refuses_an_undeclared_destination():
    """Routing follows addresses alone, so a frame for a node outside the
    tree would climb to the root and land there: ``send`` refuses it."""
    net = SimNetwork(NODES)
    for dst in ("1.3.0.0", "1.1.3.0", "2.0.0.0"):
        with pytest.raises(ValueError, match=f"DEVICE_EVENT to {dst}, which is not a declared"):
            net.send(frame(src="1.0.0.0", dst=dst))
    assert net.transit == []


def test_network_loss_window_drops():
    """A rate-1 window drops exactly the frame on its hop, without a draw;
    a frame on another hop to the same node arrives."""
    net = SimNetwork(NODES)
    net.loss_windows.append((A("1.1.1.0"), A("1.1.0.0"), 99, 1.0))
    state = net._rng.getstate()
    net.send(frame(src="1.1.1.0", dst="1.1.0.0"))
    kept = frame(src="1.1.2.0", dst="1.1.0.0", seq=2)
    net.send(kept)
    for _ in range(5):
        net.step()
    assert net.poll(A("1.1.0.0")) is kept
    assert net.poll(A("1.1.0.0")) is None
    assert net.dead_letters == ["DEADLETTER 0 1.1.1.0->1.1.0.0 DEVICE_EVENT 1.1.1.0 1.1.0.0"]
    assert net.dropped == 1
    assert net.transit == []
    assert net._rng.getstate() == state


def test_a_loss_window_covers_the_steps_before_its_end_and_the_network_drops_it():
    """A window until 3 drops the frames stepped at 0, 1 and 2 and none at
    3: the step that brings ``now`` to 3 removes it from the list, in place,
    whether or not a frame was in transit."""
    hop = (A("1.1.1.0"), A("1.1.0.0"))
    busy, quiet = SimNetwork(NODES), SimNetwork(NODES)
    held = quiet.loss_windows
    for net in (busy, quiet):
        net.loss_windows.append((*hop, 3, 1.0))
    for step in range(4):
        assert len(busy.loss_windows) == len(quiet.loss_windows) == (step < 3)
        busy.send(frame(src="1.1.1.0", dst="1.1.0.0", seq=step + 1))
        busy.step()
        quiet.step()
    assert busy.now == quiet.now == 4
    assert busy.dead_letters == [
        f"DEADLETTER {t} 1.1.1.0->1.1.0.0 DEVICE_EVENT 1.1.1.0 1.1.0.0" for t in range(3)
    ]
    assert busy.poll(A("1.1.0.0")).seq == 4
    assert busy.loss_windows == quiet.loss_windows == [] and quiet.loss_windows is held


def test_a_loss_window_drops_a_routed_frame_at_the_hop_it_covers():
    """A frame to the declared parent takes the one-hop path; any other goes
    hop by hop. A window covers either on its hop: the routed frame from
    1.1.1.0 to 1.2.0.0 is dropped at the step that takes it over the
    covered hop, and the frame up from 1.1.1.0 only when the window covers
    its one hop. Each drop's line names that step, which ``now`` counts,
    and that hop."""
    route = [("1.1.1.0", "1.1.0.0"), ("1.1.0.0", "1.0.0.0"), ("1.0.0.0", "1.2.0.0")]
    routed = "DEVICE_EVENT 1.1.1.0 1.2.0.0"
    for covered, (src, dst) in enumerate(route):
        net = SimNetwork(NODES)
        net.loss_windows.append((A(src), A(dst), 99, 1.0))
        up = frame(MsgType.NETWORK_TEST, src="1.1.1.0", dst="1.1.0.0")
        net.send(up)
        net.send(frame(src="1.1.1.0", dst="1.2.0.0", seq=2))
        for step in range(4):
            assert net.now == step
            net.step()
        assert net.now == 4
        assert net.dead_letters == (
            ["DEADLETTER 0 1.1.1.0->1.1.0.0 NETWORK_TEST 1.1.1.0 1.1.0.0",
             f"DEADLETTER 0 1.1.1.0->1.1.0.0 {routed}"]
            if covered == 0 else [f"DEADLETTER {covered} {src}->{dst} {routed}"]
        )
        assert net.dropped == len(net.dead_letters)
        assert net.poll(A("1.1.0.0")) is (None if covered == 0 else up)
        assert net.poll(A("1.2.0.0")) is None
        assert net.transit == []


def test_partial_loss_windows_draw_once_per_covered_frame_in_the_order_they_began():
    """Each window with a rate below 1 on a frame's hop draws once from the
    source the seed fixes, in the order the windows began, until one drops
    the frame; a frame on a hop no window covers draws nothing. Each drop
    is one dead letter, stamped with the step that made it."""
    hop = (A("1.2.2.1"), A("1.2.2.0"), 99)
    for seed in range(20):
        net = SimNetwork(NODES, seed=seed)
        net.loss_windows += [(*hop, 0.5), (*hop, 0.25)]
        rng = random.Random(seed)
        want = []
        for seq in range(1, 11):
            net.send(frame(src="1.1.1.0", dst="1.1.0.0", seq=seq))
            net.send(frame(src="1.2.2.1", dst="1.2.2.0", seq=seq))
            if rng.random() < 0.5 or rng.random() < 0.25:
                want.append(
                    f"DEADLETTER {seq - 1} 1.2.2.1->1.2.2.0 DEVICE_EVENT 1.2.2.1 1.2.2.0"
                )
            net.step()
        assert net.dead_letters == want
        assert net.dropped == len(want)
        assert net._rng.random() == rng.random()
        assert len(net.mailboxes[A("1.1.0.0")]) == 10


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
