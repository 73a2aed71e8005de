"""Seeded random device trees shared by unit and acceptance tests."""

import random

from smnsim.addressing import NodeAddress, TreeShape
from smnsim.device_model import DeviceKind, DeviceState
from smnsim.device_tree import AddressedDeviceTree, DeviceNodeRecord

LEAVES = [
    DeviceState.NET_DOWN,
    DeviceState.UNREACHABLE,
    DeviceState.RUNNING_OK,
    DeviceState.RUNNING_ABNORMAL,
    DeviceState.HANDLING_ALERT,
    DeviceState.HANDLING_POLICY,
    DeviceState.HANDLING_VULN,
]


def random_tree(
    rng: random.Random, depth: int, degree: int, max_nodes: int = 40, chain: float = 0.0
):
    """Grow a random tree by repeatedly attaching children to random nodes,
    or, with probability ``chain``, to the node attached last, which grows
    deep trees.

    Every node is a management node so any node may gain children; states
    are random leaf states.
    """
    shape = TreeShape(depth=depth, max_degree=degree)
    root_addr = NodeAddress((1,) + (0,) * (depth - 1), shape)
    tree = AddressedDeviceTree(
        shape=shape,
        root=DeviceNodeRecord(
            address=root_addr, state=rng.choice(LEAVES), kind=DeviceKind.SMN
        ),
    )
    nodes = [tree.root]
    for _ in range(rng.randrange(max_nodes)):
        parent = nodes[-1] if chain and rng.random() < chain else rng.choice(nodes)
        if parent.address.level >= depth:
            continue
        free = [k for k in range(1, degree + 1) if k not in parent.children]
        if not free:
            continue
        child = DeviceNodeRecord(
            address=parent.address.child(rng.choice(free)),
            state=rng.choice(LEAVES),
            kind=DeviceKind.SMN,
        )
        tree.add_device(child)
        nodes.append(child)
    return tree
