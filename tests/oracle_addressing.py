"""The common ancestor of two addresses, computed from their segments: the
oracle the routing and addressing tests check ``next_hop`` and the parent
chain against."""

from smnsim.addressing import AddressError, NodeAddress


class DisjointRoots(AddressError):
    pass


def common_ancestor(a: NodeAddress, b: NodeAddress) -> NodeAddress:
    """Deepest address equal to, or an ancestor of, both operands."""
    if a.shape != b.shape:
        raise AddressError(f"{a.shape} vs {b.shape}")
    if a.segments[0] != b.segments[0]:
        raise DisjointRoots(f"{a} and {b} have different roots")
    common = []
    for x, y in zip(a.segments, b.segments):
        if x != y:
            break
        common.append(x)
    padded = common + [0] * (a.shape.depth - len(common))
    return NodeAddress(tuple(padded), a.shape)
