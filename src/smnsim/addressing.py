"""Fixed-depth dotted addresses for nodes of the management tree.

Every node carries an address ``A1.A2...An`` with exactly one segment per
tree level; zeros pad the tail. The address alone determines a node's
level, parent chain and subtree, so no lookup table is ever needed to
locate a node.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class AddressError(ValueError):
    """Base class for address parsing and arithmetic failures."""


class WrongSegmentCount(AddressError):
    pass


class NonNumericSegment(AddressError):
    pass


class ZeroSuffixViolation(AddressError):
    pass


class SegmentOutOfRange(AddressError):
    pass


class ShapeMismatch(AddressError):
    pass


class DisjointRoots(AddressError):
    pass


class DepthExceeded(AddressError):
    pass


class DegreeExceeded(AddressError):
    pass


@dataclass(frozen=True)
class TreeShape:
    """Total level count and maximum fan-out of the management tree."""

    depth: int
    max_degree: int

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {self.max_degree}")


@dataclass(frozen=True, slots=True)
class NodeAddress:
    """A validated address: one segment per level, zero-padded tail.

    The root segment is always >= 1, every segment is bounded by the tree
    degree, and once a zero appears every later segment is zero too.
    """

    segments: tuple[int, ...]
    shape: TreeShape
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        segs = self.segments
        if len(segs) != self.shape.depth:
            raise WrongSegmentCount(
                f"expected {self.shape.depth} segments, got {len(segs)}"
            )
        if segs[0] < 1:
            raise SegmentOutOfRange("root segment must be >= 1")
        seen_zero = False
        for i, seg in enumerate(segs):
            if seg < 0 or seg > self.shape.max_degree:
                raise SegmentOutOfRange(
                    f"segment {i + 1} is {seg}, allowed range 0..{self.shape.max_degree}"
                )
            if seen_zero and seg != 0:
                raise ZeroSuffixViolation(
                    f"non-zero segment {seg} at position {i + 1} after a zero"
                )
            if seg == 0:
                seen_zero = True
        # Addresses key every routing and tree lookup; hash them once.
        shape = self.shape
        object.__setattr__(self, "_hash", hash((segs, shape.depth, shape.max_degree)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.segments == other.segments and (
            self.shape is other.shape or self.shape == other.shape
        )

    @classmethod
    def parse(cls, text: str, shape: TreeShape) -> "NodeAddress":
        """Parse a dotted-decimal address string against the given shape."""
        parts = text.split(".")
        if len(parts) != shape.depth:
            raise WrongSegmentCount(
                f"expected {shape.depth} segments in {text!r}, got {len(parts)}"
            )
        segments = []
        for part in parts:
            if not (part.isascii() and part.isdigit()):
                raise NonNumericSegment(f"segment {part!r} in {text!r} is not a number")
            segments.append(int(part))
        return cls(tuple(segments), shape)

    def __str__(self) -> str:
        return ".".join(str(s) for s in self.segments)

    @property
    def level(self) -> int:
        """1-based index of the last non-zero segment."""
        lvl = 0
        for i, seg in enumerate(self.segments):
            if seg != 0:
                lvl = i + 1
        return lvl

    def parent(self) -> "NodeAddress | None":
        """The address one level up, or None for a level-1 node."""
        lvl = self.level
        if lvl == 1:
            return None
        segs = list(self.segments)
        segs[lvl - 1] = 0
        return NodeAddress(tuple(segs), self.shape)

    def child(self, k: int) -> "NodeAddress":
        """The k-th child address directly below this node."""
        lvl = self.level
        if lvl >= self.shape.depth:
            raise DepthExceeded(f"{self} is already at the deepest level")
        if k < 1 or k > self.shape.max_degree:
            raise DegreeExceeded(
                f"child number {k} outside 1..{self.shape.max_degree}"
            )
        segs = list(self.segments)
        segs[lvl] = k
        return NodeAddress(tuple(segs), self.shape)

    def is_ancestor(self, other: "NodeAddress") -> bool:
        """True iff this address is a strict ancestor of ``other``."""
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")
        if self.segments == other.segments:
            return False
        lvl = self.level
        return other.segments[:lvl] == self.segments[:lvl]

    def common_ancestor(self, other: "NodeAddress") -> "NodeAddress":
        """Deepest address equal to, or an ancestor of, both operands."""
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")
        if self.segments[0] != other.segments[0]:
            raise DisjointRoots(f"{self} and {other} have different roots")
        common = []
        for a, b in zip(self.segments, other.segments):
            if a != b:
                break
            common.append(a)
        padded = common + [0] * (self.shape.depth - len(common))
        return NodeAddress(tuple(padded), self.shape)
