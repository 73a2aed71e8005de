"""Fixed-depth dotted addresses for nodes of the management tree.

Every node carries an address ``A1.A2...An`` with exactly one segment per
tree level; zeros pad the tail. The address alone determines a node's
level, parent chain and subtree, so no lookup table is ever needed to
locate a node.

Identity is equality: there is one ``NodeAddress`` object per address and
tree shape, so two addresses are equal exactly when they are the same
object, and hashing one costs what hashing any plain object does. An
address is validated once, when first built, and keeps its text, level and
parent from then on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


class AddressError(ValueError):
    """Every address parsing and arithmetic failure; the message says which."""


#: The deepest tree a shape may have. Far beyond any management hierarchy,
#: and shallow enough that parsing and serializing a tree, which recurse
#: once per level, and interning an address with its parent chain stay well
#: inside Python's recursion limit.
MAX_DEPTH = 64


@dataclass(frozen=True)
class TreeShape:
    """Total level count and maximum fan-out of the management tree."""

    depth: int
    max_degree: int

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.depth > MAX_DEPTH:
            raise ValueError(f"depth must be <= {MAX_DEPTH}, got {self.depth}")
        if self.max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {self.max_degree}")


class NodeAddress:
    """A validated address: one segment per level, zero-padded tail.

    The root segment is always >= 1, every segment is bounded by the tree
    degree, and once a zero appears every later segment is zero too.

    Addresses are hash-consed: ``NodeAddress(segments, shape)`` returns the
    one object for its segments and shape, so equality and hashing are by
    identity, both in C. An address is validated, and its text, level and
    parent are derived, once, when its first construction interns it.
    """

    __slots__ = ("segments", "shape", "level", "_text", "_parent")

    segments: tuple[int, ...]
    shape: TreeShape
    #: 1-based index of the last non-zero segment
    level: int

    #: every address built so far, by (segments, depth, max_degree)
    _interned: ClassVar[dict[tuple, "NodeAddress"]] = {}
    #: every address ``parse`` returned, by (canonical text, depth,
    #: max_degree); another spelling of it is parsed again each time, so
    #: odd input cannot grow the cache past one entry per address
    _parsed: ClassVar[dict[tuple, "NodeAddress"]] = {}

    def __new__(cls, segments: tuple[int, ...], shape: TreeShape) -> "NodeAddress":
        segments = tuple(segments)
        key = (segments, shape.depth, shape.max_degree)
        self = cls._interned.get(key)
        if self is None:
            self = cls._intern(key, segments, shape)
        return self

    def __init__(self, segments: tuple[int, ...], shape: TreeShape) -> None:
        """Nothing to do: ``__new__`` returns a finished address. Python calls
        this once per construction, so a tracer can count them here."""

    @classmethod
    def _intern(cls, key: tuple, segs: tuple[int, ...], shape: TreeShape) -> "NodeAddress":
        """Validate a new address, derive what it keeps and file it under
        ``key``. A failure raises before anything is filed."""
        if len(segs) != shape.depth:
            raise AddressError(f"expected {shape.depth} segments, got {len(segs)}")
        if segs[0] < 1:
            raise AddressError("root segment must be >= 1")
        level = 0
        for i, seg in enumerate(segs):
            if seg < 0 or seg > shape.max_degree:
                raise AddressError(
                    f"segment {i + 1} is {seg}, allowed range 0..{shape.max_degree}"
                )
            if seg == 0:
                continue
            if level < i:
                raise AddressError(
                    f"non-zero segment {seg} at position {i + 1} after a zero"
                )
            level = i + 1
        parent = None
        if level > 1:
            up = segs[: level - 1] + (0,) * (shape.depth - level + 1)
            parent = cls(up, shape)
        self = object.__new__(cls)
        put = object.__setattr__
        put(self, "segments", segs)
        put(self, "shape", shape)
        put(self, "level", level)
        put(self, "_text", ".".join(map(str, segs)))
        put(self, "_parent", parent)
        cls._interned[key] = self
        return self

    # identity hashing, in C; named here so that a tracer can wrap it
    __hash__ = object.__hash__

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copies and unpickled addresses are the canonical object
        return NodeAddress, (self.segments, self.shape)

    def __repr__(self) -> str:
        return f"NodeAddress(segments={self.segments!r}, shape={self.shape!r})"

    @classmethod
    def parse(cls, text: str, shape: TreeShape) -> "NodeAddress":
        """Parse a dotted-decimal address string against the given shape."""
        key = (text, shape.depth, shape.max_degree)
        addr = cls._parsed.get(key)
        if addr is not None:
            return addr
        parts = text.split(".")
        if len(parts) != shape.depth:
            raise AddressError(
                f"expected {shape.depth} segments in {text!r}, got {len(parts)}"
            )
        segments = []
        for part in parts:
            if not (part.isascii() and part.isdigit()):
                raise AddressError(f"segment {part!r} in {text!r} is not a number")
            segments.append(int(part))
        addr = cls(tuple(segments), shape)
        if addr._text == text:
            cls._parsed[key] = addr
        return addr

    def __str__(self) -> str:
        return self._text

    def parent(self) -> "NodeAddress | None":
        """The address one level up, or None for a level-1 node."""
        return self._parent

    def child(self, k: int) -> "NodeAddress":
        """The k-th child address directly below this node."""
        lvl = self.level
        if lvl >= self.shape.depth:
            raise AddressError(f"{self} is already at the deepest level")
        if k < 1 or k > self.shape.max_degree:
            raise AddressError(
                f"child number {k} outside 1..{self.shape.max_degree}"
            )
        segs = list(self.segments)
        segs[lvl] = k
        return NodeAddress(tuple(segs), self.shape)

    def is_ancestor(self, other: "NodeAddress") -> bool:
        """True iff this address is a strict ancestor of ``other``."""
        if self.shape != other.shape:
            raise AddressError(f"{self.shape} vs {other.shape}")
        if self is other:
            return False
        lvl = self.level
        return other.segments[:lvl] == self.segments[:lvl]
