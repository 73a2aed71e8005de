"""The addressed device tree and its textual embedding structure.

A tree of device records, each holding an address and a state, is what a
management node computes on (the virtual view) and what the console displays
(the user view). Trees travel between views and between management levels as
a bracketed text form::

    node = '[' address ':' state-code { ':' node } ']'

with no whitespace anywhere. Parsing and serialization are exact inverses
over canonical text, which is what makes subtree splicing between levels
testable byte-for-byte.

Once a run starts, a management node changes its view in three ways: a
state update, subtree splicing (assemble) and pruning (disassemble). Each
returns the embedding text of the subtree it changed, as that subtree now
stands (assemble and disassemble as a change set of that one text). A mirror
copy replays every change by splicing that text with ``assemble``, the same
algorithm a parent runs on a child's topology report, which keeps user view
and virtual view structurally equal.
``add_device`` only builds a view before the run and records nothing.

Each record caches the embedding text of its subtree, and the invariant is
that a cached text always equals what ``serialize_node`` would build now.
Every change (``set_state``, ``add_device``, ``assemble``, ``disassemble``,
and so ``apply_changeset``) clears the text of each node on the path from
the root to the node it changes; a spliced subtree comes in as fresh
records, so nothing below a replaced node can go stale. Serialization thus
rebuilds only what changed, and ``assemble`` takes a report equal to the
cached text at its address as a no-op with an empty change set. That is
exact: splicing a subtree's own text over it leaves every text, and so the
mirror, as it was.

A record holds only what the text carries, an address and a state: the
topology alone says a node's kind (see ``config``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .addressing import AddressError, NodeAddress, TreeShape
from .device_model import DeviceState


class TreeError(Exception):
    """Every device-tree failure; the message says which."""


class EmbeddingSyntaxError(TreeError):
    """Embedding text that does not parse; ``pos`` is where parsing stopped."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


_STATE_BY_CODE = {s.value: s for s in DeviceState}


@dataclass(eq=False)
class DeviceNodeRecord:
    """One node of an addressed device tree.

    ``children`` maps each child's segment to the child, in embedding order.
    ``text`` is the cached embedding text of the subtree, or None until
    ``serialize_node`` builds it; the tree's changes clear it, so change a
    record through its tree.
    """

    address: NodeAddress
    state: DeviceState
    children: dict[int, "DeviceNodeRecord"] = field(default_factory=dict)
    text: str | None = field(default=None, init=False, repr=False)

    @property
    def segment(self) -> int:
        """This node's number under its parent."""
        return self.address.segments[self.address.level - 1]


#: a change to a view: the embedding text of each subtree it left, in order
ChangeSet = tuple[str, ...]


def serialize_node(node: DeviceNodeRecord) -> str:
    """The embedding text of ``node``'s subtree: its cached text, or one built
    now and cached at every level below it."""
    text = node.text
    if text is None:
        parts = [f"[{node.address}:{node.state.value}"]
        for child in node.children.values():
            parts.append(":")
            parts.append(serialize_node(child))
        parts.append("]")
        text = node.text = "".join(parts)
    return text


def _parse_node(
    text: str, pos: int, shape: TreeShape, parent: NodeAddress | None = None
) -> tuple[DeviceNodeRecord, int]:
    if pos >= len(text) or text[pos] != "[":
        raise EmbeddingSyntaxError("expected '['", pos)
    pos += 1
    colon = text.find(":", pos)
    if colon < 0:
        raise EmbeddingSyntaxError("expected ':' after address", pos)
    addr_text = text[pos:colon]
    try:
        address = NodeAddress.parse(addr_text, shape)
    except AddressError as exc:
        raise EmbeddingSyntaxError(f"bad address {addr_text!r}: {exc}", pos) from exc
    # Checked before descending, so nesting is bounded by the tree depth.
    if parent is not None and address.parent() != parent:
        raise TreeError(f"{address} is not a tree child of {parent}")
    pos = colon + 1
    end = pos
    while end < len(text) and text[end] not in ":]":
        end += 1
    if end >= len(text):
        raise EmbeddingSyntaxError("unterminated node", pos)
    state_code = text[pos:end]
    state = _STATE_BY_CODE.get(state_code)
    if state is None:
        raise EmbeddingSyntaxError(f"unknown state code {state_code!r}", pos)
    pos = end
    node = DeviceNodeRecord(address=address, state=state)
    while pos < len(text) and text[pos] == ":":
        child, pos = _parse_node(text, pos + 1, shape, address)
        if child.segment in node.children:
            raise TreeError(f"duplicate child {child.address} under {address}")
        node.children[child.segment] = child
    if pos >= len(text) or text[pos] != "]":
        raise EmbeddingSyntaxError("expected ']'", pos)
    return node, pos + 1


def build_tree(embedding: str, shape: TreeShape) -> "AddressedDeviceTree":
    """Parse embedding text into a tree. Inverse of :meth:`AddressedDeviceTree.serialize`."""
    root, end = _parse_node(embedding, 0, shape)
    if end != len(embedding):
        raise EmbeddingSyntaxError("trailing characters after root node", end)
    return AddressedDeviceTree(shape=shape, root=root)


@dataclass
class AddressedDeviceTree:
    """A device tree addressable by segment descent.

    The root may sit at any level: a management node's own view is rooted at
    itself, while the system-wide view is rooted at the level-1 node.
    """

    shape: TreeShape
    root: DeviceNodeRecord

    def serialize(self) -> str:
        return serialize_node(self.root)

    def nodes(self) -> list[DeviceNodeRecord]:
        """All nodes in serialization (depth-first, child order) order."""
        out: list[DeviceNodeRecord] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children.values()))
        return out

    def find(self, addr: NodeAddress) -> DeviceNodeRecord | None:
        """The node at ``addr`` by segment descent, or None."""
        root_level = self.root.address.level
        if addr.segments[:root_level] != self.root.address.segments[:root_level]:
            return None
        node = self.root
        for seg in addr.segments[root_level : addr.level]:
            node = node.children.get(seg)
            if node is None:
                return None
        return node

    def _touch(self, addr: NodeAddress) -> DeviceNodeRecord | None:
        """The node at ``addr``, as :meth:`find` gives it, after clearing the
        cached text of every node on the way down, the node's own included.
        A miss may leave texts cleared, which costs only a rebuild."""
        root_level = self.root.address.level
        if addr.segments[:root_level] != self.root.address.segments[:root_level]:
            return None
        node = self.root
        node.text = None
        for seg in addr.segments[root_level : addr.level]:
            node = node.children.get(seg)
            if node is None:
                return None
            node.text = None
        return node

    def add_device(self, record: DeviceNodeRecord) -> None:
        parent_addr = record.address.parent()
        if parent_addr is None:
            raise TreeError(f"{record.address} has no parent address")
        parent = self._touch(parent_addr)
        if parent is None:
            raise TreeError(f"parent {parent_addr} not in tree")
        if record.segment in parent.children:
            raise TreeError(f"{record.address} already present")
        parent.children[record.segment] = record

    def set_state(self, addr: NodeAddress, state: DeviceState) -> str:
        """Set the state of the node at ``addr``; the node's subtree text."""
        node = self._touch(addr)
        if node is None:
            raise TreeError(f"{addr} not in tree")
        node.state = state
        return serialize_node(node)

    def assemble(self, embedding: str) -> ChangeSet:
        """Splice a reported subtree over its stub in this tree.

        The subtree root's address names the assembling node, which must
        already exist; the incoming subtree takes the stub's position in its
        parent's children, so repeated report/splice cycles keep the
        serialization stable.

        A report equal to the cached text of the subtree at its address
        changes nothing: it is neither parsed nor spliced, and the change set
        is empty.
        """
        colon = embedding.find(":")
        if colon > 0 and embedding[0] == "[":
            try:
                node = self.find(NodeAddress.parse(embedding[1:colon], self.shape))
            except AddressError:
                node = None  # the parse below says what is wrong
            if node is not None and node.text == embedding:
                return ()
        subtree = build_tree(embedding, self.shape)
        new_root = subtree.root
        assembling = self.find(new_root.address)
        if assembling is None:
            raise TreeError(f"{new_root.address} not in main tree")
        if assembling is self.root:
            self.root = new_root
        else:
            parent = self._touch(new_root.address.parent())
            assert parent is not None
            parent.children[new_root.segment] = new_root
        return (serialize_node(new_root),)

    def disassemble(self, addr: NodeAddress, offline_state: DeviceState) -> ChangeSet:
        """Mark a silent node offline and drop its whole subtree, keeping the
        node itself as a stub; the change set is the stub's text."""
        node = self._touch(addr)
        if node is None:
            raise TreeError(f"{addr} not in tree")
        node.state = offline_state
        node.children.clear()
        return (serialize_node(node),)

    def apply_changeset(self, changes: ChangeSet) -> None:
        """Replay changes made to another copy of this tree, splicing each
        subtree text with :meth:`assemble`."""
        for text in changes:
            try:
                self.assemble(text)
            except (TreeError, AddressError) as exc:
                raise TreeError(f"cannot apply {text}: {exc}") from exc

    def validate(self) -> None:
        """Check every structural invariant; raises TreeError on violation."""
        seen: set[NodeAddress] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.address in seen:
                raise TreeError(f"{node.address} appears twice")
            seen.add(node.address)
            for seg, child in node.children.items():
                if child.address.parent() != node.address or child.segment != seg:
                    raise TreeError(
                        f"{child.address} filed under {node.address} as {seg}"
                    )
            stack.extend(node.children.values())
