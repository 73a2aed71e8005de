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
returns the change records that replay it on a mirror copy, which keeps user
view and virtual view structurally equal; assemble ships the spliced subtree
in embedding form, so the mirror runs the very same algorithm. ``add_device``
only builds a view before the run and records nothing.

Each record caches the embedding text of its subtree, and the invariant is
that a cached text always equals what ``serialize_node`` would build now.
Every change (``set_state``, ``add_device``, ``assemble``, ``disassemble``,
and so ``apply_changeset``) clears the text of each node on the path from
the root to the node it changes; a spliced subtree comes in as fresh
records, so nothing below a replaced node can go stale. Serialization thus
rebuilds only what changed, and ``assemble`` takes a report equal to the
cached text at its address as a no-op with an empty change set. That is
exact: splicing a subtree's own text over it leaves every text, and so the
mirror, as it was. Kinds stay too, since a splice keeps the assembling
node's kind and the nodes below it came from an earlier splice, as they
would from this one. (A record that ``add_device`` put below the assembling
node would keep a kind the wire does not carry; a management node adds only
its own children, so in a run that does not happen.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .addressing import AddressError, NodeAddress, TreeShape
from .device_model import DeviceKind, DeviceState


class TreeError(Exception):
    """Base class for device-tree failures."""


class EmbeddingSyntaxError(TreeError):
    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


class AddressInconsistent(TreeError):
    pass


class DuplicateChild(TreeError):
    pass


class ParentMissing(TreeError):
    pass


class ParentNotSMN(TreeError):
    pass


class DuplicateAddress(TreeError):
    pass


class NotFound(TreeError):
    pass


class AssemblingNodeMissing(TreeError):
    pass


class StaleChangeSet(TreeError):
    pass


_STATE_BY_CODE = {s.value: s for s in DeviceState}


@dataclass(eq=False)
class DeviceNodeRecord:
    """One node of an addressed device tree.

    ``kind`` is None for nodes learned from the wire: the embedding text
    carries only address and state, so a leaf's kind is not locally known.
    Nodes with children are always management nodes. ``children`` maps each
    child's segment to the child, in embedding order. ``text`` is the cached
    embedding text of the subtree, or None until ``serialize_node`` builds
    it; the tree's changes clear it, so change a record through its tree.
    """

    address: NodeAddress
    state: DeviceState
    kind: DeviceKind | None = None
    children: dict[int, "DeviceNodeRecord"] = field(default_factory=dict)
    text: str | None = field(default=None, init=False, repr=False)

    @property
    def segment(self) -> int:
        """This node's number under its parent."""
        return self.address.segments[self.address.level - 1]


@dataclass(frozen=True)
class ChangeRecord:
    """One replayable mutation of a device tree."""

    op: str  # update | assemble | disassemble
    address: NodeAddress | None = None
    state: DeviceState | None = None
    embedding: str | None = None


ChangeSet = tuple[ChangeRecord, ...]


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
        raise AddressInconsistent(f"{address} is not a tree child of {parent}")
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
            raise DuplicateChild(f"duplicate child {child.address} under {address}")
        node.children[child.segment] = child
    if pos >= len(text) or text[pos] != "]":
        raise EmbeddingSyntaxError("expected ']'", pos)
    if node.children:
        node.kind = DeviceKind.SMN
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

    def addresses(self) -> set[NodeAddress]:
        return {n.address for n in self.nodes()}

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
            raise ParentMissing(f"{record.address} has no parent address")
        parent = self._touch(parent_addr)
        if parent is None:
            raise ParentMissing(f"parent {parent_addr} not in tree")
        if parent.kind is None:
            # wire-learned leaf gaining a child: that proves it is a
            # management node
            parent.kind = DeviceKind.SMN
        elif parent.kind is not DeviceKind.SMN:
            raise ParentNotSMN(f"parent {parent_addr} is not a management node")
        if record.segment in parent.children:
            raise DuplicateAddress(f"{record.address} already present")
        parent.children[record.segment] = record

    def set_state(self, addr: NodeAddress, state: DeviceState) -> ChangeRecord:
        node = self._touch(addr)
        if node is None:
            raise NotFound(f"{addr} not in tree")
        node.state = state
        return ChangeRecord(op="update", address=addr, state=state)

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
            raise AssemblingNodeMissing(f"{new_root.address} not in main tree")
        # Wire-built nodes carry no kind; keep what the stub knew.
        if new_root.kind is None:
            new_root.kind = assembling.kind
        if assembling is self.root:
            self.root = new_root
        else:
            parent = self._touch(new_root.address.parent())
            assert parent is not None
            parent.children[new_root.segment] = new_root
        return (ChangeRecord(op="assemble", embedding=serialize_node(new_root)),)

    def disassemble(self, addr: NodeAddress, offline_state: DeviceState) -> ChangeSet:
        """Mark a silent node offline and drop its whole subtree, keeping the
        node itself as a stub."""
        node = self._touch(addr)
        if node is None:
            raise NotFound(f"{addr} not in tree")
        node.state = offline_state
        node.children.clear()
        return (ChangeRecord(op="disassemble", address=addr, state=offline_state),)

    def apply_changeset(self, changes: ChangeSet) -> None:
        """Replay changes produced against another copy of this tree."""
        for rec in changes:
            try:
                self._apply_one(rec)
            except (TreeError, AddressError) as exc:
                if isinstance(exc, StaleChangeSet):
                    raise
                raise StaleChangeSet(f"cannot apply {rec.op}: {exc}") from exc

    def _apply_one(self, rec: ChangeRecord) -> None:
        if rec.op == "update":
            assert rec.address is not None and rec.state is not None
            self.set_state(rec.address, rec.state)
        elif rec.op == "assemble":
            assert rec.embedding is not None
            self.assemble(rec.embedding)
        elif rec.op == "disassemble":
            assert rec.address is not None and rec.state is not None
            self.disassemble(rec.address, rec.state)
        else:
            raise StaleChangeSet(f"unknown change op {rec.op!r}")

    def validate(self) -> None:
        """Check every structural invariant; raises TreeError on violation."""
        seen: set[NodeAddress] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.address in seen:
                raise DuplicateAddress(f"{node.address} appears twice")
            seen.add(node.address)
            if node.children and node.kind is not DeviceKind.SMN:
                raise ParentNotSMN(f"{node.address} has children but kind {node.kind}")
            for seg, child in node.children.items():
                if child.address.parent() != node.address or child.segment != seg:
                    raise AddressInconsistent(
                        f"{child.address} filed under {node.address} as {seg}"
                    )
            stack.extend(node.children.values())
