"""Framed messaging over tree links.

Management nodes, device agents and the console mirror exchange typed frames
routed hop by hop along parent/child links: down into the child subtree that
contains the destination, otherwise up toward the common ancestor. Each node
owns a mailbox ordered by priority, FIFO within a priority, so response
coordination overtakes bulk telemetry.

Frames stay Python objects end to end: ``SimNetwork`` moves them hop by hop
and nothing encodes them to bytes. A frame's payload is the object its
receiver reads: the ``NormalizedEvent`` of a ``DEVICE_EVENT``, an ``Order``
for a ``COMMAND``, one of the coordination messages below for a
``RESPONSE_COORD``, and text for the other types. A frame's priority
follows from its message type alone.

Nodes return their frames unnumbered (``seq`` 0). The harness numbers a
frame with its sender's ``FrameBuilder`` when it hands it to the network,
and only then, so the frames of one type a sender puts on the network are
numbered 1, 2, ... without a gap: a frame that never travels (a silenced
node's) takes no number, and a heartbeat its parent takes directly is never
built (see ``simulator``). A number shows only in a ``DEADLETTER`` line, so
where frames are numbered changes no report without a dead letter.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

from .addressing import NodeAddress
from .event_pipeline import NormalizedEvent


@dataclass(frozen=True, slots=True)
class Order:
    """A ``COMMAND``'s payload: what to run, and the id its ACK carries."""

    kind: str
    cmd_id: str


# ``RESPONSE_COORD`` payloads, one per step of the emergency response. Each
# names its case; the receiver takes the sender from the frame.


@dataclass(frozen=True, slots=True)
class Escalate:
    """Owner to the SMN above it: coordinate the case."""

    case_id: str


@dataclass(frozen=True, slots=True)
class Advisory:
    """Coordinator to an enlisted node: contain, and confirm to ``owner``."""

    case_id: str
    owner: NodeAddress


@dataclass(frozen=True, slots=True)
class Confirm:
    """Enlisted node to the owner: the advisory is carried out."""

    case_id: str


@dataclass(frozen=True, slots=True)
class Enlisted:
    """Coordinator to the owner: ``targets`` were sent the advisory."""

    case_id: str
    targets: tuple[NodeAddress, ...]


@dataclass(frozen=True, slots=True)
class Advance:
    """Coordinator to the owner: move the case to its next phase."""

    case_id: str


Payload = str | NormalizedEvent | Order | Escalate | Advisory | Confirm | Enlisted | Advance


class Unroutable(Exception):
    """No tree link leads from a node toward a frame's destination."""


class MsgType(Enum):
    NETWORK_TEST = 1
    DEVICE_STATE_PKG = 2
    DEVICE_EVENT = 3
    SESSION_ALERT = 4
    TOPOLOGY_REPORT = 5
    COMMAND = 6
    COMMAND_ACK = 7
    RESPONSE_COORD = 8


#: Mailbox order by message type, keyed by its value (an int hashes in C,
#: an ``Enum`` member in Python): lower pops first.
PRIORITY = {
    MsgType.RESPONSE_COORD.value: 0,
    MsgType.COMMAND.value: 1,
    MsgType.COMMAND_ACK.value: 1,
    MsgType.SESSION_ALERT.value: 2,
    MsgType.TOPOLOGY_REPORT.value: 2,
    MsgType.DEVICE_EVENT.value: 3,
    MsgType.DEVICE_STATE_PKG.value: 3,
    MsgType.NETWORK_TEST.value: 3,
}


@dataclass(slots=True)
class Frame:
    msg_type: MsgType
    src: NodeAddress
    dst: NodeAddress
    payload: Payload = ""
    #: 0 until the sender's ``FrameBuilder`` numbers the frame
    seq: int = 0

    def text(self) -> Payload:
        """The payload. Only ``perfbench/tracer.py`` still calls this; the
        program reads ``payload``."""
        return self.payload


class FrameBuilder:
    """Numbers one sender's frames, with one counter per message type."""

    def __init__(self) -> None:
        #: by message type value, as ``PRIORITY`` is keyed
        self._seq: dict[int, int] = {}

    def build(self, frame: Frame) -> None:
        """Stamp ``frame`` with the next number of its type."""
        key = frame.msg_type._value_
        seq = self._seq.get(key, 0) + 1
        self._seq[key] = seq
        frame.seq = seq


# ---------------------------------------------------------------------------
# Routing


def next_hop(
    current: NodeAddress, dst: NodeAddress, parents: dict[NodeAddress, NodeAddress | None]
) -> NodeAddress | None:
    """The neighbor to forward through, or None when already at ``dst``.
    ``parents`` holds the parent of every node of the tree."""
    if current not in parents:
        raise Unroutable(f"{current} has no link entry")
    if current == dst:
        return None
    if current.is_ancestor(dst):
        # the child's parent is ``current`` by construction
        child = current.child(dst.segments[current.level])
        if child not in parents:
            raise Unroutable(f"{dst} not reachable below {current}")
        return child
    parent = parents[current]
    if parent is None:
        raise Unroutable(f"{dst} not in tree below root {current}")
    return parent


# ---------------------------------------------------------------------------
# Simulated network


class Mailbox:
    """Inbound frames, dequeued by ascending priority then arrival order."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Frame]] = []
        self._counter = 0

    def push(self, frame: Frame) -> None:
        heapq.heappush(self._heap, (PRIORITY[frame.msg_type._value_], self._counter, frame))
        self._counter += 1

    def pop(self) -> Frame | None:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


@dataclass(frozen=True)
class DeadLetter:
    frame: Frame
    reason: str

    def line(self) -> str:
        f = self.frame
        return f"DEADLETTER {f.src} {f.dst} {f.msg_type.name} {f.seq}"


class SimNetwork:
    """Store-and-forward fabric advancing one hop per delivery step.

    Delivery is reliable and in order per sender stream unless the optional
    loss hook drops a frame on a specific hop, which is how heartbeat
    timeout paths get exercised. The hook is called as ``loss_hook(frame,
    at, hop, now)``, where ``now`` counts the steps taken before this one: a
    harness that steps once per tick reads it as the tick.
    """

    def __init__(self, addresses: Iterable[NodeAddress], loss_hook=None) -> None:
        #: the tree links: every node's parent; every parent must be a node
        self.parents = {addr: addr.parent() for addr in addresses}
        for addr, parent in self.parents.items():
            if parent is not None and parent not in self.parents:
                raise ValueError(f"{addr} declared without its parent {parent}")
        self.loss_hook = loss_hook
        #: every node in address order; a node's index here is its slot
        self.order = sorted(self.parents, key=lambda a: a.segments)
        self.slots = {addr: slot for slot, addr in enumerate(self.order)}
        self.mailboxes: dict[NodeAddress, Mailbox] = {a: Mailbox() for a in self.parents}
        #: slots whose mailbox a step filled; the reader empties the set
        self.arrived: set[int] = set()
        self.transit: list[tuple[NodeAddress, Frame]] = []
        self.dead_letters: list[DeadLetter] = []
        self.dropped = 0
        #: steps taken so far
        self.now = 0

    def send(self, frame: Frame) -> None:
        self.transit.append((frame.src, frame))

    def step(self) -> None:
        moving, self.transit = self.transit, []
        parents, lossy, now = self.parents, self.loss_hook, self.now
        for at, frame in moving:
            dst = frame.dst
            if dst is parents.get(at):
                # one hop up to the parent, as every heartbeat goes
                hop = dst
            else:
                try:
                    hop = next_hop(at, dst, parents)
                except Unroutable as exc:
                    self.dead_letters.append(DeadLetter(frame, str(exc)))
                    continue
            if hop is None:
                hop = at
            elif lossy is not None and lossy(frame, at, hop, now):
                self.dropped += 1
                continue
            elif hop is not dst:
                self.transit.append((hop, frame))
                continue
            self.mailboxes[hop].push(frame)
            self.arrived.add(self.slots[hop])
        self.now = now + 1

    def poll(self, addr: NodeAddress) -> Frame | None:
        return self.mailboxes[addr].pop()
