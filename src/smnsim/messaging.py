"""Framed messaging over tree links.

Management nodes, device agents and the console mirror exchange typed frames
routed hop by hop along parent/child links: down into the child subtree that
contains the destination, otherwise up toward the common ancestor. Each node
owns a mailbox ordered by priority, FIFO within a priority, so response
coordination overtakes bulk telemetry.

Frames stay Python objects end to end: ``SimNetwork`` moves them hop by hop
and nothing encodes them to bytes. A frame's payload is the object its
receiver reads: for a ``DEVICE_EVENT``, the tuple of ``NormalizedEvent``s
one flush of a device aggregated, in time order; the ``SessionRecord`` of a
``SESSION_ALERT``; an ``Order`` for a ``COMMAND``; one of the coordination
messages below for a ``RESPONSE_COORD``; and text for the other types. A
frame's priority follows from its message type alone.

A route follows the destination's address alone (``next_hop``), so
``SimNetwork.send`` refuses a destination that is not a declared node:
a frame for a foreign root would otherwise climb to the root and land
there. A frame is lost in one way only: a loss window drops it on a hop,
and the network writes it down as a dead letter (see ``SimNetwork``).

Nodes return their frames unnumbered (``seq`` 0). The harness numbers a
frame with its sender's ``FrameBuilder`` when it hands it to the network,
and only then, so the frames of one type a sender puts on the network are
numbered 1, 2, ... without a gap: a frame that never travels (a silenced
node's) takes no number, and a heartbeat its parent takes directly is never
built (see ``simulator``). No report shows a number: a loop that builds
every heartbeat numbers the same frame otherwise, and must report the same.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

from .addressing import NodeAddress
from .event_pipeline import NormalizedEvent
from .session_correlation import SessionRecord, format_session_line


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


Payload = (str | tuple[NormalizedEvent, ...] | SessionRecord | Order | Escalate | Advisory
           | Confirm | Enlisted | Advance)


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
        """The payload, a ``SESSION_ALERT``'s record as its session line.
        Only ``perfbench/tracer.py`` still calls this; the program reads
        ``payload``."""
        if self.msg_type is MsgType.SESSION_ALERT:
            return format_session_line(self.payload)
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


def next_hop(current: NodeAddress, dst: NodeAddress) -> NodeAddress | None:
    """The neighbor to forward through, or None when already at ``dst``: the
    child whose subtree holds ``dst``, otherwise the parent."""
    if current is dst:
        return None
    if current.is_ancestor(dst):
        return current.child(dst.segments[current.level])
    return current.parent()


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


#: (from, to, end, rate): a loss window on the hop from one node to the next
LossWindow = tuple[NodeAddress, NodeAddress, int, float]


def covering_rates(windows: list[LossWindow], at: NodeAddress, hop: NodeAddress) -> list[float]:
    """The rates of ``windows`` on the hop from ``at`` to ``hop``, in the
    order they began."""
    return [rate for src, dst, _, rate in windows if src == at and dst == hop]


class SimNetwork:
    """Store-and-forward fabric advancing one hop per delivery step.

    Delivery is reliable and in order per sender stream, except on a hop
    that one of ``loss_windows`` covers, which is how heartbeat timeout
    paths get exercised. A harness appends each window as it begins, and
    the network removes it at the step that advances ``now`` to its end,
    so it covers the steps from its start up to, not including, its end.
    A frame on a covered hop is tried against each covering window in the
    order they began: a rate of 1 drops it without a draw, any other rate
    draws once from the network's own random source, seeded with ``seed``,
    and drops it when the draw is below the rate. The first window that
    drops the frame ends the tries. A hop no window covers draws nothing, so
    the draws follow from the seed and the frames on covered hops alone. The
    draw is per frame, whatever it carries: a device's flush is one
    ``DEVICE_EVENT`` frame, so a window keeps or drops all its events with
    one draw.

    Each dropped frame is a dead letter: one line in ``dead_letters``,
    ``DEADLETTER <tick> <at>-><hop> <TYPE> <src> <dst>``, where the tick is
    the step that dropped it. The line carries no ``seq`` (see the module
    docstring).
    """

    def __init__(self, addresses: Iterable[NodeAddress], seed: int = 0) -> None:
        self.mailboxes: dict[NodeAddress, Mailbox] = {a: Mailbox() for a in addresses}
        #: every node in address order; a node's index here is its slot
        self.order = sorted(self.mailboxes, key=lambda a: a.segments)
        for addr in self.order:
            parent = addr.parent()
            if parent is not None and parent not in self.mailboxes:
                raise ValueError(f"{addr} declared without its parent {parent}")
        self.slots = {addr: slot for slot, addr in enumerate(self.order)}
        #: the loss windows begun and not yet ended, in the order they began
        self.loss_windows: list[LossWindow] = []
        self._rng = random.Random(seed)
        #: slots whose mailbox a step filled; the reader empties the set
        self.arrived: set[int] = set()
        self.transit: list[tuple[NodeAddress, Frame]] = []
        self.dead_letters: list[str] = []
        #: steps taken so far
        self.now = 0

    @property
    def dropped(self) -> int:
        """The frames loss windows dropped."""
        return len(self.dead_letters)

    def send(self, frame: Frame) -> None:
        if frame.dst not in self.mailboxes:
            raise ValueError(f"{frame.msg_type.name} to {frame.dst}, which is not a declared node")
        self.transit.append((frame.src, frame))

    def _lost(self, at: NodeAddress, hop: NodeAddress) -> bool:
        """Whether a window on the hop from ``at`` to ``hop`` drops the frame
        there (see the class docstring)."""
        for rate in covering_rates(self.loss_windows, at, hop):
            if rate >= 1.0 or self._rng.random() < rate:
                return True
        return False

    def step(self) -> None:
        """Move every frame in transit one hop: into its destination's
        mailbox, on toward it, or into ``dead_letters``. Then advance ``now``
        and drop the loss windows ended by it, in place: hooks hold the list."""
        moving = self.transit
        windows = self.loss_windows
        if moving:
            self.transit = []
            for at, frame in moving:
                dst = frame.dst
                # one hop up to the parent, as every heartbeat goes, or routed
                hop = dst if dst is at.parent() else next_hop(at, dst)
                if hop is None:
                    hop = at
                elif windows and self._lost(at, hop):
                    self.dead_letters.append(
                        f"DEADLETTER {self.now} {at}->{hop} "
                        f"{frame.msg_type.name} {frame.src} {dst}"
                    )
                    continue
                elif hop is not dst:
                    self.transit.append((hop, frame))
                    continue
                self.mailboxes[hop].push(frame)
                self.arrived.add(self.slots[hop])
        self.now += 1
        if windows:
            # a default: before 3.12 a comprehension makes ``self`` a cell, slowing every step
            windows[:] = filter(lambda w, now=self.now: w[2] > now, windows)

    def poll(self, addr: NodeAddress) -> Frame | None:
        return self.mailboxes[addr].pop()
