"""Framed messaging over tree links.

Management nodes, device agents and the console mirror exchange typed frames
routed hop by hop along parent/child links: down into the child subtree that
contains the destination, otherwise up toward the common ancestor. Each node
owns a mailbox ordered by priority, FIFO within a priority, so response
coordination overtakes bulk telemetry.

Wire layout (all integers big-endian)::

    total_len(4) version(1) msg_type(1) priority(1)
    src_len(1) src dst_len(1) dst seq(4) sent_at(8)
    payload_len(4) payload

``total_len`` counts the whole frame including itself. Addresses travel in
their canonical dotted form.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum

from .addressing import AddressError, NodeAddress, TreeShape


class FrameError(Exception):
    pass


class PayloadTooLarge(FrameError):
    pass


class TruncatedFrame(FrameError):
    pass


class BadVersion(FrameError):
    pass


class UnknownMsgType(FrameError):
    pass


class TrailingBytes(FrameError):
    pass


class Unroutable(FrameError):
    pass


class MsgType(Enum):
    NETWORK_TEST = 1
    DEVICE_STATE_PKG = 2
    DEVICE_EVENT = 3
    SESSION_ALERT = 4
    TOPOLOGY_REPORT = 5
    COMMAND = 6
    COMMAND_ACK = 7
    RESPONSE_COORD = 8


DEFAULT_PRIORITY = {
    MsgType.RESPONSE_COORD: 0,
    MsgType.COMMAND: 1,
    MsgType.COMMAND_ACK: 1,
    MsgType.SESSION_ALERT: 2,
    MsgType.TOPOLOGY_REPORT: 2,
    MsgType.DEVICE_EVENT: 3,
    MsgType.DEVICE_STATE_PKG: 3,
    MsgType.NETWORK_TEST: 3,
}

PROTOCOL_VERSION = 1
MAX_PAYLOAD = 2**24


@dataclass(frozen=True)
class Frame:
    msg_type: MsgType
    priority: int
    src: NodeAddress
    dst: NodeAddress
    seq: int
    sent_at: int
    payload: bytes = b""
    version: int = PROTOCOL_VERSION

    def __post_init__(self) -> None:
        if not 0 <= self.priority <= 3:
            raise ValueError(f"priority {self.priority} outside 0..3")
        if self.seq < 0 or self.sent_at < 0:
            raise ValueError("seq and sent_at must be non-negative")

    def text(self) -> str:
        return self.payload.decode("utf-8")


class FrameBuilder:
    """Stamps outbound frames with one monotone counter per message type."""

    def __init__(self, src: NodeAddress) -> None:
        self.src = src
        self._seq: dict[MsgType, int] = {}

    def build(
        self,
        msg_type: MsgType,
        dst: NodeAddress,
        sent_at: int,
        payload: bytes | str = b"",
        priority: int | None = None,
    ) -> Frame:
        seq = self._seq.get(msg_type, 0) + 1
        self._seq[msg_type] = seq
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        return Frame(
            msg_type=msg_type,
            priority=DEFAULT_PRIORITY[msg_type] if priority is None else priority,
            src=self.src,
            dst=dst,
            seq=seq,
            sent_at=sent_at,
            payload=payload,
        )


def _addr_bytes(addr: NodeAddress) -> bytes:
    text = str(addr).encode("ascii")
    if len(text) > 255:
        raise FrameError(f"address too long: {addr}")
    return bytes([len(text)]) + text


def encode_frame(frame: Frame) -> bytes:
    if len(frame.payload) > MAX_PAYLOAD:
        raise PayloadTooLarge(f"payload of {len(frame.payload)} bytes")
    body = bytes([frame.version, frame.msg_type.value, frame.priority])
    body += _addr_bytes(frame.src)
    body += _addr_bytes(frame.dst)
    body += frame.seq.to_bytes(4, "big")
    body += frame.sent_at.to_bytes(8, "big")
    body += len(frame.payload).to_bytes(4, "big")
    body += frame.payload
    return (4 + len(body)).to_bytes(4, "big") + body


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedFrame(f"needed {n} bytes at offset {self.pos}")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def take_int(self, n: int) -> int:
        return int.from_bytes(self.take(n), "big")


def decode_frame(data: bytes, shape: TreeShape) -> Frame:
    reader = _Reader(data)
    total = reader.take_int(4)
    if total > len(data):
        raise TruncatedFrame(f"frame claims {total} bytes, have {len(data)}")
    if total < len(data):
        raise TrailingBytes(f"{len(data) - total} bytes after frame end")
    version = reader.take_int(1)
    if version != PROTOCOL_VERSION:
        raise BadVersion(f"version {version}")
    type_code = reader.take_int(1)
    try:
        msg_type = MsgType(type_code)
    except ValueError as exc:
        raise UnknownMsgType(f"message type code {type_code}") from exc
    priority = reader.take_int(1)
    try:
        src = NodeAddress.parse(reader.take(reader.take_int(1)).decode("ascii"), shape)
        dst = NodeAddress.parse(reader.take(reader.take_int(1)).decode("ascii"), shape)
    except (AddressError, UnicodeDecodeError) as exc:
        raise TruncatedFrame(f"bad address field: {exc}") from exc
    seq = reader.take_int(4)
    sent_at = reader.take_int(8)
    payload = reader.take(reader.take_int(4))
    if reader.pos != total:
        raise TruncatedFrame("frame length does not match fields")
    return Frame(
        msg_type=msg_type,
        priority=priority,
        src=src,
        dst=dst,
        seq=seq,
        sent_at=sent_at,
        payload=payload,
        version=version,
    )


# ---------------------------------------------------------------------------
# Routing


@dataclass(frozen=True)
class Links:
    parent: NodeAddress | None
    children: frozenset[NodeAddress]


class LinkTable:
    """Tree links: every node knows its parent and children, nothing else."""

    def __init__(self, entries: dict[NodeAddress, Links]) -> None:
        self.entries = entries

    @classmethod
    def from_addresses(cls, addresses: list[NodeAddress]) -> "LinkTable":
        parents = {addr: addr.parent() for addr in addresses}
        children: dict[NodeAddress, set[NodeAddress]] = {a: set() for a in parents}
        for addr, parent in parents.items():
            if parent is None:
                continue
            if parent not in children:
                raise ValueError(f"{addr} declared without its parent {parent}")
            children[parent].add(addr)
        return cls(
            {a: Links(parent=p, children=frozenset(children[a])) for a, p in parents.items()}
        )

    def __contains__(self, addr: NodeAddress) -> bool:
        return addr in self.entries

    def __iter__(self):
        return iter(self.entries)


def next_hop(
    current: NodeAddress, dst: NodeAddress, links: LinkTable
) -> NodeAddress | None:
    """The neighbor to forward through, or None when already at ``dst``."""
    if current not in links:
        raise Unroutable(f"{current} has no link entry")
    if current == dst:
        return None
    if current.is_ancestor(dst):
        child = current.child(dst.segments[current.level])
        if child not in links.entries[current].children:
            raise Unroutable(f"{dst} not reachable below {current}")
        return child
    parent = links.entries[current].parent
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
        heapq.heappush(self._heap, (frame.priority, self._counter, frame))
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
    timeout paths get exercised.
    """

    def __init__(self, links: LinkTable, loss_hook=None) -> None:
        self.links = links
        self.loss_hook = loss_hook
        #: every node in address order; a node's index here is its slot
        self.order = sorted(links, key=lambda a: a.segments)
        self.slots = {addr: slot for slot, addr in enumerate(self.order)}
        self.mailboxes: dict[NodeAddress, Mailbox] = {a: Mailbox() for a in links}
        #: slots whose mailbox a step filled; the reader empties the set
        self.arrived: set[int] = set()
        self.transit: list[tuple[NodeAddress, Frame]] = []
        self.dead_letters: list[DeadLetter] = []
        self.dropped = 0

    def send(self, frame: Frame) -> None:
        self.transit.append((frame.src, frame))

    def step(self) -> None:
        moving, self.transit = self.transit, []
        for at, frame in moving:
            try:
                hop = next_hop(at, frame.dst, self.links)
            except Unroutable as exc:
                self.dead_letters.append(DeadLetter(frame, str(exc)))
                continue
            if hop is None:
                hop = at
            elif self.loss_hook is not None and self.loss_hook(frame, at, hop):
                self.dropped += 1
                continue
            elif hop != frame.dst:
                self.transit.append((hop, frame))
                continue
            self.mailboxes[hop].push(frame)
            self.arrived.add(self.slots[hop])

    def poll(self, addr: NodeAddress) -> Frame | None:
        return self.mailboxes[addr].pop()

    def pending(self, addr: NodeAddress) -> int:
        return len(self.mailboxes[addr])

    def in_flight(self) -> int:
        return len(self.transit) + sum(len(m) for m in self.mailboxes.values())
