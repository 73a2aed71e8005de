"""Brute-force offline session assignment, independent of the engine.

Replays a trace with plain lists and exhaustive scans: connects queue up,
a disconnect stamps the earliest matching open session, and every ordinary
event is assigned by evaluating the membership clauses against every live
session. Session objects are numbered in creation order (independent
single-event alerts included), so an assignment map {event_id: ordinal}
can be compared 1:1 against the engine's session-id counters.
"""

import random

from smnsim.addressing import NodeAddress, TreeShape
from smnsim.device_model import DeviceKind
from smnsim.event_pipeline import ConnectionMarker, NormalizedEvent
from smnsim.session_correlation import CorrelationConfig, CorrelationEngine, SessionAlert

SHAPE = TreeShape(depth=3, max_degree=4)
FW_ADDR = NodeAddress.parse("1.1.1", SHAPE)
IDS_ADDR = NodeAddress.parse("1.1.2", SHAPE)


class _Session:
    def __init__(self, ordinal, start, src, dst):
        self.ordinal = ordinal
        self.start = start
        self.src = src
        self.dst = dst
        self.end = None
        self.deadline = None
        self.queue = []


def _member(ev, sess):
    if ev.create_time < sess.start:
        return False
    if sess.end is not None and ev.create_time > sess.end:
        return False
    if ev.src_ip == sess.src and ev.dst_ip == sess.dst:
        return True
    if ev.src_ip == sess.dst:
        return True
    for queued in sess.queue:
        if ev.src_ip == queued.dst_ip:
            return True
    return False


def belongs_to(ev: NormalizedEvent, alert: SessionAlert) -> bool:
    """Endpoint-and-time membership test against one of the engine's
    alerts: the clauses of ``_member``, read off a ``SessionAlert``."""
    if ev.create_time < alert.start_time:
        return False
    if alert.end_time is not None and ev.create_time > alert.end_time:
        return False
    if ev.src_ip == alert.src_ip and ev.dst_ip == alert.dst_ip:
        return True
    if ev.src_ip == alert.dst_ip:
        return True
    return any(ev.src_ip == queued.dst_ip for queued in alert.event_queue)


def oracle_assignments(trace, grace=60, connect_ttl=600):
    """Map event_id -> session ordinal for every non-marker event."""
    connects = []
    sessions = []
    counter = 0
    out = {}
    for ev in trace:
        now = ev.create_time
        sessions = [
            s for s in sessions if s.deadline is None or s.deadline > now
        ]
        connects = [c for c in connects if now - c.create_time <= connect_ttl]

        if ev.connection_marker is ConnectionMarker.CONNECT:
            connects.append(ev)
            continue
        if ev.connection_marker is ConnectionMarker.DISCONNECT:
            open_matches = [
                s
                for s in sessions
                if s.end is None and s.src == ev.src_ip and s.dst == ev.dst_ip
            ]
            if open_matches:
                victim = min(open_matches, key=lambda s: (s.start, s.ordinal))
                victim.end = ev.create_time
                victim.deadline = now + grace
            else:
                candidates = [
                    c
                    for c in connects
                    if c.src_ip == ev.src_ip
                    and c.dst_ip == ev.dst_ip
                    and c.create_time <= ev.create_time
                ]
                if candidates:
                    latest = max(
                        enumerate(candidates), key=lambda p: (p[1].create_time, p[0])
                    )[1]
                    connects.remove(latest)
            continue

        matches = [s for s in sessions if _member(ev, s)]
        if matches:
            chosen = min(matches, key=lambda s: (s.start, s.ordinal))
            chosen.queue.append(ev)
            out[ev.event_id] = chosen.ordinal
            continue
        candidates = [
            c
            for c in connects
            if c.src_ip == ev.src_ip
            and c.dst_ip == ev.dst_ip
            and c.create_time <= ev.create_time
        ]
        if candidates:
            latest = max(enumerate(candidates), key=lambda p: (p[1].create_time, p[0]))[1]
            connects.remove(latest)
            counter += 1
            sess = _Session(counter, latest.create_time, latest.src_ip, latest.dst_ip)
            sess.queue.append(ev)
            sessions.append(sess)
            out[ev.event_id] = sess.ordinal
        else:
            counter += 1  # independent single-event alert
            out[ev.event_id] = counter
    return out


def engine_assignments(trace, grace=60, connect_ttl=600):
    """Same map produced by the production engine."""
    engine = CorrelationEngine("t", CorrelationConfig(grace=grace, connect_ttl=connect_ttl))
    out = {}
    for ev in trace:
        engine.sweep(ev.create_time)
        for action in engine.on_event(ev, ev.create_time):
            if ev.event_id in action.record.event_ids:
                out[ev.event_id] = int(action.record.session_id.split("#")[1])
    return out


_CLASSES = ["dos.synflood", "exploit.attempt", "recon.sweep", "unknown"]


def random_trace(rng: random.Random, max_events=200, n_hosts=6):
    """Nondecreasing-time event stream over a small host set with connects,
    disconnects and ordinary traffic interleaved at random."""
    hosts = [f"10.0.0.{i + 1}" for i in range(n_hosts)]
    known_pairs = []
    trace = []
    t = 0
    for i in range(rng.randrange(1, max_events + 1)):
        t += rng.randrange(0, 8)
        roll = rng.random()
        if roll < 0.55 or not known_pairs:
            src, dst = rng.sample(hosts, 2)
        else:
            src, dst = rng.choice(known_pairs)
        roll = rng.random()
        if roll < 0.18:
            marker, kind, addr = ConnectionMarker.CONNECT, DeviceKind.FIREWALL, FW_ADDR
            cls = "fw.connect"
            known_pairs.append((src, dst))
        elif roll < 0.32:
            marker, kind, addr = ConnectionMarker.DISCONNECT, DeviceKind.FIREWALL, FW_ADDR
            cls = "fw.disconnect"
        else:
            marker, kind, addr = ConnectionMarker.NONE, DeviceKind.IDS, IDS_ADDR
            cls = rng.choice(_CLASSES)
        trace.append(
            NormalizedEvent(
                event_id=f"r{i}",
                analyzer_address=addr,
                analyzer_kind=kind,
                create_time=t,
                classification=cls,
                src_ip=src,
                src_port=rng.randrange(1024, 65535),
                dst_ip=dst,
                dst_port=rng.choice([80, 443, 22, 445]),
                severity=rng.randrange(1, 6),
                connection_marker=marker,
            )
        )
    return trace


def storm_trace(rng: random.Random, n_pairs=40, n_events=300, n_servers=3):
    """A small correlation storm: many sources connect to few servers, some
    at one tick; events hit a pair's target, move laterally from it to
    internal hosts and onward between them, and some pairs disconnect and
    reconnect within grace. A share of events arrives a few ticks late.

    Returns (now, event) pairs in feed order, with ``now`` nondecreasing and
    never before the event's create time."""
    servers = [f"10.1.0.{i + 1}" for i in range(n_servers)]
    hosts = [f"10.2.0.{i + 1}" for i in range(8)]
    out = []

    def add(now, t, src, dst, marker=ConnectionMarker.NONE):
        fw = marker is not ConnectionMarker.NONE
        out.append((now, NormalizedEvent(
            event_id=f"s{len(out)}",
            analyzer_address=FW_ADDR if fw else IDS_ADDR,
            analyzer_kind=DeviceKind.FIREWALL if fw else DeviceKind.IDS,
            create_time=t,
            classification="fw" if fw else rng.choice(_CLASSES),
            src_ip=src,
            src_port=rng.randrange(1024, 65535),
            dst_ip=dst,
            dst_port=80,
            severity=rng.randrange(1, 6),
            connection_marker=marker,
        )))

    pairs = []
    now = 0
    for i in range(n_pairs):
        now += rng.choice((0, 0, 1, 2))  # same-tick starts are common
        src, dst = f"172.16.0.{i + 1}", rng.choice(servers)
        add(now, now, src, dst, ConnectionMarker.CONNECT)
        if rng.random() < 0.1:
            add(now, now, src, dst, ConnectionMarker.CONNECT)  # doubled connect
        pairs.append({"src": src, "dst": dst, "up": True})
        if rng.random() < 0.5:
            add(now, now, src, dst)
    for _ in range(n_events):
        now += rng.choice((0, 0, 1, 1, 2, 5))
        t = max(0, now - rng.randrange(0, 12)) if rng.random() < 0.2 else now
        p = rng.choice(pairs)
        roll = rng.random()
        if roll < 0.05:
            add(now, t, f"198.51.100.{rng.randrange(1, 50)}", rng.choice(servers))
        elif not p["up"]:
            if rng.random() < 0.6:  # reconnect, often within grace
                add(now, now, p["src"], p["dst"], ConnectionMarker.CONNECT)
                p["up"] = True
            add(now, t, p["src"], p["dst"])
        elif roll < 0.12:
            add(now, now, p["src"], p["dst"], ConnectionMarker.DISCONNECT)
            p["up"] = False
        elif roll < 0.45:
            add(now, t, p["src"], p["dst"])
        elif roll < 0.7:
            add(now, t, p["dst"], rng.choice(hosts))  # lateral from the target
        else:
            a, b = rng.sample(hosts, 2)
            add(now, t, a, b)  # onward between internal hosts
    return out
