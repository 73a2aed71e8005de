import random

import pytest

from smnsim.addressing import NodeAddress, TreeShape
from smnsim.device_model import DeviceKind
from smnsim.event_pipeline import ConnectionMarker, NormalizedEvent
from smnsim.session_correlation import (
    CorrelationConfig,
    CorrelationEngine,
    SessionAlert,
    SessionInfo,
    SessionStatus,
    belongs_to,
    format_session_line,
)

from oracle_correlation import engine_assignments, oracle_assignments, random_trace, storm_trace

SHAPE = TreeShape(depth=3, max_degree=4)
FW = NodeAddress.parse("1.1.1", SHAPE)
IDS = NodeAddress.parse("1.1.2", SHAPE)


def ev(eid, t, src, dst, marker=ConnectionMarker.NONE, cls="exploit.attempt", sev=3):
    kind = DeviceKind.FIREWALL if marker is not ConnectionMarker.NONE else DeviceKind.IDS
    return NormalizedEvent(
        event_id=eid,
        analyzer_address=FW if marker is not ConnectionMarker.NONE else IDS,
        analyzer_kind=kind,
        create_time=t,
        classification=cls,
        src_ip=src,
        src_port=4242,
        dst_ip=dst,
        dst_port=80,
        severity=sev,
        connection_marker=marker,
    )


def alert(src="10.0.0.1", dst="10.0.0.2", start=10, end=None):
    return SessionAlert(
        session_id="t#1",
        info=SessionInfo(
            src_ip=src, src_port=4242, dst_ip=dst, dst_port=80, start_time=start, end_time=end
        ),
    )


# -- membership test ----------------------------------------------------------


def test_belongs_same_direction():
    assert belongs_to(ev("e", 15, "10.0.0.1", "10.0.0.2"), alert())


def test_belongs_reverse_direction():
    assert belongs_to(ev("e", 20, "10.0.0.2", "10.0.0.9"), alert())


def test_belongs_rejects_unrelated():
    assert not belongs_to(ev("e", 15, "10.0.0.3", "10.0.0.4"), alert())


def test_belongs_rejects_before_start():
    assert not belongs_to(ev("e", 5, "10.0.0.1", "10.0.0.2"), alert(start=10))


def test_belongs_rejects_after_end():
    assert not belongs_to(ev("e", 99, "10.0.0.1", "10.0.0.2"), alert(end=50))


def test_belongs_lateral_via_queue():
    a = alert()
    a.event_queue.append(ev("q", 12, "10.0.0.1", "10.0.0.7"))
    assert belongs_to(ev("e", 15, "10.0.0.7", "10.0.0.8"), a)


def test_belongs_open_session_admits_late_events():
    assert belongs_to(ev("e", 10_000, "10.0.0.1", "10.0.0.2"), alert())


# -- engine algorithm ----------------------------------------------------------


def engine():
    return CorrelationEngine("t", CorrelationConfig(grace=60, connect_ttl=600))


def test_connect_then_event_builds_session():
    e = engine()
    assert e.on_event(ev("c", 10, "A", "B", ConnectionMarker.CONNECT), 10) == []
    actions = e.on_event(ev("x", 15, "A", "B"), 15)
    assert [a.kind for a in actions] == ["update"]
    assert len(e.store.alerts) == 1
    a = e.store.alerts[0]
    assert a.info.start_time == 10
    assert [x.event_id for x in a.event_queue] == ["x"]
    assert e.conn_queue.entries == []


def test_lone_event_is_independent_alert():
    e = engine()
    actions = e.on_event(ev("x", 30, "C", "D"), 30)
    assert [a.kind for a in actions] == ["ending"]
    rec = actions[0].record
    assert rec.start_time == rec.end_time == 30
    assert rec.event_ids == ("x",)
    assert e.store.alerts == []


def test_disconnect_ends_session():
    e = engine()
    e.on_event(ev("c", 10, "A", "B", ConnectionMarker.CONNECT), 10)
    e.on_event(ev("x", 15, "A", "B"), 15)
    actions = e.on_event(ev("d", 40, "A", "B", ConnectionMarker.DISCONNECT), 40)
    assert [a.kind for a in actions] == ["ending"]
    a = e.store.alerts[0]
    assert a.info.end_time == 40
    assert a.status is SessionStatus.DESTROY_PENDING
    assert a.destroy_deadline == 100


def test_unmatched_disconnect_removes_stale_connect():
    e = engine()
    e.on_event(ev("c", 10, "A", "B", ConnectionMarker.CONNECT), 10)
    assert e.on_event(ev("d", 20, "A", "B", ConnectionMarker.DISCONNECT), 20) == []
    assert e.conn_queue.entries == []


def test_unmatched_disconnect_without_connect_is_noop():
    e = engine()
    assert e.on_event(ev("d", 20, "A", "B", ConnectionMarker.DISCONNECT), 20) == []


def test_event_queue_stays_time_sorted():
    e = engine()
    e.on_event(ev("c", 10, "A", "B", ConnectionMarker.CONNECT), 10)
    for eid, t in (("x", 30), ("y", 20), ("z", 25)):
        e.on_event(ev(eid, t, "A", "B"), t)
    a = e.store.alerts[0]
    assert [x.event_id for x in a.event_queue] == ["y", "z", "x"]


def test_earliest_started_alert_wins():
    e = engine()
    e.on_event(ev("c1", 10, "A", "B", ConnectionMarker.CONNECT), 10)
    e.on_event(ev("x1", 12, "A", "B"), 12)
    e.on_event(ev("d", 14, "A", "B", ConnectionMarker.DISCONNECT), 14)
    e.on_event(ev("c2", 20, "A", "B", ConnectionMarker.CONNECT), 20)
    e.on_event(ev("x2", 25, "A", "B"), 25)
    # both alerts still live; t=13 fits only the first alert's window
    actions = e.on_event(ev("late", 13, "A", "B"), 26)
    assert actions[0].record.start_time == 10


def test_latest_connect_not_after_event_wins():
    e = engine()
    e.on_event(ev("c1", 10, "A", "B", ConnectionMarker.CONNECT), 10)
    e.on_event(ev("c2", 20, "A", "B", ConnectionMarker.CONNECT), 20)
    actions = e.on_event(ev("x", 25, "A", "B"), 25)
    assert actions[0].record.start_time == 20
    assert len(e.conn_queue.entries) == 1


def test_sweep_deadline():
    e = engine()
    e.on_event(ev("c", 10, "A", "B", ConnectionMarker.CONNECT), 10)
    e.on_event(ev("x", 15, "A", "B"), 15)
    e.on_event(ev("d", 40, "A", "B", ConnectionMarker.DISCONNECT), 40)
    assert e.sweep(99) == []
    assert len(e.store.alerts) == 1
    removed = e.sweep(101)
    assert [a.session_id for a in removed] == ["t#1"]
    assert e.store.alerts == []


def test_sweep_expires_stale_connects():
    e = engine()
    e.on_event(ev("c", 10, "A", "B", ConnectionMarker.CONNECT), 10)
    e.sweep(610)
    assert len(e.conn_queue.entries) == 1
    e.sweep(611)
    assert e.conn_queue.entries == []


def test_on_event_sweeps_to_the_tick_before():
    """With no explicit sweep, a straggler inside an ended session joins it
    up to the destroy deadline and stands alone after it; a connect binds up
    to ``connect_ttl`` ticks after it and not later."""
    e = engine()
    e.on_event(ev("c", 10, "A", "B", ConnectionMarker.CONNECT), 10)
    e.on_event(ev("x", 15, "A", "B"), 15)
    e.on_event(ev("d", 40, "A", "B", ConnectionMarker.DISCONNECT), 40)
    assert e.store.alerts[0].destroy_deadline == 100
    assert [a.kind for a in e.on_event(ev("s1", 30, "A", "B"), 100)] == ["update"]
    assert e.joined_events == 2
    actions = e.on_event(ev("s2", 30, "A", "B"), 101)
    assert [(a.kind, a.record.event_ids) for a in actions] == [("ending", ("s2",))]
    assert e.store.alerts == [] and e.independent_events == 1
    assert e.swept == 100
    e.on_event(ev("c2", 200, "C", "D", ConnectionMarker.CONNECT), 200)
    assert [a.kind for a in e.on_event(ev("y", 205, "C", "D"), 801)] == ["update"]
    e.on_event(ev("c3", 200, "E", "F", ConnectionMarker.CONNECT), 200)
    assert [a.kind for a in e.on_event(ev("z", 205, "E", "F"), 802)] == ["ending"]


def test_an_explicit_sweep_makes_the_inner_one_a_no_op(monkeypatch):
    e = engine()
    calls = []
    sweep = e.sweep
    monkeypatch.setattr(e, "sweep", lambda now: calls.append(now) or sweep(now))
    e.sweep(20)
    e.on_event(ev("x", 20, "A", "B"), 20)
    e.on_event(ev("y", 21, "A", "B"), 21)
    e.on_event(ev("z", 23, "A", "B"), 23)
    assert calls == [20, 22]


def test_two_connects_at_one_tick_give_two_sessions():
    """The second connect of a doubled one binds after the first alert has
    ended, while that alert is still live: two live alerts then share
    endpoints and start, and the later event opens a second session."""
    trace = [
        ev("c1", 20, "A", "B", ConnectionMarker.CONNECT),
        ev("c2", 20, "A", "B", ConnectionMarker.CONNECT),
        ev("x", 25, "A", "B"),
        ev("d", 30, "A", "B", ConnectionMarker.DISCONNECT),
        ev("y", 35, "A", "B"),
    ]
    e = engine()
    for x in trace[:-1]:
        e.on_event(x, x.create_time)
    actions = e.on_event(trace[-1], 35)
    assert [(a.kind, a.record.session_id, a.record.event_ids) for a in actions] == [
        ("update", "t#2", ("y",))
    ]
    assert [(a.session_id, a.info.start_time) for a in e.store.alerts] == [
        ("t#1", 20), ("t#2", 20)
    ]
    assert engine_assignments(trace) == oracle_assignments(trace) == {"x": 1, "y": 2}


# An A->B event travels "pair"'s direction, originates at "dst"'s target
# and at the target of the event queued in "queued".
CLAUSES = {
    "pair": (("A", "B"), None),
    "dst": (("C", "A"), None),
    "queued": (("E", "F"), ("F", "A")),
}


@pytest.mark.parametrize(
    "first,second",
    [("pair", "queued"), ("queued", "pair"), ("dst", "queued"), ("queued", "dst"),
     ("pair", "dst")],
)
def test_equal_starts_through_different_clauses_first_created_wins(first, second):
    e = engine()
    for name in (first, second):
        e.on_event(ev(f"c-{name}", 10, *CLAUSES[name][0], ConnectionMarker.CONNECT), 10)
    for name in (first, second):
        e.on_event(ev(f"x-{name}", 11, *CLAUSES[name][0]), 11)
    for name in (first, second):
        if CLAUSES[name][1]:
            e.on_event(ev(f"y-{name}", 12, *CLAUSES[name][1]), 12)
    assert [a.session_id for a in e.store.alerts] == ["t#1", "t#2"]
    (action,) = e.on_event(ev("probe", 13, "A", "B"), 13)
    assert action.record.session_id == "t#1"
    assert action.record.src.startswith(CLAUSES[first][0][0] + ":")


def test_equal_starts_through_queued_targets_first_created_wins():
    """Both alerts queue an event to H, the later-created one first; an
    event from H joins the one created first."""
    e = engine()
    e.on_event(ev("c1", 10, "A", "B", ConnectionMarker.CONNECT), 10)
    e.on_event(ev("c2", 10, "C", "D", ConnectionMarker.CONNECT), 10)
    e.on_event(ev("x1", 11, "A", "B"), 11)
    e.on_event(ev("y1", 11, "C", "D"), 11)
    (y2,) = e.on_event(ev("y2", 12, "D", "H"), 12)
    (x2,) = e.on_event(ev("x2", 13, "B", "H"), 13)
    assert (x2.record.session_id, y2.record.session_id) == ("t#1", "t#2")
    (action,) = e.on_event(ev("z", 14, "H", "Z"), 14)
    assert action.record.session_id == "t#1"
    assert action.record.event_ids == ("x1", "x2", "z")


def test_disconnect_ends_the_earliest_started_of_two_open_alerts():
    """The alert from tick 20 is created first; a late event then opens the
    one from tick 10, and the disconnect ends that one."""
    e = engine()
    e.on_event(ev("c1", 10, "A", "B", ConnectionMarker.CONNECT), 10)
    e.on_event(ev("c2", 20, "A", "B", ConnectionMarker.CONNECT), 20)
    e.on_event(ev("x", 21, "A", "B"), 21)
    e.on_event(ev("late", 15, "A", "B"), 22)
    assert [(a.session_id, a.info.start_time) for a in e.store.alerts] == [
        ("t#1", 20), ("t#2", 10)
    ]
    (action,) = e.on_event(ev("d", 30, "A", "B", ConnectionMarker.DISCONNECT), 30)
    assert (action.kind, action.record.session_id) == ("ending", "t#2")
    assert [a.status for a in e.store.alerts] == [
        SessionStatus.OPEN, SessionStatus.DESTROY_PENDING
    ]


@pytest.mark.parametrize("src", ["A", "B", "H"])
def test_removed_alert_matches_nothing_after_its_deadline(src):
    """From its direction, its target or a queued target, an event inside
    the ended span joins the alert up to the deadline and stands alone
    after it."""
    e = engine()
    e.on_event(ev("c", 10, "A", "B", ConnectionMarker.CONNECT), 10)
    e.on_event(ev("x", 11, "A", "B"), 11)
    e.on_event(ev("lat", 12, "B", "H"), 12)
    e.on_event(ev("d", 20, "A", "B", ConnectionMarker.DISCONNECT), 20)
    dst = "B" if src == "A" else "Z"
    (joined,) = e.on_event(ev("in", 15, src, dst), 80)
    assert (joined.kind, joined.record.session_id) == ("update", "t#1")
    e.sweep(80)
    assert e.store.alerts == []
    (alone,) = e.on_event(ev("out", 15, src, dst), 81)
    assert (alone.kind, alone.record.event_ids) == ("ending", ("out",))
    assert e.independent_events == 1


def test_store_keeps_creation_order_after_removals():
    e = engine()
    for i, src in enumerate("PQRST"):
        e.on_event(ev(f"c{src}", 10 + i, src, "B", ConnectionMarker.CONNECT), 10 + i)
        e.on_event(ev(f"x{src}", 10 + i, src, "B"), 10 + i)
    for src in "QS":
        e.on_event(ev(f"d{src}", 20, src, "B", ConnectionMarker.DISCONNECT), 20)
    e.sweep(80)
    assert [a.session_id for a in e.store.alerts] == ["t#1", "t#3", "t#5"]
    e.on_event(ev("cU", 81, "U", "V", ConnectionMarker.CONNECT), 81)
    e.on_event(ev("xU", 81, "U", "V"), 81)
    assert [a.session_id for a in e.store.alerts] == ["t#1", "t#3", "t#5", "t#6"]


def test_session_line_format():
    e = engine()
    e.on_event(ev("c", 10, "A", "B", ConnectionMarker.CONNECT), 10)
    e.on_event(ev("x", 15, "A", "B"), 15)
    actions = e.on_event(ev("d", 40, "A", "B", ConnectionMarker.DISCONNECT), 40)
    line = format_session_line(actions[0].record)
    assert line == "SESSION t#1 A:4242 B:80 10 40 1 [x]"


def test_open_session_line_shows_open():
    e = engine()
    e.on_event(ev("c", 10, "A", "B", ConnectionMarker.CONNECT), 10)
    e.on_event(ev("x", 15, "A", "B"), 15)
    line = format_session_line(e.snapshot(e.store.alerts[0]))
    assert " open " in line


def test_accounting_counters():
    e = engine()
    e.on_event(ev("c", 10, "A", "B", ConnectionMarker.CONNECT), 10)
    e.on_event(ev("x", 15, "A", "B"), 15)
    e.on_event(ev("lone", 16, "C", "D"), 16)
    assert e.joined_events == 1
    assert e.independent_events == 1


# -- oracle equivalence, and the indexed match against a scan ------------------


def _ordinal(alert):
    return int(alert.session_id.split("#")[1])


def fed_against_scan(trace, sweep_first=True):
    """Feed (now, event) pairs, checking at every ordinary event that the
    engine joins the alert a scan of ``store.alerts`` picks: the
    earliest-started one ``belongs_to`` accepts, the first of equals in
    store order; and that the store stays in creation order. Returns how
    many events had tied candidates and how many alerts were removed."""
    e = engine()
    ties = 0
    seen: set[str] = set()
    for now, x in trace:
        if sweep_first:
            e.sweep(now)
        ordinary = x.connection_marker is ConnectionMarker.NONE
        if ordinary:
            # what on_event's own sweep to now - 1 leaves
            horizon = max(e.swept, now - 1)
            live = [
                a
                for a in e.store.alerts
                if a.destroy_deadline is None or a.destroy_deadline > horizon
            ]
            accepted = [a for a in live if belongs_to(x, a)]
            want = min(accepted, key=lambda a: a.info.start_time, default=None)
            if want is not None:
                ties += sum(a.info.start_time == want.info.start_time for a in accepted) > 1
            known = {a.session_id for a in e.store.alerts}
        actions = e.on_event(x, now)
        if ordinary:
            (action,) = actions
            sid = action.record.session_id
            assert (sid if sid in known else None) == (want and want.session_id), x
        ordinals = [_ordinal(a) for a in e.store.alerts]
        assert ordinals == sorted(ordinals)
        seen.update(a.session_id for a in e.store.alerts)
    return ties, len(seen) - len(e.store.alerts)


@pytest.mark.parametrize("seed", range(120))
def test_oracle_equivalence_random_traces(seed):
    rng = random.Random(seed)
    trace = random_trace(rng)
    assert engine_assignments(trace) == oracle_assignments(trace)
    fed_against_scan([(x.create_time, x) for x in trace])


def test_index_agrees_with_scan_on_storm_traces():
    """Many sources on few targets, lateral chains, reconnects within grace,
    same-tick starts and late events; every third trace is fed without an
    outer sweep. The family must reach ties and removals to be worth it."""
    ties = removed = 0
    for seed in range(24):
        t, r = fed_against_scan(storm_trace(random.Random(seed)), sweep_first=seed % 3 != 0)
        ties += t
        removed += r
    assert ties > 0 and removed > 0


def test_no_event_assigned_twice():
    rng = random.Random(424242)
    trace = random_trace(rng, max_events=200)
    engine_map = engine_assignments(trace)
    non_markers = [
        e for e in trace if e.connection_marker is ConnectionMarker.NONE
    ]
    assert len(engine_map) == len(non_markers)
