import pytest

from smnsim.addressing import AddressError, NodeAddress, TreeShape
from smnsim.device_model import (
    LEAF_STATES,
    WAITING_STATES,
    DeviceKind,
    DeviceState,
    DeviceStatus,
    TransferCondition,
)
from smnsim.emergency_response import CounterplanStore, ResponseError, ResponsePhase
from smnsim.event_pipeline import (
    AssetDb,
    AssetRecord,
    ClassificationMap,
    ConnectionMarker,
    NormalizedEvent,
)
from smnsim.messaging import (
    Advance,
    Advisory,
    Confirm,
    Enlisted,
    Escalate,
    Frame,
    MsgType,
    Order,
)
from smnsim.node_runtime import (
    NEVER,
    DeviceAgent,
    HeartbeatConfig,
    PipelineSettings,
    SmnNode,
)
from smnsim.session_correlation import SessionRecord

SHAPE = TreeShape(depth=3, max_degree=4)


def A(text):
    return NodeAddress.parse(text, SHAPE)


HB = HeartbeatConfig(
    network_test_interval=5,
    state_pkg_interval=8,
    network_test_timeout=30,
    state_pkg_timeout=20,
)


def assets():
    return AssetDb(records={"10.0.1.5": AssetRecord(asset_value=3)})


def make_smn(addr="1.1.0", children=(), **kwargs):
    node = SmnNode(
        address=A(addr),
        hb=HB,
        assets=kwargs.pop("assets", assets()),
        **kwargs,
    )
    for child_addr, kind in children:
        node.add_child(A(child_addr), kind)
    return node


def event(eid="1.1.1-1", cls="exploit.attempt", t=10, src="10.0.0.9", dst="10.0.1.5",
          sev=3, conn=ConnectionMarker.NONE, kind=DeviceKind.FIREWALL, analyzer="1.1.1"):
    return NormalizedEvent(
        event_id=eid,
        analyzer_address=A(analyzer),
        analyzer_kind=kind,
        create_time=t,
        classification=cls,
        src_ip=src,
        src_port=4242,
        dst_ip=dst,
        dst_port=80,
        severity=sev,
        connection_marker=conn,
    )


# -- heartbeat handling ---------------------------------------------------------


def test_state_pkg_brings_offline_child_online():
    node = make_smn(children=[("1.1.1", DeviceKind.FIREWALL)])
    src = A("1.1.1")
    node.on_frame(Frame(MsgType.NETWORK_TEST, src, node.address), 6)
    assert node.children[A("1.1.1")].status.state is DeviceState.UNREACHABLE
    node.on_frame(Frame(MsgType.DEVICE_STATE_PKG, src, node.address, "normal"), 9)
    assert node.children[A("1.1.1")].status.state is DeviceState.RUNNING_OK
    assert node.virtual_view.find(A("1.1.1")).state is DeviceState.RUNNING_OK


def test_abnormal_state_pkg_drives_t5_t6():
    node = make_smn(children=[("1.1.1", DeviceKind.FIREWALL)])
    src = A("1.1.1")
    node.on_frame(Frame(MsgType.NETWORK_TEST, src, node.address), 6)
    node.on_frame(Frame(MsgType.DEVICE_STATE_PKG, src, node.address, "abnormal"), 9)
    assert node.children[A("1.1.1")].status.state is DeviceState.RUNNING_ABNORMAL
    node.on_frame(Frame(MsgType.DEVICE_STATE_PKG, src, node.address, "normal"), 17)
    assert node.children[A("1.1.1")].status.state is DeviceState.RUNNING_OK


def _bring_online(node, child="1.1.1", now=5):
    src = A(child)
    node.on_frame(Frame(MsgType.NETWORK_TEST, src, node.address), now + 1)
    node.on_frame(Frame(MsgType.DEVICE_STATE_PKG, src, node.address, "normal"), now + 3)


def test_silent_child_degrades_then_disconnects():
    node = make_smn(children=[("1.1.1", DeviceKind.FIREWALL)])
    _bring_online(node)
    states = []
    for t in range(10, 60):
        node.on_tick(t)
        states.append(node.children[A("1.1.1")].status.state)
    # state package timeout fires first, then the network test timeout
    first_s12 = states.index(DeviceState.UNREACHABLE)
    first_s11 = states.index(DeviceState.NET_DOWN)
    assert first_s12 < first_s11
    assert node.children[A("1.1.1")].status.state is DeviceState.NET_DOWN


def test_silent_child_smn_is_disassembled_with_report():
    node = make_smn(children=[("1.1.1", DeviceKind.SMN)])
    _bring_online(node)
    node.virtual_view.assemble("[1.1.1:S211]")  # pretend it reported once
    frames = []
    for t in range(10, 60):
        frames.extend(node.on_tick(t))
    assert node.children[A("1.1.1")].status.state is DeviceState.NET_DOWN
    assert node.virtual_view.find(A("1.1.1")).state is DeviceState.NET_DOWN
    assert any("DISASSEMBLE 1.1.1" in line for line in node.lines)
    assert any(f.msg_type is MsgType.TOPOLOGY_REPORT for f in frames)


def test_a_silenced_smn_builds_and_logs_no_report():
    """No report of a silenced node could travel, so it builds and logs
    none: not the one it forwards, the one a disassembly sends, or the
    periodic one. It still assembles what its children report."""
    node = make_smn(children=[("1.1.1", DeviceKind.SMN)])
    _bring_online(node)
    node.silence(60)
    frames = node.on_frame(Frame(MsgType.TOPOLOGY_REPORT, A("1.1.1"), node.address,
                                 "[1.1.1:S211]"), 10)
    for t in range(10, 60):  # the disassembly at 36, the periodic report at 50
        frames.extend(node.on_tick(t))
    assert frames == []
    actions = [line.split(maxsplit=4)[3:] for line in node.drain_lines()]
    assert ["ASSEMBLE", "1.1.1"] in actions and ["DISASSEMBLE", "1.1.1"] in actions
    assert ["REPORT"] not in actions
    assert [f.msg_type for f in node.on_tick(100)] == [MsgType.NETWORK_TEST,
                                                       MsgType.TOPOLOGY_REPORT]
    assert node.drain_lines() == ["NODE 1.1.0 100 REPORT"]


@pytest.mark.parametrize(
    "msg_type",
    [
        MsgType.NETWORK_TEST,
        MsgType.DEVICE_STATE_PKG,
        MsgType.DEVICE_EVENT,
        MsgType.TOPOLOGY_REPORT,
        MsgType.SESSION_ALERT,
    ],
    ids=lambda m: m.name,
)
def test_unknown_child_frame_logged_and_dropped(msg_type):
    """A frame of a type only a child sends, from a node that is not a child,
    is logged ``UNKNOWN`` and changes nothing else. A command needs no child:
    from the parent it is still executed and ACKed."""
    node = make_smn(children=[("1.1.1", DeviceKind.FIREWALL)])
    record = node.children[A("1.1.1")]
    before = (record.status, record.net_deadline, record.pkg_deadline)
    out = node.on_frame(Frame(msg_type, A("1.1.2"), node.address), 6)
    assert out == []
    assert node.drain_lines() == [f"NODE 1.1.0 6 UNKNOWN 1.1.2 {msg_type.name}"]
    assert (record.status, record.net_deadline, record.pkg_deadline) == before
    assert node.virtual_view.serialize() == make_smn(
        children=[("1.1.1", DeviceKind.FIREWALL)]
    ).virtual_view.serialize()
    assert node.session_lines == [] and node.events_received == 0
    order = Order("policy", "1.0.0!1")
    out = node.on_frame(Frame(MsgType.COMMAND, A("1.0.0"), node.address, order), 7)
    assert out == [Frame(MsgType.COMMAND_ACK, node.address, A("1.0.0"), "1.0.0!1")]
    assert node.drain_lines()[-1] == "NODE 1.1.0 7 CMD 1.0.0!1 policy"


def _root_with_child_in(status):
    """A root (so it records change sets) whose record and view of its one
    child are in ``status``, with nothing logged or recorded yet."""
    node = make_smn(addr="1.0.0", children=[("1.1.0", DeviceKind.FIREWALL)])
    node.children[A("1.1.0")].status = status
    node.virtual_view.set_state(A("1.1.0"), status.state)
    node.drain_changesets()
    return node


@pytest.mark.parametrize(
    "payload", [None, "normal", "abnormal"], ids=["test", "normal-pkg", "abnormal-pkg"]
)
@pytest.mark.parametrize(
    "status",
    [
        DeviceStatus(state, resume)
        for state in sorted(LEAF_STATES, key=lambda s: s.value)
        for resume in sorted(WAITING_STATES, key=lambda s: s.value)
    ],
    ids=lambda s: f"{s.state.value}-{s.resume.value}",
)
def test_heard_agrees_with_on_frame(status, payload):
    """``heard`` takes a heartbeat exactly when ``on_frame`` would move only
    its deadline: the same status and deadlines, no line, no change set."""
    frame = (
        Frame(MsgType.NETWORK_TEST, A("1.1.0"), A("1.0.0"))
        if payload is None
        else Frame(MsgType.DEVICE_STATE_PKG, A("1.1.0"), A("1.0.0"), payload)
    )
    fast, slow = _root_with_child_in(status), _root_with_child_in(status)
    fast_child, slow_child = fast.children[A("1.1.0")], slow.children[A("1.1.0")]
    taken = fast.heard(fast_child, frame.msg_type, frame.payload, 41)
    assert slow.on_frame(frame, 41) == []
    assert fast.lines == [] and fast.drain_changesets() == []
    if taken:
        assert slow_child.status == status
        assert slow.lines == [] and slow.drain_changesets() == []
        assert (fast_child.net_deadline, fast_child.pkg_deadline) == (
            slow_child.net_deadline,
            slow_child.pkg_deadline,
        )
    else:
        assert fast_child.status == status
        assert (fast_child.net_deadline, fast_child.pkg_deadline) == (30, 20)
        assert slow_child.status.state is not status.state


def test_heard_declines_a_stranger():
    """A node its parent holds no record of keeps the default ``hear``, which
    takes nothing: its heartbeat is built as a frame, which ``on_frame``
    logs as unknown, and the parent's record of its own child is left
    alone."""
    node = make_smn(children=[("1.1.1", DeviceKind.FIREWALL)])
    stranger = DeviceAgent(A("1.1.2"), DeviceKind.FIREWALL, hb=HB)
    assert not stranger.hear(MsgType.NETWORK_TEST, "", 5)
    frames = stranger.step(5)
    assert [(f.msg_type, f.src) for f in frames] == [(MsgType.NETWORK_TEST, A("1.1.2"))]
    child = node.children[A("1.1.1")]
    deadlines = (child.net_deadline, child.pkg_deadline)
    assert node.lines == []
    node.on_frame(frames[0], 6)
    assert node.lines == ["NODE 1.1.0 6 UNKNOWN 1.1.2 NETWORK_TEST"]
    assert (child.net_deadline, child.pkg_deadline) == deadlines


# -- device events through the pipeline ------------------------------------------


def _child_event(node, eid, **kwargs):
    """A device event frame from ``node``'s child 1.1.0."""
    ev = event(eid=eid, analyzer="1.1.0", **kwargs)
    return Frame(MsgType.DEVICE_EVENT, A("1.1.0"), node.address, ev)


@pytest.mark.parametrize(
    "status",
    [
        DeviceStatus(state, resume)
        for state in sorted(WAITING_STATES, key=lambda s: s.value)
        for resume in sorted(WAITING_STATES, key=lambda s: s.value)
    ],
    ids=lambda s: f"{s.state.value}-{s.resume.value}",
)
def test_an_event_from_a_waiting_child_is_a_closed_pair(status):
    """T7 then T8 leave what two ``_apply_cond`` calls would and log their
    lines around the event's own, but touch neither the view's cached text
    nor the root's change sets."""
    node, ref = _root_with_child_in(status), _root_with_child_in(status)
    ref_child = ref.children[A("1.1.0")]
    ref._apply_cond(ref_child, TransferCondition.T7, 31)
    ref._apply_cond(ref_child, TransferCondition.T8, 31)
    view = node.virtual_view
    view.serialize()
    record = view.find(A("1.1.0"))
    cached = (view.root.text, record.text)
    # a low-scoring event, so a DROP line falls between the pair's lines
    node.on_frame(_child_event(node, "1.1.0-1", dst="10.9.9.9", sev=1), 31)
    assert node.children[A("1.1.0")].status == ref_child.status
    assert node.lines == [ref.lines[0], "NODE 1.0.0 31 DROP 1.1.0-1", ref.lines[1]]
    assert (view.root.text, record.text) == cached and cached[0] is not None
    assert record.state is status.state
    assert node.drain_changesets() == []


@pytest.mark.parametrize("state", [DeviceState.NET_DOWN, DeviceState.UNREACHABLE])
def test_an_event_from_an_offline_child_changes_no_state(state):
    node = _root_with_child_in(DeviceStatus(state))
    node.on_frame(_child_event(node, "1.1.0-1"), 31)
    assert node.events_received == 1 and node.events_dropped == 0
    assert node.lines == ["NODE 1.0.0 31 ALERT 1.0.0#1"]  # and no STATE line
    assert node.children[A("1.1.0")].status == DeviceStatus(state)
    assert node.drain_changesets() == []


def _session_frames(node):
    """(frame, tick) of a connect from 1.1.1 to site ``node`` at tick 21, an
    event from 1.1.2 at 31 and the disconnect from 1.1.1 at 41."""
    fw, ids = A("1.1.1"), A("1.1.2")
    return [
        (Frame(MsgType.DEVICE_EVENT, fw, node.address,
               event(cls="fw.connect", t=20, conn=ConnectionMarker.CONNECT)), 21),
        (Frame(MsgType.DEVICE_EVENT, ids, node.address,
               event(eid="1.1.2-1", analyzer="1.1.2", kind=DeviceKind.IDS, t=30)), 31),
        (Frame(MsgType.DEVICE_EVENT, fw, node.address,
               event(eid="1.1.1-2", cls="fw.disconnect", t=40,
                     conn=ConnectionMarker.DISCONNECT)), 41),
    ]


def _connect_event_disconnect(node):
    """What site ``node`` returns for each of ``_session_frames``."""
    return [node.on_frame(frame, now) for frame, now in _session_frames(node)]


ENDED_LINE = "SESSION 1.1.0#1 10.0.0.9:4242 10.0.1.5:80 20 40 1 [1.1.2-1]"


def test_connect_then_event_forwards_session_alert():
    node = make_smn(children=[("1.1.1", DeviceKind.FIREWALL), ("1.1.2", DeviceKind.IDS)])
    connect, update, end = _connect_event_disconnect(node)
    assert connect == [] and update == []  # update emissions stay local
    assert len(end) == 1
    assert end[0].msg_type is MsgType.SESSION_ALERT
    assert end[0].dst == A("1.0.0")
    record = end[0].payload
    assert record is node.last_record
    assert (record.session_id, record.start_time, record.end_time, record.event_ids) == (
        "1.1.0#1", 20, 40, ("1.1.2-1",)
    )
    assert node.session_lines == [ENDED_LINE]
    assert end[0].text() == ENDED_LINE


def test_an_upper_node_launches_on_a_session_that_ended_below_it():
    """A session alert carries the site's record: the root keeps it as its
    ``last_record`` and its session line, and can launch a case on it."""
    site = make_smn(children=[("1.1.1", DeviceKind.FIREWALL), ("1.1.2", DeviceKind.IDS)])
    alert = _connect_event_disconnect(site)[2][0]
    root = make_smn(addr="1.0.0", children=[("1.1.0", DeviceKind.SMN)])
    with pytest.raises(ResponseError, match="1.0.0 has no alert to respond to"):
        root.respond_launch(40)
    assert root.on_frame(alert, 42) == []
    assert root.last_record is alert.payload
    assert root.session_lines == [ENDED_LINE]
    assert root.respond_launch(90).case_id == "1.0.0#c1"
    assert root.drain_lines() == ["CASE 1.0.0#c1 90 1.0.0 launch:default"]


def test_last_record_is_the_latest_record_to_reach_the_node():
    """``last_record`` is replaced by each record that reaches the node,
    whether its own engine emitted it or a child forwarded it; a forwarded
    record goes on upward as it came."""
    node = make_smn(children=[
        ("1.1.1", DeviceKind.FIREWALL), ("1.1.2", DeviceKind.IDS), ("1.1.3", DeviceKind.SMN)
    ])
    connect, update, disconnect = _session_frames(node)
    node.on_frame(*connect)
    node.on_frame(*update)
    own = node.last_record
    assert (own.session_id, own.end_time) == ("1.1.0#1", None)
    below = SessionRecord(
        "1.1.3#1", "10.0.0.7:1", "10.0.1.9:22", 25, 33, ("x-1",), ("exploit.attempt",), (4,)
    )
    out = node.on_frame(Frame(MsgType.SESSION_ALERT, A("1.1.3"), node.address, below), 34)
    assert out == [Frame(MsgType.SESSION_ALERT, node.address, A("1.0.0"), below)]
    assert node.last_record is below
    node.on_frame(*disconnect)
    assert (node.last_record.session_id, node.last_record.end_time) == ("1.1.0#1", 40)
    assert node.session_lines == [
        "SESSION 1.1.3#1 10.0.0.7:1 10.0.1.9:22 25 33 1 [x-1]", ENDED_LINE
    ]


def test_child_passes_through_handling_alert_state():
    node = make_smn(children=[("1.1.2", DeviceKind.IDS)])
    src = A("1.1.2")
    node.on_frame(Frame(MsgType.NETWORK_TEST, src, node.address), 6)
    node.on_frame(Frame(MsgType.DEVICE_STATE_PKG, src, node.address, "normal"), 9)
    node.on_frame(
        Frame(MsgType.DEVICE_EVENT, src, node.address,
                event(eid="1.1.2-1", analyzer="1.1.2", kind=DeviceKind.IDS, t=30)),
        31,
    )
    joined = " ".join(node.lines)
    assert "1.1.2 T7 S211->S22" in joined
    assert "1.1.2 T8 S22->S211" in joined
    assert node.children[A("1.1.2")].status.state is DeviceState.RUNNING_OK


def test_low_scoring_event_dropped_and_accounted():
    node = make_smn(children=[("1.1.2", DeviceKind.IDS)])
    src = A("1.1.2")
    node.on_frame(
        Frame(MsgType.DEVICE_EVENT, src, node.address,
                event(eid="1.1.2-1", analyzer="1.1.2", kind=DeviceKind.IDS,
                      t=30, dst="10.9.9.9", sev=1)),
        31,
    )
    assert node.events_received == 1
    assert node.events_dropped == 1
    assert any("DROP 1.1.2-1" in line for line in node.lines)
    assert node.engine.joined_events + node.engine.independent_events == 0


def test_event_accounting_adds_up():
    node = make_smn(children=[("1.1.2", DeviceKind.IDS)])
    src = A("1.1.2")
    events = [
        event(eid="1.1.2-1", analyzer="1.1.2", kind=DeviceKind.IDS, t=30),
        event(eid="1.1.2-2", analyzer="1.1.2", kind=DeviceKind.IDS, t=31, dst="10.9.9.9", sev=1),
        event(eid="1.1.2-3", analyzer="1.1.2", kind=DeviceKind.IDS, t=32),
    ]
    for i, ev in enumerate(events):
        node.on_frame(Frame(MsgType.DEVICE_EVENT, src, node.address, ev), 33 + i)
    assert node.events_received == 3
    accounted = (
        node.events_dropped + node.engine.joined_events + node.engine.independent_events
    )
    assert accounted == 3


# -- topology reports -------------------------------------------------------------


def test_child_report_assembles_and_propagates():
    node = make_smn(children=[("1.1.1", DeviceKind.SMN)])
    src = A("1.1.1")
    embedding = "[1.1.1:S211]"
    out = node.on_frame(Frame(MsgType.TOPOLOGY_REPORT, src, node.address, embedding), 11)
    assert node.virtual_view.find(A("1.1.1")).state is DeviceState.RUNNING_OK
    assert [f.msg_type for f in out] == [MsgType.TOPOLOGY_REPORT]
    assert out[0].dst == A("1.0.0")
    assert out[0].payload == node.virtual_view.serialize()


def test_only_the_root_records_change_sets():
    """The console mirror replays the root's view alone."""
    root = make_smn(addr="1.0.0", children=[("1.1.0", DeviceKind.SMN)])
    site = make_smn(children=[("1.1.1", DeviceKind.FIREWALL)])
    _bring_online(root, "1.1.0")
    _bring_online(site)
    assert site.drain_changesets() == []
    assert root.drain_changesets() == [("[1.1.0:S12]",), ("[1.1.0:S211]",)]


def test_root_smn_report_reaches_no_parent():
    root = make_smn(addr="1.0.0", children=[("1.1.0", DeviceKind.SMN)])
    src = A("1.1.0")
    out = root.on_frame(
        Frame(MsgType.TOPOLOGY_REPORT, src, root.address, "[1.1.0:S211:[1.1.1:S211]]"), 11
    )
    assert out == []
    assert root.virtual_view.find(A("1.1.1")) is not None


def test_an_unchanged_report_records_no_change_set():
    """The mirror replays only real changes; the log and the upward report
    stay as they were."""
    root = make_smn(addr="1.0.0", children=[("1.1.0", DeviceKind.SMN)])
    site = make_smn(children=[("1.1.1", DeviceKind.SMN)])
    report = Frame(MsgType.TOPOLOGY_REPORT, A("1.1.0"), root.address, "[1.1.0:S211:[1.1.1:S211]]"
    )
    leaf_report = Frame(MsgType.TOPOLOGY_REPORT, A("1.1.1"), site.address, "[1.1.1:S211]")
    root.on_frame(report, 11)
    site.on_frame(leaf_report, 11)
    assert root.drain_changesets() == [("[1.1.0:S211:[1.1.1:S211]]",)]
    root.on_frame(report, 12)
    out = site.on_frame(leaf_report, 12)
    assert root.drain_changesets() == []
    assert root.lines[-1] == "NODE 1.0.0 12 ASSEMBLE 1.1.0"
    assert site.lines[-2:] == ["NODE 1.1.0 12 ASSEMBLE 1.1.1", "NODE 1.1.0 12 REPORT"]
    assert [f.payload for f in out] == [report.payload]


def test_periodic_heartbeats_and_report_cadence():
    node = make_smn(children=[])
    frames = node.on_tick(0)
    kinds = sorted(f.msg_type.name for f in frames)
    assert kinds == ["DEVICE_STATE_PKG", "NETWORK_TEST", "TOPOLOGY_REPORT"]
    assert node.on_tick(3) == []
    assert node.on_tick(5) == [Frame(MsgType.NETWORK_TEST, node.address, A("1.0.0"))]


# -- wake ticks ----------------------------------------------------------------------


def test_smn_next_wake_is_the_earliest_child_deadline_or_own_send():
    assert make_smn(addr="1.0.0").next_wake(0) == NEVER
    root = make_smn(addr="1.0.0", children=[("1.1.0", DeviceKind.SMN)])
    assert root.next_wake(0) == 20  # the child's state package deadline
    src = A("1.1.0")
    root.on_frame(Frame(MsgType.DEVICE_STATE_PKG, src, root.address, "normal"), 12)
    assert root.next_wake(12) == 30  # now its network test deadline
    # below the root: the next network test (5), state package (8) or report (13)
    site = make_smn(settings=PipelineSettings(report_interval=13))
    assert [site.next_wake(t) for t in (0, 5, 8, 10, 12, 13)] == [5, 8, 10, 13, 13, 15]


def test_smn_on_tick_acts_exactly_at_next_wake():
    """Ticked every tick, a node sends, logs or moves a deadline at the ticks
    next_wake names and at no other."""
    node = make_smn(
        children=[("1.1.1", DeviceKind.FIREWALL), ("1.1.2", DeviceKind.SMN)],
        settings=PipelineSettings(report_interval=13),
    )
    src = A("1.1.1")

    def state():
        return [(c.status, c.net_deadline, c.pkg_deadline) for c in node.children.values()]

    wake = 0
    for t in range(150):
        heard = t < 60  # 1.1.1 sends its heartbeats until tick 60
        if heard and t % 5 == 1:
            node.on_frame(Frame(MsgType.NETWORK_TEST, src, node.address), t)
        if heard and t % 8 == 1:
            node.on_frame(Frame(MsgType.DEVICE_STATE_PKG, src, node.address, "normal"), t)
        node.drain_lines()
        before = state()
        frames = node.on_tick(t)
        acted = bool(frames or node.drain_lines()) or state() != before
        assert acted == (t == wake), t
        if acted or heard:
            wake = node.next_wake(t)


# -- commands ----------------------------------------------------------------------


def test_dispatch_command_routes_and_acks():
    root = make_smn(addr="1.0.0", children=[("1.1.0", DeviceKind.SMN)])
    cmd_id, frames = root.dispatch_command(A("1.1.1"), "policy", 40)
    assert cmd_id == "1.0.0!1"
    assert frames == [Frame(MsgType.COMMAND, root.address, A("1.1.1"), Order("policy", cmd_id))]
    assert list(root.pending_commands) == [cmd_id]

    agent = DeviceAgent(
        address=A("1.1.1"),
        kind=DeviceKind.FIREWALL,
        hb=HB,
        settings=PipelineSettings(command_delay=3),
    )
    assert agent.on_frame(frames[0], 42) == []
    assert agent.status.state is DeviceState.HANDLING_POLICY
    assert agent.step(43) != [] or True  # heartbeats may or may not be due
    out = agent.step(45)
    acks = [f for f in out if f.msg_type is MsgType.COMMAND_ACK]
    assert len(acks) == 1 and acks[0].dst == A("1.0.0") and acks[0].payload == cmd_id
    assert agent.status.state is DeviceState.RUNNING_OK

    root.on_frame(acks[0], 50)
    assert not root.pending_commands
    assert root.lines[-1] == f"NODE 1.0.0 50 ACK {cmd_id} 1.1.1"


def test_unacked_commands_are_logged_in_issue_order():
    root = make_smn(addr="1.0.0", children=[("1.1.0", DeviceKind.SMN)])
    for t in (3, 4, 5):
        root.dispatch_command(A("1.1.1"), "policy", t)
    root.drain_lines()
    ack = Frame(MsgType.COMMAND_ACK, A("1.1.1"), root.address, "1.0.0!2")
    root.on_frame(ack, 9)
    root.drain_lines()
    root.log_unacked(99)
    assert root.drain_lines() == ["NODE 1.0.0 99 UNACKED 1.0.0!1", "NODE 1.0.0 99 UNACKED 1.0.0!3"]


def test_vulnerability_command_traverses_s24():
    agent = DeviceAgent(
        address=A("1.1.1"),
        kind=DeviceKind.FIREWALL,
        hb=HB,
        settings=PipelineSettings(command_delay=1),
    )
    src = A("1.0.0")
    agent.on_frame(Frame(MsgType.COMMAND, src, A("1.1.1"), Order("vulnerability", "c!1")), 11)
    assert agent.status.state is DeviceState.HANDLING_VULN
    agent.step(12)
    assert agent.status.state is DeviceState.RUNNING_OK
    joined = " ".join(agent.lines)
    assert "T11 S211->S24" in joined and "T12 S24->S211" in joined


def test_dispatch_outside_subtree_rejected():
    node = make_smn(addr="1.1.0")
    with pytest.raises(AddressError, match="1.2.1 not below 1.1.0"):
        node.dispatch_command(A("1.2.1"), "policy", 10)


def test_smn_handles_command_itself():
    node = make_smn(addr="1.1.0")
    src = A("1.0.0")
    out = node.on_frame(Frame(MsgType.COMMAND, src, A("1.1.0"), Order("policy", "c!9")), 11)
    assert [f.msg_type for f in out] == [MsgType.COMMAND_ACK]
    joined = " ".join(node.lines)
    assert "T9 S211->S23" in joined and "T10 S23->S211" in joined


# -- emergency response coordination -------------------------------------------------

COORD = MsgType.RESPONSE_COORD


def _three_smns():
    """Root 1.0.0 over the sites 1.1.0 and 1.2.0, with a case launched at
    1.1.0, its owner; no line left logged."""
    root = make_smn(
        addr="1.0.0",
        children=[("1.1.0", DeviceKind.SMN), ("1.2.0", DeviceKind.SMN)],
    )
    owner, peer = make_smn(addr="1.1.0"), make_smn(addr="1.2.0")
    owner.last_record = SessionRecord(
        "1.1.0#1", "10.0.0.99:4444", "10.0.1.5:80", 20, 60,
        ("1.1.2-1",), ("exploit.attempt",), (4,),
    )
    case_id = owner.respond_launch(90).case_id
    owner.drain_lines()
    return root, owner, peer, case_id


@pytest.mark.parametrize(
    "plans, chosen", [({}, "default"), ({"exploit": "exploit"}, "exploit")]
)
def test_a_launch_logs_the_counterplan_it_chose(plans, chosen):
    """The case line of a launch names the plan resolved for the alert's
    top classification, ``exploit.attempt``: the longest matching prefix,
    else the store's default."""
    owner = make_smn(addr="1.1.0", counterplans=CounterplanStore(plans))
    owner.last_record = SessionRecord(
        "1.1.0#1", "10.0.0.99:4444", "10.0.1.5:80", 20, 60,
        ("1.1.2-1",), ("exploit.attempt",), (4,),
    )
    case = owner.respond_launch(90)
    assert case.plan == chosen
    assert owner.drain_lines() == [f"CASE 1.1.0#c1 90 1.1.0 launch:{chosen}"]


def _escalated():
    """``_three_smns`` with the case escalated to the root."""
    root, owner, peer, case_id = _three_smns()
    root.on_frame(owner.respond_escalate(case_id, 95)[0], 96)
    root.drain_lines()
    owner.drain_lines()
    return root, owner, peer, case_id


def test_an_escalation_makes_the_parent_coordinate():
    root, owner, _, case_id = _three_smns()
    out = owner.respond_escalate(case_id, 95)
    assert out == [Frame(COORD, owner.address, root.address, Escalate(case_id))]
    assert owner.drain_lines() == [f"CASE {case_id} 95 1.1.0 escalate"]
    assert root.on_frame(out[0], 96) == []
    assert root.drain_lines() == [f"NODE 1.0.0 96 COORD {case_id}"]
    assert root.coordinated == {case_id: owner.address}


def test_enlisting_advises_each_target_and_tells_the_owner():
    root, owner, _, case_id = _escalated()
    targets = [A("1.2.0"), A("1.2.1")]
    out = root.respond_enlist(case_id, targets, 100)
    assert out == [
        Frame(COORD, root.address, A("1.2.0"), Advisory(case_id, owner.address)),
        Frame(COORD, root.address, A("1.2.1"), Advisory(case_id, owner.address)),
        Frame(COORD, root.address, owner.address, Enlisted(case_id, tuple(targets))),
    ]
    assert root.drain_lines() == [f"NODE 1.0.0 100 ENLIST {case_id} 1.2.0,1.2.1"]
    assert owner.on_frame(out[-1], 101) == []
    assert owner.drain_lines() == [
        f"CASE {case_id} 101 1.0.0 enlist:1.2.0",
        f"CASE {case_id} 101 1.0.0 enlist:1.2.1",
    ]
    assert owner.cases[case_id].participants == set(targets)


def test_an_advisory_is_confirmed_to_the_owner():
    root, owner, peer, case_id = _escalated()
    advisory, _ = root.respond_enlist(case_id, [peer.address], 100)
    out = peer.on_frame(advisory, 101)
    assert out == [Frame(COORD, peer.address, owner.address, Confirm(case_id))]
    assert peer.drain_lines() == [f"NODE 1.2.0 101 ADVISORY {case_id}"]


def test_a_confirmation_is_a_case_line_at_the_owner():
    root, owner, peer, case_id = _escalated()
    advisory, enlisted = root.respond_enlist(case_id, [peer.address], 100)
    owner.on_frame(enlisted, 101)
    confirm = peer.on_frame(advisory, 101)[0]
    owner.drain_lines()
    assert owner.on_frame(confirm, 102) == []
    assert owner.drain_lines() == [f"CASE {case_id} 102 1.2.0 confirm"]
    assert owner.cases[case_id].confirmed == {peer.address}


def test_the_coordinator_advances_the_owners_case():
    root, owner, peer, case_id = _escalated()
    out = root.respond_advance(case_id, 105)
    assert out == [Frame(COORD, root.address, owner.address, Advance(case_id))]
    assert owner.on_frame(out[0], 106) == []
    assert owner.drain_lines() == [f"CASE {case_id} 106 1.0.0 advance:Containment"]


def test_a_node_that_neither_owns_nor_coordinates_a_case_cannot_advance_it():
    root, owner, peer, case_id = _escalated()
    assert peer.respond_advance(case_id, 105) == []
    assert peer.drain_lines() == [f"NODE 1.2.0 105 RESPOND-ERROR unknown case {case_id}"]
    assert owner.cases[case_id].phase is ResponsePhase.IDENTIFICATION


def test_only_the_coordinator_enlists():
    root, owner, _, case_id = _three_smns()
    with pytest.raises(ResponseError, match=f"^1.0.0 does not coordinate {case_id}$"):
        root.respond_enlist(case_id, [A("1.2.0")], 95)  # before the escalation
    root.on_frame(owner.respond_escalate(case_id, 95)[0], 96)
    with pytest.raises(ResponseError, match=f"^1.1.0 does not coordinate {case_id}$"):
        owner.respond_enlist(case_id, [A("1.2.0")], 97)
    assert [line for line in root.drain_lines() + owner.drain_lines() if "ENLIST" in line] == []


def test_the_coordinator_enlists_only_nodes_below_it():
    root, owner, _, case_id = _escalated()
    with pytest.raises(ResponseError, match="^1.0.0 not below 1.0.0$"):
        root.respond_enlist(case_id, [A("1.2.0"), A("1.0.0")], 100)  # not below itself
    assert root.drain_lines() == []
    assert owner.cases[case_id].participants == set()


# -- device agent behavior -----------------------------------------------------------


def make_agent(kind=DeviceKind.FIREWALL, addr="1.1.1"):
    return DeviceAgent(
        address=A(addr),
        kind=kind,
        hb=HB,
        settings=PipelineSettings(window_ticks=10, portscan_threshold=10),
    )


def raw(agent, native, t, dport=80, sev=2, src="10.0.0.9", dst="10.0.1.5"):
    from smnsim.config import Emit

    return Emit(
        tick=t,
        line_no=1,
        device=str(agent.address),
        native_class=native,
        src_ip=src,
        src_port=4242,
        dst_ip=dst,
        dst_port=dport,
        severity=sev,
    )


def test_agent_aggregates_portscan_burst():
    agent = make_agent()
    for i in range(12):
        agent.inject(raw(agent, "fw.deny", t=22, dport=i + 1))
    frames = [f for f in agent.step(30) if f.msg_type is MsgType.DEVICE_EVENT]
    assert len(frames) == 1
    assert frames[0].payload.classification == "recon.portscan"
    assert frames[0].payload.count == 12


def test_agent_idle_tick_heartbeats_only():
    """Heartbeats leave unnumbered (``seq`` 0): only the harness numbers a
    frame, as it sends it."""
    agent = make_agent()
    assert agent.step(40) == [
        Frame(MsgType.NETWORK_TEST, agent.address, A("1.1.0"), seq=0),
        Frame(MsgType.DEVICE_STATE_PKG, agent.address, A("1.1.0"), "normal", seq=0),
    ]
    assert agent.step(41) == []


def test_agent_window_holds_current_tick_events():
    agent = make_agent()
    agent.inject(raw(agent, "fw.connect", t=30))
    frames = [f for f in agent.step(30) if f.msg_type is MsgType.DEVICE_EVENT]
    assert frames == []  # flushes with the next window
    frames = [f for f in agent.step(40) if f.msg_type is MsgType.DEVICE_EVENT]
    assert len(frames) == 1
    assert frames[0].payload.connection_marker is ConnectionMarker.CONNECT


def test_inject_names_the_flush_only_of_the_first_emit_to_wait():
    agent = make_agent()  # window 10
    assert agent.inject(raw(agent, "fw.deny", t=30)) == 40
    assert agent.inject(raw(agent, "fw.deny", t=31)) == NEVER
    agent.step(40)
    assert agent.buffer == []
    assert agent.inject(raw(agent, "fw.deny", t=47)) == 50


def test_agent_silence_mutes_everything():
    agent = make_agent()
    agent.silence(60)
    agent.inject(raw(agent, "fw.deny", t=36))
    assert agent.step(40) == []
    frames = agent.step(70)
    assert any(f.msg_type is MsgType.DEVICE_EVENT for f in frames)


def test_agent_abnormal_window_flags_state_pkg():
    agent = make_agent()
    agent.mark_abnormal(20)
    frames = agent.step(8)
    pkg = [f for f in frames if f.msg_type is MsgType.DEVICE_STATE_PKG]
    assert pkg and pkg[0].payload == "abnormal"
    frames = agent.step(24)
    pkg = [f for f in frames if f.msg_type is MsgType.DEVICE_STATE_PKG]
    assert pkg and pkg[0].payload == "normal"


def test_agent_next_wake_covers_heartbeats_window_and_acks():
    agent = make_agent()  # network test every 5, state package every 8, window 10
    assert agent.next_wake(0) == 5
    assert agent.next_wake(5) == 8
    assert agent.next_wake(17) == 20
    agent.inject(raw(agent, "fw.deny", t=11))
    agent.hb = HeartbeatConfig(network_test_interval=7, state_pkg_interval=9)
    assert agent.next_wake(11) == 14  # next network test
    assert agent.next_wake(18) == 20  # the window flush comes first
    src = A("1.0.0")
    agent.on_frame(Frame(MsgType.COMMAND, src, A("1.1.1"), Order("policy", "c!1")), 18)
    assert agent.next_wake(18) == 20
    agent.settings.command_delay = 1
    agent.on_frame(Frame(MsgType.COMMAND, src, A("1.1.1"), Order("policy", "c!2")), 18)
    assert agent.next_wake(18) == 19
    agent.silence(30)
    agent.drain_lines()
    assert agent.step(22) == []  # silenced: both commands complete, their acks are lost
    assert [line.split(" ", 3)[3] for line in agent.drain_lines()] == [
        "STATE 1.1.1 T10 S23->S211", "CMD c!1 done", "CMD c!2 done",
    ]
    assert agent.pending_acks == []
    assert agent.next_wake(22) == 27  # the next state package


def test_children_tick_in_address_order_whatever_order_they_were_added():
    node = make_smn(children=[
        ("1.1.3", DeviceKind.IDS), ("1.1.1", DeviceKind.FIREWALL), ("1.1.2", DeviceKind.SMN),
    ])
    assert list(node.children) == [A("1.1.1"), A("1.1.2"), A("1.1.3")]
    for child in ("1.1.3", "1.1.1", "1.1.2"):
        _bring_online(node, child)
    node.drain_lines()
    node.on_tick(28)  # every state package deadline falls due at once
    assert [line.split()[4] for line in node.drain_lines()] == ["1.1.1", "1.1.2", "1.1.3"]
