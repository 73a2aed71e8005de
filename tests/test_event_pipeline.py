from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smnsim.addressing import NodeAddress, TreeShape
from smnsim.config import Emit
from smnsim.device_model import DeviceKind
from smnsim.event_pipeline import (
    AssetDb,
    AssetRecord,
    ClassificationMap,
    ConnectionMarker,
    CrossDeviceAggregator,
    FilterRule,
    NormalizedEvent,
    SimilarityWeights,
    ZeroWeights,
    aggregate_single_device,
    filter_event,
    format_event_line,
    normalize,
    parse_event_line,
    rate_event,
    similarity,
    validate,
)
from smnsim.messaging import MsgType
from smnsim.node_runtime import DeviceAgent

SHAPE = TreeShape(depth=3, max_degree=4)
FW = NodeAddress.parse("1.1.1", SHAPE)
IDS = NodeAddress.parse("1.1.2", SHAPE)


def raw(native="ids.alert", t=10, src="10.0.0.1", dst="10.0.0.2", sport=4242, dport=80, sev=3):
    """An emitted event: the scenario directive a device buffers."""
    return Emit(
        tick=t,
        line_no=1,
        device="1.1.2",
        native_class=native,
        src_ip=src,
        src_port=sport,
        dst_ip=dst,
        dst_port=dport,
        severity=sev,
    )


def ev(
    eid="e1",
    cls="exploit.attempt",
    t=10,
    src="10.0.0.1",
    dst="10.0.0.2",
    sport=4242,
    dport=80,
    sev=3,
    count=1,
    conn=ConnectionMarker.NONE,
    kind=DeviceKind.IDS,
    addr=IDS,
):
    return NormalizedEvent(
        event_id=eid,
        analyzer_address=addr,
        analyzer_kind=kind,
        create_time=t,
        classification=cls,
        src_ip=src,
        src_port=sport,
        dst_ip=dst,
        dst_port=dport,
        severity=sev,
        count=count,
        connection_marker=conn,
    )


# -- filtering ---------------------------------------------------------------


def test_filter_drops_matching_class():
    rule = FilterRule(device_kind=DeviceKind.HOST_MONITOR, native_class="hm.heartbeat")
    assert filter_event(raw(native="hm.heartbeat"), DeviceKind.HOST_MONITOR, [rule]) is False
    assert filter_event(raw(native="hm.heartbeat"), DeviceKind.IDS, [rule]) is True


def test_filter_empty_rules_keep_everything():
    assert filter_event(raw(native="exploit.attempt"), DeviceKind.IDS, []) is True


def test_filter_never_drops_connection_markers():
    rule = FilterRule(native_class="fw.*")
    assert filter_event(raw(native="fw.connect"), DeviceKind.FIREWALL, [rule]) is True
    assert filter_event(raw(native="fw.deny"), DeviceKind.FIREWALL, [rule]) is False
    # only a firewall's fw.connect is a connection marker (see ``normalize``)
    ids_rule = FilterRule(device_kind=DeviceKind.IDS, native_class="fw.*")
    assert filter_event(raw(native="fw.connect"), DeviceKind.IDS, [ids_rule]) is False
    assert filter_event(raw(native="fw.connect"), DeviceKind.FIREWALL, [ids_rule]) is True


# -- normalization -------------------------------------------------------------


def test_normalize_sets_connect_marker():
    out = normalize(
        raw(native="fw.connect"), FW, DeviceKind.FIREWALL, ClassificationMap(), "1.1.1-", 1
    )
    assert out.connection_marker is ConnectionMarker.CONNECT
    assert out.classification == "fw.connect"


def test_normalize_translates_via_mapping():
    cmap = ClassificationMap(rules={(DeviceKind.IDS, "sig.1234"): "exploit.bufferoverflow"})
    out = normalize(raw(native="sig.1234"), IDS, DeviceKind.IDS, cmap, "1.1.2-", 7)
    assert out.classification == "exploit.bufferoverflow"
    assert out.event_id == "1.1.2-7"


def test_normalize_lenient_default():
    out = normalize(
        raw(native="weird.thing", sev=4), IDS, DeviceKind.IDS, ClassificationMap(), "1.1.2-", 1
    )
    assert out.classification == "unknown"
    assert out.severity == 4


def test_normalizer_sequences_per_device():
    """Each device agent numbers the events it normalizes, across flushes."""
    ids_agent = DeviceAgent(IDS, DeviceKind.IDS)
    fw_agent = DeviceAgent(FW, DeviceKind.FIREWALL)

    def flush(agent, now, *targets):
        agent.buffer += [raw(t=now - 1, dst=dst) for dst in targets]
        (frame,) = [f for f in agent.step(now) if f.msg_type is MsgType.DEVICE_EVENT]
        return [e.event_id for e in frame.payload]

    # one window flushes every ten ticks; each device numbers its own events
    assert flush(ids_agent, 10, "10.0.0.2", "10.0.0.3") == ["1.1.2-1", "1.1.2-2"]
    assert flush(ids_agent, 20, "10.0.0.4") == ["1.1.2-3"]
    assert flush(fw_agent, 10, "10.0.0.2") == ["1.1.1-1"]


def test_marker_requires_firewall_analyzer():
    with pytest.raises(ValueError):
        ev(conn=ConnectionMarker.CONNECT, kind=DeviceKind.IDS)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("sport", -1, "src_port -1"),
        ("sport", 65536, "src_port 65536"),
        ("dport", -1, "dst_port -1"),
        ("dport", 65536, "dst_port 65536"),
        ("count", 0, "count must be >= 1"),
    ],
)
def test_normalized_event_refuses_a_bad_port_or_count(field, value, message):
    with pytest.raises(ValueError, match=message):
        ev(**{field: value})


# -- positional field order ------------------------------------------------------
# The run builds its records positionally; each must equal the record built
# by keyword, so no two fields of one type trade places unnoticed.


def test_normalize_equals_the_keyword_built_record():
    out = normalize(raw(t=17, src="10.0.0.7", dst="10.0.0.8", sport=1111, dport=2222, sev=4),
                    IDS, DeviceKind.IDS, ClassificationMap(), "1.1.2-", 5)
    assert out == ev(eid="1.1.2-5", cls="unknown", t=17, src="10.0.0.7", dst="10.0.0.8",
                     sport=1111, dport=2222, sev=4)


def test_normalize_places_the_connection_marker():
    out = normalize(
        raw(native="fw.disconnect"), FW, DeviceKind.FIREWALL, ClassificationMap(), "1.1.1-", 2
    )
    assert out == ev(eid="1.1.1-2", cls="fw.disconnect", conn=ConnectionMarker.DISCONNECT,
                     kind=DeviceKind.FIREWALL, addr=FW)


def test_parse_event_line_equals_the_keyword_built_record():
    line = (
        '<event id="x-9" analyzer="1.1.1" kind="Firewall" time="31" '
        'class="fw.connect" src="10.0.0.7" sport="1111" dst="10.0.0.8" '
        'dport="2222" sev="4" count="3" conn="connect"/>'
    )
    assert parse_event_line(line, SHAPE) == NormalizedEvent(
        event_id="x-9",
        analyzer_address=FW,
        analyzer_kind=DeviceKind.FIREWALL,
        create_time=31,
        classification="fw.connect",
        src_ip="10.0.0.7",
        src_port=1111,
        dst_ip="10.0.0.8",
        dst_port=2222,
        severity=4,
        count=3,
        connection_marker=ConnectionMarker.CONNECT,
    )


# -- single-device aggregation -------------------------------------------------


def test_aggregate_merges_identical_events():
    events = [ev(eid=f"e{i}", cls="dos.synflood", t=10 + i) for i in range(5)]
    out = aggregate_single_device(events, window_ticks=60)
    assert len(out) == 1
    assert out[0].count == 5
    assert out[0].create_time == 10


def test_aggregate_keeps_distinct_classes():
    events = [ev(eid="a", cls="dos.synflood"), ev(eid="b", cls="exploit.attempt", t=11)]
    out = aggregate_single_device(events, window_ticks=60)
    assert len(out) == 2


def test_aggregate_collapses_portscan():
    events = [
        ev(eid=f"p{i}", cls="access.denied", t=20 + i // 6, dport=i + 1, kind=DeviceKind.FIREWALL, addr=FW)
        for i in range(12)
    ]
    out = aggregate_single_device(events, window_ticks=60, portscan_threshold=10)
    assert len(out) == 1
    assert out[0].classification == "recon.portscan"
    assert out[0].count == 12


def test_aggregate_portscan_below_threshold_untouched():
    events = [ev(eid=f"p{i}", cls="access.denied", t=20, dport=i + 1) for i in range(5)]
    out = aggregate_single_device(events, window_ticks=60, portscan_threshold=10)
    # same class/src/dst so they merge as repeats, not as a scan
    assert len(out) == 1
    assert out[0].classification == "access.denied"


def test_aggregate_never_merges_markers():
    events = [
        ev(eid="c1", cls="fw.connect", t=10, conn=ConnectionMarker.CONNECT, kind=DeviceKind.FIREWALL, addr=FW),
        ev(eid="c2", cls="fw.connect", t=12, conn=ConnectionMarker.CONNECT, kind=DeviceKind.FIREWALL, addr=FW),
    ]
    out = aggregate_single_device(events, window_ticks=60)
    assert len(out) == 2


def test_aggregate_keeps_the_input_order_of_equal_times():
    events = [
        ev(eid="late", cls="c.late", t=14),
        ev(eid="b", cls="c.b", t=11),
        ev(eid="a", cls="c.a", t=11),
        ev(eid="c", cls="c.c", t=11),
    ]
    out = aggregate_single_device(events, window_ticks=60)
    assert [e.event_id for e in out] == ["b", "a", "c", "late"]


def test_aggregate_merge_keeps_earliest_time_summed_count_and_top_severity():
    events = [
        ev(eid="m1", t=15, sev=2, count=1, dport=81),
        ev(eid="m2", t=11, sev=5, count=2, dport=82),
        ev(eid="m3", t=13, sev=3, count=4, dport=83),
    ]
    (out,) = aggregate_single_device(events, window_ticks=60)
    assert out == ev(eid="m2", t=11, sev=5, count=7, dport=82)


def test_aggregate_portscan_record_fields():
    events = [
        ev(eid=f"p{i}", cls="access.denied", t=30 - i % 3, dport=100 + i, sev=1 + i % 4,
           sport=5000 + i)
        for i in range(10)
    ]
    (out,) = aggregate_single_device(events, window_ticks=60, portscan_threshold=10)
    # the scan record is the earliest event of the group, in input order among
    # equal times, carrying the scan's class, target port, severity and count
    assert out == ev(eid="p2", cls="recon.portscan", t=28, dport=0, sev=4, count=10,
                     sport=5002)


@given(st.lists(st.integers(min_value=0, max_value=100), max_size=30))
@settings(max_examples=50)
def test_aggregate_conserves_counts(times):
    events = [ev(eid=f"e{i}", t=t) for i, t in enumerate(times)]
    out = aggregate_single_device(events, window_ticks=10)
    assert sum(e.count for e in out) == len(events)
    assert [e.create_time for e in out] == sorted(e.create_time for e in out)


def _aggregate_step_by_step(window, window_ticks, portscan_threshold):
    """The aggregation as one merge step per event: sorted and bucketed
    always, port scans found in every bucket, and a repeat folded into the
    record before it."""
    buckets = {}
    for e in sorted(window, key=lambda e: e.create_time):
        buckets.setdefault(e.create_time // window_ticks, []).append(e)
    out = []
    for key in sorted(buckets):
        plain = [e for e in buckets[key] if e.connection_marker is ConnectionMarker.NONE]
        groups = {}
        for e in plain:
            groups.setdefault((e.src_ip, e.dst_ip), []).append(e)
        rest = []
        for group in groups.values():
            if len({e.dst_port for e in group}) >= portscan_threshold:
                out.append(replace(
                    group[0], classification="recon.portscan", dst_port=0,
                    severity=max(e.severity for e in group), count=sum(e.count for e in group),
                ))
            else:
                rest.extend(group)
        same = {}
        for e in rest:
            sig = (e.classification, e.src_ip, e.dst_ip)
            prev = same.get(sig)
            same[sig] = e if prev is None else replace(
                prev, severity=max(prev.severity, e.severity), count=prev.count + e.count
            )
        out.extend(same.values())
        out.extend(e for e in buckets[key] if e.connection_marker is not ConnectionMarker.NONE)
    out.sort(key=lambda e: e.create_time)
    return out


_MARKERS = (ConnectionMarker.NONE, ConnectionMarker.CONNECT, ConnectionMarker.DISCONNECT)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 40), st.sampled_from(("a.x", "a.y", "b.z")),
            st.sampled_from(("10.0.0.1", "10.0.0.2")), st.sampled_from(("10.0.1.1", "10.0.1.2")),
            st.integers(0, 6), st.integers(1, 5), st.integers(1, 3), st.sampled_from(_MARKERS),
        ),
        max_size=25,
    ),
    st.integers(1, 15),
    st.sampled_from((0, 1, 2, 3, 4, 10)),
)
# a port scan and an unmerged event of one time: the scan comes first
@example([(5, "a.x", "10.0.0.1", "10.0.1.1", 1, 1, 1, ConnectionMarker.NONE)]
         + [(5, "a.x", "10.0.0.2", "10.0.1.2", p, 1, 1, ConnectionMarker.NONE) for p in (1, 2)],
         10, 2)
@settings(max_examples=300)
def test_aggregate_equals_the_step_by_step_merge(rows, window_ticks, threshold):
    """One record per merge group, the bucketing and sorting skipped where
    they cannot matter, a one-event window passed on: the same records in
    the same order as merging step by step."""
    events = [
        ev(eid=f"e{i}", cls=cls, t=t, src=src, dst=dst, dport=dport, sev=sev, count=count,
           conn=conn, kind=DeviceKind.FIREWALL if conn is not ConnectionMarker.NONE else
           DeviceKind.IDS)
        for i, (t, cls, src, dst, dport, sev, count, conn) in enumerate(rows)
    ]
    want = _aggregate_step_by_step(events, window_ticks, threshold)
    assert aggregate_single_device(events, window_ticks, threshold) == want


def test_a_lone_event_passes_through_unless_it_is_a_scan_of_one():
    plain, connect = ev(), ev(conn=ConnectionMarker.CONNECT, kind=DeviceKind.FIREWALL, addr=FW)
    for threshold in (0, 1, 2, 10):
        assert aggregate_single_device([connect], 10, threshold)[0] is connect
    assert aggregate_single_device([plain], 10, 2)[0] is plain
    (scan,) = aggregate_single_device([plain], 10, 1)
    assert (scan.classification, scan.dst_port) == ("recon.portscan", 0)


# -- rating and validation -------------------------------------------------------


def db():
    return AssetDb(
        records={
            "10.0.0.2": AssetRecord(asset_value=5, vulnerability_ids=frozenset({"CVE-7"})),
            "10.0.0.3": AssetRecord(asset_value=2),
        },
        class_vulns={"exploit.attempt": frozenset({"CVE-7"})},
    )


def test_rate_with_vulnerability_match():
    assert rate_event(ev(sev=4, dst="10.0.0.2"), db()) == 40  # 5 * 4 * 2


def test_rate_unknown_asset_floor():
    assert rate_event(ev(sev=1, dst="10.9.9.9", cls="noise"), db()) == 1


def test_rate_no_match():
    assert rate_event(ev(sev=3, dst="10.0.0.3"), db()) == 6  # 2 * 3 * 1


def test_rate_monotone_in_severity_and_value():
    low = rate_event(ev(sev=1, dst="10.0.0.3"), db())
    high = rate_event(ev(sev=5, dst="10.0.0.3"), db())
    assert low < high
    small = rate_event(ev(sev=3, dst="10.9.9.9", cls="noise"), db())
    big = rate_event(ev(sev=3, dst="10.0.0.2", cls="noise"), db())
    assert small < big


def test_validate_threshold():
    events = [
        ev(eid="low", sev=1, dst="10.9.9.9", cls="noise"),  # score 1
        ev(eid="mid", sev=3, dst="10.0.0.3", cls="noise"),  # score 6
        ev(eid="high", sev=4, dst="10.0.0.2"),  # score 40
    ]
    kept = validate(events, db(), threshold=5)
    assert [e.event_id for e, _ in kept] == ["mid", "high"]
    assert [s for _, s in kept] == [6, 40]


def test_validate_zero_threshold_identity():
    events = [ev(eid="low", sev=1, dst="10.9.9.9", cls="noise")]
    assert len(validate(events, db(), threshold=0)) == 1


def test_validate_retains_markers():
    connect = ev(
        eid="c", cls="fw.connect", sev=1, dst="10.9.9.9",
        conn=ConnectionMarker.CONNECT, kind=DeviceKind.FIREWALL, addr=FW,
    )
    kept = validate([connect], db(), threshold=5)
    assert [e.event_id for e, _ in kept] == ["c"]


# -- similarity -----------------------------------------------------------------


def test_similarity_identical_events():
    a = ev()
    assert similarity(a, a) == 1.0


def test_similarity_fully_disjoint():
    a = ev(src="10.0.0.1", dst="10.0.0.2", dport=80, cls="dos.synflood", t=0)
    b = ev(src="10.1.1.1", dst="10.1.1.2", dport=443, cls="exploit.attempt", t=400)
    assert similarity(a, b) == 0.0


def test_similarity_hand_computed():
    a = ev(dport=80, t=100)
    b = ev(dport=443, t=100)
    assert similarity(a, b) == pytest.approx(0.85)


def test_similarity_zero_weights_rejected():
    with pytest.raises(ZeroWeights):
        similarity(ev(), ev(), SimilarityWeights(0, 0, 0, 0, 0))


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=500),
    st.sampled_from(["10.0.0.1", "10.0.0.2"]),
    st.sampled_from(["10.0.0.1", "10.0.0.2"]),
    st.sampled_from(["dos.synflood", "dos.smurf", "exploit.attempt"]),
)
@settings(max_examples=100)
def test_similarity_symmetric_and_bounded(ta, tb, sa, sb, cls):
    a = ev(t=ta, src=sa, cls=cls)
    b = ev(t=tb, src=sb)
    sab = similarity(a, b)
    assert sab == similarity(b, a)
    assert 0.0 <= sab <= 1.0
    assert similarity(a, a) == 1.0


# -- cross-device aggregation ----------------------------------------------------


def test_cross_device_clusters_similar_events():
    fw = ev(eid="f1", cls="exploit.attempt", t=100, dport=80, kind=DeviceKind.FIREWALL, addr=FW)
    ids = ev(eid="i1", cls="exploit.attempt", t=100, dport=445, addr=IDS)
    assert similarity(fw, ids) == pytest.approx(0.85)
    agg = CrossDeviceAggregator(merge_threshold=0.7)
    assert agg.add(fw, 6) is agg.add(ids, 40)
    alerts = agg.alerts
    assert len(alerts) == 1
    assert alerts[0].member_event_ids == ["f1", "i1"]
    assert alerts[0].score == 40
    assert alerts[0].representative.count == 2


def test_cross_device_unrelated_events_stay_apart():
    a = ev(eid="a", src="10.0.0.1", dst="10.0.0.2", dport=80, cls="dos.synflood", t=0)
    b = ev(eid="b", src="10.1.1.1", dst="10.1.1.2", dport=443, cls="exploit.attempt", t=400)
    agg = CrossDeviceAggregator()
    assert agg.add(a, 5) is not agg.add(b, 5)
    assert len(agg.alerts) == 2


def test_cross_device_empty_input():
    assert CrossDeviceAggregator().alerts == []


# -- event line format -------------------------------------------------------------


def test_event_line_round_trip():
    a = ev(conn=ConnectionMarker.CONNECT, kind=DeviceKind.FIREWALL, addr=FW, cls="fw.connect")
    line = format_event_line(a)
    assert parse_event_line(line, SHAPE) == a
    assert format_event_line(parse_event_line(line, SHAPE)) == line


def test_event_line_fixed_attribute_order():
    line = format_event_line(ev())
    assert line == (
        '<event id="e1" analyzer="1.1.2" kind="IDS" time="10" '
        'class="exploit.attempt" src="10.0.0.1" sport="4242" dst="10.0.0.2" '
        'dport="80" sev="3" count="1" conn="none"/>'
    )


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=65535),
    st.sampled_from(["dos.synflood", "recon.portscan", "unknown"]),
)
@settings(max_examples=100)
def test_event_line_round_trip_random(t, sev, port, cls):
    a = ev(t=t, sev=sev, dport=port, cls=cls)
    assert parse_event_line(format_event_line(a), SHAPE) == a


#: text with every character the line format escapes, and entity look-alikes
MARKUP = st.text(alphabet='a1.&"<>;/=lt', max_size=12)


@given(MARKUP, MARKUP, MARKUP, MARKUP)
@settings(max_examples=200)
def test_event_line_round_trip_escapes_markup(eid, cls, src, dst):
    a = ev(eid=eid, cls=cls, src=src, dst=dst)
    assert parse_event_line(format_event_line(a), SHAPE) == a
