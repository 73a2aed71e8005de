import pytest

from smnsim.addressing import NodeAddress, TreeShape
from smnsim.emergency_response import (
    DEFAULT_PLAN,
    Counterplan,
    CounterplanStore,
    ResponseError,
    ResponsePhase,
    advance,
    enlist,
    escalate,
    launch,
)

SHAPE = TreeShape(depth=3, max_degree=4)
ROOT = NodeAddress.parse("1.0.0", SHAPE)
OWNER = NodeAddress.parse("1.1.0", SHAPE)
SIBLING = NodeAddress.parse("1.2.0", SHAPE)
OUTSIDER = NodeAddress.parse("1.1.1", SHAPE)


def plan(cls):
    return Counterplan(
        event_class=cls,
        identification=f"identify {cls}",
        containment=f"contain {cls}",
        eradication=f"eradicate {cls}",
        recovery=f"recover {cls}",
    )


def store():
    return CounterplanStore({"dos": plan("dos"), "dos.synflood": plan("dos.synflood")})


def fresh_case(classification="dos.synflood"):
    return launch(classification, store(), OWNER, "1.1.0#c1")


# -- counterplan resolution ------------------------------------------------------


def test_longest_prefix_resolution():
    assert store().resolve("dos.smurf").event_class == "dos"


def test_exact_match_beats_prefix():
    assert store().resolve("dos.synflood").event_class == "dos.synflood"


def test_default_plan_for_unknown_class():
    assert store().resolve("weird.thing") is DEFAULT_PLAN


def test_prefix_matches_whole_segments_only():
    # "dos" must not match "dosser.x"
    assert store().resolve("dosser.x") is DEFAULT_PLAN


def test_plan_dir_round_trip(tmp_path):
    text = (
        "== identification ==\nlook\n"
        "== containment ==\nblock\n"
        "== eradication ==\nclean\n"
        "== recovery ==\nrestore\n"
    )
    (tmp_path / "worm.plan").write_text(text)
    loaded = CounterplanStore.load_dir(str(tmp_path))
    p = loaded.resolve("worm.blaster")
    assert (p.identification, p.containment, p.eradication, p.recovery) == (
        "look",
        "block",
        "clean",
        "restore",
    )


# -- launch / advance -------------------------------------------------------------


def test_launch_starts_in_identification():
    case = fresh_case()
    assert case.phase is ResponsePhase.IDENTIFICATION
    assert case.plan.event_class == "dos.synflood"
    assert (case.case_id, case.classification, case.owner) == ("1.1.0#c1", "dos.synflood", OWNER)
    assert case.coordinator is None
    assert case.participants == case.confirmed == set()


def test_advance_walks_phases_in_order():
    case = fresh_case()
    seen = [case.phase]
    for _ in range(4):
        advance(case, OWNER)
        seen.append(case.phase)
    assert seen == list(ResponsePhase)
    with pytest.raises(ResponseError, match=r"^1\.1\.0#c1$"):
        advance(case, OWNER)


def test_advance_rejects_unrelated_actor():
    case = fresh_case()
    with pytest.raises(ResponseError, match="1.2.0 is neither owner nor coordinator of 1.1.0#c1"):
        advance(case, SIBLING)


def test_advance_by_coordinator_after_escalation():
    case = fresh_case()
    escalate(case)
    advance(case, ROOT)
    assert case.phase is ResponsePhase.CONTAINMENT


def test_containment_gate_blocks_until_confirms():
    case = fresh_case()
    escalate(case)
    advance(case, OWNER)  # -> Containment
    enlist(case, ROOT, [SIBLING])
    with pytest.raises(ResponseError, match=r"1 participant\(s\) have not confirmed the advisory"):
        advance(case, OWNER)
    assert case.phase is ResponsePhase.CONTAINMENT
    case.confirmed.add(SIBLING)
    advance(case, OWNER)
    assert case.phase is ResponsePhase.ERADICATION


# -- escalate / enlist --------------------------------------------------------------


def test_escalate_sets_parent_coordinator():
    case = fresh_case()
    assert escalate(case) == ROOT
    assert case.coordinator == ROOT


def test_escalate_at_root_rejected():
    case = launch("dos", store(), ROOT, "1.0.0#c1")
    with pytest.raises(ResponseError, match="1.0.0 has no parent to escalate to"):
        escalate(case)
    assert case.coordinator is None


def test_escalate_idempotent():
    case = fresh_case()
    assert escalate(case) == escalate(case) == ROOT
    assert case.coordinator == ROOT
    assert case.phase is ResponsePhase.IDENTIFICATION


def test_enlist_requires_coordinator():
    case = fresh_case()
    with pytest.raises(ResponseError, match="1.0.0 does not coordinate 1.1.0#c1"):
        enlist(case, ROOT, [SIBLING])
    escalate(case)
    with pytest.raises(ResponseError, match="1.1.0 does not coordinate 1.1.0#c1"):
        enlist(case, OWNER, [SIBLING])
    assert case.participants == set()


def test_enlist_rejects_target_outside_subtree():
    case = fresh_case()
    escalate(case)
    with pytest.raises(ResponseError, match="1.0.0 not below coordinator 1.0.0"):
        enlist(case, ROOT, [ROOT])  # not strictly below itself


def test_enlist_adds_participants_once():
    case = fresh_case()
    escalate(case)
    assert enlist(case, ROOT, [SIBLING]) == [SIBLING]
    assert enlist(case, ROOT, [SIBLING]) == []
    assert case.participants == {SIBLING}


# -- invariants ----------------------------------------------------------------------


def test_phase_log_is_monotone_prefix():
    case = fresh_case()
    escalate(case)
    phases = []
    for t in range(4):
        advance(case, OWNER if t % 2 else ROOT)
        phases.append(case.phase)
    assert phases == list(ResponsePhase)[1:]


def test_every_advance_actor_was_authorized():
    case = fresh_case()
    escalate(case)
    for actor in (SIBLING, OUTSIDER):
        with pytest.raises(ResponseError, match=f"{actor} is neither owner nor coordinator"):
            advance(case, actor)
    assert case.phase is ResponsePhase.IDENTIFICATION
    for actor in (ROOT, OWNER, ROOT, OWNER):
        advance(case, actor)
    assert case.phase is ResponsePhase.CLOSED
