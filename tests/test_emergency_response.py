import pytest

from smnsim.addressing import NodeAddress, TreeShape
from smnsim.emergency_response import (
    CounterplanStore,
    ResponseCase,
    ResponseError,
    ResponsePhase,
    advance,
    enlist,
)

SHAPE = TreeShape(depth=3, max_degree=4)
SIBLING = NodeAddress.parse("1.2.0", SHAPE)

PLAN_TEXT = (
    "== identification ==\nlook\n"
    "== containment ==\nblock\n"
    "== eradication ==\nclean\n"
    "== recovery ==\nrestore\n"
)


def store():
    return CounterplanStore({"dos", "dos.synflood"})


def fresh_case():
    return ResponseCase("1.1.0#c1", "dos.synflood")


# -- counterplan resolution ------------------------------------------------------


def test_longest_prefix_resolution():
    assert store().resolve("dos.smurf") == "dos"


def test_exact_match_beats_prefix():
    assert store().resolve("dos.synflood") == "dos.synflood"


def test_default_plan_for_unknown_class():
    assert store().resolve("weird.thing") == "default"


def test_prefix_matches_whole_segments_only():
    # "dos" must not match "dosser.x"
    assert store().resolve("dosser.x") == "default"


def test_plan_dir_round_trip(tmp_path):
    """A plan file's event class is what the store keeps; its text is only
    checked."""
    (tmp_path / "worm.plan").write_text(PLAN_TEXT)
    (tmp_path / "default.plan").write_text(PLAN_TEXT)
    (tmp_path / "notes.txt").write_text("not a plan")
    loaded = CounterplanStore.load_dir(str(tmp_path))
    assert loaded.names == {"default", "worm"}
    assert loaded.resolve("worm.blaster") == "worm"
    assert loaded.resolve("dos") == "default"


def test_a_plan_file_missing_a_section_is_refused(tmp_path):
    (tmp_path / "worm.plan").write_text(PLAN_TEXT.split("== eradication")[0])
    missing = r"^plan worm missing sections \['eradication', 'recovery'\]$"
    with pytest.raises(ResponseError, match=missing):
        CounterplanStore.load_dir(str(tmp_path))


# -- launch / advance -------------------------------------------------------------


def test_launch_starts_in_identification():
    case = fresh_case()
    assert case.phase is ResponsePhase.IDENTIFICATION
    assert (case.case_id, case.plan) == ("1.1.0#c1", "dos.synflood")
    assert case.participants == case.confirmed == set()


def test_advance_walks_phases_in_order():
    case = fresh_case()
    seen = [case.phase]
    for _ in range(4):
        advance(case)
        seen.append(case.phase)
    assert seen == list(ResponsePhase)
    with pytest.raises(ResponseError, match=r"^1\.1\.0#c1$"):
        advance(case)


def test_advance_by_coordinator_after_escalation():
    """The case keeps no record of an escalation, which the owner sends to
    its own parent, and advances from its phase; who may send the advance
    is checked by the node
    (``tests.test_node_runtime::test_the_coordinator_advances_the_owners_case``)."""
    case = fresh_case()
    assert case.phase is ResponsePhase.IDENTIFICATION
    advance(case)
    assert case.phase is ResponsePhase.CONTAINMENT


def test_containment_gate_blocks_until_confirms():
    case = fresh_case()
    advance(case)  # -> Containment
    enlist(case, [SIBLING])
    with pytest.raises(ResponseError, match=r"1 participant\(s\) have not confirmed the advisory"):
        advance(case)
    assert case.phase is ResponsePhase.CONTAINMENT
    case.confirmed.add(SIBLING)
    advance(case)
    assert case.phase is ResponsePhase.ERADICATION


# -- enlist ---------------------------------------------------------------------------


def test_enlist_adds_participants_once():
    case = fresh_case()
    assert enlist(case, [SIBLING, SIBLING]) == [SIBLING]
    assert enlist(case, [SIBLING]) == []
    assert case.participants == {SIBLING}


# -- invariants ----------------------------------------------------------------------


def test_phase_log_is_monotone_prefix():
    """Rejected advances leave the phase where it was; the phases a case
    takes are a prefix of the phase order, each once."""
    case = fresh_case()
    enlist(case, [SIBLING])
    phases = [case.phase]
    for t in range(8):
        if t == 4:
            case.confirmed.add(SIBLING)
        try:
            advance(case)
        except ResponseError:
            pass
        if case.phase is not phases[-1]:
            phases.append(case.phase)
    assert phases == list(ResponsePhase)
