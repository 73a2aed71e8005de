import random
from collections import deque

import pytest

from smnsim.device_model import (
    ARROWS_FROM,
    INITIAL_STATUS,
    LEAF_STATES,
    TRANSITION_TABLE,
    DeviceState,
    DeviceStatus,
    TransferCondition,
    step,
)

S = DeviceState
T = TransferCondition


def test_transition_examples():
    def successor(state, cond):
        return step(DeviceStatus(state), cond)[0].state

    assert successor(S.RUNNING_OK, T.T7) is S.HANDLING_ALERT
    assert successor(S.HANDLING_ALERT, T.T8) is S.RUNNING_OK
    assert successor(S.RUNNING_OK, T.T5) is S.RUNNING_ABNORMAL
    assert successor(S.NET_DOWN, T.T2) is S.NET_DOWN


def test_transition_rejects_composite_state():
    with pytest.raises(ValueError):
        DeviceStatus(S.ONLINE)


def test_initial_state():
    status = INITIAL_STATUS
    assert status.state is S.NET_DOWN
    # heartbeat sequence brings a node online only after T1 then T3
    status, _ = step(status, T.T1)
    assert status.state is S.UNREACHABLE
    status, _ = step(status, T.T3)
    assert status.state is S.RUNNING_OK


def test_t3_only_applies_from_unreachable():
    status, applied = step(DeviceStatus(S.NET_DOWN), T.T3)
    assert not applied and status.state is S.NET_DOWN


def test_busy_states_resume_where_they_left():
    abnormal = DeviceStatus(S.RUNNING_ABNORMAL, S.RUNNING_ABNORMAL)
    for enter, leave in ((T.T7, T.T8), (T.T9, T.T10), (T.T11, T.T12)):
        busy, applied = step(abnormal, enter)
        assert applied
        back, applied = step(busy, leave)
        assert applied and back.state is S.RUNNING_ABNORMAL


def test_resume_defaults_to_running_ok_after_t3():
    status = INITIAL_STATUS
    for cond in (T.T1, T.T3, T.T7):
        status, _ = step(status, cond)
    assert status.state is S.HANDLING_ALERT
    status, _ = step(status, T.T8)
    assert status.state is S.RUNNING_OK


def test_timeout_while_busy_goes_unreachable():
    status = DeviceStatus(S.HANDLING_POLICY)
    status, applied = step(status, T.T4)
    assert applied and status.state is S.UNREACHABLE


def test_closure_over_random_condition_fuzz():
    rng = random.Random(20140101)
    conds = list(TransferCondition)
    status = INITIAL_STATUS
    for _ in range(100_000):
        cond = rng.choice(conds)
        nxt, applied = step(status, cond)
        assert nxt.state in LEAF_STATES
        if applied:
            assert (status.state, cond) in TRANSITION_TABLE
        else:
            assert (status.state, cond) not in TRANSITION_TABLE
            assert nxt == status
        status = nxt


def test_every_leaf_reachable_from_initial_state():
    seen = {INITIAL_STATUS.state}
    frontier = deque([INITIAL_STATUS])
    visited = {INITIAL_STATUS}
    while frontier:
        status = frontier.popleft()
        for cond in TransferCondition:
            nxt, applied = step(status, cond)
            if applied and nxt not in visited:
                visited.add(nxt)
                seen.add(nxt.state)
                frontier.append(nxt)
    assert seen == set(LEAF_STATES)


def test_no_arrow_outside_named_conditions():
    for state, cond in TRANSITION_TABLE:
        assert state in LEAF_STATES
        assert cond in TransferCondition



def test_arrows_from_agrees_with_step():
    """The table callers check before ``step`` names exactly the pairs that
    ``step`` applies."""
    for state in [s for s in DeviceState if s in LEAF_STATES]:
        for cond in TransferCondition:
            applied = step(DeviceStatus(state), cond)[1]
            assert (cond.value in ARROWS_FROM[state.value]) == applied, (state, cond)
