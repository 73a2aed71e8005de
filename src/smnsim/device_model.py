"""Static and dynamic device abstractions.

Statically a device is one of six kinds. Its address, the key of its node
declaration, fixes its level, parent and subtree; its IP, asset value and
vulnerabilities are held once, by the asset database. Dynamically it runs a
ten-state machine driven by twelve transfer conditions. Offline splits into
network-down / unreachable, online into waiting (normal or abnormal) and
three busy states for alert, policy and vulnerability handling. A concrete
device always sits in one of the seven leaf states; the busy states remember
which waiting substate to return to.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class DeviceKind(Enum):
    FIREWALL = "Firewall"
    IDS = "IDS"
    ANTIVIRUS = "AntiVirus"
    SCANNER = "Scanner"
    HOST_MONITOR = "HostMonitor"
    SMN = "SMN"


#: each kind by the name topology files and event lines spell it with
KIND_BY_NAME = {k.value: k for k in DeviceKind}


class DeviceState(Enum):
    OFFLINE = "S1"
    NET_DOWN = "S11"
    UNREACHABLE = "S12"
    ONLINE = "S2"
    WAITING = "S21"
    RUNNING_OK = "S211"
    RUNNING_ABNORMAL = "S212"
    HANDLING_ALERT = "S22"
    HANDLING_POLICY = "S23"
    HANDLING_VULN = "S24"


#: The seven states a concrete device can actually be in.
LEAF_STATES = frozenset(
    {
        DeviceState.NET_DOWN,
        DeviceState.UNREACHABLE,
        DeviceState.RUNNING_OK,
        DeviceState.RUNNING_ABNORMAL,
        DeviceState.HANDLING_ALERT,
        DeviceState.HANDLING_POLICY,
        DeviceState.HANDLING_VULN,
    }
)

WAITING_STATES = frozenset({DeviceState.RUNNING_OK, DeviceState.RUNNING_ABNORMAL})


class TransferCondition(Enum):
    T1 = "T1"  # network test package received
    T2 = "T2"  # network test timed out
    T3 = "T3"  # device state package received
    T4 = "T4"  # device state package timed out
    T5 = "T5"  # device abnormality observed
    T6 = "T6"  # device back to normal
    T7 = "T7"  # device alert received
    T8 = "T8"  # alert handling finished
    T9 = "T9"  # policy command received
    T10 = "T10"  # policy handling finished
    T11 = "T11"  # vulnerability command received
    T12 = "T12"  # vulnerability handling finished


@dataclass(frozen=True)
class DeviceStatus:
    """Current leaf state plus the waiting substate to resume after busy work."""

    state: DeviceState
    resume: DeviceState = DeviceState.RUNNING_OK

    def __post_init__(self) -> None:
        if self.state not in LEAF_STATES:
            raise ValueError(f"{self.state} is not a leaf state")
        if self.resume not in WAITING_STATES:
            raise ValueError(f"resume state must be a waiting substate, got {self.resume}")


#: Devices are assumed network-disconnected until a test package arrives.
INITIAL_STATUS = DeviceStatus(DeviceState.NET_DOWN, DeviceState.RUNNING_OK)


_S = DeviceState
_T = TransferCondition

#: Sentinel target: go back to the remembered waiting substate.
_RESUME = object()

_ENTER_BUSY = {_T.T7, _T.T9, _T.T11}

# Full arrow list. Timer conditions fired while offline are absorbing
# self-loops, so timers may pop in any state without error.
TRANSITION_TABLE: dict[tuple[DeviceState, TransferCondition], object] = {
    (_S.NET_DOWN, _T.T1): _S.UNREACHABLE,
    (_S.NET_DOWN, _T.T2): _S.NET_DOWN,
    (_S.NET_DOWN, _T.T4): _S.NET_DOWN,
    (_S.UNREACHABLE, _T.T2): _S.NET_DOWN,
    (_S.UNREACHABLE, _T.T3): _S.RUNNING_OK,
    (_S.UNREACHABLE, _T.T4): _S.UNREACHABLE,
    (_S.RUNNING_OK, _T.T4): _S.UNREACHABLE,
    (_S.RUNNING_ABNORMAL, _T.T4): _S.UNREACHABLE,
    (_S.HANDLING_ALERT, _T.T4): _S.UNREACHABLE,
    (_S.HANDLING_POLICY, _T.T4): _S.UNREACHABLE,
    (_S.HANDLING_VULN, _T.T4): _S.UNREACHABLE,
    (_S.RUNNING_OK, _T.T5): _S.RUNNING_ABNORMAL,
    (_S.RUNNING_ABNORMAL, _T.T6): _S.RUNNING_OK,
    (_S.RUNNING_OK, _T.T7): _S.HANDLING_ALERT,
    (_S.RUNNING_ABNORMAL, _T.T7): _S.HANDLING_ALERT,
    (_S.HANDLING_ALERT, _T.T8): _RESUME,
    (_S.RUNNING_OK, _T.T9): _S.HANDLING_POLICY,
    (_S.RUNNING_ABNORMAL, _T.T9): _S.HANDLING_POLICY,
    (_S.HANDLING_POLICY, _T.T10): _RESUME,
    (_S.RUNNING_OK, _T.T11): _S.HANDLING_VULN,
    (_S.RUNNING_ABNORMAL, _T.T11): _S.HANDLING_VULN,
    (_S.HANDLING_VULN, _T.T12): _RESUME,
}

#: Per state, the conditions with an arrow out of it, both by ``_value_``:
#: lets a caller skip ``step`` for a pair without one, as most heartbeats
#: are, without the Python-level ``Enum.__hash__`` a member-keyed lookup
#: pays.
ARROWS_FROM: dict[str, frozenset[str]] = {
    state._value_: frozenset(c._value_ for s, c in TRANSITION_TABLE if s is state)
    for state in DeviceState
}


def step(status: DeviceStatus, cond: TransferCondition) -> tuple[DeviceStatus, bool]:
    """Apply one condition.

    Returns the successor status and whether the table had an arrow for the
    pair. Conditions without an arrow leave the status unchanged; that is
    reported, not fatal, because timers and duplicate packages fire
    regardless of state.
    """
    target = TRANSITION_TABLE.get((status.state, cond))
    if target is None:
        return status, False
    if target is _RESUME:
        return DeviceStatus(status.resume, status.resume), True
    assert isinstance(target, DeviceState)
    resume = status.state if cond in _ENTER_BUSY else status.resume
    return DeviceStatus(target, resume), True
