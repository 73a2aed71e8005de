"""Semi-automatic emergency response.

A case walks Identification, Containment, Eradication, Recovery, then
closes. Counterplans are written beforehand, one document per event class
with four sections matching the phases; resolution picks the longest dotted
prefix and falls back to a default plan, so every launch succeeds.

Plan retrieval, escalation to the parent node and advisory fan-out are
automatic; each phase advance is an explicit operator action by the owning
node or, after escalation, its coordinator. Enlisted participants must
confirm receipt of the containment advisory before the case may move past
Containment.

A case holds the counterplan its launch resolved, which its ``launch:``
line names, and what its rules read: phase, owner, coordinator,
participants and confirmations. Each step a node takes on a case is
recorded once, as the ``CASE`` line the node logs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum

from .addressing import NodeAddress


class ResponseError(Exception):
    """Every emergency-response failure; the message says which."""


class ResponsePhase(Enum):
    IDENTIFICATION = "Identification"
    CONTAINMENT = "Containment"
    ERADICATION = "Eradication"
    RECOVERY = "Recovery"
    CLOSED = "Closed"


PHASE_ORDER = (
    ResponsePhase.IDENTIFICATION,
    ResponsePhase.CONTAINMENT,
    ResponsePhase.ERADICATION,
    ResponsePhase.RECOVERY,
    ResponsePhase.CLOSED,
)

_SECTION_NAMES = ("identification", "containment", "eradication", "recovery")


@dataclass(frozen=True)
class Counterplan:
    event_class: str
    identification: str
    containment: str
    eradication: str
    recovery: str


DEFAULT_PLAN = Counterplan(
    event_class="default",
    identification="Review the triggering alert and scope affected assets.",
    containment="Isolate affected hosts at the nearest enforcement point.",
    eradication="Remove the causal artifact; re-scan affected assets.",
    recovery="Restore service and monitor for recurrence.",
)


class CounterplanStore:
    """Plans keyed by event class, resolved by longest dotted prefix."""

    def __init__(
        self, plans: dict[str, Counterplan] | None = None, default: Counterplan = DEFAULT_PLAN
    ) -> None:
        self.plans = dict(plans or {})
        self.default = default

    def resolve(self, classification: str) -> Counterplan:
        best: Counterplan | None = None
        best_len = -1
        for cls, plan in self.plans.items():
            if classification == cls or classification.startswith(cls + "."):
                if len(cls) > best_len:
                    best, best_len = plan, len(cls)
        return best if best is not None else self.default

    @classmethod
    def load_dir(cls, path: str) -> "CounterplanStore":
        """Read ``<event_class>.plan`` files with ``== section ==`` delimiters."""
        plans: dict[str, Counterplan] = {}
        default = DEFAULT_PLAN
        for name in sorted(os.listdir(path)):
            if not name.endswith(".plan"):
                continue
            event_class = name[: -len(".plan")]
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                sections = _parse_plan(fh.read(), event_class)
            plan = Counterplan(event_class=event_class, **sections)
            if event_class == "default":
                default = plan
            else:
                plans[event_class] = plan
        return cls(plans, default)


def _parse_plan(text: str, event_class: str) -> dict[str, str]:
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("==") and stripped.endswith("=="):
            name = stripped.strip("= ").lower()
            if name not in _SECTION_NAMES:
                raise ResponseError(f"unknown section {name!r} in plan {event_class}")
            current = sections.setdefault(name, [])
        elif current is not None:
            current.append(line)
    missing = [s for s in _SECTION_NAMES if s not in sections]
    if missing:
        raise ResponseError(f"plan {event_class} missing sections {missing}")
    return {name: "\n".join(lines).strip() for name, lines in sections.items()}


@dataclass
class ResponseCase:
    """One case: the plan its launch resolved for the alert's
    classification, and the state its rules read."""

    case_id: str
    plan: Counterplan
    phase: ResponsePhase
    owner: NodeAddress
    coordinator: NodeAddress | None = None
    participants: set[NodeAddress] = field(default_factory=set)
    confirmed: set[NodeAddress] = field(default_factory=set)


def launch(
    classification: str, store: CounterplanStore, owner: NodeAddress, case_id: str
) -> ResponseCase:
    return ResponseCase(
        case_id=case_id,
        plan=store.resolve(classification),
        phase=ResponsePhase.IDENTIFICATION,
        owner=owner,
    )


def _authorized(case: ResponseCase, actor: NodeAddress) -> bool:
    return actor == case.owner or (
        case.coordinator is not None and actor == case.coordinator
    )


def advance(case: ResponseCase, actor: NodeAddress) -> None:
    """Move the case one phase forward; Recovery closes it."""
    if case.phase is ResponsePhase.CLOSED:
        raise ResponseError(case.case_id)
    if not _authorized(case, actor):
        raise ResponseError(f"{actor} is neither owner nor coordinator of {case.case_id}")
    if case.phase is ResponsePhase.CONTAINMENT:
        waiting = case.participants - case.confirmed
        if waiting:
            raise ResponseError(
                f"{len(waiting)} participant(s) have not confirmed the advisory"
            )
    case.phase = PHASE_ORDER[PHASE_ORDER.index(case.phase) + 1]


def escalate(case: ResponseCase) -> NodeAddress:
    """Hand advance authority to the owner's parent node. Idempotent."""
    parent = case.owner.parent()
    if parent is None:
        raise ResponseError(f"{case.owner} has no parent to escalate to")
    case.coordinator = parent
    return parent


def enlist(
    case: ResponseCase, actor: NodeAddress, targets: list[NodeAddress]
) -> list[NodeAddress]:
    """Add cooperating nodes; the coordinator alone may do this, and only
    within its own subtree. Returns the newly added participants."""
    if case.coordinator is None or actor != case.coordinator:
        raise ResponseError(f"{actor} does not coordinate {case.case_id}")
    for target in targets:
        if not actor.is_ancestor(target):
            raise ResponseError(f"{target} not below coordinator {actor}")
    added = []
    for target in targets:
        if target not in case.participants:
            case.participants.add(target)
            added.append(target)
    return added


def format_case_line(case_id: str, tick: int, actor: str, action: str) -> str:
    return f"CASE {case_id} {tick} {actor} {action}"
