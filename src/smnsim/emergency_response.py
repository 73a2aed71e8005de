"""Semi-automatic emergency response.

A case walks Identification, Containment, Eradication, Recovery, then
closes. Counterplans are written beforehand, one ``<event_class>.plan``
document per event class with four sections matching the phases. A launch
resolves the longest dotted prefix of its alert's classification among the
plans' event classes, else ``default``, so every launch succeeds, and the
case keeps the name it resolved, which its ``launch:`` line names. No step
reads a plan's text, so the store checks each file's sections and keeps
only its event class.

Plan retrieval, escalation to the parent node and advisory fan-out are
automatic; each phase advance is an explicit operator action. Enlisted
participants must confirm receipt of the containment advisory before the
case may move past Containment.

This module holds the rules of the case itself: phase order, the
Containment gate and adding participants. Who may act on a case, its owner
or, after escalation, the coordinator, is decided by the node that acts
(see ``node_runtime``): the owner holds the case and escalates it to its
own parent, and the coordinator alone records that it coordinates it. Each
step a node takes on a case is recorded once, as the ``CASE`` line the node
logs.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
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


_PHASES = tuple(ResponsePhase)
_SECTION_NAMES = ("identification", "containment", "eradication", "recovery")


class CounterplanStore:
    """The event classes plans are written for, resolved by longest dotted
    prefix."""

    def __init__(self, names: Iterable[str] = ()) -> None:
        self.names = frozenset(names)

    def resolve(self, classification: str) -> str:
        # two names that prefix the same classification differ in length
        matches = [
            name for name in self.names
            if classification == name or classification.startswith(name + ".")
        ]
        return max(matches, key=len, default="default")

    @classmethod
    def load_dir(cls, path: str) -> "CounterplanStore":
        """Check ``<event_class>.plan`` files for their ``== section ==``
        delimiters, in name order."""
        names = []
        for name in sorted(os.listdir(path)):
            if not name.endswith(".plan"):
                continue
            event_class = name[: -len(".plan")]
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                _check_plan(fh.read(), event_class)
            names.append(event_class)
        return cls(names)


def _check_plan(text: str, event_class: str) -> None:
    sections = set()
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("==") and stripped.endswith("=="):
            name = stripped.strip("= ").lower()
            if name not in _SECTION_NAMES:
                raise ResponseError(f"unknown section {name!r} in plan {event_class}")
            sections.add(name)
    missing = [s for s in _SECTION_NAMES if s not in sections]
    if missing:
        raise ResponseError(f"plan {event_class} missing sections {missing}")


@dataclass
class ResponseCase:
    """One case: the plan its launch resolved, and the state its rules
    read."""

    case_id: str
    plan: str
    phase: ResponsePhase = ResponsePhase.IDENTIFICATION
    participants: set[NodeAddress] = field(default_factory=set)
    confirmed: set[NodeAddress] = field(default_factory=set)


def advance(case: ResponseCase) -> None:
    """Move the case one phase forward; Recovery closes it."""
    if case.phase is ResponsePhase.CLOSED:
        raise ResponseError(case.case_id)
    if case.phase is ResponsePhase.CONTAINMENT:
        waiting = case.participants - case.confirmed
        if waiting:
            raise ResponseError(
                f"{len(waiting)} participant(s) have not confirmed the advisory"
            )
    case.phase = _PHASES[_PHASES.index(case.phase) + 1]


def enlist(case: ResponseCase, targets: Iterable[NodeAddress]) -> list[NodeAddress]:
    """Add cooperating nodes; returns the newly added participants."""
    added = [t for t in dict.fromkeys(targets) if t not in case.participants]
    case.participants.update(added)
    return added


def format_case_line(case_id: str, tick: int, actor: str, action: str) -> str:
    return f"CASE {case_id} {tick} {actor} {action}"
