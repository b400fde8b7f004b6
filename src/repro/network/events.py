"""Dynamic group-membership events and event-trace generation.

Wireless networks "have dynamic network topology" — users join and leave,
networks merge and partition.  The examples and the ablation benchmarks drive
the dynamic protocols with *traces* of such events; this module defines the
event types and a deterministic trace generator with configurable event mix,
so the long-running MANET simulation example exercises all four dynamic
protocols in realistic proportions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Union

from ..exceptions import MembershipError, ParameterError
from ..mathutils.rand import DeterministicRNG
from ..pki.identity import Identity

__all__ = [
    "JoinEvent",
    "LeaveEvent",
    "MergeEvent",
    "PartitionEvent",
    "MembershipEvent",
    "EventTraceGenerator",
    "membership_after",
]


@dataclass(frozen=True)
class JoinEvent:
    """A single user joins the group."""

    joining: Identity
    kind: str = field(default="join", init=False)


@dataclass(frozen=True)
class LeaveEvent:
    """A single user leaves the group."""

    leaving: Identity
    kind: str = field(default="leave", init=False)


@dataclass(frozen=True)
class MergeEvent:
    """Another group (given by its member list) merges into this one."""

    other_group: tuple
    kind: str = field(default="merge", init=False)


@dataclass(frozen=True)
class PartitionEvent:
    """Several users leave at once (a network partition)."""

    leaving: tuple
    kind: str = field(default="partition", init=False)


MembershipEvent = Union[JoinEvent, LeaveEvent, MergeEvent, PartitionEvent]


def membership_after(members: Sequence[Identity], event: MembershipEvent) -> List[Identity]:
    """The member list after applying ``event`` (ring order preserved).

    This is the single definition of each event's effect on membership; the
    trace generator and every protocol's ``apply_event`` use it.  An event
    that does not fit ``members`` raises
    :class:`~repro.exceptions.MembershipError`: a join of a member, a merge
    of fewer than two members (a lone arrival is a join) or whose groups
    overlap, a partition that names no one, and a leave or partition naming
    a non-member or leaving fewer than two members.
    """
    names = {m.name for m in members}
    if isinstance(event, (JoinEvent, MergeEvent)):
        arriving = [event.joining] if isinstance(event, JoinEvent) else list(event.other_group)
        if len(arriving) < 2 and isinstance(event, MergeEvent):
            raise MembershipError(f"a merge brings in at least two members, got {len(arriving)}")
        present = sorted(names.intersection(m.name for m in arriving))
        if present:
            raise MembershipError(f"already group members: {present}")
        return list(members) + arriving
    if isinstance(event, (LeaveEvent, PartitionEvent)):
        leaving = (event.leaving,) if isinstance(event, LeaveEvent) else event.leaving
        if not leaving:
            raise MembershipError("a partition must name at least one member")
        gone = {identity.name for identity in leaving}
        absent = sorted(gone - names)
        if absent:
            raise MembershipError(f"not group members: {absent}")
        remaining = [m for m in members if m.name not in gone]
        if len(remaining) < 2:
            raise MembershipError(
                f"a {event.kind} leaving {len(remaining)} member(s) cannot keep a group"
            )
        return remaining
    raise ParameterError(f"unknown membership event {event!r}")


class EventTraceGenerator:
    """Generates a reproducible sequence of membership events.

    Parameters
    ----------
    rng:
        Deterministic randomness source.
    join_weight / leave_weight / merge_weight / partition_weight:
        Relative frequencies of the four event types.
    merge_size / partition_size:
        How many users a merge brings in (at least 2) / a partition removes
        (at least 1, bounded by what the current group can support).
    """

    def __init__(
        self,
        rng: DeterministicRNG,
        *,
        join_weight: float = 4.0,
        leave_weight: float = 4.0,
        merge_weight: float = 1.0,
        partition_weight: float = 1.0,
        merge_size: int = 3,
        partition_size: int = 3,
        name_prefix: str = "dyn",
    ) -> None:
        weights = (join_weight, leave_weight, merge_weight, partition_weight)
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ParameterError("event weights must be non-negative and not all zero")
        if merge_size < 2 or partition_size < 1:
            raise ParameterError(
                "a merge brings in at least 2 users and a partition removes at least 1, "
                f"got merge_size={merge_size}, partition_size={partition_size}"
            )
        self._rng = rng
        self._weights = weights
        self.merge_size = merge_size
        self.partition_size = partition_size
        self._name_prefix = name_prefix
        self._fresh_counter = 0

    # ------------------------------------------------------------------ util
    def _fresh_identity(self) -> Identity:
        self._fresh_counter += 1
        return Identity(f"{self._name_prefix}-{self._fresh_counter:04d}")

    def _pick_kind(self) -> str:
        total = sum(self._weights)
        draw = self._rng.randbelow(1_000_000) / 1_000_000.0 * total
        kinds = ("join", "leave", "merge", "partition")
        accumulated = 0.0
        for kind, weight in zip(kinds, self._weights):
            accumulated += weight
            if draw < accumulated:
                return kind
        return kinds[-1]

    # ------------------------------------------------------------------ main
    def next_event(self, current_members: Sequence[Identity], min_group_size: int = 3) -> MembershipEvent:
        """Generate the next event, respecting the minimum viable group size."""
        members = list(current_members)
        kind = self._pick_kind()
        # Shrinking events need enough members to leave behind a valid group.
        if kind == "leave" and len(members) - 1 < min_group_size:
            kind = "join"
        if kind == "partition" and len(members) - self.partition_size < min_group_size:
            kind = "join"
        if kind == "join":
            return JoinEvent(joining=self._fresh_identity())
        if kind == "leave":
            victim = self._rng.choice(members[1:])  # never evict the controller U_1
            return LeaveEvent(leaving=victim)
        if kind == "merge":
            other = tuple(self._fresh_identity() for _ in range(self.merge_size))
            return MergeEvent(other_group=other)
        leaving = tuple(self._rng.sample(members[1:], min(self.partition_size, len(members) - min_group_size)))
        return PartitionEvent(leaving=leaving)

    def trace(self, initial_members: Sequence[Identity], length: int, min_group_size: int = 3) -> List[MembershipEvent]:
        """Generate a whole trace, tracking the evolving membership as it goes."""
        if length < 0:
            raise ParameterError("trace length cannot be negative")
        members = list(initial_members)
        events: List[MembershipEvent] = []
        for _ in range(length):
            event = self.next_event(members, min_group_size=min_group_size)
            events.append(event)
            members = membership_after(members, event)
        return events
