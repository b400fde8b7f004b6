"""Declarative churn scenarios.

A :class:`Scenario` names an experiment: an initial group size, a churn
schedule, a seed, and the medium's loss characteristics.  Schedules are small
declarative objects that expand — deterministically, from the scenario seed —
into a timed stream of the :mod:`repro.network.events` membership events:

* :class:`PoissonChurn` — joins/leaves/merges/partitions arriving as a
  Poisson process with per-kind rates (the classic MANET churn model);
* :class:`BurstPartitions` — periodic bursts where several members drop out
  at once (deep fades, moving obstacles), optionally followed by a
  same-sized merge as fresh nodes repopulate the area;
* :class:`PeriodicMerges` — a steady trickle of whole sub-groups arriving;
* :class:`TraceReplay` — replay an explicit event list (e.g. one produced by
  :class:`~repro.network.events.EventTraceGenerator` or captured from a real
  deployment).

Alternatively, a scenario embeds a
:class:`~repro.mobility.config.MobilityConfig` instead of a schedule: nodes
then *move*, radio links derive from distance, and the partition/merge stream
is generated by a :class:`~repro.mobility.connectivity.ConnectivityMonitor`
watching the reachability graph — churn as an emergent property of mobility.

The same :class:`Scenario` object drives *every* protocol, so reported
numbers are comparable: identical event streams, identical loss draws.  All
randomness — schedule draws, trajectories, medium losses, per-event protocol
seeds — is derived from the single scenario seed through *named* child
streams (:meth:`Scenario.master_rng` / :meth:`Scenario.child_seed`), so
adding or removing one consumer never perturbs the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..adversary.actors import AdversarySuite
from ..adversary.config import AdversaryConfig
from ..exceptions import ParameterError
from ..fields import Seed, param, settle
from ..mathutils.rand import DeterministicRNG
from ..mobility.config import MobilityConfig
from ..mobility.connectivity import ConnectivityMonitor
from ..mobility.field import MobilityField
from ..network.events import (
    EventTraceGenerator,
    JoinEvent,
    MembershipEvent,
    MergeEvent,
    PartitionEvent,
    membership_after,
)
from ..network.tiers import TierConfig
from ..pki.identity import Identity

__all__ = [
    "ScheduledEvent",
    "ChurnSchedule",
    "PoissonChurn",
    "BurstPartitions",
    "PeriodicMerges",
    "TraceReplay",
    "Scenario",
]


@dataclass(frozen=True)
class ScheduledEvent:
    """A membership event stamped with its simulated arrival time (seconds)."""

    time: float
    event: MembershipEvent

    @property
    def kind(self) -> str:
        """The event kind (``join``/``leave``/``merge``/``partition``)."""
        return self.event.kind


def _exponential(rng: DeterministicRNG, rate: float) -> float:
    """Draw an exponential inter-arrival time with the given rate."""
    # (0, 1] so log never sees zero; 53 bits matches double precision.
    u = (rng.randbelow(1 << 53) + 1) / float((1 << 53) + 1)
    return -math.log(u) / rate


class ChurnSchedule:
    """Base class: expands into a timed event stream for given initial members."""

    def generate(
        self,
        initial_members: Sequence[Identity],
        rng: DeterministicRNG,
        *,
        min_group_size: int = 3,
    ) -> List[ScheduledEvent]:
        """Produce the scenario's scheduled events (deterministic in ``rng``)."""
        raise NotImplementedError


@dataclass(frozen=True)
class PoissonChurn(ChurnSchedule):
    """Membership events arriving as a Poisson process.

    ``length`` events are drawn; each event's kind is chosen proportionally
    to the per-kind rates and the inter-arrival gaps are exponential with the
    total rate (rates are per simulated second).
    """

    length: int = param(ge=0)
    join_rate: float = param(2.0, ge=0.0)
    leave_rate: float = param(2.0, ge=0.0)
    merge_rate: float = param(0.0, ge=0.0)
    partition_rate: float = param(0.0, ge=0.0)
    merge_size: int = param(3, ge=2)
    partition_size: int = param(3, ge=1)

    def __post_init__(self) -> None:
        settle(self)
        if self.join_rate + self.leave_rate + self.merge_rate + self.partition_rate <= 0:
            raise ParameterError("at least one event rate must be positive")

    def generate(
        self,
        initial_members: Sequence[Identity],
        rng: DeterministicRNG,
        *,
        min_group_size: int = 3,
    ) -> List[ScheduledEvent]:
        total_rate = self.join_rate + self.leave_rate + self.merge_rate + self.partition_rate
        generator = EventTraceGenerator(
            rng.fork("kinds"),
            join_weight=self.join_rate,
            leave_weight=self.leave_rate,
            merge_weight=self.merge_rate,
            partition_weight=self.partition_rate,
            merge_size=self.merge_size,
            partition_size=self.partition_size,
            name_prefix="poisson",
        )
        events = generator.trace(initial_members, self.length, min_group_size=min_group_size)
        clock_rng = rng.fork("arrivals")
        scheduled: List[ScheduledEvent] = []
        now = 0.0
        for event in events:
            now += _exponential(clock_rng, total_rate)
            scheduled.append(ScheduledEvent(time=now, event=event))
        return scheduled


@dataclass(frozen=True)
class BurstPartitions(ChurnSchedule):
    """Periodic partition bursts, optionally refilled by merges.

    Every ``period`` seconds a random set of ``burst_size`` non-controller
    members drops out at once.  With ``refill=True`` the same number of fresh
    identities arrive ``refill_delay`` seconds later (in a MANET the nodes
    that wander back in are rarely the ones that left) — as a merging group
    of two or more, or a single join when only one member dropped — keeping
    the group at its initial size for the next burst.
    """

    bursts: int = param(ge=0)
    burst_size: int = param(3, ge=1)
    period: float = param(10.0, gt=0.0)
    refill: bool = True
    refill_delay: float = 2.0

    __post_init__ = settle

    def generate(
        self,
        initial_members: Sequence[Identity],
        rng: DeterministicRNG,
        *,
        min_group_size: int = 3,
    ) -> List[ScheduledEvent]:
        members = list(initial_members)
        pick_rng = rng.fork("bursts")
        scheduled: List[ScheduledEvent] = []
        now = 0.0
        fresh = 0
        for _ in range(self.bursts):
            now += self.period
            # Never partition the controller, never shrink below viability.
            size = min(self.burst_size, len(members) - min_group_size)
            if size < 1:
                continue
            victims = tuple(pick_rng.sample(members[1:], size))
            event: MembershipEvent = PartitionEvent(leaving=victims)
            scheduled.append(ScheduledEvent(time=now, event=event))
            members = membership_after(members, event)
            if self.refill:
                arrivals = []
                for _ in range(size):
                    fresh += 1
                    arrivals.append(Identity(f"burst-{fresh:04d}"))
                # A lone returning node cannot form a group of its own, so it
                # arrives as a plain join rather than a merge.
                if size == 1:
                    event = JoinEvent(joining=arrivals[0])
                else:
                    event = MergeEvent(other_group=tuple(arrivals))
                scheduled.append(ScheduledEvent(time=now + self.refill_delay, event=event))
                members = membership_after(members, event)
        return scheduled


@dataclass(frozen=True)
class PeriodicMerges(ChurnSchedule):
    """A whole sub-group of ``merge_size`` fresh members arrives every ``period``."""

    merges: int = param(ge=0)
    merge_size: int = param(3, ge=2)
    period: float = param(10.0, gt=0.0)

    __post_init__ = settle

    def generate(
        self,
        initial_members: Sequence[Identity],
        rng: DeterministicRNG,
        *,
        min_group_size: int = 3,
    ) -> List[ScheduledEvent]:
        scheduled: List[ScheduledEvent] = []
        now = 0.0
        fresh = 0
        for _ in range(self.merges):
            now += self.period
            arrivals = []
            for _ in range(self.merge_size):
                fresh += 1
                arrivals.append(Identity(f"merge-{fresh:04d}"))
            scheduled.append(ScheduledEvent(time=now, event=MergeEvent(other_group=tuple(arrivals))))
        return scheduled


@dataclass(frozen=True)
class TraceReplay(ChurnSchedule):
    """Replay an explicit event list with fixed spacing (trace-driven runs).

    Each event must fit the group as the trace leaves it; one that does not
    raises :class:`~repro.exceptions.MembershipError` when the trace expands.
    """

    events: tuple
    spacing: float = param(1.0, to_float=True)

    __post_init__ = settle

    def generate(
        self,
        initial_members: Sequence[Identity],
        rng: DeterministicRNG,
        *,
        min_group_size: int = 3,
    ) -> List[ScheduledEvent]:
        members = list(initial_members)
        scheduled: List[ScheduledEvent] = []
        now = 0.0
        for event in self.events:
            if not isinstance(event, ScheduledEvent):
                now += self.spacing
                event = ScheduledEvent(time=now, event=event)
            scheduled.append(event)
            members = membership_after(members, event.event)
        return scheduled


#: Emergent-event expansions, keyed by every input one reads.  A per-process
#: cache of a pure, deterministic function, like
#: ``campaign.execute._SETUPS``: the cells of a campaign grid differ only in
#: treatments (protocol, loss, engine, adversary), which no expansion reads,
#: so they share one.  It empties at :data:`EXPANSION_LIMIT` entries.
_EXPANSIONS: Dict[Tuple[object, ...], Tuple[List[Identity], List[ScheduledEvent]]] = {}
EXPANSION_LIMIT = 64


@dataclass(frozen=True)
class Scenario:
    """A named, fully deterministic churn experiment.

    The scenario owns everything that must be *identical* across the
    protocols being compared: the initial membership, the expanded event
    stream, and the medium's loss model seed.  A scenario is driven either by
    a declarative :class:`ChurnSchedule` (hand-written events on a uniform
    medium) or by a :class:`~repro.mobility.config.MobilityConfig` (nodes
    move; links, losses, partitions and merges all derive from positions) —
    the two are mutually exclusive.
    """

    name: str
    initial_size: int = param(ge=2)
    schedule: Optional[ChurnSchedule] = None
    seed: Seed = 0
    loss_probability: float = param(0.0, ge=0.0, lt=1.0)
    max_retries: int = 10
    min_group_size: int = param(3, ge=2)
    member_prefix: str = "member"
    mobility: Optional[MobilityConfig] = None
    #: attacker configuration; the runner builds one suite per run from the
    #: scenario's ``adversary`` child seed and evaluates the security oracles
    #: against it (``None`` = honest runs, oracles still evaluated)
    adversary: Optional[AdversaryConfig] = None
    #: multi-tier link layout; the runner then builds a
    #: :class:`~repro.mobility.tiered.TieredMedium` (with per-link-class
    #: loss, including burst chains) instead of the flat broadcast domain.
    #: Composes with churn schedules but not with mobility.
    tiers: Optional[TierConfig] = None

    def __post_init__(self) -> None:
        settle(self)
        if self.schedule is not None and self.mobility is not None:
            raise ParameterError(
                "a scenario is driven either by a churn schedule or by mobility, "
                "not both: with mobility, partitions and merges emerge from motion"
            )
        if self.mobility is not None and self.loss_probability != 0.0:
            raise ParameterError(
                "mobility scenarios derive loss from distance; set base_loss/"
                "edge_loss on the MobilityConfig instead of loss_probability"
            )
        if self.tiers is not None:
            if self.mobility is not None:
                raise ParameterError(
                    "tiers describe a static multi-tier topology; mobility "
                    "scenarios derive their topology from positions — use one "
                    "or the other"
                )
            if self.loss_probability != 0.0:
                raise ParameterError(
                    "tier scenarios carry loss on their link classes; set a "
                    "class loss (or the config's loss_floor) instead of "
                    "loss_probability"
                )

    # ------------------------------------------------------------ randomness
    def master_rng(self) -> DeterministicRNG:
        """The scenario's master randomness root.

        Every stochastic consumer forks its own *named* child — ``schedule``,
        ``mobility``, ``medium``, ``protocol/...`` — so streams never
        cross-contaminate: adding or removing a schedule (or any other
        consumer) leaves everyone else's draws untouched.
        """
        return DeterministicRNG(
            self.seed if self.seed is not None else 0, label=f"scenario/{self.name}"
        )

    def child_seed(self, name: str) -> bytes:
        """A named child seed (for consumers that take a seed, not an RNG)."""
        return self.master_rng().derive_seed(name)

    # -------------------------------------------------------------- expansion
    def universe(self) -> List[Identity]:
        """Every identity in the deployment, ``member-000`` (controller) first."""
        return [Identity(f"{self.member_prefix}-{i:03d}") for i in range(self.initial_size)]

    def initial_members(self) -> List[Identity]:
        """The initial group, controller first.

        Without mobility this is the whole universe.  With mobility it is the
        controller's connected component at t=0 — nodes spawned out of radio
        reach are not members until they wander into range (at which point
        the monitor merges them in).
        """
        if self.mobility is None:
            return self.universe()
        return self._mobility_expansion()[0]

    def build_events(self) -> List[ScheduledEvent]:
        """Expand into the deterministic timed event stream.

        Schedule-driven scenarios expand their :class:`ChurnSchedule`;
        mobility-driven scenarios replay the connectivity monitor's emergent
        partition/merge stream; a scenario with neither has no churn.
        """
        if self.mobility is not None:
            return self._mobility_expansion()[1]
        if self.schedule is None:
            return []
        return self.schedule.generate(
            self.initial_members(),
            self.master_rng().fork("schedule"),
            min_group_size=self.min_group_size,
        )

    # -------------------------------------------------------------- mobility
    def build_mobility_field(self) -> MobilityField:
        """A fresh field at t=0 (same named seed as the event expansion).

        The runner calls this to drive the medium's link model, then advances
        the field to each event's timestamp; because trajectories depend only
        on the ``mobility`` child seed, its positions replay the expansion
        pass exactly.
        """
        if self.mobility is None:
            raise ParameterError(f"scenario {self.name!r} has no mobility configuration")
        return self.mobility.build_field(
            [identity.name for identity in self.universe()],
            self.master_rng().fork("mobility"),
        )

    def _mobility_expansion(self) -> Tuple[List[Identity], List[ScheduledEvent]]:
        """(initial group, emergent events): fresh lists of a shared expansion.

        The key holds every input the expansion reads.  The loss ramp and
        ``max_hops`` are not among them: the monitor asks only for the
        radio graph, which reads ``tx_range`` alone.  Values compare by
        ``==``, which is exact here: the expansion yields identities and
        whole-tick times, so of all the inputs only the tick's type (``2``
        or ``2.0``) reaches it.
        """
        mobility = self.mobility
        assert mobility is not None
        key = (
            self.seed, self.name, self.initial_size, self.member_prefix,
            self.min_group_size, mobility.model, mobility.area, mobility.tick,
            type(mobility.tick), mobility.tx_range, mobility.settle_ticks,
            mobility.duration,
        )
        expansion = _EXPANSIONS.get(key)
        if expansion is None:
            field_ = self.build_mobility_field()
            monitor = ConnectivityMonitor(
                field_,
                mobility.build_link(field_),
                self.universe(),
                min_group_size=self.min_group_size,
                settle_ticks=mobility.settle_ticks,
            )
            initial = monitor.initial_members()
            events = [
                ScheduledEvent(time=when, event=event)
                for when, event in monitor.emergent_events(mobility.duration)
            ]
            if len(_EXPANSIONS) >= EXPANSION_LIMIT:
                _EXPANSIONS.clear()
            expansion = _EXPANSIONS[key] = (initial, events)
        return list(expansion[0]), list(expansion[1])

    def with_seed(self, seed: object) -> "Scenario":
        """A copy of this scenario under a different seed (for replications)."""
        return replace(self, seed=seed)

    def with_adversary(self, adversary: Optional[AdversaryConfig]) -> "Scenario":
        """A copy of this scenario under a different attacker (or none)."""
        return replace(self, adversary=adversary)

    def build_adversary(self) -> Optional[AdversarySuite]:
        """A fresh attacker suite on the scenario's named ``adversary`` stream.

        One suite serves the *whole* scenario run — that persistence is what
        lets the replayer carry recordings across protocol steps — so the
        runner builds exactly one per ``ScenarioRunner.run`` call.
        """
        if self.adversary is None:
            return None
        return self.adversary.build(self.master_rng().fork("adversary"))

    def describe(self) -> str:
        """One-line summary used in reports."""
        threat = (
            f", adversary[{self.adversary.describe()}]" if self.adversary is not None else ""
        )
        if self.mobility is not None:
            return (
                f"{self.name}: n={self.initial_size}, mobility[{self.mobility.describe()}], "
                f"seed={self.seed!r}{threat}"
            )
        driver = type(self.schedule).__name__ if self.schedule is not None else "no churn"
        if self.tiers is not None:
            return (
                f"{self.name}: n={self.initial_size}, {driver}, "
                f"{self.tiers.describe()}, seed={self.seed!r}{threat}"
            )
        return (
            f"{self.name}: n={self.initial_size}, {driver}, "
            f"loss={self.loss_probability:g}, seed={self.seed!r}{threat}"
        )
