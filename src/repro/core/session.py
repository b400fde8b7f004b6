"""High-level ``GroupSession`` API.

This is the façade a downstream application uses: establish a group, apply
membership events as they happen, pull symmetric keys for actual payload
encryption, and ask for energy reports.  The session routes everything
through the :class:`~repro.core.base.Protocol` strategy interface, so *any*
protocol — the proposed ID-based GKA, every baseline, or a third-party
:class:`~repro.core.base.Protocol` instance — gets the same half-dozen
methods: protocols with native dynamic sub-protocols serve events through
them, the rest re-execute, and the session never has to know which.

Example
-------
>>> from repro import SystemSetup, GroupSession, Identity
>>> setup = SystemSetup.from_param_sets("test-256", "gq-test-256")
>>> members = [Identity(f"node-{i}") for i in range(5)]
>>> session = GroupSession.establish(setup, members, seed=7)
>>> session.all_agree()
True
>>> session.join(Identity("latecomer"))
>>> session.leave(members[2])
>>> len(session.members)
5

Passing ``protocol="bd-ecdsa"`` (or any registry name, or a
:class:`~repro.core.base.Protocol` instance) swaps the strategy; passing an
:class:`~repro.engine.executor.EngineConfig` as ``engine`` runs every step on
the virtual-time kernel, making :attr:`ProtocolResult.sim_latency_s`
observable in the session history.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..energy.accounting import DeviceProfile, EnergyBreakdown
from ..engine.executor import EngineConfig
from ..exceptions import ProtocolError
from ..hashing.kdf import derive_key_from_group_element
from ..network.events import JoinEvent, LeaveEvent, MembershipEvent, PartitionEvent
from ..network.medium import BroadcastMedium
from ..pki.identity import Identity
from ..symmetric.authenc import SymmetricEnvelope
from .base import GroupState, Protocol, ProtocolResult, SystemSetup
from .registry import create_protocol

__all__ = ["GroupSession"]

#: Default strategy: the paper's proposed protocol.
_DEFAULT_PROTOCOL = "proposed-gka"


class GroupSession:
    """An established secure group with dynamic membership and energy reports."""

    def __init__(
        self,
        setup: SystemSetup,
        state: GroupState,
        device: Optional[DeviceProfile] = None,
        *,
        protocol: Union[str, Protocol, None] = None,
        engine: Optional[EngineConfig] = None,
    ) -> None:
        self.setup = setup
        self.state = state
        # `is None`, not truthiness: a caller-supplied profile must never be
        # silently swapped for the default just because it tests falsy.
        self.device = device if device is not None else DeviceProfile()
        self.protocol = self._resolve(setup, protocol)
        self.engine = engine
        self.history: List[ProtocolResult] = []
        self._event_counter = 0

    @staticmethod
    def _resolve(setup: SystemSetup, protocol: Union[str, Protocol, None]) -> Protocol:
        if isinstance(protocol, Protocol):
            return protocol
        return create_protocol(protocol or _DEFAULT_PROTOCOL, setup)

    # ---------------------------------------------------------- construction
    @classmethod
    def establish(
        cls,
        setup: SystemSetup,
        members: Sequence[Identity],
        *,
        device: Optional[DeviceProfile] = None,
        seed: object = 0,
        medium: Optional[BroadcastMedium] = None,
        protocol: Union[str, Protocol, None] = None,
        engine: Optional[EngineConfig] = None,
    ) -> "GroupSession":
        """Run the initial GKA among ``members`` and wrap the result in a session.

        ``protocol`` selects the strategy by registry name (default: the
        proposed ID-based GKA) or accepts a ready
        :class:`~repro.core.base.Protocol` instance.
        """
        strategy = cls._resolve(setup, protocol)
        result = strategy.run(members, seed=seed, medium=medium, engine=engine)
        session = cls(setup, result.state, device=device, protocol=strategy, engine=engine)
        session.history.append(result)
        return session

    # -------------------------------------------------------------- inspection
    @property
    def members(self) -> List[Identity]:
        """Current members in ring order."""
        return self.state.members

    @property
    def group_key(self) -> Optional[int]:
        """The current group key (a group element), if agreed."""
        return self.state.agreed_key()

    def all_agree(self) -> bool:
        """Whether every member currently holds the same key."""
        return self.state.all_agree()

    def symmetric_key(self, length: int = 16) -> bytes:
        """A symmetric key derived from the group key (for payload encryption)."""
        key = self.group_key
        if key is None:
            raise ProtocolError("the group has not agreed on a key")
        return derive_key_from_group_element(key, length=length)

    def envelope(self) -> SymmetricEnvelope:
        """An authenticated-encryption envelope keyed with the current group key."""
        key = self.group_key
        if key is None:
            raise ProtocolError("the group has not agreed on a key")
        return SymmetricEnvelope(key)

    # ---------------------------------------------------------------- events
    def _next_seed(self, label: str) -> str:
        self._event_counter += 1
        return f"{label}/{self._event_counter}"

    def _apply(self, event: MembershipEvent, seed: object) -> ProtocolResult:
        result = self.protocol.apply_event(
            self.state, event, seed=seed, engine=self.engine
        )
        self.state = result.state
        self.history.append(result)
        return result

    def join(self, joining: Identity, *, seed: object = None) -> ProtocolResult:
        """Admit a new member (natively, or by re-execution for baselines)."""
        return self._apply(
            JoinEvent(joining=joining), seed if seed is not None else self._next_seed("join")
        )

    def leave(self, leaving: Identity, *, seed: object = None) -> ProtocolResult:
        """Remove one member (natively, or by re-execution for baselines)."""
        return self._apply(
            LeaveEvent(leaving=leaving), seed if seed is not None else self._next_seed("leave")
        )

    def partition(self, leaving: Sequence[Identity], *, seed: object = None) -> ProtocolResult:
        """Remove a set of members at once (a network partition)."""
        return self._apply(
            PartitionEvent(leaving=tuple(leaving)),
            seed if seed is not None else self._next_seed("partition"),
        )

    def merge(self, other: "GroupSession", *, seed: object = None) -> ProtocolResult:
        """Merge another session's established group into this one.

        Served by the protocol's :meth:`~repro.core.base.Protocol.merge_states`
        strategy: the proposed scheme runs its dedicated Merge protocol over
        both groups' existing state, baselines re-execute over the union.
        """
        result = self.protocol.merge_states(
            self.state,
            other.state,
            seed=seed if seed is not None else self._next_seed("merge"),
            engine=self.engine,
        )
        self.state = result.state
        self.history.append(result)
        return result

    def apply_event(self, event: MembershipEvent, *, seed: object = None) -> ProtocolResult:
        """Apply a :mod:`repro.network.events` membership event to the session."""
        kind = getattr(event, "kind", "event")
        return self._apply(event, seed if seed is not None else self._next_seed(kind))

    # ---------------------------------------------------------------- energy
    def energy_report(self, device: Optional[DeviceProfile] = None) -> Dict[str, EnergyBreakdown]:
        """Cumulative per-member energy since the recorders were last reset."""
        profile = device or self.device
        return {name: profile.price(rec) for name, rec in self.state.recorders().items()}

    def total_energy_j(self, device: Optional[DeviceProfile] = None) -> float:
        """Total Joules consumed by the whole group so far."""
        return sum(b.total_j for b in self.energy_report(device).values())

    def reset_energy(self) -> None:
        """Clear every member's cost recorder (start a new measurement window)."""
        self.state.reset_costs()
