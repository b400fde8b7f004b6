"""The proposed ID-based authenticated group key agreement protocol (Section 4).

Two broadcast rounds establish an authenticated Burmester–Desmedt group key
among ``n`` users, with authentication provided by a *batch-verified* variant
of the GQ ID-based signature scheme:

* **Round 1** — each ``U_i`` draws ``r_i ∈ Z_q^*`` and ``tau_i ∈ Z_n^*`` and
  broadcasts ``m_i = U_i || z_i || t_i`` where ``z_i = g^{r_i} mod p`` and
  ``t_i = tau_i^e mod n``.
* **Round 2** — each ``U_i`` computes ``X_i = (z_{i+1}/z_{i-1})^{r_i}``, the
  aggregates ``Z = prod z_j mod p`` and ``T = prod t_j mod n``, the common
  challenge ``c = H(T, Z)`` and its response ``s_i = tau_i · S_{U_i}^c mod n``,
  then broadcasts ``m'_i = U_i || X_i || s_i`` (``U_1``, the trusted
  controller, broadcasts last).
* **Authentication & key computation** — each ``U_i`` checks the single batch
  equation (2) ``c = H((prod s_j)^e · (prod H(U_j))^{-c}, Z)``, then Lemma 1
  (``prod X_j = 1 mod p``), and finally derives
  ``K = prod_j g^{r_j r_{j+1}} mod p``.

The protocol executes as one :class:`~repro.core.base.GQRoundMachine` per
member on the virtual-time event kernel — the BD round machine of
:mod:`repro.core.base` with the batch-verified GQ layer this protocol shares
with its Leave/Partition rekey: Round 1 is emitted from ``start``, Round 2
fires when a member's Round-1 view completes (the controller deliberately
withholds its Round-2 broadcast until it has everyone else's, reproducing the
paper's "U_1 transmits last").  What is this module's own is the
retransmission: on a failed batch check the paper has "all members
retransmit again".  A shared round coordinator — the machine analogue of the
synchronous implementation's shared verdict flag — collects every member's
verification verdict and, once all are in, wakes every member with the
outcome: each finishes itself on success, or resets its own Round-2 view and
retransmits for a bounded number of attempts, so fault injection tests can
exercise both the failure and the recovery path.

Per-member cost accounting follows the paper's Table 1 vocabulary: three
modular exponentiations (``z_i``, ``X_i`` and the final key derivation), one
GQ signature generation and one (batch) GQ verification, two broadcast
transmissions and ``2(n-1)`` receptions.

:class:`ProposedGKAProtocol` is also the one driver of the four dynamic
protocols: ``apply_event`` builds the event's plan and drives it once.  The
plans are :func:`~repro.core.join.join_plan`,
:func:`~repro.core.rekey.departure_plan` (Leave and Partition) and
:func:`~repro.core.merge.merge_plan`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..engine.executor import EngineConfig, drive_plan
from ..engine.machine import MachinePlan, Outbound
from ..exceptions import BatchVerificationError
from ..mathutils.memo import Memo
from ..mathutils.rand import DeterministicRNG
from ..network.events import JoinEvent, LeaveEvent, MembershipEvent, MergeEvent, membership_after
from ..network.medium import BroadcastMedium
from ..network.message import Message
from ..network.topology import RingTopology
from ..pki.identity import Identity
from ..signatures.gq import gq_batch_verify
from .base import (
    GQRoundMachine,
    GroupState,
    PartyState,
    Protocol,
    ProtocolResult,
    SystemSetup,
)
from .join import join_plan
from .merge import merge_plan
from .rekey import departure_plan

__all__ = ["ProposedGKAProtocol", "TamperFunction"]

#: Optional hook that may alter a message in flight (used by fault-injection
#: tests).  It receives the message and the retransmission attempt number and
#: returns the (possibly modified) message.
TamperFunction = Callable[[Message, int], Message]


#: the coordinator's wake payloads: every verdict of the attempt passed, or
#: some member rejected and everyone retransmits Round 2
_VERIFIED = "verified"
_RETRANSMIT = "retransmit-round2"


class _Round2Coordinator:
    """Shared verdict collection for one GKA run.

    The synchronous implementation decided "all members retransmit" from a
    shared ``all_verified`` flag; the reactive decomposition keeps that exact
    semantics through this object: every machine reports its batch/Lemma-1
    verdict per attempt, and once all ``n`` verdicts are in the coordinator
    wakes every member with the outcome (``"verified"`` or
    ``"retransmit-round2"``) — raising
    :class:`~repro.exceptions.BatchVerificationError` instead once the
    retransmission budget is exhausted.  It never changes a member's state:
    each member acts on the outcome in its own ``on_wake``.  After the
    ``"verified"`` wakes it drops its machine list, so it holds no machine
    once the run is over.
    """

    def __init__(self, max_retransmissions: int) -> None:
        self.max_retransmissions = max_retransmissions
        self.attempt = 0
        #: every member's machine, set once the plan is built
        self.machines: List["_GkaPartyMachine"] = []
        self._verdicts: Dict[str, bool] = {}

    def round2_label(self) -> str:
        """The current attempt's round label (``round2.0``, ``round2.1``...)."""
        return f"round2.{self.attempt}"

    def report(self, machine: "_GkaPartyMachine", verdict: bool) -> None:
        """Record one member's verification verdict and resolve if complete."""
        self._verdicts[machine.identity.name] = verdict
        if len(self._verdicts) < len(self.machines):
            return
        members = self.machines
        if all(self._verdicts.values()):
            outcome = _VERIFIED
            self.machines = []
        else:
            self.attempt += 1
            if self.attempt > self.max_retransmissions:
                raise BatchVerificationError(
                    "batch verification kept failing after "
                    f"{self.max_retransmissions} retransmissions"
                )
            self._verdicts.clear()
            outcome = _RETRANSMIT
        for member in members:
            member.context.wake(member, outcome)


class _GkaPartyMachine(GQRoundMachine):
    """One member's view of the proposed two-round GKA."""

    round1_label = "round1"

    def __init__(
        self,
        party: PartyState,
        setup: SystemSetup,
        ring: RingTopology,
        coordinator: _Round2Coordinator,
        tamper: Optional[TamperFunction],
        verdicts: Memo,
    ) -> None:
        super().__init__(party, setup, ring, verdicts)
        self.coordinator = coordinator
        self.tamper = tamper

    @property
    def round2_label(self) -> str:  # type: ignore[override]
        """This attempt's label; copies of an earlier attempt are ignored."""
        return self.coordinator.round2_label()

    def on_wake(self, payload: object, now: float) -> List[Outbound]:
        if payload == _VERIFIED:
            self.finished = True
            self.waiting_for = None
            return []
        # "All members retransmit again": non-controllers re-broadcast their
        # Round 2 at once; the controller re-arms and, as always, transmits
        # last — after it has received everyone else's new copy.
        self.prepare_attempt()
        return [] if self.is_controller else self._emit_round2()

    def _emit_round2(self) -> List[Outbound]:
        outs = super()._emit_round2()
        if self.tamper is None:
            return outs
        return [Outbound(self.tamper(outs[0].message, self.coordinator.attempt))]

    # ----------------------------------------------------------- verification
    def _verify(self) -> None:
        party = self.party
        batch_ok = self._batch_verdict(gq_batch_verify)
        party.recorder.record_signature("gq", "ver")
        verdict = batch_ok and self._lemma1_holds()
        if verdict:
            self._derive_key()
        self.coordinator.report(self, verdict)

    # -------------------------------------------------------- retransmission
    def prepare_attempt(self) -> None:
        """Reset the Round-2 tables for the coordinator's next attempt."""
        self._x_table = {}
        self._s_table = {}
        self._challenge = None
        self._aggregate = None
        self.waiting_for = self.round2_label


class ProposedGKAProtocol(Protocol):
    """The paper's initial GKA protocol ("Our Prop. sch." column of Table 1)."""

    name = "proposed-gka"
    #: All four membership events are served by dedicated dynamic protocols —
    #: no full re-execution is ever needed.
    supported_events = frozenset({"join", "leave", "merge", "partition"})

    def __init__(self, setup: SystemSetup, *, max_retransmissions: int = 2) -> None:
        super().__init__(setup)
        self.max_retransmissions = max_retransmissions

    # -------------------------------------------------------------- machines
    def build_machines(
        self,
        members: Sequence[Identity],
        *,
        medium: BroadcastMedium,
        seed: object = 0,
        tamper: Optional[TamperFunction] = None,
        **kwargs: object,
    ) -> MachinePlan:
        """Decompose the two-round protocol into per-member machines."""
        coordinator = _Round2Coordinator(self.max_retransmissions)
        verdicts = Memo()
        plan = self._flat_plan(
            members,
            medium,
            seed,
            kwargs,
            "proposed-gka",
            lambda party, ring: _GkaPartyMachine(
                party, self.setup, ring, coordinator, tamper, verdicts
            ),
        )
        coordinator.machines = plan.machines  # type: ignore[assignment]
        return plan

    # ---------------------------------------------------------- dynamic events
    def apply_event(
        self,
        state: GroupState,
        event: MembershipEvent,
        *,
        medium: Optional[BroadcastMedium] = None,
        seed: object = 0,
        engine: Optional[EngineConfig] = None,
    ) -> ProtocolResult:
        """Run the paper's dedicated protocol for a membership event.

        Unlike the re-execution default inherited by the baselines, every
        event here runs the Join, Leave, Merge or Partition protocol over the
        existing :class:`GroupState`.  An event that does not fit the group
        raises :class:`~repro.exceptions.MembershipError` before anything
        runs.  For a merge, the incoming group is first keyed among itself
        on a private medium (it is a separate radio domain until the
        networks actually meet), then the two controllers run the Merge
        protocol on the shared medium.
        """
        membership_after(state.members, event)
        if isinstance(event, MergeEvent):
            # Named child seed (not string concatenation) so the sub-group's
            # randomness is domain-separated like every other consumer.
            other_seed = DeterministicRNG(seed, label="merge-event").derive_seed("other-group")
            # The incoming group keys itself on its own private radio domain
            # *before* the networks meet — instant mode, off the shared
            # medium's virtual clock.
            other = self.run(list(event.other_group), seed=other_seed)
            # Clear its establishment costs so the merge step is charged only
            # with what the Merge protocol itself does (Table 5 accounting).
            other.state.reset_costs()
            return self.merge_states(state, other.state, medium=medium, engine=engine)
        medium = medium if medium is not None else BroadcastMedium()
        if isinstance(event, JoinEvent):
            plan = join_plan(self.setup, state, event.joining, medium=medium, seed=seed)
        else:
            departing = [event.leaving] if isinstance(event, LeaveEvent) else list(event.leaving)
            plan = departure_plan(self.setup, state, departing, kind=event.kind, medium=medium)
        return drive_plan(plan, medium, engine=engine)

    def merge_states(
        self,
        state: GroupState,
        other: GroupState,
        *,
        medium: Optional[BroadcastMedium] = None,
        seed: object = 0,
        engine: Optional[EngineConfig] = None,
    ) -> ProtocolResult:
        """Merge an established peer group via the dedicated Merge protocol.

        The Merge protocol draws only on the members' own RNG streams, so
        ``seed`` is unused.
        """
        medium = medium if medium is not None else BroadcastMedium()
        return drive_plan(merge_plan(self.setup, state, other, medium=medium), medium, engine=engine)
