"""The authenticated Leave and Partition protocols (Section 7 of the paper).

The paper's Leave protocol and Partition protocol are the same two-round
construction — Partition "can be seen as multiple users leaving the group" —
so one plan, :func:`departure_plan`, serves both; its ``kind`` (``"leave"``
or ``"partition"``) names the rounds and the result.  When ``U_l`` leaves
(or the set ``L`` partitions away):

* **Round 1** — every *remaining odd-indexed* user refreshes its exponent
  (``r'_j``, ``z'_j = g^{r'_j}``) and its GQ commitment (``tau'_j``,
  ``t'_j``) and broadcasts ``m_j = U_j || z'_j || t'_j``.
* **Round 2** — every remaining user recomputes its ``X'_i`` over the *new*
  ring (the departed members spliced out), forms the aggregates
  ``Z̄ = prod z_i`` / ``T̄ = prod t_i`` (new values for refreshed users, the
  stored ones for the rest), the common challenge ``c̄ = H(T̄, Z̄)`` and its
  GQ response ``s̄_i``, and broadcasts ``m'_i = U_i || X'_i || s̄_i`` with the
  controller ``U_1`` transmitting last.
* **Verification & key computation** — the batch equation (10)/(12), Lemma 1
  over the remaining ``X'_i``, then the Burmester–Desmedt key over the new
  ring (equations (11)/(13)).

:meth:`~repro.core.gka.ProposedGKAProtocol.apply_event` drives the plan for a
:class:`~repro.network.events.LeaveEvent` or
:class:`~repro.network.events.PartitionEvent`.

Execution is one :class:`~repro.core.base.GQRoundMachine` per remaining
member on the event kernel — the same BD rounds and GQ Round 2 as the
initial GKA, over the new ring.  What is this module's own is Round 1: only
the refreshers emit it from ``start``, and Round 2 fires on Round-1
completeness (non-refreshers know exactly how many refreshed ``z'``
broadcasts to expect; everyone else's ``z``/``t`` are the stored values).
As in the initial GKA the controller withholds its Round-2 broadcast until
every other member's has arrived.  Verification failures raise immediately;
there is no retransmission loop in the paper's Leave/Partition description.

Because the departed users' exponents no longer appear adjacent in the new
ring and the odd-indexed users refreshed theirs, the departed users cannot
compute the new key (key independence); the property-based tests check that
the new key differs from the old one and from anything derivable with the
departed state alone.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Set

from ..engine.machine import MachinePlan, Outbound
from ..exceptions import BatchVerificationError, KeyConfirmationError, MembershipError, ParameterError
from ..mathutils.memo import Memo
from ..network.medium import BroadcastMedium
from ..network.message import Message
from ..network.topology import RingTopology
from ..pki.identity import Identity
from ..signatures.gq import gq_batch_verify
from .base import GQRoundMachine, GroupState, PartyState, SystemSetup, ring_plan

__all__ = ["departure_plan"]


class _RekeyPartyMachine(GQRoundMachine):
    """One remaining member's view of the Leave/Partition re-keying."""

    def __init__(
        self,
        party: PartyState,
        setup: SystemSetup,
        new_ring: RingTopology,
        parties: Mapping[str, PartyState],
        refresher_names: Set[str],
        kind: str,
        verdicts: Memo,
    ) -> None:
        super().__init__(party, setup, new_ring, verdicts)
        self.parties = parties
        self.protocol_name = f"proposed-{kind}"
        self.round1_label = f"{kind}-round1"
        self.round2_label = f"{kind}-round2"
        self.is_refresher = party.identity.name in refresher_names
        self._expected_round1 = len(refresher_names) - (1 if self.is_refresher else 0)
        self._received_round1 = 0

    # ----------------------------------------------------------------- hooks
    def start(self, now: float) -> List[Outbound]:
        outs = [self._broadcast_round1()] if self.is_refresher else []
        self.waiting_for = self.round1_label
        if self._expected_round1 == 0:
            outs.extend(self._complete_round1())
        return outs

    # --------------------------------------------------------------- round 1
    def _take_round1(self, sender: Identity, message: Message) -> bool:
        super()._take_round1(sender, message)
        self._received_round1 += 1
        return self._received_round1 == self._expected_round1

    def _complete_round1(self) -> List[Outbound]:
        # Members that did not refresh keep their stored z and t.
        for other in self.ring.members:
            other_state = self.parties[other.name]
            other_state.require_ephemeral()
            self._z_view.setdefault(other.name, other_state.z)  # type: ignore[arg-type]
            if other_state.t is None:
                raise KeyConfirmationError(
                    f"{other.name} has no stored GQ commitment; cannot re-key"
                )
            self._t_view.setdefault(other.name, other_state.t)
        return super()._complete_round1()

    # ----------------------------------------------------------- verification
    def _verify(self) -> None:
        party = self.party
        if not self._batch_verdict(gq_batch_verify):
            raise BatchVerificationError(
                f"{self.identity.name} failed the batch verification during {self.protocol_name}"
            )
        party.recorder.record_signature("gq", "ver")
        if not self._lemma1_holds():
            raise KeyConfirmationError(
                f"{self.identity.name} found prod X'_i != 1 during {self.protocol_name}"
            )
        self._derive_key()
        self.finished = True
        self.waiting_for = None


def departure_plan(
    setup: SystemSetup,
    state: GroupState,
    departing: Sequence[Identity],
    *,
    kind: str,
    medium: BroadcastMedium,
) -> MachinePlan:
    """Decompose one Leave or Partition (``kind``) into per-member machines."""
    if not departing:
        raise ParameterError("at least one member must depart")
    if not state.all_agree():
        raise ParameterError("the current group has not agreed on a key; run the GKA first")
    departing_names: Set[str] = {identity.name for identity in departing}
    if state.ring.controller().name in departing_names:
        raise MembershipError("the controller U_1 cannot be removed by this protocol")

    old_ring = state.ring
    new_ring = old_ring.with_partition(departing)
    remaining = new_ring.members

    for member in remaining:
        medium.attach(state.party(member).node)
    # Departed members fall out of radio range: they are *not* attached, so
    # they neither receive the re-keying traffic nor get charged for it.
    for identity in departing:
        medium.detach(identity)

    refreshers = old_ring.odd_indexed(exclude=departing)
    refresher_names = {identity.name for identity in refreshers}
    parties = {
        name: party for name, party in state.parties.items() if name not in departing_names
    }
    verdicts = Memo()
    machines = [
        _RekeyPartyMachine(
            state.party(member), setup, new_ring, parties, refresher_names, kind, verdicts
        )
        for member in remaining
    ]
    return ring_plan(setup, f"proposed-{kind}", new_ring, parties, medium, machines, rounds=2)
