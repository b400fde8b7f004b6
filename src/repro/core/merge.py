"""The authenticated Merge protocol (Section 7 of the paper).

Two established groups ``G_A = {U_1..U_n}`` (key ``K_A``) and
``G_B = {U_{n+1}..U_{n+m}}`` (key ``K_B``) combine into a single group.  Only
the two controllers do public-key work:

* **Round 1** — each controller refreshes its exponent and broadcasts its new
  keying material together with its group's *last* member's ``z`` under a full
  GQ signature (``m'_1 = U_1 || z̃_1 || z_n || σ'_1`` and symmetrically for
  ``U_{n+1}``).
* **Round 2** — each controller derives the controller-to-controller DH key
  ``K_{U_1 U_{n+1}}``, folds its group's key into a partial key (equations 7
  and 8), and broadcasts it encrypted both for its own group (under the old
  group key) and for the peer controller (under the DH key).
* **Round 3** — each controller re-encrypts the *other* group's partial key
  for its own members.
* **Key computation** — every member of the merged group forms
  ``K' = K*_A · K*_B`` (equation 9).

The two controllers run as mirror-image
:class:`~repro.engine.machine.PartyMachine` instances — each round is a
reaction to the peer controller's previous broadcast — and every other member
is an :class:`~repro.core.base.EnvelopePairMachine` that merely opens its
controller's two envelopes.  All non-controller members only perform
symmetric decryptions, which is what drives their Table 5 energy down to
fractions of a millijoule.

:func:`merge_plan` builds one Merge run.
:meth:`~repro.core.gka.ProposedGKAProtocol.merge_states` drives it, and so
does ``apply_event`` for a :class:`~repro.network.events.MergeEvent`.
"""

from __future__ import annotations

from typing import List, Optional

from ..engine.machine import Early, MachinePlan, Outbound, PartyMachine
from ..exceptions import ParameterError, SignatureError
from ..mathutils.serialization import encode_fields, int_to_bytes
from ..network.medium import BroadcastMedium
from ..network.message import Message, envelope_part, group_element_part, identity_part, signature_part
from ..pki.identity import Identity
from ..signatures.gq import GQSignatureScheme
from ..symmetric.authenc import SymmetricEnvelope
from .base import EnvelopePairMachine, GroupState, PartyState, SystemSetup, ring_plan

__all__ = ["merge_plan"]


class _MergeControllerMachine(PartyMachine):
    """One group's controller: the only public-key worker of the merge.

    ``tag``/``peer_tag`` are ``"a"``/``"b"``; the A-side controller is the
    surviving group's ``U_1``.  The partial-key equations (7) and (8) differ
    between the sides in where the *refreshed* exponent lands, so the side is
    explicit rather than symmetric-by-renaming.
    """

    def __init__(
        self,
        setup: SystemSetup,
        scheme: GQSignatureScheme,
        party: PartyState,
        own_state: GroupState,
        tag: str,
        peer_controller: Identity,
    ) -> None:
        super().__init__(party.identity, party.node)
        self.setup = setup
        self.scheme = scheme
        self.party = party
        self.own_state = own_state
        self.tag = tag
        self.peer_tag = "b" if tag == "a" else "a"
        self.peer_controller = peer_controller
        self._new_r: Optional[int] = None
        self._new_z: Optional[int] = None
        self._k_star: Optional[int] = None
        self._dh_envelope: Optional[SymmetricEnvelope] = None
        self._own_envelope: Optional[SymmetricEnvelope] = None

    # ----------------------------------------------------------------- hooks
    def start(self, now: float) -> List[Outbound]:
        group = self.setup.group
        party = self.party
        z_last = self.own_state.party(self.own_state.ring.last()).z
        assert z_last is not None
        self._new_r = group.random_exponent(party.rng)
        self._new_z = group.exp_g(self._new_r)
        party.recorder.record_operation("modexp")
        body = encode_fields(
            [self.identity.to_bytes(), int_to_bytes(self._new_z), int_to_bytes(z_last)]
        )
        signature = self.scheme.sign(party.private_key, body, party.rng)
        party.recorder.record_signature("gq", "gen")
        self.waiting_for = f"merge-round1-{self.peer_tag}"
        return [
            Outbound(
                Message.broadcast(
                    self.identity,
                    f"merge-round1-{self.tag}",
                    [
                        identity_part(self.identity),
                        group_element_part("z_tilde", self._new_z, group.element_bits),
                        group_element_part("z_last", z_last, group.element_bits),
                        signature_part(signature),
                    ],
                )
            )
        ]

    def on_message(self, message: Message, now: float) -> List[Outbound]:
        label = message.round_label
        if label == f"merge-round1-{self.peer_tag}":
            return self._on_peer_round1(message)
        if label == f"merge-round2-{self.peer_tag}":
            if self._dh_envelope is None:
                raise Early  # overtook the peer's round 1
            return self._on_peer_round2(message)
        return []

    # ------------------------------------------------------- peer reactions
    def _on_peer_round1(self, message: Message) -> List[Outbound]:
        group = self.setup.group
        party = self.party
        peer_new_z = int(message.value("z_tilde"))
        peer_z_last = int(message.value("z_last"))
        body = encode_fields(
            [
                self.peer_controller.to_bytes(),
                int_to_bytes(peer_new_z),
                int_to_bytes(peer_z_last),
            ]
        )
        if not self.scheme.verify(
            self.peer_controller.to_bytes(), body, message.value("signature")
        ):
            raise SignatureError(
                "U_1 rejected the signature of group B's controller"
                if self.tag == "a"
                else "U_{n+1} rejected the signature of group A's controller"
            )
        party.recorder.record_signature("gq", "ver")
        assert self._new_r is not None
        dh_view = group.power(peer_new_z, self._new_r)
        party.recorder.record_operation("modexp")
        ring = self.own_state.ring
        z2 = self.own_state.party(ring.right_neighbour(self.identity)).z
        z_last = self.own_state.party(ring.last()).z
        key = party.group_key
        assert z2 is not None and z_last is not None and party.r is not None
        assert key is not None
        if self.tag == "a":
            # Equation (7): K*_A = K_A · (z_2 z_n)^{-r_1} (z_2 z_{n+m})^{r̃_1}
            self._k_star = (
                key
                * group.power((z2 * z_last) % group.p, -party.r)
                * group.power((z2 * peer_z_last) % group.p, self._new_r)
            ) % group.p
        else:
            # Equation (8): K*_B = K_B · (z_n z_{n+2})^{r̃_{n+1}} (z_{n+2} z_{n+m})^{-r_{n+1}}
            self._k_star = (
                key
                * group.power((peer_z_last * z2) % group.p, self._new_r)
                * group.power((z2 * z_last) % group.p, -party.r)
            ) % group.p
        party.recorder.record_operation("modexp", 2)
        self._own_envelope = SymmetricEnvelope(key)
        self._dh_envelope = SymmetricEnvelope(dh_view)
        key_label = f"E_K{self.tag.upper()}(K*_{self.tag.upper()})"
        dh_label = f"E_DH(K*_{self.tag.upper()})"
        sealed_for_own = self._own_envelope.seal_group_element(
            self._k_star, self.identity.to_bytes(), party.rng
        )
        sealed_for_peer = self._dh_envelope.seal_group_element(
            self._k_star, self.identity.to_bytes(), party.rng
        )
        party.recorder.record_operation("symmetric", 2)
        self.waiting_for = f"merge-round2-{self.peer_tag}"
        return [
            Outbound(
                Message.broadcast(
                    self.identity,
                    f"merge-round2-{self.tag}",
                    [
                        identity_part(self.identity),
                        envelope_part(sealed_for_own, key_label),
                        envelope_part(sealed_for_peer, dh_label),
                    ],
                )
            )
        ]

    def _on_peer_round2(self, message: Message) -> List[Outbound]:
        group = self.setup.group
        party = self.party
        assert self._dh_envelope is not None and self._own_envelope is not None
        assert self._k_star is not None
        peer_k_star = self._dh_envelope.open_group_element(
            message.value(f"E_DH(K*_{self.peer_tag.upper()})"),
            self.peer_controller.to_bytes(),
        )
        party.recorder.record_operation("symmetric")
        sealed_for_own = self._own_envelope.seal_group_element(
            peer_k_star, self.identity.to_bytes(), party.rng
        )
        party.recorder.record_operation("symmetric")
        party.group_key = (self._k_star * peer_k_star) % group.p
        party.r, party.z = self._new_r, self._new_z
        self.finished = True
        self.waiting_for = None
        return [
            Outbound(
                Message.broadcast(
                    self.identity,
                    f"merge-round3-{self.tag}",
                    [
                        identity_part(self.identity),
                        envelope_part(
                            sealed_for_own,
                            f"E_K{self.tag.upper()}(K*_{self.peer_tag.upper()})",
                        ),
                    ],
                )
            )
        ]


def merge_plan(
    setup: SystemSetup,
    state_a: GroupState,
    state_b: GroupState,
    *,
    medium: BroadcastMedium,
) -> MachinePlan:
    """Decompose merging ``state_b`` into ``state_a`` into per-member machines."""
    if state_a.setup is not setup and state_a.setup.group is not setup.group:
        raise ParameterError("group A was established under different system parameters")
    if not state_a.all_agree() or not state_b.all_agree():
        raise ParameterError("both groups must hold agreed keys before merging")
    merged_ring = state_a.ring.merged_with(state_b.ring)

    for member in list(state_a.ring) + list(state_b.ring):
        source = state_a if member in state_a.ring else state_b
        medium.attach(source.party(member).node)

    scheme = GQSignatureScheme(setup.gq_params)
    machines: List[PartyMachine] = []
    for state, own, other, peer in ((state_a, "A", "B", state_b), (state_b, "B", "A", state_a)):
        controller = state.ring.controller()
        tag = own.lower()
        envelopes = (
            (f"merge-round2-{tag}", f"E_K{own}(K*_{own})", controller),
            (f"merge-round3-{tag}", f"E_K{own}(K*_{other})", controller),
        )
        for member in state.ring.members:
            party = state.party(member)
            if member.name == controller.name:
                machines.append(
                    _MergeControllerMachine(
                        setup, scheme, party, state, tag, peer.ring.controller()
                    )
                )
            else:
                machines.append(EnvelopePairMachine(party, setup, envelopes))

    parties = {**state_a.parties, **state_b.parties}
    return ring_plan(setup, "proposed-merge", merged_ring, parties, medium, machines, rounds=3)
