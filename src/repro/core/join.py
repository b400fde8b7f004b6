"""The authenticated Join protocol (Section 7 of the paper).

A new user ``U_{n+1}`` joins an established group ``G = {U_1, ..., U_n}`` with
current key ``K``.  Instead of re-running the full GKA, only three nodes do
public-key work:

* **Round 1** — ``U_{n+1}`` broadcasts its keying material ``z_{n+1}`` under a
  full GQ signature.
* **Round 2** — the controller ``U_1`` refreshes its exponent and computes the
  partial key ``K* = K · (z_2 z_n)^{-r_1} (z_2 z_{n+1})^{r'_1}`` (equation 5),
  distributing it to the old group under ``E_K``; the last user ``U_n``
  computes the DH key ``K_{U_n U_{n+1}}`` it shares with the newcomer and
  distributes it to the old group under ``E_K``, signing its message.
* **Round 3** — ``U_n`` re-encrypts ``K*`` for the newcomer under the DH key.
* **Key computation** — everyone (including the newcomer) forms
  ``K' = K* · K_{U_n U_{n+1}}`` (equation 6).

Each participant runs as a :class:`~repro.engine.machine.PartyMachine` with a
role-specific reaction: the newcomer opens with Round 1, ``U_1`` and ``U_n``
react to it with their Round-2 broadcasts (``U_1``'s flushes first, in ring
order), ``U_n`` reacts to ``U_1``'s partial key with the Round-3 unicast, and
every bystander is an :class:`~repro.core.base.EnvelopePairMachine` that
merely opens the two ``E_K`` envelopes.  Every other member only performs
symmetric decryptions and receptions — the source of the
three-orders-of-magnitude energy gap over re-running BD that Table 5 reports.

:func:`join_plan` builds one Join run.
:meth:`~repro.core.gka.ProposedGKAProtocol.apply_event` drives it for a
:class:`~repro.network.events.JoinEvent`.
"""

from __future__ import annotations

from typing import List, Optional

from ..engine.machine import Early, MachinePlan, Outbound, PartyMachine
from ..exceptions import ParameterError, SignatureError
from ..mathutils.rand import DeterministicRNG
from ..mathutils.serialization import encode_fields, int_to_bytes
from ..network.medium import BroadcastMedium
from ..network.message import Message, envelope_part, group_element_part, identity_part, signature_part
from ..network.node import Node
from ..pki.identity import Identity
from ..signatures.gq import GQSignatureScheme, gq_commitment
from ..symmetric.authenc import SymmetricEnvelope
from .base import EnvelopePairMachine, GroupState, PartyState, SystemSetup, ring_plan

__all__ = ["join_plan"]


class _JoinRun:
    """Shared references for one Join execution (ring roles and identities)."""

    def __init__(
        self, setup: SystemSetup, state: GroupState, joining: Identity, new_party: PartyState
    ) -> None:
        self.setup = setup
        self.scheme = GQSignatureScheme(setup.gq_params)
        self.state = state
        self.joining = joining
        self.new_party = new_party
        self.controller = state.ring.controller()
        self.last = state.ring.last()
        self.u2 = state.ring.right_neighbour(self.controller)

    def verify_newcomer(self, message: Message, party: PartyState, verifier: str) -> None:
        """Check and record the newcomer's GQ signature over ``U_{n+1} || z || t``."""
        body = encode_fields(
            [
                self.joining.to_bytes(),
                int_to_bytes(int(message.value("z"))),
                int_to_bytes(int(message.value("t"))),
            ]
        )
        if not self.scheme.verify(self.joining.to_bytes(), body, message.value("signature")):
            raise SignatureError(f"{verifier} rejected the joining user's signature")
        party.recorder.record_signature("gq", "ver")


class _NewcomerMachine(PartyMachine):
    """``U_{n+1}``: broadcast signed keying material, then receive ``K*``."""

    def __init__(self, run: _JoinRun) -> None:
        super().__init__(run.joining, run.new_party.node)
        self.run = run
        self._dh_key: Optional[int] = None

    def start(self, now: float) -> List[Outbound]:
        group = self.run.setup.group
        params = self.run.setup.gq_params
        party = self.run.new_party
        party.r = group.random_exponent(party.rng)
        party.z = group.exp_g(party.r)
        party.recorder.record_operation("modexp")  # z_{n+1}
        # The newcomer also publishes a GQ commitment t_{n+1} so that it can
        # take part in later Leave/Partition re-keying exactly like a member
        # that ran the initial GKA.  This is a small completion of the paper's
        # Join round 1 (documented in DESIGN.md); its cost is folded into the
        # GQ signature generation recorded below.
        party.tau, party.t = gq_commitment(params, party.rng)
        body = encode_fields(
            [self.identity.to_bytes(), int_to_bytes(party.z), int_to_bytes(party.t)]
        )
        signature = self.run.scheme.sign(party.private_key, body, party.rng)
        party.recorder.record_signature("gq", "gen")
        self.waiting_for = "join-round2-un"
        return [
            Outbound(
                Message.broadcast(
                    self.identity,
                    "join-round1",
                    [
                        identity_part(self.identity),
                        group_element_part("z", party.z, group.element_bits),
                        group_element_part("t", party.t, params.modulus_bits),
                        signature_part(signature),
                    ],
                )
            )
        ]

    def on_message(self, message: Message, now: float) -> List[Outbound]:
        group = self.run.setup.group
        party = self.run.new_party
        if message.round_label == "join-round2-un":
            # Verify U_n's signature over (E_K(DH), z_n), then derive the DH
            # key it shares with U_n from the broadcast z_n.
            sealed_dh = message.value("E_K(DH)")
            zn = int(message.value("z_n"))
            body = encode_fields([sealed_dh.to_bytes(), int_to_bytes(zn)])
            if not self.run.scheme.verify(
                self.run.last.to_bytes(), body, message.value("signature")
            ):
                raise SignatureError("the joining user rejected U_n's signature")
            party.recorder.record_signature("gq", "ver")
            self._dh_key = group.power(zn, party.r)
            party.recorder.record_operation("modexp")
            self.waiting_for = "join-round3-un"
            return []
        if message.round_label == "join-round3-un":
            if self._dh_key is None:
                # Multi-hop latency can deliver the unicast before U_n's
                # broadcast; it is taken once the DH key exists.
                raise Early
            envelope = SymmetricEnvelope(self._dh_key)
            k_star = envelope.open_group_element(
                message.value("E_DH(K*)"), self.run.last.to_bytes()
            )
            party.recorder.record_operation("symmetric")
            party.group_key = (k_star * self._dh_key) % group.p
            self.finished = True
            self.waiting_for = None
        return []


class _ControllerMachine(PartyMachine):
    """``U_1``: refresh ``r_1``, distribute ``K*`` under ``E_K``."""

    def __init__(self, run: _JoinRun, party: PartyState) -> None:
        super().__init__(party.identity, party.node)
        self.run = run
        self.party = party
        self._k_star: Optional[int] = None
        self._new_r1: Optional[int] = None
        self._group_envelope: Optional[SymmetricEnvelope] = None

    def start(self, now: float) -> List[Outbound]:
        self.waiting_for = "join-round1"
        return []

    def on_message(self, message: Message, now: float) -> List[Outbound]:
        group = self.run.setup.group
        party = self.party
        if message.round_label == "join-round2-un" and self._group_envelope is None:
            raise Early  # overtook the newcomer's round 1
        if message.round_label == "join-round1":
            self.run.verify_newcomer(message, party, "U_1")
            z2 = self.run.state.party(self.run.u2).z
            zn = self.run.state.party(self.run.last).z
            z_new = int(message.value("z"))
            current_key = party.group_key
            assert z2 is not None and zn is not None and party.r is not None
            assert current_key is not None
            self._new_r1 = group.random_exponent(party.rng)
            self._k_star = (
                current_key
                * group.power((z2 * zn) % group.p, -party.r)
                * group.power((z2 * z_new) % group.p, self._new_r1)
            ) % group.p
            party.recorder.record_operation("modexp", 2)
            self._group_envelope = SymmetricEnvelope(current_key)
            sealed = self._group_envelope.seal_group_element(
                self._k_star, self.identity.to_bytes(), party.rng
            )
            party.recorder.record_operation("symmetric")
            self.waiting_for = "join-round2-un"
            return [
                Outbound(
                    Message.broadcast(
                        self.identity,
                        "join-round2-u1",
                        [identity_part(self.identity), envelope_part(sealed, "E_K(K*)")],
                    )
                )
            ]
        if message.round_label == "join-round2-un":
            assert self._group_envelope is not None and self._k_star is not None
            dh_key = self._group_envelope.open_group_element(
                message.value("E_K(DH)"), self.run.last.to_bytes()
            )
            party.recorder.record_operation("symmetric")
            party.group_key = (self._k_star * dh_key) % group.p
            party.r = self._new_r1
            party.z = None  # g^{r'_1} is never broadcast in the Join protocol
            self.finished = True
            self.waiting_for = None
        return []


class _LastMemberMachine(PartyMachine):
    """``U_n``: bridge the newcomer in via the DH key it shares with it."""

    def __init__(self, run: _JoinRun, party: PartyState) -> None:
        super().__init__(party.identity, party.node)
        self.run = run
        self.party = party
        self._dh_key: Optional[int] = None
        self._group_envelope: Optional[SymmetricEnvelope] = None

    def start(self, now: float) -> List[Outbound]:
        self.waiting_for = "join-round1"
        return []

    def on_message(self, message: Message, now: float) -> List[Outbound]:
        group = self.run.setup.group
        party = self.party
        if message.round_label == "join-round2-u1" and self._group_envelope is None:
            raise Early  # overtook the newcomer's round 1
        if message.round_label == "join-round1":
            self.run.verify_newcomer(message, party, "U_n")
            z_new = int(message.value("z"))
            assert party.r is not None and party.z is not None
            current_key = party.group_key
            assert current_key is not None
            self._dh_key = group.power(z_new, party.r)
            party.recorder.record_operation("modexp")
            self._group_envelope = SymmetricEnvelope(current_key)
            sealed_dh = self._group_envelope.seal_group_element(
                self._dh_key, self.identity.to_bytes(), party.rng
            )
            party.recorder.record_operation("symmetric")
            body = encode_fields([sealed_dh.to_bytes(), int_to_bytes(party.z)])
            signature = self.run.scheme.sign(party.private_key, body, party.rng)
            party.recorder.record_signature("gq", "gen")
            self.waiting_for = "join-round2-u1"
            return [
                Outbound(
                    Message.broadcast(
                        self.identity,
                        "join-round2-un",
                        [
                            identity_part(self.identity),
                            envelope_part(sealed_dh, "E_K(DH)"),
                            group_element_part("z_n", party.z, group.element_bits),
                            signature_part(signature),
                        ],
                    )
                )
            ]
        if message.round_label == "join-round2-u1":
            assert self._group_envelope is not None and self._dh_key is not None
            k_star = self._group_envelope.open_group_element(
                message.value("E_K(K*)"), self.run.controller.to_bytes()
            )
            party.recorder.record_operation("symmetric")
            dh_envelope = SymmetricEnvelope(self._dh_key)
            sealed_for_newcomer = dh_envelope.seal_group_element(
                k_star, self.identity.to_bytes(), party.rng
            )
            party.recorder.record_operation("symmetric")
            party.group_key = (k_star * self._dh_key) % group.p
            self.finished = True
            self.waiting_for = None
            return [
                Outbound(
                    Message.unicast(
                        self.identity,
                        self.run.joining,
                        "join-round3-un",
                        [
                            identity_part(self.identity),
                            envelope_part(sealed_for_newcomer, "E_DH(K*)"),
                        ],
                    )
                )
            ]
        return []


def join_plan(
    setup: SystemSetup,
    state: GroupState,
    joining: Identity,
    *,
    medium: BroadcastMedium,
    seed: object = 0,
) -> MachinePlan:
    """Decompose one Join into per-member machines.

    ``state`` must be an agreed group (every member holds the same key);
    the plan's result holds the enlarged group with the new key ``K'``.
    """
    if not state.all_agree():
        raise ParameterError("the current group has not agreed on a key; run the GKA first")
    new_ring = state.ring.with_join(joining)
    rng = DeterministicRNG(seed, label="join")
    for member in state.ring.members:
        medium.attach(state.party(member).node)

    # The joining party: enrolled with the PKG, given a node on the medium.
    new_key_pair = setup.enroll(joining)
    new_node = Node(joining)
    medium.attach(new_node)
    new_party = PartyState(
        identity=joining,
        private_key=new_key_pair,
        rng=rng.fork(f"party/{joining.name}"),
        node=new_node,
    )

    run = _JoinRun(setup, state, joining, new_party)
    envelopes = (
        ("join-round2-u1", "E_K(K*)", run.controller),
        ("join-round2-un", "E_K(DH)", run.last),
    )
    machines: List[PartyMachine] = []
    for member in state.ring.members:
        party = state.party(member)
        if member.name == run.controller.name:
            machines.append(_ControllerMachine(run, party))
        elif member.name == run.last.name:
            machines.append(_LastMemberMachine(run, party))
        else:
            # On a multi-hop medium the newcomer's round 1 can reach a
            # bystander after both envelopes; it is ignored.
            machines.append(EnvelopePairMachine(party, setup, envelopes))
    machines.append(_NewcomerMachine(run))
    parties = {**state.parties, joining.name: new_party}
    return ring_plan(setup, "proposed-join", new_ring, parties, medium, machines, rounds=3)
