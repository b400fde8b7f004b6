"""The Saeednia–Safavi-Naini (SSN) ID-based GKA baseline.

The paper's fifth comparison column is the SSN protocol [12]: an ID-based
authenticated conference-key protocol built on BD where authentication is
implicit — there are no signature generations or verifications in the
protocol's own vocabulary, but "the number of exponentiations required to be
performed by each user is dependent on the group size n" (2n + 4 in Table 1),
which is exactly what makes it lose to the proposed scheme in Figure 1.

Reconstruction note (see DESIGN.md): the original 1998 paper's exact message
equations are not reproduced verbatim here.  What this module implements is a
functional ID-based variant with the same structure and the same cost profile:

* each user authenticates its BD keying material with an identity-based
  zero-knowledge response (GQ-style, using the same PKG-extracted identity
  secret ``S_ID``), transmitted alongside ``z_i``;
* each user checks every other member's authenticator individually, costing
  two modular exponentiations per member — the ``2(n-1)`` term;
* all operations are tallied as modular exponentiations (as the paper's
  Table 1 does for this scheme), so the complexity and energy comparison
  reproduce the paper's O(n)-exponentiation behaviour faithfully.

Execution is one :class:`~repro.core.base.BDRoundMachine` per member, which
runs the BD rounds; this module adds only the authenticators (``t_i``, ``s_i``
in Round 1) and their check, which runs when the Round-1 view completes.
The check is a pure function of the broadcast ``(sender, z, t, s)`` that
every receiver evaluates identically, so its *outcome* is memoised in a
:class:`~repro.mathutils.memo.Memo` keyed by all four, which the run's plan
creates and shares among its machines; each receiver still records its own
two exponentiations.

This preserves everything the paper evaluates about SSN — linear-in-``n``
exponentiation count, two broadcast rounds, no certificates or explicit
signatures — which is the role the baseline plays in Table 1 and Figure 1.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..engine.machine import MachinePlan
from ..exceptions import VerificationError
from ..mathutils.memo import Memo
from ..mathutils.modular import modinv
from ..mathutils.serialization import int_to_bytes
from ..network.medium import BroadcastMedium
from ..network.message import Message, MessagePart, group_element_part
from ..network.topology import RingTopology
from ..pki.identity import Identity
from ..core.base import BDRoundMachine, PartyState, Protocol, SystemSetup

__all__ = ["SSNProtocol"]


class _SSNPartyMachine(BDRoundMachine):
    """One member's view of the SSN-style ID-based BD."""

    round1_label = "ssn-round1"
    round2_label = "ssn-round2"

    def __init__(
        self,
        party: PartyState,
        setup: SystemSetup,
        ring: RingTopology,
        verdicts: Memo,
    ) -> None:
        super().__init__(party, setup, ring)
        self.verdicts = verdicts
        #: sender -> (identity, z, t, s) from Round 1, in arrival order
        self._round1: Dict[str, Tuple[Identity, int, int, int]] = {}

    def _round1_parts(self) -> List[MessagePart]:
        params = self.setup.gq_params
        party = self.party
        tau = party.rng.zn_star(params.n)
        t_value = pow(tau, params.e, params.n)
        challenge = params.hash_function.challenge(
            self.identity.to_bytes(), int_to_bytes(party.z), int_to_bytes(t_value)
        )
        s_value = (tau * pow(party.private_key.secret, challenge, params.n)) % params.n
        party.recorder.record_operation("modexp", 2)  # t_i, S_ID^c
        return [
            group_element_part("t", t_value, params.modulus_bits),
            group_element_part("s", s_value, params.modulus_bits),
        ]

    def _take_round1(self, sender: Identity, message: Message) -> bool:
        self._round1[sender.name] = (
            sender,
            int(message.value("z")),
            int(message.value("t")),
            int(message.value("s")),
        )
        if len(self._round1) != self.ring.size - 1:
            return False
        self._verify_authenticators()
        return True

    # ------------------------------------------------------- authentication
    def _verify_authenticators(self) -> None:
        params = self.setup.gq_params
        party = self.party
        for sender, z_value, t_value, s_value in self._round1.values():
            key = (sender.name, z_value, t_value, s_value)
            accepted = self.verdicts.get(key)
            if accepted is None:
                challenge = params.hash_function.challenge(
                    sender.to_bytes(), int_to_bytes(z_value), int_to_bytes(t_value)
                )
                hid = params.identity_public_key(sender.to_bytes())
                check = (
                    pow(s_value, params.e, params.n)
                    * pow(modinv(hid, params.n), challenge, params.n)
                ) % params.n
                accepted = self.verdicts.put(key, check == t_value)
            party.recorder.record_operation("modexp", 2)
            if not accepted:
                raise VerificationError(
                    f"{self.identity.name} rejected {sender.name}'s SSN authenticator"
                )
            self._z_view[sender.name] = z_value


class SSNProtocol(Protocol):
    """ID-based BD with per-member implicit authentication (the SSN baseline).

    No dynamic sub-protocols: membership events re-execute the full run via
    the inherited :meth:`~repro.core.base.Protocol.apply_event`.
    """

    name = "ssn"

    def build_machines(
        self,
        members: Sequence[Identity],
        *,
        medium: BroadcastMedium,
        seed: object = 0,
        **kwargs: object,
    ) -> MachinePlan:
        """Decompose the SSN-style protocol into per-member machines."""
        verdicts = Memo()
        return self._flat_plan(
            members,
            medium,
            seed,
            kwargs,
            "ssn",
            lambda party, ring: _SSNPartyMachine(party, self.setup, ring, verdicts),
        )
