"""Authenticated BD baselines: "sign-all" BD with SOK, ECDSA or DSA.

These are the second, third and fourth protocols of the paper's Table 1.  The
BD rounds are unchanged; authentication is added the intuitive way:

* every user signs ``m_i = U_i || z_i || X_i || prod_j z_j`` (binding both
  rounds' keying material) and attaches the signature to its Round 2
  broadcast;
* every user verifies the ``n - 1`` signatures it receives;
* with the certificate-based schemes (ECDSA, DSA) every user additionally
  transmits its certificate in Round 1 and receives and verifies ``n - 1``
  certificates;
* with the ID-based SOK scheme there are no certificates, but each
  verification involves pairings and a MapToPoint of the signer's identity,
  which is what makes it the most expensive column of Figure 1.

The run executes as one :class:`~repro.core.base.BDRoundMachine` per member,
which runs the BD rounds; this module adds only the authentication layer:
the certificate in Round 1, the signature in Round 2, and the ``n - 1``
verifications (one batch) when the Round-2 view completes.

Cost accounting notes: certificate verifications are priced as one signature
verification of the CA's scheme (that is what they are); the per-user
operation tally for a certificate-based run therefore shows ``2(n-1)``
verifications — ``n - 1`` for certificates plus ``n - 1`` for signatures —
matching Table 1's separate "Cert Ver" and "Sign Ver" rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.machine import MachinePlan, Outbound
from ..exceptions import ParameterError, SignatureError, VerificationError
from ..groups.pairing import SimulatedPairingGroup
from ..mathutils.rand import DeterministicRNG
from ..mathutils.serialization import encode_fields, int_to_bytes
from ..network.medium import BroadcastMedium
from ..network.message import Message, MessagePart, signature_part
from ..network.topology import RingTopology
from ..pki.ca import Certificate, CertificateAuthority
from ..pki.identity import Identity
from ..pki.pkg import SOKPrivateKeyGenerator
from ..signatures.dsa import DSASignatureScheme
from ..signatures.ecdsa import ECDSASignatureScheme
from ..core.base import BDRoundMachine, PartyState, Protocol, SystemSetup

__all__ = ["AuthenticatedBDProtocol", "SUPPORTED_SCHEMES"]

SUPPORTED_SCHEMES = ("sok", "ecdsa", "dsa")


class _AuthBDPartyMachine(BDRoundMachine):
    """One member's view of sign-all authenticated BD."""

    round1_label = "authbd-round1"
    round2_label = "authbd-round2"

    def __init__(
        self,
        protocol: "AuthenticatedBDProtocol",
        party: PartyState,
        ring: RingTopology,
        signing_key: object,
    ) -> None:
        super().__init__(party, protocol.setup, ring)
        self.protocol = protocol
        self.signing_key = signing_key
        self._certs: Dict[str, Certificate] = {}
        self._round2: Dict[str, Tuple[int, object]] = {}
        self._z_product: Optional[int] = None

    # --------------------------------------------------------------- round 1
    def _round1_parts(self) -> List[MessagePart]:
        if not self.protocol.uses_certificates:
            return []
        certificate = self.protocol.certificate_for(self.identity)
        return [MessagePart("certificate", certificate, certificate.wire_bits)]

    def _take_round1(self, sender: Identity, message: Message) -> bool:
        complete = super()._take_round1(sender, message)
        if self.protocol.uses_certificates:
            self._certs[sender.name] = message.value("certificate")  # type: ignore[assignment]
        return complete

    # --------------------------------------------------------------- round 2
    def _round2_parts(self, x_value: int) -> List[MessagePart]:
        party = self.party
        self._z_product = self.setup.group.product(
            self._z_view[name] for name in sorted(self._z_view)
        )
        body = encode_fields(
            [
                self.identity.to_bytes(),
                int_to_bytes(party.z),
                int_to_bytes(x_value),
                int_to_bytes(self._z_product),
            ]
        )
        signature = self.protocol.signature_scheme.sign(self.signing_key, body, party.rng)
        party.recorder.record_signature(self.protocol.scheme_name, "gen")
        return [signature_part(signature)]

    def _on_round2(self, sender: Identity, message: Message) -> List[Outbound]:
        self._round2[sender.name] = (int(message.value("X")), message.value("signature"))
        if len(self._round2) == self.ring.size - 1:
            self._verify_round2()
            self._derive_key()
            self.finished = True
            self.waiting_for = None
        return []

    # ----------------------------------------------------------- verification
    def _verify_round2(self) -> None:
        """Check the certificates and signatures, then take the X values."""
        party = self.party
        assert self._z_product is not None
        # Certificates first (per sender), then the n-1 signatures as one
        # batch_verify call: for DSA/ECDSA that is one random-linear-
        # combination multi-exp instead of n-1 independent verifications
        # (SOK falls back to the per-item loop).  Host time only — the
        # recorder still charges this receiver one "ver" per certificate and
        # one per signature, exactly as the loop did.
        senders: List[str] = []
        items: List[Tuple[object, bytes, object]] = []
        for sender_name, (x_value, signature) in self._round2.items():
            body = encode_fields(
                [
                    self.protocol.identity_bytes(sender_name),
                    int_to_bytes(self._z_view[sender_name]),
                    int_to_bytes(x_value),
                    int_to_bytes(self._z_product),
                ]
            )
            if self.protocol.uses_certificates:
                certificate = self._certs[sender_name]
                if not self.protocol.ca.verify(certificate):
                    raise VerificationError(
                        f"{self.identity.name} rejected {sender_name}'s certificate"
                    )
                party.recorder.record_signature(self.protocol.scheme_name, "ver")  # cert
                public_key: object = self.protocol.decode_certified_key(certificate)
            else:
                public_key = self.protocol.identity_bytes(sender_name)
            senders.append(sender_name)
            items.append((public_key, body, signature))
        # The coefficient stream is a *forked* (derivation-based) child, so
        # drawing from it never advances the party's own stream — transcripts
        # stay bit-identical to the per-item loop.
        batch_rng = party.rng.fork("batch-verify")
        if self.protocol.uses_certificates:
            outcomes = self.protocol.signature_scheme.batch_verify(items, batch_rng)
        else:
            outcomes = self.protocol.signature_scheme.batch_verify(
                items, batch_rng, master_public=self.protocol.sok_master_public
            )
        for sender_name, verified in zip(senders, outcomes):
            party.recorder.record_signature(self.protocol.scheme_name, "ver")
            if not verified:
                raise SignatureError(
                    f"{self.identity.name} rejected {sender_name}'s signature"
                )
            self._x_table[sender_name] = self._round2[sender_name][0]


class AuthenticatedBDProtocol(Protocol):
    """BD authenticated by signing every Round 2 message (the paper's baselines).

    Like every baseline, membership events re-execute the full GKA (the
    inherited :meth:`~repro.core.base.Protocol.apply_event`) — this is the
    very re-execution cost Tables 4 and 5 hold against the baselines.
    """

    def __init__(self, setup: SystemSetup, scheme: str = "ecdsa", *, seed: object = "auth-bd-infra") -> None:
        if scheme not in SUPPORTED_SCHEMES:
            raise ParameterError(f"scheme must be one of {SUPPORTED_SCHEMES}, got {scheme!r}")
        super().__init__(setup)
        self.scheme_name = scheme
        self.name = f"bd-{scheme}"
        infra_rng = DeterministicRNG(seed, label=f"auth-bd-{scheme}")
        if scheme == "sok":
            self._pairing = SimulatedPairingGroup(setup.group, setup.hash_function)
            self._sok_pkg = SOKPrivateKeyGenerator(self._pairing, infra_rng.fork("sok-pkg"))
            self._signature = self._sok_pkg.scheme
            self._ca: Optional[CertificateAuthority] = None
        else:
            if scheme == "ecdsa":
                self._signature = ECDSASignatureScheme()
            else:
                self._signature = DSASignatureScheme(setup.group)
            self._ca = CertificateAuthority(self._signature, infra_rng.fork("ca"))
        self._user_keys: Dict[str, object] = {}
        self._certificates: Dict[str, Certificate] = {}
        self._identities: Dict[str, Identity] = {}
        self._infra_rng = infra_rng

    # --------------------------------------------------------------- key mgmt
    @property
    def uses_certificates(self) -> bool:
        """Whether this variant transmits and verifies certificates (ECDSA/DSA)."""
        return self._ca is not None

    @property
    def signature_scheme(self) -> object:
        """The scheme used to sign Round-2 bodies."""
        return self._signature

    @property
    def ca(self) -> CertificateAuthority:
        """The certificate authority (certificate-based schemes only)."""
        assert self._ca is not None
        return self._ca

    @property
    def sok_master_public(self) -> object:
        """The SOK PKG's master public key (SOK scheme only)."""
        return self._sok_pkg.master_public

    def certificate_for(self, identity: Identity) -> Certificate:
        """The member's certificate (certificate-based schemes only)."""
        return self._certificates[identity.name]

    def identity_bytes(self, name: str) -> bytes:
        """Wire encoding of a provisioned member's identity."""
        return self._identities[name].to_bytes()

    def _provision(self, identity: Identity) -> object:
        """Give a member its long-term signing key (and certificate if needed)."""
        self._identities[identity.name] = identity
        if identity.name in self._user_keys:
            return self._user_keys[identity.name]
        if self.scheme_name == "sok":
            key = self._sok_pkg.register_and_extract(identity)
        else:
            key = self._signature.generate_keypair(self._infra_rng.fork(f"user/{identity.name}"))
            self._certificates[identity.name] = self._ca.issue(identity, key.public)  # type: ignore[union-attr]
        self._user_keys[identity.name] = key
        return key

    # -------------------------------------------------------------- machines
    def build_machines(
        self,
        members: Sequence[Identity],
        *,
        medium: BroadcastMedium,
        seed: object = 0,
        **kwargs: object,
    ) -> MachinePlan:
        """Decompose authenticated BD into per-member machines.

        Members stay registered with the GQ PKG too, as in every flat
        establishment; the signing keys come from :meth:`_provision`.
        """
        return self._flat_plan(
            members,
            medium,
            seed,
            kwargs,
            self.name,
            lambda party, ring: _AuthBDPartyMachine(
                self, party, ring, self._provision(party.identity)
            ),
        )

    # ----------------------------------------------------------------- helper
    def decode_certified_key(self, certificate: Certificate):
        """Recover the subject public key object from a certificate."""
        encoding = certificate.public_key_encoding
        if self.scheme_name == "ecdsa":
            curve = self._signature.curve  # type: ignore[union-attr]
            size = (curve.p.bit_length() + 7) // 8
            x = int.from_bytes(encoding[:size], "big")
            y = int.from_bytes(encoding[size:], "big")
            return curve.point(x, y)
        return int.from_bytes(encoding, "big")
