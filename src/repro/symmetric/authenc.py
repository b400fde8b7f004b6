"""Authenticated symmetric encryption ``E_K(m)`` for the dynamic protocols.

The paper's Join/Leave/Merge/Partition protocols repeatedly perform the step
"encrypt ``K* || U_1`` using the current group key K ... the receiver checks
if the identity ``U_1`` is decrypted correctly to ensure the validity of
``K*``".  That check is only meaningful when the encryption is *authenticated*
(otherwise a ciphertext can be malleated without disturbing the embedded
identity), so the reproduction implements ``E_K`` as AES-CTR followed by
HMAC-SHA256 (encrypt-then-MAC), with the sender identity carried inside the
plaintext exactly as the paper specifies.

Key material: the group key ``K`` is a ~1024-bit group element; it is run
through the HKDF in :mod:`repro.hashing.kdf` to obtain independent 128-bit
encryption and MAC keys.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import DecryptionError, ParameterError
from ..hashing.kdf import derive_key, hmac_sha256, verify_hmac
from ..mathutils.rand import DeterministicRNG
from ..mathutils.serialization import bytes_to_int, decode_fields, encode_fields, int_to_bytes
from .modes import decrypt_ctr, encrypt_ctr

__all__ = ["AuthenticatedCiphertext", "SymmetricEnvelope", "group_key_to_bytes"]

_NONCE_BYTES = 12
_TAG_BYTES = 32


def group_key_to_bytes(group_key: int) -> bytes:
    """Canonical byte encoding of a group-element key for use with ``E_K``."""
    if group_key <= 0:
        raise ParameterError("group key must be a positive group element")
    return int_to_bytes(group_key)


@dataclass(frozen=True)
class AuthenticatedCiphertext:
    """Wire form of one ``E_K(m)`` envelope: nonce, ciphertext and MAC tag."""

    nonce: bytes
    ciphertext: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        """Serialise for transmission / size accounting."""
        return encode_fields([self.nonce, self.ciphertext, self.tag])

    @classmethod
    def from_bytes(cls, blob: bytes) -> "AuthenticatedCiphertext":
        """Parse the output of :meth:`to_bytes`."""
        nonce, ciphertext, tag = decode_fields(blob)
        return cls(nonce=nonce, ciphertext=ciphertext, tag=tag)

    @property
    def wire_bits(self) -> int:
        """Total size in bits (what the transceiver energy model charges)."""
        return 8 * len(self.to_bytes())


class SymmetricEnvelope:
    """Encrypt/decrypt ``payload || sender-identity`` under a shared key.

    Parameters
    ----------
    key_material:
        Either the raw group key as an ``int`` group element, or already-derived
        key bytes.  Separate encryption and MAC keys are derived internally.
    """

    def __init__(self, key_material: int | bytes) -> None:
        if isinstance(key_material, int):
            master = group_key_to_bytes(key_material)
        elif isinstance(key_material, (bytes, bytearray)):
            if not key_material:
                raise ParameterError("empty symmetric key material")
            master = bytes(key_material)
        else:
            raise ParameterError("key material must be an int group element or bytes")
        self._enc_key = derive_key(master, info=b"repro/envelope/enc", length=16)
        self._mac_key = derive_key(master, info=b"repro/envelope/mac", length=32)

    # ------------------------------------------------------------------ seal
    def seal(self, payload: bytes, sender_identity: bytes, rng: DeterministicRNG) -> AuthenticatedCiphertext:
        """Produce ``E_K(payload || sender_identity)``.

        The identity is embedded in the plaintext (as in the paper) *and* the
        whole ciphertext is MACed, so both tampering and wrong-key decryption
        are detected.
        """
        plaintext = encode_fields([payload, sender_identity])
        nonce = rng.random_bytes(_NONCE_BYTES)
        ciphertext = encrypt_ctr(self._enc_key, nonce, plaintext)
        tag = hmac_sha256(self._mac_key, nonce + ciphertext)
        return AuthenticatedCiphertext(nonce=nonce, ciphertext=ciphertext, tag=tag)

    # ------------------------------------------------------------------ open
    def open(self, envelope: AuthenticatedCiphertext, expected_sender: bytes) -> bytes:
        """Decrypt and verify; returns the payload bytes.

        Raises
        ------
        DecryptionError
            If the MAC fails or the embedded identity does not match
            ``expected_sender`` — this is the paper's "checks if the identity
            ... is decrypted correctly" step.
        """
        if len(envelope.nonce) != _NONCE_BYTES:
            raise DecryptionError("malformed nonce")
        if not verify_hmac(self._mac_key, envelope.nonce + envelope.ciphertext, envelope.tag):
            raise DecryptionError("MAC verification failed")
        plaintext = decrypt_ctr(self._enc_key, envelope.nonce, envelope.ciphertext)
        try:
            payload, sender = decode_fields(plaintext)
        except Exception as exc:  # malformed structure implies wrong key/tampering
            raise DecryptionError("malformed plaintext structure") from exc
        if sender != expected_sender:
            raise DecryptionError(
                f"sender identity mismatch: expected {expected_sender!r}, got {sender!r}"
            )
        return payload

    # ------------------------------------------------------------- int sugar
    def seal_group_element(
        self, element: int, sender_identity: bytes, rng: DeterministicRNG
    ) -> AuthenticatedCiphertext:
        """Encrypt an integer group element (e.g. ``K*`` or a DH key)."""
        return self.seal(int_to_bytes(element), sender_identity, rng)

    def open_group_element(self, envelope: AuthenticatedCiphertext, expected_sender: bytes) -> int:
        """Decrypt an integer group element sealed by :meth:`seal_group_element`."""
        return bytes_to_int(self.open(envelope, expected_sender))
