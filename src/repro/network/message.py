"""Protocol messages with exact wire sizes.

The energy analysis charges every transmitted and received *bit*, so messages
are represented structurally: a :class:`Message` is a named collection of
:class:`MessagePart` entries, each of which knows its own size in bits.  The
parts mirror the concatenations written in the paper (``m_i = U_i || z_i ||
t_i`` and so on), and the message's total ``wire_bits`` is what the simulated
transceivers charge.

Parts hold the actual values (integers, byte strings, signatures, sealed
envelopes), so receivers operate on real data rather than on size
placeholders — tampering tests flip real bits and real verifications fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..exceptions import ParameterError
from ..pki.identity import Identity
from ..signatures.base import Signature
from ..symmetric.authenc import AuthenticatedCiphertext

__all__ = ["MessagePart", "Message", "group_element_part", "identity_part", "signature_part", "envelope_part"]

PartValue = Union[int, bytes, Signature, AuthenticatedCiphertext, "Identity"]


@dataclass(frozen=True)
class MessagePart:
    """One named component of a message and its wire size in bits."""

    name: str
    value: PartValue
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise ParameterError("part size cannot be negative")


def identity_part(identity: Identity, name: str = "identity") -> MessagePart:
    """A transmitted identity (32 bits, per the paper)."""
    return MessagePart(name=name, value=identity, bits=identity.wire_bits)


def group_element_part(name: str, value: int, element_bits: int) -> MessagePart:
    """A group element (``z_i``, ``X_i``, ``t_i``...) transmitted at its nominal size."""
    if value < 0:
        raise ParameterError("group elements are non-negative")
    return MessagePart(name=name, value=value, bits=element_bits)


def signature_part(signature: Signature, name: str = "signature") -> MessagePart:
    """A digital signature at its scheme's nominal wire size."""
    return MessagePart(name=name, value=signature, bits=signature.wire_bits)


def envelope_part(envelope: AuthenticatedCiphertext, name: str = "envelope") -> MessagePart:
    """An authenticated symmetric ciphertext ``E_K(...)`` at its real size."""
    return MessagePart(name=name, value=envelope, bits=envelope.wire_bits)


@dataclass(frozen=True)
class Message:
    """A broadcast or unicast protocol message.

    Attributes
    ----------
    sender:
        Identity of the transmitting node.
    round_label:
        Which protocol round produced the message (``"round1"``, ``"join-round2"``...).
    parts:
        The ordered message components.
    recipients:
        ``None`` for a broadcast; otherwise the explicit list of recipients
        (the Join protocol's final message ``m'''_n`` is unicast to ``U_{n+1}``).
    wire_bits:
        Total transmitted size of the message in bits, summed once at
        construction.
    """

    sender: Identity
    round_label: str
    parts: Tuple[MessagePart, ...]
    recipients: Optional[Tuple[Identity, ...]] = None
    wire_bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [part.name for part in self.parts]
        if len(names) != len(set(names)):
            raise ParameterError(f"duplicate part names in message: {names}")
        object.__setattr__(self, "wire_bits", sum(part.bits for part in self.parts))

    # ------------------------------------------------------------------ size
    @property
    def is_broadcast(self) -> bool:
        """Whether the message is addressed to the whole group."""
        return self.recipients is None

    # ---------------------------------------------------------------- access
    def part(self, name: str) -> MessagePart:
        """Return the named part, raising :class:`ParameterError` if missing."""
        for part in self.parts:
            if part.name == name:
                return part
        raise ParameterError(f"message from {self.sender} has no part {name!r}")

    def value(self, name: str) -> PartValue:
        """Return the named part's value."""
        return self.part(name).value

    def has_part(self, name: str) -> bool:
        """Whether the message carries a part with this name."""
        return any(part.name == name for part in self.parts)

    def part_names(self) -> List[str]:
        """Names of all parts in order."""
        return [part.name for part in self.parts]

    def addressed_to(self, identity: Identity) -> bool:
        """Whether ``identity`` should receive this message (compared by name)."""
        name = identity.name
        if self.sender.name == name:
            return False
        if self.recipients is None:
            return True
        return any(recipient.name == name for recipient in self.recipients)

    @classmethod
    def broadcast(cls, sender: Identity, round_label: str, parts: Sequence[MessagePart]) -> "Message":
        """Convenience constructor for a broadcast message."""
        return cls(sender=sender, round_label=round_label, parts=tuple(parts), recipients=None)

    @classmethod
    def unicast(
        cls, sender: Identity, recipient: Identity, round_label: str, parts: Sequence[MessagePart]
    ) -> "Message":
        """Convenience constructor for a single-recipient message."""
        return cls(
            sender=sender,
            round_label=round_label,
            parts=tuple(parts),
            recipients=(recipient,),
        )
