"""The paper's contribution: the proposed ID-based authenticated GKA protocol,
its four dynamic protocols (Join, Leave, Merge, Partition) and the high-level
``GroupSession`` API.

:class:`ProposedGKAProtocol` runs every membership event through
``apply_event`` (and ``merge_states``), which drives the event's plan from
:mod:`.join`, :mod:`.rekey` (Leave and Partition) or :mod:`.merge`."""

from .base import (
    GroupState,
    PartyState,
    Protocol,
    ProtocolResult,
    SystemSetup,
    compute_bd_key,
    compute_bd_x_value,
    verify_x_product,
)
from .gka import ProposedGKAProtocol
from .registry import available_protocols, create_protocol
from .session import GroupSession

__all__ = [
    "GroupState",
    "PartyState",
    "Protocol",
    "ProtocolResult",
    "SystemSetup",
    "compute_bd_key",
    "compute_bd_x_value",
    "verify_x_product",
    "ProposedGKAProtocol",
    "GroupSession",
    "available_protocols",
    "create_protocol",
]
