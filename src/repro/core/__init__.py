"""The paper's contribution: the proposed ID-based authenticated GKA protocol,
its four dynamic protocols (Join, Leave, Merge, Partition) and the high-level
``GroupSession`` API."""

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
from .join import JoinProtocol
from .leave import LeaveProtocol
from .merge import MergeProtocol
from .partition import PartitionProtocol
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
    "JoinProtocol",
    "LeaveProtocol",
    "MergeProtocol",
    "PartitionProtocol",
    "GroupSession",
    "available_protocols",
    "create_protocol",
]
