"""Simulated wireless network: messages, nodes, broadcast medium, ring
topology, and dynamic-membership event traces."""

from .events import (
    EventTraceGenerator,
    JoinEvent,
    LeaveEvent,
    MembershipEvent,
    MergeEvent,
    PartitionEvent,
)
from .medium import BroadcastMedium, DeliveryReceipt, LinkModel
from .message import (
    Message,
    MessagePart,
    envelope_part,
    group_element_part,
    identity_part,
    signature_part,
)
from .node import Node
from .tiers import (
    LINK_CLASSES,
    GilbertElliott,
    LinkClass,
    TierConfig,
    TieredLink,
    TierMap,
)
from .topology import RingTopology

__all__ = [
    "GilbertElliott",
    "LINK_CLASSES",
    "LinkClass",
    "TierConfig",
    "TierMap",
    "TieredLink",
    "EventTraceGenerator",
    "JoinEvent",
    "LeaveEvent",
    "MembershipEvent",
    "MergeEvent",
    "PartitionEvent",
    "BroadcastMedium",
    "DeliveryReceipt",
    "LinkModel",
    "Message",
    "MessagePart",
    "envelope_part",
    "group_element_part",
    "identity_part",
    "signature_part",
    "Node",
    "RingTopology",
]
