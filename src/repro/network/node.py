"""Simulated wireless nodes.

A :class:`Node` couples an identity with the bookkeeping the experiments need:
a :class:`~repro.energy.accounting.CostRecorder` for operation/bit tallies
and (optionally) a :class:`~repro.energy.accounting.DeviceProfile` describing
its hardware so the reports can print per-node Joules directly.  What a node
received is on the medium's receipts (``DeliveryReceipt.delivered_to``).
"""

from __future__ import annotations

from typing import Optional

from ..energy.accounting import CostRecorder, DeviceProfile, EnergyBreakdown
from ..exceptions import NetworkError
from ..pki.identity import Identity

__all__ = ["Node"]


class Node:
    """One wireless device participating in the protocols."""

    def __init__(self, identity: Identity, device: Optional[DeviceProfile] = None) -> None:
        self.identity = identity
        self.device = device
        self.recorder = CostRecorder(owner=identity.name)

    # ---------------------------------------------------------------- energy
    def energy(self, device: Optional[DeviceProfile] = None) -> EnergyBreakdown:
        """Price this node's recorded costs on its own (or a supplied) device profile."""
        profile = device or self.device
        if profile is None:
            raise NetworkError(
                f"node {self.identity.name} has no device profile; pass one explicitly"
            )
        return profile.price(self.recorder)

    def reset_costs(self) -> None:
        """Clear the recorder (used between experiment phases)."""
        self.recorder = CostRecorder(owner=self.identity.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.identity.name})"
