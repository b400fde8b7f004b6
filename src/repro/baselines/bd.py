"""The unauthenticated Burmester–Desmedt (BD) protocol.

This is the substrate everything else builds on: two broadcast rounds
(``z_i = g^{r_i}``, then ``X_i = (z_{i+1}/z_{i-1})^{r_i}``) followed by the
telescoping key computation.  It provides no authentication — an active
adversary can insert itself — which is exactly why the paper and all four of
its baselines add signatures on top.  It is included both as the building
block of the authenticated variants and as the cost floor in the analysis.

Execution is one :class:`~repro.core.base.BDRoundMachine` per member, as is:
Round 1 from ``start``, Round 2 on Round-1 completeness, key derivation on
Round-2 completeness.  That machine is the template every authenticated
variant elaborates — SSN, the signed baselines, and the proposed GKA and its
rekey all subclass it — so this module only names the rounds.
"""

from __future__ import annotations

from typing import Sequence

from ..engine.machine import MachinePlan
from ..network.medium import BroadcastMedium
from ..pki.identity import Identity
from ..core.base import BDRoundMachine, Protocol

__all__ = ["BurmesterDesmedtProtocol"]


class _BDPartyMachine(BDRoundMachine):
    """One member's view of plain two-round BD."""

    round1_label = "bd-round1"
    round2_label = "bd-round2"


class BurmesterDesmedtProtocol(Protocol):
    """Plain BD group key agreement (no authentication).

    No dynamic sub-protocols: membership events fall back to
    :meth:`~repro.core.base.Protocol.apply_event`'s full re-execution.
    """

    name = "bd-unauthenticated"

    def build_machines(
        self,
        members: Sequence[Identity],
        *,
        medium: BroadcastMedium,
        seed: object = 0,
        **kwargs: object,
    ) -> MachinePlan:
        """Decompose plain BD into per-member machines."""
        return self._flat_plan(
            members,
            medium,
            seed,
            kwargs,
            "bd",
            lambda party, ring: _BDPartyMachine(party, self.setup, ring),
        )
