"""The dynamic-membership baseline: re-executing authenticated BD.

The original BD paper specifies no Join/Leave/Merge/Partition protocols, so —
as the paper (following Amir et al. and Kim–Perrig–Tsudik) points out — the
only way to handle a membership event is to re-run the whole (authenticated)
GKA over the new member set.  Table 4 and Table 5 compare the proposed dynamic
protocols against exactly this baseline, instantiated with the certificate-
based ECDSA variant.

:class:`BDRerunDynamic` wraps :class:`~repro.baselines.authenticated_bd.AuthenticatedBDProtocol`
behind the same event API as the proposed dynamic protocols, so experiments
can swap one for the other and compare the recorded per-node costs directly.
"""

from __future__ import annotations

from typing import Sequence

from ..engine.machine import MachinePlan
from ..network.medium import BroadcastMedium
from ..pki.identity import Identity
from ..core.base import Protocol, SystemSetup
from ..core.registry import register_protocol
from .authenticated_bd import SUPPORTED_SCHEMES, AuthenticatedBDProtocol

__all__ = ["BDRerunDynamic"]


class BDRerunDynamic(Protocol):
    """Handle membership events by re-running authenticated BD from scratch.

    Conforms to :class:`~repro.core.base.Protocol`: :meth:`run` is the initial
    establishment, and the inherited
    :meth:`~repro.core.base.Protocol.apply_event` and
    :meth:`~repro.core.base.Protocol.merge_states` re-execute over the
    post-event membership, which
    :func:`~repro.network.events.membership_after` validates.
    """

    def __init__(self, setup: SystemSetup, scheme: str = "ecdsa") -> None:
        super().__init__(setup)
        self.scheme = scheme
        self._protocol = AuthenticatedBDProtocol(setup, scheme)
        self.name = f"bd-rerun-{scheme}"

    # ---------------------------------------------------------------- machines
    def build_machines(
        self,
        members: Sequence[Identity],
        *,
        medium: BroadcastMedium,
        seed: object = 0,
        **kwargs: object,
    ) -> MachinePlan:
        """Delegate to the wrapped authenticated-BD machine decomposition.

        Results keep the wrapped protocol's label (``bd-<scheme>``): the
        rerun wrapper adds event routing, not a different wire protocol.
        """
        return self._protocol.build_machines(members, medium=medium, seed=seed, **kwargs)


for _scheme in SUPPORTED_SCHEMES:
    register_protocol(
        f"bd-rerun-{_scheme}",
        # Bind the loop variable eagerly so each factory keeps its own scheme.
        lambda setup, scheme=_scheme: BDRerunDynamic(setup, scheme),
    )
