"""Multi-tier relaying: bounded floods that cross tiers through gateways.

:class:`TieredMedium` is a :class:`~repro.mobility.relay.MultiHopMedium`
without a mobility field: topology comes from a static
:class:`~repro.network.tiers.TierMap` instead of node positions.  Nodes are
adjacent iff they share a tier, so a flood leaving the ground segment can
only continue through a *gateway* node homed in one tier and participating
in another — the multi-homed relay terminals of a tiered deployment.  Every
relayed copy is charged through the same energy accounting as any other
multi-hop transmission, and per-copy losses come from each link class's
knob: a constant, or a Gilbert–Elliott burst chain per directed link, which
the :class:`~repro.network.tiers.TieredLink` keeps and the medium seeds from
the ``links`` child of its RNG.
"""

from __future__ import annotations

from typing import Optional

from ..mathutils.rand import DeterministicRNG
from ..network.tiers import TieredLink, TierMap
from .relay import MultiHopMedium

__all__ = ["TieredMedium"]


class TieredMedium(MultiHopMedium):
    """A static multi-tier broadcast domain with gateway relaying.

    Parameters
    ----------
    tier_map:
        The resolved node-to-tier assignment (see
        :meth:`~repro.network.tiers.TierConfig.build_map`).  Set as the
        medium's declared ``tier_map`` so
        :class:`~repro.engine.latency.TieredLatency` binds to it.
    max_hops:
        Flood TTL per wave; a two-tier path needs at least 2 (member →
        gateway → other tier), three tiers at least 3.
    max_retries:
        Extra flood waves allowed to recover from per-link losses.
    rng:
        Deterministic randomness for loss draws (and, via the medium's
        ``links`` child, the burst chains).
    """

    def __init__(
        self,
        tier_map: TierMap,
        *,
        max_hops: int = 4,
        max_retries: int = 10,
        rng: Optional[DeterministicRNG] = None,
    ) -> None:
        super().__init__(
            None,
            TieredLink(tier_map),
            max_hops=max_hops,
            max_retries=max_retries,
            rng=rng,
        )
        self.tier_map = tier_map
