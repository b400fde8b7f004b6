"""Distance-dependent radio links over a mobility field.

:class:`RadioLink` implements the :class:`~repro.network.medium.LinkModel`
hook for moving nodes: a pair is reachable while their distance is within the
transmit range, and the per-copy loss probability rises from ``base_loss`` at
zero distance to ``edge_loss`` at the range limit following a power law in
``d / tx_range`` (exponent 2 by default — free-space-like).  Beyond the range
the link is dead (loss 1), which is what turns node mobility into partitions.

The model replaces the single global loss knob of the uniform medium: the
same :class:`~repro.mobility.field.MobilityField` that generates emergent
churn also drives every per-link loss draw, so "far" pairs really are flakier
than "near" pairs in the energy ledgers.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from ..exceptions import ParameterError
from ..network.medium import LinkModel
from .field import MobilityField

__all__ = ["RadioLink"]

#: Loss probabilities are clamped below 1 so a reachable link can always be
#: retried successfully (an unreachable link is handled by ``reachable``).
_MAX_LOSS = 0.999


class RadioLink(LinkModel):
    """Range-limited, distance-weighted links derived from node positions.

    Parameters
    ----------
    field:
        The mobility field positions are read from (at its *current* time).
    tx_range:
        Maximum radio range in metres; pairs further apart are unreachable.
    base_loss / edge_loss:
        Per-copy loss probability at distance zero / at ``tx_range``.
    exponent:
        Shape of the loss ramp: ``p(d) = base + (edge-base) * (d/range)**exponent``.
    """

    def __init__(
        self,
        field: MobilityField,
        tx_range: float,
        *,
        base_loss: float = 0.0,
        edge_loss: float = 0.0,
        exponent: float = 2.0,
    ) -> None:
        if tx_range <= 0:
            raise ParameterError("tx_range must be positive")
        if not 0.0 <= base_loss < 1.0 or not 0.0 <= edge_loss < 1.0:
            raise ParameterError("loss probabilities must be in [0, 1)")
        if edge_loss < base_loss:
            raise ParameterError("edge_loss cannot be below base_loss")
        if exponent <= 0:
            raise ParameterError("exponent must be positive")
        self.field = field
        self.tx_range = tx_range
        self.base_loss = base_loss
        self.edge_loss = edge_loss
        self.exponent = exponent

    def reachable(self, sender: str, receiver: str) -> bool:
        if sender == receiver:
            return False
        return self.field.distance(sender, receiver) <= self.tx_range

    def adjacency(self, names: Sequence[str]) -> Dict[str, List[str]]:
        """The pairwise :meth:`reachable` graph, from one position read per node.

        Same pair order, list order and ``math.hypot`` test as
        :meth:`~repro.mobility.field.MobilityField.distance`; squared
        distances could flip a pair at exactly ``tx_range``.
        """
        ordered = list(names)
        position = self.field.position
        points = [position(name) for name in ordered]
        tx_range = self.tx_range
        hypot = math.hypot
        graph: Dict[str, List[str]] = {name: [] for name in ordered}
        for i, a in enumerate(ordered):
            ax, ay = points[i]
            near = graph[a]
            for b, (bx, by) in zip(ordered[i + 1 :], points[i + 1 :]):
                if hypot(ax - bx, ay - by) <= tx_range:
                    near.append(b)
                    graph[b].append(a)
        return graph

    def loss_probability(self, sender: str, receiver: str) -> float:
        distance = self.field.distance(sender, receiver)
        if distance > self.tx_range:
            return 1.0
        if self.edge_loss <= self.base_loss:
            # Clamp the flat branch too: base_loss alone can exceed _MAX_LOSS
            # (e.g. 0.9995), and an unclamped return here would break the
            # "reachable links stay below 1" retry invariant.
            return min(self.base_loss, _MAX_LOSS)
        ramp = (distance / self.tx_range) ** self.exponent
        return min(self.base_loss + (self.edge_loss - self.base_loss) * ramp, _MAX_LOSS)

    def describe(self) -> str:
        return (
            f"radio(range={self.tx_range:g}m, loss={self.base_loss:g}"
            f"->{self.edge_loss:g}@edge, exp={self.exponent:g})"
        )
