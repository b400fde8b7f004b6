"""Declarative mobility configuration for scenarios.

:class:`MobilityConfig` is the frozen value object a
:class:`~repro.sim.scenarios.Scenario` embeds to opt into the mobility-aware
network layer: which :class:`~repro.mobility.models.MobilityModel` moves the
nodes, over what :class:`~repro.mobility.field.Area`, with what radio range
and loss ramp, for how long, and how deep the relay flooding may go.  It
also owns the factory methods the scenario engine uses so that the
event-generation pass and the protocol pass build *identical* fields and
link models from the same named RNG children.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..exceptions import ParameterError
from ..fields import param, settle
from ..mathutils.rand import DeterministicRNG
from .field import Area, MobilityField
from .models import MobilityModel
from .radio import RadioLink

__all__ = ["MobilityConfig"]


@dataclass(frozen=True)
class MobilityConfig:
    """Everything the scenario engine needs to simulate a mobile deployment.

    Attributes
    ----------
    model:
        The mobility model spec (static grid, random waypoint, RPGM...).
    area:
        Deployment region.
    tx_range:
        Radio range in metres (drives both reachability and emergent churn).
    duration:
        How long (simulated seconds) the connectivity monitor watches the
        field for emergent events.
    tick:
        Mobility time step; event times are quantised to it.
    base_loss / edge_loss / path_loss_exponent:
        The :class:`~repro.mobility.radio.RadioLink` loss ramp.
    max_hops:
        Relay flooding TTL for :class:`~repro.mobility.relay.MultiHopMedium`.
    settle_ticks:
        Connectivity-change hysteresis (ticks) before an event is emitted.
    """

    model: MobilityModel
    area: Area
    tx_range: float = param(gt=0.0)
    duration: float = param(ge=0.0)
    tick: float = param(1.0, gt=0.0)
    base_loss: float = param(0.0, ge=0.0, lt=1.0)
    edge_loss: float = param(0.0, ge=0.0, lt=1.0)
    path_loss_exponent: float = 2.0
    max_hops: int = param(8, ge=1)
    settle_ticks: int = param(1, ge=1)

    def __post_init__(self) -> None:
        settle(self)
        if self.edge_loss < self.base_loss:
            raise ParameterError("edge_loss cannot be below base_loss")

    # -------------------------------------------------------------- factories
    def build_field(self, names: Sequence[str], rng: DeterministicRNG) -> MobilityField:
        """A fresh field at t=0 for ``names`` (same rng => same trajectories)."""
        return MobilityField(names, self.model, self.area, self.tick, rng)

    def build_link(self, field: MobilityField) -> RadioLink:
        """The radio link model over ``field``."""
        return RadioLink(
            field,
            self.tx_range,
            base_loss=self.base_loss,
            edge_loss=self.edge_loss,
            exponent=self.path_loss_exponent,
        )

    def describe(self) -> str:
        """One-line summary used in reports."""
        return (
            f"{self.model.describe()} over {self.area.describe()}, "
            f"range={self.tx_range:g}m, loss={self.base_loss:g}->{self.edge_loss:g}, "
            f"{self.duration:g}s @ {self.tick:g}s ticks, <= {self.max_hops} hops"
        )
