"""2-D node positions stepped on the scenario clock.

A :class:`MobilityField` owns one :class:`~repro.mobility.models.NodeMotion`
per simulated node, all created from a single
:class:`~repro.mobility.models.MobilityModel` spec and one deterministic RNG.
Time is quantised into fixed ``tick`` steps so two passes over the same
scenario — the connectivity pass that *generates* the emergent churn events
and the protocol pass that *executes* them — see bit-identical positions:
``advance_to(t)`` rounds ``t`` to a whole number of ticks and replays exactly
that many model steps.

The field knows nothing about radios or protocols; it answers exactly two
questions — *where is node X* and *how far apart are X and Y* — for the link
model (:mod:`repro.mobility.radio`), the flooding medium
(:mod:`repro.mobility.relay`) and the connectivity monitor
(:mod:`repro.mobility.connectivity`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..exceptions import ParameterError
from ..fields import param, settle
from ..mathutils.rand import DeterministicRNG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .models import MobilityModel

__all__ = ["Area", "MobilityField", "unit_draw"]

Vec = Tuple[float, float]


def unit_draw(rng: DeterministicRNG) -> float:
    """A uniform draw in ``[0, 1)`` on a 2^53 grid (double-precision exact)."""
    return rng.randbelow(1 << 53) / float(1 << 53)


@dataclass(frozen=True)
class Area:
    """The rectangular deployment region ``[0, width] x [0, height]`` (metres)."""

    width: float = param(gt=0.0, to_float=True)
    height: float = param(gt=0.0, to_float=True)

    __post_init__ = settle

    def clamp(self, x: float, y: float) -> Vec:
        """The nearest point inside the area."""
        return (min(max(x, 0.0), self.width), min(max(y, 0.0), self.height))

    def random_point(self, rng: DeterministicRNG) -> Vec:
        """A uniform point inside the area."""
        return (unit_draw(rng) * self.width, unit_draw(rng) * self.height)

    def describe(self) -> str:
        """One-line summary used in reports."""
        return f"{self.width:g}x{self.height:g}m"


class MobilityField:
    """Positions for a fixed universe of named nodes, stepped in ticks.

    Parameters
    ----------
    names:
        The node names (identity names) inhabiting the field.  The universe is
        fixed at construction; querying an unknown name raises
        :class:`~repro.exceptions.ParameterError`.
    model:
        The :class:`~repro.mobility.models.MobilityModel` spec that builds one
        motion per node.
    area:
        The deployment region.
    tick:
        Length of one simulation step in seconds.
    rng:
        Deterministic randomness; every motion forks its own named child
        stream, so trajectories are independent of node iteration order.
    """

    def __init__(
        self,
        names: Sequence[str],
        model: "MobilityModel",
        area: Area,
        tick: float,
        rng: DeterministicRNG,
    ) -> None:
        if tick <= 0:
            raise ParameterError("tick must be positive")
        if not names:
            raise ParameterError("a mobility field needs at least one node")
        if len(set(names)) != len(names):
            raise ParameterError("duplicate node names in mobility field")
        self.area = area
        self.tick = tick
        self.model = model
        self._motions = model.build(list(names), area, rng)
        self._order = sorted(self._motions)
        self._step = 0

    # ------------------------------------------------------------------ time
    @property
    def time(self) -> float:
        """Current simulated time in seconds (a whole number of ticks)."""
        return self._step * self.tick

    @property
    def step_count(self) -> int:
        """Number of ticks stepped so far."""
        return self._step

    def advance_ticks(self, ticks: int) -> None:
        """Step every motion forward by ``ticks`` whole ticks."""
        if ticks < 0:
            raise ParameterError("cannot step a mobility field backwards")
        for _ in range(ticks):
            self._step += 1
            for name in self._order:
                self._motions[name].advance(self.tick, self._step)

    def advance_to(self, time: float) -> None:
        """Advance to ``time``, rounded to the nearest whole tick.

        Both the event-generation pass and the protocol pass quantise this
        way, so positions at an event's timestamp are identical in both.
        """
        target = int(round(time / self.tick))
        if target < self._step:
            raise ParameterError(
                f"cannot rewind mobility field from t={self.time:g}s to t={time:g}s"
            )
        self.advance_ticks(target - self._step)

    # ------------------------------------------------------------- positions
    def position(self, name: str) -> Vec:
        """Current position of one node."""
        try:
            return self._motions[name].position
        except KeyError:
            raise ParameterError(
                f"node {name!r} is not part of this mobility field "
                f"(universe: {len(self._motions)} nodes)"
            ) from None

    def distance(self, a: str, b: str) -> float:
        """Euclidean distance between two nodes."""
        ax, ay = self.position(a)
        bx, by = self.position(b)
        return math.hypot(ax - bx, ay - by)

    def names(self) -> List[str]:
        """All node names in the field (creation order)."""
        return list(self._motions)

    def __contains__(self, name: str) -> bool:
        return name in self._motions

    def snapshot(self) -> Dict[str, Vec]:
        """All current positions (used by tests and trace exports)."""
        return {name: motion.position for name, motion in self._motions.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MobilityField(n={len(self._motions)}, t={self.time:g}s, "
            f"area={self.area.describe()}, model={type(self.model).__name__})"
        )
