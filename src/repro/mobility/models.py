"""Pluggable mobility models: static grid, random waypoint, RPGM.

A :class:`MobilityModel` is a small frozen *spec* (safe to embed in a frozen
:class:`~repro.sim.scenarios.Scenario`); calling :meth:`MobilityModel.build`
instantiates one stateful :class:`NodeMotion` per node.  Every motion draws
from its own named child RNG (``motion/<name>``), so a node's trajectory
depends only on the master seed and its name — never on how many other nodes
exist or in which order they are stepped.

Three models cover the MANET evaluation literature's staples:

* :class:`StaticGrid` — nodes pinned to a jittered grid (the degenerate,
  fully-predictable baseline; useful for line/star topology tests);
* :class:`RandomWaypoint` — the classic model: pick a uniform waypoint,
  travel at a uniform random speed, pause, repeat;
* :class:`ReferencePointGroup` — RPGM: squads of nodes follow a shared
  moving reference point (itself a random-waypoint walker) with bounded
  member jitter, producing the squad-level partitions and merges group-key
  papers care about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..exceptions import ParameterError
from ..fields import param, settle
from ..mathutils.rand import DeterministicRNG
from .field import Area, Vec, unit_draw

__all__ = [
    "NodeMotion",
    "MobilityModel",
    "StaticGrid",
    "RandomWaypoint",
    "ReferencePointGroup",
]


class NodeMotion:
    """One node's stateful trajectory; ``position`` is the current location."""

    position: Vec

    def advance(self, dt: float, step: int) -> None:
        """Advance the motion by ``dt`` seconds (``step`` is the global tick index)."""
        raise NotImplementedError


class MobilityModel:
    """Base spec: builds one :class:`NodeMotion` per node name."""

    def build(
        self, names: Sequence[str], area: Area, rng: DeterministicRNG
    ) -> Dict[str, NodeMotion]:
        """Create all motions for ``names`` (deterministic in ``rng``)."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line summary used in reports."""
        return type(self).__name__


# ---------------------------------------------------------------------------
# Static grid
# ---------------------------------------------------------------------------

class _StaticMotion(NodeMotion):
    def __init__(self, position: Vec) -> None:
        self.position = position

    def advance(self, dt: float, step: int) -> None:
        pass


@dataclass(frozen=True)
class StaticGrid(MobilityModel):
    """Nodes pinned to a regular grid filling the area, with optional jitter.

    Nodes are placed row-major in ``names`` order on a ``ceil(sqrt(n))``-wide
    grid of cell centres; ``jitter`` metres of uniform offset (per axis) are
    added at spawn so radio links are not artificially degenerate.
    """

    jitter: float = param(0.0, ge=0.0)

    __post_init__ = settle

    def build(
        self, names: Sequence[str], area: Area, rng: DeterministicRNG
    ) -> Dict[str, NodeMotion]:
        count = len(names)
        cols = max(1, math.ceil(math.sqrt(count)))
        rows = max(1, math.ceil(count / cols))
        motions: Dict[str, NodeMotion] = {}
        for index, name in enumerate(names):
            col, row = index % cols, index // cols
            x = (col + 0.5) * area.width / cols
            y = (row + 0.5) * area.height / rows
            if self.jitter > 0:
                node_rng = rng.fork(f"motion/{name}")
                x += (unit_draw(node_rng) * 2.0 - 1.0) * self.jitter
                y += (unit_draw(node_rng) * 2.0 - 1.0) * self.jitter
            motions[name] = _StaticMotion(area.clamp(x, y))
        return motions

    def describe(self) -> str:
        return f"static-grid(jitter={self.jitter:g}m)"


# ---------------------------------------------------------------------------
# Random waypoint
# ---------------------------------------------------------------------------

class _WaypointMotion(NodeMotion):
    """Travel to a uniform waypoint at a uniform speed, pause, repeat."""

    def __init__(
        self,
        area: Area,
        rng: DeterministicRNG,
        min_speed: float,
        max_speed: float,
        pause: float,
    ) -> None:
        self._area = area
        self._rng = rng
        self._min_speed = min_speed
        self._max_speed = max_speed
        self._pause = pause
        self.position = area.random_point(rng)
        self._pause_left = 0.0
        self._pick_leg()

    def _pick_leg(self) -> None:
        self._target = self._area.random_point(self._rng)
        self._speed = self._min_speed + unit_draw(self._rng) * (self._max_speed - self._min_speed)

    def advance(self, dt: float, step: int) -> None:
        remaining = dt
        while remaining > 1e-12:
            if self._pause_left > 0.0:
                waited = min(self._pause_left, remaining)
                self._pause_left -= waited
                remaining -= waited
                continue
            dx = self._target[0] - self.position[0]
            dy = self._target[1] - self.position[1]
            gap = math.hypot(dx, dy)
            travel = self._speed * remaining
            if travel >= gap:
                # Reached the waypoint inside this step: pause, then new leg.
                self.position = self._target
                remaining -= gap / self._speed if self._speed > 0 else remaining
                self._pause_left = self._pause
                self._pick_leg()
            else:
                frac = travel / gap
                self.position = (self.position[0] + dx * frac, self.position[1] + dy * frac)
                remaining = 0.0


@dataclass(frozen=True)
class RandomWaypoint(MobilityModel):
    """The classic random-waypoint model (uniform waypoint, speed, pause)."""

    min_speed: float = param(1.0, gt=0.0)
    max_speed: float = 5.0
    pause: float = param(0.0, ge=0.0)

    def __post_init__(self) -> None:
        settle(self)
        if self.max_speed < self.min_speed:
            raise ParameterError("need 0 < min_speed <= max_speed")

    def build(
        self, names: Sequence[str], area: Area, rng: DeterministicRNG
    ) -> Dict[str, NodeMotion]:
        return {
            name: _WaypointMotion(
                area, rng.fork(f"motion/{name}"), self.min_speed, self.max_speed, self.pause
            )
            for name in names
        }

    def describe(self) -> str:
        return (
            f"random-waypoint(v={self.min_speed:g}-{self.max_speed:g}m/s, "
            f"pause={self.pause:g}s)"
        )


# ---------------------------------------------------------------------------
# Reference-point group mobility (RPGM)
# ---------------------------------------------------------------------------

class _GroupMemberMotion(NodeMotion):
    """A squad member riding a shared leader with bounded local jitter."""

    def __init__(
        self,
        area: Area,
        rng: DeterministicRNG,
        leader: "_SharedLeader",
        radius: float,
        local_speed: float,
    ) -> None:
        self._area = area
        self._rng = rng
        self._leader = leader
        self._radius = radius
        self._local_speed = local_speed
        angle = unit_draw(rng) * 2.0 * math.pi
        span = math.sqrt(unit_draw(rng)) * radius  # uniform over the disk
        self._offset = (span * math.cos(angle), span * math.sin(angle))
        self._sync()

    def _sync(self) -> None:
        lx, ly = self._leader.motion.position
        self.position = self._area.clamp(lx + self._offset[0], ly + self._offset[1])

    def advance(self, dt: float, step: int) -> None:
        self._leader.advance_shared(dt, step)
        if self._local_speed > 0.0:
            # Bounded random walk of the offset inside the squad disk.
            ox = self._offset[0] + (unit_draw(self._rng) * 2.0 - 1.0) * self._local_speed * dt
            oy = self._offset[1] + (unit_draw(self._rng) * 2.0 - 1.0) * self._local_speed * dt
            span = math.hypot(ox, oy)
            if span > self._radius:
                scale = self._radius / span
                ox, oy = ox * scale, oy * scale
            self._offset = (ox, oy)
        self._sync()


class _SharedLeader:
    """One squad's reference point: a waypoint walker advanced once per tick.

    Several member motions share a leader; ``advance_shared`` is idempotent
    per global tick so the leader moves exactly once regardless of how many
    members step it.
    """

    def __init__(self, motion: _WaypointMotion) -> None:
        self.motion = motion
        self._last_step = 0

    def advance_shared(self, dt: float, step: int) -> None:
        if step > self._last_step:
            self.motion.advance(dt, step)
            self._last_step = step


@dataclass(frozen=True)
class ReferencePointGroup(MobilityModel):
    """RPGM: squads follow shared random-waypoint reference points.

    Node ``i`` (in ``names`` order) belongs to squad ``i % groups``.  Each
    squad's reference point does a random-waypoint walk; members keep a
    bounded random offset (radius ``member_radius``) around it.  When two
    squads drift out of mutual radio range the connectivity monitor sees a
    clean partition; when their paths cross again, a merge.
    """

    groups: int = param(4, ge=1)
    min_speed: float = param(1.0, gt=0.0)
    max_speed: float = 5.0
    pause: float = param(0.0, ge=0.0)
    member_radius: float = param(50.0, gt=0.0)
    member_speed: float = param(1.0, ge=0.0)

    def __post_init__(self) -> None:
        settle(self)
        if self.max_speed < self.min_speed:
            raise ParameterError("need 0 < min_speed <= max_speed")

    def build(
        self, names: Sequence[str], area: Area, rng: DeterministicRNG
    ) -> Dict[str, NodeMotion]:
        leaders: List[_SharedLeader] = [
            _SharedLeader(
                _WaypointMotion(
                    area, rng.fork(f"leader/{g}"), self.min_speed, self.max_speed, self.pause
                )
            )
            for g in range(self.groups)
        ]
        return {
            name: _GroupMemberMotion(
                area,
                rng.fork(f"motion/{name}"),
                leaders[index % self.groups],
                self.member_radius,
                self.member_speed,
            )
            for index, name in enumerate(names)
        }

    def describe(self) -> str:
        return (
            f"rpgm(groups={self.groups}, v={self.min_speed:g}-{self.max_speed:g}m/s, "
            f"radius={self.member_radius:g}m)"
        )
