"""Declarative parameter-grid campaigns.

A :class:`CampaignSpec` names the axes of a sweep — protocols, group sizes,
loss levels, mobility models, engine profiles, adversary models, replications
— and expands their Cartesian product into :class:`CampaignCell`\\ s.  Each
cell carries a *payload*: a plain JSON-able work order (protocol name +
scenario spec + engine profile, see :mod:`repro.sim.specio`) that can cross a
process boundary, be content-hashed for the result cache, or be replayed from
a file.  No live object ever travels to a worker.

Determinism is structural:

* every cell owns a stable **key** (``protocol=bd/n=8/...``) derived from its
  axis values, independent of expansion order, and no two cells share one:
  a repeated axis value, or two engine entries that settle to one engine,
  fail the spec;
* every cell's scenario seed is a **named child** of the campaign's master
  seed, derived from the cell's *workload key* — the group-size, mobility and
  replication axes.  Cells sharing a workload share the seed (and the
  scenario name the RNG streams are labelled with), so protocols, loss
  levels, engine profiles and adversaries are compared over **identical**
  churn schedules and trajectories — the same comparability contract
  :meth:`~repro.sim.runner.ScenarioRunner.run_all` gives.  Editing the
  master seed or a workload axis reseeds exactly the cells it touches;
* cells are fully independent, so executing them serially, sharded over
  fleet workers, or resumed from a cache yields identical rows.

Loss composition: on a schedule-driven cell the loss axis is the medium's
``loss_probability``; on a mobility-driven cell (where uniform loss is
meaningless) it becomes the radio's ``base_loss`` floor, with ``edge_loss``
raised to at least the same level — one knob, interpreted by whichever medium
the cell runs on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..exceptions import ParameterError
from ..fields import Seed, param, settle
from ..groups.params import PAPER_GQ_SET, PAPER_SCHNORR_SET, TEST_GQ_SET, TEST_SCHNORR_SET
from ..mathutils.rand import DeterministicRNG

__all__ = ["CampaignCell", "CampaignSpec", "AXIS_NAMES", "PARAM_SETS"]

#: ``params`` name -> the named (Schnorr, GQ) parameter sets a worker builds
#: its :class:`~repro.core.base.SystemSetup` from.
PARAM_SETS: Dict[str, Tuple[str, str]] = {
    "test": (TEST_SCHNORR_SET, TEST_GQ_SET),
    "paper": (PAPER_SCHNORR_SET, PAPER_GQ_SET),
}

#: Cell-key axis names, in key order (also the row columns the axes become).
AXIS_NAMES = (
    "protocol",
    "group_size",
    "mobility",
    "tiers",
    "loss",
    "engine",
    "adversary",
    "rep",
)


@dataclass(frozen=True)
class CampaignCell:
    """One grid point: its stable key, axis values and worker payload."""

    index: int
    key: str
    #: axis name -> axis value (strings/numbers; what the result rows carry)
    axes: Mapping[str, object]
    #: the JSON-able work order handed to :func:`repro.campaign.execute.execute_cell`
    payload: Mapping[str, object]


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative protocol × scenario parameter sweep.

    Attributes
    ----------
    name:
        Campaign name; part of every cell's scenario name and seed domain.
    protocols:
        Registry names to sweep (see :func:`repro.core.registry.available_protocols`).
    group_sizes:
        Initial group sizes.
    losses:
        Loss levels (``loss_probability`` on uniform media, ``base_loss`` on
        mobility radios).
    schedule:
        One churn-schedule spec dict shared by every non-mobility cell
        (``None`` = churn-free establishment-only scenarios).
    mobilities:
        Named mobility axis: ``{name: mobility-spec-or-None}``.  The default
        single ``"none"`` point keeps every cell schedule-driven.
    tiers:
        Named multi-tier topology axis: ``{name: tiers-spec-or-None}`` (see
        :class:`~repro.network.tiers.TierConfig`).  A treatment axis — cells
        sharing a workload keep their seed across tier configurations — and
        mutually exclusive with non-trivial ``mobilities`` entries.  On a
        tiered cell the loss axis becomes the config's ``loss_floor``.
    engines:
        Engine profiles (``instant`` / ``radio`` / ``wlan`` / ``tiered`` /
        ``fixed:<s>`` or spec dicts, see :mod:`repro.sim.specio`).
    adversaries:
        Named adversary axis: ``{name: preset-or-spec-or-None}``; a plain
        sequence of preset names is accepted as shorthand.
    seed:
        Master seed; every cell derives its own named child from it.
    params:
        A :data:`PARAM_SETS` name for the worker's
        :class:`~repro.core.base.SystemSetup`: ``"test"`` (256-bit, fast) or
        ``"paper"`` (the paper's 1024-bit).
    replications:
        Independent repetitions of every grid point (distinct child seeds).
    max_retries / min_group_size:
        Forwarded to every cell's :class:`~repro.sim.scenarios.Scenario`.
    """

    name: str
    protocols: Tuple[str, ...]
    group_sizes: Tuple[int, ...] = (8,)
    losses: Tuple[float, ...] = param((0.0,), ge=0.0, lt=1.0, to_float=True)
    schedule: Optional[Mapping] = None
    mobilities: Tuple[Tuple[str, Optional[Mapping]], ...] = param((("none", None),), keys="name")
    tiers: Tuple[Tuple[str, Optional[Mapping]], ...] = param((("none", None),), keys="name")
    engines: Tuple[Union[str, Mapping], ...] = ("instant",)
    adversaries: Tuple[Tuple[str, Union[str, Mapping, None]], ...] = param(
        (("none", None),), keys="name", shorthand=True
    )
    seed: Seed = 0
    params: str = param("test", choices=tuple(PARAM_SETS))
    replications: int = param(1, ge=1)
    max_retries: int = 10
    min_group_size: int = 3

    def __post_init__(self) -> None:
        settle(self)
        if not self.name:
            raise ParameterError("a campaign needs a name")
        # A repeated value would expand into cells sharing one key.
        for values, what, axis in (
            (self.protocols, "protocol", "protocols"),
            (self.group_sizes, "group size", "group_sizes"),
            (self.losses, "loss level", "losses"),
        ):
            if not values:
                raise ParameterError(f"a campaign needs at least one {what}")
            if len(set(values)) < len(values):
                raise ParameterError(f"{axis} must be unique, got {list(values)}")
        for axis in ("engines", "mobilities", "tiers", "adversaries"):
            if not getattr(self, axis):
                raise ParameterError(f"{axis} axis cannot be empty")
        mobile = any(spec is not None for _, spec in self.mobilities)
        if self.schedule is not None and mobile:
            raise ParameterError(
                "a campaign sweeps either a churn schedule or mobility models, "
                "not both (a scenario is driven by exactly one of them)"
            )
        if mobile and any(spec is not None for _, spec in self.tiers):
            raise ParameterError(
                "a campaign sweeps either tier topologies or mobility models, "
                "not both (a scenario's topology comes from exactly one of them)"
            )
        self._build_entries()

    def _build_entries(self) -> None:
        """Build every axis entry now, so a bad one fails the spec, not its cells.

        Only the config objects are built: no field, medium or event
        expansion.  The cells keep carrying the entries as given.  Two
        engine entries that settle to one engine would run it twice, so
        they are compared by the ``to_spec`` of their built configs, where
        ``1 == 1.0`` and a default spelled out equals it left out.
        """
        # Imported here: the campaign module loads without the sim layer.
        from ..adversary.config import AdversaryConfig
        from ..engine.executor import EngineConfig
        from ..mobility.config import MobilityConfig
        from ..network.tiers import TierConfig
        from ..sim.scenarios import ChurnSchedule
        from ..sim.specio import build, to_spec

        build(ChurnSchedule, self.schedule)
        for axis, cls in (
            (self.mobilities, MobilityConfig),
            (self.tiers, TierConfig),
            (self.adversaries, AdversaryConfig),
        ):
            for _, spec in axis:
                build(cls, spec)
        settled: List[object] = []
        for engine in self.engines:
            spec = to_spec(build(EngineConfig, engine))
            if spec in settled:
                raise ParameterError(
                    f"engines must be unique once settled, got {list(self.engines)}"
                )
            settled.append(spec)

    # -------------------------------------------------------------- expansion
    def _master_rng(self) -> DeterministicRNG:
        return DeterministicRNG(self.seed, label=f"campaign/{self.name}")

    #: Axes that define a cell's *workload* (the churn/trajectory streams);
    #: the rest — protocol, loss, engine, adversary — are treatments applied
    #: over it and share the workload's seed for comparability.
    WORKLOAD_AXES = ("group_size", "mobility", "rep")

    @classmethod
    def workload_key(cls, axes: Mapping[str, object]) -> str:
        """The workload identity of a cell (its seed-derivation domain)."""
        return "/".join(f"{name}={axes[name]}" for name in cls.WORKLOAD_AXES)

    def cell_seed(self, workload: str) -> str:
        """The derived scenario seed for one workload (hex child seed).

        The derivation depends only on the master seed and the workload key,
        so a cell keeps its seed when unrelated axis values are added or
        removed — the property that makes content-hash caching sound — and
        every treatment of the same workload replays identical streams.
        """
        return self._master_rng().derive_seed(f"workload/{workload}").hex()

    @staticmethod
    def engine_label(engine: object) -> str:
        """The short axis label for an engine profile (dict specs get named).

        This is the value the result rows carry in their ``engine`` column,
        so scripts can locate the rows belonging to one ``engines`` entry.
        """
        if isinstance(engine, str):
            return engine
        latency = engine.get("latency", "instant")
        extras = "+".join(f"{k}={v}" for k, v in sorted(engine.items()) if k != "latency")
        return f"{latency}[{extras}]" if extras else str(latency)

    @staticmethod
    def _fold_loss(mobility_spec: Mapping, loss: float) -> Dict[str, object]:
        """Apply the loss axis to a mobility spec (a ``base_loss`` floor).

        The axis only ever *raises* the radio's loss ramp, so a mobility spec
        with its own ``base_loss``/``edge_loss`` keeps them at loss level 0.
        """
        folded = dict(mobility_spec)
        folded["base_loss"] = max(loss, float(folded.get("base_loss", 0.0)))
        folded["edge_loss"] = max(loss, float(folded.get("edge_loss", 0.0)))
        return folded

    @staticmethod
    def _fold_loss_tiers(tier_spec: Mapping, loss: float) -> Dict[str, object]:
        """Apply the loss axis to a tiers spec (a per-class ``loss_floor``).

        Like the mobility fold, the axis only *raises* constant class
        losses; Gilbert–Elliott classes already model their loss and are
        left alone (see :class:`~repro.network.tiers.TierConfig`).
        """
        folded = dict(tier_spec)
        folded["loss_floor"] = max(loss, float(folded.get("loss_floor", 0.0)))
        return folded

    def cells(self) -> List[CampaignCell]:
        """Expand the axes into the ordered cell list.

        Order is the deterministic nested product — protocol, group size,
        mobility, loss, engine, adversary, replication — but nothing about a
        cell depends on its position: keys and seeds derive from axis values
        alone.
        """
        cells: List[CampaignCell] = []
        for protocol in self.protocols:
            for size in self.group_sizes:
                for mobility_name, mobility_spec in self.mobilities:
                    for tier_name, tier_spec in self.tiers:
                        for loss in self.losses:
                            for engine in self.engines:
                                engine_label = self.engine_label(engine)
                                for adversary_name, adversary_spec in self.adversaries:
                                    for rep in range(self.replications):
                                        cells.append(
                                            self._cell(
                                                index=len(cells),
                                                protocol=protocol,
                                                size=size,
                                                mobility_name=mobility_name,
                                                mobility_spec=mobility_spec,
                                                tier_name=tier_name,
                                                tier_spec=tier_spec,
                                                loss=loss,
                                                engine=engine,
                                                engine_label=engine_label,
                                                adversary_name=adversary_name,
                                                adversary_spec=adversary_spec,
                                                rep=rep,
                                            )
                                        )
        return cells

    def _cell(
        self,
        *,
        index: int,
        protocol: str,
        size: int,
        mobility_name: str,
        mobility_spec: Optional[Mapping],
        tier_name: str,
        tier_spec: Optional[Mapping],
        loss: float,
        engine: object,
        engine_label: str,
        adversary_name: str,
        adversary_spec: object,
        rep: int,
    ) -> CampaignCell:
        axes: Dict[str, object] = {
            "protocol": protocol,
            "group_size": size,
            "mobility": mobility_name,
            "tiers": tier_name,
            "loss": loss,
            "engine": engine_label,
            "adversary": adversary_name,
            "rep": rep,
        }
        key = "/".join(f"{name}={axes[name]}" for name in AXIS_NAMES)
        workload = self.workload_key(axes)
        # Name and seed are per-workload, not per-cell: the scenario name
        # labels every RNG stream, so cells comparing treatments over the
        # same workload must share both to replay identical streams.
        scenario: Dict[str, object] = {
            "name": f"{self.name}/{workload}",
            "initial_size": size,
            "seed": self.cell_seed(workload),
            "max_retries": self.max_retries,
            "min_group_size": self.min_group_size,
        }
        if mobility_spec is not None:
            scenario["mobility"] = self._fold_loss(mobility_spec, loss)
        elif tier_spec is not None:
            if self.schedule is not None:
                scenario["schedule"] = dict(self.schedule)
            scenario["tiers"] = (
                self._fold_loss_tiers(tier_spec, loss) if loss else dict(tier_spec)
            )
        else:
            if self.schedule is not None:
                scenario["schedule"] = dict(self.schedule)
            if loss:
                scenario["loss_probability"] = loss
        if adversary_spec is not None:
            scenario["adversary"] = adversary_spec
        payload: Dict[str, object] = {
            "campaign": self.name,
            "cell": key,
            "axes": axes,
            "protocol": protocol,
            "params": self.params,
            "engine": engine,
            "scenario": scenario,
        }
        return CampaignCell(index=index, key=key, axes=axes, payload=payload)
