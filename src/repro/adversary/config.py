"""Declarative adversary configuration for scenarios.

:class:`AdversaryConfig` is the scenario-side description of an attacker —
a frozen dataclass, like the churn schedules and the mobility config, so a
:class:`~repro.sim.scenarios.Scenario` stays a pure value object.  The
scenario runner calls :meth:`AdversaryConfig.build` with a *named* child of
the scenario's master RNG, so attaching an adversary can never perturb any
other randomness stream.

Named presets cover the survey axes of the attack matrix::

    Scenario(..., adversary=AdversaryConfig.preset("mitm"))

``"eavesdrop"`` (passive wiretap), ``"inject"`` (forgery racing),
``"replay"`` (stale-message racing), ``"mitm"`` (in-flight modification),
``"drop"`` (jamming), ``"delay"`` (delivery postponement) and
``"compromise"`` (long-term key theft).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..exceptions import ParameterError
from ..fields import param, settle
from ..mathutils.rand import DeterministicRNG
from .actors import (
    AdversarySuite,
    Compromiser,
    Eavesdropper,
    Injector,
    ManInTheMiddle,
    Replayer,
)

__all__ = ["AdversaryConfig", "ATTACKER_PRESETS"]

#: Names accepted by :meth:`AdversaryConfig.preset` (and the ``--adversary``
#: CLI flag), in the column order the attack matrix prints them.
ATTACKER_PRESETS = (
    "eavesdrop",
    "inject",
    "replay",
    "mitm",
    "drop",
    "delay",
    "compromise",
)


@dataclass(frozen=True)
class AdversaryConfig:
    """Which attackers to field, and how aggressively.

    The default configuration is a lone passive eavesdropper — the attacker
    every wireless protocol faces for free.  Active models are opt-in; all
    of them record what the eavesdropper records (an active attacker hears
    everything a passive one does).
    """

    #: record every transmitted value and attempt key recovery from them
    eavesdropper: bool = True
    #: race forged keying messages against the originals
    injector: bool = False
    #: race recordings from earlier steps against fresh transmissions
    replayer: bool = False
    #: intercept in flight (see ``mitm_mode``)
    mitm: bool = False
    #: ``"modify"`` | ``"drop"`` | ``"delay"``
    mitm_mode: str = param("modify", choices=ManInTheMiddle.MODES)
    #: delivery postponement for ``mitm_mode="delay"`` (virtual seconds)
    mitm_delay_s: float = param(0.5, ge=0.0)
    #: steal a long-term key mid-scenario
    compromiser: bool = False
    #: member whose key is stolen (default: first non-controller present)
    compromise_target: Optional[str] = None
    #: scenario step index after which the theft happens
    compromise_at: int = param(0, ge=0)
    #: first scenario step index at which *active* attacks fire (0 = the
    #: establishment itself; the eavesdropper always listens)
    attack_from: int = param(0, ge=0)
    #: message part names carrying the keying material worth attacking
    target_parts: Tuple[str, ...] = ("X",)
    #: active actions each actor may take per scenario step
    max_actions_per_step: int = param(8, ge=1)

    def __post_init__(self) -> None:
        settle(self)
        if not self.target_parts:
            raise ParameterError("target_parts cannot be empty")
        if not (self.eavesdropper or self.injector or self.replayer or self.mitm or self.compromiser):
            raise ParameterError("adversary configured with no actors at all")

    # ------------------------------------------------------------------ build
    def build(self, rng: DeterministicRNG) -> AdversarySuite:
        """Instantiate the configured actors on their own named RNG children."""
        actors = []
        budget = self.max_actions_per_step
        if self.compromiser:
            actors.append(
                Compromiser(
                    "attacker-compromiser",
                    rng.fork("compromiser"),
                    budget=budget,
                    target=self.compromise_target,
                    at_step=self.compromise_at,
                )
            )
        elif self.eavesdropper and not (self.injector or self.replayer):
            # Injector/Replayer *are* eavesdroppers (they record every
            # value themselves), so a standalone wiretap would just
            # duplicate every observation; it is only needed when no
            # recording actor is otherwise present (pure-passive or
            # MITM-only configurations).
            actors.append(
                Eavesdropper("attacker-eavesdropper", rng.fork("eavesdropper"), budget=budget)
            )
        if self.injector:
            actors.append(
                Injector(
                    "attacker-injector",
                    rng.fork("injector"),
                    budget=budget,
                    target_parts=self.target_parts,
                )
            )
        if self.replayer:
            actors.append(
                Replayer(
                    "attacker-replayer",
                    rng.fork("replayer"),
                    budget=budget,
                    target_parts=self.target_parts + ("z",),
                )
            )
        if self.mitm:
            actors.append(
                ManInTheMiddle(
                    "attacker-mitm",
                    rng.fork("mitm"),
                    budget=budget,
                    target_parts=self.target_parts,
                    mode=self.mitm_mode,
                    delay_s=self.mitm_delay_s,
                )
            )
        return AdversarySuite(actors, attack_from=self.attack_from)

    # ---------------------------------------------------------------- presets
    @staticmethod
    def preset(name: str) -> "AdversaryConfig":
        """A named single-model configuration (see :data:`ATTACKER_PRESETS`)."""
        presets = {
            "eavesdrop": AdversaryConfig(),
            "inject": AdversaryConfig(injector=True),
            "replay": AdversaryConfig(replayer=True),
            "mitm": AdversaryConfig(mitm=True),
            "drop": AdversaryConfig(mitm=True, mitm_mode="drop"),
            "delay": AdversaryConfig(mitm=True, mitm_mode="delay"),
            "compromise": AdversaryConfig(compromiser=True),
        }
        try:
            return presets[name]
        except KeyError:
            raise ParameterError(
                f"unknown adversary preset {name!r}; available: {', '.join(ATTACKER_PRESETS)}"
            ) from None

    def describe(self) -> str:
        """One-line summary used in scenario descriptions."""
        models = []
        if self.compromiser:
            models.append(f"compromise@{self.compromise_at}")
        elif self.eavesdropper:
            models.append("eavesdrop")
        if self.injector:
            models.append("inject")
        if self.replayer:
            models.append("replay")
        if self.mitm:
            models.append(self.mitm_mode if self.mitm_mode != "modify" else "mitm")
        summary = "+".join(models) or "none"
        if self.attack_from:
            summary += f" from step {self.attack_from}"
        return summary
