"""The protocol × attacker survival matrix.

:func:`run_attack_matrix` drives every requested protocol through the same
scenario once per attacker model (plus a no-adversary baseline column) and
classifies each run from its :class:`~repro.sim.report.ScenarioReport`:

``clean``
    no attack actions fired (the baseline column, or an attacker whose
    trigger never matched);
``resisted``
    the adversary acted, the protocol absorbed it and still agreed on
    consistent keys everywhere (e.g. the proposed GKA's retransmission
    recovery);
``detected``
    the protocol noticed the attack and aborted the affected step;
``broken``
    the adversary acted, the run completed, and the members disagree on the
    key without anyone noticing — the silent failure unauthenticated BD
    exhibits under active injection;
``leaked``
    the adversary can produce the agreed group key (no protocol in this
    library may ever earn this one).

The matrix always runs as a :mod:`repro.campaign` grid, one cell per
(protocol, attacker) pair: :func:`~repro.campaign.execute.run_campaign`
runs, caches and classifies every cell, in process or on local fleet
workers.  The result is a :class:`SecurityReport` that renders as the
README's survival matrix and exports to CSV/JSON for CI trend lines.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..exceptions import ParameterError, ProtocolError
from .config import ATTACKER_PRESETS, AdversaryConfig

__all__ = [
    "AttackOutcome",
    "SecurityReport",
    "default_attackers",
    "classify_report",
    "run_attack_matrix",
]

#: Verdicts ordered from best to worst for a protocol under attack.
VERDICTS = ("clean", "resisted", "detected", "broken", "leaked")


@dataclass(frozen=True)
class AttackOutcome:
    """One cell of the matrix: one protocol under one attacker model."""

    protocol: str
    attacker: str
    verdict: str
    attacks: int
    detail: str = ""


def classify_report(report) -> "tuple[str, str]":
    """(verdict, detail) for one :class:`~repro.sim.report.ScenarioReport`.

    The verdict is :attr:`~repro.sim.report.ScenarioReport.security_verdict`
    — the single source of truth also exported in the comparison CSV/JSON —
    and this function only adds the human-readable detail string naming the
    step that sealed the cell's fate.
    """
    verdict = report.security_verdict
    if verdict == "leaked":
        for record in report.records:
            if record.oracles.get("implicit-key-auth") is False:
                return verdict, (
                    f"adversary derived the key at step {record.index} ({record.kind})"
                )
    if verdict == "broken":
        for record in report.records:
            if record.oracles.get("key-consistency") is False and not record.detected:
                return verdict, (
                    f"inconsistent keys after step {record.index} ({record.kind}), undetected"
                )
    if verdict == "detected":
        for record in report.records:
            if record.detected:
                return verdict, record.abort_reason or f"aborted step {record.index}"
    if verdict == "resisted":
        return verdict, f"{report.total_attacks} attack action(s) absorbed"
    return verdict, ""


def default_attackers() -> Dict[str, AdversaryConfig]:
    """The survey columns: every preset, in canonical order."""
    return {name: AdversaryConfig.preset(name) for name in ATTACKER_PRESETS}


@dataclass
class SecurityReport:
    """Which protocols survive which attackers, for one scenario."""

    scenario_name: str
    scenario_description: str
    outcomes: List[AttackOutcome]

    # -------------------------------------------------------------- accessors
    @property
    def protocols(self) -> List[str]:
        """Row order: protocols as first encountered."""
        return list(dict.fromkeys(outcome.protocol for outcome in self.outcomes))

    @property
    def attackers(self) -> List[str]:
        """Column order: attacker models as first encountered."""
        return list(dict.fromkeys(outcome.attacker for outcome in self.outcomes))

    def outcome(self, protocol: str, attacker: str) -> AttackOutcome:
        """The cell for one (protocol, attacker) pair."""
        for entry in self.outcomes:
            if entry.protocol == protocol and entry.attacker == attacker:
                return entry
        raise ParameterError(f"no outcome recorded for {protocol!r} under {attacker!r}")

    def verdict(self, protocol: str, attacker: str) -> str:
        """The cell's verdict string."""
        return self.outcome(protocol, attacker).verdict

    def fallen(self) -> List[AttackOutcome]:
        """Cells where a protocol was silently broken or leaked a key."""
        return [o for o in self.outcomes if o.verdict in ("broken", "leaked")]

    # -------------------------------------------------------------- rendering
    def matrix_table(self) -> str:
        """The protocol × attacker survival matrix as fixed-width text."""
        attackers = self.attackers
        width = max([8] + [len(name) for name in attackers]) + 2
        header = f"{'protocol':<18}" + "".join(f"{name:>{width}}" for name in attackers)
        lines = [f"scenario: {self.scenario_description}", header, "-" * len(header)]
        for protocol in self.protocols:
            row = f"{protocol:<18}"
            for attacker in attackers:
                row += f"{self.verdict(protocol, attacker):>{width}}"
            lines.append(row)
        return "\n".join(lines)

    def summary(self) -> str:
        """The matrix plus a one-line account of every fallen cell."""
        lines = [self.matrix_table()]
        for outcome in self.fallen():
            lines.append(
                f"  {outcome.protocol} fell to {outcome.attacker}: {outcome.detail}"
            )
        return "\n".join(lines)

    # --------------------------------------------------------------- exports
    def to_csv(self, path: Optional[str] = None) -> str:
        """One row per (protocol, attacker) cell."""
        buffer = io.StringIO()
        writer = csv.DictWriter(
            buffer,
            fieldnames=["protocol", "attacker", "verdict", "attacks", "detail"],
            lineterminator="\n",
        )
        writer.writeheader()
        for outcome in self.outcomes:
            writer.writerow(
                {
                    "protocol": outcome.protocol,
                    "attacker": outcome.attacker,
                    "verdict": outcome.verdict,
                    "attacks": outcome.attacks,
                    "detail": outcome.detail,
                }
            )
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        return text

    def to_json(self, path: Optional[str] = None, *, indent: int = 2) -> str:
        """The whole matrix as JSON."""
        payload = {
            "scenario": self.scenario_name,
            "description": self.scenario_description,
            "attackers": self.attackers,
            "protocols": {
                protocol: {
                    attacker: {
                        "verdict": self.verdict(protocol, attacker),
                        "attacks": self.outcome(protocol, attacker).attacks,
                        "detail": self.outcome(protocol, attacker).detail,
                    }
                    for attacker in self.attackers
                }
                for protocol in self.protocols
            },
        }
        text = json.dumps(payload, indent=indent)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text


def _default_matrix_scenario():
    """The standard survey workload: establish + leave + leave + join.

    Two leaves make every round label recur (the replayer needs a later step
    reusing an earlier step's slots), and the join exercises the
    backward-secrecy oracle.
    """
    from ..network.events import JoinEvent, LeaveEvent
    from ..pki.identity import Identity
    from ..sim.scenarios import Scenario, TraceReplay

    return Scenario(
        name="attack-matrix",
        initial_size=6,
        schedule=TraceReplay(
            events=(
                LeaveEvent(leaving=Identity("member-003")),
                LeaveEvent(leaving=Identity("member-004")),
                JoinEvent(joining=Identity("member-new")),
            )
        ),
        seed="attack-matrix",
    )


def run_attack_matrix(
    setup,
    *,
    protocols: Optional[Sequence[str]] = None,
    attackers: Optional[Mapping[str, Optional[AdversaryConfig]]] = None,
    scenario=None,
    engine=None,
    workers: int = 1,
    cache_dir: Optional[str] = None,
) -> SecurityReport:
    """Run every protocol under every attacker model and classify the cells.

    ``attackers`` maps column name to :class:`AdversaryConfig` (``None`` for
    a no-adversary baseline column); defaults to a ``baseline`` column plus
    every preset.  ``scenario`` defaults to a small establish + leave + join
    trace exercising the dynamic sub-protocols too.

    The matrix is always a :mod:`repro.campaign` sweep — protocols ×
    attacker columns as campaign axes, one cell per pair, each running the
    scenario verbatim under its column's attacker — so ``workers`` shards
    the cells over local fleet workers and ``cache_dir`` replays unchanged
    cells, with output bit-identical to ``workers=1`` either way.  The cells
    rebuild ``setup`` by name, so a setup outside the named parameter sets
    (:data:`~repro.campaign.spec.PARAM_SETS`), or a scenario or engine
    without a spec form, raises :class:`~repro.exceptions.ParameterError`.
    """
    # Imported lazily: this module is reachable from ``repro.sim`` (the
    # runner consults the oracles), so a module-level import would be a cycle.
    from ..campaign.execute import params_for, run_campaign
    from ..campaign.spec import CampaignSpec
    from ..core.registry import available_protocols
    from ..sim.specio import to_spec

    if protocols is None:
        protocols = available_protocols()
    if attackers is None:
        columns: Dict[str, Optional[AdversaryConfig]] = {"baseline": None}
        columns.update(default_attackers())
        attackers = columns
    if scenario is None:
        scenario = _default_matrix_scenario()

    scenario_spec = to_spec(scenario)
    spec = CampaignSpec(
        name=f"attack-matrix/{scenario.name}",
        protocols=tuple(protocols),
        group_sizes=(scenario.initial_size,),
        losses=(scenario.loss_probability,),
        schedule=scenario_spec.get("schedule"),
        mobilities={"none": scenario_spec.get("mobility")},
        engines=(to_spec(engine) if engine is not None else "instant",),
        adversaries={name: to_spec(config) for name, config in attackers.items()},
        seed=scenario.seed,
        params=params_for(setup),
        max_retries=scenario.max_retries,
        min_group_size=scenario.min_group_size,
    )
    # The matrix must replay the *scenario* verbatim — its exact seed, name,
    # member prefix, every field — not the campaign's derived workload
    # scenario: every cell gets the full faithful spec, varying only in the
    # adversary column the cell belongs to.
    cells = spec.cells()
    for cell in cells:
        pinned = dict(scenario_spec)
        adversary_spec = cell.payload["scenario"].get("adversary")
        if adversary_spec is not None:
            pinned["adversary"] = adversary_spec
        else:
            pinned.pop("adversary", None)
        cell.payload["scenario"] = pinned
    result = run_campaign(spec, cells=cells, workers=workers, cache_dir=cache_dir)

    outcomes: List[AttackOutcome] = []
    for row in result.rows:
        if row.get("error"):
            raise ProtocolError(
                f"attack-matrix cell {row.get('cell')} failed: {row['error']}"
            )
        outcomes.append(
            AttackOutcome(
                protocol=str(row["protocol"]),
                attacker=str(row["adversary"]),
                verdict=str(row["security_verdict"]),
                attacks=int(row["attacks"]),
                detail=str(row.get("security_detail", "")),
            )
        )
    return SecurityReport(
        scenario_name=scenario.name,
        scenario_description=scenario.describe(),
        outcomes=outcomes,
    )
