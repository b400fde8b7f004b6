"""``repro.sim`` — declarative scenario and churn simulation engine.

The paper's argument is comparative: the proposed ID-based GKA against the
BD/SSN baselines *under dynamic membership*.  This subsystem turns that
comparison into a repeatable experiment pipeline:

* :mod:`repro.sim.scenarios` — declarative churn schedules (Poisson
  join/leave, burst partitions, periodic merges, trace replay) bundled into a
  :class:`~repro.sim.scenarios.Scenario`;
* :mod:`repro.sim.runner` — :class:`~repro.sim.runner.ScenarioRunner` drives
  any registry-selected protocol through a scenario's event stream on a
  shared :class:`~repro.network.medium.BroadcastMedium`, recording per-event
  energy, message, bit and wall-time metrics;
* :mod:`repro.sim.report` — :class:`~repro.sim.report.ScenarioReport`
  aggregates those records into totals, per-kind and per-member summaries
  that are directly comparable across protocols, with CSV/JSON export.

Scenarios can also be *mobility-driven*: embed a
:class:`~repro.mobility.config.MobilityConfig` instead of a schedule and the
network layer simulates node positions, distance-dependent radio links and
multi-hop relaying, with partition/merge churn emitted by a connectivity
monitor as the topology changes (see :mod:`repro.mobility`).

Scenarios can run *under attack*: embed an
:class:`~repro.adversary.config.AdversaryConfig` and the runner fields the
configured attacker suite against every protocol step, evaluating the
security oracles (:mod:`repro.adversary.oracles`) after each one — records,
reports and comparison exports then carry ``attacks``/``detected`` counts and
per-oracle verdicts next to the energy numbers.

The module is also runnable: ``python -m repro.sim spec.json`` executes a
JSON scenario spec (optionally with ``--adversary``/``--engine`` profiles)
and emits the comparison table/CSV/JSON without writing a script.  The spec
format itself lives in :mod:`repro.sim.specio` (the ``build`` / ``to_spec``
codec and ``build_scenario``) — the serialization boundary the
:mod:`repro.campaign` sweeps hand their cells across to worker processes.

Quickstart::

    from repro import SystemSetup
    from repro.sim import PoissonChurn, Scenario, ScenarioRunner, comparison_table

    setup = SystemSetup.from_param_sets("test-256", "gq-test-256")
    scenario = Scenario(
        name="poisson-demo",
        initial_size=10,
        schedule=PoissonChurn(length=20, join_rate=2.0, leave_rate=2.0),
        seed=7,
    )
    runner = ScenarioRunner(setup)
    reports = [runner.run(name, scenario) for name in ("proposed", "bd", "ssn")]
    print(comparison_table(reports))
"""

from ..adversary.config import AdversaryConfig
from .report import (
    EventRecord,
    KindSummary,
    ScenarioReport,
    comparison_csv,
    comparison_json,
    comparison_table,
)
from .runner import ScenarioRunner
from .specio import build_scenario
from .scenarios import (
    BurstPartitions,
    ChurnSchedule,
    PeriodicMerges,
    PoissonChurn,
    Scenario,
    ScheduledEvent,
    TraceReplay,
)

__all__ = [
    "AdversaryConfig",
    "BurstPartitions",
    "ChurnSchedule",
    "EventRecord",
    "KindSummary",
    "PeriodicMerges",
    "PoissonChurn",
    "Scenario",
    "ScenarioReport",
    "ScenarioRunner",
    "ScheduledEvent",
    "TraceReplay",
    "build_scenario",
    "comparison_csv",
    "comparison_json",
    "comparison_table",
]
