"""``python -m repro.sim`` — run a scenario spec without writing a script.

The spec is a JSON object describing one :class:`~repro.sim.scenarios.Scenario`::

    {
      "name": "burst-demo",
      "initial_size": 10,
      "seed": 7,
      "loss_probability": 0.05,
      "schedule": {"kind": "poisson", "length": 12, "join_rate": 2.0,
                   "leave_rate": 2.0},
      "adversary": {"injector": true}
    }

``schedule.kind`` is one of ``poisson`` / ``bursts`` / ``merges`` (remaining
keys are the matching schedule class's fields) or ``trace`` (an explicit
``events`` list of ``{"kind": "join"|"leave"|"merge"|"partition", "member"
or "members": ..., "time": optional}`` entries), or the key may be omitted
for a churn-free scenario.  A ``mobility`` object replaces ``schedule``: a
``model`` name (``static-grid`` / ``random-waypoint`` / ``rpgm``), the
model's fields beside the config's, and ``area`` as ``[w, h]``::

    "mobility": {"model": "random-waypoint", "min_speed": 2.0,
                 "max_speed": 10.0, "area": [500, 500], "tx_range": 150,
                 "duration": 60, "tick": 2.0, "edge_loss": 0.1}

A ``tiers`` object (with ``--engine tiered``) lays out link classes:
``{"tiers": {"ground": "ground", "sat": "satellite"}, "members": {"sat": 2},
"gateways": {"ground:sat": 1}}``, classes as preset names or field dicts,
per-pair overrides as ``"a|b"`` keys.  ``adversary`` is an object of
:class:`~repro.adversary.config.AdversaryConfig` fields or a preset name
(``eavesdrop``, ``inject``, ``replay``, ``mitm``, ``drop``, ``delay``,
``compromise``); ``--adversary`` overrides it with a preset or inline JSON.
A ``{"bytes": hex}`` seed is a bytes seed.

One rule checks every spec (see :mod:`repro.sim.specio`): an unknown key, a
wrong JSON type (a bool or a string is never a number; an int is accepted
where a float is declared), NaN or ±inf, or a value outside its declared
range or choices raises ``ParameterError`` when the spec is built: the CLI
prints one ``error:`` line and exits 2 before anything runs.

Examples::

    python -m repro.sim spec.json
    python -m repro.sim spec.json --protocols proposed-gka,bd,ssn \\
        --adversary mitm --engine radio --csv out.csv --json out.json
    python -m repro.sim --list-protocols
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..adversary.config import ATTACKER_PRESETS
from ..campaign.spec import PARAM_SETS
from ..core.base import SystemSetup
from ..core.registry import available_protocols, describe_registry
from ..engine.executor import EngineConfig
from ..exceptions import ReproError
from ..profiling import observability
from .report import comparison_csv, comparison_json, comparison_table
from .runner import ScenarioRunner
from .specio import build, build_scenario

__all__ = ["build_scenario", "main"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim",
        description="Run a JSON scenario spec under one or more protocols "
        "and emit the cross-protocol comparison.",
    )
    parser.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="path to the scenario spec JSON ('-' for stdin)",
    )
    parser.add_argument(
        "--protocols",
        default=None,
        help="comma-separated registry names (default: every protocol in the table)",
    )
    parser.add_argument(
        "--list-protocols",
        action="store_true",
        help="print the protocol registry (names, aliases, tags) and exit",
    )
    parser.add_argument(
        "--adversary",
        default=None,
        help=f"attacker preset ({', '.join(ATTACKER_PRESETS)}) or inline JSON; "
        "overrides the spec's own adversary",
    )
    parser.add_argument(
        "--engine",
        default=None,
        help="execution profile: instant (default), radio, wlan, tiered, or fixed:<seconds>",
    )
    parser.add_argument(
        "--params",
        default="test",
        choices=tuple(PARAM_SETS),
        help="parameter sizes: fast 256-bit test sets (default) or the paper's 1024-bit",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile the run phase and print the top cumulative hotspots to stderr",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record dual-clock spans for the run phase; *.jsonl writes span "
        "JSONL, anything else a Perfetto-loadable Chrome trace",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect counters/gauges/histograms during the run and print the "
        "summary table to stderr",
    )
    parser.add_argument("--csv", default=None, help="write the comparison CSV here")
    parser.add_argument("--json", default=None, help="write the comparison JSON here")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the comparison table on stdout"
    )
    args = parser.parse_args(argv)

    if args.list_protocols:
        print(describe_registry())
        return 0
    if args.spec is None:
        parser.error("spec is required unless --list-protocols is given")

    try:
        if args.spec == "-":
            spec = json.load(sys.stdin)
        else:
            with open(args.spec, encoding="utf-8") as handle:
                spec = json.load(handle)
        scenario = build_scenario(spec, adversary_override=args.adversary)
        engine = build(EngineConfig, args.engine)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        # Every malformed spec raises ParameterError when it is built.
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        setup = SystemSetup.from_param_sets(*PARAM_SETS[args.params])
        protocols = (
            [name.strip() for name in args.protocols.split(",") if name.strip()]
            if args.protocols
            else available_protocols()
        )
        runner = ScenarioRunner(setup, engine=engine, check_agreement=False)
        with observability(
            profile=args.profile, trace=args.trace, metrics=args.metrics
        ):
            reports = [runner.run(name, scenario) for name in protocols]
    except ReproError as exc:
        # Once the spec has parsed, only library failures are expected —
        # anything else is a bug and should traceback, not masquerade as a
        # spec error.
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.csv:
        comparison_csv(reports, args.csv)
    if args.json:
        comparison_json(reports, args.json)
    if not args.quiet:
        print(comparison_table(reports))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
