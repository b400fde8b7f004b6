"""``python -m repro.campaign`` — run a campaign spec without writing a script.

The spec is a JSON object of :class:`~repro.campaign.spec.CampaignSpec`
fields::

    {
      "name": "loss-sweep",
      "protocols": ["proposed-gka", "bd-unauthenticated", "ssn"],
      "group_sizes": [8, 12],
      "losses": [0.0, 0.1, 0.2],
      "schedule": {"kind": "poisson", "length": 8},
      "adversaries": {"none": null, "inject": "inject"},
      "seed": 7
    }

Examples::

    python -m repro.campaign spec.json --workers 4
    python -m repro.campaign spec.json --workers 4 --cache-dir .campaign-cache \\
        --csv rows.csv --json result.json --pivot protocol:loss:energy_j
    python -m repro.campaign spec.json --dry-run --cache-dir .campaign-cache
    python -m repro.campaign --list-protocols
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..core.registry import describe_registry
from ..exceptions import ReproError
from ..profiling import observability
from ..sim.specio import build
from .execute import run_campaign
from .plan import plan_campaign
from .spec import AXIS_NAMES, CampaignSpec


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Expand a JSON campaign spec into its parameter grid, run "
        "every cell (optionally sharded over worker processes), and emit the "
        "aggregated rows.",
    )
    parser.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="path to the campaign spec JSON ('-' for stdin)",
    )
    parser.add_argument(
        "--list-protocols",
        action="store_true",
        help="print the protocol registry (names, aliases, tags) and exit",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (default 1; output is bit-identical either way)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-hash result cache directory (re-runs replay unchanged cells)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded cell grid (count, axis values, cached-vs-"
        "pending split when --cache-dir is set) without running anything",
    )
    parser.add_argument("--csv", default=None, help="write the long-form rows CSV here")
    parser.add_argument("--json", default=None, help="write the full result JSON here")
    parser.add_argument(
        "--pivot",
        default=None,
        metavar="INDEX:COLUMNS:VALUE",
        help=f"print a pivot table (axes: {', '.join(AXIS_NAMES)}; "
        "value: any metric column, e.g. energy_j)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile the campaign run and print the top cumulative hotspots "
        "to stderr (forces --workers 1 so the work happens in this process)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record per-cell spans; *.jsonl writes span JSONL, anything else "
        "a Perfetto-loadable Chrome trace (forces --workers 1 so every cell "
        "runs in this process)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect counters/histograms, the workers' included, and print "
        "the summary table to stderr",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the summary on stdout"
    )
    args = parser.parse_args(argv)

    if args.list_protocols:
        print(describe_registry())
        return 0
    if args.spec is None:
        parser.error("spec is required unless --list-protocols is given")

    try:
        if args.spec == "-":
            payload = json.load(sys.stdin)
        else:
            with open(args.spec, encoding="utf-8") as handle:
                payload = json.load(handle)
        spec = build(CampaignSpec, payload)
        pivot = None
        if args.pivot is not None:
            parts = args.pivot.split(":")
            if len(parts) != 3:
                raise ValueError(
                    f"--pivot must be INDEX:COLUMNS:VALUE, got {args.pivot!r}"
                )
            pivot = tuple(parts)
        if args.workers < 1:
            raise ValueError("--workers must be at least 1")
    except (ReproError, OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
        # A mistyped spec should print one line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.dry_run:
        # The pre-flight report: what would run, what the cache already has.
        print(plan_campaign(spec, cache_dir=args.cache_dir).describe())
        return 0

    workers = 1 if (args.profile or args.trace) else args.workers
    with observability(
        profile=args.profile, trace=args.trace, metrics=args.metrics
    ):
        result = run_campaign(spec, workers=workers, cache_dir=args.cache_dir)

    if args.csv:
        result.to_csv(args.csv)
    if args.json:
        result.to_json(args.json)
    if not args.quiet:
        print(result.summary())
        if pivot is not None:
            print()
            print(result.pivot_table(*pivot))
    # Per-cell failures are isolated, not fatal — but they must not look like
    # success to scripts either.
    return 1 if result.failures() else 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
