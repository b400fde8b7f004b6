"""``python -m repro.fleet`` — run a campaign controller or a fleet worker.

Controller (owns the spec, the queue and the result)::

    python -m repro.fleet controller --spec campaign.json --port 7777 \\
        --cache-dir .campaign-cache --csv rows.csv --pivot protocol:loss:energy_j

Workers (one per machine/core; connect to the controller's address)::

    python -m repro.fleet worker --connect controller-host:7777

The controller prints its plan (the ``--dry-run`` grid report) and its bound
address up front, streams one-line progress snapshots to stderr while rows
arrive, and exits ``1`` if any cell ended as an error row (worker-loss
retries exhausted, or a simulation failure inside a cell) — same exit-code
contract as ``python -m repro.campaign``.  After writing its outputs it
keeps telling workers that connect late that the campaign is complete, for
one worker-silence window (``--heartbeat`` × the controller's heartbeat
misses), then exits.  Workers exit ``0`` on a clean shutdown handshake
(computing no cells if they arrived too late for any) and ``1`` when the
controller was unreachable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from ..campaign.spec import CampaignSpec
from ..exceptions import ReproError
from ..profiling import observability
from .controller import CampaignController
from .worker import FleetWorker


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Distributed campaign orchestration: a controller that "
        "streams cells to TCP workers and assembles the bit-identical result.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    controller = commands.add_parser(
        "controller", help="serve a campaign spec to fleet workers"
    )
    controller.add_argument("--spec", required=True,
                            help="path to the campaign spec JSON ('-' for stdin)")
    controller.add_argument("--host", default="0.0.0.0", help="bind address")
    controller.add_argument("--port", type=int, default=7600,
                            help="bind port (0 picks an ephemeral port)")
    controller.add_argument("--cache-dir", default=None,
                            help="content-hash result cache (hits never dispatch)")
    controller.add_argument("--csv", default=None, help="write the rows CSV here")
    controller.add_argument("--json", default=None, help="write the result JSON here")
    controller.add_argument("--pivot", default=None, metavar="INDEX:COLUMNS:VALUE",
                            help="print a pivot table after the run")
    controller.add_argument("--heartbeat", type=float, default=1.0,
                            help="worker heartbeat interval in seconds")
    controller.add_argument("--max-requeues", type=int, default=2,
                            help="worker losses a cell survives before it "
                            "becomes an error row")
    controller.add_argument("--idle-timeout", type=float, default=None,
                            help="abort after this many seconds with pending "
                            "cells and no workers (default: wait forever)")
    controller.add_argument("--progress-every", type=float, default=2.0,
                            help="seconds between progress lines on stderr "
                            "(0 disables; the final 100%% line always prints)")
    controller.add_argument("--progress-json", default=None, metavar="PATH",
                            help="stream every FleetProgress snapshot as one "
                            "JSON object per line to this file ('-' for stderr)")
    controller.add_argument("--trace", default=None, metavar="PATH",
                            help="record controller dispatch spans plus every "
                            "worker's per-cell spans; *.jsonl writes span "
                            "JSONL, anything else a Perfetto-loadable Chrome "
                            "trace (workers appear as trace processes)")
    controller.add_argument("--metrics", action="store_true",
                            help="aggregate worker metrics fleet-wide and "
                            "print the summary table to stderr")
    controller.add_argument("--quiet", action="store_true",
                            help="suppress the plan/summary on stdout")

    worker = commands.add_parser("worker", help="serve cells for a controller")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="the controller's address")
    worker.add_argument("--name", default=None,
                        help="worker name for the controller's health view")
    worker.add_argument("--connect-timeout", type=float, default=10.0,
                        help="seconds to keep retrying the initial connection")
    return parser


def _controller_main(args: argparse.Namespace) -> int:
    try:
        if args.spec == "-":
            payload = json.load(sys.stdin)
        else:
            with open(args.spec, encoding="utf-8") as handle:
                payload = json.load(handle)
        spec = CampaignSpec.from_dict(payload)
        pivot = None
        if args.pivot is not None:
            parts = args.pivot.split(":")
            if len(parts) != 3:
                raise ValueError(f"--pivot must be INDEX:COLUMNS:VALUE, got {args.pivot!r}")
            pivot = tuple(parts)
    except (ReproError, OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    last_line = [0.0]
    final_emitted = [False]
    progress_json = None
    if args.progress_json is not None:
        progress_json = (
            sys.stderr
            if args.progress_json == "-"
            else open(args.progress_json, "w", encoding="utf-8")
        )

    def _stream_progress(snapshot) -> None:
        if progress_json is not None:
            print(json.dumps(snapshot.to_dict()), file=progress_json, flush=True)
        if not args.progress_every:
            return
        now = time.monotonic()
        # The final 100% snapshot always prints (once) — a run must never end
        # with a stale progress line on screen.
        if snapshot.complete and not final_emitted[0]:
            final_emitted[0] = True
            last_line[0] = now
            print(snapshot.render(), file=sys.stderr)
        elif not snapshot.complete and now - last_line[0] >= args.progress_every:
            last_line[0] = now
            print(snapshot.render(), file=sys.stderr)

    watch_progress = bool(args.progress_every) or progress_json is not None
    try:
        controller = CampaignController(
            spec,
            cache_dir=args.cache_dir,
            host=args.host,
            port=args.port,
            heartbeat_s=args.heartbeat,
            max_requeues=args.max_requeues,
            idle_timeout_s=args.idle_timeout,
            on_progress=_stream_progress if watch_progress else None,
        )
        host, port = controller.bind()
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(controller.plan.describe())
    # Machine-readable even under --quiet: scripts (and the test suite) parse
    # the ephemeral port from this line.
    print(f"listening on {host}:{port}", flush=True)

    try:
        with observability(
            trace=args.trace, metrics=args.metrics, process="controller"
        ):
            result = controller.serve()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if progress_json is not None and progress_json is not sys.stderr:
            progress_json.close()

    if args.csv:
        result.to_csv(args.csv)
    if args.json:
        result.to_json(args.json)
    if not args.quiet:
        print(result.summary())
        if pivot is not None:
            print()
            print(result.pivot_table(*pivot))
    sys.stdout.flush()
    controller.dismiss_late_workers()
    controller.close()
    return 1 if result.failures() else 0


def _worker_main(args: argparse.Namespace) -> int:
    host, separator, port = args.connect.rpartition(":")
    if not separator or not port.isdigit():
        print(f"error: --connect must be HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    worker = FleetWorker(
        (host, int(port)), name=args.name, connect_timeout_s=args.connect_timeout
    )
    try:
        cells = worker.run()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"worker {worker.name}: {cells} cell(s) computed", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "controller":
        return _controller_main(args)
    return _worker_main(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
