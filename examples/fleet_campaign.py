#!/usr/bin/env python3
"""Fleet demo: a campaign served to local socket workers, streamed live.

``examples/campaign_sweep.py`` calls ``run_campaign(workers=N)``, which
runs on this same machinery; this demo drives :mod:`repro.fleet` directly:
a controller owns the cell queue and forked workers connect to it over TCP,
streaming result rows back one at a time.  What driving it directly shows:

* **live progress** — the controller knows exactly what is done, cached,
  in flight and pending, and estimates the finish time (printed below as
  the campaign runs);
* **fault tolerance** — a worker that dies mid-cell is detected (EOF or
  heartbeat silence) and its cell is requeued to a healthy worker;
* **the same determinism** — the assembled result is bit-identical to
  ``run_campaign(workers=1)``, asserted at the end.

The multi-machine version is the same architecture with real hosts::

    python -m repro.fleet controller --spec campaign.json --port 7600
    python -m repro.fleet worker --connect controller-host:7600   # per box

Run with:  PYTHONPATH=src python examples/fleet_campaign.py
"""

from __future__ import annotations

import os

from repro.campaign import CampaignSpec, plan_campaign, run_campaign
from repro.fleet import run_fleet_campaign

SPEC = CampaignSpec(
    name="fleet-demo",
    protocols=("proposed-gka", "bd-unauthenticated", "ssn"),
    group_sizes=(8,),
    losses=(0.0, 0.1),
    schedule={"kind": "poisson", "length": 6, "join_rate": 2.0, "leave_rate": 2.0},
    adversaries={"none": None, "inject": "inject"},
    seed="fleet-demo",
)


def main() -> None:
    workers = int(os.environ.get("FLEET_WORKERS", 0)) or min(os.cpu_count() or 1, 4)

    # The pre-flight plan: what the controller will queue (and what a cache
    # would already cover — same report as `python -m repro.campaign --dry-run`).
    print(plan_campaign(SPEC).describe())
    print()

    # Stream one progress line per completed cell while the fleet runs.
    seen = [0]

    def stream(snapshot) -> None:
        if snapshot.done > seen[0]:
            seen[0] = snapshot.done
            print(f"  {snapshot.render()}")

    print(f"serving {len(SPEC.cells())} cells to {workers} local socket worker(s):")
    result = run_fleet_campaign(SPEC, workers=workers, on_progress=stream)
    print()
    print(result.summary())

    print()
    print(result.pivot_table("protocol", "loss", "energy_j"))
    print()
    print(result.pivot_table("protocol", "adversary", "messages"))

    # Security straight off the grid: the proposed protocol detects the
    # injected-share attack; unauthenticated BD silently breaks under it.
    verdicts = {
        (row["protocol"], row["adversary"]): row["security_verdict"]
        for row in result.ok_rows()
    }
    assert verdicts[("proposed-gka", "inject")] == "detected"
    assert verdicts[("bd-unauthenticated", "inject")] == "broken"
    print()
    print("security : proposed-gka detects injection; bd-unauthenticated breaks")

    # The fleet's reason to exist is that this assert can never fire: the
    # socket boundary changes how fast rows arrive, never what they contain.
    serial = run_campaign(SPEC, workers=1)
    assert result.deterministic_rows() == serial.deterministic_rows()
    print()
    print(f"determinism: fleet result bit-identical to a serial run "
          f"across {len(result.rows)} cells")


if __name__ == "__main__":
    main()
