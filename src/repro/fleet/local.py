"""Local fleets: the controller/worker architecture without a network.

:func:`run_fleet_campaign` binds the controller on an ephemeral loopback
port, forks ``workers`` local :class:`~repro.fleet.worker.FleetWorker`
processes at it, serves the campaign, and returns the same
:class:`~repro.campaign.result.CampaignResult` as ``run_campaign(workers=1)``
— bit-identical, because the assembly path *is* the distributed one.  It is
how ``run_campaign`` runs with ``workers > 1``: one machine's cores get the
full fault-tolerance machinery (heartbeats, requeues of a dead worker's
cell, streaming assembly, worker telemetry shipped home) with no real
network and no extra ceremony.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, List, Optional, Tuple

from ..campaign.result import CampaignResult
from ..campaign.spec import CampaignCell, CampaignSpec
from ..exceptions import ParameterError
from .controller import CampaignController
from .progress import FleetProgress
from .worker import FleetWorker

__all__ = ["run_fleet_campaign"]


def _local_worker_main(address: Tuple[str, int], name: str) -> None:
    """Entry point of one forked local worker (module-level for spawn)."""
    FleetWorker(address, name=name).run()


def _fork_context():
    """Prefer fork (cheap, inherits warm caches); fall back where unavailable."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_fleet_campaign(
    spec: CampaignSpec,
    *,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    cells: Optional[List[CampaignCell]] = None,
    heartbeat_s: float = 0.5,
    max_requeues: int = 2,
    idle_timeout_s: Optional[float] = 60.0,
    on_progress: Optional[Callable[[FleetProgress], None]] = None,
) -> CampaignResult:
    """Run ``spec`` on a controller plus ``workers`` forked local workers.

    Parameters mirror :func:`~repro.campaign.execute.run_campaign` where they
    overlap (``workers`` defaults to the CPU count here — a fleet of one is
    legal but pointless); ``heartbeat_s``/``max_requeues``/``idle_timeout_s``
    tune the controller's fault tolerance and ``on_progress`` receives live
    :class:`~repro.fleet.progress.FleetProgress` snapshots.

    Output is **bit-identical** to ``run_campaign(spec, workers=1)`` — the
    determinism pin the whole fleet layer is built around.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ParameterError("a fleet needs at least one worker")
    controller = CampaignController(
        spec,
        cells=cells,
        cache_dir=cache_dir,
        host="127.0.0.1",
        port=0,
        heartbeat_s=heartbeat_s,
        max_requeues=max_requeues,
        idle_timeout_s=idle_timeout_s,
        on_progress=on_progress,
    )
    address = controller.bind()
    processes: List[multiprocessing.Process] = []
    try:
        if controller.plan.pending:  # an all-cached campaign needs no fleet
            context = _fork_context()
            for index in range(min(workers, len(controller.plan.pending))):
                process = context.Process(
                    target=_local_worker_main,
                    args=(address, f"local-{index}"),
                    daemon=True,
                )
                process.start()
                processes.append(process)
        return controller.serve()
    finally:
        for process in processes:
            process.join(timeout=5.0)
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
