"""Campaign execution: crash-isolated cells, in process or on the local fleet.

:func:`execute_cell` is the whole worker contract — a **pure function from a
JSON payload to a JSON row**.  It builds the cell's
:class:`~repro.core.base.SystemSetup`, scenario and engine inside the worker
process (nothing live is ever pickled across the boundary), runs the
:class:`~repro.sim.runner.ScenarioRunner`, and flattens the report into a
flat row of axis values and metrics.  Any exception, a malformed payload's
included, becomes an ``error`` row instead of propagating, so one
pathological cell cannot take down a thousand good ones.  Every row starts
with :func:`cell_row`, the fleet's written-off rows too.

:func:`run_campaign` plans the grid (:func:`~repro.campaign.plan.plan_campaign`:
cache hits are served from disk) and runs the pending cells in this process,
or with ``workers > 1`` hands the campaign to
:func:`~repro.fleet.local.run_fleet_campaign`, whose local fleet workers
requeue a dead worker's cell and ship their telemetry home.  Every grid
point is one cell with its own key, so both executors compute each cell
exactly once.  Results are assembled **by cell index, never by completion
order**, and every stochastic input lives in the cell's own derived seed —
which is why ``workers=N`` output is bit-identical to ``workers=1`` (the
property ``tests/test_campaign.py`` pins for every registry protocol).
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, List, Mapping, Optional

from .. import telemetry
from ..exceptions import ParameterError
from ..fields import to_spec
from .cache import ResultCache
from .plan import plan_campaign
from .result import CampaignResult
from .spec import PARAM_SETS, CampaignCell, CampaignSpec

__all__ = ["cell_row", "execute_cell", "params_for", "run_campaign"]

#: Per-process SystemSetup cache: building the 256/1024-bit parameter sets is
#: pure and deterministic, so sharing one instance across a worker's cells
#: changes nothing but the wall time.
_SETUPS: Dict[str, object] = {}


def _setup_for(params: str):
    from ..core.base import SystemSetup

    setup = _SETUPS.get(params)
    if setup is None:
        setup = _SETUPS[params] = SystemSetup.from_param_sets(*PARAM_SETS[params])
    return setup


def params_for(setup) -> str:
    """The :data:`~repro.campaign.spec.PARAM_SETS` name that rebuilds ``setup``.

    Workers rebuild a cell's setup from this name, so a setup outside the
    named sets (custom groups, generated parameters, another hash size)
    raises :class:`~repro.exceptions.ParameterError` rather than being
    swapped for a different cryptosystem.
    """
    for params in PARAM_SETS:
        named = _setup_for(params)
        if (
            setup.group.p == named.group.p
            and setup.group.q == named.group.q
            and setup.group.g == named.group.g
            and setup.pkg.params.n == named.pkg.params.n
            and setup.hash_function.output_bits == named.hash_function.output_bits
        ):
            return params
    raise ParameterError(f"setup is not one of the named parameter sets {list(PARAM_SETS)}")


def cell_row(payload: Mapping[str, object], error: str = "") -> Dict[str, object]:
    """The head every row of ``payload``'s cell starts with.

    ``campaign``, ``cell``, the axes, ``seed``, ``cached`` and ``error``, in
    that order (the CSV columns follow it); a computed row appends the
    metrics and ``wall_seconds``.  Parts of a malformed payload are skipped,
    so even that cell gets its error row.
    """
    row: Dict[str, object] = {
        "campaign": payload.get("campaign", ""),
        "cell": payload.get("cell", ""),
    }
    axes = payload.get("axes", {})
    if isinstance(axes, Mapping):
        row.update(axes)
    scenario = payload.get("scenario", {})
    row.update(
        seed=scenario.get("seed", "") if isinstance(scenario, Mapping) else "",
        cached=False,
        error=error,
    )
    return row


def execute_cell(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one campaign cell and return its flat result row.

    Never raises: failures, a malformed payload's included, are captured
    into the row's ``error`` field with the exception's traceback tail,
    keeping sibling cells unaffected.
    """
    started = time.perf_counter()
    row = cell_row(payload)
    try:
        row.update(_run_cell(payload))
    except Exception as exc:  # crash isolation: the row *is* the error report
        tail = traceback.format_exc().strip().splitlines()[-1]
        row["error"] = f"{type(exc).__name__}: {exc}" if str(exc) else tail
    wall = time.perf_counter() - started
    row["wall_seconds"] = wall
    # Telemetry is observation-only: the row never carries spans or metrics
    # (it must stay bit-identical across workers=1/N), they only describe it.
    tracer = telemetry.active_tracer()
    if tracer is not None:
        tracer.complete(
            f"cell:{row['cell']}",
            category="cell",
            track="cells",
            wall_start=tracer.now() - wall,
            wall_dur=wall,
            args={"error": row["error"]} if row["error"] else None,
        )
    telemetry.count("campaign.cells")
    telemetry.observe("campaign.cell_wall_s", wall)
    if row["error"]:
        telemetry.count("campaign.cell_errors")
    return row


def _run_cell(payload: Dict[str, object]) -> Dict[str, object]:
    """The fallible core of :func:`execute_cell` (imports stay in-worker)."""
    from ..adversary.matrix import classify_report
    from ..sim.runner import ScenarioRunner
    from ..engine.executor import EngineConfig
    from ..sim.specio import build, build_scenario

    setup = _setup_for(str(payload.get("params", "test")))
    scenario = build_scenario(dict(payload["scenario"]))
    engine = build(EngineConfig, payload.get("engine"))
    runner = ScenarioRunner(setup, engine=engine, check_agreement=False)
    report = runner.run(str(payload["protocol"]), scenario)
    verdict, detail = classify_report(report)

    metrics: Dict[str, object] = {
        "steps": len(report.records),
        "events": len(report.events),
        "final_size": report.final_size,
        "agreed": report.agreed_throughout,
        "aborted": report.aborted,
        "energy_j": report.total_energy_j,
        "messages": report.total_messages,
        "bits": report.total_bits(),
        "bits_with_retries": report.total_bits(include_retries=True),
        "transmissions": report.total_transmissions,
        "relay_bits": report.total_relay_bits,
        "relay_energy_j": report.total_relay_energy_j,
        "mean_hops": report.mean_hops,
        "sim_latency_s": report.total_sim_latency_s,
        "timeouts": report.total_timeouts,
        "attacks": report.total_attacks,
        "detected": report.attacks_detected,
        "security_verdict": verdict,
        "security_detail": detail,
        "key_fingerprint": report.key_fingerprint,
    }
    for name, outcome in report.oracle_outcomes().items():
        metrics["oracle_" + name.replace("-", "_")] = outcome
    return metrics


def run_campaign(
    spec: CampaignSpec,
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    cells: Optional[List[CampaignCell]] = None,
) -> CampaignResult:
    """Execute every cell of ``spec`` and aggregate the rows.

    Parameters
    ----------
    workers:
        ``1`` (the default) runs every cell in this process; more runs them
        on that many local fleet worker processes.  Output is bit-identical
        either way.
    cache_dir:
        Enable the content-hash result cache in this directory: cells whose
        payloads are unchanged replay from disk, everything else recomputes
        and is stored back.
    cells:
        Pre-expanded (possibly adjusted) cell list to run instead of
        ``spec.cells()`` — how the attack matrix pins every cell to its
        scenario's verbatim seed.  Cell indices must be ``0..len-1``.
    """
    if workers < 1:
        raise ParameterError("workers must be at least 1")
    if workers > 1:
        # Imported here: the fleet builds on this module.
        from ..fleet.local import run_fleet_campaign

        return run_fleet_campaign(spec, workers=workers, cache_dir=cache_dir, cells=cells)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    plan = plan_campaign(spec, cells=cells, cache=cache)
    started = time.perf_counter()
    rows = dict(plan.cached_rows)
    for cell in plan.pending:
        row = execute_cell(dict(cell.payload))
        if cache is not None and not row.get("error"):
            cache.put(cell.payload, row)
        rows[cell.index] = row
    if cache is not None:
        cache.log_summary()
    return CampaignResult(
        name=spec.name,
        spec=to_spec(spec),
        rows=[rows[index] for index in range(plan.total)],
        workers=1,
        wall_seconds=time.perf_counter() - started,
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
    )
