"""Pre-flight campaign planning: what *would* run, and what is already done.

:func:`plan_campaign` expands a spec's grid without executing anything and,
given a cache directory, splits the cells into *cached* (their content-hash
is already on disk) and *pending*.  Two consumers:

* ``python -m repro.campaign --dry-run`` prints the plan so a grid can be
  sanity-checked — axis values, cell count, how much a resumed run will
  actually recompute — before committing CPU-days to it;
* the fleet controller (:mod:`repro.fleet.controller`) uses the same plan as
  its initial queue report and seeds its row table with the cached rows, so
  cache hits never cross the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..exceptions import ParameterError
from .cache import ResultCache
from .spec import AXIS_NAMES, CampaignCell, CampaignSpec

__all__ = ["CampaignPlan", "plan_campaign"]


@dataclass
class CampaignPlan:
    """The expanded grid of one spec, split by cache state."""

    name: str
    #: every cell, in grid order
    cells: List[CampaignCell]
    #: axis name -> ordered distinct values across the grid
    axes: Mapping[str, Tuple[object, ...]]
    #: cell index -> cached row (only populated when a cache dir was given)
    cached_rows: Dict[int, Dict[str, object]]
    #: cells not served by the cache, in grid order
    pending: List[CampaignCell]
    cache_dir: Optional[str] = None

    @property
    def total(self) -> int:
        return len(self.cells)

    def describe(self) -> str:
        """The plan as human-readable text (what ``--dry-run`` prints)."""
        lines = [f"campaign : {self.name} — {self.total} cells"]
        for axis in AXIS_NAMES:
            values = self.axes.get(axis, ())
            if axis == "rep":
                rendered = str(len(values))
            else:
                rendered = ", ".join(str(v) for v in values)
            lines.append(f"  {axis:<10} ({len(values)}): {rendered}")
        if self.cache_dir is not None:
            lines.append(
                f"cache    : {len(self.cached_rows)} cached, "
                f"{len(self.pending)} pending ({self.cache_dir})"
            )
        else:
            lines.append(f"pending  : {len(self.pending)} (no cache dir)")
        return "\n".join(lines)


def plan_campaign(
    spec: CampaignSpec,
    *,
    cache_dir: Optional[str] = None,
    cells: Optional[List[CampaignCell]] = None,
    cache: Optional[ResultCache] = None,
) -> CampaignPlan:
    """Expand ``spec`` and consult the cache, without running any cell.

    Pass an already-open ``cache`` to share its hit/miss counters with the
    run that follows (both executors do); otherwise ``cache_dir`` opens one
    just for the plan.  An adjusted ``cells`` list must keep the indices
    ``0..len-1``, as rows are assembled by index, and one key per cell, as
    the spec's own grid does.
    """
    if cells is None:
        cells = spec.cells()
    elif [cell.index for cell in cells] != list(range(len(cells))):
        raise ParameterError("adjusted cell lists must keep contiguous indices")
    elif len({cell.key for cell in cells}) < len(cells):
        raise ParameterError("adjusted cell lists must not repeat a cell key")
    axes: Dict[str, List[object]] = {name: [] for name in AXIS_NAMES}
    for cell in cells:
        for name in AXIS_NAMES:
            value = cell.axes.get(name)
            if value not in axes[name]:
                axes[name].append(value)
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    cached_rows: Dict[int, Dict[str, object]] = {}
    pending: List[CampaignCell] = []
    if cache is not None:
        for cell in cells:
            row = cache.get(cell.payload)
            if row is not None:
                cached_rows[cell.index] = row
            else:
                pending.append(cell)
    else:
        pending = list(cells)
    return CampaignPlan(
        name=spec.name,
        cells=cells,
        axes={name: tuple(values) for name, values in axes.items()},
        cached_rows=cached_rows,
        pending=pending,
        cache_dir=cache.directory if cache is not None else None,
    )
