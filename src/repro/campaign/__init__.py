"""``repro.campaign`` — parameter-grid scenario sweeps.

The scenario engine (:mod:`repro.sim`) answers "what does protocol P do under
scenario S?"; this subsystem answers the production question "what does the
*whole grid* — protocol × group size × mobility × loss × engine × adversary —
do, as fast as the hardware allows?".  It is the layer the ROADMAP's
large-campaign claims (energy/latency/security trade-offs under churn) are
actually stress-tested through:

* :mod:`repro.campaign.spec` — :class:`CampaignSpec` declares the axes and
  expands them into independent cells, each with a stable key and a child
  seed derived from the master seed + cell key;
* :mod:`repro.campaign.plan` — :func:`plan_campaign` expands the grid and
  splits it into cached and pending cells without running anything;
* :mod:`repro.campaign.execute` — :func:`run_campaign` runs the pending
  cells with per-cell crash isolation, in process or (``workers=N``) on
  local fleet worker processes (:mod:`repro.fleet`); ``workers=N`` output
  is bit-identical to ``workers=1``;
* :mod:`repro.campaign.result` — :class:`CampaignResult` aggregates the flat
  rows (groupby, pivot, CSV/JSON export);
* :mod:`repro.campaign.cache` — :class:`ResultCache` content-hashes cell
  payloads so re-running an edited spec only recomputes changed cells.

The module is runnable: ``python -m repro.campaign spec.json --workers 4``.

Quickstart::

    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        name="loss-sweep",
        protocols=("proposed-gka", "bd-unauthenticated", "ssn"),
        group_sizes=(8, 12),
        losses=(0.0, 0.1, 0.2),
        schedule={"kind": "poisson", "length": 8},
        seed=7,
    )
    result = run_campaign(spec, workers=4)
    print(result.pivot_table("protocol", "loss", "energy_j"))
"""

from .cache import CACHE_VERSION, ResultCache, payload_hash
from .execute import execute_cell, run_campaign
from .plan import CampaignPlan, plan_campaign
from .result import NONDETERMINISTIC_FIELDS, CampaignResult, mean, total
from .spec import AXIS_NAMES, CampaignCell, CampaignSpec

__all__ = [
    "AXIS_NAMES",
    "CACHE_VERSION",
    "CampaignCell",
    "CampaignPlan",
    "CampaignResult",
    "CampaignSpec",
    "NONDETERMINISTIC_FIELDS",
    "ResultCache",
    "execute_cell",
    "mean",
    "payload_hash",
    "plan_campaign",
    "run_campaign",
    "total",
]
