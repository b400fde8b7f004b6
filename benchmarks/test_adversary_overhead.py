"""Adversary-instrumentation overhead on the no-attack path (n=50 mobility).

The adversary subsystem adds a tap consultation to every physical send and
an interception/injection check to every kernel transmission.  This
benchmark pins two claims on the acceptance-sized workload (50 random
waypoint nodes, emergent churn, multi-hop relaying):

* attaching a *passive* adversary changes nothing measurable: per-member
  energy ledgers, traffic counters and keys are bit-identical to the honest
  run;
* the instrumentation's wall-time overhead on the honest path stays within
  noise (the run is dominated by modular arithmetic, not by the taps).

Printed alongside: the attacked variant of the same workload, so the cost of
an *active* adversary is visible next to the passive bound.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.adversary import AdversaryConfig
from repro.mobility import Area, MobilityConfig, RandomWaypoint
from repro.sim import Scenario, ScenarioRunner

GROUP_SIZE = 50
PROTOCOL = "proposed"

#: Generous wall-time ratio bound: shared-CI boxes jitter, and a false red
#: here would be pure noise.  The real regression guard is the bit-identical
#: assertion — any adversary-path work leaking into honest runs shows up
#: there first.
MAX_OVERHEAD_RATIO = 1.5
#: Timed runs per side after the warm-up; the ratio compares each side's best.
REPEATS = 3


@pytest.fixture(scope="module")
def mobility_scenario():
    return Scenario(
        name="adversary-overhead",
        initial_size=GROUP_SIZE,
        mobility=MobilityConfig(
            model=RandomWaypoint(min_speed=3.0, max_speed=12.0),
            area=Area(900.0, 900.0),
            tx_range=220.0,
            duration=120.0,
            tick=2.0,
            edge_loss=0.15,
            settle_ticks=2,
        ),
        seed="b18",
    )


@pytest.fixture(scope="module")
def overhead_runs(small_setup, mobility_scenario, wlan_profile):
    runner = ScenarioRunner(small_setup, device=wlan_profile)
    tapped = mobility_scenario.with_adversary(AdversaryConfig())
    results = {}
    # Honest first, then tapped and honest in turn: each side keeps its best
    # wall time, which debiases warm-up effects (the tapped copy's first run
    # also expands its own mobility trace) in the ratio.  Each run starts
    # from a collected heap, so the garbage earlier tests left is never
    # collected, and charged, inside one of them.
    schedule = [("honest-warmup", mobility_scenario)]
    schedule += [("tapped", tapped), ("honest", mobility_scenario)] * REPEATS
    for label, scenario in schedule:
        gc.collect()
        started = time.perf_counter()
        report = runner.run(PROTOCOL, scenario)
        wall = time.perf_counter() - started
        results[label] = (report, min(wall, results.get(label, (None, wall))[1]))
    return results


def test_print_overhead(overhead_runs):
    print()
    for label, (report, wall) in overhead_runs.items():
        print(
            f"{label:<14} wall={wall:6.2f}s energy={report.total_energy_j:.6f} J "
            f"messages={report.total_messages} attacks={report.total_attacks}"
        )
    honest_wall = min(overhead_runs["honest"][1], overhead_runs["honest-warmup"][1])
    tapped_wall = overhead_runs["tapped"][1]
    print(f"passive-tap overhead ratio: {tapped_wall / honest_wall:.3f}x")


def test_passive_adversary_is_bit_identical(overhead_runs):
    honest, _ = overhead_runs["honest"]
    tapped, _ = overhead_runs["tapped"]
    assert honest.per_member_energy_j() == tapped.per_member_energy_j()
    assert honest.total_messages == tapped.total_messages
    assert honest.total_bits(include_retries=True) == tapped.total_bits(include_retries=True)
    assert honest.total_transmissions == tapped.total_transmissions
    assert [r.kind for r in honest.records] == [r.kind for r in tapped.records]
    assert tapped.total_attacks == 0
    assert tapped.agreed_throughout and honest.agreed_throughout


def test_instrumentation_overhead_within_noise(overhead_runs):
    honest_wall = min(overhead_runs["honest"][1], overhead_runs["honest-warmup"][1])
    tapped_wall = overhead_runs["tapped"][1]
    assert tapped_wall <= honest_wall * MAX_OVERHEAD_RATIO, (
        f"passive adversary instrumentation cost {tapped_wall / honest_wall:.2f}x "
        f"on the no-attack path (budget {MAX_OVERHEAD_RATIO}x)"
    )


def test_active_attack_on_the_same_workload_is_classified(
    small_setup, mobility_scenario, wlan_profile
):
    # The same n=50 emergent-churn workload under injection: the proposed
    # protocol must detect (abort) or resist (recover) — never fall silently.
    runner = ScenarioRunner(small_setup, device=wlan_profile, check_agreement=False)
    report = runner.run(
        PROTOCOL, mobility_scenario.with_adversary(AdversaryConfig.preset("inject"))
    )
    assert report.total_attacks > 0
    assert report.security_verdict in ("detected", "resisted")
