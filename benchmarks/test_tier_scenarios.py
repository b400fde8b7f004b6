"""Tier scenario benchmark: the cost of a satellite relay tier.

The multi-tier network layer puts one group member behind a GEO-class relay
(1 Mbps uplink / 10 Mbps downlink, 250 ms one-way propagation) bridged by the
controller as gateway, and compares three topologies under the same churn
workload: the flat 2 Mbps ground segment, the clean satellite relay, and a
satellite with Gilbert–Elliott fading (8% long-run loss in ~5-copy bursts).

The benchmark records the completion-latency and energy trajectory per
topology for the proposed protocol and the BD baseline, and asserts the
shape claims the tier model must satisfy:

* the satellite tier dominates completion latency (propagation per round,
  uplink serialization) — an order of magnitude over flat, not a rounding
  error;
* burst loss costs retransmission waves (timeouts / on-air bits) but never
  correctness — every topology agrees throughout;
* the whole grid is deterministic under the master seed.
"""

from __future__ import annotations

import time

import pytest

from repro.engine.executor import EngineConfig
from repro.network.tiers import TierConfig
from repro.sim import Scenario, ScenarioRunner
from repro.sim.scenarios import BurstPartitions
from repro.sim.specio import build

PROTOCOLS = ("proposed", "bd")
GROUP_SIZE = 12

TOPOLOGIES = {
    "flat": TierConfig(tiers=[("ground", "ground")]),
    "sat": TierConfig(
        tiers={"ground": "ground", "sat": "satellite"},
        members={"sat": 2},
        gateways={"ground:sat": 1},
    ),
    "sat-bursty": TierConfig(
        tiers={"ground": "ground", "sat": "satellite-bursty"},
        members={"sat": 2},
        gateways={"ground:sat": 1},
    ),
}


def _scenario(topology: str) -> Scenario:
    # One name for every topology: the scenario name labels its RNG streams,
    # so the burst victims, and hence the churn workload, stay the same.
    return Scenario(
        name="tier-bench",
        initial_size=GROUP_SIZE,
        schedule=BurstPartitions(bursts=2, burst_size=2, period=20.0),
        seed="tier-bench",
        tiers=TOPOLOGIES[topology],
    )


@pytest.fixture(scope="module")
def tier_reports(small_setup):
    runner = ScenarioRunner(small_setup, engine=build(EngineConfig, "tiered"))
    reports = {}
    walls = {}
    for topology in TOPOLOGIES:
        for protocol in PROTOCOLS:
            started = time.perf_counter()
            reports[(topology, protocol)] = runner.run(protocol, _scenario(topology))
            walls[(topology, protocol)] = time.perf_counter() - started
    return reports, walls


class TestTierScenarioBenchmark:
    def test_topology_grid_latency_and_energy(self, tier_reports, bench_artifact):
        reports, walls = tier_reports
        print(f"\n=== n={GROUP_SIZE} churn workload across tier topologies ===")
        print(
            f"{'topology':<12} {'protocol':<10} {'sim s':>9} {'timeouts':>9} "
            f"{'energy J':>10} {'bits+retry':>12} {'host s':>7}"
        )
        for (topology, protocol), report in reports.items():
            print(
                f"{topology:<12} {protocol:<10} {report.total_sim_latency_s:>9.4f} "
                f"{report.total_timeouts:>9} {report.total_energy_j:>10.4f} "
                f"{report.total_bits(include_retries=True):>12} "
                f"{walls[(topology, protocol)]:>7.2f}"
            )
            bench_artifact.record(
                f"{topology}_{protocol}",
                {
                    "sim_latency_s": round(report.total_sim_latency_s, 6),
                    "timeouts": report.total_timeouts,
                    "energy_j": round(report.total_energy_j, 6),
                    "bits_with_retries": report.total_bits(include_retries=True),
                },
            )
        for report in reports.values():
            assert report.agreed_throughout
            assert report.final_size >= 3

    def test_satellite_tier_dominates_latency(self, tier_reports, bench_artifact):
        reports, _ = tier_reports
        for protocol in PROTOCOLS:
            flat = reports[("flat", protocol)].total_sim_latency_s
            sat = reports[("sat", protocol)].total_sim_latency_s
            assert flat > 0.0
            tax = sat / flat
            # 250 ms propagation per cross-tier delivery vs a flat LAN round
            # measured in milliseconds: the relay must cost at least 10x.
            assert tax > 10.0
            bench_artifact.record(f"satellite_tax_{protocol}", round(tax, 2))

    def test_burst_loss_perturbs_delivery_not_correctness(self, tier_reports, bench_artifact):
        reports, _ = tier_reports
        delta_bits = 0
        for protocol in PROTOCOLS:
            clean = reports[("sat", protocol)]
            bursty = reports[("sat-bursty", protocol)]
            assert bursty.agreed_throughout
            delta_bits += abs(
                bursty.total_bits(include_retries=True)
                - clean.total_bits(include_retries=True)
            )
        total_timeouts = sum(
            reports[("sat-bursty", p)].total_timeouts for p in PROTOCOLS
        )
        # The fading channel must demonstrably engage: dropped copies reshape
        # the flood (different on-air bits — a lost copy can even *shrink* a
        # wave, since an uncovered node never relays) or cost timeout waves.
        # A chain that never fired would leave both runs identical.
        assert delta_bits > 0 or total_timeouts > 0
        bench_artifact.record("bursty_delta_bits", int(delta_bits))
        bench_artifact.record("bursty_timeouts", int(total_timeouts))

    def test_grid_is_deterministic(self, tier_reports, small_setup):
        reports, _ = tier_reports
        runner = ScenarioRunner(small_setup, engine=build(EngineConfig, "tiered"))
        replay = runner.run("proposed", _scenario("sat-bursty"))
        original = reports[("sat-bursty", "proposed")]
        assert replay.key_fingerprint == original.key_fingerprint
        assert replay.total_sim_latency_s == original.total_sim_latency_s
        assert replay.total_bits(include_retries=True) == original.total_bits(
            include_retries=True
        )
