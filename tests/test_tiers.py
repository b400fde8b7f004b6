"""Multi-tier link classes and Gilbert–Elliott burst loss.

Covers the burst-loss chain mathematics and determinism (the chains a
:class:`TieredLink` keeps per directed link), link-class / tier-map
resolution, gateway-mediated cross-tier flooding, the tiered latency model,
spec round-trips, the campaign ``tiers`` axis — and the acceptance bar that
every degenerate configuration stays bit-identical to the flat single-hop
medium and its one loss knob.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.exceptions import NetworkError, ParameterError
from repro.mathutils.rand import DeterministicRNG
from repro.network.message import Message, MessagePart
from repro.network.node import Node
from repro.network.tiers import (
    LINK_CLASSES,
    GilbertElliott,
    LinkClass,
    TierConfig,
    TieredLink,
    TierMap,
)
from repro.sim.specio import build, to_spec
from repro.mobility.tiered import TieredMedium
from repro.pki import Identity


def _names(count: int):
    return [f"member-{i:03d}" for i in range(count)]


def _record_dicts(report):
    """Per-event record dicts minus ``wall_seconds`` (real host time)."""
    rows = [dataclasses.asdict(r) for r in report.records]
    for row in rows:
        row.pop("wall_seconds")
    return rows


def _message(sender: Identity, label: str = "r1", bits: int = 800) -> Message:
    return Message.broadcast(sender, label, [MessagePart("payload", b"x", bits)])


# --------------------------------------------------------------- GE parameters
class TestGilbertElliottParameters:
    def test_validation(self):
        with pytest.raises(ParameterError):
            GilbertElliott(loss_good=1.0)
        with pytest.raises(ParameterError):
            GilbertElliott(loss_bad=1.5)
        with pytest.raises(ParameterError):
            GilbertElliott(p_enter_bad=1.0)
        with pytest.raises(ParameterError):
            GilbertElliott(burst_length=0.5)

    def test_from_loss_rate_hits_the_stationary_target(self):
        params = GilbertElliott.from_loss_rate(0.08, 5.0)
        assert params.iid_loss == pytest.approx(0.08)
        assert params.p_exit_bad == pytest.approx(0.2)
        assert not params.is_iid
        # Mean bad-spell length is the configured burst length.
        assert 1.0 / params.p_exit_bad == pytest.approx(5.0)

    def test_from_loss_rate_rejects_impossible_targets(self):
        with pytest.raises(ParameterError):
            GilbertElliott.from_loss_rate(0.5, 5.0, loss_good=0.6, loss_bad=0.9)
        with pytest.raises(ParameterError):
            GilbertElliott.from_loss_rate(0.2, 5.0, loss_good=0.3, loss_bad=0.2)

    @pytest.mark.parametrize(
        "params",
        [
            GilbertElliott.iid(0.3),
            GilbertElliott(p_enter_bad=0.0),  # never leaves good
            GilbertElliott(loss_good=0.2, loss_bad=0.2, p_enter_bad=0.1),
            GilbertElliott.from_loss_rate(0.1, 1.0),  # memoryless boundary
        ],
    )
    def test_degenerate_parameter_sets_are_iid(self, params):
        assert params.is_iid

    def test_iid_equivalent_rate(self):
        assert GilbertElliott.iid(0.3).iid_loss == pytest.approx(0.3)
        assert GilbertElliott(p_enter_bad=0.0).iid_loss == 0.0

    def test_spec_round_trip(self):
        params = GilbertElliott.from_loss_rate(0.08, 5.0)
        assert build(GilbertElliott, to_spec(params)) == params

    def test_spec_shorthand(self):
        params = build(GilbertElliott, {"loss": 0.08, "burst_length": 5.0})
        assert params == GilbertElliott.from_loss_rate(0.08, 5.0)
        with pytest.raises(ParameterError):
            build(GilbertElliott, {"loss": 0.08, "bogus": 1})
        with pytest.raises(ParameterError):
            build(GilbertElliott, {"loss_goood": 0.1})


# ------------------------------------------------------------------ GE chains
class TestGilbertElliottChains:
    @staticmethod
    def _link(params: GilbertElliott, seed=None) -> TieredLink:
        """A one-tier link whose every pair carries ``params``, bound to ``seed``."""
        link = TieredLink(TierMap({"t": LinkClass("t", bitrate_bps=1e6, loss=params)}, {}))
        if seed is not None:
            link.bind(DeterministicRNG(seed, label="links"))
        return link

    def _sequence(self, seed, copies: int = 400):
        link = self._link(GilbertElliott.from_loss_rate(0.2, 8.0), seed)
        return [link.loss_probability("a", "b") for _ in range(copies)]

    def test_same_seed_same_chain(self):
        assert self._sequence("chain") == self._sequence("chain")
        assert self._sequence("chain") != self._sequence("other")

    def test_losses_come_in_bursts(self):
        seq = self._sequence("bursty", copies=2000)
        bad = [loss == 1.0 for loss in seq]
        assert any(bad) and not all(bad)
        # Mean loss near the stationary target...
        assert sum(bad) / len(bad) == pytest.approx(0.2, abs=0.05)
        # ...and clustered: consecutive bad copies far outnumber what an
        # i.i.d. process at the same rate would produce (0.2^2 = 4%).
        pairs = sum(1 for i in range(len(bad) - 1) if bad[i] and bad[i + 1])
        assert pairs / (len(bad) - 1) > 0.10

    def test_chains_are_per_directed_link(self):
        link = self._link(GilbertElliott.from_loss_rate(0.3, 4.0), "directed")
        for _ in range(50):
            link.loss_probability("a", "b")
            link.loss_probability("b", "a")
        assert set(link.chain_states()) == {("a", "b"), ("b", "a")}

    def test_degenerate_parameters_never_draw(self):
        # Never bound: a chain step would raise, the i.i.d. fast path never
        # needs randomness.
        link = self._link(GilbertElliott.iid(0.3))
        assert link.loss_probability("a", "b") == pytest.approx(0.3)
        assert link.chain_states() == {}

    def test_unbound_bursty_link_raises(self):
        link = self._link(GilbertElliott.from_loss_rate(0.2, 5.0))
        with pytest.raises(NetworkError, match="burst-loss chains need randomness"):
            link.loss_probability("a", "b")


# ------------------------------------------------------------------ link class
class TestLinkClass:
    def test_validation(self):
        with pytest.raises(ParameterError):
            LinkClass("x", bitrate_bps=0.0)
        with pytest.raises(ParameterError):
            LinkClass("x", bitrate_bps=1e6, reverse_bps=-1.0)
        with pytest.raises(ParameterError):
            LinkClass("x", bitrate_bps=1e6, propagation_delay_s=-0.1)
        with pytest.raises(ParameterError):
            LinkClass("x", bitrate_bps=1e6, loss=1.0)
        with pytest.raises(ParameterError):
            LinkClass("x", bitrate_bps=1e6, loss="lossy")

    def test_asymmetric_rates(self):
        sat = LINK_CLASSES["satellite"]
        assert sat.rate_bps() == pytest.approx(1_000_000.0)
        assert sat.rate_bps(descending=True) == pytest.approx(10_000_000.0)
        ground = LINK_CLASSES["ground"]
        assert ground.rate_bps(descending=True) == ground.rate_bps()

    def test_iid_loss_none_when_genuinely_bursty(self):
        assert LINK_CLASSES["satellite-bursty"].iid_loss is None
        assert LINK_CLASSES["ground"].iid_loss == 0.0
        iid = LinkClass("x", bitrate_bps=1e6, loss=GilbertElliott.iid(0.2))
        assert iid.iid_loss == pytest.approx(0.2)

    def test_resolve_preset_dict_instance(self):
        assert build(LinkClass, "ground") is LINK_CLASSES["ground"]
        built = build(
            LinkClass,
            {"name": "lan", "bitrate_bps": 1e8, "loss": {"loss": 0.1, "burst_length": 3.0}}
        )
        assert isinstance(built.loss, GilbertElliott)
        assert built.loss.iid_loss == pytest.approx(0.1)
        assert build(LinkClass, built) is built
        with pytest.raises(ParameterError):
            build(LinkClass, "fibre-to-the-moon")
        with pytest.raises(ParameterError):
            build(LinkClass, {"name": "x", "bitrate_bps": 1e6, "colour": "red"})

    def test_spec_round_trip_collapses_presets(self):
        for name, cls in LINK_CLASSES.items():
            assert to_spec(cls) == name
            assert build(LinkClass, to_spec(cls)) == cls
        custom = LinkClass("lan", bitrate_bps=1e8, propagation_delay_s=0.002, loss=0.05)
        assert build(LinkClass, to_spec(custom)) == custom


# -------------------------------------------------------------------- tier map
def _two_tier_map(size: int = 6, sat_members: int = 1, gateway_count: int = 1):
    return TierConfig(
        tiers={"ground": "ground", "sat": "satellite"},
        members={"sat": sat_members},
        gateways={"ground:sat": gateway_count},
    ).build_map(_names(size))


class TestTierMap:
    def test_assignment_fills_non_default_tiers_from_the_end(self):
        tm = _two_tier_map(size=6, sat_members=2)
        assert tm.home_tier("member-000") == "ground"
        assert tm.home_tier("member-004") == "sat"
        assert tm.home_tier("member-005") == "sat"

    def test_gateways_are_the_first_nodes_of_the_home_tier(self):
        # The controller, whom schedule churn never removes, anchors the
        # bridge — random partitions cannot strand the upper tier.
        tm = _two_tier_map()
        assert tm.gateways() == ["member-000"]
        assert tm.tiers_of("member-000") == ("ground", "sat")
        assert tm.is_gateway("member-000")
        assert not tm.is_gateway("member-001")

    def test_churn_arrivals_land_in_the_default_tier(self):
        tm = _two_tier_map()
        assert tm.home_tier("member-999") == "ground"
        assert tm.tiers_of("member-999") == ("ground",)

    def test_link_class_resolution(self):
        tm = _two_tier_map()
        assert tm.link_class("member-001", "member-002").name == "ground"
        # Gateway–satellite pairs share the sat tier.
        assert tm.link_class("member-000", "member-005").name == "satellite"
        # Plain ground members have no direct link to the satellite node.
        assert tm.link_class("member-001", "member-005") is None

    def test_overrides_win(self):
        cfg = TierConfig(
            tiers={"ground": "ground", "sat": "satellite"},
            members={"sat": 1},
            overrides={"member-001|member-005": "aerial"},
        )
        tm = cfg.build_map(_names(6))
        assert tm.link_class("member-001", "member-005").name == "aerial"
        assert tm.link_class("member-005", "member-001").name == "aerial"

    def test_latency_terms(self):
        tm = _two_tier_map()
        # Ground to ground: the shared ground class, same tier.
        rate, prop, cross = tm.latency_terms("member-001", "member-002")
        assert (rate, prop, cross) == (2_000_000.0, 0.001, False)
        # Gateway up to the satellite: uplink rate, 250 ms, cross-tier.
        rate, prop, cross = tm.latency_terms("member-000", "member-005")
        assert (rate, prop, cross) == (1_000_000.0, 0.25, True)
        # Satellite down to the gateway: the fast downlink.
        rate, prop, cross = tm.latency_terms("member-005", "member-000")
        assert (rate, prop, cross) == (10_000_000.0, 0.25, True)
        # Disjoint pair: slower home class, both propagation delays.
        rate, prop, cross = tm.latency_terms("member-001", "member-005")
        assert (rate, prop, cross) == (1_000_000.0, 0.251, True)

    def test_unknown_tier_references_rejected(self):
        with pytest.raises(ParameterError):
            TierMap({"ground": LINK_CLASSES["ground"]}, {"a": "sky"})
        with pytest.raises(ParameterError):
            TierMap({"ground": LINK_CLASSES["ground"]}, {}, extra={"a": ("sky",)})


# ----------------------------------------------------------------- tier config
class TestTierConfig:
    def test_default_tier_cannot_be_sized(self):
        with pytest.raises(ParameterError, match="default tier"):
            TierConfig(tiers={"ground": "ground", "sat": "satellite"}, members={"ground": 3})

    def test_non_default_tier_cannot_absorb_everyone(self):
        cfg = TierConfig(tiers={"ground": "ground", "sat": "satellite"}, members={"sat": 6})
        with pytest.raises(ParameterError, match="default tier cannot be empty"):
            cfg.build_map(_names(6))

    def test_gateway_key_and_count_validation(self):
        with pytest.raises(ParameterError, match="tierA:tierB"):
            TierConfig(tiers={"g": "ground"}, gateways={"g": 1})
        with pytest.raises(ParameterError, match="distinct"):
            TierConfig(tiers={"g": "ground"}, gateways={"g:g": 1})
        with pytest.raises(ParameterError, match="unknown tier"):
            TierConfig(tiers={"g": "ground"}, gateways={"g:sky": 1})

    def test_degenerate_loss(self):
        flat = TierConfig(tiers=[("lan", {"name": "lan", "bitrate_bps": 1e6, "loss": 0.25})])
        assert flat.degenerate_loss == pytest.approx(0.25)
        multi = TierConfig(tiers={"ground": "ground", "sat": "satellite"})
        assert multi.degenerate_loss is None
        bursty = TierConfig(tiers={"sat": "satellite-bursty"})
        assert bursty.degenerate_loss is None

    def test_loss_floor_spares_bursty_classes(self):
        cfg = TierConfig(
            tiers={"ground": "ground", "sat": "satellite-bursty"},
            loss_floor=0.1,
        )
        by_name = dict(cfg.tiers)
        assert by_name["ground"].loss == pytest.approx(0.1)
        # The GE class already models loss; the floor leaves it alone.
        assert isinstance(by_name["sat"].loss, GilbertElliott)
        assert by_name["sat"].loss == LINK_CLASSES["satellite-bursty"].loss

    def test_spec_round_trip(self):
        cfg = TierConfig(
            tiers={"ground": "ground", "sat": "satellite-bursty"},
            members={"sat": 2},
            gateways={"ground:sat": 1},
            overrides={"member-001|member-004": "aerial"},
            max_hops=3,
            loss_floor=0.05,
        )
        assert build(TierConfig, to_spec(cfg)) == cfg
        assert to_spec(None) is None
        assert build(TierConfig, None) is None


# --------------------------------------------------------------- tiered medium
def _tiered_medium(cfg: TierConfig, size: int, seed="tiered"):
    tier_map = cfg.build_map(_names(size))
    medium = TieredMedium(
        tier_map,
        max_hops=cfg.max_hops,
        rng=DeterministicRNG(seed, label="medium"),
    )
    identities = [Identity(name) for name in _names(size)]
    for identity in identities:
        medium.attach(Node(identity))
    return medium, identities


class TestTieredMedium:
    CFG = TierConfig(
        tiers={"ground": "ground", "sat": "satellite"},
        members={"sat": 1},
        gateways={"ground:sat": 1},
    )

    def test_cross_tier_flood_goes_through_the_gateway(self):
        medium, identities = _tiered_medium(self.CFG, 4)
        receipt = medium.send(_message(identities[1]))
        names = {identity.name for identity in receipt.delivered_to}
        assert "member-003" in names  # the satellite node, two hops away
        assert receipt.hops == 2

    def test_no_gateway_means_no_cross_tier_path(self):
        cfg = TierConfig(tiers={"ground": "ground", "sat": "satellite"}, members={"sat": 1})
        medium, identities = _tiered_medium(cfg, 4)
        with pytest.raises(NetworkError, match="no relay path"):
            medium.send(_message(identities[1]))
        # The engine's single-attempt primitive does not raise: the stranded
        # node simply stays undelivered (timeout waves are the recovery).
        receipt = medium.transmit(_message(identities[2], label="r2"))
        assert "member-003" not in {i.name for i in receipt.delivered_to}

    def test_chain_state_survives_churn(self):
        cfg = TierConfig(
            tiers=[("sat", "satellite-bursty")],
            max_hops=1,
        )
        # Single bursty tier: run traffic, detach/re-attach a member, run
        # more; a paired run without churn must see the same chain states.
        def run(churn: bool):
            medium, identities = _tiered_medium(cfg, 3, seed="churn")
            for index in range(40):
                medium.transmit(_message(identities[0], label=f"a{index}"))
            if churn:
                medium.detach(identities[2])
                medium.attach(Node(identities[2]))
            for index in range(40):
                medium.transmit(_message(identities[0], label=f"b{index}"))
            return medium.link_model.chain_states()

        states = run(churn=False)
        assert states == run(churn=True)
        assert set(states) == {("member-000", "member-001"), ("member-000", "member-002")}

    def test_ge_iid_class_bit_identical_to_constant_loss_class(self):
        # The acceptance bar: a burst-length-1 (i.i.d.) Gilbert–Elliott class
        # must replay the exact receipts of a plain constant-loss class —
        # same seed, same draws, no chain randomness consumed.
        def run(loss):
            cfg = TierConfig(
                tiers=[("lan", {"name": "lan", "bitrate_bps": 1e6, "loss": loss})],
                max_hops=1,
            )
            medium, identities = _tiered_medium(cfg, 4, seed="iid-vs-const")
            receipts = [
                medium.transmit(_message(identities[0], label=f"m{index}"))
                for index in range(60)
            ]
            return [
                (sorted(i.name for i in r.delivered_to), r.transmissions) for r in receipts
            ]

        constant = run(0.3)
        ge_iid = run({"loss_good": 0.3, "loss_bad": 0.3, "p_enter_bad": 0.1})
        burst_one = run(
            {"loss_good": 0.0, "loss_bad": 1.0, "p_enter_bad": 0.3, "burst_length": 1.0}
        )
        assert constant == ge_iid
        # burst_length == 1 collapses to i.i.d. at the stationary rate: with
        # p_exit = 1 the stationary loss is p_enter/(p_enter+1)... so compare
        # against its own equivalent constant instead of 0.3.
        params = GilbertElliott(
            loss_good=0.0, loss_bad=1.0, p_enter_bad=0.3, burst_length=1.0
        )
        assert burst_one == run(params.iid_loss)


# ---------------------------------------------------------------- tiered latency
class TestTieredLatency:
    def test_binds_tier_map_from_medium(self):
        from repro.engine.latency import TieredLatency

        cfg = TestTieredMedium.CFG
        medium, _ = _tiered_medium(cfg, 4)
        latency = TieredLatency()
        latency.bind(medium)
        assert latency.tier_map is medium.tier_map

    def test_delays_reflect_link_classes(self):
        from repro.engine.latency import TieredLatency

        latency = TieredLatency()
        latency.bind(TieredMedium(_two_tier_map(size=6)))
        bits = 1_000_000
        # The satellite node serializes its uplink at 1 Mbps — a full second;
        # ground members (the gateway included: tx happens on its *home*
        # class) ride the 2 Mbps ground channel.
        assert latency.tx_time(bits, "member-005") == pytest.approx(1.0)
        assert latency.tx_time(bits, "member-000") == pytest.approx(0.5)
        assert latency.tx_time(bits, "member-001") == pytest.approx(0.5)
        # Same-tier single hop: propagation only (tx time is charged apart).
        assert latency.delivery_delay(bits, 1, 0.0, "member-001", "member-002") == (
            pytest.approx(0.001)
        )
        # Cross-tier: one gateway re-serialization at the pair rate, with its
        # 1 ms relay overhead, plus the summed propagation of both home
        # classes.
        delay = latency.delivery_delay(bits, 1, 0.0, "member-001", "member-005")
        assert delay == pytest.approx(1.0 + 0.001 + 0.251)
        # Descending deliveries ride the 10 Mbps downlink.
        delay_down = latency.delivery_delay(bits, 1, 0.0, "member-005", "member-000")
        assert delay_down == pytest.approx(0.1 + 0.001 + 0.25)

    def test_unbound_fallback_uses_ground_class(self):
        from repro.engine.latency import TieredLatency

        latency = TieredLatency()
        assert latency.tx_time(2_000_000, "anyone") == pytest.approx(1.0)
        assert latency.delivery_delay(2_000_000, 1, 0.0, "a", "b") == pytest.approx(0.001)


# -------------------------------------------------------------- scenario layer
class TestTieredScenarios:
    def test_tiers_exclude_mobility_and_flat_loss(self):
        from repro.mobility import Area, MobilityConfig, StaticGrid
        from repro.sim import Scenario

        cfg = TierConfig(tiers={"ground": "ground"})
        with pytest.raises(ParameterError):
            Scenario(
                name="x",
                initial_size=4,
                tiers=cfg,
                mobility=MobilityConfig(
                    model=StaticGrid(), area=Area(100.0, 100.0), tx_range=50.0, duration=10.0
                ),
            )
        with pytest.raises(ParameterError, match="loss_floor"):
            Scenario(name="x", initial_size=4, tiers=cfg, loss_probability=0.2)

    def test_degenerate_single_tier_is_bit_identical_to_classic(self, small_setup):
        # A one-tier, gateway-free config with an i.i.d. loss knob IS the
        # classic flat domain — identical reports, fingerprints and ledgers.
        from repro.sim import Scenario, ScenarioRunner
        from repro.sim.scenarios import PoissonChurn

        def run(tiers, loss):
            scenario = Scenario(
                name="degenerate",
                initial_size=5,
                schedule=PoissonChurn(length=4),
                seed=77,
                loss_probability=loss,
                tiers=tiers,
            )
            return ScenarioRunner(small_setup).run("proposed", scenario)

        cfg = TierConfig(
            tiers=[("lan", {"name": "lan", "bitrate_bps": 2e6, "loss": 0.2})]
        )
        classic = run(None, 0.2)
        tiered = run(cfg, 0.0)
        assert tiered.key_fingerprint == classic.key_fingerprint
        assert _record_dicts(tiered) == _record_dicts(classic)

    def test_tiered_scenario_runs_end_to_end(self, small_setup):
        from repro.sim import Scenario, ScenarioRunner
        from repro.sim.scenarios import BurstPartitions
        from repro.engine.executor import EngineConfig

        cfg = TierConfig(
            tiers={"ground": "ground", "sat": "satellite-bursty"},
            members={"sat": 1},
            gateways={"ground:sat": 1},
        )
        scenario = Scenario(
            name="tier-burst",
            initial_size=6,
            schedule=BurstPartitions(bursts=2, burst_size=1, period=5.0),
            seed=11,
            tiers=cfg,
        )
        runner = ScenarioRunner(small_setup, engine=build(EngineConfig, "tiered"))
        report = runner.run("proposed", scenario)
        assert report.final_size == 6
        establish = report.records[0]
        assert establish.agreed
        # The 250 ms satellite hop dominates: no flat-LAN round finishes
        # this slowly, so the latency model demonstrably saw the tier map.
        assert establish.sim_latency_s > 0.5

    def test_same_seed_reports_are_identical(self, small_setup):
        from repro.sim import Scenario, ScenarioRunner
        from repro.sim.scenarios import PoissonChurn
        from repro.engine.executor import EngineConfig

        cfg = TierConfig(
            tiers={"ground": "ground", "sat": "satellite-bursty"},
            members={"sat": 1},
            gateways={"ground:sat": 1},
        )

        def run():
            scenario = Scenario(
                name="tier-det",
                initial_size=5,
                schedule=PoissonChurn(length=3),
                seed=23,
                tiers=cfg,
            )
            runner = ScenarioRunner(small_setup, engine=build(EngineConfig, "tiered"))
            report = runner.run("proposed", scenario)
            return report.key_fingerprint, _record_dicts(report)

        assert run() == run()

    def test_scenario_spec_round_trip(self):
        from repro.sim.specio import build_scenario

        spec = {
            "name": "tiered-spec",
            "initial_size": 6,
            "schedule": {"kind": "poisson", "length": 3},
            "seed": 5,
            "tiers": {
                "tiers": [["ground", "ground"], ["sat", "satellite-bursty"]],
                "members": {"sat": 1},
                "gateways": {"ground:sat": 1},
            },
        }
        scenario = build_scenario(spec)
        assert scenario.tiers is not None
        assert build_scenario(to_spec(scenario)) == scenario

    def test_engine_spec_round_trip(self):
        from repro.engine.latency import TieredLatency
        from repro.engine.executor import EngineConfig

        from repro.energy.transceiver import RADIO_100KBPS
        from repro.engine.latency import TransceiverLatency

        config = build(EngineConfig, "tiered")
        assert isinstance(config.latency, TieredLatency)
        assert to_spec(config) == "tiered"
        custom = TransceiverLatency(
            dataclasses.replace(RADIO_100KBPS, name="custom", bitrate_bps=5e4)
        )
        with pytest.raises(ParameterError, match="has no engine profile"):
            to_spec(dataclasses.replace(config, latency=custom))


# ------------------------------------------------------------------- campaign
class TestCampaignTiersAxis:
    def _spec(self, **kwargs):
        from repro.campaign.spec import CampaignSpec

        return CampaignSpec(
            name="tiers-campaign",
            protocols=("proposed",),
            group_sizes=(4,),
            schedule={"kind": "poisson", "length": 2},
            replications=1,
            **kwargs,
        )

    TIER_SPEC = {
        "tiers": [["ground", "ground"], ["sat", "satellite-bursty"]],
        "members": {"sat": 1},
        "gateways": {"ground:sat": 1},
    }

    def test_tiers_axis_expands_cells(self):
        spec = self._spec(tiers={"flat": None, "sat": self.TIER_SPEC})
        cells = spec.cells()
        assert len(cells) == 2
        by_tier = {cell.axes["tiers"]: cell for cell in cells}
        assert set(by_tier) == {"flat", "sat"}
        assert "tiers" not in by_tier["flat"].payload["scenario"]
        assert by_tier["sat"].payload["scenario"]["tiers"] == self.TIER_SPEC
        assert "tiers=sat" in by_tier["sat"].key

    def test_tiers_axis_does_not_shift_workload_seeds(self):
        from repro.campaign.spec import CampaignSpec

        flat = self._spec().cells()[0]
        tiered = self._spec(tiers={"sat": self.TIER_SPEC}).cells()[0]
        assert CampaignSpec.workload_key(flat.axes) == CampaignSpec.workload_key(tiered.axes)

    def test_loss_axis_folds_into_loss_floor(self):
        spec = self._spec(tiers={"sat": self.TIER_SPEC}, losses=(0.0, 0.1))
        cells = spec.cells()
        by_loss = {cell.axes["loss"]: cell for cell in cells}
        assert "loss_floor" not in by_loss[0.0].payload["scenario"]["tiers"]
        assert by_loss[0.1].payload["scenario"]["tiers"]["loss_floor"] == pytest.approx(0.1)
        for cell in cells:
            assert cell.payload["scenario"].get("loss_probability", 0.0) == 0.0

    def test_tiers_conflicts_with_mobility_axis(self):
        with pytest.raises(ParameterError):
            self._spec(
                tiers={"sat": self.TIER_SPEC},
                mobilities={
                    "rwp": {
                        "model": {"kind": "random-waypoint", "min_speed": 1.0, "max_speed": 2.0},
                        "area": [300.0, 300.0],
                        "tx_range": 120.0,
                        "duration": 60.0,
                    }
                },
            )


# ------------------------------------------------------- radio clamp regression
class TestRadioLinkClampRegression:
    def test_flat_profile_respects_the_loss_ceiling(self):
        from repro.mobility.field import Area, MobilityField
        from repro.mobility.models import StaticGrid
        from repro.mobility.radio import RadioLink

        # base == edge: the flat branch used to return base_loss unclamped.
        field = MobilityField(
            ["a", "b"],
            StaticGrid(),
            Area(10.0, 10.0),
            1.0,
            DeterministicRNG("clamp", label="field"),
        )
        link = RadioLink(field, tx_range=100.0, base_loss=0.9995, edge_loss=0.9995)
        assert link.loss_probability("a", "b") <= 0.999
