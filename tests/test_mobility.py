"""The mobility subsystem: fields, models, radio links, relaying, emergent churn.

The determinism contract is the headline: two runs from the same master seed
must produce identical trajectories, identical emergent partition/merge event
streams and identical per-node energy ledgers, and distinct seeds must
diverge.  The rest exercises each layer in isolation — grid/waypoint/RPGM
motion, the distance-dependent link model, bounded flooding with relay
charging, and the connectivity monitor — plus the scenario-engine
integration and the report exports.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import replace

import pytest

from repro.exceptions import NetworkError, ParameterError
from repro.mathutils.rand import DeterministicRNG
from repro.mobility import (
    Area,
    ConnectivityMonitor,
    MobilityConfig,
    MobilityField,
    MobilityModel,
    MultiHopMedium,
    RadioLink,
    RandomWaypoint,
    ReferencePointGroup,
    StaticGrid,
)
from repro.mobility.graph import adjacency
from repro.mobility.models import NodeMotion
from repro.network import Message, Node, group_element_part
from repro.network.tiers import TierConfig, TieredLink
from repro.pki import Identity
from repro.sim import (
    PeriodicMerges,
    PoissonChurn,
    Scenario,
    ScenarioRunner,
    comparison_csv,
    comparison_json,
    comparison_table,
)
from repro.sim.scenarios import _EXPANSIONS, EXPANSION_LIMIT


def _rng(seed="mobility-test"):
    return DeterministicRNG(seed, label="test")


def _field(names, model, area=Area(400.0, 400.0), tick=1.0, seed="mobility-test"):
    return MobilityField(names, model, area, tick, _rng(seed))


class _FixedMotion(NodeMotion):
    def __init__(self, position):
        self.position = position

    def advance(self, dt, step):
        pass


class _Fixed(MobilityModel):
    """Test model: every node pinned to an explicit position."""

    def __init__(self, positions):
        self.positions = dict(positions)

    def build(self, names, area, rng):
        return {name: _FixedMotion(self.positions[name]) for name in names}


class _ScriptedMotion(NodeMotion):
    def __init__(self, path):
        self._path = path
        self._step = 0
        self.position = path(0)

    def advance(self, dt, step):
        self._step = step
        self.position = self._path(step)


class _Scripted(MobilityModel):
    """Test model: position is an explicit function of the tick index."""

    def __init__(self, paths):
        self.paths = dict(paths)

    def build(self, names, area, rng):
        return {name: _ScriptedMotion(self.paths[name]) for name in names}


def _message(sender, bits=512):
    return Message.broadcast(sender, "round1", [group_element_part("z", 7, bits)])


# ---------------------------------------------------------------------------
# Fields and models
# ---------------------------------------------------------------------------

class TestModels:
    NAMES = [f"n{i:02d}" for i in range(9)]

    def test_static_grid_fills_area_and_never_moves(self):
        field = _field(self.NAMES, StaticGrid())
        before = field.snapshot()
        field.advance_ticks(25)
        assert field.snapshot() == before
        xs = [x for x, _ in before.values()]
        ys = [y for _, y in before.values()]
        assert len(set(before.values())) == len(self.NAMES)
        assert min(xs) > 0 and max(xs) < 400 and min(ys) > 0 and max(ys) < 400

    def test_random_waypoint_moves_within_area(self):
        field = _field(self.NAMES, RandomWaypoint(min_speed=2.0, max_speed=8.0))
        start = field.snapshot()
        field.advance_ticks(40)
        end = field.snapshot()
        assert all(start[name] != end[name] for name in self.NAMES)
        for x, y in end.values():
            assert 0.0 <= x <= 400.0 and 0.0 <= y <= 400.0

    def test_same_seed_same_trajectories_distinct_seeds_diverge(self):
        model = RandomWaypoint(min_speed=2.0, max_speed=8.0)
        a, b = _field(self.NAMES, model), _field(self.NAMES, model)
        c = _field(self.NAMES, model, seed="other")
        for _ in range(30):
            a.advance_ticks(1)
            b.advance_ticks(1)
            c.advance_ticks(1)
            assert a.snapshot() == b.snapshot()
        assert a.snapshot() != c.snapshot()

    def test_trajectories_do_not_depend_on_other_nodes(self):
        # Named per-node streams: n00's path is the same whether it shares
        # the field with 2 or 8 other nodes.
        model = RandomWaypoint(min_speed=2.0, max_speed=8.0)
        small = _field(self.NAMES[:3], model)
        large = _field(self.NAMES, model)
        small.advance_ticks(20)
        large.advance_ticks(20)
        assert small.position("n00") == large.position("n00")

    def test_rpgm_members_ride_their_leader(self):
        model = ReferencePointGroup(
            groups=3, min_speed=2.0, max_speed=6.0, member_radius=40.0, member_speed=1.0
        )
        field = _field(self.NAMES, model)
        field.advance_ticks(30)
        # Same squad (index % 3): pairwise distance bounded by the squad disk.
        for squad in range(3):
            members = [name for i, name in enumerate(self.NAMES) if i % 3 == squad]
            for a in members:
                for b in members:
                    assert field.distance(a, b) <= 80.0 + 1e-9

    def test_field_rejects_unknown_names_and_rewinds(self):
        field = _field(self.NAMES[:3], StaticGrid())
        with pytest.raises(ParameterError, match="not part of this mobility field"):
            field.position("ghost")
        field.advance_to(5.0)
        with pytest.raises(ParameterError, match="rewind"):
            field.advance_to(2.0)

    def test_advance_to_quantises_to_ticks(self):
        field = _field(self.NAMES[:3], StaticGrid(), tick=2.0)
        field.advance_to(7.1)  # rounds to 8s = 4 ticks
        assert field.step_count == 4 and field.time == 8.0


# ---------------------------------------------------------------------------
# Link models
# ---------------------------------------------------------------------------

class TestRadioLink:
    def _link(self, **kwargs):
        positions = {"a": (0.0, 0.0), "b": (60.0, 0.0), "c": (99.0, 0.0), "d": (150.0, 0.0)}
        field = _field(list(positions), _Fixed(positions))
        return RadioLink(field, 100.0, **kwargs)

    def test_reachability_is_the_range_cutoff(self):
        link = self._link()
        assert link.reachable("a", "b") and link.reachable("a", "c")
        assert not link.reachable("a", "d")
        assert not link.reachable("a", "a")

    def test_loss_rises_with_distance(self):
        link = self._link(base_loss=0.02, edge_loss=0.4)
        near, mid, edge = (
            link.loss_probability("a", "a"),
            link.loss_probability("a", "b"),
            link.loss_probability("a", "c"),
        )
        assert near == pytest.approx(0.02)
        assert near < mid < edge < 0.4 + 1e-9
        assert link.loss_probability("a", "d") == 1.0


def _pairwise(link, names):
    """The reference graph: one ``reachable`` call per ``i < j`` pair."""
    graph = {name: [] for name in names}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if link.reachable(a, b):
                graph[a].append(b)
                graph[b].append(a)
    return graph


class TestAdjacency:
    """``graph.adjacency`` equals the pairwise graph, list order included."""

    #: An offset whose squared length rounds above ``hypot(*EDGE) ** 2``: a
    #: squared-distance test would unlink a pair exactly at range.
    EDGE = (72.94921875, 31.85546875)

    def _pairwise_checked(self, link, names):
        graph = adjacency(link, names)
        expected = _pairwise(link, names)
        assert graph == expected
        assert list(graph) == list(expected)
        return graph

    @pytest.mark.parametrize("seed", range(4))
    def test_radio_graph_of_a_moving_field(self, seed):
        names = [f"n{i:02d}" for i in range(16)]
        field = _field(names, RandomWaypoint(min_speed=5.0, max_speed=30.0), seed=f"adj-{seed}")
        link = RadioLink(field, 120.0)
        linked = 0
        for _ in range(8):
            field.advance_ticks(3)
            linked += sum(map(len, self._pairwise_checked(link, names).values()))
        assert linked > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_pairs_exactly_at_range_stay_linked(self, seed):
        rng = random.Random(seed)
        dx, dy = self.EDGE
        tx_range = math.hypot(dx, dy)
        assert dx * dx + dy * dy > tx_range * tx_range
        positions = {f"r{i}": (rng.uniform(0, 300), rng.uniform(0, 300)) for i in range(10)}
        for i in range(4):
            x, y = float(rng.randint(0, 200)), float(rng.randint(0, 200))
            positions[f"e{i}a"], positions[f"e{i}b"] = (x, y), (x + dx, y + dy)
        names = list(positions)
        rng.shuffle(names)
        link = RadioLink(_field(names, _Fixed(positions)), tx_range)
        graph = self._pairwise_checked(link, names)
        assert all(f"e{i}b" in graph[f"e{i}a"] for i in range(4))

    def test_tiered_link_keeps_the_pairwise_default(self):
        names = [f"member-{i:03d}" for i in range(8)]
        config = TierConfig(
            tiers={"ground": "ground", "sat": "satellite"},
            members={"sat": 3},
            gateways={"ground:sat": 1},
        )
        link = TieredLink(config.build_map(names))
        graph = self._pairwise_checked(link, names)
        # Two tiers joined by one gateway: some pairs share no tier.
        assert "member-005" not in graph["member-001"]


# ---------------------------------------------------------------------------
# Multi-hop relaying
# ---------------------------------------------------------------------------

class TestMultiHopMedium:
    def _line_medium(self, spacing=100.0, names=("a", "b", "c"), tx_range=120.0, **kwargs):
        positions = {name: (i * spacing, 0.0) for i, name in enumerate(names)}
        field = _field(list(names), _Fixed(positions))
        medium = MultiHopMedium(field, RadioLink(field, tx_range), rng=_rng("hop"), **kwargs)
        nodes = {name: medium.attach(Node(Identity(name))) for name in names}
        return medium, nodes

    def test_flood_reaches_across_hops_and_charges_relays(self):
        medium, nodes = self._line_medium()
        receipt = medium.send(_message(Identity("a")))
        assert {i.name for i in receipt.delivered_to} == {"b", "c"}
        assert receipt.hops == 2
        assert receipt.attempts == 1
        # a and the b relay both transmitted; the relay share is b's bits.
        assert receipt.transmissions >= 2
        assert receipt.relay_bits == 512
        assert nodes["b"].recorder.tx_bits == 512
        assert nodes["c"].recorder.rx_bits >= 512
        assert medium.total_relay_bits() == 512
        assert medium.total_transmissions() == receipt.transmissions
        # bits-with-retries counts every physical copy (origin + relays), so
        # it matches what the recorders were charged in aggregate.
        assert medium.total_bits(include_retries=True) == 512 * receipt.transmissions
        assert medium.total_bits(include_retries=True) > medium.total_bits()

    def test_single_hop_group_has_no_relay_traffic(self):
        medium, nodes = self._line_medium(spacing=10.0)
        receipt = medium.send(_message(Identity("a")))
        assert receipt.hops == 1 and receipt.relay_bits == 0
        assert medium.total_relay_bits() == 0

    def test_unreachable_member_raises(self):
        medium, _ = self._line_medium(names=("a", "b", "c", "far"), spacing=100.0)
        # "far" sits at 300m; c..far gap is 100 <= 120, so move it: rebuild
        # with a real gap instead.
        medium, _ = self._line_medium(names=("a", "b"), spacing=500.0, tx_range=120.0)
        with pytest.raises(NetworkError, match="no relay path"):
            medium.send(_message(Identity("a")))

    def test_lossy_links_recover_via_retry_waves(self):
        medium, _ = self._line_medium(tx_range=150.0)
        medium.link_model.base_loss = 0.3
        medium.link_model.edge_loss = 0.6
        attempts = [medium.send(_message(Identity("a"), bits=256)).attempts for _ in range(30)]
        assert all(a >= 1 for a in attempts)
        assert any(a > 1 for a in attempts)  # some floods needed a retry wave
        assert max(a for a in attempts) <= medium.max_retries + 1

    def test_max_hops_bounds_each_flood_wave(self):
        names = tuple(f"n{i}" for i in range(6))
        # A 2-hop TTL cannot cover a 5-hop line in one wave; with no retry
        # waves allowed the send fails outright.
        medium, _ = self._line_medium(
            names=names, spacing=100.0, tx_range=120.0, max_hops=2, max_retries=0
        )
        with pytest.raises(NetworkError, match="missing"):
            medium.send(_message(Identity("n0")))
        # Retry waves re-flood from every holder, so coverage creeps outward
        # wave by wave and eventually completes.
        medium, _ = self._line_medium(
            names=names, spacing=100.0, tx_range=120.0, max_hops=2, max_retries=4
        )
        receipt = medium.send(_message(Identity("n0")))
        assert {i.name for i in receipt.delivered_to} == set(names) - {"n0"}
        assert receipt.attempts > 1

    def test_multi_hop_costs_strictly_more_than_single_hop(self, small_setup):
        # The same 4-member GKA: compact layout (everyone in range, the
        # degenerate case) vs stretched line (2 relay hops needed).  Relaying
        # must make the stretched run strictly more expensive end to end.
        from repro.core import create_protocol
        from repro.energy import DeviceProfile

        members = [Identity(f"line{i}") for i in range(4)]
        names = [m.name for m in members]
        device = DeviceProfile()
        totals = {}
        for label, spacing in (("compact", 20.0), ("stretched", 100.0)):
            positions = {name: (i * spacing, 0.0) for i, name in enumerate(names)}
            field = _field(names, _Fixed(positions))
            medium = MultiHopMedium(field, RadioLink(field, 120.0), rng=_rng("cost"))
            result = create_protocol("bd", small_setup).run(members, medium=medium, seed=9)
            assert result.all_agree()
            totals[label] = (
                sum(device.total_j(r) for r in result.state.recorders().values()),
                medium.total_relay_bits(),
            )
        assert totals["compact"][1] == 0
        assert totals["stretched"][1] > 0
        assert totals["stretched"][0] > totals["compact"][0]


# ---------------------------------------------------------------------------
# Connectivity-driven churn
# ---------------------------------------------------------------------------

class TestConnectivityMonitor:
    def _walkabout_field(self):
        # Five nodes: u0..u3 clustered; u3 and u4 walk out together at t=5
        # and come back at t=15 (tick = 1s).
        cluster = {"u0": (0.0, 0.0), "u1": (50.0, 0.0), "u2": (0.0, 50.0)}

        def stay(position):
            return lambda step: position

        def wander(position):
            return lambda step: (position[0] + 400.0, position[1]) if 5 <= step < 15 else position

        paths = {name: stay(pos) for name, pos in cluster.items()}
        paths["u3"] = wander((50.0, 50.0))
        paths["u4"] = wander((80.0, 50.0))
        return _field(list(paths), _Scripted(paths))

    def _monitor(self, field, **kwargs):
        universe = [Identity(name) for name in sorted(field.names())]
        return ConnectivityMonitor(field, RadioLink(field, 120.0), universe, **kwargs)

    def test_partition_and_merge_emerge_from_motion(self):
        monitor = self._monitor(self._walkabout_field())
        assert [i.name for i in monitor.initial_members()] == ["u0", "u1", "u2", "u3", "u4"]
        events = monitor.emergent_events(30.0)
        kinds = [(when, event.kind) for when, event in events]
        assert kinds == [(5.0, "partition"), (15.0, "merge")]
        partition = events[0][1]
        assert sorted(i.name for i in partition.leaving) == ["u3", "u4"]
        merge = events[1][1]
        assert sorted(i.name for i in merge.other_group) == ["u3", "u4"]
        assert [i.name for i in monitor.group_members()] == ["u0", "u1", "u2", "u3", "u4"]

    def test_settle_ticks_filter_boundary_flapping(self):
        field = self._walkabout_field()
        monitor = self._monitor(field, settle_ticks=2)
        events = monitor.emergent_events(30.0)
        assert [(when, event.kind) for when, event in events] == [
            (6.0, "partition"),
            (16.0, "merge"),
        ]

    def test_min_group_size_defers_departures(self):
        # With min_group_size=5 the whole universe must stay a group: the
        # walkabout would shrink it to 3, so no event is ever emitted.
        monitor = self._monitor(self._walkabout_field(), min_group_size=5)
        assert monitor.emergent_events(30.0) == []

    def test_no_event_fires_while_a_nominal_member_is_unreachable(self):
        # Regression: u3 drifts out while the group is at the viability floor
        # (departure deferred), then u4 wanders into range.  Emitting the
        # join while u3 is still a nominal-but-unreachable member would hand
        # the runner an event the flooding medium cannot deliver; both events
        # must instead fire together once the post-event group is connected.
        cluster = {"u0": (0.0, 0.0), "u1": (50.0, 0.0), "u2": (0.0, 50.0)}
        paths = {name: (lambda pos: lambda step: pos)(pos) for name, pos in cluster.items()}
        # u3 starts connected, leaves for good at step 4.
        paths["u3"] = lambda step: (50.0, 50.0) if step < 4 else (900.0, 900.0)
        # u4 starts far away and arrives at step 8 (while u3 is deferred).
        paths["u4"] = lambda step: (80.0, 50.0) if step >= 8 else (900.0, 0.0)
        field = _field(list(paths), _Scripted(paths), area=Area(1000.0, 1000.0))
        monitor = self._monitor(field, min_group_size=4)
        assert [i.name for i in monitor.initial_members()] == ["u0", "u1", "u2", "u3"]
        events = monitor.emergent_events(20.0)
        # Nothing between steps 4..7 (u3's leave would breach the floor);
        # at step 8 the leave and the join resolve in one tick, leave first.
        assert [(when, event.kind) for when, event in events] == [
            (8.0, "leave"),
            (8.0, "join"),
        ]
        assert [i.name for i in monitor.group_members()] == ["u0", "u1", "u2", "u4"]

    def test_member_bridged_only_by_a_non_member_counts_as_departed(self):
        # The medium relays over group members only, so a member whose sole
        # path to the controller runs through a non-member is undeliverable:
        # it must leave, even though the universe-wide graph is connected.
        def still(pos):
            return lambda step: pos

        paths = {"c": still((0.0, 0.0)), "a": still((50.0, 0.0))}
        paths["m"] = lambda step: (100.0, 0.0) if step < 5 else (220.0, 0.0)
        paths["z"] = lambda step: (800.0, 0.0) if step < 5 else (110.0, 0.0)
        field = _field(list(paths), _Scripted(paths), area=Area(1000.0, 1000.0))
        monitor = self._monitor(field)
        assert [i.name for i in monitor.initial_members()] == ["a", "c", "m"]
        events = monitor.emergent_events(10.0)
        # At step 5, z (not yet a member) bridges the controller and m in the
        # universe graph, but the member-induced graph has m disconnected: m
        # leaves, and z joins (its join-time group is deliverable).  One tick
        # later z *is* a member, so it legitimately relays for m and m
        # rejoins through it.
        assert [(when, event.kind) for when, event in events] == [
            (5.0, "leave"),
            (5.0, "join"),
            (6.0, "join"),
        ]
        assert events[0][1].leaving.name == "m"
        assert events[1][1].joining.name == "z"
        assert events[2][1].joining.name == "m"
        assert {i.name for i in monitor.group_members()} == {"a", "c", "m", "z"}

    def test_mass_swap_at_the_floor_stalls_instead_of_crashing(self):
        # Both non-controller members cross out-hysteresis on the same tick
        # two newcomers cross in: emitting the partition first would leave
        # the controller alone (below any viable group).  The monitor must
        # defer everything — the group simply stalls, no event stream that
        # the runner cannot execute.
        def still(pos):
            return lambda step: pos

        paths = {"c": still((0.0, 0.0))}
        paths["a"] = lambda step: (50.0, 0.0) if step < 3 else (800.0, 800.0)
        paths["b"] = lambda step: (0.0, 50.0) if step < 3 else (830.0, 800.0)
        paths["d"] = lambda step: (400.0, 400.0) if step < 3 else (50.0, 50.0)
        paths["e"] = lambda step: (430.0, 400.0) if step < 3 else (80.0, 50.0)
        field = _field(list(paths), _Scripted(paths), area=Area(1000.0, 1000.0))
        monitor = self._monitor(field)
        assert {i.name for i in monitor.initial_members()} == {"c", "a", "b"}
        assert monitor.emergent_events(10.0) == []
        assert {i.name for i in monitor.group_members()} == {"c", "a", "b"}

    def test_sparse_initial_component_is_rejected(self):
        positions = {"u0": (0.0, 0.0), "u1": (300.0, 0.0), "u2": (399.0, 399.0)}
        field = _field(list(positions), _Fixed(positions))
        monitor = self._monitor(field)
        with pytest.raises(ParameterError, match="connected to"):
            monitor.initial_members()


# ---------------------------------------------------------------------------
# Scenario integration and determinism
# ---------------------------------------------------------------------------

def _mobility_scenario(seed="t24", name="rwp-12"):
    return Scenario(
        name=name,
        initial_size=12,
        mobility=MobilityConfig(
            model=RandomWaypoint(min_speed=3.0, max_speed=12.0),
            area=Area(420.0, 420.0),
            tx_range=140.0,
            duration=150.0,
            tick=2.0,
            edge_loss=0.1,
            settle_ticks=2,
        ),
        seed=seed,
    )


class TestMobilityScenarios:
    def test_schedule_and_mobility_are_mutually_exclusive(self):
        with pytest.raises(ParameterError, match="not both"):
            Scenario(
                name="both",
                initial_size=8,
                schedule=PoissonChurn(length=3),
                mobility=_mobility_scenario().mobility,
            )

    def test_mobility_rejects_the_uniform_loss_knob(self):
        # Loss on mobile scenarios comes from distance (base/edge_loss), so a
        # silently-ignored uniform knob is a configuration error.
        with pytest.raises(ParameterError, match="base_loss"):
            Scenario(
                name="knob",
                initial_size=8,
                mobility=_mobility_scenario().mobility,
                loss_probability=0.2,
            )

    def test_initial_members_are_the_controller_component(self):
        scenario = _mobility_scenario()
        members = scenario.initial_members()
        assert members[0].name == "member-000"
        assert 3 <= len(members) <= scenario.initial_size

    def test_event_stream_is_deterministic_and_seed_sensitive(self):
        first = _mobility_scenario().build_events()
        _EXPANSIONS.clear()  # expand again, rather than share the first
        second = _mobility_scenario().build_events()
        assert [(e.time, e.kind) for e in first] == [(e.time, e.kind) for e in second]
        other = _mobility_scenario(seed="t0").build_events()
        assert [(e.time, e.kind) for e in first] != [(e.time, e.kind) for e in other]

    def test_mobility_churn_contains_emergent_partitions_and_merges(self):
        kinds = [e.kind for e in _mobility_scenario().build_events()]
        assert "partition" in kinds and "merge" in kinds

    @pytest.fixture(scope="class")
    def mobility_reports(self, small_setup):
        runner = ScenarioRunner(small_setup)
        scenario = _mobility_scenario()
        return runner.run_all(["proposed", "bd"], scenario)

    def test_protocols_survive_mobility_churn(self, mobility_reports):
        for report in mobility_reports:
            assert report.agreed_throughout
            assert report.total_relay_bits > 0
            assert report.total_relay_energy_j > 0
            assert report.total_transmissions > report.total_messages
            assert report.mean_hops > 1.0

    def test_identical_seeds_reproduce_energy_ledgers_exactly(self, small_setup, mobility_reports):
        rerun = ScenarioRunner(small_setup).run("proposed", _mobility_scenario())
        baseline = mobility_reports[0]
        assert rerun.per_member_energy_j() == baseline.per_member_energy_j()
        assert [
            (r.kind, r.time, r.messages, r.bits, r.transmissions, r.relay_bits)
            for r in rerun.records
        ] == [
            (r.kind, r.time, r.messages, r.bits, r.transmissions, r.relay_bits)
            for r in baseline.records
        ]

    def test_distinct_seeds_diverge(self, small_setup, mobility_reports):
        other = ScenarioRunner(small_setup).run("proposed", _mobility_scenario(seed="t0"))
        assert other.per_member_energy_j() != mobility_reports[0].per_member_energy_j()

    def test_comparison_table_shows_relay_columns(self, mobility_reports):
        table = comparison_table(mobility_reports)
        assert "relay J" in table and "hops" in table and "tx" in table


class TestSharedExpansions:
    """One emergent-event expansion per distinct input, shared per process."""

    @pytest.fixture(autouse=True)
    def cold_table(self):
        _EXPANSIONS.clear()
        yield
        _EXPANSIONS.clear()

    @staticmethod
    def _expand(scenario):
        return scenario.initial_members(), scenario.build_events()

    @pytest.mark.parametrize(
        "change",
        [{"base_loss": 0.05}, {"edge_loss": 0.4}, {"path_loss_exponent": 3.0}, {"max_hops": 2}],
        ids=["base_loss", "edge_loss", "path_loss_exponent", "max_hops"],
    )
    def test_loss_and_ttl_leave_the_expansion_unchanged(self, change):
        scenario = _mobility_scenario()
        other = replace(scenario, mobility=replace(scenario.mobility, **change))
        expected = self._expand(scenario)
        _EXPANSIONS.clear()
        assert self._expand(other) == expected
        # Either scenario now finds the other's entry.
        self._expand(scenario)
        assert len(_EXPANSIONS) == 1

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": "t25"},
            {"name": "rwp-13"},
            {"initial_size": 13},
            {"member_prefix": "node"},
            {"min_group_size": 4},
            {"model": RandomWaypoint(min_speed=3.0, max_speed=13.0)},
            {"area": Area(430.0, 430.0)},
            {"tick": 1.0},
            {"tick": 2},
            {"tx_range": 141.0},
            {"settle_ticks": 3},
            {"duration": 100.0},
        ],
        ids=[
            "seed", "name", "initial_size", "member_prefix", "min_group_size", "model",
            "area", "tick", "tick-type", "tx_range", "settle_ticks", "duration",
        ],
    )
    def test_every_keyed_input_misses_the_table(self, change):
        scenario = _mobility_scenario()
        if next(iter(change)) in ("seed", "name", "initial_size", "member_prefix", "min_group_size"):
            other = replace(scenario, **change)
        else:
            other = replace(scenario, mobility=replace(scenario.mobility, **change))
        self._expand(scenario)
        self._expand(other)
        assert len(_EXPANSIONS) == 2

    def test_an_int_tick_keeps_int_event_times(self):
        # 2 == 2.0, yet the tick's type is the event times' type.
        scenario = _mobility_scenario()
        whole = replace(scenario, mobility=replace(scenario.mobility, tick=2))
        assert {type(e.time) for e in scenario.build_events()} == {float}
        assert {type(e.time) for e in whole.build_events()} == {int}

    def test_callers_get_fresh_lists(self):
        scenario = _mobility_scenario()
        members, events = self._expand(scenario)
        members.clear()
        events.clear()
        assert self._expand(_mobility_scenario()) == self._expand(scenario)
        assert scenario.initial_members() and scenario.build_events()

    def test_the_table_never_exceeds_its_bound(self):
        mobility = MobilityConfig(
            model=StaticGrid(), area=Area(100.0, 100.0), tx_range=200.0, duration=2.0
        )
        for seed in range(EXPANSION_LIMIT + 3):
            Scenario(name="bound", initial_size=3, mobility=mobility, seed=seed).build_events()
            assert 1 <= len(_EXPANSIONS) <= EXPANSION_LIMIT
        # Emptied once when full, then refilled.
        assert len(_EXPANSIONS) == 3


class TestMasterSeedPlumbing:
    def test_establishment_is_independent_of_the_schedule(self, small_setup):
        # Named child seeds: swapping the churn schedule (a different
        # consumer) must not perturb the establishment's draws or the
        # medium's loss stream for step 0.
        runner = ScenarioRunner(small_setup)
        records = []
        for schedule in (PoissonChurn(length=3), PeriodicMerges(merges=2, merge_size=2)):
            scenario = Scenario(
                name="plumbing",
                initial_size=6,
                schedule=schedule,
                seed="iso",
                loss_probability=0.2,
            )
            report = runner.run("proposed", scenario)
            records.append(report.records[0])
        first, second = records
        assert first.energy_j == second.energy_j
        assert first.bits_with_retries == second.bits_with_retries

    def test_scenarios_without_churn_are_allowed(self, small_setup):
        scenario = Scenario(name="static", initial_size=5, seed=3)
        assert scenario.build_events() == []
        report = ScenarioRunner(small_setup).run("bd", scenario)
        assert len(report.records) == 1 and report.agreed_throughout


# ---------------------------------------------------------------------------
# Report exports
# ---------------------------------------------------------------------------

class TestReportExports:
    @pytest.fixture(scope="class")
    def reports(self, small_setup):
        scenario = Scenario(
            name="export", initial_size=6, schedule=PoissonChurn(length=4), seed=11
        )
        return ScenarioRunner(small_setup).run_all(["proposed", "bd"], scenario)

    def test_report_csv_round_trips(self, reports, tmp_path):
        path = tmp_path / "report.csv"
        text = reports[0].to_csv(str(path))
        assert path.read_text() == text
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(reports[0].records)
        assert rows[0]["kind"] == "establish"
        assert float(rows[0]["total_energy_j"]) == pytest.approx(
            reports[0].records[0].total_energy_j
        )

    def test_report_json_round_trips(self, reports):
        payload = json.loads(reports[0].to_json())
        assert payload["protocol"] == reports[0].protocol
        assert payload["totals"]["messages"] == reports[0].total_messages
        assert len(payload["records"]) == len(reports[0].records)
        assert payload["per_member_energy_j"] == reports[0].per_member_energy_j()

    def test_comparison_csv_and_json(self, reports, tmp_path):
        csv_text = comparison_csv(reports, str(tmp_path / "cmp.csv"))
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        assert [row["protocol"] for row in rows] == [r.protocol for r in reports]
        payload = json.loads(comparison_json(reports))
        assert payload["scenario"] == "export"
        assert len(payload["protocols"]) == len(reports)
        with pytest.raises(ParameterError):
            comparison_csv([])


# ---------------------------------------------------------------------------
# The issue's acceptance scenario: n=50 random waypoint, emergent churn
# ---------------------------------------------------------------------------

def n50_scenario(seed="b18"):
    """The acceptance workload (shared with the mobility benchmark)."""
    return Scenario(
        name="rwp-50",
        initial_size=50,
        mobility=MobilityConfig(
            model=RandomWaypoint(min_speed=3.0, max_speed=12.0),
            area=Area(900.0, 900.0),
            tx_range=220.0,
            duration=120.0,
            tick=2.0,
            edge_loss=0.15,
            settle_ticks=2,
        ),
        seed=seed,
    )


class TestAcceptance50:
    def test_n50_emergent_churn_for_proposed_and_two_baselines(self, small_setup):
        scenario = n50_scenario()
        assert len(scenario.initial_members()) == 50
        kinds = [e.kind for e in scenario.build_events()]
        assert "partition" in kinds and "merge" in kinds  # no hand-scripted events
        runner = ScenarioRunner(small_setup)
        reports = runner.run_all(["proposed", "bd", "ssn"], scenario)
        for report in reports:
            assert report.agreed_throughout
            # Relay hops are charged measurable energy: strictly more
            # physical transmissions than logical messages, and a non-zero
            # relay share (the single-hop degenerate case has zero).
            assert report.total_transmissions > report.total_messages
            assert report.total_relay_bits > 0
            assert report.total_relay_energy_j > 0
            assert report.mean_hops > 1.0
