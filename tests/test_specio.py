"""The spec codec: round trips and the one validation rule.

Every spec-built class round-trips through ``to_spec`` and ``build``, with
objects drawn from strategies derived from the same field declarations the
codec enforces; one table lists bad specs that must raise
:class:`~repro.exceptions.ParameterError` when they are built.
"""

from __future__ import annotations

import json
import typing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.config import AdversaryConfig
from repro.campaign import CampaignSpec
from repro.engine.executor import EngineConfig
from repro.engine.latency import FixedLatency, LatencyModel
from repro.exceptions import ParameterError
from repro.fields import Decl, Seed, spec_fields
from repro.mobility import Area, MobilityConfig
from repro.mobility.models import MobilityModel, RandomWaypoint, ReferencePointGroup, StaticGrid
from repro.network.events import JoinEvent, LeaveEvent, MergeEvent, PartitionEvent
from repro.network.tiers import GilbertElliott, LinkClass, TierConfig
from repro.pki import Identity
from repro.sim.scenarios import (
    BurstPartitions,
    ChurnSchedule,
    PeriodicMerges,
    PoissonChurn,
    Scenario,
    ScheduledEvent,
    TraceReplay,
)
from repro.sim.specio import MOBILITY_MODELS, SCHEDULE_KINDS, build, build_scenario, to_spec

NAN = float("nan")
INF = float("inf")
NAMES = st.text("abcdefgh-", min_size=1, max_size=6)


# ---------------------------------------------------------------- strategies
def _number(kind: type, decl) -> st.SearchStrategy:
    low = decl.ge if decl.ge is not None else decl.gt
    high = decl.le if decl.le is not None else decl.lt
    if kind is int:
        start = -5 if low is None else int(low) + (decl.gt is not None)
        return st.integers(min_value=start, max_value=start + 40)
    return st.floats(
        min_value=-1e6 if low is None else low,
        max_value=1e6 if high is None else high,
        exclude_min=decl.gt is not None,
        exclude_max=decl.lt is not None,
        allow_nan=False,
        allow_infinity=False,
    )


def strategy(tp: object, decl) -> st.SearchStrategy:
    """Values of a declared field type that satisfy its constraint."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:
        return st.one_of([st.none() if a is type(None) else strategy(a, decl) for a in args])
    if tp is int or tp is float:
        return _number(tp, decl)
    if tp is bool:
        return st.booleans()
    if tp is str:
        return st.sampled_from(decl.choices) if decl.choices else NAMES
    if tp is bytes:
        return st.binary(max_size=4)
    if origin is tuple and args[-1] is Ellipsis:
        return st.lists(strategy(args[0], decl), min_size=1, max_size=3).map(tuple)
    if origin is tuple:
        return st.tuples(*(strategy(arg, decl) for arg in args))
    return objects(tp)


def _construct(cls: type, kwargs: dict) -> object:
    try:
        return cls(**kwargs)
    except ParameterError:  # a cross-field check rejected the draw
        return None


def objects(cls: type) -> st.SearchStrategy:
    """Objects of ``cls`` built from its declared fields' strategies."""
    if cls in _SPECIAL:
        return _SPECIAL[cls]()
    fields = {name: strategy(field.type, field.decl) for name, field in spec_fields(cls).items()}
    return (
        st.fixed_dictionaries(fields)
        .map(lambda kwargs: _construct(cls, kwargs))
        .filter(lambda obj: obj is not None)
    )


def _events() -> st.SearchStrategy:
    one = NAMES.map(Identity)
    many = st.lists(NAMES, min_size=1, max_size=3).map(lambda names: tuple(map(Identity, names)))
    event = st.one_of(
        one.map(lambda m: JoinEvent(joining=m)),
        one.map(lambda m: LeaveEvent(leaving=m)),
        many.map(lambda ms: MergeEvent(other_group=ms)),
        many.map(lambda ms: PartitionEvent(leaving=ms)),
    )
    timed = st.builds(ScheduledEvent, time=st.floats(0.0, 1e3), event=event)
    return st.lists(st.one_of(event, timed), max_size=4).map(tuple)


def _trace() -> st.SearchStrategy:
    return st.builds(TraceReplay, events=_events(), spacing=st.floats(0.0, 10.0))


def _tiers() -> st.SearchStrategy:
    @st.composite
    def draw(draw):
        # Mapping keys: a spec holds one entry per tier, tier pair, node pair.
        names = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
        classes = draw(st.lists(objects(LinkClass), min_size=len(names), max_size=len(names)))
        tier = st.sampled_from(names)
        members = draw(st.dictionaries(st.sampled_from(names[1:]), st.integers(1, 4), max_size=2)) if names[1:] else {}
        gateways = draw(st.dictionaries(st.tuples(tier, tier).filter(lambda p: p[0] != p[1]), st.integers(1, 3), max_size=2)) if names[1:] else {}
        overrides = draw(st.dictionaries(st.tuples(NAMES, NAMES), objects(LinkClass), max_size=2))
        return _construct(
            TierConfig,
            dict(
                tiers=tuple(zip(names, classes)),
                members=tuple(members.items()),
                gateways=tuple((*pair, n) for pair, n in gateways.items()),
                overrides=tuple((*pair, c) for pair, c in overrides.items()),
                max_hops=draw(st.integers(1, 9)),
                loss_floor=draw(st.floats(0.0, 0.9)),
            ),
        )

    return draw().filter(lambda obj: obj is not None)


def _latency() -> st.SearchStrategy:
    profiles = st.sampled_from(["radio", "wlan", "tiered", "fixed:0.01"]).map(
        lambda profile: build(LatencyModel, profile)
    )
    return st.one_of(profiles, st.floats(0.0, 10.0).map(FixedLatency))


def _campaign() -> st.SearchStrategy:
    @st.composite
    def draw(draw):
        mobile = draw(st.booleans())
        mobilities = draw(st.dictionaries(NAMES, objects(MobilityConfig).map(to_spec), min_size=1, max_size=2))
        engines = draw(st.lists(objects(EngineConfig).map(to_spec), min_size=1, max_size=2, unique_by=json.dumps))
        return CampaignSpec(
            name=draw(NAMES),
            protocols=tuple(draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))),
            group_sizes=tuple(draw(st.lists(st.integers(2, 20), min_size=1, max_size=2, unique=True))),
            losses=tuple(draw(st.lists(st.floats(0.0, 0.9), min_size=1, max_size=2, unique=True))),
            schedule=None if mobile else draw(st.none() | objects(ChurnSchedule).map(to_spec)),
            mobilities=mobilities if mobile else {"none": None},
            tiers={"none": None} if mobile else draw(st.dictionaries(NAMES, objects(TierConfig).map(to_spec), min_size=1, max_size=2)),
            engines=tuple(engines),
            adversaries=draw(st.dictionaries(NAMES, st.none() | objects(AdversaryConfig).map(to_spec), min_size=1, max_size=2)),
            seed=draw(strategy(Seed, Decl())),
            params=draw(st.sampled_from(["test", "paper"])),
            replications=draw(st.integers(1, 3)),
            max_retries=draw(st.integers(0, 20)),
            min_group_size=draw(st.integers(2, 5)),
        )

    return draw()


_SPECIAL = {
    ChurnSchedule: lambda: st.one_of([objects(cls) for cls in SCHEDULE_KINDS.values()]),
    MobilityModel: lambda: st.one_of([objects(cls) for cls in MOBILITY_MODELS.values()]),
    TraceReplay: _trace,
    TierConfig: _tiers,
    LatencyModel: _latency,
    CampaignSpec: _campaign,
}

#: Union members build back through their base class's tag.
_BUILT_AS = {**{cls: ChurnSchedule for cls in SCHEDULE_KINDS.values()}, **{cls: MobilityModel for cls in MOBILITY_MODELS.values()}}

SPEC_CLASSES = [
    Scenario,
    PoissonChurn,
    BurstPartitions,
    PeriodicMerges,
    TraceReplay,
    MobilityConfig,
    StaticGrid,
    RandomWaypoint,
    ReferencePointGroup,
    Area,
    AdversaryConfig,
    GilbertElliott,
    LinkClass,
    TierConfig,
    EngineConfig,
    CampaignSpec,
]


def _json(spec: object) -> str:
    """Canonical JSON, so an int and an equal float compare unequal."""
    return json.dumps(spec, sort_keys=True)


@pytest.mark.parametrize("cls", SPEC_CLASSES, ids=lambda cls: cls.__name__)
def test_round_trip_over_declared_fields(cls):
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(objects(cls))
    def check(obj):
        spec = json.loads(json.dumps(to_spec(obj)))
        built = build(_BUILT_AS.get(cls, cls), spec)
        assert _json(to_spec(built)) == _json(spec)
        if cls is not EngineConfig:  # latency models compare by identity
            assert built == obj

    check()


def test_fixed_latency_round_trips_exactly():
    engine = EngineConfig(latency=FixedLatency(0.0123456789))
    rebuilt = build(EngineConfig, to_spec(engine))
    assert rebuilt.latency.delay_s == 0.0123456789
    # Values that already round-trip keep today's short string.
    assert to_spec(EngineConfig(latency=FixedLatency(0.01))) == "fixed:0.01"
    assert to_spec(EngineConfig(latency=FixedLatency(0.25))) == "fixed:0.25"


def test_ints_stay_ints_where_a_float_is_declared():
    mobility = {"model": "random-waypoint", "area": [500, 500], "tx_range": 150, "duration": 60}
    spec = to_spec(build(MobilityConfig, mobility))
    assert type(spec["tx_range"]) is int and type(spec["duration"]) is int
    # ... except where the class always stored a float.
    assert spec["area"] == [500.0, 500.0] and all(type(v) is float for v in spec["area"])


# ---------------------------------------------------------------- bad specs
_MOBILITY = {"model": "random-waypoint", "tx_range": 150.0, "duration": 10.0}
_LAN = {"name": "lan", "bitrate_bps": 1e6}
_MERGING = {"kind": "poisson", "length": 4, "join_rate": 0.0, "leave_rate": 0.0, "merge_rate": 1.0}

BAD_SPECS = [
    # schedules
    ("poisson-typo", ChurnSchedule, {"kind": "poisson", "rat": 1.0}),
    ("poisson-negative-length", PoissonChurn, {"length": -1}),
    ("poisson-zero-rate", ChurnSchedule, {"kind": "poisson", "length": 3, "join_rate": 0.0, "leave_rate": 0.0}),
    ("poisson-string-length", ChurnSchedule, {"kind": "poisson", "length": "3"}),
    ("poisson-merge-of-one", ChurnSchedule, {**_MERGING, "merge_size": 1}),
    ("poisson-merge-of-none", ChurnSchedule, {**_MERGING, "merge_size": 0}),
    ("poisson-partition-of-none", PoissonChurn, {"length": 4, "partition_rate": 1.0, "partition_size": 0}),
    ("bursts-negative", BurstPartitions, {"bursts": -1}),
    ("bursts-zero-period", ChurnSchedule, {"kind": "bursts", "bursts": 2, "period": 0.0}),
    ("merges-negative", PeriodicMerges, {"merges": -2}),
    ("merges-nan-period", ChurnSchedule, {"kind": "merges", "merges": 2, "period": NAN}),
    ("trace-bad-kind", TraceReplay, {"events": [{"kind": "teleport", "member": "x"}]}),
    ("trace-nan-time", ChurnSchedule, {"kind": "trace", "events": [{"kind": "join", "member": "x", "time": NAN}]}),
    ("trace-bool-spacing", ChurnSchedule, {"kind": "trace", "spacing": True, "events": []}),
    ("unknown-kind", ChurnSchedule, {"kind": "lunar", "length": 3}),
    # mobility
    ("mobility-typo", MobilityConfig, {**_MOBILITY, "tx_rang": 150.0}),
    ("mobility-nan-tick", MobilityConfig, {**_MOBILITY, "tick": NAN}),
    ("mobility-inf-duration", MobilityConfig, {**_MOBILITY, "duration": INF}),
    ("mobility-nan-range", MobilityConfig, {**_MOBILITY, "tx_range": NAN}),
    ("mobility-edge-below-base", MobilityConfig, {**_MOBILITY, "base_loss": 0.2, "edge_loss": 0.1}),
    ("mobility-unknown-model", MobilityConfig, {**_MOBILITY, "model": "teleport"}),
    ("area-negative", MobilityConfig, {**_MOBILITY, "area": [-1, 100]}),
    ("area-string", Area, ["500", 500]),
    ("static-grid-negative-jitter", StaticGrid, {"jitter": -1.0}),
    ("waypoint-slower-max", RandomWaypoint, {"min_speed": 5.0, "max_speed": 1.0}),
    ("rpgm-no-groups", ReferencePointGroup, {"groups": 0}),
    ("rpgm-in-mobility", MobilityConfig, {**_MOBILITY, "model": "rpgm", "member_radius": INF}),
    ("model-unknown-tag", MobilityModel, {"model": "teleport"}),
    # adversary
    ("adversary-typo", AdversaryConfig, {"mitmm": True}),
    ("adversary-nan-delay", AdversaryConfig, {"mitm_delay_s": NAN}),
    ("adversary-negative-delay", AdversaryConfig, {"mitm_delay_s": -1}),
    ("adversary-bad-mode", AdversaryConfig, {"mitm": True, "mitm_mode": "eat"}),
    ("adversary-string-flag", AdversaryConfig, {"injector": "yes"}),
    ("adversary-unknown-preset", AdversaryConfig, "teleport"),
    ("adversary-bad-inline-json", AdversaryConfig, "{not json"),
    ("adversary-no-actors", AdversaryConfig, {"eavesdropper": False}),
    # tiers
    ("link-nan-bitrate", LinkClass, {**_LAN, "bitrate_bps": NAN}),
    ("link-unknown-preset", LinkClass, "fibre-to-the-moon"),
    ("link-typo", LinkClass, {**_LAN, "colour": "red"}),
    ("ge-typo", GilbertElliott, {"loss_goood": 0.1}),
    ("ge-bool", GilbertElliott, {"loss_good": True}),
    ("ge-shorthand-string", GilbertElliott, {"loss": "0.1"}),
    ("tiers-nan-bitrate", TierConfig, {"tiers": [["lan", {**_LAN, "bitrate_bps": NAN}]]}),
    ("tiers-typo", TierConfig, {"tiers": ["ground"], "max_hop": 3}),
    ("tiers-gateway-key", TierConfig, {"tiers": ["ground", "satellite"], "gateways": {"ground": 1}}),
    ("tiers-zero-members", TierConfig, {"tiers": ["ground", "satellite"], "members": {"satellite": 0}}),
    # engine
    ("engine-string-timeout", EngineConfig, {"latency": "wlan", "round_timeout_s": "2"}),
    ("engine-fractional-waves", EngineConfig, {"latency": "wlan", "max_timeout_waves": 2.5}),
    ("engine-adversary-key", EngineConfig, {"latency": "wlan", "adversary": "inject"}),
    ("engine-unknown-profile", EngineConfig, "warp-drive"),
    ("engine-malformed-fixed", EngineConfig, "fixed:fast"),
    ("engine-nan-fixed", EngineConfig, "fixed:nan"),
    # scenario
    ("scenario-nan-loss", Scenario, {"loss_probability": NAN}),
    ("scenario-typo", Scenario, {"initial_sise": 5}),
    ("scenario-string-size", Scenario, {"initial_size": "8"}),
    ("scenario-one-member", Scenario, {"initial_size": 1}),
    ("scenario-float-seed", Scenario, {"seed": 1.5}),
    ("scenario-bad-bytes-seed", Scenario, {"seed": {"bytes": "zz"}}),
    # campaign
    ("campaign-typo", CampaignSpec, {"name": "x", "protocols": ["bd"], "typo": 1}),
    ("campaign-no-protocols", CampaignSpec, {"name": "x"}),
    ("campaign-bad-params", CampaignSpec, {"name": "x", "protocols": ["bd"], "params": "huge"}),
    ("campaign-loss-one", CampaignSpec, {"name": "x", "protocols": ["bd"], "losses": [1.0]}),
]


@pytest.mark.parametrize("cls, spec", [row[1:] for row in BAD_SPECS], ids=[row[0] for row in BAD_SPECS])
def test_bad_spec_fails_when_built(cls, spec):
    with pytest.raises(ParameterError):
        build(cls, spec)


def test_every_spec_class_has_a_bad_spec_row():
    covered = {cls for _, cls, _ in BAD_SPECS}
    assert [cls.__name__ for cls in SPEC_CLASSES if cls not in covered] == []


_TWO_TIERS = (("ground", "ground"), ("aerial", "aerial"))


@pytest.mark.parametrize(
    "build_directly",
    [
        lambda: MobilityConfig(model=RandomWaypoint(), area=Area(1.0, 1.0), tx_range=NAN, duration=1.0),
        lambda: AdversaryConfig(mitm_delay_s=-1.0),
        lambda: LinkClass("lan", bitrate_bps=NAN),
        lambda: EngineConfig(max_timeout_waves=2.5),
        lambda: Scenario(name="x", initial_size=4, loss_probability=NAN),
        lambda: PoissonChurn(length=3, join_rate=0.0, leave_rate=0.0),
        # A keyed entry given twice: its spec form (a mapping) would keep one.
        lambda: TierConfig(tiers=_TWO_TIERS, members=(("aerial", 1), ("aerial", 2))),
        lambda: TierConfig(tiers=_TWO_TIERS, gateways=(("ground", "aerial", 1), ("ground", "aerial", 1))),
        lambda: TierConfig(tiers=_TWO_TIERS, overrides=(("m1", "m2", "aerial"), ("m2", "m1", "satellite"))),
    ],
    ids=[
        "mobility",
        "adversary",
        "link-class",
        "engine",
        "scenario",
        "schedule",
        "tier-members-repeated",
        "tier-gateway-repeated",
        "tier-override-both-ways",
    ],
)
def test_direct_construction_fails_the_same_way(build_directly):
    with pytest.raises(ParameterError):
        build_directly()


def test_scenario_spec_defaults_and_override():
    scenario = build_scenario({"schedule": {"kind": "poisson", "length": 2}}, adversary_override="mitm")
    assert (scenario.name, scenario.initial_size) == ("cli-scenario", 8)
    assert scenario.adversary == AdversaryConfig.preset("mitm")
    with pytest.raises(ParameterError):
        build_scenario(["not", "a", "mapping"])
