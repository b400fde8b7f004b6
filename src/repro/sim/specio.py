"""JSON scenario specs: build :class:`Scenario` objects from plain dicts.

This module is the serialization boundary of the scenario engine.  A *spec*
is a plain JSON-able dict describing one :class:`~repro.sim.scenarios.Scenario`
(see :mod:`repro.sim.__main__` for the CLI's documented shape); the builders
here turn specs into live objects, and the ``*_to_spec`` inverses turn live
objects back into specs.  Because a spec contains only JSON scalars, it can
cross process boundaries (the :mod:`repro.campaign` workers), be content-hashed
(the campaign result cache) or be written to disk — none of which a live
scenario with its RNG-bearing media can do safely.

Round-trip guarantee: ``build_scenario(scenario_to_spec(s))`` constructs a
scenario whose expansion, seeds and description equal ``s``'s, for every
scenario expressible as a spec (declarative schedules, trace replays,
mobility configs and adversary configs all are; hand-built ``ChurnSchedule``
subclasses are not).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Mapping, Optional, Union

from ..adversary.config import AdversaryConfig
from ..energy.transceiver import RADIO_100KBPS, WLAN_SPECTRUM24
from ..engine.executor import EngineConfig
from ..engine.latency import FixedLatency, TieredLatency, TransceiverLatency
from ..exceptions import ParameterError
from ..mobility.config import MobilityConfig
from ..network.tiers import TierConfig
from ..mobility.field import Area
from ..mobility.models import RandomWaypoint, ReferencePointGroup, StaticGrid
from ..network.events import (
    JoinEvent,
    LeaveEvent,
    MembershipEvent,
    MergeEvent,
    PartitionEvent,
)
from ..pki.identity import Identity
from .scenarios import (
    BurstPartitions,
    ChurnSchedule,
    PeriodicMerges,
    PoissonChurn,
    Scenario,
    ScheduledEvent,
    TraceReplay,
)

__all__ = [
    "SCHEDULE_KINDS",
    "MOBILITY_MODELS",
    "build_schedule",
    "build_mobility",
    "build_adversary",
    "build_engine",
    "build_event",
    "build_scenario",
    "build_tiers",
    "event_to_spec",
    "schedule_to_spec",
    "mobility_to_spec",
    "adversary_to_spec",
    "engine_to_spec",
    "scenario_to_spec",
    "tiers_to_spec",
    "seed_to_spec",
    "build_seed",
]

SCHEDULE_KINDS = {
    "poisson": PoissonChurn,
    "bursts": BurstPartitions,
    "merges": PeriodicMerges,
}

MOBILITY_MODELS = {
    "static-grid": StaticGrid,
    "random-waypoint": RandomWaypoint,
    "rpgm": ReferencePointGroup,
}


# --------------------------------------------------------------------- seeds
def seed_to_spec(seed: object) -> object:
    """A JSON-able form of a scenario seed (bytes become a tagged hex dict)."""
    if isinstance(seed, bytes):
        return {"bytes": seed.hex()}
    if seed is None or isinstance(seed, (int, str)):
        return seed
    raise ParameterError(f"seed {seed!r} is not spec-serializable")


def build_seed(spec: object) -> object:
    """Invert :func:`seed_to_spec` (tagged hex dicts become bytes again)."""
    if isinstance(spec, dict):
        try:
            return bytes.fromhex(spec["bytes"])
        except (KeyError, TypeError, ValueError):
            raise ParameterError(f"malformed seed spec {spec!r}") from None
    return spec


# -------------------------------------------------------------------- events
def event_to_spec(event: Union[MembershipEvent, ScheduledEvent]) -> Dict[str, object]:
    """One membership event (optionally time-stamped) as a JSON-able dict."""
    spec: Dict[str, object] = {}
    if isinstance(event, ScheduledEvent):
        spec["time"] = event.time
        event = event.event
    if isinstance(event, JoinEvent):
        spec.update(kind="join", member=event.joining.name)
    elif isinstance(event, LeaveEvent):
        spec.update(kind="leave", member=event.leaving.name)
    elif isinstance(event, MergeEvent):
        spec.update(kind="merge", members=[m.name for m in event.other_group])
    elif isinstance(event, PartitionEvent):
        spec.update(kind="partition", members=[m.name for m in event.leaving])
    else:
        raise ParameterError(f"unknown membership event {event!r}")
    return spec


def build_event(spec: Mapping) -> Union[MembershipEvent, ScheduledEvent]:
    """Invert :func:`event_to_spec`."""
    spec = dict(spec)
    time = spec.pop("time", None)
    kind = spec.pop("kind", None)
    event: MembershipEvent
    if kind == "join":
        event = JoinEvent(joining=Identity(spec["member"]))
    elif kind == "leave":
        event = LeaveEvent(leaving=Identity(spec["member"]))
    elif kind == "merge":
        event = MergeEvent(other_group=tuple(Identity(name) for name in spec["members"]))
    elif kind == "partition":
        event = PartitionEvent(leaving=tuple(Identity(name) for name in spec["members"]))
    else:
        raise ParameterError(
            f"event.kind must be join/leave/merge/partition, got {kind!r}"
        )
    if time is not None:
        return ScheduledEvent(time=float(time), event=event)
    return event


# ----------------------------------------------------------------- schedules
def build_schedule(spec: Optional[Mapping]) -> Optional[ChurnSchedule]:
    """A :class:`ChurnSchedule` from its spec dict (``None`` passes through)."""
    if spec is None:
        return None
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind == "trace":
        spacing = spec.pop("spacing", 1.0)
        events = tuple(build_event(entry) for entry in spec.pop("events", ()))
        if spec:
            raise ParameterError(f"unknown trace schedule keys: {sorted(spec)}")
        return TraceReplay(events=events, spacing=float(spacing))
    if kind not in SCHEDULE_KINDS:
        raise ParameterError(
            f"schedule.kind must be one of {sorted(SCHEDULE_KINDS) + ['trace']}, got {kind!r}"
        )
    return SCHEDULE_KINDS[kind](**spec)


def schedule_to_spec(schedule: Optional[ChurnSchedule]) -> Optional[Dict[str, object]]:
    """Invert :func:`build_schedule` for the declarative schedule classes."""
    if schedule is None:
        return None
    if isinstance(schedule, TraceReplay):
        return {
            "kind": "trace",
            "spacing": schedule.spacing,
            "events": [event_to_spec(event) for event in schedule.events],
        }
    for kind, cls in SCHEDULE_KINDS.items():
        if type(schedule) is cls:
            return {"kind": kind, **dataclasses.asdict(schedule)}
    raise ParameterError(
        f"schedule {type(schedule).__name__} is not spec-serializable; "
        "use one of the declarative schedule classes"
    )


# ------------------------------------------------------------------ mobility
def build_mobility(spec: Optional[Mapping]) -> Optional[MobilityConfig]:
    """A :class:`MobilityConfig` from its spec dict (``None`` passes through)."""
    if spec is None:
        return None
    spec = dict(spec)
    model_name = spec.pop("model", "random-waypoint")
    if model_name not in MOBILITY_MODELS:
        raise ParameterError(
            f"mobility.model must be one of {sorted(MOBILITY_MODELS)}, got {model_name!r}"
        )
    model_cls = MOBILITY_MODELS[model_name]
    model_fields = {
        name: spec.pop(name)
        for name in list(spec)
        if name in getattr(model_cls, "__dataclass_fields__", {})
    }
    area = spec.pop("area", [500.0, 500.0])
    return MobilityConfig(
        model=model_cls(**model_fields),
        area=Area(float(area[0]), float(area[1])),
        **spec,
    )


def mobility_to_spec(mobility: Optional[MobilityConfig]) -> Optional[Dict[str, object]]:
    """Invert :func:`build_mobility` for the named mobility models."""
    if mobility is None:
        return None
    for name, cls in MOBILITY_MODELS.items():
        if type(mobility.model) is cls:
            model_name = name
            break
    else:
        raise ParameterError(
            f"mobility model {type(mobility.model).__name__} is not spec-serializable"
        )
    spec: Dict[str, object] = {"model": model_name}
    spec.update(dataclasses.asdict(mobility.model))
    spec["area"] = [mobility.area.width, mobility.area.height]
    for field_ in dataclasses.fields(MobilityConfig):
        if field_.name in ("model", "area"):
            continue
        spec[field_.name] = getattr(mobility, field_.name)
    return spec


# ----------------------------------------------------------------- adversary
def build_adversary(spec: object) -> Optional[AdversaryConfig]:
    """An :class:`AdversaryConfig` from a preset name, spec dict or instance."""
    if spec is None:
        return None
    if isinstance(spec, AdversaryConfig):
        return spec
    if isinstance(spec, str):
        text = spec.strip()
        if text.startswith("{"):
            return AdversaryConfig(**json.loads(text))
        return AdversaryConfig.preset(text)
    if isinstance(spec, Mapping):
        return AdversaryConfig(**spec)
    raise ParameterError(f"cannot build an adversary from {spec!r}")


def adversary_to_spec(adversary: Optional[AdversaryConfig]) -> Optional[Dict[str, object]]:
    """Invert :func:`build_adversary` (always the explicit field-dict form)."""
    if adversary is None:
        return None
    spec = dataclasses.asdict(adversary)
    spec["target_parts"] = list(spec["target_parts"])
    return spec


# --------------------------------------------------------------------- tiers
def build_tiers(spec: Optional[Mapping]) -> Optional[TierConfig]:
    """A :class:`TierConfig` from its spec dict (``None`` passes through).

    The spec's ``tiers`` entries name their link classes by preset
    (``ground`` / ``aerial`` / ``satellite`` / ``satellite-bursty``) or
    carry explicit field dicts; see :class:`~repro.network.tiers.TierConfig`
    for the ``members`` / ``gateways`` / ``overrides`` shapes.
    """
    if spec is None:
        return None
    if isinstance(spec, TierConfig):
        return spec
    spec = dict(spec)
    unknown = set(spec) - set(TierConfig.__dataclass_fields__)
    if unknown:
        raise ParameterError(f"unknown tiers spec keys: {sorted(unknown)}")
    if "tiers" not in spec:
        raise ParameterError("a tiers spec needs a 'tiers' entry")
    return TierConfig(**spec)


def tiers_to_spec(tiers: Optional[TierConfig]) -> Optional[Dict[str, object]]:
    """Invert :func:`build_tiers` (presets collapse to their names)."""
    if tiers is None:
        return None
    return tiers.to_spec()


# -------------------------------------------------------------------- engine
#: The :class:`EngineConfig` fields an engine spec dict may set beside ``latency``.
_ENGINE_EXTRAS = ("round_timeout_s", "max_timeout_waves")


def build_engine(spec: Union[str, Mapping, None]) -> Optional[EngineConfig]:
    """An :class:`EngineConfig` from a profile string or spec dict.

    Profile strings: ``instant`` (or ``None``) for the synchronous-equivalent
    driver, ``radio`` / ``wlan`` for :class:`TransceiverLatency` over the
    named transceivers, ``fixed:<seconds>`` for :class:`FixedLatency`.  The
    dict form carries a ``latency`` profile string plus ``round_timeout_s``
    and ``max_timeout_waves`` — exactly the keys :func:`engine_to_spec`
    emits; any other key raises :class:`~repro.exceptions.ParameterError`
    (an adversary goes on the scenario, never on the engine).
    """
    if spec is None:
        return None
    if isinstance(spec, Mapping):
        spec = dict(spec)
        unknown = set(spec) - {"latency", *_ENGINE_EXTRAS}
        if unknown:
            raise ParameterError(f"unknown engine spec keys: {sorted(unknown)}")
        latency_spec = spec.pop("latency", None)
        latency = None
        if latency_spec is not None:
            built = build_engine(latency_spec)
            latency = built.latency if built is not None else None
        if latency is None and not spec:
            return None
        return EngineConfig(latency=latency, **spec)
    if spec == "instant":
        return None
    if spec == "radio":
        return EngineConfig(latency=TransceiverLatency(RADIO_100KBPS))
    if spec == "wlan":
        return EngineConfig(latency=TransceiverLatency(WLAN_SPECTRUM24))
    if spec == "tiered":
        # Binds to the scenario medium's tier map at executor start; on
        # non-tiered media it prices everything at the ground fallback.
        return EngineConfig(latency=TieredLatency())
    if spec.startswith("fixed:"):
        return EngineConfig(latency=FixedLatency(float(spec.split(":", 1)[1])))
    raise ParameterError(
        f"unknown engine profile {spec!r}; use instant, radio, wlan, tiered "
        "or fixed:<seconds>"
    )


def engine_to_spec(engine: Optional[EngineConfig]) -> Union[str, Dict[str, object]]:
    """Invert :func:`build_engine` for the profile-expressible configurations.

    Raises :class:`~repro.exceptions.ParameterError` for configurations a
    spec cannot express (custom latency models, non-default transceiver
    latency knobs, an attached adversary suite — the campaign attaches
    adversaries per cell, never on the engine spec).
    """
    if engine is None:
        return "instant"
    if engine.adversary is not None:
        raise ParameterError(
            "an EngineConfig carrying a live adversary suite is not "
            "spec-serializable; configure the adversary on the scenario instead"
        )
    latency = engine.latency
    if latency is None:
        profile = "instant"
    elif isinstance(latency, FixedLatency):
        profile = f"fixed:{latency.delay_s:g}"
    elif isinstance(latency, TransceiverLatency):
        default = TransceiverLatency(latency.transceiver)
        if (
            latency.per_hop_overhead_s != default.per_hop_overhead_s
            or latency.propagation_m_per_s != default.propagation_m_per_s
        ):
            raise ParameterError(
                "TransceiverLatency with non-default overhead/propagation "
                "is not spec-serializable"
            )
        if latency.transceiver is RADIO_100KBPS:
            profile = "radio"
        elif latency.transceiver is WLAN_SPECTRUM24:
            profile = "wlan"
        else:
            raise ParameterError(
                f"transceiver {latency.transceiver.name!r} has no engine profile name"
            )
    elif isinstance(latency, TieredLatency):
        default = TieredLatency()
        if (
            latency._explicit
            or latency.per_hop_overhead_s != default.per_hop_overhead_s
            or latency.fallback != default.fallback
            or latency.propagation_m_per_s != default.propagation_m_per_s
        ):
            # A runtime-discovered tier_map is fine (it rebinds per run),
            # but an explicitly pinned map or non-default knobs are not
            # expressible as the bare profile string.
            raise ParameterError(
                "TieredLatency with an explicit tier map or non-default "
                "knobs is not spec-serializable"
            )
        profile = "tiered"
    else:
        raise ParameterError(
            f"latency model {type(latency).__name__} is not spec-serializable"
        )
    defaults = EngineConfig()
    extras = {
        name: getattr(engine, name)
        for name in _ENGINE_EXTRAS
        if getattr(engine, name) != getattr(defaults, name)
    }
    if not extras:
        return profile
    return {"latency": profile, **extras}


# ----------------------------------------------------------------- scenarios
def build_scenario(spec: Mapping, *, adversary_override: Optional[str] = None) -> Scenario:
    """Turn a parsed JSON spec into a :class:`Scenario`.

    Unknown keys raise :class:`~repro.exceptions.ParameterError` — scenario
    specs cross process and *network* boundaries (the campaign workers, the
    fleet wire protocol), so a typo must come back as one clean error line,
    not a ``TypeError`` traceback from the dataclass constructor.
    """
    spec = dict(spec)
    adversary_spec = spec.pop("adversary", None)
    if adversary_override is not None:
        adversary_spec = adversary_override
    if "seed" in spec:
        spec["seed"] = build_seed(spec["seed"])
    handled = {"name", "initial_size", "schedule", "mobility", "tiers"}
    unknown = set(spec) - set(Scenario.__dataclass_fields__) - handled
    if unknown:
        raise ParameterError(f"unknown scenario spec keys: {sorted(unknown)}")
    return Scenario(
        name=spec.pop("name", "cli-scenario"),
        initial_size=int(spec.pop("initial_size", 8)),
        schedule=build_schedule(spec.pop("schedule", None)),
        mobility=build_mobility(spec.pop("mobility", None)),
        tiers=build_tiers(spec.pop("tiers", None)),
        adversary=build_adversary(adversary_spec),
        **spec,
    )


def scenario_to_spec(scenario: Scenario) -> Dict[str, object]:
    """Invert :func:`build_scenario` for spec-expressible scenarios."""
    spec: Dict[str, object] = {
        "name": scenario.name,
        "initial_size": scenario.initial_size,
        "seed": seed_to_spec(scenario.seed),
    }
    if scenario.schedule is not None:
        spec["schedule"] = schedule_to_spec(scenario.schedule)
    if scenario.mobility is not None:
        spec["mobility"] = mobility_to_spec(scenario.mobility)
    if scenario.tiers is not None:
        spec["tiers"] = tiers_to_spec(scenario.tiers)
    if scenario.adversary is not None:
        spec["adversary"] = adversary_to_spec(scenario.adversary)
    if scenario.loss_probability != 0.0:
        spec["loss_probability"] = scenario.loss_probability
    if scenario.max_retries != 10:
        spec["max_retries"] = scenario.max_retries
    if scenario.min_group_size != 3:
        spec["min_group_size"] = scenario.min_group_size
    if scenario.member_prefix != "member":
        spec["member_prefix"] = scenario.member_prefix
    return spec
