"""JSON specs: one codec for every config.

A *spec* is the JSON-able dict form of a config object (a scenario and its
schedule, mobility, tiers and adversary, an engine profile, a campaign), and
the *codec* is the pair :func:`build` / :func:`to_spec`.  A spec holds only
JSON values, so it can cross process boundaries (campaign and fleet
workers), be content-hashed (the result cache) or be written to disk.

One rule validates every spec.  Each spec-built class declares each field's
type (its annotation) and constraint (:func:`repro.fields.param`: a range,
finiteness, choices) once, and :func:`repro.fields.settle` enforces those
declarations when the object is constructed, so a spec build and a direct
constructor call fail the same way.  :func:`build` raises
:class:`~repro.exceptions.ParameterError`, before anything runs, for

* an unknown key;
* a wrong JSON type: a bool or a string is never a number, and an int is
  accepted where a float is declared (JSON has one number type);
* NaN and ±inf;
* a value outside its declared range or choices.

Aliases are consulted before field-driven building, each from one table:
the engine profiles below, link-class and adversary presets, schedules and
trace events tagged by ``kind``, the flat mobility layout (a ``model`` name
with the model's fields beside the config's, ``area`` as ``[w, h]``),
``{"bytes": hex}`` seeds, and the mapping forms of tier ``members``,
``gateways`` (``"a:b"`` keys) and ``overrides`` (``"a|b"`` keys).

Round trip: ``build(cls, to_spec(x)) == x`` for every spec-expressible
object, and ``to_spec(build(cls, s)) == s`` for every spec ``to_spec``
emits, JSON number types included (an int stays an int unless the field
declares ``to_float``).  Hand-built ``ChurnSchedule`` subclasses and
custom latency models are not spec-expressible.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Dict, Optional, Tuple

from ..adversary.config import AdversaryConfig
from ..energy.transceiver import RADIO_100KBPS, WLAN_SPECTRUM24
from ..engine.executor import EngineConfig
from ..engine.latency import FixedLatency, LatencyModel, TieredLatency, TransceiverLatency
from ..exceptions import ParameterError
from ..fields import (
    Decl,
    alias,
    build,
    build_fields,
    converter,
    fields_spec,
    spec_fields,
    to_spec,
    union,
)
from ..mobility.config import MobilityConfig
from ..mobility.field import Area
from ..mobility.models import MobilityModel, RandomWaypoint, ReferencePointGroup, StaticGrid
from ..network.events import JoinEvent, LeaveEvent, MergeEvent, PartitionEvent
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
    "build",
    "to_spec",
    "build_scenario",
]

SCHEDULE_KINDS = {
    "poisson": PoissonChurn,
    "bursts": BurstPartitions,
    "merges": PeriodicMerges,
    "trace": TraceReplay,
}

MOBILITY_MODELS = {
    "static-grid": StaticGrid,
    "random-waypoint": RandomWaypoint,
    "rpgm": ReferencePointGroup,
}

#: The engine profiles that name a transceiver's latency.
_TRANSCEIVERS = {"radio": RADIO_100KBPS, "wlan": WLAN_SPECTRUM24}

#: Trace events by spec kind: the event class, its member field, the spec key.
_EVENTS = {
    "join": (JoinEvent, "joining", "member"),
    "leave": (LeaveEvent, "leaving", "member"),
    "merge": (MergeEvent, "other_group", "members"),
    "partition": (PartitionEvent, "leaving", "members"),
}
_MEMBER = converter(str, "member")
_MEMBERS = converter(Tuple[str, ...], "members")
_TIME = converter(float, "time", Decl(to_float=True))


# ------------------------------------------------------------------- engine
def _latency(profile: object) -> object:
    if not isinstance(profile, str):
        return NotImplemented
    if profile == "instant":
        return None
    if profile in _TRANSCEIVERS:
        return TransceiverLatency(_TRANSCEIVERS[profile])
    if profile == "tiered":
        # Binds to the scenario medium's tier map at executor start; on
        # non-tiered media it prices everything at the ground fallback.
        return TieredLatency()
    if profile.startswith("fixed:"):
        try:
            delay = float(profile[len("fixed:"):])
        except ValueError:
            raise ParameterError(f"malformed engine profile {profile!r}") from None
        return FixedLatency(delay)
    raise ParameterError(
        f"unknown engine profile {profile!r}; use instant, radio, wlan, tiered "
        "or fixed:<seconds>"
    )


def _knobs(latency: LatencyModel) -> Dict[str, object]:
    # A tier map discovered at run time rebinds per run: it is no knob.
    return {k: v for k, v in vars(latency).items() if k != "tier_map" or latency._explicit}


def _latency_profile(latency: LatencyModel) -> str:
    """The profile that builds ``latency``; other models have none."""
    if type(latency) is FixedLatency:
        text = f"{latency.delay_s:g}"
        return f"fixed:{text if float(text) == latency.delay_s else repr(latency.delay_s)}"
    for profile in (*_TRANSCEIVERS, "tiered"):
        default = _latency(profile)
        if type(latency) is type(default) and _knobs(latency) == _knobs(default):
            return profile
    raise ParameterError(
        f"latency model {latency.describe()} has no engine profile; it is not spec-serializable"
    )


def _engine(spec: object) -> object:
    """A profile string, or a field mapping; pure instant mode builds ``None``."""
    if isinstance(spec, str):
        spec = {"latency": spec}
    if not isinstance(spec, Mapping):
        return NotImplemented
    engine = build_fields(EngineConfig, spec)
    return None if set(spec) <= {"latency"} and engine.latency is None else engine


def _engine_spec(engine: EngineConfig) -> object:
    """The profile string, with a dict around it when other fields differ."""
    if engine.adversary is not None:
        raise ParameterError(
            "an EngineConfig carrying a live adversary suite is not "
            "spec-serializable; configure the adversary on the scenario instead"
        )
    spec = fields_spec(engine, sparse=True)
    profile = spec.pop("latency", "instant")
    return {"latency": profile, **spec} if spec else profile


alias(LatencyModel, decode=_latency, encode=_latency_profile)
alias(EngineConfig, decode=_engine, encode=_engine_spec)


# ---------------------------------------------------------------- schedules
def _event(spec: object) -> object:
    """One trace event: ``{"kind", "member"|"members"}``, optionally ``time``-stamped."""
    if not isinstance(spec, Mapping):
        raise ParameterError(f"a trace event spec must be a mapping, got {spec!r}")
    spec = dict(spec)
    time = spec.pop("time", None)
    kind = spec.pop("kind", None)
    if kind not in _EVENTS:
        raise ParameterError(f"event.kind must be join/leave/merge/partition, got {kind!r}")
    cls, field, key = _EVENTS[kind]
    names = spec.pop(key, None)
    if spec:
        raise ParameterError(f"unknown {kind} event spec keys: {sorted(spec)}")
    if key == "member":
        event = cls(**{field: Identity(_MEMBER(names))})
    else:
        event = cls(**{field: tuple(map(Identity, _MEMBERS(names)))})
    return event if time is None else ScheduledEvent(time=_TIME(time), event=event)


def _event_spec(event: object) -> Dict[str, object]:
    spec: Dict[str, object] = {}
    if isinstance(event, ScheduledEvent):
        spec["time"] = event.time
        event = event.event
    for kind, (cls, field, key) in _EVENTS.items():
        if type(event) is cls:
            value = getattr(event, field)
            names = value.name if key == "member" else [m.name for m in value]
            spec.update({"kind": kind, key: names})
            return spec
    raise ParameterError(f"unknown membership event {event!r}")


def _trace(spec: object) -> object:
    if not isinstance(spec, Mapping):
        return NotImplemented
    events = spec.get("events", ())
    if isinstance(events, (list, tuple)):
        events = tuple(_event(entry) for entry in events)
    return build_fields(TraceReplay, {**spec, "events": events})


union(ChurnSchedule, "kind", SCHEDULE_KINDS, "schedule.kind")
alias(TraceReplay, decode=_trace)
for _cls in (ScheduledEvent, *(cls for cls, _, _ in _EVENTS.values())):
    alias(_cls, encode=_event_spec)


# ----------------------------------------------------------------- mobility
def _mobility(spec: object) -> object:
    """The flat layout: the model's name and fields beside the config's."""
    if not isinstance(spec, Mapping):
        return NotImplemented
    config = dict(spec)
    name = config.pop("model", "random-waypoint")
    if not isinstance(name, str) or name not in MOBILITY_MODELS:
        raise ParameterError(
            f"mobility.model must be one of {sorted(MOBILITY_MODELS)}, got {name!r}"
        )
    model_cls = MOBILITY_MODELS[name]
    own = spec_fields(model_cls)
    model = build_fields(model_cls, {key: config.pop(key) for key in list(config) if key in own})
    config.setdefault("area", [500.0, 500.0])
    return build_fields(MobilityConfig, {**config, "model": model})


def _mobility_spec(mobility: MobilityConfig) -> Dict[str, object]:
    spec = fields_spec(mobility)
    return {**spec.pop("model"), **spec}


def _area(spec: object) -> object:
    if isinstance(spec, (list, tuple)) and len(spec) == 2:
        return Area(*spec)
    return NotImplemented


union(MobilityModel, "model", MOBILITY_MODELS, "mobility.model")
alias(MobilityConfig, decode=_mobility, encode=_mobility_spec)
alias(Area, decode=_area, encode=lambda area: [area.width, area.height])


# ---------------------------------------------------------------- adversary
def _adversary(spec: object) -> object:
    """A preset name, or the field mapping as an inline JSON string."""
    if not isinstance(spec, str):
        return NotImplemented
    text = spec.strip()
    if not text.startswith("{"):
        return AdversaryConfig.preset(text)
    try:
        fields = json.loads(text)
    except ValueError as exc:
        raise ParameterError(f"malformed inline adversary JSON: {exc}") from None
    return build_fields(AdversaryConfig, fields)


alias(AdversaryConfig, decode=_adversary)


# ---------------------------------------------------------------- scenarios
def _bytes_seed(spec: object) -> bytes:
    if isinstance(spec, Mapping) and set(spec) == {"bytes"} and isinstance(spec["bytes"], str):
        try:
            return bytes.fromhex(spec["bytes"])
        except ValueError:
            pass
    raise ParameterError(f"malformed seed spec {spec!r}")


alias(bytes, decode=_bytes_seed, encode=lambda seed: {"bytes": seed.hex()})


def _scenario(spec: object) -> object:
    if not isinstance(spec, Mapping):
        return NotImplemented
    return build_fields(Scenario, {"name": "cli-scenario", "initial_size": 8, **spec})


alias(
    Scenario,
    decode=_scenario,
    encode=lambda scenario: fields_spec(scenario, sparse=True, keep=("seed",)),
)


def build_scenario(spec: Mapping, *, adversary_override: Optional[str] = None) -> Scenario:
    """A :class:`Scenario` from its spec; ``adversary_override`` replaces its adversary.

    The override is a preset name or inline JSON (the sim CLI's
    ``--adversary``).
    """
    if not isinstance(spec, Mapping):
        raise ParameterError(f"a scenario spec must be a mapping, got {spec!r}")
    if adversary_override is not None:
        spec = {**spec, "adversary": adversary_override}
    return build(Scenario, spec)
