"""Shared workloads for the engine equivalence suite.

The reactive engine refactor (per-party round state machines driven by a
virtual-time event kernel) must leave the synchronous ``Protocol.run()`` /
``apply_event()`` path *bit-identical*: same group keys, same medium
transcript (order, senders, labels, wire sizes, payload values), same
per-node energy ledgers.  This module defines the canonical workloads and
capture format; ``make_engine_equivalence.py`` froze their output from the
pre-refactor code into ``tests/fixtures/engine_equivalence.json``, and
``test_engine_equivalence.py`` re-runs them against the current code and
compares byte for byte.

The workloads cover, for each of the six flat protocols (the eight in the
protocol table minus the two ``cluster`` ones):

* a lossless 5-member establishment,
* a lossy 5-member establishment (per-broadcast loss with seeded retries),
* a join → leave → merge → partition event chain over a shared medium
  (native dynamic sub-protocols for the proposed scheme, re-execution for
  every baseline),
* latency mode: over 20 seeds, an establishment, a join, a leave and a
  partition under :class:`~repro.engine.latency.TransceiverLatency` on a
  lossy :class:`~repro.mobility.relay.MultiHopMedium` (a jittered 3x3 grid,
  so floods relay over several hops and reorder rounds; the round machines
  hold Round-2 copies that overtake Round 1 and replay them).  Bulky fields
  of this section (member keys, ledgers, transcript, retry attempts) are
  pinned by digest to keep the fixture small.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.core import SystemSetup
from repro.core.registry import available_protocols, create_protocol, protocol_tags
from repro.energy import WLAN_SPECTRUM24
from repro.engine import EngineConfig, TransceiverLatency
from repro.mathutils.rand import DeterministicRNG
from repro.mobility import Area, MobilityField, MultiHopMedium, RadioLink, StaticGrid
from repro.network.events import JoinEvent, LeaveEvent, MergeEvent, PartitionEvent
from repro.network.medium import BroadcastMedium
from repro.pki import Identity

__all__ = ["run_workloads", "flat_protocols", "FIXTURE_RELPATH"]

#: Where the golden capture lives, relative to the tests directory.
FIXTURE_RELPATH = "fixtures/engine_equivalence.json"

#: Seeds of the latency workload; each one jitters the grid differently.
LATENCY_SEEDS = tuple(range(20))


# ---------------------------------------------------------------------------
# Capture helpers
# ---------------------------------------------------------------------------

def _encode_value(value: object) -> str:
    """A stable textual encoding of one message-part value."""
    if isinstance(value, int):
        return f"int:{value:x}"
    if isinstance(value, bytes):
        return f"bytes:{value.hex()}"
    if isinstance(value, str):
        return f"str:{value}"
    if isinstance(value, Identity):
        return f"identity:{value.name}"
    to_bytes = getattr(value, "to_bytes", None)
    if callable(to_bytes):  # AuthenticatedCiphertext and friends
        return f"{type(value).__name__}:{to_bytes().hex()}"
    components = getattr(value, "components", None)
    if components is not None:  # Signature
        inner = ",".join(f"{k}={components[k]:x}" for k in sorted(components))
        return f"sig:{getattr(value, 'scheme', '?')}:{inner}"
    tbs = getattr(value, "tbs_bytes", None)
    if callable(tbs):  # Certificate
        signature = _encode_value(value.ca_signature)
        return f"cert:{tbs().hex()}:{signature}"
    return f"repr:{value!r}"


def _message_entry(message) -> Dict[str, object]:
    hasher = hashlib.sha256()
    for part in message.parts:
        hasher.update(f"{part.name}|{part.bits}|{_encode_value(part.value)}|".encode())
    recipients = (
        None
        if message.recipients is None
        else sorted(identity.name for identity in message.recipients)
    )
    return {
        "sender": message.sender.name,
        "round": message.round_label,
        "bits": message.wire_bits,
        "recipients": recipients,
        "digest": hasher.hexdigest(),
    }


def _capture_medium(medium: BroadcastMedium) -> Dict[str, object]:
    return {
        "transcript": [_message_entry(message) for message in medium.transcript],
        "attempts": [receipt.attempts for receipt in medium.receipts],
        "total_bits": medium.total_bits(),
        "total_bits_with_retries": medium.total_bits(include_retries=True),
    }


def _capture_result(result) -> Dict[str, object]:
    state = result.state
    key = result.group_key
    return {
        "protocol": result.protocol,
        "rounds": result.rounds,
        "group_key": None if key is None else f"{key:x}",
        "member_keys": {
            name: (None if k is None else f"{k:x}")
            for name, k in sorted(state.keys_by_member().items())
        },
        "ring": [identity.name for identity in state.members],
        "ledgers": {
            name: dict(sorted(recorder.snapshot().items()))
            for name, recorder in sorted(state.recorders().items())
        },
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _fresh_setup() -> SystemSetup:
    return SystemSetup.from_param_sets("test-256", "gq-test-256")


def _members(count: int, prefix: str) -> List[Identity]:
    return [Identity(f"{prefix}-{i:02d}") for i in range(count)]


def _lossless_run(protocol_name: str) -> Dict[str, object]:
    setup = _fresh_setup()
    protocol = create_protocol(protocol_name, setup)
    result = protocol.run(_members(5, "eq"), seed=101)
    return {"result": _capture_result(result), "medium": _capture_medium(result.medium)}


def _lossy_run(protocol_name: str) -> Dict[str, object]:
    setup = _fresh_setup()
    protocol = create_protocol(protocol_name, setup)
    medium = BroadcastMedium(
        loss_probability=0.25,
        max_retries=50,
        rng=DeterministicRNG(f"eq/{protocol_name}", label="medium"),
    )
    result = protocol.run(_members(5, "eql"), medium=medium, seed=202)
    return {"result": _capture_result(result), "medium": _capture_medium(result.medium)}


def _event_chain(protocol_name: str) -> Dict[str, object]:
    setup = _fresh_setup()
    protocol = create_protocol(protocol_name, setup)
    medium = BroadcastMedium()
    result = protocol.run(_members(6, "eqd"), medium=medium, seed=303)
    steps = [{"kind": "establish", **_capture_result(result)}]
    state = result.state

    events = [
        ("join", lambda s: JoinEvent(joining=Identity("eqd-new"))),
        ("leave", lambda s: LeaveEvent(leaving=s.members[2])),
        (
            "merge",
            lambda s: MergeEvent(other_group=tuple(_members(3, "eqm"))),
        ),
        (
            "partition",
            lambda s: PartitionEvent(leaving=(s.members[1], s.members[3])),
        ),
    ]
    for position, (kind, build) in enumerate(events, start=1):
        event = build(state)
        result = protocol.apply_event(state, event, medium=medium, seed=300 + position)
        state = result.state
        steps.append({"kind": kind, **_capture_result(result)})
    return {"steps": steps, "medium": _capture_medium(medium)}


def _digest(value: object) -> str:
    """64 bits of SHA-256 over the canonical JSON of ``value``."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def _latency_step(kind: str, result) -> Dict[str, object]:
    captured = _capture_result(result)
    return {
        "kind": kind,
        "protocol": captured["protocol"],
        "group_key": captured["group_key"],
        "member_keys": _digest(captured["member_keys"]),
        "ring": ",".join(captured["ring"]),
        "ledgers": _digest(captured["ledgers"]),
        "sim_latency_s": result.sim_latency_s,
        "timeouts": result.timeouts,
    }


def _latency_run(protocol_name: str, seed: int) -> Dict[str, object]:
    setup = _fresh_setup()
    protocol = create_protocol(protocol_name, setup)
    members = _members(8, "eqt")
    newcomer = Identity("eqt-new")
    # Nine nodes on a 3x3 grid 100 m apart with a 180 m range: diagonal
    # neighbours are in range, opposite corners are two hops apart, and the
    # group stays connected after the leave and the partition below.
    field = MobilityField(
        [m.name for m in members] + [newcomer.name],
        StaticGrid(jitter=10.0),
        Area(300.0, 300.0),
        1.0,
        DeterministicRNG(seed, label="field"),
    )
    medium = MultiHopMedium(
        field,
        RadioLink(field, 180.0, base_loss=0.1, edge_loss=0.3),
        max_hops=4,
        rng=DeterministicRNG(seed, label="medium"),
    )
    engine = EngineConfig(latency=TransceiverLatency(WLAN_SPECTRUM24))
    result = protocol.run(members, medium=medium, seed=seed, engine=engine)
    steps = [_latency_step("establish", result)]
    state = result.state
    events = [
        ("join", lambda s: JoinEvent(joining=newcomer)),
        ("leave", lambda s: LeaveEvent(leaving=s.members[2])),
        ("partition", lambda s: PartitionEvent(leaving=(s.members[1], s.members[3]))),
    ]
    for position, (kind, build) in enumerate(events, start=1):
        result = protocol.apply_event(
            state, build(state), medium=medium, seed=seed * 10 + position, engine=engine
        )
        state = result.state
        steps.append(_latency_step(kind, result))
    captured = _capture_medium(medium)
    return {
        "steps": steps,
        "medium": {
            "messages": len(captured["transcript"]),
            "transcript": _digest(captured["transcript"]),
            "attempts": _digest(captured["attempts"]),
            "total_bits": captured["total_bits"],
            "total_bits_with_retries": captured["total_bits_with_retries"],
        },
    }


def flat_protocols() -> List[str]:
    """The table's flat protocols — the ones the golden capture pins.

    The hierarchical ``cluster`` protocols are excluded by tag rather than by
    name: they were added after the fixture was frozen and their state is
    sparse per-cluster, so they carry their own correctness suite
    (``test_cluster.py``) instead of a seed capture.
    """
    return [
        name
        for name in available_protocols()
        if "cluster" not in protocol_tags(name)
    ]


def run_workloads() -> Dict[str, object]:
    """Execute every equivalence workload and return the capture dictionary."""
    capture: Dict[str, object] = {}
    for protocol_name in flat_protocols():
        capture[protocol_name] = {
            "lossless": _lossless_run(protocol_name),
            "lossy": _lossy_run(protocol_name),
            "events": _event_chain(protocol_name),
            "latency": {
                f"seed-{seed:02d}": _latency_run(protocol_name, seed) for seed in LATENCY_SEEDS
            },
        }
    return capture


if __name__ == "__main__":  # pragma: no cover - fixture (re)generation entry point
    import os

    here = os.path.dirname(os.path.abspath(__file__))
    path = os.path.join(here, FIXTURE_RELPATH)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(run_workloads(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
