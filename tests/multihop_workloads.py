"""Seeded multi-hop delivery workloads for the frozen-receipt suite.

The golden engine fixtures run on single-hop media only, so they cannot see
a change to how :class:`~repro.mobility.relay.MultiHopMedium` floods.  This
module drives the multi-hop media directly — ``send`` (retry waves over
lossy links, with a flood TTL that binds, and retries that run out) and
``transmit`` (one wave) — and captures every receipt field and every
node's ledger.  ``fixtures/multihop_delivery.json`` holds the capture;
``test_multihop_delivery.py`` re-runs the workloads and compares them run by
run.

Regenerate the fixture only when a change is *meant* to move the numbers::

    PYTHONPATH=src python tests/multihop_workloads.py
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List

from repro.exceptions import NetworkError
from repro.mathutils.rand import DeterministicRNG
from repro.mobility import Area, MobilityField, MultiHopMedium, RadioLink, StaticGrid
from repro.mobility.tiered import TieredMedium
from repro.network import Message, MessagePart, Node, TierConfig
from repro.pki import Identity

__all__ = ["FIXTURE_RELPATH", "MEDIA", "MODES", "SEEDS", "run_workload"]

#: Where the capture lives, relative to the tests directory.
FIXTURE_RELPATH = "fixtures/multihop_delivery.json"

SEEDS = tuple(range(20))
MODES = ("send", "transmit")
STEPS = 12


def _grid(seed: int) -> MultiHopMedium:
    # 4x4 grid, 100 m apart, 120 m range: corner to corner is six hops, so
    # a two-hop TTL leaves far members to the retry waves.
    names = [f"m{i}" for i in range(16)]
    field = MobilityField(
        names, StaticGrid(), Area(400.0, 400.0), 1.0, DeterministicRNG(seed, label="field")
    )
    link = RadioLink(field, 120.0, base_loss=0.15, edge_loss=0.35)
    return MultiHopMedium(
        field, link, max_hops=2, max_retries=60, rng=DeterministicRNG(seed, label="medium")
    )


def _tiered(seed: int) -> TieredMedium:
    # ground m0-m5, sat m6-m8, air m9-m11; m0 bridges ground to air and m9
    # air to sat, so ground to sat is three hops against a two-hop TTL.
    # While m0 is away (see MEDIA) the ground is cut off from the rest.
    config = TierConfig(
        tiers={"ground": "ground", "sat": "satellite-bursty", "air": "aerial"},
        members={"air": 3, "sat": 3},
        gateways={"ground:air": 1, "air:sat": 1},
        loss_floor=0.15,
    )
    tier_map = config.build_map([f"m{i}" for i in range(12)])
    return TieredMedium(
        tier_map, max_hops=2, max_retries=60, rng=DeterministicRNG(seed, label="medium")
    )


#: medium name -> (factory, node count, late joiner, leaver, exhaustion send)
MEDIA = {
    "grid": (_grid, 16, "m15", "m5", ("m0", "m14")),
    "tiered": (_tiered, 12, "m5", "m0", ("m3", "m7")),
}


def _receipt(receipt) -> Dict[str, object]:
    return {
        "attempts": receipt.attempts,
        "delivered_to": [identity.name for identity in receipt.delivered_to],
        "hops": receipt.hops,
        "transmissions": receipt.transmissions,
        "relay_bits": receipt.relay_bits,
        "hop_by_receiver": dict(sorted(receipt.hop_by_receiver.items())),
    }


def run_workload(medium_name: str, mode: str, seed: int) -> Dict[str, object]:
    """One seeded message sequence through one medium; the full capture."""
    build, count, late, leaver, (far_sender, far_receiver) = MEDIA[medium_name]
    medium = build(seed)
    picker = random.Random(f"{medium_name}/{seed}")
    nodes = {f"m{i}": Node(Identity(f"m{i}")) for i in range(count)}
    for name, node in nodes.items():
        if name != late:
            medium.attach(node)
    deliver = getattr(medium, mode)
    outcomes: List[Dict[str, object]] = []

    def run(message: Message) -> None:
        try:
            outcomes.append(_receipt(deliver(message)))
        except NetworkError as exc:
            outcomes.append({"error": str(exc)})

    for step in range(STEPS):
        if step == 4:
            medium.detach(nodes[leaver].identity)
        if step == 6:
            medium.attach(nodes[late])
        if step == 7:
            medium.attach(nodes[leaver])
        sender = picker.choice(medium.nodes).identity
        draw = picker.random()
        if draw < 0.45:
            recipients = None
        elif draw < 0.9:
            # Multicast, possibly naming the sender or a detached node.
            recipients = tuple(
                nodes[name].identity for name in picker.sample(sorted(nodes), 4)
            )
        else:
            # Nobody else to reach: the origin's lone copy.
            recipients = (sender,)
        parts = (MessagePart("x", b"", picker.randint(8, 512)),)
        run(Message(sender, f"r{step}", parts, recipients))

    # Retries that run out: a one-hop TTL and a single retry wave cannot
    # reach a member three or more hops away.
    medium.max_hops, medium.max_retries = 1, 1
    far = (nodes[far_receiver].identity,)
    run(Message(nodes[far_sender].identity, "far", (MessagePart("x", b"", 64),), far))

    return {
        "receipts": outcomes,
        "ledgers": {
            name: [
                node.recorder.tx_bits,
                node.recorder.rx_bits,
                node.recorder.messages_sent,
                node.recorder.messages_received,
            ]
            for name, node in nodes.items()
        },
        "totals": [
            medium.total_messages(),
            medium.total_bits(),
            medium.total_bits(include_retries=True),
            medium.total_transmissions(),
            medium.total_relay_bits(),
        ],
    }


def run_workloads() -> Dict[str, Dict[str, List[Dict[str, object]]]]:
    """Every medium x mode over every seed, in seed order."""
    return {
        medium_name: {
            mode: [run_workload(medium_name, mode, seed) for seed in SEEDS]
            for mode in MODES
        }
        for medium_name in MEDIA
    }


if __name__ == "__main__":
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), FIXTURE_RELPATH)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(run_workloads(), handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {path}")
