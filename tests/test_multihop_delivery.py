"""Frozen multi-hop delivery: flood receipts and ledgers pinned seed by seed.

``fixtures/multihop_delivery.json`` was captured by ``multihop_workloads.py``
from the separate ``MultiHopMedium.send``/``transmit`` flood loops, before
they came to share one wave.  Every seed's receipts (waves used, receivers
and their order, flood depth, physical transmissions, relay bits, the hop at
which each receiver decoded) and every node's tx/rx bits and message counts
must still match, on the radio grid and on the gateway-bridged tiers.
"""

from __future__ import annotations

import json
import os

import pytest

from multihop_workloads import FIXTURE_RELPATH, MEDIA, MODES, SEEDS, run_workload

_FIXTURE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), FIXTURE_RELPATH)

with open(_FIXTURE_PATH, encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("medium", sorted(MEDIA))
def test_receipts_and_ledgers_match_the_capture(medium, mode):
    golden = GOLDEN[medium][mode]
    assert len(golden) == len(SEEDS)
    for seed, expected in zip(SEEDS, golden):
        current = json.loads(json.dumps(run_workload(medium, mode, seed)))
        where = f"{medium}/{mode} seed {seed}"
        assert len(current["receipts"]) == len(expected["receipts"]), where
        for index, (got, want) in enumerate(zip(current["receipts"], expected["receipts"])):
            assert got == want, f"{where}: message {index} diverged"
        assert current["ledgers"] == expected["ledgers"], f"{where}: ledgers diverged"
        assert current["totals"] == expected["totals"], f"{where}: totals diverged"


def test_capture_covers_what_it_pins():
    """Retry waves, a binding TTL, both raises and the lone copy all occur."""
    send = [r for medium in MEDIA for run in GOLDEN[medium]["send"] for r in run["receipts"]]
    transmit = [
        r for medium in MEDIA for run in GOLDEN[medium]["transmit"] for r in run["receipts"]
    ]
    assert any(r.get("attempts", 0) >= 3 for r in send)
    assert any("still missing" in r.get("error", "") for r in send)
    assert any("cannot reach" in r.get("error", "") for r in send)
    assert any(r.get("delivered_to") == [] and r["transmissions"] == 1 for r in send)
    assert any(max(r["hop_by_receiver"].values(), default=0) == 2 for r in transmit)
    assert any(r["relay_bits"] > 0 for r in transmit)
