"""Golden-fixture equivalence: kernel-driven execution == the seed's sync path.

The reactive engine refactor must leave the synchronous ``Protocol.run()`` /
``apply_event()`` path *bit-identical* to the pre-refactor monolithic
implementation for every flat protocol: same group keys, same medium
transcript (senders, round labels, wire sizes, payload digests, order), same
per-node energy ledgers, same lossy-retry attempt counts.

``fixtures/engine_equivalence.json`` was generated by running
``equivalence_workloads.py`` against the seed code *before* the refactor; the
tests here re-run the identical workloads against the current code and
compare section by section so a regression names the protocol, workload and
section that diverged.  The ``latency`` workload was captured later, from
the code just before the BD round machines were merged into one; it pins
latency mode on a lossy multi-hop medium, where Round-2 copies overtake
Round 1, once per seed.
"""

from __future__ import annotations

import json
import os

import pytest

from equivalence_workloads import FIXTURE_RELPATH, run_workloads

_FIXTURE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), FIXTURE_RELPATH)

with open(_FIXTURE_PATH, encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

#: Computed once for the whole module: the workloads cover the six flat
#: protocols of the eight in the table under lossless, lossy, dynamic-event
#: and latency-mode conditions.
CURRENT = json.loads(json.dumps(run_workloads()))

PROTOCOLS = sorted(GOLDEN)
WORKLOADS = ("lossless", "lossy", "events", "latency")


def test_workloads_cover_all_flat_registry_protocols():
    """The golden capture pins every *flat* protocol, and only those.

    The protocol table also lists the two hierarchical ``cluster``-tagged
    protocols (added after the fixture was frozen; covered by
    ``test_cluster.py``) — they must be listed, but must never leak into
    the fixture comparison: the six flat captures stay bit-identical to the
    seed with no fixture regeneration.
    """
    from equivalence_workloads import flat_protocols
    from repro.core.registry import available_protocols, protocol_tags

    assert PROTOCOLS == flat_protocols()
    assert len(PROTOCOLS) == 6
    clustered = [
        name for name in available_protocols() if "cluster" in protocol_tags(name)
    ]
    assert clustered, "the cluster protocols should be listed"
    assert not set(clustered) & set(PROTOCOLS)
    assert sorted(set(PROTOCOLS) | set(clustered)) == available_protocols()


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_bit_identical_to_seed(protocol, workload):
    golden = GOLDEN[protocol][workload]
    current = CURRENT[protocol][workload]
    # Compare section by section for a readable failure.
    assert sorted(current) == sorted(golden)
    for section in golden:
        assert current[section] == golden[section], (
            f"{protocol}/{workload}: section {section!r} diverged from the seed capture"
        )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_transcripts_keys_and_ledgers_specifically(protocol):
    """Spell out the load-bearing fields so failures are self-describing."""
    golden = GOLDEN[protocol]["lossless"]
    current = CURRENT[protocol]["lossless"]
    assert current["result"]["group_key"] == golden["result"]["group_key"]
    assert current["result"]["member_keys"] == golden["result"]["member_keys"]
    assert current["result"]["ledgers"] == golden["result"]["ledgers"]
    assert current["medium"]["transcript"] == golden["medium"]["transcript"]
    # Lossy path: retry attempt sequence pins the medium RNG draw order.
    assert (
        CURRENT[protocol]["lossy"]["medium"]["attempts"]
        == GOLDEN[protocol]["lossy"]["medium"]["attempts"]
    )
