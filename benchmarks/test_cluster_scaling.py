"""Cluster scaling: hierarchical rekeying vs flat BD re-execution.

The hierarchical protocol's claim is that a membership event touches one
cluster plus the O(log n) tree path instead of the whole group.  This
benchmark measures it head to head: at each group size, establish the group
under flat ``bd-unauthenticated`` and under ``cluster-tree[bd]``, apply one
leave and one join to each, and record wall time, rekey message counts and
rekey bits on the shared medium.  The flat protocol re-runs the full GKA on
every event (2n messages, O(n^2) work); the cluster protocol re-runs one
sub-ring of ~sqrt(n) members plus the dirty tree path.  Flat BD is measured
up to ``FLAT_MAX_N`` members only: beyond it every re-execution takes
minutes, so larger sizes measure the cluster protocol alone.

Asserted shape claims, over the sizes where both protocols ran:

* every run (flat and cluster, every event) ends in full key agreement;
* the cluster rekey moves **at least 5x fewer bits** than the flat rekey at
  every compared size (the acceptance bound, set at n=2000 — the measured
  margin is >20x from n=500 up);
* cluster rekey traffic grows sublinearly in n while flat traffic grows
  linearly (the localisation claim, checked across the compared sizes).

Sizes default to ``100,500`` so the tier-1 run stays fast; the committed
trajectory point was generated with
``REPRO_CLUSTER_SIZES=100,500,2000,10000`` (the n=2000 flat-BD point takes
minutes of pure-Python re-execution, which is exactly the cost the
hierarchy removes).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.registry import create_protocol
from repro.network.events import JoinEvent, LeaveEvent
from repro.network.medium import BroadcastMedium
from repro.pki import Identity

SIZES = tuple(
    int(token)
    for token in os.environ.get("REPRO_CLUSTER_SIZES", "100,500").split(",")
    if token.strip()
)

#: Largest group the flat protocol is measured at (its Θ(n²) re-execution
#: takes ~2 minutes per event at n=2000).
FLAT_MAX_N = 2000

#: The sizes measured under both protocols.
COMPARED = tuple(n for n in SIZES if n <= FLAT_MAX_N)

#: Acceptance bound: cluster rekey bits must undercut flat rekey bits 5x.
REQUIRED_BITS_RATIO = 5.0


def _measure(setup, protocol_name: str, n: int):
    """Establish, then rekey once by leave and once by join; return metrics."""
    members = [Identity(f"scale-{i:04d}") for i in range(n)]
    protocol = create_protocol(protocol_name, setup)
    medium = BroadcastMedium()

    started = time.perf_counter()
    result = protocol.run(members, medium=medium, seed=f"scale-{n}")
    establish_s = time.perf_counter() - started
    assert result.all_agree()

    metrics = {"establish_s": round(establish_s, 4)}
    state = result.state
    clusters = getattr(state, "clusters", None)
    leaving = clusters[-1].members[-1] if clusters else state.members[-1]
    events = (
        ("leave", LeaveEvent(leaving=leaving)),
        ("join", JoinEvent(joining=Identity(f"scale-new-{n}"))),
    )
    for kind, event in events:
        mark_msgs = medium.total_messages()
        mark_bits = medium.total_bits()
        started = time.perf_counter()
        outcome = protocol.apply_event(state, event, medium=medium, seed=kind)
        wall = time.perf_counter() - started
        assert outcome.all_agree()
        state = outcome.state
        metrics[f"{kind}_s"] = round(wall, 4)
        metrics[f"{kind}_messages"] = medium.total_messages() - mark_msgs
        metrics[f"{kind}_bits"] = medium.total_bits() - mark_bits
    metrics["rekey_bits"] = metrics["leave_bits"] + metrics["join_bits"]
    metrics["rekey_messages"] = metrics["leave_messages"] + metrics["join_messages"]
    return metrics


@pytest.fixture(scope="module")
def grid(small_setup, bench_artifact):
    """The full size grid, measured once and shared by every assertion."""
    rows = {}
    started = time.perf_counter()
    for n in SIZES:
        if n not in COMPARED:
            rows[n] = {"cluster": _measure(small_setup, "cluster-tree[bd]", n)}
            bench_artifact.record(f"n{n}", rows[n])
            continue
        flat = _measure(small_setup, "bd-unauthenticated", n)
        cluster = _measure(small_setup, "cluster-tree[bd]", n)
        rows[n] = {
            "flat": flat,
            "cluster": cluster,
            "rekey_bits_ratio": round(flat["rekey_bits"] / cluster["rekey_bits"], 2),
            "rekey_messages_ratio": round(
                flat["rekey_messages"] / cluster["rekey_messages"], 2
            ),
        }
        bench_artifact.record(f"n{n}", rows[n])
    bench_artifact.record("sizes", list(SIZES))
    # The grid is built in a module-scoped fixture, outside the autouse
    # per-test timer — record its wall time explicitly so the regression
    # gate compares the real measurement cost, not collection noise.
    bench_artifact.record_test("grid_measurement", time.perf_counter() - started)
    return rows


class TestClusterScaling:
    def test_size_grid_is_sane(self):
        assert SIZES == tuple(sorted(SIZES))
        assert all(n >= 20 for n in SIZES)

    @pytest.mark.parametrize("n", COMPARED)
    def test_cluster_rekey_moves_5x_fewer_bits(self, grid, n):
        row = grid[n]
        assert row["rekey_bits_ratio"] >= REQUIRED_BITS_RATIO, (
            f"n={n}: flat rekey {row['flat']['rekey_bits']} bits vs cluster "
            f"{row['cluster']['rekey_bits']} bits — ratio "
            f"{row['rekey_bits_ratio']} below {REQUIRED_BITS_RATIO}"
        )

    @pytest.mark.parametrize("n", COMPARED)
    def test_cluster_rekey_is_faster_wall_clock(self, grid, n):
        row = grid[n]
        flat_s = row["flat"]["leave_s"] + row["flat"]["join_s"]
        cluster_s = row["cluster"]["leave_s"] + row["cluster"]["join_s"]
        assert cluster_s < flat_s

    def test_cluster_traffic_grows_sublinearly(self, grid):
        if len(COMPARED) < 2:
            pytest.skip("need at least two compared sizes to compare growth")
        low, high = COMPARED[0], COMPARED[-1]
        scale = high / low
        flat_growth = grid[high]["flat"]["rekey_messages"] / grid[low]["flat"]["rekey_messages"]
        cluster_growth = (
            grid[high]["cluster"]["rekey_messages"]
            / grid[low]["cluster"]["rekey_messages"]
        )
        # Flat re-execution is Θ(n) messages per rekey; the cluster rekey is
        # one sub-ring plus the tree path, i.e. ~O(sqrt n + log n).
        assert flat_growth > 0.8 * scale
        assert cluster_growth < 0.5 * scale

    def test_report(self, grid):
        print()
        header = (
            f"{'n':>6} {'flat rekey b':>13} {'cluster rekey b':>16} "
            f"{'bits ratio':>11} {'msg ratio':>10}"
        )
        print(header)
        for n, row in grid.items():
            if "flat" not in row:
                print(f"{n:>6} {'-':>13} {row['cluster']['rekey_bits']:>16}")
                continue
            print(
                f"{n:>6} {row['flat']['rekey_bits']:>13} "
                f"{row['cluster']['rekey_bits']:>16} "
                f"{row['rekey_bits_ratio']:>11.1f} {row['rekey_messages_ratio']:>10.1f}"
            )
