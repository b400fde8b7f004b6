"""Reproduce Table 4: complexity of the dynamic protocols vs. BD re-execution."""

from __future__ import annotations

import pytest

from repro.analysis import DynamicComplexityParams, format_table, table4_complexity
from repro.baselines import AuthenticatedBDProtocol
from repro.core import ProposedGKAProtocol
from repro.network.events import JoinEvent, LeaveEvent, PartitionEvent
from repro.pki import Identity


def test_print_table4():
    """Regenerate Table 4 with the paper's parameters (n=100, m=20, ld=20)."""
    rows = table4_complexity(DynamicComplexityParams(n=100, m=20, k=2, ld=20))
    print()
    print(
        format_table(
            ["protocol", "event", "rounds", "messages", "exponentiations", "sign gen", "sign ver"],
            [list(row.as_dict().values()) for row in rows],
            title="Table 4 — dynamic protocol complexity (n=100, m=20, ld=20)",
        )
    )
    by_key = {(r.protocol, r.event): r for r in rows}
    # Headline claims: the proposed dynamic protocols need O(1) public-key work
    # and far fewer messages for join/merge.
    assert by_key[("proposed", "join")].messages < by_key[("bd-rerun", "join")].messages / 20
    assert by_key[("proposed", "merge")].messages < by_key[("bd-rerun", "merge")].messages / 20
    for event in ("join", "leave", "merge", "partition"):
        assert by_key[("proposed", event)].signature_verifications == 1
        assert by_key[("bd-rerun", event)].signature_verifications > 100 - 25


def test_measured_dynamic_costs(small_setup):
    """Cross-check the proposed rows against executed runs on a 8-member group."""
    members = [Identity(f"t4-{i}") for i in range(8)]
    protocol = ProposedGKAProtocol(small_setup)
    base = protocol.run(members, seed="t4")

    # Join: exactly 5 protocol messages (2n+2-style rerun would need 18).
    base.state.reset_costs()
    joined = protocol.apply_event(base.state, JoinEvent(joining=Identity("t4-new")), seed=1)
    assert joined.medium.total_messages() == 5 - 1  # m'''_n is unicast; 4 broadcasts + it = 5 sends
    assert joined.rounds == 3

    # Leave: Round 1 has one message per remaining odd-indexed member,
    # Round 2 one per remaining member.
    leaving = joined.state.ring.members[3]
    remaining = joined.state.size - 1
    odd_remaining = len(joined.state.ring.odd_indexed(exclude=[leaving]))
    left = protocol.apply_event(joined.state, LeaveEvent(leaving=leaving), seed=2)
    assert left.medium.total_messages() == odd_remaining + remaining
    assert left.rounds == 2

    # Merge: exactly 6 messages for k = 2 groups.
    other = protocol.run([Identity(f"t4-b-{i}") for i in range(4)], seed="t4-b")
    merged = protocol.merge_states(left.state, other.state, seed=3)
    assert merged.medium.total_messages() == 6
    assert merged.rounds == 3

    # Partition: same two-round shape as leave.
    victims = [merged.state.ring.members[i] for i in (2, 5)]
    remaining = merged.state.size - len(victims)
    odd_remaining = len(merged.state.ring.odd_indexed(exclude=victims))
    partitioned = protocol.apply_event(merged.state, PartitionEvent(leaving=tuple(victims)), seed=4)
    assert partitioned.medium.total_messages() == odd_remaining + remaining
    assert partitioned.rounds == 2


def test_benchmark_join_vs_rerun(benchmark, small_setup):
    """Benchmark one proposed Join against one BD re-run join (n = 6)."""
    members = [Identity(f"t4b-{i}") for i in range(6)]

    protocol = ProposedGKAProtocol(small_setup)
    event = JoinEvent(joining=Identity("t4b-new"))

    def run_join():
        base = protocol.run(members, seed="bench")
        return protocol.apply_event(base.state, event, seed="bench-join")

    result = benchmark(run_join)
    assert result.all_agree()


def test_benchmark_bd_rerun_join(benchmark, small_setup):
    """The baseline's cost for the same event (for comparison in the report)."""
    members = [Identity(f"t4c-{i}") for i in range(6)]
    dynamic = AuthenticatedBDProtocol(small_setup)
    base = dynamic.run(members, seed="bench")
    event = JoinEvent(joining=Identity("t4c-new"))

    result = benchmark(lambda: dynamic.apply_event(base.state, event, seed="bench-join"))
    assert result.all_agree()
