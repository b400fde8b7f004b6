"""The protocol registry and the scenario/churn simulation engine."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.baselines import BurmesterDesmedtProtocol
from repro.core import GroupSession, ProposedGKAProtocol, SystemSetup, available_protocols, create_protocol
from repro.core.base import Protocol
from repro.core.registry import resolve_protocol
from repro.exceptions import MembershipError, ParameterError, ProtocolError
from repro.network.events import JoinEvent, LeaveEvent, MergeEvent, PartitionEvent, membership_after
from repro.pki import Identity
from repro.sim import (
    BurstPartitions,
    PeriodicMerges,
    PoissonChurn,
    Scenario,
    ScenarioRunner,
    TraceReplay,
    comparison_table,
)


class TestRegistry:
    def test_builtins_are_registered(self):
        # The table lists each protocol once.
        assert available_protocols() == [
            "bd-dsa",
            "bd-ecdsa",
            "bd-sok",
            "bd-unauthenticated",
            "cluster-tree[bd]",
            "cluster-tree[gka]",
            "proposed-gka",
            "ssn",
        ]

    def test_aliases_resolve_to_canonical_protocols(self, small_setup):
        protocol = create_protocol("proposed", small_setup)
        assert isinstance(protocol, ProposedGKAProtocol)
        assert create_protocol("bd", small_setup).name == "bd-unauthenticated"
        aliases = {
            "proposed": "proposed-gka",
            "bd": "bd-unauthenticated",
            "cluster-bd": "cluster-tree[bd]",
            "cluster-gka": "cluster-tree[gka]",
        }
        assert {alias: resolve_protocol(alias) for alias in aliases} == aliases

    def test_unknown_name_raises_with_available_list(self, small_setup):
        with pytest.raises(ParameterError, match="unknown protocol"):
            create_protocol("nope", small_setup)

    def test_removed_rerun_name_fails_with_a_suggestion(self, small_setup):
        # Re-executing authenticated BD is what bd-<scheme> does on an event.
        with pytest.raises(ParameterError, match="unknown protocol 'bd-rerun-dsa' — did you mean 'bd-"):
            create_protocol("bd-rerun-dsa", small_setup)

    def test_an_unlisted_protocol_runs_as_an_instance(self, small_setup):
        class MyProtocol(BurmesterDesmedtProtocol):
            name = "my-gka"

        members = [Identity(f"mine-{i}") for i in range(4)]
        session = GroupSession.establish(small_setup, members, seed=1, protocol=MyProtocol(small_setup))
        assert session.all_agree()
        scenario = Scenario(name="mine", initial_size=4, seed=2, schedule=PoissonChurn(length=2))
        report = ScenarioRunner(small_setup).run(MyProtocol(small_setup), scenario)
        assert report.protocol == "my-gka" and report.agreed_throughout

    def test_import_leaves_the_protocol_modules_unloaded_until_a_lookup(self):
        probe = (
            "import sys, repro\n"
            "loaded = lambda: sorted(m for m in ('repro.baselines', 'repro.cluster') if m in sys.modules)\n"
            "before = loaded()\n"
            "repro.available_protocols()\n"
            "print(before, loaded())\n"
        )
        # The directory holding the package under test, however it was installed.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[] ['repro.baselines', 'repro.cluster']"

    def test_every_builtin_conforms_to_the_interface(self, small_setup):
        for name in available_protocols():
            protocol = create_protocol(name, small_setup)
            assert isinstance(protocol, Protocol)
            assert protocol.name == name
            assert protocol.supported_events <= {"join", "leave", "merge", "partition"}

    def test_supported_events_reflect_native_dynamics(self, small_setup):
        proposed = create_protocol("proposed", small_setup)
        assert proposed.supported_events == {"join", "leave", "merge", "partition"}
        baseline = create_protocol("bd", small_setup)
        assert baseline.supported_events == frozenset()


class TestMembershipAfter:
    def test_all_event_kinds(self):
        members = [Identity(f"m{i}") for i in range(5)]
        after = membership_after(members, JoinEvent(joining=Identity("new")))
        assert [m.name for m in after] == ["m0", "m1", "m2", "m3", "m4", "new"]
        after = membership_after(members, LeaveEvent(leaving=members[2]))
        assert [m.name for m in after] == ["m0", "m1", "m3", "m4"]
        after = membership_after(members, MergeEvent(other_group=(Identity("a"), Identity("b"))))
        assert len(after) == 7
        after = membership_after(members, PartitionEvent(leaving=(members[1], members[3])))
        assert [m.name for m in after] == ["m0", "m2", "m4"]

    def test_events_that_do_not_fit_the_group_are_rejected(self):
        members = [Identity(f"m{i}") for i in range(5)]
        ghost = Identity("ghost")
        for event in (
            JoinEvent(joining=members[1]),
            LeaveEvent(leaving=ghost),
            PartitionEvent(leaving=(members[1], ghost)),
            MergeEvent(other_group=(Identity("a"), members[4])),
            PartitionEvent(leaving=()),
            MergeEvent(other_group=()),
            MergeEvent(other_group=(Identity("a"),)),
        ):
            with pytest.raises(MembershipError):
                membership_after(members, event)


class TestSchedules:
    def _members(self, n=8):
        return [Identity(f"m{i}") for i in range(n)]

    def test_scenario_expansion_is_deterministic(self):
        scenario = Scenario(
            name="det",
            initial_size=8,
            schedule=PoissonChurn(length=15, join_rate=2, leave_rate=2, merge_rate=1, partition_rate=1),
            seed=42,
        )
        first, second = scenario.build_events(), scenario.build_events()
        assert [(e.time, e.kind) for e in first] == [(e.time, e.kind) for e in second]
        assert len(first) == 15

    def test_poisson_times_are_increasing(self):
        scenario = Scenario(
            name="clock", initial_size=6, schedule=PoissonChurn(length=20), seed=1
        )
        times = [e.time for e in scenario.build_events()]
        assert all(later > earlier for earlier, later in zip(times, times[1:]))
        assert times[0] > 0

    def test_different_seeds_differ(self):
        scenario = Scenario(name="s", initial_size=6, schedule=PoissonChurn(length=20), seed=1)
        other = scenario.with_seed(2)
        assert [e.time for e in scenario.build_events()] != [e.time for e in other.build_events()]

    def test_burst_partitions_respect_min_group_size_and_refill(self):
        schedule = BurstPartitions(bursts=4, burst_size=3, period=5.0, refill=True)
        scenario = Scenario(name="b", initial_size=10, schedule=schedule, seed=3)
        members = scenario.initial_members()
        for scheduled in scenario.build_events():
            if scheduled.kind == "partition":
                controller = members[0].name
                assert all(m.name != controller for m in scheduled.event.leaving)
            members = membership_after(members, scheduled.event)
            assert len(members) >= scenario.min_group_size
        kinds = [e.kind for e in scenario.build_events()]
        assert kinds.count("partition") == 4 and kinds.count("merge") == 4

    def test_periodic_merges_grow_the_group(self):
        scenario = Scenario(
            name="m", initial_size=4, schedule=PeriodicMerges(merges=3, merge_size=3), seed=0
        )
        events = scenario.build_events()
        assert [e.kind for e in events] == ["merge"] * 3
        assert all(len(e.event.other_group) == 3 for e in events)

    def test_trace_replay_keeps_order_and_spacing(self):
        trace = (JoinEvent(joining=Identity("a")), LeaveEvent(leaving=Identity("member-001")))
        scenario = Scenario(
            name="t", initial_size=5, schedule=TraceReplay(events=trace, spacing=2.5), seed=0
        )
        events = scenario.build_events()
        assert [e.kind for e in events] == ["join", "leave"]
        assert [e.time for e in events] == [2.5, 5.0]

    def test_degenerate_scenarios_rejected(self):
        with pytest.raises(ParameterError):
            Scenario(name="tiny", initial_size=1, schedule=PoissonChurn(length=1))
        with pytest.raises(ParameterError):
            PoissonChurn(length=5, join_rate=0, leave_rate=0).generate(self._members(), None)


class TestScenarioRunner:
    @pytest.fixture(scope="class")
    def churn_scenario(self):
        return Scenario(
            name="mixed-churn",
            initial_size=8,
            schedule=PoissonChurn(
                length=10, join_rate=2, leave_rate=2, merge_rate=0.7, partition_rate=0.7
            ),
            seed="runner-test",
        )

    @pytest.fixture(scope="class")
    def reports(self, small_setup, churn_scenario):
        runner = ScenarioRunner(small_setup)
        return runner.run_all(["proposed", "bd", "ssn"], churn_scenario)

    def test_all_protocols_complete_with_agreement_after_every_event(self, reports):
        for report in reports:
            assert report.agreed_throughout
            assert len(report.records) == 11  # establishment + 10 events
            assert all(record.agreed for record in report.records)

    def test_reports_are_comparable(self, reports):
        assert {r.scenario_name for r in reports} == {"mixed-churn"}
        table = comparison_table(reports)
        for name in ("proposed-gka", "bd-unauthenticated", "ssn"):
            assert name in table
        # Identical event stream for every protocol.
        streams = [[(rec.kind, rec.time) for rec in r.records] for r in reports]
        assert streams[0] == streams[1] == streams[2]

    def test_every_step_costs_energy_and_messages(self, reports):
        for report in reports:
            for record in report.records:
                assert record.total_energy_j > 0
                assert record.messages > 0
                assert record.bits > 0
                assert record.group_size >= 3

    def test_aggregates_are_consistent(self, reports):
        for report in reports:
            by_kind = report.by_kind()
            assert sum(s.count for s in by_kind.values()) == len(report.records)
            assert sum(s.total_energy_j for s in by_kind.values()) == pytest.approx(
                report.total_energy_j
            )
            assert sum(s.total_messages for s in by_kind.values()) == report.total_messages
            per_member = report.per_member_energy_j()
            assert sum(per_member.values()) == pytest.approx(report.total_energy_j)

    def test_proposed_dynamic_events_cost_less_than_baseline_reruns(self, reports):
        proposed, bd = reports[0], reports[1]
        # Joins under the proposed protocol are O(1) public-key work; the
        # rerun baseline pays a whole GKA.  (This is the paper's Table 5 gap.)
        proposed_join = proposed.by_kind().get("join")
        bd_join = bd.by_kind().get("join")
        assert proposed_join is not None and bd_join is not None
        assert proposed_join.mean_energy_j < bd_join.mean_energy_j

    def test_lossy_scenario_charges_retries(self, small_setup, churn_scenario):
        import dataclasses

        lossy = dataclasses.replace(churn_scenario, name="lossy", loss_probability=0.25)
        report = ScenarioRunner(small_setup).run("bd", lossy)
        assert report.agreed_throughout
        assert report.total_bits(include_retries=True) > report.total_bits()

    def test_comparison_table_rejects_mixed_scenarios(self, small_setup, reports):
        other = Scenario(
            name="different", initial_size=4, schedule=PoissonChurn(length=2), seed=0
        )
        mismatched = ScenarioRunner(small_setup).run("bd", other)
        with pytest.raises(ParameterError, match="different scenarios"):
            comparison_table([reports[0], mismatched])

    def test_runner_accepts_protocol_instances(self, small_setup):
        scenario = Scenario(
            name="inst", initial_size=5, schedule=PoissonChurn(length=3), seed=4
        )
        report = ScenarioRunner(small_setup).run(
            ProposedGKAProtocol(small_setup), scenario
        )
        assert report.protocol == "proposed-gka"
        assert report.agreed_throughout

    def test_trace_that_does_not_fit_the_group_fails_before_any_protocol_call(
        self, small_setup, monkeypatch
    ):
        trace = (
            JoinEvent(joining=Identity("a")),
            JoinEvent(joining=Identity("b")),
            LeaveEvent(leaving=Identity("ghost")),
        )
        scenario = Scenario(name="ghost", initial_size=6, schedule=TraceReplay(events=trace))
        with pytest.raises(MembershipError, match="ghost"):
            scenario.build_events()
        protocol = create_protocol("proposed-gka", small_setup)
        calls = []
        for name in ("run", "apply_event"):
            monkeypatch.setattr(protocol, name, lambda *args, **kwargs: calls.append(args))
        with pytest.raises(MembershipError, match="ghost"):
            ScenarioRunner(small_setup).run(protocol, scenario)
        assert calls == []
