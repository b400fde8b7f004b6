"""Integration tests for the dynamic protocols (Join, Leave, Merge, Partition),
the BD re-execution baseline, and the high-level GroupSession API."""

from __future__ import annotations

import pytest

from repro.baselines import BDRerunDynamic
from repro.core import (
    GroupSession,
    JoinProtocol,
    LeaveProtocol,
    MergeProtocol,
    PartitionProtocol,
    ProposedGKAProtocol,
)
from repro.core import gka as gka_module
from repro.core.registry import available_protocols, create_protocol
from repro.core import rekey as rekey_module
from repro.core.rekey import build_departure_rekey
from repro.engine.executor import drive_plan
from repro.exceptions import BatchVerificationError, MembershipError, ParameterError, ProtocolError
from repro.network.events import JoinEvent, LeaveEvent, MergeEvent, PartitionEvent
from repro.network.medium import BroadcastMedium
from repro.pki import Identity


@pytest.fixture()
def established(small_setup):
    """An agreed 6-member group, re-established per test."""
    members = [Identity(f"dyn-{i:02d}") for i in range(6)]
    return ProposedGKAProtocol(small_setup).run(members, seed="dyn-base")


class TestJoinProtocol:
    def test_join_agreement_and_membership(self, small_setup, established):
        newcomer = Identity("newcomer")
        result = JoinProtocol(small_setup).run(established.state, newcomer, seed=1)
        assert result.all_agree()
        assert newcomer in result.state.ring
        assert result.state.size == established.state.size + 1
        assert result.state.ring.last() == newcomer

    def test_key_changes_after_join(self, small_setup, established):
        old_key = established.group_key
        result = JoinProtocol(small_setup).run(established.state, Identity("newcomer"), seed=2)
        assert result.group_key != old_key

    def test_bystanders_do_no_exponentiations(self, small_setup, established):
        established.state.reset_costs()
        result = JoinProtocol(small_setup).run(established.state, Identity("newcomer"), seed=3)
        ring = established.state.ring
        busy = {ring.controller().name, ring.last().name, "newcomer"}
        for name, recorder in result.state.recorders().items():
            if name in busy:
                assert recorder.operation_count("modexp") >= 1
            else:
                assert recorder.operation_count("modexp") == 0
                assert recorder.operation_count("symmetric") == 2

    def test_active_roles_cost_match_paper_counts(self, small_setup, established):
        established.state.reset_costs()
        result = JoinProtocol(small_setup).run(established.state, Identity("newcomer"), seed=4)
        recorders = result.state.recorders()
        controller = established.state.ring.controller().name
        last = established.state.ring.last().name
        assert recorders[controller].operation_count("modexp") == 2
        assert recorders[controller].operation_count("sign_ver_gq") == 1
        assert recorders[last].operation_count("modexp") == 1
        assert recorders[last].operation_count("sign_gen_gq") == 1
        assert recorders["newcomer"].operation_count("modexp") == 2
        assert recorders["newcomer"].operation_count("sign_gen_gq") == 1

    def test_double_join_rejected(self, small_setup, established):
        with pytest.raises(MembershipError):
            JoinProtocol(small_setup).run(established.state, established.state.ring.members[2])

    def test_join_requires_agreed_group(self, small_setup, established):
        established.state.party(established.state.ring.members[1]).group_key = None
        with pytest.raises(ParameterError):
            JoinProtocol(small_setup).run(established.state, Identity("newcomer"))

    def test_bystander_ignores_round1_after_both_envelopes(self, small_setup, established):
        """A newcomer's round 1 that arrives last must not re-open the envelopes."""
        from repro.core.join import (
            _BystanderMachine,
            _ControllerMachine,
            _LastMemberMachine,
            _NewcomerMachine,
        )
        from repro.network.medium import BroadcastMedium

        plan = JoinProtocol(small_setup).build_machines(
            established.state, Identity("newcomer"), medium=BroadcastMedium(), seed=5
        )
        by_role = {type(machine): machine for machine in plan.machines}
        (round1,) = [out.message for out in by_role[_NewcomerMachine].start(0.0)]
        (from_u1,) = [out.message for out in by_role[_ControllerMachine].on_message(round1, 0.0)]
        (from_un,) = [out.message for out in by_role[_LastMemberMachine].on_message(round1, 0.0)]
        by_role[_ControllerMachine].on_message(from_un, 0.0)
        bystander = by_role[_BystanderMachine]
        bystander.start(0.0)
        for message in (from_u1, from_un, round1):
            assert bystander.on_message(message, 0.0) == []
        assert bystander.finished
        assert bystander.party.group_key == by_role[_ControllerMachine].party.group_key
        assert bystander.party.recorder.operation_count("symmetric") == 2

    def test_join_completes_on_multihop_latency_medium(self, small_setup):
        """Latency mode on a multi-hop grid: the newcomer's round 1 can reach a
        bystander after both envelopes (seed 9 of this grid does)."""
        from repro.energy import WLAN_SPECTRUM24
        from repro.engine import EngineConfig, TransceiverLatency
        from repro.mathutils.rand import DeterministicRNG
        from repro.mobility import Area, MobilityField, MultiHopMedium, RadioLink, StaticGrid

        members = [Identity(f"hop-{i}") for i in range(6)]
        newcomer = Identity("hop-new")
        field = MobilityField(
            [m.name for m in members] + [newcomer.name],
            StaticGrid(jitter=20.0),
            Area(300.0, 300.0),
            1.0,
            DeterministicRNG(9, label="field"),
        )
        medium = MultiHopMedium(
            field,
            RadioLink(field, 160.0, base_loss=0.1, edge_loss=0.3),
            max_hops=4,
            max_retries=60,
            rng=DeterministicRNG(9, label="medium"),
        )
        engine = EngineConfig(latency=TransceiverLatency(WLAN_SPECTRUM24))
        protocol = ProposedGKAProtocol(small_setup)
        established = protocol.run(members, medium=medium, seed=9, engine=engine)
        old_key = established.group_key
        result = protocol.apply_event(
            established.state, JoinEvent(joining=newcomer), medium=medium, seed=9, engine=engine
        )
        assert result.all_agree()
        assert result.group_key != old_key
        assert result.state.ring.last() == newcomer


class TestLeaveProtocol:
    def test_leave_agreement(self, small_setup, established):
        leaving = established.state.ring.members[2]
        result = LeaveProtocol(small_setup).run(established.state, leaving, seed=1)
        assert result.all_agree()
        assert leaving not in result.state.ring
        assert result.state.size == established.state.size - 1

    def test_key_changes_and_departed_member_is_excluded(self, small_setup, established):
        leaving = established.state.ring.members[3]
        old_key = established.group_key
        departed_state = established.state.party(leaving)
        result = LeaveProtocol(small_setup).run(established.state, leaving, seed=2)
        assert result.group_key != old_key
        # The departed member's old view cannot be the new key and it is not
        # part of the new state.
        assert departed_state.group_key == old_key
        assert leaving.name not in result.state.parties

    def test_leave_of_even_and_odd_indexed_members(self, small_setup):
        # The dynamic protocols mutate member state in place, so each leave
        # starts from a freshly established group.
        for index in (1, 2):  # U_2 (even) and U_3 (odd)
            members = [Identity(f"oddeven-{index}-{i}") for i in range(6)]
            base = ProposedGKAProtocol(small_setup).run(members, seed=index)
            leaving = base.state.ring.members[index]
            result = LeaveProtocol(small_setup).run(base.state, leaving, seed=index)
            assert result.all_agree()

    def test_controller_cannot_leave(self, small_setup, established):
        with pytest.raises(MembershipError):
            LeaveProtocol(small_setup).run(established.state, established.state.ring.controller())

    def test_unknown_member_rejected(self, small_setup, established):
        with pytest.raises(MembershipError):
            LeaveProtocol(small_setup).run(established.state, Identity("ghost"))

    def test_leaver_not_charged_for_rekeying(self, small_setup, established):
        established.state.reset_costs()
        leaving = established.state.ring.members[2]
        leaving_recorder = established.state.party(leaving).recorder
        LeaveProtocol(small_setup).run(established.state, leaving, seed=5)
        assert leaving_recorder.rx_bits == 0
        assert leaving_recorder.tx_bits == 0


class TestPartitionProtocol:
    def test_partition_agreement(self, small_setup, established):
        leaving = [established.state.ring.members[i] for i in (1, 3)]
        result = PartitionProtocol(small_setup).run(established.state, leaving, seed=1)
        assert result.all_agree()
        assert result.state.size == established.state.size - 2
        for identity in leaving:
            assert identity not in result.state.ring

    def test_single_member_partition_equals_leave_semantics(self, small_setup, established):
        leaving = established.state.ring.members[2]
        result = PartitionProtocol(small_setup).run(established.state, [leaving], seed=2)
        assert result.all_agree()
        assert result.state.size == established.state.size - 1

    def test_empty_partition_rejected(self, small_setup, established):
        with pytest.raises(ParameterError):
            PartitionProtocol(small_setup).run(established.state, [])

    def test_partition_cannot_remove_controller(self, small_setup, established):
        with pytest.raises(MembershipError):
            PartitionProtocol(small_setup).run(
                established.state, [established.state.ring.controller()]
            )

    def test_partition_cannot_empty_group(self, small_setup, established):
        with pytest.raises(MembershipError):
            PartitionProtocol(small_setup).run(established.state, established.state.ring.members[1:])


class TestSharedBatchVerdict:
    """A run checks equation (2) once per distinct view, for every member."""

    def test_forged_response_view_fails_only_its_holder(self, small_setup, established):
        state = established.state
        old_key = established.group_key
        medium = BroadcastMedium()
        plan = build_departure_rekey(
            small_setup,
            state,
            [state.ring.members[2]],
            protocol_name="leave",
            round_prefix="leave",
            medium=medium,
            seed=3,
        )
        victim = plan.machines[-1]  # verifies after the controller has
        honest_verify = victim._verify
        raised = []

        def forged_verify():
            assert len(victim.verdicts) == 1  # the honest verdict is memoised
            victim._s_table[state.ring.controller().name] += 1
            try:
                honest_verify()
            except BatchVerificationError as exc:
                raised.append(exc)
                victim.finished = True

        victim._verify = forged_verify
        result = drive_plan(plan, medium)
        assert len(raised) == 1
        others = {
            party.group_key
            for name, party in result.state.parties.items()
            if name != victim.identity.name
        }
        assert len(others) == 1 and None not in others
        assert victim.party.group_key == old_key

    def test_each_run_computes_its_own_verdicts(self, small_setup, monkeypatch):
        calls = {"gka": 0, "rekey": 0}
        for name, module in (("gka", gka_module), ("rekey", rekey_module)):

            def counting(*args, _name=name, _verify=module.gq_batch_verify):
                calls[_name] += 1
                return _verify(*args)

            monkeypatch.setattr(module, "gq_batch_verify", counting)
        members = [Identity(f"scope-{i}") for i in range(5)]
        for _ in range(2):  # identical inputs, back to back
            base = ProposedGKAProtocol(small_setup).run(members, seed="scope")
            LeaveProtocol(small_setup).run(base.state, members[2], seed="scope")
        assert calls == {"gka": 2, "rekey": 2}


class TestMergeProtocol:
    def test_merge_agreement(self, small_setup, established):
        other_members = [Identity(f"other-{i}") for i in range(4)]
        other = ProposedGKAProtocol(small_setup).run(other_members, seed="other")
        old_key_a = established.group_key
        old_key_b = other.group_key
        size_a = established.state.size
        result = MergeProtocol(small_setup).run(established.state, other.state, seed=1)
        assert result.all_agree()
        assert result.state.size == size_a + 4
        assert result.group_key not in (old_key_a, old_key_b)

    def test_merged_ring_order(self, small_setup, established):
        other_members = [Identity(f"ring-{i}") for i in range(3)]
        other = ProposedGKAProtocol(small_setup).run(other_members, seed="ring")
        result = MergeProtocol(small_setup).run(established.state, other.state, seed=2)
        names = [m.name for m in result.state.ring.members]
        assert names[: established.state.size] == [m.name for m in established.state.ring.members]
        assert names[established.state.size :] == [m.name for m in other.state.ring.members]

    def test_non_controllers_do_no_exponentiations(self, small_setup, established):
        other_members = [Identity(f"cheap-{i}") for i in range(3)]
        other = ProposedGKAProtocol(small_setup).run(other_members, seed="cheap")
        established.state.reset_costs()
        other.state.reset_costs()
        result = MergeProtocol(small_setup).run(established.state, other.state, seed=3)
        controllers = {established.state.ring.controller().name, other.state.ring.controller().name}
        for name, recorder in result.state.recorders().items():
            if name in controllers:
                assert recorder.operation_count("modexp") == 4
                assert recorder.operation_count("sign_gen_gq") == 1
                assert recorder.operation_count("sign_ver_gq") == 1
            else:
                assert recorder.operation_count("modexp") == 0

    def test_overlapping_groups_rejected(self, small_setup, established):
        with pytest.raises((MembershipError, ParameterError)):
            MergeProtocol(small_setup).run(established.state, established.state)

    def test_merge_completes_on_multihop_latency_medium(self, small_setup, monkeypatch):
        """Latency mode on a multi-hop grid: seed 13 of this grid delivers a
        peer controller's round 2 before its round 1, so the executor holds
        it until the controller has the DH key."""
        from repro.core.merge import _MergeControllerMachine
        from repro.energy import WLAN_SPECTRUM24
        from repro.engine import Early, EngineConfig, TransceiverLatency
        from repro.mathutils.rand import DeterministicRNG
        from repro.mobility import Area, MobilityField, MultiHopMedium, RadioLink, StaticGrid

        early = []
        on_message = _MergeControllerMachine.on_message

        def counting(machine, message, now):
            try:
                return on_message(machine, message, now)
            except Early:
                early.append(message.round_label)
                raise

        monkeypatch.setattr(_MergeControllerMachine, "on_message", counting)
        group_a = [Identity(f"mga-{i}") for i in range(5)]
        group_b = [Identity(f"mgb-{i}") for i in range(4)]
        field = MobilityField(
            [m.name for m in group_a + group_b],
            StaticGrid(jitter=10.0),
            Area(300.0, 300.0),
            1.0,
            DeterministicRNG(13, label="field"),
        )
        medium = MultiHopMedium(
            field,
            RadioLink(field, 180.0, base_loss=0.1, edge_loss=0.3),
            max_hops=4,
            rng=DeterministicRNG(13, label="medium"),
        )
        engine = EngineConfig(latency=TransceiverLatency(WLAN_SPECTRUM24))
        protocol = ProposedGKAProtocol(small_setup)
        state_a = protocol.run(group_a, medium=medium, seed=13, engine=engine).state
        state_b = protocol.run(group_b, medium=medium, seed=1013, engine=engine).state
        result = MergeProtocol(small_setup).run(
            state_a, state_b, medium=medium, seed=13, engine=engine
        )
        assert result.all_agree()
        assert result.state.size == 9
        assert early and set(early) <= {"merge-round2-a", "merge-round2-b"}


class TestChainedDynamics:
    def test_long_event_sequence_keeps_agreement(self, small_setup):
        members = [Identity(f"chain-{i}") for i in range(5)]
        session = GroupSession.establish(small_setup, members, seed="chain")
        keys = {session.group_key}
        session.join(Identity("chain-join-1"))
        keys.add(session.group_key)
        session.leave(members[2])
        keys.add(session.group_key)
        other = GroupSession.establish(small_setup, [Identity(f"chain-b-{i}") for i in range(3)], seed="chain-b")
        session.merge(other)
        keys.add(session.group_key)
        session.partition([members[1], Identity("chain-b-1")])
        keys.add(session.group_key)
        session.join(Identity("chain-join-2"))
        keys.add(session.group_key)
        session.leave(Identity("chain-join-1"))
        keys.add(session.group_key)
        assert session.all_agree()
        assert len(keys) == 7  # every event produced a fresh key


class TestGroupSession:
    def test_establish_and_symmetric_key(self, small_setup):
        members = [Identity(f"sess-{i}") for i in range(4)]
        session = GroupSession.establish(small_setup, members, seed=1)
        assert session.all_agree()
        assert len(session.symmetric_key()) == 16
        assert len(session.symmetric_key(length=32)) == 32
        envelope = session.envelope()
        from repro.mathutils.rand import DeterministicRNG

        sealed = envelope.seal(b"hello group", members[0].to_bytes(), DeterministicRNG(9))
        assert envelope.open(sealed, members[0].to_bytes()) == b"hello group"

    def test_apply_events(self, small_setup):
        members = [Identity(f"ev-{i}") for i in range(5)]
        session = GroupSession.establish(small_setup, members, seed=2)
        session.apply_event(JoinEvent(joining=Identity("ev-new")))
        session.apply_event(LeaveEvent(leaving=members[3]))
        session.apply_event(PartitionEvent(leaving=(members[1],)))
        session.apply_event(MergeEvent(other_group=(Identity("ev-m1"), Identity("ev-m2"))))
        assert session.all_agree()
        assert len(session.history) == 5
        with pytest.raises(ProtocolError):
            session.apply_event("not-an-event")  # type: ignore[arg-type]

    def test_energy_report_and_reset(self, small_setup, wlan_profile, radio_profile):
        members = [Identity(f"energy-{i}") for i in range(4)]
        session = GroupSession.establish(small_setup, members, device=wlan_profile, seed=3)
        report = session.energy_report()
        assert set(report) == {m.name for m in members}
        assert all(b.total_j > 0 for b in report.values())
        assert session.total_energy_j(radio_profile) > session.total_energy_j(wlan_profile)
        session.reset_energy()
        assert session.total_energy_j() == 0.0

    def test_group_key_none_until_agreement(self, small_setup):
        members = [Identity(f"pre-{i}") for i in range(3)]
        session = GroupSession.establish(small_setup, members, seed=4)
        session.state.party(members[0]).group_key = 12345
        assert session.group_key is None
        with pytest.raises(ProtocolError):
            session.symmetric_key()


class TestBDRerunBaseline:
    def test_events_reach_agreement(self, small_setup):
        members = [Identity(f"rerun-{i}") for i in range(4)]
        dynamic = BDRerunDynamic(small_setup)
        established = dynamic.run(members, seed=1)
        joined = dynamic.apply_event(
            established.state, JoinEvent(joining=Identity("rerun-new")), seed=2
        )
        assert joined.all_agree() and joined.state.size == 5
        left = dynamic.apply_event(joined.state, LeaveEvent(leaving=members[2]), seed=3)
        assert left.all_agree() and left.state.size == 4
        partitioned = dynamic.apply_event(
            left.state, PartitionEvent(leaving=(members[1],)), seed=4
        )
        assert partitioned.all_agree() and partitioned.state.size == 3
        other = dynamic.run([Identity(f"rerun-b-{i}") for i in range(3)], seed=5)
        merged = dynamic.merge_states(partitioned.state, other.state, seed=6)
        assert merged.all_agree() and merged.state.size == 6

    def test_rerun_is_much_more_expensive_than_proposed_join(self, small_setup, wlan_profile):
        members = [Identity(f"cmp-{i}") for i in range(6)]
        # Proposed join
        base = ProposedGKAProtocol(small_setup).run(members, seed="cmp")
        base.state.reset_costs()
        joined = JoinProtocol(small_setup).run(base.state, Identity("cmp-new"), seed="cmp-join")
        bystander = [
            m.name for m in base.state.ring.members
            if m.name not in (base.state.ring.controller().name, base.state.ring.last().name)
        ][0]
        proposed_j = wlan_profile.total_j(joined.state.recorders()[bystander])
        # BD re-run join
        dynamic = BDRerunDynamic(small_setup)
        est = dynamic.run(members, seed="cmp-bd")
        est.state.reset_costs()
        rerun = dynamic.apply_event(
            est.state, JoinEvent(joining=Identity("cmp-new-bd")), seed="cmp-bd-join"
        )
        rerun_j = wlan_profile.total_j(rerun.state.recorders()[bystander])
        assert rerun_j > 20 * proposed_j

    def test_error_cases(self, small_setup):
        members = [Identity(f"err-{i}") for i in range(3)]
        dynamic = BDRerunDynamic(small_setup)
        established = dynamic.run(members, seed=1)
        with pytest.raises(MembershipError):
            dynamic.apply_event(established.state, JoinEvent(joining=members[0]))
        with pytest.raises(MembershipError):
            dynamic.apply_event(established.state, LeaveEvent(leaving=Identity("ghost")))
        with pytest.raises(MembershipError):
            dynamic.apply_event(established.state, PartitionEvent(leaving=tuple(members[1:])))
        with pytest.raises(MembershipError):
            dynamic.merge_states(established.state, established.state)


@pytest.mark.parametrize("protocol_name", available_protocols())
def test_events_that_do_not_fit_fail_before_touching_the_medium(small_setup, protocol_name):
    # A re-executing protocol used to re-key the unchanged group for a ghost
    # leave, and to detach every member before a duplicate join, or a
    # partition leaving one member, failed.
    protocol = create_protocol(protocol_name, small_setup)
    members = [Identity(f"fit-{i}") for i in range(4)]
    medium = BroadcastMedium()
    established = protocol.run(members, medium=medium, seed=1)
    attached = [node.identity.name for node in medium.nodes]
    sent = medium.total_messages()
    for event in (
        LeaveEvent(leaving=Identity("ghost")),
        JoinEvent(joining=members[2]),
        PartitionEvent(leaving=tuple(members[1:])),
    ):
        with pytest.raises(MembershipError):
            protocol.apply_event(established.state, event, medium=medium, seed=2)
        assert [node.identity.name for node in medium.nodes] == attached
        assert medium.total_messages() == sent
