"""Integration tests for the initial GKA protocols: the proposed scheme and
all baselines (plain BD, BD+SOK/ECDSA/DSA, SSN)."""

from __future__ import annotations

import gc

import pytest

from repro.baselines import AuthenticatedBDProtocol, BurmesterDesmedtProtocol, SSNProtocol
from repro.core import ProposedGKAProtocol, SystemSetup, compute_bd_key, compute_bd_x_value, verify_x_product
from repro.core import gka as gka_module
from repro.exceptions import BatchVerificationError, ParameterError
from repro.network.message import Message, MessagePart
from repro.pki import Identity


def _tamper_s(message: Message, attempt: int) -> Message:
    """Corrupt U-2's Round 2 response on the first attempt only."""
    if attempt == 0 and message.sender.name == "member-02" and message.has_part("s"):
        parts = []
        for part in message.parts:
            if part.name == "s":
                parts.append(MessagePart("s", int(part.value) + 1, part.bits))
            else:
                parts.append(part)
        return Message(sender=message.sender, round_label=message.round_label, parts=tuple(parts))
    return message


class TestProposedGKA:
    @pytest.mark.parametrize("size", [2, 3, 5, 9])
    def test_all_members_agree(self, small_setup, size):
        members = [Identity(f"agree-{size}-{i}") for i in range(size)]
        result = ProposedGKAProtocol(small_setup).run(members, seed=size)
        assert result.all_agree()
        assert result.group_key is not None
        assert result.rounds == 2

    def test_key_is_a_subgroup_element(self, small_setup, members):
        result = ProposedGKAProtocol(small_setup).run(members, seed=1)
        assert small_setup.group.is_subgroup_element(result.group_key)

    def test_key_matches_direct_formula(self, small_setup, members):
        # K = g^{r_1 r_2 + r_2 r_3 + ... + r_n r_1} (paper equation 3)
        result = ProposedGKAProtocol(small_setup).run(members, seed=2)
        group = small_setup.group
        states = [result.state.party(m) for m in result.state.ring.members]
        exponent = sum(
            states[i].r * states[(i + 1) % len(states)].r for i in range(len(states))
        ) % group.q
        assert result.group_key == pow(group.g, exponent, group.p)

    def test_per_member_costs_match_table1(self, small_setup, members):
        result = ProposedGKAProtocol(small_setup).run(members, seed=3)
        n = len(members)
        for name, recorder in result.state.recorders().items():
            assert recorder.operation_count("modexp") == 3
            assert recorder.operation_count("sign_gen_gq") == 1
            assert recorder.operation_count("sign_ver_gq") == 1
            assert recorder.messages_sent == 2
            assert recorder.messages_received == 2 * (n - 1)

    def test_different_seeds_different_keys(self, small_setup, members):
        key_a = ProposedGKAProtocol(small_setup).run(members, seed="a").group_key
        key_b = ProposedGKAProtocol(small_setup).run(members, seed="b").group_key
        assert key_a != key_b

    def test_same_seed_reproducible(self, small_setup, members):
        key_a = ProposedGKAProtocol(small_setup).run(members, seed="same").group_key
        key_b = ProposedGKAProtocol(small_setup).run(members, seed="same").group_key
        assert key_a == key_b

    def test_tampering_triggers_retransmission_and_recovery(self, small_setup, members):
        protocol = ProposedGKAProtocol(small_setup, max_retransmissions=2)
        result = protocol.run(members, seed=4, tamper=_tamper_s)
        assert result.all_agree()
        # A retransmission happened: more than the nominal 2n messages are on the medium.
        assert result.total_messages() > 2 * len(members)

    def test_each_member_acts_on_every_outcome_in_its_own_wake(
        self, small_setup, members, wake_log
    ):
        # The coordinator only wakes; every member, the controller included,
        # resets for the retry and later finishes itself in its own hook.
        wakes = wake_log(gka_module._GkaPartyMachine)
        result = ProposedGKAProtocol(small_setup).run(members, seed=4, tamper=_tamper_s)
        assert result.all_agree()
        for member in members:
            assert [p for n, p in wakes if n == member.name] == ["retransmit-round2", "verified"]

    def test_a_dropped_run_frees_its_machines_and_coordinator(
        self, small_setup, members, instance_refs
    ):
        # Without the cyclic collector: the coordinator lets go of the
        # machines once they are verified, so nothing is left in a cycle.
        refs = instance_refs(gka_module._GkaPartyMachine, gka_module._Round2Coordinator)
        gc.collect()
        gc.disable()
        try:
            result = ProposedGKAProtocol(small_setup).run(members, seed=4)
            assert result.all_agree()
            del result
            assert len(refs) == len(members) + 1
            assert [ref for ref in refs if ref() is not None] == []
        finally:
            gc.enable()

    def test_persistent_tampering_fails_loudly(self, small_setup, members):
        def always_tamper(message: Message, attempt: int) -> Message:
            return _tamper_s(message, 0) if message.has_part("s") else message

        protocol = ProposedGKAProtocol(small_setup, max_retransmissions=1)
        with pytest.raises(BatchVerificationError):
            protocol.run(members, seed=5, tamper=always_tamper)

    def test_too_few_members_rejected(self, small_setup):
        with pytest.raises(ParameterError):
            ProposedGKAProtocol(small_setup).run([Identity("solo")])

    def test_paper_sized_parameters(self, paper_setup):
        members = [Identity(f"paper-{i}") for i in range(4)]
        result = ProposedGKAProtocol(paper_setup).run(members, seed=6)
        assert result.all_agree()
        assert result.group_key.bit_length() <= 1024
        # Round 1 messages are |U| + |p| + |n| = 32 + 1024 + 1024 bits.
        round1 = [m for m in result.medium.transcript if m.round_label == "round1"]
        assert len(round1) == len(members)
        assert all(m.wire_bits == 32 + 1024 + 1024 for m in round1)


class TestBDHelpers:
    def test_lemma1_product_of_x_is_one(self, small_setup, members):
        result = ProposedGKAProtocol(small_setup).run(members, seed=7)
        group = small_setup.group
        states = [result.state.party(m) for m in result.state.ring.members]
        ring = result.state.ring
        x_values = []
        for state in states:
            left = ring.left_neighbour(state.identity)
            right = ring.right_neighbour(state.identity)
            x_values.append(
                compute_bd_x_value(
                    group,
                    result.state.party(right).z,
                    result.state.party(left).z,
                    state.r,
                )
            )
        assert verify_x_product(group, x_values)
        assert not verify_x_product(group, x_values[:-1] + [x_values[-1] * 2 % group.p])

    def test_compute_bd_key_input_validation(self, small_group):
        with pytest.raises(ParameterError):
            compute_bd_key(small_group, ["a"], "a", 1, {}, {})
        with pytest.raises(ParameterError):
            compute_bd_key(small_group, ["a", "b"], "c", 1, {"a": 1, "b": 1}, {"a": 1, "b": 1})


class TestBaselineBD:
    def test_plain_bd_agrees(self, small_setup, members):
        result = BurmesterDesmedtProtocol(small_setup).run(members, seed=1)
        assert result.all_agree()
        for recorder in result.state.recorders().values():
            assert recorder.operation_count("modexp") == 3

    def test_plain_bd_matches_proposed_key_structure(self, small_setup, members):
        bd = BurmesterDesmedtProtocol(small_setup).run(members, seed=2)
        group = small_setup.group
        assert group.is_subgroup_element(bd.group_key)


class TestAuthenticatedBD:
    @pytest.mark.parametrize("scheme", ["ecdsa", "dsa", "sok"])
    def test_agreement_and_costs(self, small_setup, scheme):
        members = [Identity(f"abd-{scheme}-{i}") for i in range(4)]
        protocol = AuthenticatedBDProtocol(small_setup, scheme)
        result = protocol.run(members, seed=1)
        assert result.all_agree()
        n = len(members)
        for recorder in result.state.recorders().values():
            assert recorder.operation_count("modexp") == 3
            assert recorder.operation_count(f"sign_gen_{scheme}") == 1
            expected_verifications = (n - 1) * (2 if scheme in ("ecdsa", "dsa") else 1)
            assert recorder.operation_count(f"sign_ver_{scheme}") == expected_verifications

    def test_certificates_only_for_cert_schemes(self, small_setup):
        assert AuthenticatedBDProtocol(small_setup, "ecdsa").uses_certificates
        assert AuthenticatedBDProtocol(small_setup, "dsa").uses_certificates
        assert not AuthenticatedBDProtocol(small_setup, "sok").uses_certificates

    def test_round1_carries_certificates(self, small_setup):
        members = [Identity(f"cert-{i}") for i in range(3)]
        result = AuthenticatedBDProtocol(small_setup, "ecdsa").run(members, seed=2)
        round1 = [m for m in result.medium.transcript if m.round_label == "authbd-round1"]
        assert len(round1) == len(members)
        assert all(m.has_part("certificate") for m in round1)
        assert all(m.wire_bits > 688 for m in round1)

    def test_unknown_scheme_rejected(self, small_setup):
        with pytest.raises(ParameterError):
            AuthenticatedBDProtocol(small_setup, "rsa")

    def test_reprovisioning_is_stable(self, small_setup):
        members = [Identity(f"stable-{i}") for i in range(3)]
        protocol = AuthenticatedBDProtocol(small_setup, "ecdsa")
        first = protocol.run(members, seed=1)
        second = protocol.run(members, seed=2)
        assert first.all_agree() and second.all_agree()
        assert first.group_key != second.group_key  # fresh ephemeral keys


class TestSSN:
    def test_agreement(self, small_setup):
        members = [Identity(f"ssn-{i}") for i in range(5)]
        result = SSNProtocol(small_setup).run(members, seed=1)
        assert result.all_agree()

    def test_exponentiation_count_is_linear_in_n(self, small_setup):
        for n in (3, 5, 7):
            members = [Identity(f"ssn-lin-{n}-{i}") for i in range(n)]
            result = SSNProtocol(small_setup).run(members, seed=n)
            for recorder in result.state.recorders().values():
                assert recorder.operation_count("modexp") == 2 * n + 3
                assert recorder.operation_count("sign_gen_gq") == 0
                assert recorder.operation_count("sign_ver_gq") == 0

    def test_all_protocols_on_same_members_give_distinct_keys(self, small_setup):
        members = [Identity(f"multi-{i}") for i in range(4)]
        keys = {
            ProposedGKAProtocol(small_setup).run(members, seed=1).group_key,
            BurmesterDesmedtProtocol(small_setup).run(members, seed=1).group_key,
            SSNProtocol(small_setup).run(members, seed=1).group_key,
        }
        assert len(keys) == 3
