"""The lossy-medium path: retransmission charging, retry exhaustion, determinism.

The paper appeals to retransmission on failure; these tests pin down what the
simulated medium charges for it and that every loss draw is reproducible.
"""

from __future__ import annotations

import pytest

from repro.exceptions import NetworkError
from repro.mathutils.rand import DeterministicRNG
from repro.network.medium import BroadcastMedium
from repro.network.message import Message, MessagePart
from repro.network.node import Node
from repro.pki import Identity


def _make_message(sender: Identity, bits: int = 800, label: str = "r1") -> Message:
    return Message.broadcast(sender, label, [MessagePart("payload", b"x", bits)])


def _run_lossy(seed: object, sends: int = 20, loss: float = 0.4):
    """A fixed lossy workload; returns (medium, sender node, receiver node)."""
    medium = BroadcastMedium(
        loss_probability=loss, max_retries=50, rng=DeterministicRNG(seed, label="loss")
    )
    alice, bob = Identity("alice"), Identity("bob")
    sender, receiver = Node(alice), Node(bob)
    medium.attach(sender)
    medium.attach(receiver)
    for index in range(sends):
        medium.send(_make_message(alice, bits=800 + index))
    return medium, sender, receiver


class TestRetransmissionCharging:
    def test_sender_and_receiver_pay_for_every_attempt(self):
        medium, sender, receiver = _run_lossy(seed="charge")
        attempts = [receipt.attempts for receipt in medium.receipts]
        assert max(attempts) > 1  # the seed produces at least one retry
        expected = sum(r.message.wire_bits * r.attempts for r in medium.receipts)
        assert sender.recorder.tx_bits == expected
        assert receiver.recorder.rx_bits == expected
        assert sender.recorder.messages_sent == sum(attempts)
        assert receiver.recorder.messages_received == sum(attempts)

    def test_total_bits_with_and_without_retries(self):
        medium, _, _ = _run_lossy(seed="bits")
        once = sum(m.wire_bits for m in medium.transcript)
        assert medium.total_bits() == once
        with_retries = medium.total_bits(include_retries=True)
        assert with_retries == sum(r.message.wire_bits * r.attempts for r in medium.receipts)
        assert with_retries > once

    def test_lossless_medium_retry_count_is_identity(self):
        medium = BroadcastMedium()
        alice = Identity("alice")
        medium.attach(Node(alice))
        medium.attach(Node(Identity("bob")))
        for _ in range(5):
            medium.send(_make_message(alice))
        assert medium.total_bits(include_retries=True) == medium.total_bits()
        assert all(r.attempts == 1 for r in medium.receipts)


class TestRetryExhaustion:
    def test_max_retries_exhaustion_raises_network_error(self):
        # loss=0.99: the first max_retries+1 attempts are lost with
        # overwhelming probability under essentially any seed; this seed is
        # pinned so the test is fully deterministic.
        medium = BroadcastMedium(
            loss_probability=0.99, max_retries=3, rng=DeterministicRNG("exhaust", label="loss")
        )
        alice = Identity("alice")
        medium.attach(Node(alice))
        with pytest.raises(NetworkError, match="lost"):
            medium.send(_make_message(alice))

    def test_sender_still_charged_for_failed_attempts(self):
        medium = BroadcastMedium(
            loss_probability=0.99, max_retries=3, rng=DeterministicRNG("exhaust", label="loss")
        )
        alice = Identity("alice")
        sender = medium.attach(Node(alice))
        message = _make_message(alice)
        with pytest.raises(NetworkError):
            medium.send(message)
        # max_retries + 1 transmissions went out before the give-up.
        assert sender.recorder.tx_bits == message.wire_bits * 4
        # Nothing was delivered, so nothing entered the transcript.
        assert medium.total_messages() == 0


class TestLossDeterminism:
    def test_same_seed_same_draws(self):
        first, _, _ = _run_lossy(seed="replay")
        second, _, _ = _run_lossy(seed="replay")
        assert [r.attempts for r in first.receipts] == [r.attempts for r in second.receipts]
        assert first.total_bits(include_retries=True) == second.total_bits(include_retries=True)

    def test_different_seed_different_draws(self):
        first, _, _ = _run_lossy(seed="replay", sends=40)
        second, _, _ = _run_lossy(seed="other", sends=40)
        assert [r.attempts for r in first.receipts] != [r.attempts for r in second.receipts]


class TestLossKnobPrecedence:
    """The single-hop medium's one loss knob."""

    def test_certain_loss_is_rejected(self):
        with pytest.raises(NetworkError):
            BroadcastMedium(loss_probability=1.0)
