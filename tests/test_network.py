"""Tests for the simulated network: messages, medium, nodes, topology, events."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import DeviceProfile
from repro.exceptions import MembershipError, NetworkError, ParameterError
from repro.mathutils.rand import DeterministicRNG
from repro.mobility import Area, MobilityField, MultiHopMedium, RadioLink, StaticGrid
from repro.mobility.tiered import TieredMedium
from repro.network import (
    BroadcastMedium,
    EventTraceGenerator,
    JoinEvent,
    LeaveEvent,
    MergeEvent,
    Message,
    MessagePart,
    Node,
    PartitionEvent,
    RingTopology,
    TierConfig,
    group_element_part,
    identity_part,
)
from repro.pki import Identity


def _message(sender: Identity, label: str = "round1", bits: int = 1000) -> Message:
    return Message.broadcast(sender, label, [MessagePart("payload", b"x", bits)])


class TestMessage:
    def test_wire_bits_sums_parts(self):
        sender = Identity("a")
        message = Message.broadcast(
            sender,
            "round1",
            [identity_part(sender), group_element_part("z", 5, 1024), MessagePart("sig", b"s", 320)],
        )
        assert message.wire_bits == 32 + 1024 + 320

    def test_part_access(self):
        sender = Identity("a")
        message = Message.broadcast(sender, "r", [group_element_part("z", 7, 128)])
        assert message.value("z") == 7
        assert message.has_part("z") and not message.has_part("w")
        assert message.part_names() == ["z"]
        with pytest.raises(ParameterError):
            message.part("missing")

    def test_duplicate_part_names_rejected(self):
        sender = Identity("a")
        with pytest.raises(ParameterError):
            Message.broadcast(sender, "r", [MessagePart("x", 1, 8), MessagePart("x", 2, 8)])

    def test_negative_part_size_rejected(self):
        with pytest.raises(ParameterError):
            MessagePart("x", 1, -8)

    def test_addressing(self):
        a, b, c = Identity("a"), Identity("b"), Identity("c")
        broadcast = _message(a)
        assert broadcast.is_broadcast
        assert broadcast.addressed_to(b) and broadcast.addressed_to(c)
        assert not broadcast.addressed_to(a)
        unicast = Message.unicast(a, b, "r", [MessagePart("x", 1, 8)])
        assert unicast.addressed_to(b) and not unicast.addressed_to(c)


class TestBroadcastMedium:
    def test_broadcast_charges_sender_and_receivers(self):
        medium = BroadcastMedium()
        nodes = [Node(Identity(f"n{i}")) for i in range(4)]
        for node in nodes:
            medium.attach(node)
        message = _message(nodes[0].identity, bits=500)
        receipt = medium.send(message)
        assert receipt.attempts == 1
        assert receipt.delivered_to == [node.identity for node in nodes[1:]]
        assert nodes[0].recorder.tx_bits == 500
        assert nodes[0].recorder.rx_bits == 0
        for node in nodes[1:]:
            assert node.recorder.rx_bits == 500

    def test_unicast_only_reaches_recipient(self):
        medium = BroadcastMedium()
        a, b, c = (Node(Identity(x)) for x in "abc")
        for node in (a, b, c):
            medium.attach(node)
        message = Message.unicast(a.identity, b.identity, "r", [MessagePart("x", 1, 100)])
        medium.send(message)
        assert b.recorder.rx_bits == 100
        assert c.recorder.rx_bits == 0

    def test_unknown_sender_raises(self):
        medium = BroadcastMedium()
        with pytest.raises(NetworkError):
            medium.send(_message(Identity("ghost")))

    def test_detach_stops_delivery(self):
        medium = BroadcastMedium()
        a, b = Node(Identity("a")), Node(Identity("b"))
        medium.attach(a)
        medium.attach(b)
        medium.detach(b.identity)
        medium.send(_message(a.identity))
        assert b.recorder.rx_bits == 0
        assert b.identity not in medium
        assert len(medium) == 1

    def test_lossy_medium_retransmits(self):
        medium = BroadcastMedium(loss_probability=0.5, rng=DeterministicRNG("loss"))
        a, b = Node(Identity("a")), Node(Identity("b"))
        medium.attach(a)
        medium.attach(b)
        receipts = [medium.send(_message(a.identity, bits=10)) for _ in range(50)]
        attempts = [r.attempts for r in receipts]
        assert max(attempts) > 1  # some losses occurred
        assert a.recorder.tx_bits == 10 * sum(attempts)

    def test_excessive_loss_raises(self):
        medium = BroadcastMedium(loss_probability=0.99, max_retries=2, rng=DeterministicRNG("bad"))
        a = Node(Identity("a"))
        medium.attach(a)
        with pytest.raises(NetworkError):
            for _ in range(50):
                medium.send(_message(a.identity))

    def test_invalid_loss_probability(self):
        with pytest.raises(NetworkError):
            BroadcastMedium(loss_probability=1.5)

    def test_transcript_queries(self):
        medium = BroadcastMedium()
        a, b = Node(Identity("a")), Node(Identity("b"))
        medium.attach(a)
        medium.attach(b)
        medium.send(_message(a.identity, "round1", 10))
        medium.send(_message(b.identity, "round2", 20))
        assert medium.total_messages() == 2
        assert medium.total_bits() == 30
        assert [m.round_label for m in medium.transcript] == ["round1", "round2"]


# ---------------------------------------------------------------------------
# The addressee contract: delivery in attach order, each addressee once
# ---------------------------------------------------------------------------

_NAMES = ("n0", "n1", "n2", "n3", "n4")
_GHOSTS = ("ghost0", "ghost1")


def _scan_addressed(message: Message, identity: Identity) -> bool:
    """The historical addressing rule: identity equality on the recipient tuple."""
    if message.sender == identity:
        return False
    if message.recipients is None:
        return True
    return identity in message.recipients


class _ScanMedium(BroadcastMedium):
    """Reference medium: the historical O(n) scan over every attached node."""

    def _addressees(self, message):
        return [node for node in self.nodes if _scan_addressed(message, node.identity)]


def _contract_medium(kind: str, cls=BroadcastMedium) -> BroadcastMedium:
    rng = DeterministicRNG("addressees", label="medium")
    if kind == "lossy":
        # A small retry budget so that exhausted sends are exercised too.
        return cls(loss_probability=0.3, max_retries=3, rng=rng)
    return cls(rng=rng)


def _ledgers(nodes):
    return {
        name: (
            node.recorder.tx_bits,
            node.recorder.rx_bits,
            node.recorder.messages_sent,
            node.recorder.messages_received,
        )
        for name, node in nodes.items()
    }


_SEND_OPS = st.tuples(
    st.sampled_from(["send", "transmit"]),
    st.sampled_from(_NAMES),
    st.one_of(st.none(), st.lists(st.sampled_from(_NAMES + _GHOSTS), max_size=7)),
)
_MEMBERSHIP_OPS = st.tuples(st.sampled_from(["attach", "detach"]), st.sampled_from(_NAMES))


class TestAddresseeContract:
    @given(
        kind=st.sampled_from(["lossless", "lossy"]),
        initial=st.permutations(_NAMES),
        ops=st.lists(st.one_of(_MEMBERSHIP_OPS, _SEND_OPS), max_size=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_attach_order_scan(self, kind, initial, ops):
        medium = _contract_medium(kind)
        reference = _contract_medium(kind, _ScanMedium)
        nodes = {name: Node(Identity(name)) for name in _NAMES}
        reference_nodes = {name: Node(Identity(name)) for name in _NAMES}
        for name in initial:
            medium.attach(nodes[name])
            reference.attach(reference_nodes[name])
        for step, op in enumerate(ops):
            if op[0] == "attach":
                medium.attach(nodes[op[1]])
                reference.attach(reference_nodes[op[1]])
            elif op[0] == "detach":
                medium.detach(Identity(op[1]))
                reference.detach(Identity(op[1]))
            else:
                mode, sender, names = op
                recipients = None if names is None else tuple(Identity(n) for n in names)
                message = Message(
                    Identity(sender), f"r{step}", (MessagePart("x", b"", 8 + step),), recipients
                )
                before = _ledgers(nodes)
                outcomes = []
                for target in (medium, reference):
                    try:
                        receipt = getattr(target, mode)(message)
                    except NetworkError as exc:
                        outcomes.append(("error", str(exc)))
                    else:
                        outcomes.append(
                            ([i.name for i in receipt.delivered_to], receipt.attempts)
                        )
                assert outcomes[0] == outcomes[1]
                if outcomes[0][0] != "error":
                    delivered, attempts = outcomes[0]
                    assert sender not in delivered
                    assert len(set(delivered)) == len(delivered)
                    assert all(Identity(name) in medium for name in delivered)
                    if mode == "send":
                        # Every addressee is charged once per attempt, however
                        # often it is listed.
                        after = _ledgers(nodes)
                        for name in _NAMES:
                            charged = after[name][1] - before[name][1]
                            expected = message.wire_bits * attempts if name in delivered else 0
                            assert charged == expected
            assert _ledgers(nodes) == _ledgers(reference_nodes)
            assert [n.identity.name for n in medium.nodes] == [
                n.identity.name for n in reference.nodes
            ]

    def test_reattached_node_goes_last_and_duplicates_are_charged_once(self):
        medium = BroadcastMedium()
        nodes = {name: Node(Identity(name)) for name in "abcd"}
        for node in nodes.values():
            medium.attach(node)
        medium.detach(Identity("b"))
        medium.attach(nodes["b"])
        broadcast = medium.send(_message(Identity("a"), bits=10))
        assert [i.name for i in broadcast.delivered_to] == ["c", "d", "b"]
        # Reversed, with a duplicate, the sender and an unattached name.
        recipients = tuple(Identity(n) for n in ("d", "b", "ghost", "a", "d", "c"))
        multicast = Message(Identity("a"), "r", (MessagePart("x", b"", 10),), recipients)
        for receipt in (medium.send(multicast), medium.transmit(multicast)):
            assert [i.name for i in receipt.delivered_to] == ["c", "d", "b"]
        assert nodes["d"].recorder.rx_bits == 30
        assert nodes["d"].recorder.messages_received == 3
        assert nodes["a"].recorder.rx_bits == 0


# ---------------------------------------------------------------------------
# Running traffic totals: energy equals priced bits
# ---------------------------------------------------------------------------

def _single_hop(seed):
    rng = DeterministicRNG(seed, label="medium")
    return BroadcastMedium(loss_probability=0.3, max_retries=60, rng=rng)


def _multi_hop(seed):
    # A 3x3 grid, 100 m apart, 120 m range: corner to corner is four hops.
    names = [f"m{i}" for i in range(9)]
    field = MobilityField(
        names, StaticGrid(), Area(300.0, 300.0), 1.0, DeterministicRNG(seed, label="field")
    )
    link = RadioLink(field, 120.0, base_loss=0.1, edge_loss=0.3)
    return MultiHopMedium(field, link, max_retries=60, rng=DeterministicRNG(seed, label="medium"))


def _tiered(seed):
    config = TierConfig(
        tiers={"ground": "ground", "sat": "satellite-bursty"},
        members={"sat": 3},
        gateways={"ground:sat": 1},
        loss_floor=0.1,
    )
    tier_map = config.build_map([f"m{i}" for i in range(9)])
    return TieredMedium(tier_map, max_retries=60, rng=DeterministicRNG(seed, label="medium"))


class TestTrafficTotals:
    """The O(1) running totals against the ledgers and the receipts.

    Every on-air copy (retries and relays included) is charged to the node
    that transmitted it, so the medium's totals must equal the ledgers of
    every node ever attached, and re-summing the receipts must agree too.
    """

    @pytest.mark.parametrize(
        "build, mode",
        [
            (_single_hop, "send"),
            (_single_hop, "transmit"),
            (_multi_hop, "send"),
            (_multi_hop, "transmit"),
            (_tiered, "send"),
            (_tiered, "transmit"),
        ],
    )
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=8, deadline=None)
    def test_totals_equal_ledgers_and_receipts(self, build, mode, seed):
        medium = build(seed)
        picker = random.Random(seed)
        nodes = [Node(Identity(f"m{i}")) for i in range(9)]
        for node in nodes[:8]:
            medium.attach(node)
        # m8 joins late; m3 (never a gateway: the gateway is the first
        # ground member) leaves and comes back.
        for step in range(30):
            if step == 10:
                medium.attach(nodes[8])
            if step == 15:
                medium.detach(nodes[3].identity)
            if step == 20:
                medium.attach(nodes[3])
            sender = picker.choice(medium.nodes).identity
            recipients = None
            if picker.random() < 0.5:
                recipients = tuple(picker.sample([n.identity for n in nodes], 3))
            parts = (MessagePart("x", b"", picker.randint(8, 64)),)
            getattr(medium, mode)(Message(sender, f"r{step}", parts, recipients))

        receipts = medium.receipts
        assert medium.total_messages() == len(receipts) == 30
        assert medium.total_bits() == sum(r.message.wire_bits for r in receipts)
        on_air = sum(r.message.wire_bits * r.transmissions for r in receipts)
        assert medium.total_bits(include_retries=True) == on_air
        assert medium.total_transmissions() == sum(r.transmissions for r in receipts)
        assert medium.total_relay_bits() == sum(r.relay_bits for r in receipts)
        assert medium.total_hops() == sum(r.hops for r in receipts)
        assert medium.total_bits(include_retries=True) == sum(n.recorder.tx_bits for n in nodes)
        assert medium.total_transmissions() == sum(n.recorder.messages_sent for n in nodes)


class TestNode:
    def test_energy_requires_profile(self):
        node = Node(Identity("n"))
        with pytest.raises(NetworkError):
            node.energy()
        node.recorder.record_tx(1000)
        breakdown = node.energy(DeviceProfile())
        assert breakdown.tx_j > 0

    def test_reset_costs(self):
        node = Node(Identity("n"))
        node.recorder.record_tx(100)
        node.reset_costs()
        assert node.recorder.tx_bits == 0


class TestRingTopology:
    def test_basic_structure(self, members):
        ring = RingTopology(members)
        assert ring.size == len(members)
        assert ring.controller() == members[0]
        assert ring.last() == members[-1]
        assert ring.index_of(members[2]) == 3
        assert ring.member_at(1) == members[0]
        assert ring.member_at(len(members) + 1) == members[0]  # wrap-around

    def test_neighbours_wrap(self, members):
        ring = RingTopology(members)
        assert ring.left_neighbour(members[0]) == members[-1]
        assert ring.right_neighbour(members[-1]) == members[0]
        assert ring.right_neighbour(members[2]) == members[3]

    def test_odd_even_indexed(self, members):
        ring = RingTopology(members)
        odd = ring.odd_indexed()
        even = ring.even_indexed()
        assert members[0] in odd and members[1] in even
        assert len(odd) + len(even) == len(members)
        assert members[2] not in ring.odd_indexed(exclude=[members[2]])

    def test_join_leave_partition_merge(self, members):
        ring = RingTopology(members)
        newcomer = Identity("newcomer")
        joined = ring.with_join(newcomer)
        assert joined.size == ring.size + 1 and joined.last() == newcomer
        left = joined.with_leave(members[3])
        assert members[3] not in left
        partitioned = left.with_partition([members[1], members[4]])
        assert partitioned.size == left.size - 2
        other = RingTopology([Identity("x1"), Identity("x2")])
        merged = partitioned.merged_with(other)
        assert merged.size == partitioned.size + 2

    def test_error_cases(self, members):
        ring = RingTopology(members)
        with pytest.raises(ParameterError):
            RingTopology(members[:1])
        with pytest.raises(ParameterError):
            RingTopology(members + [members[0]])
        with pytest.raises(MembershipError):
            ring.with_join(members[0])
        with pytest.raises(MembershipError):
            ring.with_leave(Identity("ghost"))
        with pytest.raises(MembershipError):
            ring.with_partition([Identity("ghost")])
        with pytest.raises(MembershipError):
            ring.with_partition(members[1:])  # would leave fewer than 2 members
        with pytest.raises(MembershipError):
            ring.merged_with(RingTopology(members[:2]))
        with pytest.raises(MembershipError):
            ring.index_of(Identity("ghost"))


class TestEventTraces:
    def test_trace_is_deterministic(self, members):
        gen_a = EventTraceGenerator(DeterministicRNG("trace"))
        gen_b = EventTraceGenerator(DeterministicRNG("trace"))
        trace_a = gen_a.trace(members, 20)
        trace_b = gen_b.trace(members, 20)
        assert [type(e).__name__ for e in trace_a] == [type(e).__name__ for e in trace_b]

    def test_trace_respects_minimum_group_size(self, members):
        generator = EventTraceGenerator(
            DeterministicRNG("shrink"), join_weight=0.0, leave_weight=10.0, merge_weight=0.0, partition_weight=5.0
        )
        current = list(members)
        for event in generator.trace(members, 30, min_group_size=3):
            if isinstance(event, LeaveEvent):
                current = [m for m in current if m.name != event.leaving.name]
            elif isinstance(event, PartitionEvent):
                gone = {i.name for i in event.leaving}
                current = [m for m in current if m.name not in gone]
            elif isinstance(event, JoinEvent):
                current.append(event.joining)
            elif isinstance(event, MergeEvent):
                current.extend(event.other_group)
            assert len(current) >= 3

    def test_controller_never_evicted(self, members):
        generator = EventTraceGenerator(DeterministicRNG("ctrl"), join_weight=1, leave_weight=10)
        for event in generator.trace(members, 40):
            if isinstance(event, LeaveEvent):
                assert event.leaving.name != members[0].name
            if isinstance(event, PartitionEvent):
                assert members[0].name not in {i.name for i in event.leaving}

    def test_event_mix(self, members):
        generator = EventTraceGenerator(DeterministicRNG("mix"), merge_weight=5, partition_weight=5)
        kinds = {type(e).__name__ for e in generator.trace(members, 60)}
        assert {"JoinEvent", "LeaveEvent"} <= kinds
        assert "MergeEvent" in kinds or "PartitionEvent" in kinds

    def test_invalid_weights(self):
        with pytest.raises(ParameterError):
            EventTraceGenerator(DeterministicRNG(0), join_weight=-1)
        with pytest.raises(ParameterError):
            EventTraceGenerator(DeterministicRNG(0), join_weight=0, leave_weight=0, merge_weight=0, partition_weight=0)
        with pytest.raises(ParameterError):
            EventTraceGenerator(DeterministicRNG(0)).trace([], -1)
        # Sizes a merge or partition cannot have are rejected, not clamped.
        for sizes in ({"merge_size": 1}, {"merge_size": 0}, {"partition_size": 0}, {"partition_size": -3}):
            with pytest.raises(ParameterError, match="at least"):
                EventTraceGenerator(DeterministicRNG(0), **sizes)
