"""The hierarchical cluster-tree GKA: tree, partitioning, events, attacks.

Covers the cluster subsystem's contract end to end:

* the content-labelled leftist key tree dirties exactly the leaf-to-root
  path of a rekeyed cluster (the O(log n) localisation claim);
* both registered variants (``cluster-tree[bd]``, ``cluster-tree[gka]``)
  keep every member on the same key after establish / join / leave /
  partition / merge, with untouched clusters keeping their keys;
* a leader's departure re-elects the leader (the new sub-ring controller)
  and the tree's representative follows;
* the security oracles stay green under churn, the eavesdropper scores
  ``clean``, and active injection scores ``detected`` for *both* variants —
  the tree's key-confirmation round catches the forgery that silently
  breaks flat unauthenticated BD.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, replace

import pytest

from repro.adversary import AdversaryConfig, run_attack_matrix
from repro.cluster import (
    ClusterState,
    ClusterTreeProtocol,
    auto_cluster_size,
    build_tree,
    chunk_members,
    choose_join_cluster,
    geographic_clusters,
    leaf_label,
)
from repro.cluster import protocol as cluster_protocol
from repro.cluster.machines import CONFIRM_PREFIX, ClusterCrew, ClusterMachine
from repro.core import gka as gka_module
from repro.core.registry import create_protocol, protocol_tags
from repro.energy import WLAN_SPECTRUM24
from repro.engine import Early, EngineConfig, FixedLatency, TransceiverLatency
from repro.engine.executor import drive_plan
from repro.exceptions import KeyConfirmationError, MembershipError, ParameterError
from repro.mathutils.rand import DeterministicRNG
from repro.mobility import Area, MobilityField, MultiHopMedium, RadioLink, StaticGrid
from repro.network.events import JoinEvent, LeaveEvent, MergeEvent, PartitionEvent
from repro.network.medium import BroadcastMedium
from repro.pki import Identity
from repro.sim import PoissonChurn, Scenario, ScenarioRunner, TraceReplay

CLUSTER_PROTOCOLS = ("cluster-tree[bd]", "cluster-tree[gka]")


def _members(prefix: str, n: int):
    return [Identity(f"{prefix}-{i:03d}") for i in range(n)]


def _establish(setup, protocol_name: str, n: int, *, seed="cluster-test", **kwargs):
    protocol = create_protocol(protocol_name, setup)
    medium = BroadcastMedium()
    result = protocol.run(_members("cl", n), medium=medium, seed=seed, **kwargs)
    return protocol, medium, result


# ---------------------------------------------------------------------------
# Key tree
# ---------------------------------------------------------------------------

class TestClusterTree:
    def _leaves(self, n, epoch=0):
        return [(uid, epoch, f"leader-{uid}") for uid in range(n)]

    @pytest.mark.parametrize(
        "count,depth", [(1, 1), (2, 2), (3, 3), (4, 3), (5, 4), (8, 4), (9, 5)]
    )
    def test_leftist_depth(self, count, depth):
        assert build_tree(self._leaves(count)).depth == depth

    def test_depth_is_logarithmic(self):
        for count in (16, 100, 1000):
            tree = build_tree(self._leaves(count))
            assert tree.depth <= math.ceil(math.log2(count)) + 1

    def test_path_runs_leaf_to_root(self):
        tree = build_tree(self._leaves(5))
        path = tree.path_from_leaf(leaf_label(2, 0))
        assert path[0].label == leaf_label(2, 0)
        assert path[-1].label == tree.root_label
        labels = [node.label for node in path]
        for below, above in zip(labels, labels[1:]):
            parent = tree.nodes[above]
            assert below in (parent.left, parent.right)
            assert tree.sibling(below) in (parent.left, parent.right)
        assert tree.sibling(tree.root_label) is None

    def test_rekey_dirties_exactly_the_leaf_path(self):
        before = build_tree(self._leaves(8))
        cache = {label: 1 for label in before.nodes}
        bumped = [
            (uid, 1 if uid == 3 else 0, f"leader-{uid}") for uid in range(8)
        ]
        after = build_tree(bumped)
        dirty = set(after.dirty_labels(cache))
        path = {node.label for node in after.path_from_leaf(leaf_label(3, 1))}
        assert dirty == path
        assert len(dirty) == after.depth  # O(log n), not O(n)

    def test_append_dirties_only_the_right_spine(self):
        before = build_tree(self._leaves(4))
        cache = {label: 1 for label in before.nodes}
        after = build_tree(self._leaves(5))
        dirty = set(after.dirty_labels(cache))
        # The old 4-leaf subtree is label-identical; only the new leaf and
        # the new root above it are fresh.
        assert dirty == {leaf_label(4, 0), after.root_label}

    def test_representative_is_leftmost_leader(self):
        tree = build_tree(self._leaves(6))
        assert tree.nodes[tree.root_label].rep_name == "leader-0"
        for leaf in tree.leaf_order:
            node = tree.nodes[leaf]
            assert node.is_leaf and node.rep_name == f"leader-{node.cluster_uid}"

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            build_tree([])


# ---------------------------------------------------------------------------
# Partitioning strategies
# ---------------------------------------------------------------------------

class _FakeField:
    """The slice of the mobility-field API the partitioner consumes.

    Positions are plain ``(x, y)`` tuples, as ``MobilityField.position``
    returns them.
    """

    def __init__(self, positions):
        self._positions = dict(positions)

    def __contains__(self, name):
        return name in self._positions

    def position(self, name):
        return self._positions[name]

    def distance(self, a, b):
        return math.dist(self._positions[a], self._positions[b])


class TestPartitioning:
    def test_auto_cluster_size(self):
        assert auto_cluster_size(2) == 2
        assert auto_cluster_size(4) == 2
        assert auto_cluster_size(100) == 10
        assert auto_cluster_size(10_000) == 100

    def test_chunks_are_balanced_and_ordered(self):
        members = _members("chunk", 10)
        chunks = chunk_members(members, 3)
        assert [len(c) for c in chunks] == [4, 3, 3]
        assert [m.name for chunk in chunks for m in chunk] == [m.name for m in members]

    def test_no_chunk_below_two(self):
        for n in range(2, 20):
            for target in (2, 3, 5):
                assert all(len(c) >= 2 for c in chunk_members(_members("m", n), target))

    def test_chunking_needs_two_members(self):
        with pytest.raises(ValueError):
            chunk_members(_members("m", 1), 2)

    def test_geographic_clusters_follow_locality(self):
        west = _members("west", 3)
        east = _members("east", 3)
        field = _FakeField(
            {m.name: (float(i), 0.0) for i, m in enumerate(west)}
            | {m.name: (100.0 + i, 0.0) for i, m in enumerate(east)}
        )
        clusters = geographic_clusters(east + west, 3, field)
        grouped = [sorted(m.name for m in cluster) for cluster in clusters]
        assert sorted(m.name for m in west) in grouped
        assert sorted(m.name for m in east) in grouped

    def test_geographic_falls_back_without_positions(self):
        members = _members("nowhere", 6)
        field = _FakeField({})
        assert geographic_clusters(members, 3, field) == chunk_members(members, 3)

    def test_join_prefers_smallest_then_nearest(self):
        @dataclass
        class _C:
            members: list

            @property
            def leader(self):
                return self.members[0]

            @property
            def size(self):
                return len(self.members)

        big = _C(_members("big", 4))
        small = _C(_members("small", 2))
        joiner = Identity("joiner")
        assert choose_join_cluster([big, small], joiner) == 1
        field = _FakeField(
            {joiner.name: (0.0, 0.0), big.leader.name: (1.0, 0.0), small.leader.name: (50.0, 0.0)}
        )
        assert choose_join_cluster([big, small], joiner, field) == 0


# ---------------------------------------------------------------------------
# Establishment
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", CLUSTER_PROTOCOLS)
class TestClusterEstablishment:
    def test_agreement_and_sparse_state(self, small_setup, protocol):
        _, _, result = _establish(small_setup, protocol, 10)
        assert result.all_agree()
        state = result.state
        assert isinstance(state, ClusterState)
        assert state.size == 10
        assert len(state.clusters) >= 2
        assert all(c.size >= 2 for c in state.clusters)
        assert sum(state.cluster_sizes()) == 10
        # The flat ring the oracles see is the concatenation of the sub-rings.
        assert [m.name for m in state.ring.members] == [
            m.name for c in state.clusters for m in c.members
        ]
        assert "clusters" in state.describe()

    def test_cluster_keys_are_distinct_from_the_group_key(self, small_setup, protocol):
        _, _, result = _establish(small_setup, protocol, 9)
        state = result.state
        keys = [c.cluster_key for c in state.clusters]
        assert all(k is not None and k != result.group_key for k in keys)
        assert len(set(keys)) == len(keys)
        # Each sub-state's view is the cluster key, not the root key.
        for cluster in state.clusters:
            assert cluster.sub_state.group_key == cluster.cluster_key

    def test_root_blinded_key_never_cached_or_transmitted(self, small_setup, protocol):
        _, medium, result = _establish(small_setup, protocol, 10)
        state = result.state
        assert set(state.bk_cache) == set(state.tree.nodes) - {state.tree.root_label}
        root_rounds = {m.round_label for m in medium.transcript}
        assert f"ct-bk/{state.tree.root_label}" not in root_rounds

    def test_same_seed_same_key(self, small_setup, protocol):
        _, _, first = _establish(small_setup, protocol, 8, seed=7)
        _, _, again = _establish(small_setup, protocol, 8, seed=7)
        _, _, other = _establish(small_setup, protocol, 8, seed=8)
        assert first.group_key == again.group_key
        assert first.group_key != other.group_key

    @staticmethod
    def _forge(victim, sibling):
        """Feed ``victim`` a forged blinded key for ``sibling``; list its aborts."""
        aborted = []

        def guard(hook):
            def guarded(*args):
                try:
                    return hook(*args)
                except KeyConfirmationError as exc:
                    aborted.append(exc)
                    victim.finished = True
                    return []

            return guarded

        def forge(hook):
            def forging(message, now):
                if message.round_label == f"ct-bk/{sibling}":
                    parts = tuple(
                        replace(part, value=part.value + 1) if part.name == "bk" else part
                        for part in message.parts
                    )
                    message = replace(message, parts=parts)
                return hook(message, now)

            return forging

        victim.start = guard(victim.start)
        victim.on_wake = guard(victim.on_wake)
        victim.on_message = guard(forge(victim.on_message))
        return aborted

    def test_forged_blinded_key_fails_only_its_receiver(self, small_setup, protocol):
        # Cluster-mates share their path secrets, which the run computes once;
        # a member fed a forged sibling key must miss that and fail alone.
        _, _, honest = _establish(small_setup, protocol, 12, seed=5, cluster_size=3)
        medium = BroadcastMedium()
        plan = create_protocol(protocol, small_setup).build_machines(
            _members("cl", 12), medium=medium, seed=5, cluster_size=3
        )
        victim = plan.machines[1]  # not a leader, so it broadcasts no blinded key
        sibling = victim.run.tree.sibling(leaf_label(victim.crew.uid, victim.crew.epoch))
        aborted = self._forge(victim, sibling)
        drive_plan(plan, medium)
        assert len(aborted) == 1
        keys = {m.identity.name: m.party.group_key for m in plan.machines}
        assert keys.pop(victim.identity.name) != honest.group_key
        assert set(keys.values()) == {honest.group_key}

    def test_forged_dirty_key_after_join_fails_only_its_receiver(
        self, small_setup, protocol, monkeypatch
    ):
        # After a Join the run starts from the secrets carried over from
        # establishment; a member of an untouched cluster fed a forged dirty
        # sibling key must still miss them and fail alone.
        joiner = Identity("cl-new")

        def join():
            proto, medium, established = _establish(
                small_setup, protocol, 12, seed=5, cluster_size=3
            )
            event = JoinEvent(joining=joiner)
            return proto.apply_event(established.state, event, medium=medium, seed=6)

        honest = join()
        assert honest.all_agree()
        drive = cluster_protocol.drive_plan
        runs = []

        def forging_drive(plan, medium, engine=None):
            victim = next(
                m for m in plan.machines
                if not m.crew.rekey and m.identity != m.crew.leader
            )
            tree, dirty = victim.run.tree, victim.run.dirty
            path = tree.path_from_leaf(leaf_label(victim.crew.uid, victim.crew.epoch))
            sibling = next(
                tree.sibling(node.label) for node in path
                if tree.sibling(node.label) in dirty
            )
            carried = len(victim.run.memo)
            runs.append((plan, victim, carried, self._forge(victim, sibling)))
            return drive(plan, medium, engine=engine)

        monkeypatch.setattr(cluster_protocol, "drive_plan", forging_drive)
        join()
        [(plan, victim, carried, aborted)] = runs
        assert carried > 0
        assert len(aborted) == 1
        keys = {m.identity.name: m.party.group_key for m in plan.machines}
        assert keys.pop(victim.identity.name) != honest.group_key
        assert set(keys.values()) == {honest.group_key}

    def test_cluster_size_override(self, small_setup, protocol):
        _, _, result = _establish(small_setup, protocol, 12, cluster_size=3)
        assert result.all_agree()
        assert result.state.cluster_sizes() == [3, 3, 3, 3]

    def test_rejects_tiny_groups_and_unknown_options(self, small_setup, protocol):
        with pytest.raises(ParameterError):
            _establish(small_setup, protocol, 1)
        with pytest.raises(ParameterError):
            _establish(small_setup, protocol, 4, warp=9)

    def test_latency_mode_reaches_agreement(self, small_setup, protocol):
        proto = create_protocol(protocol, small_setup)
        medium = BroadcastMedium()
        engine = EngineConfig(latency=FixedLatency(0.01))
        result = proto.run(_members("lat", 6), medium=medium, seed=3, engine=engine)
        assert result.all_agree()
        assert result.sim_latency_s > 0
        assert result.timeouts == 0

    def test_registered_with_cluster_tag(self, small_setup, protocol):
        assert "cluster" in protocol_tags(protocol)
        proto = create_protocol(protocol, small_setup)
        assert isinstance(proto, ClusterTreeProtocol)
        assert proto.name == protocol
        assert "cluster size" in proto.describe()


# ---------------------------------------------------------------------------
# Dynamic events
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", CLUSTER_PROTOCOLS)
class TestClusterEvents:
    @pytest.fixture()
    def established(self, small_setup, protocol):
        return _establish(small_setup, protocol, 10, seed="events")

    def test_join_rekeys_one_cluster_only(self, small_setup, established):
        proto, medium, result = established
        # Events mutate surviving party state in place (the flat dynamic
        # protocols' semantics too), so capture the old key up front.
        old_key = result.group_key
        before = {c.uid: (c.epoch, c.cluster_key) for c in result.state.clusters}
        joined = proto.apply_event(
            result.state, JoinEvent(joining=Identity("cl-new")), medium=medium, seed=1
        )
        assert joined.all_agree()
        assert joined.group_key != old_key
        assert joined.state.size == 11
        changed = [
            c.uid
            for c in joined.state.clusters
            if before.get(c.uid) != (c.epoch, c.cluster_key)
        ]
        assert len(changed) == 1
        host = joined.state.cluster_of("cl-new")
        assert changed == [host.uid]

    def test_leave_preserves_untouched_cluster_keys(self, small_setup, established):
        proto, medium, result = established
        state = result.state
        leaving = state.clusters[-1].members[-1]  # not a leader
        old_key = result.group_key
        before = {c.uid: c.cluster_key for c in state.clusters}
        left = proto.apply_event(state, LeaveEvent(leaving=leaving), medium=medium, seed=2)
        assert left.all_agree()
        assert left.group_key != old_key
        assert leaving.name not in left.state.parties
        shrunk = left.state.cluster_of(state.clusters[-1].members[0].name)
        assert shrunk.cluster_key != before[shrunk.uid]
        for cluster in left.state.clusters:
            if cluster.uid != shrunk.uid:
                assert cluster.cluster_key == before[cluster.uid]

    def test_leader_leave_reelects_the_next_sub_ring_member(self, small_setup, established):
        proto, medium, result = established
        state = result.state
        target = state.clusters[0]
        old_leader, successor = target.members[0], target.members[1]
        left = proto.apply_event(
            state, LeaveEvent(leaving=old_leader), medium=medium, seed=3
        )
        assert left.all_agree()
        new_cluster = left.state.cluster_of(successor.name)
        assert new_cluster.uid == target.uid
        assert new_cluster.leader.name == successor.name
        # The tree's representative for that leaf follows the new leader.
        assert left.state.tree.nodes[new_cluster.leaf].rep_name == successor.name

    def test_partition_across_clusters(self, small_setup, established):
        proto, medium, result = established
        state = result.state
        gone = (state.clusters[0].members[-1], state.clusters[-1].members[-1])
        split = proto.apply_event(
            state, PartitionEvent(leaving=gone), medium=medium, seed=4
        )
        assert split.all_agree()
        assert split.state.size == state.size - 2
        for identity in gone:
            assert identity.name not in split.state.parties

    def test_merge_appends_new_clusters(self, small_setup, established):
        proto, medium, result = established
        old_key = result.group_key
        incoming = tuple(_members("inc", 4))
        merged = proto.apply_event(
            result.state, MergeEvent(other_group=incoming), medium=medium, seed=5
        )
        assert merged.all_agree()
        assert merged.state.size == result.state.size + 4
        for identity in incoming:
            assert identity.name in merged.state.parties
        assert merged.group_key != old_key

    def test_chained_events_keep_agreement_and_fresh_keys(self, small_setup, established):
        proto, medium, result = established
        state, keys = result.state, {result.group_key}
        events = [
            JoinEvent(joining=Identity("chain-a")),
            LeaveEvent(leaving=state.clusters[1].members[1]),
            MergeEvent(other_group=tuple(_members("chain-m", 3))),
            PartitionEvent(leaving=(state.clusters[0].members[1],)),
            JoinEvent(joining=Identity("chain-b")),
        ]
        for index, event in enumerate(events):
            outcome = proto.apply_event(state, event, medium=medium, seed=index)
            assert outcome.all_agree()
            state = outcome.state
            keys.add(outcome.group_key)
        assert len(keys) == len(events) + 1

    def test_single_member_cluster_is_folded(self, small_setup, protocol):
        proto, medium, result = _establish(
            small_setup, protocol, 4, seed="fold", cluster_size=2
        )
        assert result.state.cluster_sizes() == [2, 2]
        left = proto.apply_event(
            result.state,
            LeaveEvent(leaving=result.state.clusters[1].members[1]),
            medium=medium,
            seed=6,
        )
        assert left.all_agree()
        assert left.state.cluster_sizes() == [3]
        assert len(left.state.tree.nodes) == 1  # single-leaf tree

    def test_oversized_cluster_splits_on_join(self, small_setup, protocol):
        proto, medium, result = _establish(
            small_setup, protocol, 4, seed="split", cluster_size=2
        )
        # Pin the target on the instance too — events recompute it from
        # ``self.cluster_size``, and the split threshold is ``2 * target``.
        proto.cluster_size = 2
        state = result.state
        for index in range(5):
            outcome = proto.apply_event(
                state,
                JoinEvent(joining=Identity(f"split-{index}")),
                medium=medium,
                seed=index,
            )
            assert outcome.all_agree()
            state = outcome.state
        assert state.size == 9
        assert len(state.clusters) >= 3
        assert all(c.size <= 4 for c in state.clusters)  # 2 * cluster_size

    def test_rekey_traffic_is_localized(self, small_setup, protocol):
        proto, medium, result = _establish(small_setup, protocol, 25, seed="local")
        mark = medium.total_messages()
        leaving = result.state.clusters[-1].members[-1]
        left = proto.apply_event(
            result.state, LeaveEvent(leaving=leaving), medium=medium, seed=7
        )
        assert left.all_agree()
        rekey_messages = medium.total_messages() - mark
        # Flat BD re-execution sends 2n messages (two full rounds) before
        # signatures; the cluster rekey touches one sub-ring plus the tree
        # path, far below half of that.
        assert rekey_messages < left.state.size

    def test_flat_foreign_state_is_reclustered(self, small_setup, protocol):
        flat = create_protocol("bd-unauthenticated", small_setup).run(
            _members("flat", 6), seed="flat"
        )
        proto = create_protocol(protocol, small_setup)
        adopted = proto.apply_event(flat.state, JoinEvent(joining=Identity("flat-new")))
        assert adopted.all_agree()
        assert isinstance(adopted.state, ClusterState)
        assert adopted.state.size == 7

    def test_event_cannot_empty_the_group(self, small_setup, protocol):
        proto, medium, result = _establish(small_setup, protocol, 4, seed="drain")
        with pytest.raises(MembershipError):
            proto.apply_event(
                result.state,
                PartitionEvent(leaving=tuple(result.state.members[1:])),
                medium=medium,
            )


# ---------------------------------------------------------------------------
# Latency mode on a lossy multi-hop grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "sub_protocol", ["bd-unauthenticated", "proposed-gka"], ids=CLUSTER_PROTOCOLS
)
def test_establish_join_leave_on_multihop_latency_medium(small_setup, monkeypatch, sub_protocol):
    """Nine nodes on the golden latency grid (3x3, 100 m apart, 180 m range).

    Seed 1 reorders both kinds of message a cluster member cannot take yet:
    an inner Round-2 copy that overtakes Round 1, and a ``ct-confirm`` that
    arrives before the member has its root key.  Both raise ``Early`` out of
    the wrapper, and the executor replays them.
    """
    early = {"inner": 0, "confirm": 0}
    on_message = ClusterMachine.on_message

    def counting(machine, message, now):
        try:
            return on_message(machine, message, now)
        except Early:
            early["confirm" if message.round_label.startswith(CONFIRM_PREFIX) else "inner"] += 1
            raise

    monkeypatch.setattr(ClusterMachine, "on_message", counting)
    members = _members("mh", 8)
    newcomer = Identity("mh-new")
    field = MobilityField(
        [m.name for m in members] + [newcomer.name],
        StaticGrid(jitter=10.0),
        Area(300.0, 300.0),
        1.0,
        DeterministicRNG(1, label="field"),
    )
    medium = MultiHopMedium(
        field,
        RadioLink(field, 180.0, base_loss=0.1, edge_loss=0.3),
        max_hops=4,
        rng=DeterministicRNG(1, label="medium"),
    )
    engine = EngineConfig(latency=TransceiverLatency(WLAN_SPECTRUM24))
    proto = ClusterTreeProtocol(small_setup, sub_protocol=sub_protocol, cluster_size=3)
    result = proto.run(members, medium=medium, seed=1, engine=engine)
    assert result.all_agree()
    result = proto.apply_event(
        result.state, JoinEvent(joining=newcomer), medium=medium, seed=11, engine=engine
    )
    assert result.all_agree()
    result = proto.apply_event(
        result.state,
        LeaveEvent(leaving=result.state.members[2]),
        medium=medium,
        seed=12,
        engine=engine,
    )
    assert result.all_agree()
    assert result.state.size == 8
    assert early["inner"] > 0 and early["confirm"] > 0


# ---------------------------------------------------------------------------
# Each machine changes only its own state
# ---------------------------------------------------------------------------

def _tampered_first_attempt(monkeypatch):
    """Corrupt every Round-2 response of the GKA's first attempt."""
    build = gka_module.ProposedGKAProtocol.build_machines

    def tamper(message, attempt):
        if attempt > 0 or not message.has_part("s"):
            return message
        parts = tuple(
            replace(part, value=part.value + 1) if part.name == "s" else part
            for part in message.parts
        )
        return replace(message, parts=parts)

    def build_tampered(self, members, **kwargs):
        return build(self, members, tamper=tamper, **kwargs)

    monkeypatch.setattr(gka_module.ProposedGKAProtocol, "build_machines", build_tampered)


def test_bd_establishment_and_join_never_wake_a_wrapper(small_setup, wake_log):
    # BD members finish on their own last Round-2 message, so no wrapper
    # needs waking: no kernel event is spent on a nudge.
    wakes = wake_log(ClusterMachine)
    proto, medium, result = _establish(small_setup, "cluster-tree[bd]", 12, cluster_size=3)
    joined = proto.apply_event(
        result.state, JoinEvent(joining=Identity("cl-new")), medium=medium, seed=1
    )
    assert joined.all_agree()
    assert wakes == []


def test_gka_wrapper_hands_each_outcome_to_its_inner_machine(
    small_setup, monkeypatch, wake_log
):
    # A failed first batch check, then a verified retransmission: each
    # wrapper is woken once per outcome, and its inner machine gets the same
    # payload in that wake.
    _tampered_first_attempt(monkeypatch)
    wrapper_wakes = wake_log(ClusterMachine)
    inner_wakes = wake_log(gka_module._GkaPartyMachine)
    _, _, result = _establish(small_setup, "cluster-tree[gka]", 9, cluster_size=3)
    assert result.all_agree()
    outcomes = ["retransmit-round2", "verified"]
    for name in (m.name for m in result.state.members):
        assert [p for n, p in wrapper_wakes if n == name] == outcomes
        assert [p for n, p in inner_wakes if n == name] == outcomes
    assert len(wrapper_wakes) == len(inner_wakes) == 2 * 9


@pytest.mark.parametrize("protocol", CLUSTER_PROTOCOLS)
def test_runs_leave_no_machine_behind(small_setup, instance_refs, protocol):
    # Without the cyclic collector, dropping a run's result must free every
    # machine, crew and coordinator it built: nothing shared keeps them.
    refs = instance_refs(ClusterMachine, ClusterCrew, gka_module._Round2Coordinator)
    gc.collect()
    gc.disable()
    try:
        proto, medium, result = _establish(small_setup, protocol, 9, cluster_size=3)
        result = proto.apply_event(
            result.state, JoinEvent(joining=Identity("cl-new")), medium=medium, seed=1
        )
        result = proto.apply_event(
            result.state, LeaveEvent(leaving=result.state.members[4]), medium=medium, seed=2
        )
        assert result.all_agree()
        del result
        assert refs and [ref for ref in refs if ref() is not None] == []
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Scenario oracles and attacks
# ---------------------------------------------------------------------------

def _attack_scenario(adversary=None, **overrides):
    options = dict(
        name="cluster-attack",
        initial_size=8,
        schedule=TraceReplay(
            events=(
                LeaveEvent(leaving=Identity("member-005")),
                JoinEvent(joining=Identity("member-new")),
            )
        ),
        seed=11,
        adversary=adversary,
    )
    options.update(overrides)
    return Scenario(**options)


@pytest.mark.parametrize("protocol", CLUSTER_PROTOCOLS)
class TestClusterSecurity:
    def test_churn_keeps_all_oracles_green(self, small_setup, protocol):
        scenario = Scenario(
            name="cluster-churn",
            initial_size=6,
            schedule=PoissonChurn(length=6, join_rate=2.0, leave_rate=2.0),
            seed=5,
            loss_probability=0.1,
        )
        report = ScenarioRunner(small_setup, check_agreement=False).run(protocol, scenario)
        assert report.agreed_throughout
        outcomes = report.oracle_outcomes()
        assert outcomes["key-consistency"] is True
        assert outcomes["forward-secrecy"] is True
        assert outcomes["backward-secrecy"] is True

    def test_eavesdropper_scores_clean(self, small_setup, protocol):
        report = ScenarioRunner(small_setup, check_agreement=False).run(
            protocol, _attack_scenario(AdversaryConfig.preset("eavesdrop"))
        )
        assert report.security_verdict == "clean"
        assert report.oracle_outcomes()["implicit-key-auth"] is True

    def test_injection_is_detected_via_key_confirmation(self, small_setup, protocol):
        # Flat unauthenticated BD breaks *silently* under this attacker; the
        # tree's confirmation round turns the same forgery into a detected
        # abort even for the unauthenticated sub-protocol.
        report = ScenarioRunner(small_setup, check_agreement=False).run(
            protocol, _attack_scenario(AdversaryConfig.preset("inject"))
        )
        assert report.security_verdict == "detected"
        assert report.attacks_detected
        assert report.aborted

    def test_replay_across_epochs_is_detected(self, small_setup, protocol):
        # Every re-key moves a cluster to a new epoch and so to new round
        # labels; the replayer still finds the slot and races its recording.
        report = ScenarioRunner(small_setup, check_agreement=False).run(
            protocol, _attack_scenario(AdversaryConfig.preset("replay"))
        )
        assert report.total_attacks > 0
        assert report.security_verdict == "detected"


class TestClusterAttackMatrix:
    def test_matrix_row_for_cluster_bd(self, small_setup):
        matrix = run_attack_matrix(
            small_setup,
            protocols=["cluster-tree[bd]", "bd-unauthenticated"],
            attackers={
                "baseline": None,
                "eavesdrop": AdversaryConfig.preset("eavesdrop"),
                "inject": AdversaryConfig.preset("inject"),
            },
            scenario=_attack_scenario(),
        )
        assert matrix.verdict("cluster-tree[bd]", "baseline") == "clean"
        assert matrix.verdict("cluster-tree[bd]", "eavesdrop") == "clean"
        # The hierarchical wrapper upgrades unauthenticated BD from silently
        # broken to detected — the matrix shows both cells side by side.
        assert matrix.verdict("cluster-tree[bd]", "inject") == "detected"
        assert matrix.verdict("bd-unauthenticated", "inject") == "broken"
