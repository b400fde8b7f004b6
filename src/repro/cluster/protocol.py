"""The hierarchical cluster-tree GKA protocol.

``cluster-tree[<sub>]`` partitions the group into clusters, runs the
registered flat protocol ``<sub>`` *inside* each cluster (scoped to the
cluster's members), and bridges the clusters through their leaders with the
contributory key tree of :mod:`repro.cluster.tree`.  Membership events rekey
only the affected cluster plus the O(log m) dirty path to the tree root:

* **join** — the joiner enters the nearest (mobility field) or smallest
  cluster, which re-runs the sub-protocol; oversized clusters split;
* **leave / partition** — each cluster that lost members re-runs the
  sub-protocol (leader loss therefore re-elects the leader: the new sub-ring
  controller is the new leader/gateway); clusters shrunk to one member are
  folded into the smallest surviving cluster;
* **merge** — the incoming members form new clusters appended on the tree's
  right spine.

Every other cluster keeps its key and its blinded-key cache; its members only
process the O(log m) fresh blinded keys.  The dense flat
:class:`~repro.core.base.GroupState` is replaced by the sparse
:class:`~repro.cluster.state.ClusterState`, which still satisfies the full
``GroupState`` contract, so the scenario runner, oracles, energy ledgers,
campaign runner and session façade work unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.base import GroupState, PartyState, Protocol, ProtocolResult, SystemSetup
from ..core.registry import create_protocol, register_protocol, resolve_protocol
from ..engine.executor import EngineConfig, EngineStats, drive_plan
from ..engine.machine import MachinePlan
from ..exceptions import ParameterError, ProtocolError
from ..mathutils.memo import Memo
from ..network.events import MembershipEvent, MergeEvent, membership_after
from ..network.medium import BroadcastMedium
from ..network.topology import RingTopology
from ..pki.identity import Identity
from .machines import ClusterCrew, ClusterMachine, TreeRun
from .partitioning import (
    auto_cluster_size,
    choose_join_cluster,
    chunk_members,
    geographic_clusters,
)
from .state import ClusterDef, ClusterState
from .tree import build_tree

__all__ = ["ClusterTreeProtocol"]

_SHORT_NAMES = {"bd-unauthenticated": "bd", "proposed-gka": "gka"}


@dataclass
class _Draft:
    """A cluster's planned shape for the run being built."""

    uid: int
    epoch: int
    members: List[Identity]
    rekey: bool
    prior_key: Optional[int] = None
    prior_sub_state: Optional[GroupState] = None

    @property
    def leader(self) -> Identity:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)

    def mark_rekey(self) -> None:
        if not self.rekey:
            self.rekey = True
            self.epoch += 1
            self.prior_key = None
            self.prior_sub_state = None


class ClusterTreeProtocol(Protocol):
    """Hierarchical GKA: a flat sub-protocol per cluster plus a key tree."""

    supported_events = frozenset({"join", "leave", "merge", "partition"})

    def __init__(
        self,
        setup: SystemSetup,
        *,
        sub_protocol: str = "bd-unauthenticated",
        cluster_size: Optional[int] = None,
    ) -> None:
        super().__init__(setup)
        self.sub_protocol = resolve_protocol(sub_protocol)
        self.cluster_size = cluster_size
        short = _SHORT_NAMES.get(self.sub_protocol, self.sub_protocol)
        self.name = f"cluster-tree[{short}]"

    # ----------------------------------------------------------- establishment
    def build_machines(
        self,
        members: Sequence[Identity],
        *,
        medium: BroadcastMedium,
        seed: object = 0,
        **kwargs: object,
    ) -> MachinePlan:
        cluster_size = kwargs.pop("cluster_size", None) or self.cluster_size
        if kwargs:
            raise ParameterError(f"unknown run options: {sorted(kwargs)}")
        if len(members) < 2:
            raise ParameterError("the GKA needs at least two members")
        target = cluster_size or auto_cluster_size(len(members))
        field = getattr(medium, "field", None)
        if field is not None:
            chunks = geographic_clusters(members, target, field)
        else:
            chunks = chunk_members(members, target)
        drafts = [
            _Draft(uid=index, epoch=0, members=chunk, rekey=True)
            for index, chunk in enumerate(chunks)
        ]
        return self._plan(
            drafts,
            medium=medium,
            seed=seed,
            prior_bk={},
            prior_memo=Memo(),
            prior_parties={},
            next_uid=len(drafts),
        )

    # ----------------------------------------------------------- shared plan
    def _plan(
        self,
        drafts: List[_Draft],
        *,
        medium: BroadcastMedium,
        seed: object,
        prior_bk: Dict[str, int],
        prior_memo: Memo,
        prior_parties: Dict[str, PartyState],
        next_uid: int,
    ) -> MachinePlan:
        from ..mathutils.rand import DeterministicRNG

        rng = DeterministicRNG(seed, label="cluster-tree")
        tree = build_tree([(d.uid, d.epoch, d.leader.name) for d in drafts])
        run = TreeRun(tree, prior_bk, self.setup, prior_memo)

        machines: List[ClusterMachine] = []
        crews: List[ClusterCrew] = []
        sub_plans: List[Tuple[_Draft, MachinePlan]] = []
        for draft in drafts:
            if draft.rekey:
                sub = create_protocol(self.sub_protocol, self.setup)
                sub_plan = sub.build_machines(
                    draft.members,
                    medium=medium,
                    seed=rng.derive_seed(f"sub/c{draft.uid}.e{draft.epoch}"),
                )
                sub_plans.append((draft, sub_plan))
                crew = ClusterCrew(
                    draft.uid, draft.epoch, draft.members, rekey=True
                )
                inner_by_name = {m.identity.name: m for m in sub_plan.machines}
                for member in draft.members:
                    inner = inner_by_name[member.name]
                    party = getattr(inner, "party", None)
                    if party is None:
                        raise ProtocolError(
                            f"sub-protocol {self.sub_protocol!r} machines carry no "
                            "party state; it cannot serve as a cluster sub-protocol"
                        )
                    machines.append(
                        ClusterMachine(party, self.setup, crew, run, inner=inner)
                    )
            else:
                crew = ClusterCrew(
                    draft.uid,
                    draft.epoch,
                    draft.members,
                    rekey=False,
                    cluster_key=draft.prior_key,
                )
                for member in draft.members:
                    party = prior_parties[member.name]
                    # Surviving members keep their node (and its ledger);
                    # re-attach in case the medium was replaced between events.
                    medium.attach(party.node)
                    machines.append(
                        ClusterMachine(party, self.setup, crew, run, inner=None)
                    )
            crews.append(crew)

        sub_rounds = max((plan.rounds for _, plan in sub_plans), default=0)
        total_rounds = sub_rounds + tree.depth

        def finish(stats: EngineStats) -> ProtocolResult:
            parties: Dict[str, PartyState] = {}
            clusters: List[ClusterDef] = []
            for draft, crew in zip(drafts, crews):
                sub_state = draft.prior_sub_state
                if draft.rekey:
                    sub_plan = next(p for d, p in sub_plans if d is draft)
                    sub_state = sub_plan.finish(stats).state
                    sub_state.group_key = crew.cluster_key
                    for name, party in sub_state.parties.items():
                        parties[name] = party
                else:
                    for member in draft.members:
                        parties[member.name] = prior_parties[member.name]
                clusters.append(
                    ClusterDef(
                        uid=draft.uid,
                        epoch=draft.epoch,
                        members=list(draft.members),
                        cluster_key=crew.cluster_key,
                        sub_state=sub_state,
                    )
                )
            bk_cache = {
                label: bk
                for label, bk in machines[0].bk.items()
                if label in tree.nodes
            }
            state = ClusterState.assemble(
                self.setup,
                clusters,
                parties,
                bk_cache=bk_cache,
                tree_memo=run.memo,
                tree=tree,
                sub_protocol=self.sub_protocol,
                next_uid=next_uid,
            )
            state.group_key = machines[0].party.group_key
            return ProtocolResult(
                protocol=self.name,
                state=state,
                medium=medium,
                rounds=total_rounds,
                sim_latency_s=stats.sim_time_s,
                timeouts=stats.timeouts,
            )

        return MachinePlan(machines=machines, finish=finish, rounds=total_rounds)

    # ---------------------------------------------------------------- events
    def apply_event(
        self,
        state: GroupState,
        event: MembershipEvent,
        *,
        medium: Optional[BroadcastMedium] = None,
        seed: object = 0,
        engine: Optional[EngineConfig] = None,
    ) -> ProtocolResult:
        if not isinstance(state, ClusterState):
            # A foreign (flat) state: re-cluster from scratch.
            return super().apply_event(
                state, event, medium=medium, seed=seed, engine=engine
            )
        medium = medium if medium is not None else BroadcastMedium()
        field = getattr(medium, "field", None)
        drafts, departed, next_uid = self._transform(state, event, field)
        expected = {m.name for m in membership_after(state.members, event)}
        resulting = {m.name for d in drafts for m in d.members}
        if resulting != expected:
            raise ProtocolError(
                f"cluster transform for {event.kind!r} produced membership "
                f"{sorted(resulting)} instead of {sorted(expected)}"
            )
        for identity in departed:
            medium.detach(identity)
        plan = self._plan(
            drafts,
            medium=medium,
            seed=seed,
            prior_bk=state.bk_cache,
            prior_memo=state.tree_memo,
            prior_parties=state.parties,
            next_uid=next_uid,
        )
        return drive_plan(plan, medium, engine=engine)

    def _transform(
        self,
        state: ClusterState,
        event: MembershipEvent,
        field,
    ) -> Tuple[List[_Draft], List[Identity], int]:
        drafts = [
            _Draft(
                uid=c.uid,
                epoch=c.epoch,
                members=list(c.members),
                rekey=False,
                prior_key=c.cluster_key,
                prior_sub_state=c.sub_state,
            )
            for c in state.clusters
        ]
        next_uid = state.next_uid
        departed: List[Identity] = []
        kind = getattr(event, "kind", None)
        if kind not in self.supported_events:
            raise ParameterError(f"unsupported membership event: {event!r}")

        n_after = len(membership_after(state.members, event))
        target = self.cluster_size or auto_cluster_size(max(n_after, 2))

        if kind == "join":
            joiner = event.joining
            index = choose_join_cluster(drafts, joiner, field)
            draft = drafts[index]
            draft.members.append(joiner)
            draft.mark_rekey()
            if draft.size > 2 * target:
                # Split: the second half becomes a fresh cluster right of the
                # original, so only the shared ancestors go dirty.
                half = draft.size // 2
                moved = draft.members[half:]
                draft.members = draft.members[:half]
                drafts.insert(
                    index + 1,
                    _Draft(uid=next_uid, epoch=0, members=moved, rekey=True),
                )
                next_uid += 1
        elif kind == "leave":
            gone = {event.leaving.name}
            departed = [event.leaving]
            self._remove(drafts, gone)
        elif kind == "partition":
            gone = {identity.name for identity in event.leaving}
            departed = [m for m in state.members if m.name in gone]
            self._remove(drafts, gone)
        elif kind == "merge":
            incoming = list(event.other_group)
            if field is not None:
                chunks = geographic_clusters(incoming, target, field)
            elif len(incoming) >= 2:
                chunks = chunk_members(incoming, target)
            else:
                chunks = [incoming]
            for chunk in chunks:
                if len(chunk) == 1:
                    # A lone newcomer joins the smallest existing cluster.
                    smallest = min(drafts, key=lambda d: (d.size, d.uid))
                    smallest.members.extend(chunk)
                    smallest.mark_rekey()
                    continue
                drafts.append(
                    _Draft(uid=next_uid, epoch=0, members=chunk, rekey=True)
                )
                next_uid += 1

        drafts = [d for d in drafts if d.size > 0]
        # Fold clusters shrunk below sub-protocol viability into neighbours.
        while len(drafts) > 1 and any(d.size == 1 for d in drafts):
            lone = next(d for d in drafts if d.size == 1)
            drafts.remove(lone)
            host = min(drafts, key=lambda d: (d.size, d.uid))
            host.members.extend(lone.members)
            host.mark_rekey()
        return drafts, departed, next_uid

    @staticmethod
    def _remove(drafts: List[_Draft], gone: set) -> None:
        for draft in drafts:
            kept = [m for m in draft.members if m.name not in gone]
            if len(kept) != len(draft.members):
                draft.members = kept
                if draft.members:
                    draft.mark_rekey()

    # ----------------------------------------------------------------- merge
    def merge_states(
        self,
        state: GroupState,
        other: GroupState,
        *,
        medium: Optional[BroadcastMedium] = None,
        seed: object = 0,
        engine: Optional[EngineConfig] = None,
    ) -> ProtocolResult:
        if not isinstance(state, ClusterState):
            return super().merge_states(
                state, other, medium=medium, seed=seed, engine=engine
            )
        if medium is not None:
            for member in other.members:
                medium.detach(member)
        return self.apply_event(
            state,
            MergeEvent(tuple(other.members)),
            medium=medium,
            seed=seed,
            engine=engine,
        )

    def describe(self) -> str:
        size = self.cluster_size if self.cluster_size else "auto(sqrt n)"
        return (
            f"{self.name} (sub-protocol: {self.sub_protocol}, "
            f"cluster size: {size}, native dynamic events: "
            f"{', '.join(sorted(self.supported_events))})"
        )


register_protocol(
    "cluster-tree[bd]",
    lambda setup: ClusterTreeProtocol(setup, sub_protocol="bd-unauthenticated"),
    aliases=("cluster-bd",),
    tags=("cluster",),
)
register_protocol(
    "cluster-tree[gka]",
    lambda setup: ClusterTreeProtocol(setup, sub_protocol="proposed-gka"),
    aliases=("cluster-gka",),
    tags=("cluster",),
)
