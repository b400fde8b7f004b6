"""Sparse per-cluster group state.

:class:`ClusterState` is the hierarchical replacement for the dense flat
:class:`~repro.core.base.GroupState`: instead of one ring over every member it
holds a list of :class:`ClusterDef` (each a small ring with its own cluster
key and epoch counter), the public blinded-key cache of the inter-cluster
tree, and the tree shape itself.  It *is* a ``GroupState`` — the flat ring it
exposes is the concatenation of the cluster rings — so the scenario runner,
the oracles, the session façade and the energy ledgers keep working
unchanged; only the dynamic protocols look inside the cluster structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.base import GroupState, PartyState, SystemSetup
from ..mathutils.memo import Memo
from ..network.topology import RingTopology
from ..pki.identity import Identity
from .tree import ClusterTree, leaf_label

__all__ = ["ClusterDef", "ClusterState"]


@dataclass
class ClusterDef:
    """One cluster: a stable uid, its members in sub-ring order, and its key.

    ``epoch`` counts intra-cluster rekeys; the pair ``(uid, epoch)`` is the
    content label of the cluster's leaf in the key tree, so bumping the epoch
    is what dirties the leaf-to-root path.
    """

    uid: int
    epoch: int
    members: List[Identity]
    #: the key the intra-cluster sub-protocol agreed on (shared by the
    #: cluster's members only; seeds this cluster's leaf of the key tree)
    cluster_key: Optional[int] = None
    #: the sub-protocol's own view of this cluster (None until established)
    sub_state: Optional[GroupState] = None

    @property
    def leader(self) -> Identity:
        """The sub-ring controller; doubles as the cluster's tree gateway."""
        return self.members[0]

    @property
    def leaf(self) -> str:
        return leaf_label(self.uid, self.epoch)

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class ClusterState(GroupState):
    """A :class:`GroupState` whose collective state is per-cluster, not dense."""

    clusters: List[ClusterDef] = field(default_factory=list)
    #: public blinded keys by tree-node label, carried across events — the
    #: cache that makes "dirty" (label missing) mean "must rebroadcast"
    bk_cache: Dict[str, int] = field(default_factory=dict)
    #: tree secrets by node label, carried across events like ``bk_cache``
    #: (see :class:`~repro.cluster.machines.TreeRun`)
    tree_memo: Memo = field(default_factory=Memo, compare=False, repr=False)
    #: the current key tree's public shape
    tree: Optional[ClusterTree] = None
    #: registry name of the intra-cluster sub-protocol
    sub_protocol: str = ""
    #: next unused cluster uid (uids are never reused within a state's lineage)
    next_uid: int = 0

    @classmethod
    def assemble(
        cls,
        setup: SystemSetup,
        clusters: List[ClusterDef],
        parties: Dict[str, PartyState],
        *,
        bk_cache: Dict[str, int],
        tree_memo: Memo,
        tree: ClusterTree,
        sub_protocol: str,
        next_uid: int,
    ) -> "ClusterState":
        flat = [member for cluster in clusters for member in cluster.members]
        state = cls(
            setup=setup,
            ring=RingTopology(flat),
            parties={m.name: parties[m.name] for m in flat},
            clusters=clusters,
            bk_cache=bk_cache,
            tree_memo=tree_memo,
            tree=tree,
            sub_protocol=sub_protocol,
            next_uid=next_uid,
        )
        return state

    def cluster_of(self, name: str) -> ClusterDef:
        """The cluster a member belongs to."""
        for cluster in self.clusters:
            if any(m.name == name for m in cluster.members):
                return cluster
        raise KeyError(name)

    def cluster_sizes(self) -> List[int]:
        return [cluster.size for cluster in self.clusters]

    def describe(self) -> str:
        sizes = "/".join(str(s) for s in self.cluster_sizes())
        return f"{self.size} members in {len(self.clusters)} clusters ({sizes})"
