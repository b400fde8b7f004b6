"""Hierarchical cluster-based group key agreement (``repro.cluster``).

The subsystem behind the ``cluster-tree[bd]`` and ``cluster-tree[gka]``
protocols of :mod:`repro.core.registry`'s table: sparse per-cluster state
(:mod:`~repro.cluster.state`), cluster assignment strategies
(:mod:`~repro.cluster.partitioning`), the contributory inter-cluster key tree
(:mod:`~repro.cluster.tree`), the per-party machines
(:mod:`~repro.cluster.machines`) and the
:class:`~repro.cluster.protocol.ClusterTreeProtocol` that composes them over
any flat protocol of the table.
"""

from .partitioning import (
    auto_cluster_size,
    choose_join_cluster,
    chunk_members,
    geographic_clusters,
)
from .protocol import ClusterTreeProtocol
from .state import ClusterDef, ClusterState
from .tree import ClusterTree, build_tree, leaf_label

__all__ = [
    "ClusterTreeProtocol",
    "ClusterDef",
    "ClusterState",
    "ClusterTree",
    "build_tree",
    "leaf_label",
    "auto_cluster_size",
    "choose_join_cluster",
    "chunk_members",
    "geographic_clusters",
]
