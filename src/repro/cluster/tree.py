"""The inter-cluster key tree: content-labelled binary tree over clusters.

Clusters are the leaves; every internal node holds a contributory
Diffie-Hellman secret combining its two children, TGDH-style:

* leaf secret exponent ``k_leaf = H(K_c, uid, epoch) mod q`` (``K_c`` the
  cluster key the intra-cluster sub-protocol agreed on);
* blinded key ``BK(v) = g^{k_v}`` — the only tree value ever transmitted;
* internal secret ``s_v = BK(other child)^{k(own child)} = g^{k_l · k_r}``,
  flattened back to an exponent ``k_v = H(label_v, s_v) mod q``;
* the group key is ``g^{k_root}`` — never transmitted, so a passive observer
  holding every broadcast ``BK`` still faces CDH.

Node labels are *content-based*: a leaf is labelled by ``(uid, epoch)`` and an
internal node by a hash of its children's labels, so a node's label changes
exactly when the key material beneath it changes.  "Dirty" (label not in the
previous run's blinded-key cache) therefore marks precisely the nodes that
must be recomputed and rebroadcast — for a single join/leave that is the
O(log m) leaf-to-root path, however the tree was reshaped.

The tree is *leftist*: the left subtree takes the largest power of two below
the leaf count, so appending clusters (merge) only dirties the right spine.

Everything here is pure data and arithmetic — no machines, no medium; the
per-party machines in :mod:`repro.cluster.machines` walk these structures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["TreeNode", "ClusterTree", "build_tree", "leaf_label"]


def leaf_label(uid: int, epoch: int) -> str:
    """The content label of a cluster's leaf (changes on every rekey)."""
    return f"c{uid}.e{epoch}"


def _internal_label(left: str, right: str) -> str:
    digest = hashlib.sha256(f"{left}|{right}".encode()).hexdigest()
    return f"n{digest[:16]}"


@dataclass(frozen=True)
class TreeNode:
    """One node of the key tree (public structure only, no secrets)."""

    label: str
    #: child labels (None for a leaf)
    left: Optional[str]
    right: Optional[str]
    #: the cluster uid at a leaf (None for internal nodes)
    cluster_uid: Optional[int]
    #: identity name of the representative: the leader of the leftmost
    #: cluster underneath — the member that broadcasts ``BK`` for this node
    rep_name: str

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class ClusterTree:
    """The public shape of one run's key tree plus path lookups."""

    def __init__(self, nodes: Dict[str, TreeNode], root: str, leaf_order: Sequence[str]) -> None:
        self.nodes = nodes
        self.root_label = root
        #: leaf labels in cluster order
        self.leaf_order = list(leaf_order)
        self._parent: Dict[str, str] = {}
        self._sibling: Dict[str, str] = {}
        for node in nodes.values():
            if node.left is not None:
                self._parent[node.left] = node.label
                self._parent[node.right] = node.label
                self._sibling[node.left] = node.right
                self._sibling[node.right] = node.left

    def path_from_leaf(self, leaf: str) -> List[TreeNode]:
        """Leaf-to-root node chain (the leaf first, the root last)."""
        chain = [self.nodes[leaf]]
        label = leaf
        while label != self.root_label:
            label = self._parent[label]
            chain.append(self.nodes[label])
        return chain

    def sibling(self, label: str) -> Optional[str]:
        """The other child of ``label``'s parent (None at the root)."""
        return self._sibling.get(label)

    def dirty_labels(self, cache: Dict[str, int]) -> List[str]:
        """Labels absent from the previous run's blinded-key cache."""
        return [label for label in self.nodes if label not in cache]

    @property
    def depth(self) -> int:
        """Longest leaf-to-root path length (1 for a single-cluster tree)."""
        return max(len(self.path_from_leaf(leaf)) for leaf in self.leaf_order)


def build_tree(leaves: Sequence[Tuple[int, int, str]]) -> ClusterTree:
    """Build the leftist tree over ``(uid, epoch, leader_name)`` leaves."""
    if not leaves:
        raise ValueError("a cluster tree needs at least one leaf")
    nodes: Dict[str, TreeNode] = {}
    root = _subtree(leaves, 0, len(leaves), nodes)
    return ClusterTree(nodes, root.label, [leaf_label(u, e) for u, e, _ in leaves])


def _subtree(
    leaves: Sequence[Tuple[int, int, str]], lo: int, hi: int, nodes: Dict[str, TreeNode]
) -> TreeNode:
    """Add the leftist subtree over ``leaves[lo:hi]`` to ``nodes``; return its root."""
    if hi - lo == 1:
        uid, epoch, leader = leaves[lo]
        node = TreeNode(
            label=leaf_label(uid, epoch),
            left=None,
            right=None,
            cluster_uid=uid,
            rep_name=leader,
        )
    else:
        split = 1
        while split * 2 < hi - lo:
            split *= 2
        left = _subtree(leaves, lo, lo + split, nodes)
        right = _subtree(leaves, lo + split, hi, nodes)
        node = TreeNode(
            label=_internal_label(left.label, right.label),
            left=left.label,
            right=right.label,
            cluster_uid=None,
            rep_name=left.rep_name,
        )
    nodes[node.label] = node
    return node
