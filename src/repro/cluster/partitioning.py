"""Cluster assignment strategies.

Two deterministic strategies produce the initial partition:

* :func:`chunk_members` — balanced contiguous chunks in ring order (the
  default, and the only option when no mobility field is present);
* :func:`geographic_clusters` — when the medium carries a mobility field,
  members are greedily grouped with their nearest unassigned neighbours, so
  clusters align with radio locality and intra-cluster traffic stays local.

Join placement (:func:`choose_join_cluster`) follows the same rule: nearest
cluster leader when positions are known, smallest cluster otherwise.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..pki.identity import Identity

__all__ = [
    "auto_cluster_size",
    "chunk_members",
    "geographic_clusters",
    "choose_join_cluster",
]


def auto_cluster_size(n: int) -> int:
    """The default target cluster size: ``max(2, isqrt(n))``.

    Splitting n members into ~sqrt(n) clusters of ~sqrt(n) balances the two
    rekey cost terms (one intra-cluster sub-run of size ``s`` plus the
    O(log(n/s)) tree path), and keeps even small test groups multi-cluster so
    the tree phase is always exercised.
    """
    return max(2, math.isqrt(max(n, 1)))


def chunk_members(members: Sequence[Identity], target_size: int) -> List[List[Identity]]:
    """Split ``members`` into balanced contiguous chunks of ~``target_size``.

    Chunk sizes differ by at most one and never drop below two (a lone member
    cannot run a sub-protocol), so the count is chosen as the nearest viable
    divisor rather than a strict ceiling.
    """
    n = len(members)
    if n < 2:
        raise ValueError("need at least two members to cluster")
    target = max(2, target_size)
    count = max(1, min(n // 2, round(n / target)))
    base, extra = divmod(n, count)
    chunks: List[List[Identity]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        chunks.append(list(members[start:start + size]))
        start += size
    return chunks


def geographic_clusters(
    members: Sequence[Identity], target_size: int, field
) -> List[List[Identity]]:
    """Greedy locality clustering over a mobility field's current positions.

    Repeatedly take the unassigned member closest to the origin-most corner as
    an anchor and group it with its nearest unassigned neighbours.  Falls back
    to :func:`chunk_members` for members the field does not know about.
    """
    known = [m for m in members if m.name in field]
    unknown = [m for m in members if m.name not in field]
    if len(known) < 2:
        return chunk_members(members, target_size)

    sizes = [len(chunk) for chunk in chunk_members(known, target_size)]
    remaining = list(known)
    clusters: List[List[Identity]] = []
    for size in sizes:
        # Deterministic anchor: lexicographically smallest (x, y, name).
        anchor = min(
            remaining,
            key=lambda m: (*field.position(m.name), m.name),
        )
        by_distance = sorted(
            remaining,
            key=lambda m: (field.distance(anchor.name, m.name), m.name),
        )
        chosen = by_distance[:size]
        clusters.append(chosen)
        chosen_names = {m.name for m in chosen}
        remaining = [m for m in remaining if m.name not in chosen_names]
    if unknown:
        # Members without a position ride the last (nearest-by-default) cluster.
        clusters[-1].extend(unknown)
    return clusters


def choose_join_cluster(clusters, joiner: Identity, field=None) -> int:
    """Index of the cluster a joiner should enter.

    Nearest leader when both the joiner and leaders have known positions,
    otherwise the smallest cluster (ties to the lowest index, i.e. the oldest
    cluster — deterministic either way).
    """
    if field is not None and joiner.name in field:
        placed = [
            (field.distance(joiner.name, cluster.leader.name), index)
            for index, cluster in enumerate(clusters)
            if cluster.leader.name in field
        ]
        if placed:
            return min(placed)[1]
    sizes = [(cluster.size, index) for index, cluster in enumerate(clusters)]
    return min(sizes)[1]
