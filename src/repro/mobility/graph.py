"""Shared reachability-graph helpers.

The flooding medium (:mod:`repro.mobility.relay`) and the connectivity
monitor (:mod:`repro.mobility.connectivity`) must agree *exactly* on what the
radio topology looks like — the monitor's partition decisions are promises
about what the medium can deliver.  Both therefore build adjacency and
connected components through these two functions instead of private copies.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from ..network.medium import LinkModel

__all__ = ["adjacency", "component", "induced_component"]


def adjacency(link: LinkModel, names: Sequence[str]) -> Dict[str, List[str]]:
    """Symmetric single-hop adjacency lists among the distinct ``names``,
    as ``link`` builds them (:meth:`~repro.network.medium.LinkModel.adjacency`)."""
    return link.adjacency(names)


def component(graph: Dict[str, List[str]], origin: str) -> Set[str]:
    """Names reachable from ``origin`` over any number of hops."""
    if origin not in graph:
        return set()
    seen = {origin}
    frontier = [origin]
    while frontier:
        nxt: List[str] = []
        for name in frontier:
            for peer in graph[name]:
                if peer not in seen:
                    seen.add(peer)
                    nxt.append(peer)
        frontier = nxt
    return seen


def induced_component(graph: Dict[str, List[str]], subset: Sequence[str], origin: str) -> Set[str]:
    """Names in ``subset`` reachable from ``origin`` through ``subset`` only.

    Equivalent to ``component(adjacency(link, subset), origin)`` but reuses
    an already-built full graph instead of re-measuring pairwise distances.
    """
    allowed = set(subset)
    if origin not in allowed or origin not in graph:
        return set()
    seen = {origin}
    frontier = [origin]
    while frontier:
        nxt: List[str] = []
        for name in frontier:
            for peer in graph[name]:
                if peer in allowed and peer not in seen:
                    seen.add(peer)
                    nxt.append(peer)
        frontier = nxt
    return seen
