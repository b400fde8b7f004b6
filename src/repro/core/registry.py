"""Name-based protocol lookup: one table lists every protocol once.

Runners, benchmarks and the :mod:`repro.sim` scenario engine select protocols
by name instead of importing concrete classes:

>>> from repro.core.registry import create_protocol, available_protocols
>>> "proposed-gka" in available_protocols()
True
>>> protocol = create_protocol("bd-ecdsa", setup)        # doctest: +SKIP

The table maps each canonical name to a constructor ``setup -> Protocol``,
its aliases and its tags.  It is built on the first lookup, so importing
:mod:`repro` stays cheap and free of the baseline and cluster modules (which
themselves resolve names here).

A protocol outside the table needs no registration: the session and the
scenario runner take a :class:`~repro.core.base.Protocol` instance as well as
a name (``GroupSession.establish(..., protocol=MyProtocol(setup))``,
``ScenarioRunner(setup).run(MyProtocol(setup), scenario)``).

Unknown names fail with a "did you mean" suggestion next to the full list.
"""

from __future__ import annotations

import difflib
from functools import lru_cache, partial
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Tuple, TYPE_CHECKING

from ..exceptions import ParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import Protocol, SystemSetup

__all__ = [
    "create_protocol",
    "available_protocols",
    "resolve_protocol",
    "protocol_tags",
    "describe_registry",
]


class _Entry(NamedTuple):
    """One protocol of the table."""

    build: Callable[["SystemSetup"], "Protocol"]
    aliases: Tuple[str, ...] = ()
    #: classification tags, e.g. ``cluster`` on the hierarchical protocols so
    #: the flat-protocol golden-fixture harness can exclude them by tag
    tags: FrozenSet[str] = frozenset()


@lru_cache(maxsize=None)
def _table() -> Dict[str, _Entry]:
    """Canonical name -> entry, for every built-in protocol, sorted by name.

    An import failure is not cached, so it surfaces again on the next lookup
    instead of masquerading as "unknown protocol".
    """
    from ..baselines import AuthenticatedBDProtocol, BurmesterDesmedtProtocol, SSNProtocol
    from ..cluster import ClusterTreeProtocol
    from .gka import ProposedGKAProtocol

    cluster = frozenset({"cluster"})
    return {
        "bd-dsa": _Entry(partial(AuthenticatedBDProtocol, scheme="dsa")),
        "bd-ecdsa": _Entry(partial(AuthenticatedBDProtocol, scheme="ecdsa")),
        "bd-sok": _Entry(partial(AuthenticatedBDProtocol, scheme="sok")),
        "bd-unauthenticated": _Entry(BurmesterDesmedtProtocol, ("bd",)),
        "cluster-tree[bd]": _Entry(
            partial(ClusterTreeProtocol, sub_protocol="bd-unauthenticated"), ("cluster-bd",), cluster
        ),
        "cluster-tree[gka]": _Entry(
            partial(ClusterTreeProtocol, sub_protocol="proposed-gka"), ("cluster-gka",), cluster
        ),
        "proposed-gka": _Entry(ProposedGKAProtocol, ("proposed",)),
        "ssn": _Entry(SSNProtocol),
    }


def resolve_protocol(name: str) -> str:
    """Canonicalise a protocol name or alias, raising on unknown names.

    The error for an unknown name carries a closest-match suggestion
    (``did you mean 'bd-ecdsa'?``) ahead of the full list, so typos in
    benchmark configurations fail with an actionable message.
    """
    table = _table()
    if name in table:
        return name
    for canonical, entry in table.items():
        if name in entry.aliases:
            return canonical
    candidates = [*table, *(alias for entry in table.values() for alias in entry.aliases)]
    close = difflib.get_close_matches(name, candidates, n=1, cutoff=0.5)
    hint = f" — did you mean {close[0]!r}?" if close else ""
    raise ParameterError(f"unknown protocol {name!r}{hint}; available: {', '.join(table)}")


def create_protocol(name: str, setup: "SystemSetup") -> "Protocol":
    """Instantiate the protocol listed under ``name`` (or an alias)."""
    return _table()[resolve_protocol(name)].build(setup)


def available_protocols() -> List[str]:
    """Sorted canonical protocol names."""
    return list(_table())


def protocol_tags(name: str) -> FrozenSet[str]:
    """The classification tags of a protocol (empty when untagged)."""
    return _table()[resolve_protocol(name)].tags


def describe_registry() -> str:
    """Human-readable protocol listing (the CLIs' ``--list-protocols``).

    One row per canonical name with its aliases and tags, so users discover
    e.g. that ``cluster-bd`` resolves to ``cluster-tree[bd]``.
    """
    table = _table()
    width = max(len(name) for name in table)
    lines = [f"{len(table)} registered protocols:"]
    for name, entry in table.items():
        line = f"  {name:<{width}}"
        if entry.aliases:
            line += f"  aliases: {', '.join(entry.aliases)}"
        if entry.tags:
            line += f"  [{', '.join(sorted(entry.tags))}]"
        lines.append(line)
    return "\n".join(lines)
