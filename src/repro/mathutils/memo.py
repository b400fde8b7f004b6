"""A bounded memo for pure computations that many simulated parties repeat.

In the broadcast protocols every receiver evaluates the same pure function of
the same public inputs: ``n - 1`` members verify one signature, the members of
a cluster derive the same tree secrets, every member of a rekey checks the
same batch equation.  The simulator still charges each device for its own
operations, but the host need only compute each value once.

:class:`Memo` holds those values.  Two rules keep it exact:

* the key holds **every** input the value depends on that can differ between
  callers, so a party fed a forged value misses the memo and fails on its
  own, as it would without the memo;
* an object with a stated lifetime owns it (one protocol run, one cluster
  state, or one signature scheme instance), never a module, so nothing leaks
  across scenarios or campaign cells.  A cluster state hands its next
  epoch's run a copy limited to the tree nodes still present, and the state
  that run produces owns the copy.

The memo empties when it reaches :data:`MEMO_LIMIT` entries, which bounds its
memory over long sweeps.  It never records a value whose computation raised.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional, TypeVar

__all__ = ["MEMO_LIMIT", "Memo"]

#: Entries a memo holds before it empties.  Values are re-hit within one
#: broadcast round, so a full reset on overflow costs almost nothing.
MEMO_LIMIT = 4096

T = TypeVar("T")


class Memo:
    """Outcomes of pure computations, keyed by all of their inputs."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: Dict[Hashable, object] = {}

    def __len__(self) -> int:
        return len(self._values)

    def get(self, key: Hashable) -> Optional[object]:
        """The stored value for ``key``, or ``None``."""
        return self._values.get(key)

    def clear(self) -> None:
        """Forget every value, so the next lookups compute afresh."""
        self._values.clear()

    def where(self, keep: Callable[[Hashable], bool]) -> "Memo":
        """A new memo holding the entries whose key ``keep`` accepts."""
        kept = Memo()
        kept._values = {key: value for key, value in self._values.items() if keep(key)}
        return kept

    def put(self, key: Hashable, value: T) -> T:
        """Store ``value`` under ``key`` (emptying a full memo first); return it."""
        values = self._values
        if len(values) >= MEMO_LIMIT:
            values.clear()
        values[key] = value
        return value

    def compute(self, key: Hashable, function: Callable[[], T]) -> T:
        """The value for ``key``, calling ``function()`` only on a miss."""
        try:
            return self._values[key]  # type: ignore[return-value]
        except KeyError:
            return self.put(key, function())
