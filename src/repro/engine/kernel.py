"""The virtual-time event kernel.

:class:`EventKernel` is a deterministic discrete-event scheduler: callbacks
are queued under a ``(time, rank, order, seq)`` key and executed in exactly
that order.  Determinism is the whole point — two runs with the same seed must
produce identical event interleavings down to the per-node energy ledgers —
so there is no wall-clock anywhere, and ties are broken by explicit fields
rather than insertion accidents:

``rank``
    Coarse event class.  Deliveries (:attr:`RANK_DELIVERY`) sort before
    protocol actions (:attr:`RANK_HOOK`) within one instant, so a machine
    never acts on a half-delivered round.
``order``
    Fine position *within* a rank — the executor uses the emitting machine's
    ring index here, which is what makes same-instant broadcasts leave the
    medium in ring order (``U_1`` first) exactly like the paper writes the
    rounds.
``seq``
    Global scheduling sequence number, the final tiebreak (FIFO).

The kernel runs with *batch-per-instant* semantics: all events currently
queued for virtual time ``t`` form one batch, executed in key order; events
scheduled **during** that batch — even at the same ``t`` — land in the next
batch.  This gives synchronized-round protocols their barrier (everyone's
Round-1 broadcast is delivered before anyone's Round-2 reaction transmits)
without the machines having to know about rounds at all.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Tuple

from ..exceptions import ParameterError

__all__ = ["EventKernel"]

#: Entry layout in the priority queue.
_Entry = Tuple[float, int, int, int, Callable[[], None]]

_INF = float("inf")


class EventKernel:
    """A deterministic virtual-time scheduler with per-instant batches."""

    #: Message deliveries: processed before same-instant protocol actions.
    RANK_DELIVERY = 0
    #: Protocol actions (machine hooks and the transmissions they trigger).
    RANK_HOOK = 1

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = start_time
        self.events_processed = 0
        self._heap: List[_Entry] = []
        self._seq = 0
        #: observation-only telemetry hooks (set by the executor; ``None``
        #: keeps the batch loop on its historical zero-overhead path)
        self.tracer = None
        self.metrics = None

    # ------------------------------------------------------------ scheduling
    def schedule(
        self,
        callback: Callable[[], None],
        *,
        delay: float = 0.0,
        rank: int = RANK_HOOK,
        order: int = 0,
    ) -> None:
        """Queue ``callback`` at ``now + delay`` under ``(rank, order)``."""
        # One chained comparison, which NaN fails too: a NaN instant never
        # equals itself, so the run loop would spin on it forever.
        if not 0 <= delay < _INF:
            raise ParameterError(f"event delay must be finite and non-negative: {delay!r}")
        heapq.heappush(self._heap, (self.now + delay, rank, order, self._seq, callback))
        self._seq += 1

    def pending(self) -> int:
        """Number of queued events."""
        return len(self._heap)

    def advance(self, delta: float) -> None:
        """Move virtual time forward by ``delta`` seconds (timeout waves)."""
        if not 0 <= delta < _INF:
            raise ParameterError(f"virtual time step must be finite and non-negative: {delta!r}")
        self.now += delta

    # ------------------------------------------------------------- execution
    def run(self) -> None:
        """Execute queued events until quiescence (an empty queue).

        Events are processed in ``(time, rank, order, seq)`` order.  All
        events queued for one virtual instant when that instant starts form a
        batch; events they schedule — even for the same instant — run in the
        following batch.  Exceptions raised by callbacks propagate to the
        caller (a protocol failure aborts the run, exactly like the
        synchronous execution it replaces).
        """
        while self._heap:
            instant = self._heap[0][0]
            batch: List[_Entry] = []
            while self._heap and self._heap[0][0] == instant:
                batch.append(heapq.heappop(self._heap))
            if instant > self.now:
                self.now = instant
            # Telemetry is observation-only: the span and gauge record what
            # the batch did, never influence what it does.
            if self.metrics is not None:
                self.metrics.gauge_max(
                    "engine.queue_depth", len(self._heap) + len(batch)
                )
            if self.tracer is None:
                for _, _, _, _, callback in batch:
                    callback()
                    self.events_processed += 1
            else:
                with self.tracer.span(
                    "kernel.batch",
                    category="kernel",
                    track="kernel",
                    sim_start=instant,
                    args={"size": len(batch)},
                ) as span:
                    for _, _, _, _, callback in batch:
                        callback()
                        self.events_processed += 1
                    span.finish_sim(self.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventKernel(now={self.now:g}, pending={self.pending()})"
