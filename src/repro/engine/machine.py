"""The per-party protocol state machine API.

Every protocol in the library decomposes into one :class:`PartyMachine` per
group member.  A machine never calls the medium directly — it *returns*
:class:`Outbound` messages from its hooks and the executor transmits them,
which is what lets the same machine code run both in the instant
(synchronous-equivalent) mode and under a latency model with loss-driven
timeouts.

Lifecycle
---------
``start(now)``
    Called once when the kernel starts.  Round-1 broadcasters emit here.
``on_message(message, now)``
    Called for every delivered message (duplicates from retransmission waves
    are filtered by the executor).  Machines accumulate their round views
    here and emit the next round once a view is complete.  For a message that
    overtook the one it answers, raise :class:`Early` before changing any
    state: the executor holds it and retries it after each later hook.
``on_wake(payload, now)``
    Called when a run's coordinator requests an action via
    :meth:`MachineContext.wake` — e.g. the proposed GKA's "all members
    retransmit" recovery after a failed batch verification.  The payload says
    what happened; the machine decides what that means for its own state.
``on_timeout(round_label, now)``
    Called by the executor in latency mode when the group stalled waiting on
    ``round_label``.  The default re-broadcasts whatever this machine already
    sent for that round, which together with per-link loss re-draws makes
    retransmission waves converge.

Machines flag completion by setting :attr:`PartyMachine.finished` and report
the round they are blocked on through :attr:`PartyMachine.waiting_for`, which
drives both the latency-mode timeout logic and the instant-mode deadlock
diagnostics.

A machine's state changes only inside its own hooks: a coordinator shared by
a run's machines collects what they report and wakes them, but never sets
another machine's ``finished``, ``waiting_for`` or round tables.  And no
object a run shares keeps hold of its machines once the run is over, so a
finished run is freed by reference counting, without the cyclic collector.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol as TypingProtocol

from ..network.message import Message
from ..network.node import Node
from ..pki.identity import Identity

__all__ = ["Early", "Outbound", "PartyMachine", "MachineContext", "MachinePlan"]


class Early(Exception):
    """Raised by :meth:`PartyMachine.on_message` for a message it cannot take yet."""


@dataclass(frozen=True)
class Outbound:
    """One message a machine wants transmitted on the shared medium."""

    message: Message


class MachineContext(TypingProtocol):
    """What the executor exposes to machines (see ``executor.MachineExecutor``)."""

    def wake(self, machine: "PartyMachine", payload: object) -> None:
        """Schedule ``machine.on_wake(payload, now)`` as a kernel action."""


class PartyMachine(abc.ABC):
    """Base class for one member's view of one protocol run."""

    def __init__(self, identity: Identity, node: Node) -> None:
        self.identity = identity
        self.node = node
        #: set True once this member has done everything the protocol asks of it
        self.finished = False
        #: round label this machine is currently blocked on (None when idle/done)
        self.waiting_for: Optional[str] = None
        #: last message transmitted per round label (retransmission source)
        self.sent: Dict[str, Message] = {}
        #: bound by the executor before ``start`` runs
        self.context: Optional[MachineContext] = None

    # ------------------------------------------------------------------ hooks
    def start(self, now: float) -> List[Outbound]:
        """First kernel action; emit the opening round here."""
        return []

    def on_message(self, message: Message, now: float) -> List[Outbound]:
        """React to one delivered message."""
        return []

    def on_wake(self, payload: object, now: float) -> List[Outbound]:
        """React to a coordinator wake-up (see :meth:`MachineContext.wake`)."""
        return []

    def on_timeout(self, round_label: str, now: float) -> List[Outbound]:
        """The group stalled on ``round_label``: contribute to the recovery.

        Default: re-broadcast this machine's own transmission for that round,
        the paper's "all members retransmit again" behaviour.  Machines that
        sent nothing for the round contribute nothing.
        """
        message = self.sent.get(round_label)
        return [Outbound(message)] if message is not None else []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.finished else f"waiting={self.waiting_for!r}"
        return f"{type(self).__name__}({self.identity.name}, {state})"


@dataclass
class MachinePlan:
    """A protocol run decomposed into machines plus its result assembly.

    ``machines`` are registered with the executor in list order — that order
    is the ring order and fixes the deterministic same-instant transmission
    order, so protocols must list the controller ``U_1`` first.  ``finish``
    receives
    the :class:`~repro.engine.executor.EngineStats` once the kernel reaches
    quiescence and builds the protocol's result object.
    """

    machines: List[PartyMachine]
    finish: Callable[[object], object]
    #: number of communication rounds the protocol nominally takes
    rounds: int = 0
