"""Drive a set of :class:`~repro.engine.machine.PartyMachine` to quiescence.

:class:`MachineExecutor` owns the wiring between machines, the shared medium
and the :class:`~repro.engine.kernel.EventKernel`:

* machine hooks are kernel actions (``rank=RANK_HOOK``) ordered by the
  machine's ring index, so same-instant emissions leave the medium in ring
  order — exactly the order the synchronous protocol bodies used to send in;
* every emitted message goes through the medium (charging senders, receivers
  and relays through the existing energy accounting) and its delivered copies
  reach the receivers' ``on_message`` through scheduled kernel events: one
  per transmission in instant mode, one per receiver in latency mode (none
  for a receiver that already consumed the copy's ``(sender, round_label)``,
  whose arrival still moves the clock);
* a message whose ``on_message`` raises :class:`~repro.engine.machine.Early`
  is held per machine, in arrival order, and passed to ``on_message`` again
  after each later hook of that machine, joining that hook's batch;
* in **instant mode** (no latency model) delivery is same-instant and the
  medium's legacy :meth:`~repro.network.medium.BroadcastMedium.send` — with
  its immediate-retry loss semantics — is used unchanged, which keeps
  kernel-driven execution bit-identical to the historical synchronous path;
* in **latency mode** each send is a single physical attempt
  (:meth:`~repro.network.medium.BroadcastMedium.transmit`), deliveries are
  scheduled at per-receiver delays derived from the latency model (bitrate,
  hop count, mobility distance), and a group that stalls on a round gets a
  *timeout wave*: virtual time jumps by ``round_timeout_s`` and every party
  re-broadcasts its contribution to the stalled rounds — the paper's "all
  members retransmit" recovery, now visible as latency instead of hidden
  inside the medium;
* with an :class:`~repro.adversary.actors.AdversarySuite` on the
  :class:`EngineConfig` the executor puts every transmission in front of the
  attackers: the physical send (and its energy charges) always happens, but
  what receivers *decode* may be dropped, substituted or delayed, and
  attacker forgeries are scheduled as deliveries that sort ahead of the
  same-instant honest copies (the attacker wins the first-copy race).  A
  suite whose actors are all passive leaves the run bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple

from .. import telemetry
from ..exceptions import ProtocolError
from ..fields import param, settle
from ..network.medium import BroadcastMedium
from ..network.message import Message
from .kernel import EventKernel
from .latency import LatencyModel
from .machine import Early, MachinePlan, Outbound, PartyMachine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adversary.actors import AdversarySuite

__all__ = ["EngineConfig", "EngineStats", "MachineExecutor", "drive_plan", "run_machines"]


@dataclass(frozen=True)
class EngineConfig:
    """Execution profile for kernel-driven protocol runs.

    ``latency=None`` selects instant mode (the synchronous-equivalent
    degenerate case); a :class:`~repro.engine.latency.LatencyModel` switches
    to virtual-time delivery with single-attempt sends and timeout-driven
    retransmission waves.
    """

    latency: Optional[LatencyModel] = None
    #: how long a stalled group waits before a retransmission wave (seconds)
    round_timeout_s: float = param(2.0, gt=0.0)
    #: retransmission waves before the run is declared failed
    max_timeout_waves: int = param(25, ge=1)
    #: attacker suite consulted on every transmission (None = honest runs;
    #: a suite whose actors are all passive leaves runs bit-identical)
    adversary: Optional["AdversarySuite"] = param(None, spec=False)

    __post_init__ = settle

    def describe(self) -> str:
        """One-line summary used in reports."""
        if self.latency is None:
            summary = "instant"
        else:
            summary = f"{self.latency.describe()}, timeout={self.round_timeout_s:g}s"
        if self.adversary is not None:
            summary += f", adversary[{self.adversary.describe()}]"
        return summary


@dataclass
class EngineStats:
    """What one kernel-driven run did in virtual time."""

    #: virtual time at quiescence (0.0 in instant mode)
    sim_time_s: float = 0.0
    #: machine-round timeouts fired (unfinished machines summed over waves)
    timeouts: int = 0
    #: retransmission waves triggered by timeouts
    timeout_waves: int = 0
    #: messages handed to machines (duplicates filtered out)
    deliveries: int = 0
    #: messages transmitted (including timeout-wave retransmissions)
    messages_sent: int = 0
    #: kernel events processed
    events: int = 0
    #: latency-mode copies never scheduled: their receiver had consumed
    #: the copy's (sender, round_label) before the send
    copies_unscheduled: int = 0


class MachineExecutor:
    """Wire machines to a medium and step the kernel until everyone finishes."""

    def __init__(
        self,
        machines: Sequence[PartyMachine],
        medium: BroadcastMedium,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.machines: List[PartyMachine] = list(machines)
        self.medium = medium
        # `is None`, not truthiness: a caller-supplied config must never be
        # silently swapped for the default just because it tests falsy.
        self.config = config if config is not None else EngineConfig()
        self.latency = self.config.latency
        if self.latency is not None:
            # Topology-aware models (TieredLatency) discover the medium's
            # tier map here; everyone else inherits the no-op default.
            self.latency.bind(medium)
        self.adversary = self.config.adversary
        if self.adversary is not None:
            # The eavesdropping tap rides the medium so the adversary hears
            # every physical send (idempotent across the scenario's runs).
            self.adversary.attach(medium)
        self.kernel = EventKernel()
        self.stats = EngineStats()
        # Resolved once per run: hot paths (machine hooks, transmissions)
        # check a local attribute instead of the telemetry module globals.
        self._tracer = telemetry.active_tracer()
        self._metrics = telemetry.active_metrics()
        self.kernel.tracer = self._tracer
        self.kernel.metrics = self._metrics
        self._order: Dict[int, int] = {id(m): i for i, m in enumerate(self.machines)}
        self._by_name: Dict[str, PartyMachine] = {m.identity.name: m for m in self.machines}
        #: (sender, round_label) pairs each machine has already consumed
        self._seen: Dict[str, Set[Tuple[str, str]]] = {
            m.identity.name: set() for m in self.machines
        }
        #: messages each machine raised Early for, in arrival order
        self._held: Dict[str, List[Message]] = {}
        self._busy_until = 0.0
        #: latest arrival among the copies never scheduled
        self._unscheduled_until = 0.0

    # --------------------------------------------------------------- context
    def wake(self, machine: PartyMachine, payload: object) -> None:
        """Schedule ``machine.on_wake(payload)`` as a next-batch kernel action."""
        self.kernel.schedule(
            partial(self._hook, machine, partial(machine.on_wake, payload)),
            rank=EventKernel.RANK_HOOK,
            order=self._order[id(machine)],
        )

    # ------------------------------------------------------------------- run
    def run(self) -> EngineStats:
        """Execute to quiescence; raises whatever the machines raise."""
        if self._tracer is None and self._metrics is None:
            return self._run()
        with telemetry.span(
            "engine.run",
            category="engine",
            track="kernel",
            sim_start=self.kernel.now,
            args={"parties": len(self.machines)},
        ) as span:
            stats = self._run()
            if span is not None:
                span.finish_sim(stats.sim_time_s)
                span.arg("messages_sent", stats.messages_sent)
                span.arg("timeout_waves", stats.timeout_waves)
        metrics = self._metrics
        if metrics is not None:
            metrics.count("engine.runs")
            metrics.count("engine.messages_sent", stats.messages_sent)
            metrics.count("engine.deliveries", stats.deliveries)
            metrics.count("engine.timeouts", stats.timeouts)
            metrics.count("engine.retransmission_waves", stats.timeout_waves)
            metrics.count("engine.events", stats.events)
            metrics.count("engine.copies_unscheduled", stats.copies_unscheduled)
            metrics.observe("engine.sim_time_s", stats.sim_time_s)
        return stats

    def _run(self) -> EngineStats:
        for index, machine in enumerate(self.machines):
            machine.context = self
            self.kernel.schedule(
                partial(self._hook, machine, machine.start),
                rank=EventKernel.RANK_HOOK,
                order=index,
            )
        try:
            while True:
                self.kernel.run()
                # The clock ends where the last copy lands, scheduled or not.
                if self._unscheduled_until > self.kernel.now:
                    self.kernel.now = self._unscheduled_until
                unfinished = [m for m in self.machines if not m.finished]
                if not unfinished:
                    break
                if self.latency is None:
                    stalled = ", ".join(
                        f"{m.identity.name} (waiting on {m.waiting_for!r})" for m in unfinished
                    )
                    raise ProtocolError(
                        f"kernel went quiescent with unfinished parties: {stalled}"
                    )
                self._timeout_wave(unfinished)
        finally:
            # Unbound machines leave the executor in no reference cycle, so it
            # (with its `_seen` sets and held messages) goes with its last
            # reference instead of waiting for the cyclic collector.
            for machine in self.machines:
                machine.context = None
        self.stats.sim_time_s = self.kernel.now
        self.stats.events = self.kernel.events_processed
        return self.stats

    # --------------------------------------------------------- timeout waves
    def _timeout_wave(self, unfinished: List[PartyMachine]) -> None:
        self.stats.timeout_waves += 1
        if self.stats.timeout_waves > self.config.max_timeout_waves:
            stalled = ", ".join(
                f"{m.identity.name} (waiting on {m.waiting_for!r})" for m in unfinished
            )
            raise ProtocolError(
                f"protocol still incomplete after {self.config.max_timeout_waves} "
                f"timeout retransmission waves at t={self.kernel.now:g}s: {stalled}"
            )
        self.stats.timeouts += len(unfinished)
        if self._tracer is not None:
            self._tracer.instant(
                "engine.timeout_wave",
                category="engine",
                track="kernel",
                sim_time=self.kernel.now,
                args={"unfinished": len(unfinished)},
            )
        self.kernel.advance(self.config.round_timeout_s)
        stalled_rounds: List[str] = []
        for machine in unfinished:
            label = machine.waiting_for
            if label is not None and label not in stalled_rounds:
                stalled_rounds.append(label)
        # "All members retransmit": every party re-contributes to the stalled
        # rounds (machines without a stored transmission contribute nothing).
        for index, machine in enumerate(self.machines):
            for label in stalled_rounds:
                self.kernel.schedule(
                    partial(self._hook, machine, partial(machine.on_timeout, label)),
                    rank=EventKernel.RANK_HOOK,
                    order=index,
                )

    # ----------------------------------------------------------------- hooks
    def _hook(self, machine: PartyMachine, action: Callable[[float], List[Outbound]]) -> None:
        tracer = self._tracer
        if tracer is not None:
            label = machine.waiting_for or "start"
            started = tracer.now()
        now = self.kernel.now
        outbounds = action(now)
        held = self._held.get(machine.identity.name)
        if held:
            # Retry the held messages in arrival order; those still early stay.
            outbounds = list(outbounds)
            self._held[machine.identity.name] = waiting = []
            for message in held:
                try:
                    outbounds.extend(machine.on_message(message, now))
                except Early:
                    waiting.append(message)
        if tracer is not None:
            tracer.complete(
                f"party:{label}",
                category="party",
                track=machine.identity.name,
                wall_start=started,
                wall_dur=tracer.now() - started,
                sim_start=self.kernel.now,
                sim_dur=0.0,
            )
        if outbounds:
            self.kernel.schedule(
                partial(self._emit, machine, list(outbounds)),
                rank=EventKernel.RANK_HOOK,
                order=self._order[id(machine)],
            )

    def _emit(self, machine: PartyMachine, outbounds: List[Outbound]) -> None:
        for outbound in outbounds:
            self._transmit(machine, outbound.message)

    def _transmit(self, machine: PartyMachine, message: Message) -> None:
        machine.sent[message.round_label] = message
        now = self.kernel.now
        if self.latency is None:
            receipt = self.medium.send(message)
            channel_wait = tx_time = 0.0
        else:
            receipt = self.medium.transmit(message)
            tx_time = self.latency.tx_time(message.wire_bits, message.sender.name)
            tx_start = max(now, self._busy_until)
            self._busy_until = tx_start + tx_time
            channel_wait = tx_start - now
        self.stats.messages_sent += 1
        if self._metrics is not None:
            self._metrics.count("engine.tx.messages")
            self._metrics.count("engine.tx.bits", message.wire_bits)
        # The physical send (and its energy charges) already happened; an
        # active adversary now gets to decide what the receivers *decode*:
        # nothing (jamming), a substituted payload, or the truth but late.
        decoded = message
        suppress = False
        attack_delay = 0.0
        if self.adversary is not None:
            interception = self.adversary.intercept(message, now)
            if interception is not None:
                suppress = interception.drop
                attack_delay = interception.delay_s
                if interception.replacement is not None:
                    decoded = interception.replacement
        delivered = () if suppress else receipt.delivered_to
        if self.latency is None:
            # Every receiver decodes at the same instant: one kernel event
            # hands the message to all of them, in receipt order.
            by_name = self._by_name
            receivers = [by_name[i.name] for i in delivered if i.name in by_name]
            if receivers:
                self.kernel.schedule(
                    partial(self._deliver_all, receivers, decoded),
                    delay=attack_delay,
                    rank=EventKernel.RANK_DELIVERY,
                )
        else:
            field_ = self.medium.field
            key = (decoded.sender.name, decoded.round_label)
            for identity in delivered:
                receiver = self._by_name.get(identity.name)
                if receiver is None:
                    continue
                hops = receipt.hop_by_receiver.get(identity.name, receipt.hops)
                distance = 0.0
                if field_ is not None and message.sender.name in field_ and identity.name in field_:
                    distance = field_.distance(message.sender.name, identity.name)
                delay = channel_wait + tx_time + self.latency.delivery_delay(
                    message.wire_bits, hops, distance, message.sender.name, identity.name
                )
                if key in self._seen[identity.name]:
                    # _deliver would drop this copy: schedule no event for
                    # it, only keep the instant it lands at.
                    self.stats.copies_unscheduled += 1
                    arrival = now + (delay + attack_delay)
                    if arrival > self._unscheduled_until:
                        self._unscheduled_until = arrival
                    continue
                self.kernel.schedule(
                    partial(self._deliver, receiver, decoded),
                    delay=delay + attack_delay,
                    rank=EventKernel.RANK_DELIVERY,
                )
        if self.adversary is not None:
            for forged in self.adversary.drain_injections(now):
                self._inject(forged)

    def _inject(self, forged: Message) -> None:
        """Deliver an attacker-transmitted forgery, racing legitimate copies.

        The forgery rides the attacker's own transmitter (its TX cost was
        charged to the attacker's node when it was queued), so no legitimate
        ledger pays for the send — but every addressed machine physically
        receives a copy and is charged that reception.  ``order=-1`` makes
        the forged delivery sort ahead of same-instant legitimate deliveries,
        so the executor's duplicate filter then discards the honest original:
        first copy wins, and the attacker made sure of being first.
        """
        for receiver in self.machines:
            if not forged.addressed_to(receiver.identity):
                continue
            receiver.node.recorder.record_rx(forged.wire_bits)
            self.kernel.schedule(
                partial(self._deliver, receiver, forged),
                rank=EventKernel.RANK_DELIVERY,
                order=-1,
            )

    def _deliver_all(self, machines: List[PartyMachine], message: Message) -> None:
        for machine in machines:
            self._deliver(machine, message)

    def _deliver(self, machine: PartyMachine, message: Message) -> None:
        key = (message.sender.name, message.round_label)
        seen = self._seen[machine.identity.name]
        if key in seen:
            return  # a second copy (instant mode, or still in flight)
        seen.add(key)
        self.stats.deliveries += 1
        try:
            self._hook(machine, partial(machine.on_message, message))
        except Early:
            self._held.setdefault(machine.identity.name, []).append(message)


def run_machines(
    machines: Sequence[PartyMachine],
    medium: BroadcastMedium,
    *,
    engine: Optional[EngineConfig] = None,
) -> EngineStats:
    """Convenience wrapper: build a :class:`MachineExecutor` and run it."""
    return MachineExecutor(machines, medium, engine).run()


def drive_plan(
    plan: MachinePlan,
    medium: BroadcastMedium,
    *,
    engine: Optional[EngineConfig] = None,
):
    """Execute a :class:`~repro.engine.machine.MachinePlan` to its result.

    The single driver body behind ``Protocol.run`` and every protocol's
    native ``apply_event``/``merge_states``: step the machines to
    quiescence, then let the plan assemble its protocol result from the
    engine statistics.
    """
    stats = run_machines(plan.machines, medium, engine=engine)
    return plan.finish(stats)
