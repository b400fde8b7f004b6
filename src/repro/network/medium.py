"""The simulated broadcast medium.

Wireless group-key protocols are broadcast protocols: one transmission is
received by every other node in range.  :class:`BroadcastMedium` models that —
the sender is charged one transmission of the message's size, every recipient
is charged one reception — and optionally injects message loss, in which case
the sender retransmits (charging everyone again) until the message gets
through or the retry budget is exhausted.  That is exactly the retransmission
behaviour the paper appeals to when a verification fails.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..exceptions import NetworkError
from ..mathutils.rand import DeterministicRNG
from ..pki.identity import Identity
from .message import Message
from .node import Node

__all__ = ["LinkModel", "UniformLink", "BroadcastMedium", "DeliveryReceipt"]


class LinkModel:
    """Per-pair radio link characteristics, keyed by node identity *names*.

    The broadcast medium consults its link model to decide which attached
    nodes a transmission can reach at all (:meth:`reachable`) and how likely
    a given directed link is to drop a copy (:meth:`loss_probability`).  The
    base class is the fully-connected lossless ether; :class:`UniformLink`
    reproduces the classic single-knob uniform-loss medium; distance-dependent
    radio links over moving nodes live in :mod:`repro.mobility.radio`.
    """

    def reachable(self, sender: str, receiver: str) -> bool:
        """Whether ``receiver`` can hear ``sender`` at all right now."""
        return True

    def loss_probability(self, sender: str, receiver: str) -> float:
        """Probability that one copy on the ``sender -> receiver`` link is lost."""
        return 0.0

    def bind(self, rng: "DeterministicRNG") -> None:
        """Receive the medium's ``links`` RNG child at attach time.

        The medium forks a *named* child of its own RNG and hands it to the
        link model here, so stateful models (the Gilbert–Elliott chains in
        :mod:`repro.network.tiers`) get deterministic randomness without
        ever touching the medium's own loss-draw stream.  Stateless models
        ignore the call.
        """

    def describe(self) -> str:
        """One-line summary used in reports."""
        return type(self).__name__


class UniformLink(LinkModel):
    """The degenerate link model: everyone reachable, one global loss knob."""

    def __init__(self, loss_probability: float = 0.0) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise NetworkError("loss probability must be in [0, 1)")
        self.loss = loss_probability

    def loss_probability(self, sender: str, receiver: str) -> float:
        return self.loss

    def describe(self) -> str:
        return f"uniform(loss={self.loss:g})"


@dataclass
class DeliveryReceipt:
    """What happened to one send: attempts used and who received it.

    ``hops``/``transmissions``/``relay_bits`` describe the physical delivery
    path: a single-hop broadcast domain uses ``hops=1`` and one transmission
    per attempt with no relay traffic; a multi-hop medium
    (:class:`repro.mobility.relay.MultiHopMedium`) reports the flood depth,
    every physical transmission (origin plus relays, including retry waves)
    and the bits transmitted by relays on the origin's behalf.
    """

    message: Message
    attempts: int
    #: the receivers that decoded the message, in the order they were
    #: attached to the medium (a node detached and re-attached counts from
    #: its latest attach).  The engine schedules same-instant deliveries in
    #: this order, so it fixes their kernel tie-break.
    delivered_to: List[Identity]
    hops: int = 1
    transmissions: int = 0
    relay_bits: int = 0
    #: flood depth at which each receiver first decoded the message (multi-hop
    #: media only; empty on a single-hop domain, where every receiver is at
    #: ``hops``).  The engine's latency models read this for per-receiver
    #: delivery delays.
    hop_by_receiver: Dict[str, int] = field(default_factory=dict)


class BroadcastMedium:
    """A single-hop broadcast domain connecting a set of nodes.

    Parameters
    ----------
    loss_probability:
        Probability that a given transmission attempt is lost (applied to the
        whole broadcast, modelling a collision / deep fade at the sender).
    max_retries:
        How many times a lost transmission is retried before
        :class:`NetworkError` is raised.
    rng:
        Randomness source for loss decisions (deterministic, like everything
        else in the library).
    link_model:
        Per-pair :class:`LinkModel` hook.  The default is
        ``UniformLink(loss_probability)``, which keeps the historic behaviour
        exactly: every attached node reachable, loss drawn once per broadcast
        attempt.  Passing an explicit :class:`UniformLink` makes it the single
        source of truth for the loss knob.  Any other link model contributes
        *reachability filtering only* on this single-hop medium — per-link
        loss draws and relaying need
        :class:`repro.mobility.relay.MultiHopMedium`.
    """

    def __init__(
        self,
        loss_probability: float = 0.0,
        max_retries: int = 10,
        rng: Optional[DeterministicRNG] = None,
        link_model: Optional[LinkModel] = None,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise NetworkError("loss probability must be in [0, 1)")
        if isinstance(link_model, UniformLink):
            # One source of truth: an explicit uniform link carries the knob.
            loss_probability = link_model.loss
        self.loss_probability = loss_probability
        self.max_retries = max_retries
        self.link_model = link_model if link_model is not None else UniformLink(loss_probability)
        # `is None`, not truthiness: a caller-supplied RNG must never be
        # silently swapped for the default just because it tests falsy.
        self._rng = rng if rng is not None else DeterministicRNG("medium", label="medium")
        # fork() is a pure function of the seed, so binding the link model's
        # named child never advances (or otherwise perturbs) the medium's
        # own draw stream — pre-tier runs stay bit-identical.
        self.link_model.bind(self._rng.fork("links"))
        self._nodes: Dict[str, Node] = {}
        #: attach rank of every attached node, increasing in the order of
        #: ``_nodes`` (which keeps attach order): the multicast sort key
        self._rank: Dict[str, int] = {}
        self._attach_count = itertools.count()
        self.transcript: List[Message] = []
        self.receipts: List[DeliveryReceipt] = []
        # Running traffic totals, kept by _finalize so total_* are O(1).
        self._bits = 0
        self._bits_on_air = 0
        self._transmissions = 0
        self._relay_bits = 0
        #: read-only observers called after every physical send — the
        #: adversary subsystem's eavesdropping hook.  Taps must not mutate
        #: anything: they see the message and its receipt, nothing more, so
        #: an attached tap can never perturb energy ledgers or loss draws.
        self.taps: List[Callable[[Message, DeliveryReceipt], None]] = []

    def add_tap(self, tap: Callable[[Message, DeliveryReceipt], None]) -> None:
        """Attach a read-only observer of every send (see ``taps``)."""
        self.taps.append(tap)

    def _finalize(self, message: Message, receipt: DeliveryReceipt) -> DeliveryReceipt:
        """Record a completed send and notify the taps."""
        self.transcript.append(message)
        self.receipts.append(receipt)
        self._bits += message.wire_bits
        self._bits_on_air += message.wire_bits * receipt.transmissions
        self._transmissions += receipt.transmissions
        self._relay_bits += receipt.relay_bits
        for tap in self.taps:
            tap(message, receipt)
        return receipt

    # ----------------------------------------------------------- membership
    def attach(self, node: Node) -> Node:
        """Attach a node to the broadcast domain."""
        name = node.identity.name
        # Attaching an attached node again keeps its place, as in _nodes.
        self._rank.setdefault(name, next(self._attach_count))
        self._nodes[name] = node
        return node

    def detach(self, identity: Identity) -> None:
        """Remove a node (it stops receiving and being charged)."""
        self._nodes.pop(identity.name, None)
        self._rank.pop(identity.name, None)

    def node(self, identity: Identity) -> Node:
        """Look up an attached node."""
        try:
            return self._nodes[identity.name]
        except KeyError:
            raise NetworkError(f"node {identity.name!r} is not attached to the medium") from None

    @property
    def nodes(self) -> List[Node]:
        """All attached nodes."""
        return list(self._nodes.values())

    def __contains__(self, identity: Identity) -> bool:
        return identity.name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------ send
    def _attempt_lost(self) -> bool:
        if self.loss_probability <= 0.0:
            return False
        draw = self._rng.randbelow(1_000_000) / 1_000_000.0
        return draw < self.loss_probability

    def _addressees(self, message: Message) -> List[Node]:
        """The attached nodes ``message`` is addressed to, in attach order.

        A broadcast goes to every other attached node; a multicast to its
        attached recipients, each once, never the sender.
        """
        sender = message.sender.name
        if message.recipients is None:
            return [node for name, node in self._nodes.items() if name != sender]
        rank = self._rank
        names = {recipient.name for recipient in message.recipients}
        names.discard(sender)
        attached = [name for name in names if name in rank]
        attached.sort(key=rank.__getitem__)
        return [self._nodes[name] for name in attached]

    def send(self, message: Message) -> DeliveryReceipt:
        """Transmit a message, charging sender and receivers, with retries on loss.

        Performs up to ``max_retries + 1`` physical attempts: the initial
        transmission plus ``max_retries`` retries, every one of them charged
        to the sender's (and each listening receiver's) energy ledger.  Only
        when the last retry is also lost does :class:`NetworkError` surface.
        """
        sender = self.node(message.sender)
        addressees = self._addressees(message)
        # Validate deliverability before anything is charged, so a failed
        # send is side-effect-free: a single-hop domain has no relays, and an
        # addressed member out of direct range could never be served —
        # silently skipping it would surface much later as a confusing
        # protocol failure.  Multi-hop delivery lives in
        # repro.mobility.relay.MultiHopMedium.
        if type(self.link_model).reachable is not LinkModel.reachable:
            for node in addressees:
                if not self.link_model.reachable(message.sender.name, node.identity.name):
                    raise NetworkError(
                        f"{node.identity.name} is out of direct range of "
                        f"{message.sender.name} and this single-hop medium cannot "
                        "relay; use MultiHopMedium for multi-hop topologies"
                    )
        attempts = 0
        while True:
            attempts += 1
            sender.recorder.record_tx(message.wire_bits)
            if not self._attempt_lost():
                break
            if attempts > self.max_retries:
                raise NetworkError(
                    f"message from {message.sender.name} lost {attempts} times; giving up"
                )
        # Receivers pay for every attempt they had to listen to; with the
        # default lossless medium this is exactly one reception.
        rx_bits = message.wire_bits * attempts
        for node in addressees:
            node.recorder.record_rx(rx_bits, messages=attempts)
        receipt = DeliveryReceipt(
            message=message,
            attempts=attempts,
            delivered_to=[node.identity for node in addressees],
            hops=1,
            transmissions=attempts,
            relay_bits=0,
        )
        return self._finalize(message, receipt)

    def transmit(self, message: Message) -> DeliveryReceipt:
        """One *single* physical broadcast attempt (no retries, no raising).

        This is the engine's latency-mode primitive: the sender is charged
        one transmission, every addressed node in range is charged one
        reception (it was listening whether or not its copy decoded), and
        lost or out-of-range copies simply do not appear in ``delivered_to``
        — recovery is the protocol machines' job, via round timeouts and
        retransmission waves in virtual time.  Loss is drawn once per
        broadcast from the uniform knob (a collision / deep fade at the
        sender) and, for non-uniform link models, once more per directed
        link.  The legacy :meth:`send` keeps its immediate-retry semantics
        for synchronous execution.
        """
        sender = self.node(message.sender)
        bits = message.wire_bits
        sender.recorder.record_tx(bits)
        attempt_lost = self._attempt_lost()
        per_link = not isinstance(self.link_model, UniformLink)
        delivered: List[Identity] = []
        for node in self._addressees(message):
            name = node.identity.name
            if not self.link_model.reachable(message.sender.name, name):
                continue
            node.recorder.record_rx(bits)
            if attempt_lost:
                continue
            if per_link:
                loss = self.link_model.loss_probability(message.sender.name, name)
                if loss > 0.0 and self._rng.randbelow(1_000_000) / 1_000_000.0 < loss:
                    continue
            delivered.append(node.identity)
        receipt = DeliveryReceipt(
            message=message,
            attempts=1,
            delivered_to=delivered,
            hops=1,
            transmissions=1,
            relay_bits=0,
        )
        return self._finalize(message, receipt)

    # ------------------------------------------------------------- reporting
    def total_messages(self) -> int:
        """Number of distinct messages placed on the medium."""
        return len(self.transcript)

    def total_bits(self, *, include_retries: bool = False) -> int:
        """Total bits placed on the medium.

        By default each message counts once, whatever it took to deliver.
        With ``include_retries=True`` every physical on-air copy counts —
        retransmissions here, relay copies too on a multi-hop medium — so the
        figure matches the transmission bits the senders' (and relays')
        recorders were actually charged, which is what energy reports for
        lossy scenarios must use.
        """
        if include_retries:
            return self._bits_on_air
        return self._bits

    def total_transmissions(self) -> int:
        """Physical transmissions: every on-air copy, including retries and relays."""
        return self._transmissions

    def total_relay_bits(self) -> int:
        """Bits transmitted by relay nodes on behalf of other senders."""
        return self._relay_bits
