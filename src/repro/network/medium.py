"""The simulated broadcast medium.

Wireless group-key protocols are broadcast protocols: one transmission is
received by every other node in range.  :class:`BroadcastMedium` models that —
the sender is charged one transmission of the message's size, every recipient
is charged one reception — and optionally injects message loss, in which case
the sender retransmits (charging everyone again) until the message gets
through or the retry budget is exhausted.  That is exactly the retransmission
behaviour the paper appeals to when a verification fails.

The single-hop domain has one loss knob, drawn once per broadcast attempt.
Per-link models (:class:`LinkModel`: reachability, per-link loss, burst
chains) belong to the relaying media,
:class:`repro.mobility.relay.MultiHopMedium` and
:class:`repro.mobility.tiered.TieredMedium`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..exceptions import NetworkError
from ..mathutils.rand import DeterministicRNG
from ..pki.identity import Identity
from .message import Message
from .node import Node

if TYPE_CHECKING:
    from ..mobility.field import MobilityField
    from .tiers import TierMap

__all__ = ["LinkModel", "BroadcastMedium", "DeliveryReceipt"]


class LinkModel:
    """Per-pair radio link characteristics, keyed by node identity *names*.

    A relaying medium consults its link model to decide which attached nodes
    a transmission can reach at all (:meth:`reachable`) and how likely a
    given directed link is to drop a copy (:meth:`loss_probability`).  The
    base class is the fully-connected lossless ether; distance-dependent
    radio links over moving nodes live in :mod:`repro.mobility.radio`, and
    tier links with burst-loss chains in :mod:`repro.network.tiers`.
    """

    def reachable(self, sender: str, receiver: str) -> bool:
        """Whether ``receiver`` can hear ``sender`` at all right now."""
        return True

    def loss_probability(self, sender: str, receiver: str) -> float:
        """Probability that one copy on the ``sender -> receiver`` link is lost."""
        return 0.0

    def adjacency(self, names: Sequence[str]) -> Dict[str, List[str]]:
        """Symmetric single-hop adjacency lists among the distinct ``names``.

        Pairs are tested with :meth:`reachable` in ``i < j`` order and each
        linked pair is appended to both lists in that order.  A model that
        can answer without one call per pair overrides this with the same
        lists, in the same order.
        """
        ordered = list(names)
        graph: Dict[str, List[str]] = {name: [] for name in ordered}
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                if self.reachable(a, b):
                    graph[a].append(b)
                    graph[b].append(a)
        return graph

    def bind(self, rng: "DeterministicRNG") -> None:
        """Receive the medium's ``links`` RNG child at attach time.

        The medium forks a *named* child of its own RNG and hands it to the
        link model here, so stateful models (the Gilbert–Elliott chains of
        :class:`repro.network.tiers.TieredLink`) get deterministic randomness
        without ever touching the medium's own loss-draw stream.  Stateless
        models ignore the call.
        """

    def describe(self) -> str:
        """One-line summary used in reports."""
        return type(self).__name__


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
    """

    #: node positions, for media over a mobility field (the executor's
    #: propagation distances, the cluster tree's geographic clusters)
    field: Optional["MobilityField"] = None
    #: the tier layout, for tiered media and the single-tier collapse
    #: (:class:`~repro.engine.latency.TieredLatency` binds to it)
    tier_map: Optional["TierMap"] = None

    def __init__(
        self,
        loss_probability: float = 0.0,
        max_retries: int = 10,
        rng: Optional[DeterministicRNG] = None,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise NetworkError("loss probability must be in [0, 1)")
        self.loss_probability = loss_probability
        self.max_retries = max_retries
        # `is None`, not truthiness: a caller-supplied RNG must never be
        # silently swapped for the default just because it tests falsy.
        self._rng = rng if rng is not None else DeterministicRNG("medium", label="medium")
        self._nodes: Dict[str, Node] = {}
        #: attach rank of every attached node, increasing in the order of
        #: ``_nodes`` (which keeps attach order): the multicast sort key
        self._rank: Dict[str, int] = {}
        self._attach_count = itertools.count()
        self.transcript: List[Message] = []
        self.receipts: List[DeliveryReceipt] = []
        # Running traffic totals, kept by _finalize so total_* are O(1).
        self._messages = 0
        self._bits = 0
        self._bits_on_air = 0
        self._transmissions = 0
        self._relay_bits = 0
        self._hops = 0
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
        self._messages += 1
        self._bits += message.wire_bits
        self._bits_on_air += message.wire_bits * receipt.transmissions
        self._transmissions += receipt.transmissions
        self._relay_bits += receipt.relay_bits
        self._hops += receipt.hops
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
        one transmission, every addressed node is charged one reception (it
        was listening whether or not the copy decoded), and a lost broadcast
        simply delivers to nobody — recovery is the protocol machines' job,
        via round timeouts and retransmission waves in virtual time.  Loss is
        drawn once per broadcast, as in :meth:`send`, which keeps its
        immediate-retry semantics for synchronous execution.
        """
        sender = self.node(message.sender)
        bits = message.wire_bits
        sender.recorder.record_tx(bits)
        lost = self._attempt_lost()
        addressees = self._addressees(message)
        for node in addressees:
            node.recorder.record_rx(bits)
        receipt = DeliveryReceipt(
            message=message,
            attempts=1,
            delivered_to=[] if lost else [node.identity for node in addressees],
            hops=1,
            transmissions=1,
            relay_bits=0,
        )
        return self._finalize(message, receipt)

    # ------------------------------------------------------------- reporting
    def total_messages(self) -> int:
        """Number of distinct messages placed on the medium."""
        return self._messages

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

    def total_hops(self) -> int:
        """The flood depths of every message, summed (1 per single-hop send)."""
        return self._hops
