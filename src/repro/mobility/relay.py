"""Multi-hop message delivery by bounded flooding.

:class:`MultiHopMedium` replaces the single-hop broadcast domain for mobile
networks: a transmission only reaches the nodes inside radio range, and nodes
that already hold the message re-broadcast it (bounded by ``max_hops``) until
every addressed member is covered.  Every physical transmission — origin and
relays alike — is charged through the existing
:class:`~repro.energy.accounting.CostRecorder` / transceiver accounting: the
transmitter pays ``wire_bits`` of TX and *every* attached node in its range
pays RX for the copy it overhears, whether or not it needed it.  Protocol
comparisons over this medium therefore reflect the true relaying cost of the
topology, not just the end-point cost.

Losses are drawn per directed link per copy from the
:class:`~repro.mobility.radio.RadioLink` model; a wave that leaves addressed
members uncovered (deep fades) triggers a retransmission wave in which every
current holder re-floods, mirroring the paper's "all members retransmit"
recovery.  Addressed members that are graph-unreachable (the component
containing the sender cannot reach them at any loss draw) raise
:class:`~repro.exceptions.NetworkError` immediately — that is a partition the
connectivity layer should have turned into a membership event.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..exceptions import NetworkError
from ..mathutils.rand import DeterministicRNG
from ..network.medium import BroadcastMedium, DeliveryReceipt, LinkModel
from ..network.message import Message
from .field import MobilityField, unit_draw
from .graph import adjacency, component

__all__ = ["MultiHopMedium"]


class MultiHopMedium(BroadcastMedium):
    """A mobile ad-hoc radio domain with relaying.

    Parameters
    ----------
    field:
        Node positions (read at the field's current time for every send).
        ``None`` for static relaying topologies whose link model does not
        read positions (e.g. the tiered media in
        :mod:`repro.mobility.tiered`).
    link_model:
        The link model deciding reachability and loss — typically the
        distance-dependent :class:`~repro.mobility.radio.RadioLink`, or any
        other :class:`~repro.network.medium.LinkModel`.
    max_hops:
        Flood depth bound (TTL) per wave.
    max_retries:
        How many extra flood waves may recover from per-link losses before
        :class:`~repro.exceptions.NetworkError` is raised.
    rng:
        Deterministic randomness for per-link loss draws.
    """

    def __init__(
        self,
        field: Optional[MobilityField],
        link_model: LinkModel,
        *,
        max_hops: int = 8,
        max_retries: int = 10,
        rng: Optional[DeterministicRNG] = None,
    ) -> None:
        if max_hops < 1:
            raise NetworkError("max_hops must be at least 1")
        super().__init__(
            loss_probability=0.0, max_retries=max_retries, rng=rng, link_model=link_model
        )
        self.field = field
        self.max_hops = max_hops
        self._graph_cache: Optional[Tuple[int, Tuple[str, ...], Dict[str, List[str]]]] = None

    # ------------------------------------------------------------- topology
    def neighbours(self) -> Dict[str, List[str]]:
        """Adjacency among the *attached* nodes at the field's current time.

        Cached per (field step, attached-node set); rebuilding is O(n^2)
        distance checks and node sets change only on membership events.
        Without a field the topology only changes with membership.
        """
        names = tuple(sorted(self._nodes))
        key = (self.field.step_count if self.field is not None else -1, names)
        if self._graph_cache is not None and self._graph_cache[:2] == key:
            return self._graph_cache[2]
        graph = adjacency(self.link_model, names)
        self._graph_cache = (key[0], key[1], graph)
        return graph

    def reachable_set(self, origin: str) -> Set[str]:
        """Names reachable from ``origin`` over any number of hops (loss-free)."""
        return component(self.neighbours(), origin)

    # ------------------------------------------------------------------ send
    def _copy_lost(self, sender: str, receiver: str) -> bool:
        loss = self.link_model.loss_probability(sender, receiver)
        if loss <= 0.0:
            return False
        return unit_draw(self._rng) < loss

    def send(self, message: Message) -> DeliveryReceipt:
        """Flood ``message`` through the network, charging every hop.

        One *wave* is a bounded BFS flood: the origin transmits, each newly
        covered node re-transmits on the next hop, up to ``max_hops`` hops or
        until all addressed nodes are covered.  If per-link losses leave
        addressed nodes uncovered, a retry wave starts in which every covered
        node re-floods.  Receipts record the physical transmission count,
        relay bits, and the deepest hop used.
        """
        origin = self.node(message.sender)
        origin_name = origin.identity.name
        bits = message.wire_bits
        graph = self.neighbours()

        addressees = self._addressees(message)
        addressed = {node.identity.name for node in addressees}
        unreachable = addressed - self.reachable_set(origin_name)
        if unreachable:
            when = f" at t={self.field.time:g}s" if self.field is not None else ""
            raise NetworkError(
                f"message from {origin_name} cannot reach {sorted(unreachable)}: "
                f"no relay path{when} "
                "(the connectivity monitor should have partitioned them out)"
            )

        covered: Set[str] = {origin_name}
        transmissions = 0
        relay_bits = 0
        deepest_hop = 0
        waves = 0
        if not addressed:
            # Nobody (else) to reach: the origin still puts one copy on air.
            origin.recorder.record_tx(bits)
            receipt = DeliveryReceipt(
                message=message, attempts=1, delivered_to=[], hops=1,
                transmissions=1, relay_bits=0,
            )
            return self._finalize(message, receipt)
        while True:
            waves += 1
            # Wave 1 floods out from the origin; retry waves re-flood from
            # every node already holding the message.
            frontier = [origin_name] if waves == 1 else sorted(covered)
            hop = 0
            while frontier and hop < self.max_hops and not addressed <= covered:
                hop += 1
                next_frontier: List[str] = []
                for tx_name in frontier:
                    tx_node = self._nodes[tx_name]
                    tx_node.recorder.record_tx(bits)
                    transmissions += 1
                    if tx_name != origin_name:
                        relay_bits += bits
                    for rx_name in graph[tx_name]:
                        rx_node = self._nodes[rx_name]
                        # Everyone in range overhears (and pays for) the copy.
                        rx_node.recorder.record_rx(bits)
                        if rx_name in covered:
                            continue
                        if self._copy_lost(tx_name, rx_name):
                            continue
                        covered.add(rx_name)
                        next_frontier.append(rx_name)
                deepest_hop = max(deepest_hop, hop)
                frontier = next_frontier
            if addressed <= covered:
                break
            if waves > self.max_retries:
                missing = sorted(addressed - covered)
                raise NetworkError(
                    f"message from {origin_name} still missing {missing} "
                    f"after {waves} flood waves (TTL {self.max_hops} hops per "
                    "wave); raise max_retries for lossy links or max_hops if "
                    "the topology is deeper than the TTL"
                )

        receipt = DeliveryReceipt(
            message=message,
            attempts=waves,
            delivered_to=[node.identity for node in addressees],
            hops=max(deepest_hop, 1),
            transmissions=transmissions,
            relay_bits=relay_bits,
        )
        return self._finalize(message, receipt)

    def transmit(self, message: Message) -> DeliveryReceipt:
        """One *single* flood wave (engine latency mode): no retry waves.

        Unlike :meth:`send`, graph-unreachable or loss-starved addressed
        members do not raise — they simply stay out of ``delivered_to`` and
        the protocol machines recover through round timeouts and
        retransmission waves in virtual time.  The receipt records the flood
        depth at which each receiver first decoded its copy
        (``hop_by_receiver``) so latency models can charge relay
        re-serialization per hop actually travelled.
        """
        origin = self.node(message.sender)
        origin_name = origin.identity.name
        bits = message.wire_bits
        graph = self.neighbours()
        addressees = self._addressees(message)
        addressed = {node.identity.name for node in addressees}
        covered: Set[str] = {origin_name}
        hop_of: Dict[str, int] = {}
        transmissions = 0
        relay_bits = 0
        deepest_hop = 0
        frontier = [origin_name]
        hop = 0
        while frontier and hop < self.max_hops and not addressed <= covered:
            hop += 1
            next_frontier: List[str] = []
            for tx_name in frontier:
                tx_node = self._nodes[tx_name]
                tx_node.recorder.record_tx(bits)
                transmissions += 1
                if tx_name != origin_name:
                    relay_bits += bits
                for rx_name in graph[tx_name]:
                    rx_node = self._nodes[rx_name]
                    rx_node.recorder.record_rx(bits)
                    if rx_name in covered:
                        continue
                    if self._copy_lost(tx_name, rx_name):
                        continue
                    covered.add(rx_name)
                    hop_of[rx_name] = hop
                    next_frontier.append(rx_name)
            deepest_hop = max(deepest_hop, hop)
            frontier = next_frontier
        if transmissions == 0:
            # Nobody to reach (or nobody in range): the origin still puts one
            # copy on air, mirroring send()'s no-addressee behaviour.
            origin.recorder.record_tx(bits)
            transmissions = 1
        delivered = [node.identity for node in addressees if node.identity.name in covered]
        receipt = DeliveryReceipt(
            message=message,
            attempts=1,
            delivered_to=delivered,
            hops=max(deepest_hop, 1),
            transmissions=transmissions,
            relay_bits=relay_bits,
            hop_by_receiver=hop_of,
        )
        return self._finalize(message, receipt)
