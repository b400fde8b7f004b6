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
    def _wave(
        self,
        message: Message,
        frontier: List[str],
        covered: Set[str],
        addressed: Set[str],
        hop_of: Dict[str, int],
    ) -> Tuple[int, int, int]:
        """One bounded BFS flood wave; returns (transmissions, relay bits, depth).

        Every node in ``frontier`` transmits and each node it newly covers
        re-transmits on the next hop, up to ``max_hops`` hops or until every
        ``addressed`` name is in ``covered``.  Everyone in range overhears
        (and pays for) every copy; a loss is drawn only for a copy that would
        newly cover its receiver, whose hop goes into ``hop_of``.  With
        nobody to reach, the origin still puts one copy on air.
        """
        origin = message.sender.name
        bits = message.wire_bits
        graph = self.neighbours()
        nodes = self._nodes
        loss_probability = self.link_model.loss_probability
        transmissions = relay_bits = hop = 0
        while frontier and hop < self.max_hops and not addressed <= covered:
            hop += 1
            next_frontier: List[str] = []
            for tx_name in frontier:
                nodes[tx_name].recorder.record_tx(bits)
                transmissions += 1
                if tx_name != origin:
                    relay_bits += bits
                for rx_name in graph[tx_name]:
                    nodes[rx_name].recorder.record_rx(bits)
                    if rx_name in covered:
                        continue
                    loss = loss_probability(tx_name, rx_name)
                    if loss > 0.0 and unit_draw(self._rng) < loss:
                        continue
                    covered.add(rx_name)
                    hop_of[rx_name] = hop
                    next_frontier.append(rx_name)
            frontier = next_frontier
        if not transmissions:
            nodes[origin].recorder.record_tx(bits)
            transmissions = 1
        return transmissions, relay_bits, hop

    def send(self, message: Message) -> DeliveryReceipt:
        """Flood ``message`` through the network, charging every hop.

        The first wave floods out from the origin (see :meth:`_wave`).  If
        per-link losses or the TTL leave addressed nodes uncovered, a retry
        wave starts in which every covered node re-floods, in name order.
        Receipts record the waves used, the physical transmission count,
        relay bits, and the deepest hop of any wave.
        """
        origin = self.node(message.sender).identity.name
        addressees = self._addressees(message)
        addressed = {node.identity.name for node in addressees}
        unreachable = addressed - self.reachable_set(origin)
        if unreachable:
            when = f" at t={self.field.time:g}s" if self.field is not None else ""
            raise NetworkError(
                f"message from {origin} cannot reach {sorted(unreachable)}: "
                f"no relay path{when} "
                "(the connectivity monitor should have partitioned them out)"
            )
        covered = {origin}
        frontier = [origin]
        transmissions = relay_bits = hops = waves = 0
        while True:
            waves += 1
            sent, relayed, depth = self._wave(message, frontier, covered, addressed, {})
            transmissions += sent
            relay_bits += relayed
            hops = max(hops, depth)
            if addressed <= covered:
                break
            if waves > self.max_retries:
                raise NetworkError(
                    f"message from {origin} still missing {sorted(addressed - covered)} "
                    f"after {waves} flood waves (TTL {self.max_hops} hops per "
                    "wave); raise max_retries for lossy links or max_hops if "
                    "the topology is deeper than the TTL"
                )
            frontier = sorted(covered)
        receipt = DeliveryReceipt(
            message=message,
            attempts=waves,
            delivered_to=[node.identity for node in addressees],
            hops=max(hops, 1),
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
        origin = self.node(message.sender).identity.name
        addressees = self._addressees(message)
        covered = {origin}
        hop_of: Dict[str, int] = {}
        transmissions, relay_bits, hops = self._wave(
            message, [origin], covered, {node.identity.name for node in addressees}, hop_of
        )
        receipt = DeliveryReceipt(
            message=message,
            attempts=1,
            delivered_to=[node.identity for node in addressees if node.identity.name in covered],
            hops=max(hops, 1),
            transmissions=transmissions,
            relay_bits=relay_bits,
            hop_by_receiver=hop_of,
        )
        return self._finalize(message, receipt)
