"""Per-link delivery latency models for the event kernel.

In latency mode the executor schedules each delivery at
``now + channel_wait + tx_time + delivery_delay``:

* ``channel_wait`` — time the origin waits for the shared broadcast channel
  (the executor serializes same-instant transmissions, a deliberately simple
  MAC model);
* ``tx_time`` — serialization of the message at the sender's bitrate;
* ``delivery_delay`` — everything between the origin finishing its
  transmission and a given receiver decoding the copy: relay
  re-serializations on multi-hop paths, a fixed 1 ms of processing at every
  relay, and propagation over the mobility distance at the speed of light.

Every model answers one method pair, :meth:`LatencyModel.tx_time` and
:meth:`LatencyModel.delivery_delay`, which see the endpoint names.  Models
only read message sizes and topology facts, never randomness — the latency
of a given delivery is a pure function of the scenario state, so
virtual-time traces are reproducible.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

from ..energy.transceiver import Transceiver
from ..exceptions import ParameterError
from ..network.medium import BroadcastMedium
from ..network.tiers import LINK_CLASSES, TierMap

__all__ = ["LatencyModel", "FixedLatency", "TransceiverLatency", "TieredLatency"]

#: Speed of light, the propagation speed (m/s).
_C = 299_792_458.0
#: Processing at every relay (MAC access, queueing), in seconds.
_RELAY_OVERHEAD_S = 0.001
#: The link class pricing a tiered model bound to a medium without tiers.
_FALLBACK = LINK_CLASSES["ground"]


class LatencyModel(abc.ABC):
    """How long transmissions occupy the channel and deliveries take."""

    @abc.abstractmethod
    def tx_time(self, bits: int, sender: str) -> float:
        """Channel occupancy of ``sender``'s transmission of ``bits`` bits."""

    @abc.abstractmethod
    def delivery_delay(
        self, bits: int, hops: int, distance_m: float, sender: str, receiver: str
    ) -> float:
        """Delay from the origin's transmission end to one receiver's decode."""

    def bind(self, medium: BroadcastMedium) -> None:
        """Observe the medium the executor runs over (topology-aware models)."""

    def describe(self) -> str:
        """One-line summary used in reports."""
        return type(self).__name__


class FixedLatency(LatencyModel):
    """A constant per-hop link latency (sweep knob, not a radio model).

    ``delay_s`` is charged once per hop; the channel itself is free
    (``tx_time`` is zero), so concurrent broadcasts do not queue.  This is
    the right model for latency × loss sweeps where the link delay is the
    independent variable.
    """

    def __init__(self, delay_s: float) -> None:
        if not 0 <= delay_s < math.inf:
            raise ParameterError(f"link latency must be finite and non-negative: {delay_s!r}")
        self.delay_s = delay_s

    def tx_time(self, bits: int, sender: str) -> float:
        return 0.0

    def delivery_delay(
        self, bits: int, hops: int, distance_m: float, sender: str, receiver: str
    ) -> float:
        return self.delay_s * max(1, hops)

    def describe(self) -> str:
        return f"fixed({self.delay_s:g}s/hop)"


class TransceiverLatency(LatencyModel):
    """Latency derived from a transceiver's bitrate plus hop/propagation terms.

    * serialization: ``bits / bitrate`` at the origin, and again at every
      relay on an ``h``-hop path (``h - 1`` re-serializations);
    * processing: 1 ms at every relay (MAC access, queueing);
    * propagation: ``distance_m`` at the speed of light (microseconds at
      radio ranges, but it keeps the model honest for long links).
    """

    def __init__(self, transceiver: Transceiver) -> None:
        if transceiver.bitrate_bps <= 0:
            raise ParameterError("transceiver bitrate must be positive for latency modelling")
        self.transceiver = transceiver

    def tx_time(self, bits: int, sender: str) -> float:
        return bits / self.transceiver.bitrate_bps

    def delivery_delay(
        self, bits: int, hops: int, distance_m: float, sender: str, receiver: str
    ) -> float:
        relays = max(1, hops) - 1
        return relays * (self.tx_time(bits, sender) + _RELAY_OVERHEAD_S) + distance_m / _C

    def describe(self) -> str:
        return (
            f"transceiver({self.transceiver.name}, "
            f"{self.transceiver.bitrate_bps:g} bps, "
            f"{_RELAY_OVERHEAD_S * 1000.0:g} ms/hop)"
        )


class TieredLatency(LatencyModel):
    """Latency from per-link-class bitrates and propagation delays.

    Resolves every delivery's serialization rate and propagation through the
    :class:`~repro.network.tiers.TierMap` of the medium it is bound to (its
    ``tier_map``), so one engine profile serves every tiered scenario:

    * ``tx_time``: the origin serializes at its *home* class's member rate
      (the 1 Mbps satellite uplink really throttles satellite-homed senders);
    * ``delivery_delay``: relays re-serialize at the pair's class rate
      (descending deliveries use the faster ``reverse_bps`` when set), plus
      one extra re-serialization when the delivery crosses tiers — the
      gateway forwarding onto the other tier's channel — plus the class's
      fixed propagation delay (two tiers' worth for gateway-bridged pairs,
      e.g. a 500 ms round trip over a 250 ms satellite hop each way).

    On a medium without a tier map (plain media) the ``ground`` preset
    prices everything.
    """

    def __init__(self) -> None:
        self.tier_map: Optional[TierMap] = None

    def bind(self, medium: BroadcastMedium) -> None:
        # Rebound per executor, so the profile can be reused across runs.
        self.tier_map = medium.tier_map

    def tx_time(self, bits: int, sender: str) -> float:
        home = _FALLBACK if self.tier_map is None else self.tier_map.home_class(sender)
        return bits / home.bitrate_bps

    def delivery_delay(
        self, bits: int, hops: int, distance_m: float, sender: str, receiver: str
    ) -> float:
        if self.tier_map is None:
            rate, propagation, cross = _FALLBACK.bitrate_bps, _FALLBACK.propagation_delay_s, False
        else:
            rate, propagation, cross = self.tier_map.latency_terms(sender, receiver)
        # A cross-tier delivery pays one extra serialization at the bridging
        # class's rate even on a direct link: the gateway (or the origin's
        # uplink terminal) forwards the copy onto the other tier's channel.
        reserializations = max(1, hops) - 1 + (1 if cross else 0)
        return (
            reserializations * (bits / rate + _RELAY_OVERHEAD_S)
            + propagation
            + distance_m / _C
        )

    def describe(self) -> str:
        if self.tier_map is None:
            return f"tiered(unbound, fallback={_FALLBACK.name})"
        return f"tiered({self.tier_map.describe()})"
