"""Per-link delivery latency models for the event kernel.

In latency mode the executor schedules each delivery at
``now + channel_wait + tx_time + delivery_delay``:

* ``channel_wait`` — time the origin waits for the shared broadcast channel
  (the executor serializes same-instant transmissions, a deliberately simple
  MAC model);
* ``tx_time`` — serialization of the message at the transceiver bitrate;
* ``delivery_delay`` — everything between the origin finishing its
  transmission and a given receiver decoding the copy: relay
  re-serializations on multi-hop paths, per-hop processing, and propagation
  over the mobility distance.

Models only read message sizes and topology facts, never randomness — the
latency of a given delivery is a pure function of the scenario state, so
virtual-time traces are reproducible.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

from ..energy.transceiver import Transceiver
from ..exceptions import ParameterError

__all__ = ["LatencyModel", "FixedLatency", "TransceiverLatency", "TieredLatency"]

#: Speed of light, the default propagation speed (m/s).
_C = 299_792_458.0


class LatencyModel(abc.ABC):
    """How long transmissions occupy the channel and deliveries take."""

    @abc.abstractmethod
    def tx_time_s(self, bits: int) -> float:
        """Channel occupancy of one transmission of ``bits`` bits."""

    @abc.abstractmethod
    def delivery_delay_s(self, bits: int, hops: int, distance_m: float) -> float:
        """Delay from the origin's transmission end to one receiver's decode."""

    # The executor calls the ``*_for`` variants, which additionally see the
    # endpoint names; the defaults delegate to the name-free methods, so
    # existing models are untouched and pre-tier runs stay bit-identical.
    def tx_time_for(self, bits: int, sender: str) -> float:
        """Channel occupancy of ``sender``'s transmission of ``bits`` bits."""
        return self.tx_time_s(bits)

    def delivery_delay_for(
        self, bits: int, hops: int, distance_m: float, sender: str, receiver: str
    ) -> float:
        """Per-receiver delivery delay (endpoint-aware variant)."""
        return self.delivery_delay_s(bits, hops, distance_m)

    def bind(self, medium: object) -> None:
        """Observe the medium the executor runs over (topology-aware models)."""

    def describe(self) -> str:
        """One-line summary used in reports."""
        return type(self).__name__


class FixedLatency(LatencyModel):
    """A constant per-hop link latency (sweep knob, not a radio model).

    ``delay_s`` is charged once per hop; the channel itself is free
    (``tx_time_s`` is zero), so concurrent broadcasts do not queue.  This is
    the right model for latency × loss sweeps where the link delay is the
    independent variable.
    """

    def __init__(self, delay_s: float) -> None:
        if not 0 <= delay_s < math.inf:
            raise ParameterError(f"link latency must be finite and non-negative: {delay_s!r}")
        self.delay_s = delay_s

    def tx_time_s(self, bits: int) -> float:
        return 0.0

    def delivery_delay_s(self, bits: int, hops: int, distance_m: float) -> float:
        return self.delay_s * max(1, hops)

    def describe(self) -> str:
        return f"fixed({self.delay_s:g}s/hop)"


class TransceiverLatency(LatencyModel):
    """Latency derived from a transceiver's bitrate plus hop/propagation terms.

    * serialization: ``bits / bitrate`` at the origin, and again at every
      relay on an ``h``-hop path (``h - 1`` re-serializations);
    * processing: ``per_hop_overhead_s`` at every relay (MAC access, queueing);
    * propagation: ``distance_m`` at ``propagation_m_per_s`` (microseconds at
      radio ranges, but it keeps the model honest for long links).
    """

    def __init__(
        self,
        transceiver: Transceiver,
        *,
        per_hop_overhead_s: float = 0.001,
        propagation_m_per_s: float = _C,
    ) -> None:
        if transceiver.bitrate_bps <= 0:
            raise ParameterError("transceiver bitrate must be positive for latency modelling")
        if per_hop_overhead_s < 0:
            raise ParameterError("per-hop overhead cannot be negative")
        if propagation_m_per_s <= 0:
            raise ParameterError("propagation speed must be positive")
        self.transceiver = transceiver
        self.per_hop_overhead_s = per_hop_overhead_s
        self.propagation_m_per_s = propagation_m_per_s

    def tx_time_s(self, bits: int) -> float:
        return bits / self.transceiver.bitrate_bps

    def delivery_delay_s(self, bits: int, hops: int, distance_m: float) -> float:
        relays = max(1, hops) - 1
        return (
            relays * (self.tx_time_s(bits) + self.per_hop_overhead_s)
            + distance_m / self.propagation_m_per_s
        )

    def describe(self) -> str:
        return (
            f"transceiver({self.transceiver.name}, "
            f"{self.transceiver.bitrate_bps:g} bps, "
            f"{self.per_hop_overhead_s * 1000.0:g} ms/hop)"
        )


class TieredLatency(LatencyModel):
    """Latency from per-link-class bitrates and propagation delays.

    Resolves every delivery's serialization rate and propagation through a
    :class:`~repro.network.tiers.TierMap` — normally discovered at
    :meth:`bind` time from the medium's ``tier_map`` attribute, so one
    engine profile serves every tiered scenario:

    * ``tx_time_for``: the origin serializes at its *home* class's member
      rate (the 1 Mbps satellite uplink really throttles satellite-homed
      senders);
    * ``delivery_delay_for``: relays re-serialize at the pair's class rate
      (descending deliveries use the faster ``reverse_bps`` when set), plus
      one extra re-serialization when the delivery crosses tiers — the
      gateway forwarding onto the other tier's channel — plus the class's
      fixed propagation delay (two tiers' worth for gateway-bridged pairs,
      e.g. a 500 ms round trip over a 250 ms satellite hop each way).

    Without a bound map (plain media, the degenerate single-tier collapse)
    the ``fallback`` class prices everything — by default the ``ground``
    preset.
    """

    def __init__(
        self,
        tier_map: Optional[object] = None,
        *,
        per_hop_overhead_s: float = 0.001,
        fallback: Optional[object] = None,
        propagation_m_per_s: float = _C,
    ) -> None:
        from ..network.tiers import LINK_CLASSES, LinkClass

        if per_hop_overhead_s < 0:
            raise ParameterError("per-hop overhead cannot be negative")
        if propagation_m_per_s <= 0:
            raise ParameterError("propagation speed must be positive")
        if fallback is None:
            fallback = LINK_CLASSES["ground"]
        if not isinstance(fallback, LinkClass):
            raise ParameterError("fallback must be a LinkClass")
        self.tier_map = tier_map
        self.per_hop_overhead_s = per_hop_overhead_s
        self.fallback = fallback
        self.propagation_m_per_s = propagation_m_per_s
        # An explicitly supplied map must survive bind(); a discovered one
        # is rebound per executor so the profile can be reused across runs.
        self._explicit = tier_map is not None

    def bind(self, medium: object) -> None:
        if not self._explicit:
            self.tier_map = getattr(medium, "tier_map", None)

    def tx_time_s(self, bits: int) -> float:
        return bits / self.fallback.bitrate_bps

    def tx_time_for(self, bits: int, sender: str) -> float:
        if self.tier_map is None:
            return self.tx_time_s(bits)
        return bits / self.tier_map.home_class(sender).bitrate_bps

    def delivery_delay_s(self, bits: int, hops: int, distance_m: float) -> float:
        relays = max(1, hops) - 1
        return (
            relays * (bits / self.fallback.bitrate_bps + self.per_hop_overhead_s)
            + self.fallback.propagation_delay_s
            + distance_m / self.propagation_m_per_s
        )

    def delivery_delay_for(
        self, bits: int, hops: int, distance_m: float, sender: str, receiver: str
    ) -> float:
        if self.tier_map is None:
            return self.delivery_delay_s(bits, hops, distance_m)
        rate, propagation, cross = self.tier_map.latency_terms(sender, receiver)
        # A cross-tier delivery pays one extra serialization at the bridging
        # class's rate even on a direct link: the gateway (or the origin's
        # uplink terminal) forwards the copy onto the other tier's channel.
        reserializations = max(1, hops) - 1 + (1 if cross else 0)
        return (
            reserializations * (bits / rate + self.per_hop_overhead_s)
            + propagation
            + distance_m / self.propagation_m_per_s
        )

    def describe(self) -> str:
        if self.tier_map is None:
            return f"tiered(unbound, fallback={self.fallback.name})"
        return f"tiered({self.tier_map.describe()})"
