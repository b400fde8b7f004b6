"""Multi-tier link classes and Gilbert–Elliott burst loss.

The flat broadcast domain and the 2-D radio field both assume one *kind* of
link.  Real MANET deployments are tiered: a dense ground segment, a sparse
aerial relay tier, and (for the delay-tolerant extreme) a satellite relay —
each with its own bitrate, propagation delay and loss behaviour.  This module
supplies the descriptors and link models for such topologies:

* :class:`LinkClass` — one kind of link: per-direction bitrate, a fixed
  propagation delay and a loss model (an i.i.d. float or a
  :class:`GilbertElliott` burst-loss parameter set);
* :class:`GilbertElliott` / :class:`GilbertElliottLink` — the classic
  two-state (good/bad) Markov burst-loss channel, one deterministic chain per
  directed link, seeded from the medium's named RNG children;
* :class:`TierMap` / :class:`TierConfig` — node-to-tier assignment with
  *gateway* nodes homed in one tier but participating in others; floods
  cross tiers only through gateways;
* :class:`TieredLink` — the :class:`~repro.network.medium.LinkModel` gluing
  the above together: reachability from shared tiers, loss from the link
  class of the pair.

Determinism: chain randomness comes from a *named* child of the medium's RNG
(``links``), forked per directed link, so attaching burst-loss chains never
perturbs the medium's own loss draws — the degenerate configurations stay
bit-identical to the historic uniform-loss paths — and chain state survives
membership churn (detaching a node does not reset its links' chains).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..exceptions import NetworkError, ParameterError
from ..fields import Decl, alias, converter, fields_spec, param, settle
from ..mathutils.rand import DeterministicRNG
from .medium import LinkModel

__all__ = [
    "GilbertElliott",
    "GilbertElliottLink",
    "LinkClass",
    "LINK_CLASSES",
    "TierConfig",
    "TierMap",
    "TieredLink",
]


# ------------------------------------------------------------ Gilbert–Elliott
@dataclass(frozen=True)
class GilbertElliott:
    """Two-state burst-loss channel parameters.

    The chain has a *good* state (per-copy loss ``loss_good``) and a *bad*
    state (``loss_bad``).  Each physical copy advances the chain one step:
    from good it enters bad with probability ``p_enter_bad``; once bad it
    stays for a geometric number of copies with mean ``burst_length`` (the
    exit probability is ``1 / burst_length``).

    ``burst_length == 1`` is the memoryless boundary — bad spells last a
    single copy, so the chain carries no correlation and the model degrades
    to i.i.d. draws at the stationary loss rate (:attr:`iid_loss`), letting
    the medium use its existing uniform-loss path bit-for-bit.  The same
    holds when ``p_enter_bad == 0`` (never leaves good) or when the two
    states share one loss value.
    """

    loss_good: float = param(0.0, ge=0.0, lt=1.0, to_float=True)
    loss_bad: float = param(1.0, ge=0.0, le=1.0, to_float=True)
    p_enter_bad: float = param(0.0, ge=0.0, lt=1.0, to_float=True)
    burst_length: float = param(5.0, ge=1.0, to_float=True)

    __post_init__ = settle

    @classmethod
    def iid(cls, loss: float) -> "GilbertElliott":
        """The degenerate single-state case: the existing i.i.d. loss knob."""
        return cls(loss_good=loss, loss_bad=loss, p_enter_bad=0.0, burst_length=1.0)

    @classmethod
    def from_loss_rate(
        cls,
        loss: float,
        burst_length: float,
        *,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> "GilbertElliott":
        """Parameters hitting a long-run ``loss`` rate with the given bursts.

        Solves the stationary balance for ``p_enter_bad`` so that the mean
        per-copy loss equals ``loss`` while bad spells average
        ``burst_length`` copies.
        """
        if loss_bad <= loss_good:
            raise ParameterError("loss_bad must exceed loss_good for a burst model")
        if not loss_good <= loss <= loss_bad:
            raise ParameterError("target loss must lie between loss_good and loss_bad")
        bad_fraction = (loss - loss_good) / (loss_bad - loss_good)
        if bad_fraction >= 1.0:
            raise ParameterError("target loss pins the chain in the bad state")
        p_exit = 1.0 / burst_length
        # A p_enter_bad of 1 or more fails the field's declared range.
        p_enter = bad_fraction * p_exit / (1.0 - bad_fraction)
        return cls(
            loss_good=loss_good,
            loss_bad=loss_bad,
            p_enter_bad=p_enter,
            burst_length=burst_length,
        )

    @property
    def p_exit_bad(self) -> float:
        """Per-copy probability of leaving the bad state."""
        return 1.0 / self.burst_length

    @property
    def is_iid(self) -> bool:
        """Whether the chain carries no burst correlation (see class docs)."""
        return (
            self.p_enter_bad == 0.0
            or self.loss_good == self.loss_bad
            or self.burst_length == 1.0
        )

    @property
    def bad_fraction(self) -> float:
        """Stationary probability of the bad state."""
        if self.p_enter_bad == 0.0:
            return 0.0
        return self.p_enter_bad / (self.p_enter_bad + self.p_exit_bad)

    @property
    def iid_loss(self) -> float:
        """The stationary mean per-copy loss (the i.i.d. equivalent rate)."""
        pi = self.bad_fraction
        return pi * self.loss_bad + (1.0 - pi) * self.loss_good

    def describe(self) -> str:
        if self.is_iid:
            return f"ge-iid(loss={self.iid_loss:g})"
        return (
            f"ge(good={self.loss_good:g}, bad={self.loss_bad:g}, "
            f"enter={self.p_enter_bad:g}, burst={self.burst_length:g})"
        )


class _Chain:
    """One directed link's live two-state chain (good=False / bad=True)."""

    __slots__ = ("params", "_rng", "bad")

    def __init__(self, params: GilbertElliott, rng: DeterministicRNG) -> None:
        self.params = params
        self._rng = rng
        self.bad = False

    def step(self) -> float:
        """Advance one copy and return the loss probability it sees.

        Exactly one RNG draw per copy, whatever the state — the chain's
        stream position is a pure function of how many copies crossed the
        link, so runs with identical traffic replay identical states.
        """
        draw = self._rng.randbelow(1 << 53) / float(1 << 53)
        if self.bad:
            if draw < self.params.p_exit_bad:
                self.bad = False
        elif draw < self.params.p_enter_bad:
            self.bad = True
        return self.params.loss_bad if self.bad else self.params.loss_good


class _ChainStore:
    """Lazily-created per-directed-link chains over one bound RNG.

    Chains are keyed by ``(sender, receiver)`` and forked from a *named*
    child of the store's RNG, so the set of links exercised never perturbs
    any other stream and chain state persists across membership churn.
    """

    def __init__(self, rng: Optional[DeterministicRNG] = None) -> None:
        self._rng = rng
        self._chains: Dict[Tuple[str, str], _Chain] = {}

    def bind(self, rng: DeterministicRNG) -> None:
        # `is None`: an explicitly supplied RNG must survive the medium's
        # own bind call (direct construction in tests, shared stores).
        if self._rng is None:
            self._rng = rng

    def step(self, params: GilbertElliott, sender: str, receiver: str) -> float:
        key = (sender, receiver)
        chain = self._chains.get(key)
        if chain is None:
            if self._rng is None:
                raise NetworkError(
                    "burst-loss chains need randomness: attach the link model "
                    "to a medium (which binds its 'links' RNG child) or pass "
                    "an rng explicitly"
                )
            chain = _Chain(params, self._rng.fork(f"ge/{sender}->{receiver}"))
            self._chains[key] = chain
        return chain.step()

    def states(self) -> Dict[Tuple[str, str], str]:
        """Snapshot of every live chain's state (test/debug hook)."""
        return {
            key: ("bad" if chain.bad else "good")
            for key, chain in sorted(self._chains.items())
        }


class GilbertElliottLink(LinkModel):
    """Burst loss on every directed link of an (optionally wrapped) model.

    One independent :class:`GilbertElliott` chain per directed link, seeded
    deterministically from the medium's ``links`` RNG child.  With an
    ``inner`` link model (e.g. a :class:`~repro.mobility.radio.RadioLink`),
    reachability comes from the inner model and the two loss processes
    compound; without one the ether is fully connected and the chain is the
    only loss source.

    Degenerate parameters (:attr:`GilbertElliott.is_iid`) never create
    chains and never draw randomness — the model is then exactly the
    constant-probability link the medium already knows how to drive.
    """

    def __init__(
        self,
        params: GilbertElliott,
        inner: Optional[LinkModel] = None,
        *,
        rng: Optional[DeterministicRNG] = None,
    ) -> None:
        self.params = params
        self.inner = inner
        self._chains = _ChainStore(rng)

    def bind(self, rng: DeterministicRNG) -> None:
        self._chains.bind(rng)
        if self.inner is not None:
            self.inner.bind(rng.fork("inner"))

    def reachable(self, sender: str, receiver: str) -> bool:
        if self.inner is not None:
            return self.inner.reachable(sender, receiver)
        return True

    def loss_probability(self, sender: str, receiver: str) -> float:
        """Stateful: each call is one physical copy advancing the chain."""
        if self.params.is_iid:
            burst = self.params.iid_loss
        else:
            burst = self._chains.step(self.params, sender, receiver)
        if self.inner is None:
            return burst
        inner = self.inner.loss_probability(sender, receiver)
        # Independent loss processes compound: survive both or lose the copy.
        return 1.0 - (1.0 - burst) * (1.0 - inner)

    def chain_states(self) -> Dict[Tuple[str, str], str]:
        """Per-directed-link chain states (test/debug hook)."""
        return self._chains.states()

    def describe(self) -> str:
        if self.inner is not None:
            return f"{self.params.describe()} over {self.inner.describe()}"
        return self.params.describe()


# ----------------------------------------------------------------- link class
@dataclass(frozen=True)
class LinkClass:
    """One kind of link: rates, propagation and loss, shared by a tier.

    ``bitrate_bps`` is the rate an ordinary member achieves transmitting on
    this link class (the *uplink* on asymmetric classes); ``reverse_bps``,
    when set, is the faster rate of deliveries descending toward lower tiers
    (the satellite downlink).  ``loss`` is either an i.i.d. per-copy float
    or a :class:`GilbertElliott` parameter set.
    """

    name: str
    bitrate_bps: float = param(gt=0.0)
    reverse_bps: Optional[float] = param(None, gt=0.0)
    propagation_delay_s: float = param(0.0, ge=0.0)
    loss: Union[float, GilbertElliott] = param(0.0, ge=0.0, lt=1.0, to_float=True)

    __post_init__ = settle

    def rate_bps(self, *, descending: bool = False) -> float:
        """The serialization rate for one delivery direction."""
        if descending and self.reverse_bps is not None:
            return self.reverse_bps
        return self.bitrate_bps

    @property
    def iid_loss(self) -> Optional[float]:
        """The constant loss rate, or ``None`` when genuinely bursty."""
        if isinstance(self.loss, GilbertElliott):
            return self.loss.iid_loss if self.loss.is_iid else None
        return self.loss

    def describe(self) -> str:
        loss = self.loss.describe() if isinstance(self.loss, GilbertElliott) else f"{self.loss:g}"
        reverse = f"/{self.reverse_bps:g}" if self.reverse_bps is not None else ""
        return (
            f"{self.name}({self.bitrate_bps:g}{reverse} bps, "
            f"{self.propagation_delay_s * 1000.0:g} ms, loss={loss})"
        )


#: Named presets for the common tiers.  The satellite classes carry the
#: asymmetric 1 Mbps uplink / 10 Mbps downlink and a GEO-like 250 ms one-way
#: propagation; the ``-bursty`` variant adds correlated fades.
LINK_CLASSES: Dict[str, LinkClass] = {
    "ground": LinkClass("ground", bitrate_bps=2_000_000.0, propagation_delay_s=0.001),
    "aerial": LinkClass("aerial", bitrate_bps=1_000_000.0, propagation_delay_s=0.02),
    "satellite": LinkClass(
        "satellite",
        bitrate_bps=1_000_000.0,
        reverse_bps=10_000_000.0,
        propagation_delay_s=0.25,
    ),
    "satellite-bursty": LinkClass(
        "satellite-bursty",
        bitrate_bps=1_000_000.0,
        reverse_bps=10_000_000.0,
        propagation_delay_s=0.25,
        loss=GilbertElliott.from_loss_rate(0.08, 5.0),
    ),
}


_LOSS_RATE = converter(float, "loss", Decl(ge=0.0, lt=1.0, to_float=True))
_BURST_LENGTH = converter(float, "burst_length", Decl(ge=1.0, to_float=True))


def _burst_shorthand(spec: object) -> object:
    """``{"loss": rate, "burst_length": mean}`` via :meth:`GilbertElliott.from_loss_rate`."""
    if not isinstance(spec, Mapping) or "loss" not in spec:
        return NotImplemented
    unknown = sorted(set(spec) - {"loss", "burst_length"})
    if unknown:
        raise ParameterError(f"unknown gilbert-elliott shorthand keys: {unknown}")
    return GilbertElliott.from_loss_rate(
        _LOSS_RATE(spec["loss"]), _BURST_LENGTH(spec.get("burst_length", 5.0))
    )


def _preset(spec: object) -> object:
    if not isinstance(spec, str):
        return NotImplemented
    try:
        return LINK_CLASSES[spec]
    except KeyError:
        raise ParameterError(
            f"unknown link class preset {spec!r}; known: {sorted(LINK_CLASSES)}"
        ) from None


def _link_class_spec(cls: LinkClass) -> object:
    """A preset collapses to its name; any other class to its non-default fields."""
    if LINK_CLASSES.get(cls.name) == cls:
        return cls.name
    return fields_spec(cls, sparse=True)


alias(GilbertElliott, decode=_burst_shorthand)
alias(LinkClass, decode=_preset, encode=_link_class_spec)


# ------------------------------------------------------------------- tier map
class TierMap:
    """Resolved node-to-tier assignment plus per-pair overrides.

    Tiers are ordered (their *rank*); every node has one *home* tier and
    gateways additionally participate in others.  Two nodes share a link iff
    they share a tier (or have an explicit pair override) — floods therefore
    cross tiers only through gateway nodes.  Nodes the map has never heard
    of (churn arrivals) live in the default (first) tier.
    """

    def __init__(
        self,
        classes: Mapping[str, LinkClass],
        home: Mapping[str, str],
        *,
        extra: Optional[Mapping[str, Tuple[str, ...]]] = None,
        overrides: Optional[Mapping[Tuple[str, str], LinkClass]] = None,
    ) -> None:
        if not classes:
            raise ParameterError("a tier map needs at least one tier")
        self.classes: Dict[str, LinkClass] = dict(classes)
        self.rank: Dict[str, int] = {name: i for i, name in enumerate(self.classes)}
        self.default_tier = next(iter(self.classes))
        self.home: Dict[str, str] = dict(home)
        self.extra: Dict[str, Tuple[str, ...]] = dict(extra or {})
        # Overrides apply to the unordered pair: store both orientations.
        self.overrides: Dict[Tuple[str, str], LinkClass] = {}
        for (a, b), cls in (overrides or {}).items():
            self.overrides[(a, b)] = cls
            self.overrides[(b, a)] = cls
        for node, tier in self.home.items():
            if tier not in self.classes:
                raise ParameterError(f"node {node!r} homed in unknown tier {tier!r}")
        for node, tiers in self.extra.items():
            for tier in tiers:
                if tier not in self.classes:
                    raise ParameterError(
                        f"gateway {node!r} bridges unknown tier {tier!r}"
                    )

    # ---------------------------------------------------------- membership
    def home_tier(self, node: str) -> str:
        """The node's home tier (default tier for unknown/churn nodes)."""
        return self.home.get(node, self.default_tier)

    def tiers_of(self, node: str) -> Tuple[str, ...]:
        """Every tier the node participates in, home first."""
        return (self.home_tier(node),) + self.extra.get(node, ())

    def is_gateway(self, node: str) -> bool:
        return len(self.tiers_of(node)) > 1

    def gateways(self) -> List[str]:
        """Every multi-homed node, sorted."""
        return sorted(node for node in self.extra if self.extra[node])

    def home_class(self, node: str) -> LinkClass:
        return self.classes[self.home_tier(node)]

    # --------------------------------------------------------------- links
    def link_class(self, a: str, b: str) -> Optional[LinkClass]:
        """The class of the direct ``a``–``b`` link, ``None`` if unlinked.

        Pair overrides win; otherwise the pair links over the first-listed
        (lowest-rank) tier both participate in.
        """
        override = self.overrides.get((a, b))
        if override is not None:
            return override
        shared = set(self.tiers_of(a)) & set(self.tiers_of(b))
        if not shared:
            return None
        tier = min(shared, key=self.rank.__getitem__)
        return self.classes[tier]

    def latency_terms(self, sender: str, receiver: str) -> Tuple[float, float, bool]:
        """``(rate_bps, propagation_s, cross_tier)`` for one delivery.

        Directly-linked pairs use their link class, with the descending rate
        when the sender's home tier outranks the receiver's.  Pairs with no
        shared tier (their copies travel through gateways) are charged at
        the *slower* of the two home classes with both propagation delays —
        the conservative bound the gateway path cannot beat.
        """
        descending = self.rank[self.home_tier(sender)] > self.rank[self.home_tier(receiver)]
        cls = self.link_class(sender, receiver)
        if cls is not None:
            cross = self.home_tier(sender) != self.home_tier(receiver)
            return cls.rate_bps(descending=descending), cls.propagation_delay_s, cross
        ca = self.home_class(sender)
        cb = self.home_class(receiver)
        rate = min(ca.rate_bps(descending=descending), cb.rate_bps(descending=descending))
        return rate, ca.propagation_delay_s + cb.propagation_delay_s, True

    def describe(self) -> str:
        tiers = ", ".join(
            f"{name}[{sum(1 for t in self.home.values() if t == name)}]"
            for name in self.classes
        )
        return f"tiers({tiers}; gateways={len(self.gateways())})"


class TieredLink(LinkModel):
    """The :class:`~repro.network.medium.LinkModel` over a :class:`TierMap`.

    Reachability: the pair shares a tier (or has an override).  Loss: the
    link class's knob — a constant, or one :class:`GilbertElliott` chain per
    directed link (seeded from the medium's ``links`` RNG child; degenerate
    parameter sets never draw randomness).
    """

    def __init__(
        self, tier_map: TierMap, *, rng: Optional[DeterministicRNG] = None
    ) -> None:
        self.tier_map = tier_map
        self._chains = _ChainStore(rng)

    def bind(self, rng: DeterministicRNG) -> None:
        self._chains.bind(rng)

    def reachable(self, sender: str, receiver: str) -> bool:
        if sender == receiver:
            return False
        return self.tier_map.link_class(sender, receiver) is not None

    def loss_probability(self, sender: str, receiver: str) -> float:
        """Stateful for bursty classes: each call is one physical copy."""
        cls = self.tier_map.link_class(sender, receiver)
        if cls is None:
            return 1.0
        if isinstance(cls.loss, GilbertElliott):
            if cls.loss.is_iid:
                return cls.loss.iid_loss
            return self._chains.step(cls.loss, sender, receiver)
        return cls.loss

    def chain_states(self) -> Dict[Tuple[str, str], str]:
        """Per-directed-link chain states (test/debug hook)."""
        return self._chains.states()

    def describe(self) -> str:
        return self.tier_map.describe()


# ---------------------------------------------------------------- tier config
@dataclass(frozen=True)
class TierConfig:
    """Declarative, spec-serializable tier layout for a scenario.

    Attributes
    ----------
    tiers:
        Ordered ``(tier_name, link_class)`` pairs — a mapping, or a sequence
        of pairs; classes may be preset names, field dicts or
        :class:`LinkClass` instances.  The first tier is the *default*: it
        absorbs every node not explicitly placed elsewhere (including churn
        arrivals).
    members:
        Per-tier node counts for the non-default tiers (``{tier: count}``).
        Assignment is deterministic in universe order: non-default tiers are
        filled from the *end* of the member list (the controller,
        ``member-000``, always stays in the default tier), in listed tier
        order.
    gateways:
        ``{"tierA:tierB": count}`` — how many nodes homed in ``tierA``
        additionally participate in ``tierB``.  Chosen as the *first*
        ``count`` nodes assigned to ``tierA``: when ``tierA`` is the default
        tier that starts with the controller, whom schedule churn never
        removes, so the bridge survives partisan bursts (drop a gateway
        explicitly — an override or a leave event — to study bridge loss).
    overrides:
        ``{"nodeA|nodeB": link_class}`` explicit per-pair classes.
    max_hops:
        Flood TTL on the resulting :class:`~repro.mobility.tiered.TieredMedium`.
    loss_floor:
        Floor applied to every *constant* class loss (the campaign ``loss``
        axis folds in here); Gilbert–Elliott classes already model loss and
        are left alone.
    """

    tiers: Tuple[Tuple[str, LinkClass], ...] = param(shorthand=True)
    members: Tuple[Tuple[str, int], ...] = param((), keys="tier", ge=1)
    gateways: Tuple[Tuple[str, str, int], ...] = param((), keys="tierA:tierB", ge=1)
    overrides: Tuple[Tuple[str, str, LinkClass], ...] = param((), keys="nodeA|nodeB")
    max_hops: int = param(4, ge=1)
    loss_floor: float = param(0.0, ge=0.0, lt=1.0)

    def __post_init__(self) -> None:
        settle(self)
        names = [name for name, _ in self.tiers]
        if not names:
            raise ParameterError("a tier config needs at least one tier")
        if len(set(names)) != len(names):
            raise ParameterError(f"tier names must be unique, got {names}")
        for tier, _ in self.members:
            if tier not in names:
                raise ParameterError(f"members references unknown tier {tier!r}")
            if tier == names[0]:
                raise ParameterError(
                    f"the default tier {tier!r} takes the remaining members; "
                    "size the others instead"
                )
        for home, bridged, _ in self.gateways:
            if home not in names or bridged not in names:
                raise ParameterError(f"gateway {home}:{bridged} references an unknown tier")
            if home == bridged:
                raise ParameterError("a gateway must bridge two distinct tiers")
        if self.loss_floor > 0.0:
            floored = tuple(
                (name, self._floor_class(cls)) for name, cls in self.tiers
            )
            object.__setattr__(self, "tiers", floored)

    def _floor_class(self, cls: LinkClass) -> LinkClass:
        if isinstance(cls.loss, GilbertElliott) or cls.loss >= self.loss_floor:
            return cls
        return dataclasses.replace(cls, loss=self.loss_floor)

    # ------------------------------------------------------------ building
    @property
    def degenerate_loss(self) -> Optional[float]:
        """The single uniform loss knob this config collapses to, or ``None``.

        A one-tier config with no gateways or overrides and a constant (or
        i.i.d. Gilbert–Elliott) loss *is* the classic flat broadcast domain;
        the runner then builds the historic medium so such scenarios stay
        bit-identical to the pre-tier paths.
        """
        if len(self.tiers) != 1 or self.gateways or self.overrides:
            return None
        return self.tiers[0][1].iid_loss

    def build_map(self, names: Sequence[str]) -> TierMap:
        """Assign ``names`` (universe order) to tiers; see class docs."""
        classes = dict(self.tiers)
        pool = list(names)
        home: Dict[str, str] = {}
        assigned: Dict[str, List[str]] = {tier: [] for tier in classes}
        for tier, count in self.members:
            if count >= len(pool):
                raise ParameterError(
                    f"tier {tier!r} wants {count} members but only "
                    f"{len(pool)} remain (the default tier cannot be empty)"
                )
            taken = pool[-count:]
            del pool[-count:]
            for node in taken:
                home[node] = tier
            assigned[tier] = taken
        default = self.tiers[0][0]
        for node in pool:
            home[node] = default
        assigned[default] = list(pool)
        extra: Dict[str, Tuple[str, ...]] = {}
        for home_tier, bridged, count in self.gateways:
            candidates = assigned[home_tier]
            if count > len(candidates):
                raise ParameterError(
                    f"gateway {home_tier}:{bridged} wants {count} nodes but "
                    f"tier {home_tier!r} only has {len(candidates)}"
                )
            for node in candidates[:count]:
                extra[node] = extra.get(node, ()) + (bridged,)
        overrides = {(a, b): cls for a, b, cls in self.overrides}
        return TierMap(classes, home, extra=extra, overrides=overrides)

    def describe(self) -> str:
        tiers = ", ".join(name for name, _ in self.tiers)
        return f"tiers[{tiers}]"


alias(TierConfig, encode=lambda config: fields_spec(config, sparse=True))
