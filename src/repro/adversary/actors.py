"""Attacker actors: the active half of the adversary subsystem.

Every attacker is an :class:`AttackerActor` living *next to* the legitimate
:class:`~repro.engine.machine.PartyMachine`\\ s on the same run: it observes
every message crossing the medium through the medium's tap hook
(:meth:`~repro.network.medium.BroadcastMedium.add_tap`), and — when active —
asks the :class:`~repro.engine.executor.MachineExecutor` to drop, modify,
delay or race messages on its behalf.  Attacker reactions become ordinary
kernel events: a forged copy is scheduled as a delivery *ahead of* the
legitimate same-instant copy (the attacker wins the race), so the executor's
duplicate filter then discards the honest original exactly as a real
first-copy-wins receiver would.

The library ships five models:

* :class:`Eavesdropper` — purely passive.  Records every transmitted value,
  then answers :meth:`knows_key` by attempting key recovery from what it saw (direct observation of the key on the wire, plus
  anything derivable from long-term keys stolen by a :class:`Compromiser`).
  Attaching one to a run must not change a single bit of it: the actor has
  its own :class:`~repro.network.node.Node` whose recorder absorbs the
  overhearing cost, its own RNG stream, and no write access to anything.
* :class:`Injector` — forges a copy of an observed keying message (same
  sender, same round label, flipped keying value) and races it against the
  original.  Unauthenticated BD accepts the forgery and silently derives
  inconsistent keys; authenticated protocols reject it.
* :class:`Replayer` — stores keying messages and, when the same
  ``(sender, round)`` slot recurs in a *later* protocol step, races the stale
  recording against the fresh transmission, under the fresh round label.
* :class:`ManInTheMiddle` — intercepts messages in flight: per round label it
  replaces the keying value (``mode="modify"``), suppresses delivery
  (``mode="drop"``), or delays it (``mode="delay"``).  The physical
  transmission still happens — senders and listeners are charged exactly
  what the air interface cost them — only what the receivers *decode*
  changes.
* :class:`Compromiser` — an eavesdropper that additionally steals one
  party's **long-term** private key at a configured step.  The protocols'
  keys are built from ephemeral exponents, so the stolen key must not help
  recover any past or future group key (forward secrecy); the
  ``implicit-key-auth`` oracle checks exactly that.

:class:`AdversarySuite` bundles actors behind the single interface the
executor and the scenario runner talk to, with one shared
:class:`AttackStats` ledger.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..mathutils.rand import DeterministicRNG
from ..network.medium import BroadcastMedium, DeliveryReceipt
from ..network.message import Message, MessagePart
from ..network.node import Node
from ..pki.identity import Identity

__all__ = [
    "AttackStats",
    "Interception",
    "AttackerActor",
    "Eavesdropper",
    "Injector",
    "Replayer",
    "ManInTheMiddle",
    "Compromiser",
    "AdversarySuite",
]


@dataclass
class AttackStats:
    """Shared action ledger for one adversary suite (all actors count here)."""

    #: messages seen crossing the medium (passive, free of side effects)
    observed: int = 0
    #: forged copies raced against legitimate ones
    injected: int = 0
    #: stale recordings raced against fresh transmissions
    replayed: int = 0
    #: in-flight payload substitutions
    modified: int = 0
    #: deliveries suppressed (jamming)
    dropped: int = 0
    #: deliveries postponed
    delayed: int = 0
    #: long-term keys stolen
    compromised: int = 0

    @property
    def tampering_actions(self) -> int:
        """Message-level attacks a protocol could conceivably detect."""
        return self.injected + self.replayed + self.modified + self.dropped + self.delayed

    @property
    def active_actions(self) -> int:
        """Every non-passive action, including undetectable key compromise."""
        return self.tampering_actions + self.compromised


@dataclass(frozen=True)
class Interception:
    """What a man-in-the-middle wants done with one in-flight message.

    Exactly one effect applies: ``drop`` suppresses every delivery,
    ``replacement`` substitutes the decoded payload, ``delay_s`` postpones
    the deliveries.  The physical transmission has already happened by the
    time the executor consults the interception, so energy ledgers keep the
    true on-air story.
    """

    drop: bool = False
    replacement: Optional[Message] = None
    delay_s: float = 0.0


def _forged_copy(
    message: Message,
    target_parts: Sequence[str],
    mutate: Callable[[int], int],
) -> Optional[Message]:
    """A copy of ``message`` with its first matching integer part mutated.

    Returns ``None`` when the message carries none of the targeted parts —
    the attack simply does not apply to it.  The forged part keeps the
    original's wire size: flipping a value is free, padding is not.
    """
    chosen: Optional[str] = None
    for part in message.parts:
        if part.name in target_parts and isinstance(part.value, int):
            chosen = part.name
            break
    if chosen is None:
        return None
    parts = tuple(
        part
        if part.name != chosen
        else MessagePart(name=part.name, value=mutate(int(part.value)), bits=part.bits)
        for part in message.parts
    )
    return Message(
        sender=message.sender,
        round_label=message.round_label,
        parts=parts,
        recipients=message.recipients,
    )


class AttackerActor:
    """Base class for one attacker's view of the runs it haunts.

    Actors never touch the medium or the kernel directly: they *observe*
    (via the suite's medium tap), *queue* forged messages for the executor to
    race, and *answer* interception questions.  All of their randomness comes
    from their own named RNG child, so attaching an actor can never perturb a
    legitimate party's draws.
    """

    kind = "attacker"

    def __init__(self, name: str, rng: DeterministicRNG, *, budget: int = 8) -> None:
        self.name = name
        self.rng = rng
        #: the attacker's own radio: its overhearing/transmission costs land
        #: here, never on a legitimate member's ledger
        self.node = Node(Identity(name))
        #: shared ledger, rebound by the suite so all actors count together
        self.stats = AttackStats()
        self.budget = budget
        self.step = 0
        self.active = True
        self._step_actions = 0
        self._queued: List[Message] = []

    # ---------------------------------------------------------------- lifecycle
    def begin_step(self, index: int, kind: str, active: bool) -> None:
        """A new scenario step starts; reset the per-step action budget."""
        self.step = index
        self.active = active
        self._step_actions = 0

    def end_step(self, state: Optional[object]) -> None:
        """The step finished; ``state`` is the post-step group state (or None)."""

    # ------------------------------------------------------------------ hooks
    def observe(self, message: Message, receipt: DeliveryReceipt) -> None:
        """See one message cross the medium (always called, even when passive)."""

    def intercept(self, message: Message) -> Optional[Interception]:
        """Decide the fate of one in-flight message (``None`` = hands off)."""
        return None

    def drain(self) -> List[Message]:
        """Hand the executor the forged messages queued since the last drain."""
        queued, self._queued = self._queued, []
        return queued

    def knows_key(self, key: int) -> bool:
        """Whether this actor can produce the given group key."""
        return False

    # ---------------------------------------------------------------- helpers
    def _spend(self) -> bool:
        """Consume one unit of the per-step action budget (False = exhausted)."""
        if not self.active or self._step_actions >= self.budget:
            return False
        self._step_actions += 1
        return True

    def _mutate_value(self, value: int) -> int:
        """A deterministic, guaranteed-different forgery of one keying value."""
        return value ^ (1 + self.rng.randbelow(1 << 16))

    def describe(self) -> str:
        """One-line summary used in reports."""
        return self.kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"


class Eavesdropper(AttackerActor):
    """A passive wiretap: records every value it hears, changes nothing.

    Key-recovery attempts are mechanical, not rhetorical: the oracle layer
    asks :meth:`knows_key` for the concrete agreed key, and the eavesdropper
    answers from (a) every value it ever saw on the wire — catching any
    protocol careless enough to broadcast key material in the clear — and
    (b) keys derivable from long-term secrets a :class:`Compromiser` stole
    (none, for every protocol in this library: group keys are built from
    ephemeral exponents that never travel).
    """

    kind = "eavesdropper"

    def __init__(self, name: str, rng: DeterministicRNG, *, budget: int = 8) -> None:
        super().__init__(name, rng, budget=budget)
        self.seen_values: Set[int] = set()

    def observe(self, message: Message, receipt: DeliveryReceipt) -> None:
        # The tap is where the attacker's radio listens: the overhearing cost
        # is charged to the attacker's own node, never to a group member.
        self.node.recorder.record_rx(message.wire_bits)
        for part in message.parts:
            if isinstance(part.value, int):
                self.seen_values.add(part.value)

    def knows_key(self, key: int) -> bool:
        return key in self.seen_values or key in self.derivable_keys()

    def derivable_keys(self) -> Set[int]:
        """Keys computable from the attacker's accumulated knowledge."""
        return set()


class Injector(Eavesdropper):
    """Forges keying messages and races them against the originals.

    On observing a message that carries a targeted keying part (``X`` by
    default), the injector queues a same-size copy with the value flipped,
    spoofing the original sender.  The executor delivers the forgery *first*
    within the same virtual instant, so honest receivers consume it and
    discard the genuine copy as a duplicate — the textbook active attack
    plain BD cannot survive and every authenticated variant must reject.
    """

    kind = "injector"

    def __init__(
        self,
        name: str,
        rng: DeterministicRNG,
        *,
        budget: int = 8,
        target_parts: Tuple[str, ...] = ("X",),
    ) -> None:
        super().__init__(name, rng, budget=budget)
        self.target_parts = target_parts
        self._forged_labels: Set[str] = set()

    def begin_step(self, index: int, kind: str, active: bool) -> None:
        super().begin_step(index, kind, active)
        self._forged_labels = set()

    def observe(self, message: Message, receipt: DeliveryReceipt) -> None:
        super().observe(message, receipt)
        if not self.active or message.round_label in self._forged_labels:
            return
        forged = _forged_copy(message, self.target_parts, self._mutate_value)
        if forged is None or not self._spend():
            return
        # One forgery per round label per step: enough to poison the round,
        # bounded enough to keep runs deterministic and readable.
        self._forged_labels.add(message.round_label)
        self.node.recorder.record_tx(forged.wire_bits)
        self.stats.injected += 1
        self._queued.append(forged)


#: a cluster epoch in a round label (``ct/<uid>.e<epoch>/``)
_EPOCH = re.compile(r"\.e\d+")


class Replayer(Eavesdropper):
    """Records keying messages and replays them into later protocol steps.

    A replay only fires when the same ``(sender, round label)`` slot comes up
    again in a *later* step — e.g. a re-executing baseline running
    ``bd-round1`` for every membership event, or repeated Leave re-keyings —
    and races the stale copy, relabelled with the fresh label, against the
    fresh one.  A cluster's round labels carry its epoch
    (``ct/<uid>.e<epoch>/``), which changes on every re-key, so the slot's
    label leaves the epoch out.
    """

    kind = "replayer"

    def __init__(
        self,
        name: str,
        rng: DeterministicRNG,
        *,
        budget: int = 8,
        target_parts: Tuple[str, ...] = ("X", "z"),
    ) -> None:
        super().__init__(name, rng, budget=budget)
        self.target_parts = target_parts
        self._recorded: Dict[Tuple[str, str], Tuple[int, Message]] = {}

    def observe(self, message: Message, receipt: DeliveryReceipt) -> None:
        super().observe(message, receipt)
        if not any(
            part.name in self.target_parts and isinstance(part.value, int)
            for part in message.parts
        ):
            return
        label = message.round_label
        slot = (message.sender.name, _EPOCH.sub("", label))
        stored = self._recorded.get(slot)
        if (
            stored is not None
            and stored[0] < self.step
            and self.active
            and self._spend()
        ):
            self.node.recorder.record_tx(stored[1].wire_bits)
            self.stats.replayed += 1
            self._queued.append(replace(stored[1], round_label=label))
        self._recorded[slot] = (self.step, message)


class ManInTheMiddle(AttackerActor):
    """Intercepts messages in flight: modify, drop, or delay.

    The first message of each round label carrying a targeted part is
    attacked once per step (per-step budget permitting); in ``modify`` mode
    receivers decode a flipped keying value, in ``drop`` mode they decode
    nothing (jamming — recovery is the protocol's timeout problem), in
    ``delay`` mode their copies arrive ``delay_s`` late.
    """

    kind = "man-in-the-middle"
    MODES = ("modify", "drop", "delay")

    def __init__(
        self,
        name: str,
        rng: DeterministicRNG,
        *,
        budget: int = 8,
        target_parts: Tuple[str, ...] = ("X",),
        mode: str = "modify",
        delay_s: float = 0.5,
    ) -> None:
        super().__init__(name, rng, budget=budget)
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.target_parts = target_parts
        self.mode = mode
        self.delay_s = delay_s
        self._hit_labels: Set[str] = set()

    def begin_step(self, index: int, kind: str, active: bool) -> None:
        super().begin_step(index, kind, active)
        self._hit_labels = set()

    def intercept(self, message: Message) -> Optional[Interception]:
        if not self.active or message.round_label in self._hit_labels:
            return None
        if self.mode == "modify":
            forged = _forged_copy(message, self.target_parts, self._mutate_value)
            if forged is None or not self._spend():
                return None
            self._hit_labels.add(message.round_label)
            self.stats.modified += 1
            return Interception(replacement=forged)
        if not any(
            part.name in self.target_parts and isinstance(part.value, int)
            for part in message.parts
        ):
            return None
        if not self._spend():
            return None
        self._hit_labels.add(message.round_label)
        if self.mode == "drop":
            self.stats.dropped += 1
            return Interception(drop=True)
        self.stats.delayed += 1
        return Interception(delay_s=self.delay_s)

    def describe(self) -> str:
        return f"{self.kind}({self.mode})"


class Compromiser(Eavesdropper):
    """An eavesdropper that steals a party's long-term key mid-scenario.

    At the end of step ``at_step`` it copies the target member's long-term
    private key (the named ``target``, or the first non-controller member
    present).  The theft is silent — no protocol can detect it — so it does
    not count as a tamper for the ``attack-detected`` oracle; what it *does*
    test is forward secrecy: the ``implicit-key-auth`` oracle keeps asking
    whether the attacker can now produce the group key, and for every
    protocol in this library the answer must stay no.
    """

    kind = "compromiser"

    def __init__(
        self,
        name: str,
        rng: DeterministicRNG,
        *,
        budget: int = 8,
        target: Optional[str] = None,
        at_step: int = 0,
    ) -> None:
        super().__init__(name, rng, budget=budget)
        self.target = target
        self.at_step = at_step
        #: member name -> stolen long-term private key object
        self.stolen: Dict[str, object] = {}

    def end_step(self, state: Optional[object]) -> None:
        if state is None or self.step < self.at_step or self.stolen:
            return
        parties = getattr(state, "parties", None)
        if not parties:
            return
        name = self.target
        if name is None or name not in parties:
            members = [identity.name for identity in state.members]
            name = members[1] if len(members) > 1 else members[0]
        self.stolen[name] = parties[name].private_key
        self.stats.compromised += 1

    def derivable_keys(self) -> Set[int]:
        # The honest attempt: a long-term GQ/signature key authenticates, it
        # does not encrypt — the group key is prod g^{r_i r_{i+1}} over
        # ephemeral exponents the attacker never sees.  There is nothing to
        # derive; a protocol that *did* wrap the group key under a long-term
        # key would surface here.
        return set()

    @property
    def compromised_parties(self) -> Set[str]:
        """Names of members whose long-term keys the attacker holds."""
        return set(self.stolen)

    def describe(self) -> str:
        target = self.target or "auto"
        return f"{self.kind}(target={target}, at={self.at_step})"


class AdversarySuite:
    """All configured attackers behind one executor/runner-facing interface.

    The suite attaches one tap per medium (idempotent), fans observations out
    to every actor, answers the executor's interception question with the
    first actor that wants the message, and collects queued forgeries.  One
    suite persists across every step of a scenario, which is what lets the
    replayer carry recordings from one protocol run into the next.
    """

    def __init__(self, actors: Sequence[AttackerActor], *, attack_from: int = 0) -> None:
        self.actors: List[AttackerActor] = list(actors)
        self.stats = AttackStats()
        for actor in self.actors:
            actor.stats = self.stats
        self.attack_from = attack_from
        self.step = 0
        self._tapped: Set[int] = set()

    # ---------------------------------------------------------------- wiring
    def attach(self, medium: BroadcastMedium) -> None:
        """Tap a medium (idempotent; the executor calls this on every run)."""
        if id(medium) in self._tapped:
            return
        self._tapped.add(id(medium))
        medium.add_tap(self._tap)

    def _tap(self, message: Message, receipt: DeliveryReceipt) -> None:
        self.stats.observed += 1
        for actor in self.actors:
            actor.observe(message, receipt)

    # ------------------------------------------------------------- lifecycle
    def begin_step(self, index: int, kind: str) -> None:
        """A scenario step starts: arm/disarm actors per the attack window."""
        self.step = index
        active = index >= self.attack_from
        for actor in self.actors:
            actor.begin_step(index, kind, active)

    def end_step(self, state: Optional[object]) -> None:
        """A scenario step finished (state is ``None`` after an abort)."""
        for actor in self.actors:
            actor.end_step(state)

    # ------------------------------------------------------ executor-facing
    def intercept(self, message: Message, now: float) -> Optional[Interception]:
        """First actor that wants the message decides its fate."""
        for actor in self.actors:
            decision = actor.intercept(message)
            if decision is not None:
                return decision
        return None

    def drain_injections(self, now: float) -> List[Message]:
        """Forged messages queued by the actors since the last transmission."""
        out: List[Message] = []
        for actor in self.actors:
            out.extend(actor.drain())
        return out

    # -------------------------------------------------------- oracle-facing
    def knows_key(self, key: Optional[int]) -> bool:
        """Whether any actor can produce the given group key."""
        if key is None:
            return False
        return any(actor.knows_key(key) for actor in self.actors)

    @property
    def compromised_parties(self) -> Set[str]:
        """Members whose long-term keys have been stolen."""
        names: Set[str] = set()
        for actor in self.actors:
            names |= getattr(actor, "compromised_parties", set())
        return names

    def describe(self) -> str:
        """One-line summary used in reports."""
        actors = "+".join(actor.describe() for actor in self.actors) or "none"
        window = f", from step {self.attack_from}" if self.attack_from else ""
        return f"{actors}{window}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AdversarySuite({self.describe()})"
