"""Shared infrastructure for the group key agreement protocols.

This module holds everything the proposed protocol (:mod:`repro.core.gka`),
its four dynamic protocols and the baselines have in common:

* :class:`SystemSetup` — the paper's Setup step: the PKG's GQ parameters, the
  Schnorr group ``(p, q, g)``, the hash ``H`` and the identity registry;
* :class:`PartyState` — one member's per-session state (its ephemeral
  exponent ``r_i``, GQ commitment ``tau_i``, keying material ``z_i``, private
  key, RNG, and the node that records its costs);
* :class:`GroupState` — the collective state that survives between dynamic
  membership events: the ring, the ``z`` table, the current group key
  and each member's :class:`PartyState`;
* :class:`ProtocolResult` — what a protocol run returns (keys per member,
  the new group state, the medium transcript);
* :class:`Protocol` — the strategy interface, with the enrollment loop of
  every flat establishment (:meth:`Protocol._flat_plan`);
* :func:`ring_plan` — the plan those establishments and every dynamic event
  of the proposed GKA end with: its result is the group on a ring, keyed by
  the ring's controller;
* the Burmester–Desmedt algebra: computing ``X_i`` values and the group key
  from them;
* the Burmester–Desmedt round machine, :class:`BDRoundMachine`: draw
  ``r_i``, broadcast ``z_i``, collect the z view (raising ``Early`` for a
  Round-2 copy that overtakes Round 1), broadcast ``X_i``, derive ``K``.  The
  proposed GKA, its Leave/Partition rekey and every BD baseline run it;
  each adds only its authentication layer.  :class:`GQRoundMachine` is the
  layer the proposed GKA and its rekey share: the batch-verified GQ
  signature over both rounds, with the controller transmitting last;
* :class:`EnvelopePairMachine` — the Join and Merge bystander, which only
  opens two envelopes sealed under the current group key.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..energy.accounting import CostRecorder
from ..engine.executor import EngineConfig, EngineStats, drive_plan
from ..engine.machine import Early, MachinePlan, Outbound, PartyMachine
from ..exceptions import ParameterError, ProtocolError
from ..groups.params import PAPER_GQ_SET, PAPER_SCHNORR_SET, get_gq_modulus, get_schnorr_group
from ..groups.schnorr import SchnorrGroup
from ..hashing.hashfuncs import HashFunction
from ..mathutils.memo import Memo
from ..mathutils.modular import product_mod
from ..mathutils.primes import generate_rsa_modulus, generate_schnorr_parameters
from ..mathutils.rand import DeterministicRNG
from ..mathutils.serialization import int_to_bytes
from ..network.events import MembershipEvent, MergeEvent, membership_after
from ..network.medium import BroadcastMedium
from ..network.message import Message, MessagePart, group_element_part, identity_part
from ..network.node import Node
from ..network.topology import RingTopology
from ..pki.identity import Identity, IdentityRegistry
from ..pki.pkg import PrivateKeyGenerator
from ..signatures.gq import GQParameters, GQPrivateKey, gq_commitment, gq_response
from ..symmetric.authenc import SymmetricEnvelope

__all__ = [
    "SystemSetup",
    "PartyState",
    "GroupState",
    "ProtocolResult",
    "Protocol",
    "ring_plan",
    "compute_bd_x_value",
    "compute_bd_key",
    "verify_x_product",
    "BDRoundMachine",
    "GQRoundMachine",
    "EnvelopePairMachine",
]


class SystemSetup:
    """The paper's Setup: PKG parameters, the GKA group, and the hash function.

    Construct either with explicit components or via the convenience
    constructors :meth:`from_param_sets` (named, precomputed-seed parameter
    sets — the normal path for tests and benchmarks) and :meth:`generate`
    (fresh parameters of requested sizes).
    """

    def __init__(
        self,
        group: SchnorrGroup,
        pkg: PrivateKeyGenerator,
        hash_function: Optional[HashFunction] = None,
    ) -> None:
        self.group = group
        self.pkg = pkg
        self.hash_function = hash_function or HashFunction(output_bits=160)

    # ---------------------------------------------------------- constructors
    @classmethod
    def from_param_sets(
        cls,
        schnorr_set: str = PAPER_SCHNORR_SET,
        gq_set: str = PAPER_GQ_SET,
        *,
        hash_bits: int = 160,
    ) -> "SystemSetup":
        """Build a setup from named parameter sets (deterministic and cached)."""
        hash_function = HashFunction(output_bits=hash_bits)
        group = get_schnorr_group(schnorr_set)
        pkg = PrivateKeyGenerator(get_gq_modulus(gq_set), hash_function)
        return cls(group=group, pkg=pkg, hash_function=hash_function)

    @classmethod
    def generate(
        cls,
        *,
        p_bits: int = 1024,
        q_bits: int = 160,
        modulus_bits: int = 1024,
        hash_bits: int = 160,
        seed: object = 0,
    ) -> "SystemSetup":
        """Generate fresh parameters of the requested sizes (paper defaults)."""
        rng = DeterministicRNG(seed, label="system-setup")
        hash_function = HashFunction(output_bits=hash_bits)
        p, q, g = generate_schnorr_parameters(p_bits, q_bits, rng.fork("schnorr"))
        group = SchnorrGroup(p=p, q=q, g=g)
        modulus = generate_rsa_modulus(modulus_bits, rng.fork("gq"))
        pkg = PrivateKeyGenerator(modulus, hash_function)
        return cls(group=group, pkg=pkg, hash_function=hash_function)

    # -------------------------------------------------------------- shortcuts
    @property
    def gq_params(self) -> GQParameters:
        """The public GQ parameters ``(n, e, H)``."""
        return self.pkg.params

    @property
    def registry(self) -> IdentityRegistry:
        """The identity registry used by the PKG."""
        return self.pkg.registry

    def enroll(self, identity: Identity) -> GQPrivateKey:
        """Register an identity and extract its GQ private key."""
        return self.pkg.register_and_extract(identity)

    def describe(self) -> str:
        """One-line summary for reports."""
        return (
            f"SystemSetup(group: {self.group.describe()}, "
            f"GQ modulus: {self.gq_params.modulus_bits} bits, "
            f"H output: {self.hash_function.output_bits} bits)"
        )


@dataclass
class PartyState:
    """Everything one group member holds during and between protocol runs."""

    identity: Identity
    private_key: GQPrivateKey
    rng: DeterministicRNG
    node: Node
    #: ephemeral DH exponent r_i (refreshed by the protocols as the paper dictates)
    r: Optional[int] = None
    #: keying material z_i = g^{r_i}
    z: Optional[int] = None
    #: GQ commitment secret tau_i and public commitment t_i = tau_i^e
    tau: Optional[int] = None
    t: Optional[int] = None
    #: the group key this member currently holds
    group_key: Optional[int] = None

    @property
    def recorder(self) -> CostRecorder:
        """The node's cost recorder (operations and bits)."""
        return self.node.recorder

    def require_ephemeral(self) -> None:
        """Raise unless the member has a current exponent and keying material."""
        if self.r is None or self.z is None:
            raise ProtocolError(
                f"{self.identity.name} has no ephemeral keying state; run the initial GKA first"
            )


@dataclass
class GroupState:
    """The collective state of an established group.

    This is what the dynamic protocols transform: the ring ordering, the
    publicly known ``z_i``/``t_i`` tables, the group key, and each member's
    private :class:`PartyState`.
    """

    setup: SystemSetup
    ring: RingTopology
    parties: Dict[str, PartyState]
    group_key: Optional[int] = None

    # ------------------------------------------------------------- accessors
    def party(self, identity: Identity) -> PartyState:
        """The state of one member."""
        try:
            return self.parties[identity.name]
        except KeyError:
            raise ParameterError(f"{identity.name!r} is not a member of this group") from None

    @property
    def members(self) -> List[Identity]:
        """Members in ring order."""
        return self.ring.members

    @property
    def size(self) -> int:
        """Group size ``n``."""
        return self.ring.size

    def z_table(self) -> Dict[str, int]:
        """Current publicly-known keying material ``z_i`` per member name."""
        return {name: state.z for name, state in self.parties.items() if state.z is not None}

    def keys_by_member(self) -> Dict[str, Optional[int]]:
        """The group key as held by each member (for agreement checks)."""
        return {name: state.group_key for name, state in self.parties.items()}

    def agreed_key(self) -> Optional[int]:
        """The group key if every member holds the same one, else ``None``.

        This is the single source of truth for the "what key did the group
        agree on" question; :attr:`ProtocolResult.group_key` and
        :attr:`~repro.core.session.GroupSession.group_key` both delegate here.
        """
        keys = set(self.keys_by_member().values())
        if len(keys) == 1:
            return next(iter(keys))
        return None

    def all_agree(self) -> bool:
        """Whether every member holds the same, non-null group key."""
        keys = list(self.keys_by_member().values())
        return bool(keys) and all(k is not None and k == keys[0] for k in keys)

    def recorders(self) -> Dict[str, CostRecorder]:
        """Each member's cost recorder."""
        return {name: state.recorder for name, state in self.parties.items()}

    def reset_costs(self) -> None:
        """Clear every member's recorder (used between experiment phases)."""
        for state in self.parties.values():
            state.node.reset_costs()


@dataclass
class ProtocolResult:
    """What a protocol run returns.

    ``sim_latency_s`` and ``timeouts`` are the virtual-time observables of
    the kernel-driven execution: how long the run took on the simulated
    radio medium (0.0 under the instant/synchronous driver) and how many
    round timeouts fired while losses were being recovered.
    """

    protocol: str
    state: GroupState
    medium: BroadcastMedium
    rounds: int
    #: virtual seconds from first broadcast to quiescence (0.0 in instant mode)
    sim_latency_s: float = 0.0
    #: machine-round timeouts fired during the run (loss recovery in virtual time)
    timeouts: int = 0

    @property
    def group_key(self) -> Optional[int]:
        """The agreed group key (``None`` if the members disagree)."""
        return self.state.agreed_key()

    def all_agree(self) -> bool:
        """Whether every member computed the same key."""
        return self.state.all_agree()

    def total_messages(self) -> int:
        """Number of messages placed on the medium during the run."""
        return self.medium.total_messages()


# ---------------------------------------------------------------------------
# Protocol strategy interface
# ---------------------------------------------------------------------------

class Protocol(abc.ABC):
    """Common strategy interface over every group-key-agreement protocol.

    The proposed protocol and all baselines expose the same entry points:

    * :meth:`build_machines` — decompose one run into per-party
      :class:`~repro.engine.machine.PartyMachine` round state machines (the
      reactive core every subclass implements);
    * :meth:`run` — establish a key among a member list from scratch, by
      stepping the machines on a virtual-time
      :class:`~repro.engine.kernel.EventKernel` to quiescence.  Without an
      ``engine`` profile this is the *instant* mode, bit-identical to the
      historical synchronous execution; with an
      :class:`~repro.engine.executor.EngineConfig` carrying a latency model,
      deliveries take virtual time and losses surface as round timeouts and
      retransmissions (see :mod:`repro.engine`);
    * :meth:`apply_event` — transform an established :class:`GroupState`
      under a :mod:`repro.network.events` membership event.

    Protocols that have no dynamic sub-protocols (every baseline) inherit the
    default :meth:`apply_event`, which re-executes :meth:`run` over the
    post-event membership — exactly the BD-re-execution semantics the paper's
    Tables 4 and 5 compare against.  The proposed protocol overrides it with
    its Join, Leave, Merge and Partition plans, and advertises that via
    :attr:`supported_events`.

    Protocols are selected by :attr:`name` through
    :mod:`repro.core.registry`, so runners, benchmarks and the
    :mod:`repro.sim` scenario engine never import concrete classes.
    """

    #: Registry name of the protocol (subclasses must set this).
    name: str = ""
    #: Membership-event kinds (``"join"``, ``"leave"``, ``"merge"``,
    #: ``"partition"``) this protocol handles natively, i.e. without a full
    #: re-execution of the initial GKA.
    supported_events: FrozenSet[str] = frozenset()

    def __init__(self, setup: "SystemSetup") -> None:
        self.setup = setup

    @abc.abstractmethod
    def build_machines(
        self,
        members: Sequence[Identity],
        *,
        medium: BroadcastMedium,
        seed: object = 0,
        **kwargs: object,
    ) -> MachinePlan:
        """Decompose one establishment run into per-party state machines.

        Implementations validate the member list, enroll/attach the parties
        (in ring order — machine list order *is* the deterministic
        same-instant transmission order) and return a
        :class:`~repro.engine.machine.MachinePlan` whose ``finish`` callback
        assembles the :class:`ProtocolResult` from the engine's statistics.
        """

    def _flat_plan(
        self,
        members: Sequence[Identity],
        medium: BroadcastMedium,
        seed: object,
        options: Mapping[str, object],
        rng_label: str,
        machine: Callable[[PartyState, RingTopology], PartyMachine],
    ) -> MachinePlan:
        """The plan of a flat establishment: one ``machine`` per member.

        Each member is enrolled with the PKG, gets a node on ``medium`` and
        an RNG stream forked from ``DeterministicRNG(seed, label=rng_label)``;
        the machines are listed in ring order, the controller first.
        ``options`` are the caller's unrecognised run options, which are an
        error.
        """
        if options:
            raise ParameterError(f"unknown run options: {sorted(options)}")
        if len(members) < 2:
            raise ParameterError("the GKA needs at least two members")
        ring = RingTopology(members)
        rng = DeterministicRNG(seed, label=rng_label)
        parties: Dict[str, PartyState] = {}
        for identity in members:
            key = self.setup.enroll(identity)
            node = Node(identity)
            medium.attach(node)
            parties[identity.name] = PartyState(
                identity=identity,
                private_key=key,
                rng=rng.fork(f"party/{identity.name}"),
                node=node,
            )
        machines = [machine(parties[identity.name], ring) for identity in ring.members]
        return ring_plan(self.setup, self.name, ring, parties, medium, machines, rounds=2)

    def run(
        self,
        members: Sequence[Identity],
        *,
        medium: Optional[BroadcastMedium] = None,
        seed: object = 0,
        engine: Optional[EngineConfig] = None,
        **kwargs: object,
    ) -> "ProtocolResult":
        """Establish a group key among ``members`` and return the result.

        This is a thin driver over the reactive machines: it builds the
        :class:`~repro.engine.machine.MachinePlan` and steps the event kernel
        to quiescence.  ``engine=None`` (the default) runs in instant mode —
        same transcripts, keys and energy ledgers as the pre-kernel
        synchronous implementation.  An :class:`~repro.engine.executor.
        EngineConfig` carrying an adversary suite puts the run under attack:
        the executor consults the attackers on every transmission, so a
        tampered run ends in a verification error (detection) or in whatever
        inconsistent state the protocol failed to notice.
        """
        medium = medium if medium is not None else BroadcastMedium()
        plan = self.build_machines(members, medium=medium, seed=seed, **kwargs)
        return drive_plan(plan, medium, engine=engine)

    def apply_event(
        self,
        state: GroupState,
        event: MembershipEvent,
        *,
        medium: Optional[BroadcastMedium] = None,
        seed: object = 0,
        engine: Optional[EngineConfig] = None,
    ) -> "ProtocolResult":
        """Apply a membership event, returning the post-event result.

        Default implementation: full re-execution of :meth:`run` over the
        post-event membership.  The previous members' nodes are detached from
        the medium first — re-running attaches fresh nodes for the surviving
        members, and departed members must stop receiving (and being charged
        for) traffic.  An event that does not fit the group raises
        :class:`~repro.exceptions.MembershipError` before any node is detached.
        """
        members = membership_after(state.members, event)
        if medium is not None:
            for member in state.members:
                medium.detach(member)
        return self.run(members, medium=medium, seed=seed, engine=engine)

    def merge_states(
        self,
        state: GroupState,
        other: GroupState,
        *,
        medium: Optional[BroadcastMedium] = None,
        seed: object = 0,
        engine: Optional[EngineConfig] = None,
    ) -> "ProtocolResult":
        """Merge another *established* group into this one.

        The generic strategy — all the original BD paper offers — is a full
        re-execution over the union of both memberships.  The proposed
        protocol overrides this with its dedicated Merge sub-protocol.  This
        hook is what lets :class:`~repro.core.session.GroupSession` offer
        ``merge`` for any registered protocol.
        """
        members = membership_after(state.members, MergeEvent(tuple(other.members)))
        if medium is not None:
            for member in state.members:
                medium.detach(member)
            for member in other.members:
                medium.detach(member)
        return self.run(members, medium=medium, seed=seed, engine=engine)

    def describe(self) -> str:
        """One-line summary used by reports."""
        native = ", ".join(sorted(self.supported_events)) or "none (re-runs the GKA)"
        return f"{self.name} (native dynamic events: {native})"


def ring_plan(
    setup: SystemSetup,
    protocol: str,
    ring: RingTopology,
    parties: Dict[str, PartyState],
    medium: BroadcastMedium,
    machines: List[PartyMachine],
    *,
    rounds: int,
) -> MachinePlan:
    """A plan whose result is ``parties`` on ``ring``, keyed by its controller.

    Once the machines are quiescent, the controller's key becomes the group
    key of the returned :class:`GroupState`.
    """

    def finish(stats: EngineStats) -> ProtocolResult:
        state = GroupState(
            setup=setup,
            ring=ring,
            parties=parties,
            group_key=parties[ring.controller().name].group_key,
        )
        return ProtocolResult(
            protocol=protocol,
            state=state,
            medium=medium,
            rounds=rounds,
            sim_latency_s=stats.sim_time_s,
            timeouts=stats.timeouts,
        )

    return MachinePlan(machines=machines, finish=finish, rounds=rounds)


# ---------------------------------------------------------------------------
# Burmester–Desmedt algebra
# ---------------------------------------------------------------------------

def compute_bd_x_value(
    group: SchnorrGroup,
    z_right: int,
    z_left: int,
    r_i: int,
) -> int:
    """The paper's equation (1): ``X_i = (z_{i+1} / z_{i-1})^{r_i} mod p``."""
    return group.power(group.div(z_right, z_left), r_i)


def compute_bd_key(
    group: SchnorrGroup,
    ring_names: Sequence[str],
    member_name: str,
    r_i: int,
    z_table: Mapping[str, int],
    x_table: Mapping[str, int],
) -> int:
    """The Burmester–Desmedt group key, computed from one member's view.

    ``K = (z_{i-1})^{n·r_i} · X_i^{n-1} · X_{i+1}^{n-2} ··· X_{i+n-2}`` which
    telescopes to ``prod_j g^{r_j r_{j+1}}`` (the paper's equation (3)).
    It is evaluated as that telescoping product: with
    ``A_0 = z_{i-1}^{r_i}`` and ``A_j = A_{j-1} · X_{i+j-1}``, each ``A_j``
    is ``g^{r_{i+j-1} r_{i+j}}`` and ``K = A_0 · A_1 ··· A_{n-1}`` — one
    exponentiation plus ``2(n-1)`` multiplications.

    Parameters
    ----------
    ring_names:
        Member names in ring order (the *current* ring — for Leave/Partition
        this is the ring with the departed members already removed).
    member_name:
        The member doing the computation.
    r_i:
        That member's current secret exponent.
    z_table / x_table:
        Publicly known ``z_j`` and ``X_j`` values keyed by member name.
    """
    n = len(ring_names)
    if n < 2:
        raise ParameterError("need at least two members to compute a group key")
    try:
        position = ring_names.index(member_name)
    except ValueError:
        raise ParameterError(f"{member_name!r} is not in the ring") from None
    p = group.p
    term = key = group.power(z_table[ring_names[(position - 1) % n]], r_i)
    for offset in range(n - 1):
        term = term * x_table[ring_names[(position + offset) % n]] % p
        key = key * term % p
    return key


def verify_x_product(group: SchnorrGroup, x_values: Sequence[int]) -> bool:
    """Lemma 1: the product of all ``X_i`` must be 1 mod p.

    Used by the proposed protocol (and Leave/Partition) to detect corrupted
    Round 2 keying material before deriving a key from it.
    """
    return group.product(x_values) == 1


# ---------------------------------------------------------------------------
# Burmester–Desmedt round machines
# ---------------------------------------------------------------------------

class BDRoundMachine(PartyMachine):
    """One member's view of a two-round Burmester–Desmedt run.

    Round 1 broadcasts ``U_i || z_i`` with ``z_i = g^{r_i}``.  Once the
    member's z view is complete, Round 2 broadcasts ``U_i || X_i`` with
    ``X_i = (z_{i+1}/z_{i-1})^{r_i}``, and once its X view is complete the
    member derives ``K``.  Latency mode can reorder rounds across multi-hop
    paths, so a Round-2 copy that arrives before the z view is complete
    raises ``Early``, and the executor holds it until the view completes.

    As is, this is plain BD.  An authenticated variant subclasses it, sets
    :attr:`round1_label` and :attr:`round2_label`, and adds its layer by
    overriding the steps: :meth:`_round1_parts` and :meth:`_round2_parts`
    (what follows ``z_i`` and ``X_i`` on the wire), :meth:`_take_round1`
    (store one sender's Round-1 message; say whether the z view is
    complete), :meth:`_after_round1` (what a complete z view triggers) and
    :meth:`_on_round2` (take one sender's Round-2 message).  A subclass may
    replace a hook (the rekey replaces ``start``) but never chains to the
    inherited one, so every kernel action runs exactly one hook.
    """

    #: round labels on the wire (set by every subclass)
    round1_label: str
    round2_label: str

    def __init__(self, party: PartyState, setup: SystemSetup, ring: RingTopology) -> None:
        super().__init__(party.identity, party.node)
        self.party = party
        self.setup = setup
        self.ring = ring
        self._ring_names = [m.name for m in ring.members]
        self._z_view: Dict[str, int] = {}
        self._x_table: Dict[str, int] = {}
        self._round1_complete = False

    # ----------------------------------------------------------------- hooks
    def start(self, now: float) -> List[Outbound]:
        self.waiting_for = self.round1_label
        return [self._broadcast_round1()]

    def on_message(self, message: Message, now: float) -> List[Outbound]:
        label = message.round_label
        if label == self.round1_label:
            sender: Identity = message.value("identity")  # type: ignore[assignment]
            if not self._take_round1(sender, message):
                return []
            return self._complete_round1()
        if label == self.round2_label:
            if not self._round1_complete:
                raise Early
            sender = message.value("identity")  # type: ignore[assignment]
            return self._on_round2(sender, message)
        return []

    # --------------------------------------------------------------- round 1
    def _broadcast_round1(self) -> Outbound:
        group = self.setup.group
        party = self.party
        party.r = group.random_exponent(party.rng)
        party.z = group.exp_g(party.r)
        party.recorder.record_operation("modexp")  # z_i = g^{r_i}
        self._z_view[self.identity.name] = party.z
        parts = [
            identity_part(self.identity),
            group_element_part("z", party.z, group.element_bits),
        ]
        parts.extend(self._round1_parts())
        return Outbound(Message.broadcast(self.identity, self.round1_label, parts))

    def _round1_parts(self) -> List[MessagePart]:
        return []

    def _take_round1(self, sender: Identity, message: Message) -> bool:
        self._z_view[sender.name] = int(message.value("z"))
        return len(self._z_view) == self.ring.size

    def _complete_round1(self) -> List[Outbound]:
        self._round1_complete = True
        return self._after_round1()

    def _after_round1(self) -> List[Outbound]:
        return self._emit_round2()

    # --------------------------------------------------------------- round 2
    def _emit_round2(self) -> List[Outbound]:
        group = self.setup.group
        party = self.party
        left = self.ring.left_neighbour(self.identity)
        right = self.ring.right_neighbour(self.identity)
        x_value = compute_bd_x_value(
            group, self._z_view[right.name], self._z_view[left.name], party.r
        )
        party.recorder.record_operation("modexp")  # X_i
        self._x_table[self.identity.name] = x_value
        self.waiting_for = self.round2_label
        parts = [
            identity_part(self.identity),
            group_element_part("X", x_value, group.element_bits),
        ]
        parts.extend(self._round2_parts(x_value))
        return [Outbound(Message.broadcast(self.identity, self.round2_label, parts))]

    def _round2_parts(self, x_value: int) -> List[MessagePart]:
        return []

    def _on_round2(self, sender: Identity, message: Message) -> List[Outbound]:
        self._x_table[sender.name] = int(message.value("X"))
        if len(self._x_table) == self.ring.size:
            self._derive_key()
            self.finished = True
            self.waiting_for = None
        return []

    def _derive_key(self) -> None:
        party = self.party
        party.group_key = compute_bd_key(
            self.setup.group,
            self._ring_names,
            self.identity.name,
            party.r,
            self._z_view,
            self._x_table,
        )
        party.recorder.record_operation("modexp")  # K


class GQRoundMachine(BDRoundMachine):
    """BD authenticated by one batch-verified GQ signature over both rounds.

    The proposed GKA (:mod:`repro.core.gka`) and its Leave/Partition rekey
    (:mod:`repro.core.rekey`) share this layer.  Round 1 adds the GQ
    commitment ``t_i = tau_i^e mod n``.  Round 2 adds the response
    ``s_i = tau_i · S_{U_i}^c mod n`` to the common challenge
    ``c = H(T, Z)``, where ``Z = prod z_j mod p`` and ``T = prod t_j mod n``.
    The controller ``U_1`` broadcasts its Round 2 last, once it holds
    everyone else's.  Each subclass writes :meth:`_verify`, because the two
    protocols act differently on a failed check, and each passes its own
    module's ``gq_batch_verify`` to :meth:`_batch_verdict`.

    Every member checks equation (2) over the same public view, so the
    verdict is memoised in ``verdicts``, a :class:`~repro.mathutils.memo.Memo`
    that the run's plan creates and shares among its machines.  It is keyed
    by the identities, responses, challenge and encoded ``Z``, so a member
    whose view was tampered with misses it and checks its own view.  Each
    member still records its own verification.
    """

    def __init__(
        self, party: PartyState, setup: SystemSetup, ring: RingTopology, verdicts: Memo
    ) -> None:
        super().__init__(party, setup, ring)
        self.verdicts = verdicts
        self.is_controller = ring.controller().name == party.identity.name
        self._t_view: Dict[str, int] = {}
        self._s_table: Dict[str, int] = {}
        self._challenge: Optional[int] = None
        self._aggregate: Optional[int] = None

    def _round1_parts(self) -> List[MessagePart]:
        params = self.setup.gq_params
        party = self.party
        party.tau, party.t = gq_commitment(params, party.rng)
        self._t_view[self.identity.name] = party.t
        return [group_element_part("t", party.t, params.modulus_bits)]

    def _take_round1(self, sender: Identity, message: Message) -> bool:
        complete = super()._take_round1(sender, message)
        self._t_view[sender.name] = int(message.value("t"))
        return complete

    def _after_round1(self) -> List[Outbound]:
        if self.is_controller:
            # U_1 broadcasts last: arm for the others' Round 2 first.
            self.waiting_for = self.round2_label
            return []
        return self._emit_round2()

    def _round2_parts(self, x_value: int) -> List[MessagePart]:
        group = self.setup.group
        params = self.setup.gq_params
        party = self.party
        big_z = group.product(self._z_view[name] for name in sorted(self._z_view))
        big_t = product_mod((self._t_view[name] for name in sorted(self._t_view)), params.n)
        challenge = params.hash_function.challenge(int_to_bytes(big_t), int_to_bytes(big_z))
        party.recorder.record_operation("hash")
        response = gq_response(params, party.private_key, party.tau, challenge)
        party.recorder.record_signature("gq", "gen")
        self._challenge = challenge
        self._aggregate = big_z
        self._s_table[self.identity.name] = response
        return [group_element_part("s", response, params.modulus_bits)]

    def _on_round2(self, sender: Identity, message: Message) -> List[Outbound]:
        self._x_table[sender.name] = int(message.value("X"))
        self._s_table[sender.name] = int(message.value("s"))
        if self.is_controller and self.identity.name not in self._s_table:
            if len(self._x_table) < self.ring.size - 1:
                return []
            # All the others have transmitted: the controller now computes,
            # broadcasts (last) and verifies its own complete view.
            outs = self._emit_round2()
            self._verify()
            return outs
        if len(self._s_table) >= self.ring.size:
            self._verify()
        return []

    def _batch_verdict(self, batch_verify: Callable[..., bool]) -> bool:
        """Equation (2) over this member's view, computed once per run.

        ``batch_verify`` is ``gq_batch_verify`` called with the parameters,
        then the identities and responses in ring order, the challenge, and
        the encoded aggregate ``Z`` the challenge binds.
        """
        assert self._challenge is not None and self._aggregate is not None
        identities = tuple(member.to_bytes() for member in self.ring.members)
        responses = tuple(self._s_table[name] for name in self._ring_names)
        challenge = self._challenge
        bound = int_to_bytes(self._aggregate)
        return self.verdicts.compute(
            (identities, responses, challenge, bound),
            lambda: batch_verify(
                self.setup.gq_params, identities, responses, challenge, bound
            ),
        )

    def _lemma1_holds(self) -> bool:
        """Lemma 1 over this member's X view: ``prod X_j = 1 mod p``."""
        x_values = [self._x_table[name] for name in self._ring_names]
        return verify_x_product(self.setup.group, x_values)

    @abc.abstractmethod
    def _verify(self) -> None:
        """Check the complete Round-2 view and derive ``K`` from it."""


class EnvelopePairMachine(PartyMachine):
    """A member that only opens two envelopes sealed under its current key.

    Every Join and Merge member other than the active roles runs this: no
    exponentiation, two symmetric decryptions.  ``slots`` are the two
    ``(round label, part name, sealer)`` envelopes in opening order.  Other
    labels are ignored, and the member waits on the first slot still
    missing.  Once both are in, the new group key is the product of the two
    opened group elements mod ``p``.
    """

    def __init__(
        self,
        party: PartyState,
        setup: SystemSetup,
        slots: Sequence[Tuple[str, str, Identity]],
    ) -> None:
        super().__init__(party.identity, party.node)
        self.party = party
        self.setup = setup
        self.slots = tuple(slots)
        self._sealed: Dict[str, object] = {}

    def start(self, now: float) -> List[Outbound]:
        self.waiting_for = self.slots[0][0]
        return []

    def on_message(self, message: Message, now: float) -> List[Outbound]:
        label = message.round_label
        part = next((part for slot, part, _ in self.slots if slot == label), None)
        if part is None:
            return []
        self._sealed[label] = message.value(part)
        missing = [slot for slot, _, _ in self.slots if slot not in self._sealed]
        if missing:
            self.waiting_for = missing[0]
            return []
        party = self.party
        assert party.group_key is not None
        envelope = SymmetricEnvelope(party.group_key)
        first, second = (
            envelope.open_group_element(self._sealed[slot], sealer.to_bytes())
            for slot, _, sealer in self.slots
        )
        party.recorder.record_operation("symmetric", 2)
        party.group_key = (first * second) % self.setup.group.p
        self.finished = True
        self.waiting_for = None
        return []
