"""Per-party machines for the hierarchical cluster-tree GKA.

One :class:`ClusterMachine` per member drives two phases on the event kernel:

1. **Sub-protocol phase** (rekeying clusters only): the member's machine from
   the intra-cluster sub-protocol runs *wrapped* — outbound round labels are
   prefixed with the cluster scope (``ct/<uid>.e<epoch>/``) and broadcasts are
   narrowed to the cluster's members, so concurrent sub-runs in different
   clusters never collide and only cluster members are charged for the
   traffic.  Inbound scoped messages are unwrapped and delegated; an inner
   machine's ``Early`` propagates, and the executor holds the scoped message.
   The wrapper is its inner machine's context: a sub-protocol coordinator's
   ``inner.context.wake(inner, payload)`` schedules the wrapper, whose
   ``on_wake`` hands the payload down.  In the hook where its inner machine
   finishes, the wrapper unbinds it and enters the tree phase.
2. **Tree phase** (every member): starting from the cluster key, walk the
   leaf-to-root path of :mod:`repro.cluster.tree`, combining the sibling
   blinded keys; representatives broadcast the blinded key of every *dirty*
   node they cover (``ct-bk/<label>``), and the root representative closes the
   run with a key-confirmation digest (``ct-confirm/<label>``); a member
   raises ``Early`` for one that arrives before it has its root key.  A
   member whose computed root key contradicts the confirmation aborts with
   :class:`~repro.exceptions.KeyConfirmationError` — under an active
   adversary that abort is scored as *detection*.

Timeout recovery needs no custom logic: every tree message's round label is
unique and stored in ``sent``, so the executor's "all members retransmit the
stalled round" default re-broadcasts exactly the missing blinded key.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Dict, List, Optional, Tuple

from ..core.base import PartyState, SystemSetup
from ..engine.machine import Early, Outbound, PartyMachine
from ..exceptions import KeyConfirmationError, ProtocolError
from ..mathutils.memo import Memo
from ..mathutils.serialization import int_to_bytes
from ..network.message import Message, group_element_part, identity_part
from ..pki.identity import Identity
from .tree import ClusterTree, leaf_label

__all__ = ["ClusterCrew", "TreeRun", "ClusterMachine"]

BK_PREFIX = "ct-bk/"
CONFIRM_PREFIX = "ct-confirm/"


class ClusterCrew:
    """Shared per-cluster run state: scope, membership, the agreed key.

    A crew holds no machine: each wrapper knows its crew, never the reverse.
    """

    def __init__(
        self,
        uid: int,
        epoch: int,
        members: List[Identity],
        *,
        rekey: bool,
        cluster_key: Optional[int] = None,
    ) -> None:
        self.uid = uid
        self.epoch = epoch
        self.members = list(members)
        self.rekey = rekey
        #: known up-front for unaffected clusters; set at sub-run completion
        #: for rekeying ones
        self.cluster_key = cluster_key
        self.scope = f"ct/{uid}.e{epoch}/"
        #: who a wrapped sub-protocol broadcast is narrowed to
        self.recipients = tuple(self.members)
        self.leader = members[0]
        #: the last scoped message unwrapped and its unwrapped copy: every
        #: cluster member receives the same message, one after another
        self._unscoped: Tuple[Optional[Message], Optional[Message]] = (None, None)

    def unscope(self, message: Message) -> Message:
        """``message`` with the cluster scope stripped from its round label."""
        scoped, unscoped = self._unscoped
        if scoped is not message:
            unscoped = dc_replace(message, round_label=message.round_label[len(self.scope):])
            self._unscoped = (message, unscoped)
        return unscoped


class TreeRun:
    """Shared public context of one run's tree phase.

    It also computes the run's tree values: the leaf secret
    ``H(label, K_c)``, each node secret ``H(label, BK_sibling^{k_child})``,
    the root key ``g^{k_root}`` and the confirmation digest.  Each is
    memoised, keyed by the node label and every input that can differ
    between members (the cluster key, the sibling's blinded key, the child
    secret), so a member fed a forged blinded key misses the memo and fails
    on its own.  The memo comes from the previous run, pruned to the labels
    still in this tree, so a clean node's secret is not derived again.
    Callers still charge their own ledgers.
    """

    def __init__(
        self,
        tree: ClusterTree,
        prior_bk: Dict[str, int],
        setup: SystemSetup,
        prior_memo: Memo,
    ) -> None:
        self.tree = tree
        self.setup = setup
        #: blinded keys carried over from the previous run, limited to labels
        #: still present in this run's tree (the "clean" nodes)
        self.carried = {
            label: bk for label, bk in prior_bk.items() if label in tree.nodes
        }
        #: labels whose blinded keys must be recomputed and rebroadcast
        self.dirty = frozenset(tree.dirty_labels(self.carried))
        #: tree values by (kind, node label, inputs...), handed to the next run
        self.memo = prior_memo.where(lambda key: key[1] in tree.nodes)

    def leaf_secret(self, label: str, cluster_key: int) -> int:
        """``k_leaf = H(label, K_c)`` in ``Z_q``."""
        return self.memo.compute(
            ("leaf", label, cluster_key),
            lambda: self.setup.hash_function.hash_to_zq(
                b"cluster-leaf", label.encode(), int_to_bytes(cluster_key), q=self.setup.group.q
            ),
        )

    def node_secret(self, label: str, sibling_bk: int, child_secret: int) -> int:
        """``k_node = H(label, BK_sibling^{k_child})`` in ``Z_q``."""

        def derive() -> int:
            group = self.setup.group
            shared = group.power(sibling_bk, child_secret)
            return self.setup.hash_function.hash_to_zq(
                b"cluster-node", label.encode(), int_to_bytes(shared), q=group.q
            )

        return self.memo.compute(("node", label, sibling_bk, child_secret), derive)

    def root_key(self, root_secret: int) -> int:
        """The group key ``g^{k_root}``."""
        return self.memo.compute(
            ("root", self.tree.root_label, root_secret),
            lambda: self.setup.group.exp_g(root_secret),
        )

    def confirm_digest(self, root_key: int) -> int:
        """The key-confirmation digest ``H(root label, K)``."""
        root_label = self.tree.root_label
        return self.memo.compute(
            ("confirm", root_label, root_key),
            lambda: self.setup.hash_function.digest_int(
                b"cluster-confirm", root_label.encode(), int_to_bytes(root_key)
            ),
        )


class ClusterMachine(PartyMachine):
    """One member's view of a hierarchical cluster-tree run.

    The tree values come from the run's :class:`TreeRun`, which computes each
    once for all members with the same inputs; this member still records a
    hash and an exponentiation for every value it derives, as the device
    would spend them.
    """

    def __init__(
        self,
        party: PartyState,
        setup: SystemSetup,
        crew: ClusterCrew,
        run: TreeRun,
        inner: Optional[PartyMachine] = None,
    ) -> None:
        super().__init__(party.identity, party.node)
        self.party = party
        self.setup = setup
        self.crew = crew
        self.run = run
        #: the sub-protocol machine, until it finishes (None in a cluster
        #: that keeps its key)
        self.inner = inner
        #: this member's view of the blinded-key table
        self.bk: Dict[str, int] = dict(run.carried)
        #: secret exponents along this member's leaf-to-root path
        self._secrets: Dict[str, int] = {}
        self._path = run.tree.path_from_leaf(self._leaf_label())
        self._root_key: Optional[int] = None
        self._confirm_expected: Optional[int] = None

    # ----------------------------------------------------------------- hooks
    def start(self, now: float) -> List[Outbound]:
        if self.inner is None:
            # Unaffected cluster: the key is already shared; go straight to the tree.
            return self._enter_tree(now)
        self.inner.context = self  # see `wake`
        return self._after_inner(self.inner.start(now), now)

    def on_message(self, message: Message, now: float) -> List[Outbound]:
        label = message.round_label
        if label.startswith(self.crew.scope):
            if self.inner is None:
                return []
            unscoped = self.crew.unscope(message)
            return self._after_inner(self.inner.on_message(unscoped, now), now)
        if label.startswith(BK_PREFIX):
            node_label = label[len(BK_PREFIX):]
            if node_label in self.run.tree.nodes and node_label not in self.bk:
                self.bk[node_label] = int(message.value("bk"))
                # Only the sibling key the path walk stopped at moves it on;
                # any other is stored for when the walk reaches it.
                if label == self.waiting_for:
                    return self._advance(now)
            return []
        if label.startswith(CONFIRM_PREFIX):
            if label[len(CONFIRM_PREFIX):] == self.run.tree.root_label:
                if self._root_key is None:
                    raise Early
                if not self.finished:
                    self._check_confirm(int(message.value("confirm")))
            return []
        return []

    def on_wake(self, payload: object, now: float) -> List[Outbound]:
        # Only the inner machine's coordinator wakes a wrapper (see `wake`).
        return self._after_inner(self.inner.on_wake(payload, now), now)

    # ------------------------------------------------------ sub-run plumbing
    def wake(self, inner: PartyMachine, payload: object) -> None:
        """The inner machine's context: wake this wrapper, which hands ``payload`` on."""
        self.context.wake(self, payload)

    def _after_inner(self, outbounds: List[Outbound], now: float) -> List[Outbound]:
        wrapped = [
            Outbound(
                dc_replace(
                    out.message,
                    round_label=self.crew.scope + out.message.round_label,
                    recipients=(
                        self.crew.recipients
                        if out.message.recipients is None
                        else out.message.recipients
                    ),
                )
            )
            for out in outbounds
        ]
        inner = self.inner
        if inner.finished:
            # Unbound, the finished inner machine and this wrapper form no
            # reference cycle.
            inner.context = None
            self.inner = None
            wrapped.extend(self._enter_tree(now))
        elif inner.waiting_for:
            self.waiting_for = self.crew.scope + inner.waiting_for
        return wrapped

    # ------------------------------------------------------------ tree phase
    def _leaf_label(self) -> str:
        return leaf_label(self.crew.uid, self.crew.epoch)

    def _enter_tree(self, now: float) -> List[Outbound]:
        if self.crew.rekey and self.crew.cluster_key is None:
            self.crew.cluster_key = self.party.group_key
        key = self.crew.cluster_key if not self.crew.rekey else self.party.group_key
        if key is None:
            raise ProtocolError(
                f"cluster c{self.crew.uid} entered the tree phase without a cluster key"
            )
        leaf = self._path[0]
        k_leaf = self.run.leaf_secret(leaf.label, key)
        self.party.recorder.record_operation("hash")
        self._secrets[leaf.label] = k_leaf
        outs: List[Outbound] = []
        if (
            leaf.rep_name == self.identity.name
            and leaf.label in self.run.dirty
            and leaf.label != self.run.tree.root_label
            and leaf.label not in self.bk
        ):
            bk = self.setup.group.exp_g(k_leaf)
            self.party.recorder.record_operation("modexp")
            self.bk[leaf.label] = bk
            outs.append(self._bk_message(leaf.label, bk))
        outs.extend(self._advance(now))
        return outs

    def _advance(self, now: float) -> List[Outbound]:
        tree = self.run.tree
        outs: List[Outbound] = []
        for child, node in zip(self._path, self._path[1:]):
            if node.label in self._secrets:
                continue
            sibling = tree.sibling(child.label)
            if sibling not in self.bk:
                self.waiting_for = BK_PREFIX + sibling
                return outs
            k_node = self.run.node_secret(
                node.label, self.bk[sibling], self._secrets[child.label]
            )
            self.party.recorder.record_operation("modexp")
            self.party.recorder.record_operation("hash")
            self._secrets[node.label] = k_node
            if (
                node.rep_name == self.identity.name
                and node.label in self.run.dirty
                and node.label != tree.root_label
                and node.label not in self.bk
            ):
                bk = self.setup.group.exp_g(k_node)
                self.party.recorder.record_operation("modexp")
                self.bk[node.label] = bk
                outs.append(self._bk_message(node.label, bk))
        outs.extend(self._complete())
        return outs

    def _complete(self) -> List[Outbound]:
        tree = self.run.tree
        root_label = tree.root_label
        if self._root_key is None:
            self._root_key = self.run.root_key(self._secrets[root_label])
            self.party.recorder.record_operation("modexp")
            self.party.group_key = self._root_key
            self._confirm_expected = self.run.confirm_digest(self._root_key)
            self.party.recorder.record_operation("hash")
        digest = self._confirm_expected
        if tree.nodes[root_label].rep_name == self.identity.name:
            message = Message.broadcast(
                self.identity,
                CONFIRM_PREFIX + root_label,
                [
                    identity_part(self.identity),
                    group_element_part(
                        "confirm", digest, self.setup.hash_function.output_bits
                    ),
                ],
            )
            self.finished = True
            self.waiting_for = None
            return [Outbound(message)]
        self.waiting_for = CONFIRM_PREFIX + root_label
        return []

    def _check_confirm(self, digest: int) -> None:
        if digest != self._confirm_expected:
            raise KeyConfirmationError(
                f"{self.identity.name}: cluster-tree key confirmation failed "
                f"(root {self.run.tree.root_label})"
            )
        self.finished = True
        self.waiting_for = None

    def _bk_message(self, node_label: str, bk: int) -> Outbound:
        return Outbound(
            Message.broadcast(
                self.identity,
                BK_PREFIX + node_label,
                [
                    identity_part(self.identity),
                    group_element_part("bk", bk, self.setup.group.element_bits),
                ],
            )
        )
