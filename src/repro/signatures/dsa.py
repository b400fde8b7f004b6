"""DSA over a Schnorr group (the "BD with 1024-bit DSA" baseline).

Standard FIPS-186 style DSA: the public key is ``y = g^x mod p`` in the same
kind of (1024-bit ``p``, 160-bit ``q``) group the GKA uses; a signature is the
pair ``(r, s)`` of two 160-bit values, i.e. 320 bits on the wire, matching the
paper's Table 3 footnote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..backends.registry import active_backend
from ..exceptions import ParameterError
from ..groups.schnorr import SchnorrGroup
from ..hashing.hashfuncs import HashFunction
from ..mathutils.memo import Memo
from ..mathutils.modular import modinv
from ..mathutils.rand import DeterministicRNG
from .base import BatchItem, KeyPair, OperationCount, Signature, SignatureScheme

__all__ = ["DSASignatureScheme", "DSAKeyPair"]


@dataclass(frozen=True)
class DSAKeyPair:
    """A DSA key pair: private ``x`` and public ``y = g^x mod p``."""

    private: int
    public: int


class DSASignatureScheme(SignatureScheme):
    """DSA signing/verification over a :class:`SchnorrGroup`."""

    name = "dsa"

    def __init__(self, group: SchnorrGroup, hash_function: HashFunction | None = None) -> None:
        self.group = group
        self.hash_function = hash_function or HashFunction(output_bits=group.q_bits)
        #: (y, message, r, s) -> outcome; see :meth:`verify`.
        self._verdicts = Memo()

    # -------------------------------------------------------------- key mgmt
    def generate_keypair(self, rng: DeterministicRNG) -> DSAKeyPair:
        """Generate ``x`` uniform in ``Z_q^*`` and ``y = g^x``."""
        x = self.group.random_exponent(rng)
        y = self.group.exp_g(x)
        return DSAKeyPair(private=x, public=y)

    # -------------------------------------------------------------- interface
    @property
    def signature_bits(self) -> int:
        """Two ``|q|``-bit values (320 bits for the paper's 160-bit ``q``)."""
        return 2 * self.group.q_bits

    def sign(self, private_key, message: bytes, rng: DeterministicRNG) -> Signature:
        """Produce ``(r, s)`` with ``r = (g^k mod p) mod q``.

        The full commitment ``v = g^k mod p`` rides along in the signature's
        ``aux`` mapping: ``r`` alone cannot be lifted back to the group
        element the batch equation needs, so :meth:`batch_verify` consumes
        ``v`` where present (and falls back to per-item verification where
        not).  Like the verification memo, this is a host-side detail —
        ``wire_bits`` stays the paper's 320 bits, ``v`` never reaches the
        wire encoding or the energy model, and transcripts are unchanged.
        """
        x = private_key.private if isinstance(private_key, DSAKeyPair) else int(private_key)
        q = self.group.q
        digest = self.hash_function.hash_to_zq(message, q=q)
        while True:
            k = self.group.random_exponent(rng)
            v = self.group.exp_g(k)
            r = v % q
            if r == 0:
                continue
            s = (modinv(k, q) * (digest + x * r)) % q
            if s != 0:
                break
        return Signature(
            scheme=self.name,
            components={"r": r, "s": s},
            wire_bits=self.signature_bits,
            aux={"v": v},
        )

    def verify(self, public_key, message: bytes, signature: Signature) -> bool:
        """Standard DSA verification: check ``r == (g^{u1} y^{u2} mod p) mod q``.

        Verification is a pure function of ``(y, message, r, s)`` and in the
        broadcast protocols every one of the ``n - 1`` receivers verifies the
        *same* triple, so the outcome is memoised (a
        :class:`~repro.mathutils.memo.Memo` keyed by all four) per scheme
        instance.  The instance lives on the protocol and its CA, so
        certificate checks are re-hit across the runs of one scenario.  Each
        receiver still records its own verification cost — the memo saves
        simulation host time, not modelled device energy.  The range check
        runs before the lookup.
        """
        y = public_key.public if isinstance(public_key, DSAKeyPair) else int(public_key)
        q = self.group.q
        r, s = signature.component("r"), signature.component("s")
        if not (0 < r < q and 0 < s < q):
            return False
        return self._verdicts.compute(
            (y, message, r, s), lambda: self._verify_uncached(y, message, r, s)
        )

    def _verify_uncached(self, y: int, message: bytes, r: int, s: int) -> bool:
        q = self.group.q
        digest = self.hash_function.hash_to_zq(message, q=q)
        try:
            w = modinv(s, q)
        except ParameterError:
            return False
        u1 = (digest * w) % q
        u2 = (r * w) % q
        v = (self.group.exp_g(u1) * self.group.power(y, u2)) % self.group.p % q
        return v == r

    # --------------------------------------------------------- batch verify
    has_batch_form = True

    def batch_verify(
        self, items: Sequence[BatchItem], rng: DeterministicRNG, **kwargs: object
    ) -> List[bool]:
        """Small-exponent batch test over a random linear combination.

        With ``v_i = g^{k_i} mod p`` recovered from each signature's aux data,
        a valid signature satisfies ``v_i == g^{u1_i} · y_i^{u2_i} mod p``, so
        for random 64-bit coefficients ``l_i`` the whole batch satisfies::

            prod v_i^{l_i}  ==  g^{sum l_i·u1_i mod q} · prod y_i^{l_i·u2_i mod q}

        — two simultaneous multi-exponentiations replacing ``2·k`` full ones.
        Items that fail structural checks, lack a consistent commitment, or
        hit the verification memo never enter the combination; they take the
        per-item path, so accept/reject decisions are always exactly those of
        loop verification.  When a combined check fails, the batch is bisected
        until the culprits are isolated by ground-truth individual verifies.
        """
        if kwargs:
            raise ParameterError(f"unknown verify options: {sorted(kwargs)}")
        q, p = self.group.q, self.group.p
        results: List[Optional[bool]] = [None] * len(items)
        pending: List[tuple] = []  # (index, y, message, r, s, v, u1, u2)
        for index, (public_key, message, signature) in enumerate(items):
            y = public_key.public if isinstance(public_key, DSAKeyPair) else int(public_key)
            r, s = signature.component("r"), signature.component("s")
            if not (0 < r < q and 0 < s < q):
                results[index] = False
                continue
            cached = self._verdicts.get((y, message, r, s))
            if cached is not None:
                results[index] = cached
                continue
            v = signature.aux.get("v")
            if not isinstance(v, int) or not 1 <= v < p or v % q != r:
                # No usable commitment: the per-item verify is ground truth.
                results[index] = self.verify(public_key, message, signature)
                continue
            digest = self.hash_function.hash_to_zq(message, q=q)
            try:
                w = modinv(s, q)
            except ParameterError:
                results[index] = self._verdicts.put((y, message, r, s), False)
                continue
            pending.append((index, y, message, r, s, v, (digest * w) % q, (r * w) % q))
        self._batch_check(pending, results, rng)
        return [bool(outcome) for outcome in results]

    def _batch_check(
        self, entries: List[tuple], results: List[Optional[bool]], rng: DeterministicRNG
    ) -> None:
        """Combined check with bisection; fills ``results`` at entry indices."""
        if not entries:
            return
        if len(entries) == 1:
            index, y, message, r, s, _, _, _ = entries[0]
            results[index] = self._verdicts.put(
                (y, message, r, s), self._verify_uncached(y, message, r, s)
            )
            return
        q, p = self.group.q, self.group.p
        coefficients = [1 + rng.randbelow((1 << 64) - 1) for _ in entries]
        commitment_bases: List[int] = []
        commitment_exps: List[int] = []
        key_bases: List[int] = []
        key_exps: List[int] = []
        combined_u1 = 0
        for (_, y, _, _, _, v, u1, u2), l in zip(entries, coefficients):
            commitment_bases.append(v)
            commitment_exps.append(l)
            key_bases.append(y)
            key_exps.append((l * u2) % q)
            combined_u1 = (combined_u1 + l * u1) % q
        # prod v_i^{l_i}  ==  g^{sum l_i·u1_i} · prod y_i^{l_i·u2_i}  (mod p)
        backend = active_backend()
        left = backend.multi_exp(commitment_bases, commitment_exps, p)
        right = (self.group.exp_g(combined_u1) * backend.multi_exp(key_bases, key_exps, p)) % p
        if left == right:
            for index, y, message, r, s, _, _, _ in entries:
                results[index] = self._verdicts.put((y, message, r, s), True)
            return
        half = len(entries) // 2
        self._batch_check(entries[:half], results, rng)
        self._batch_check(entries[half:], results, rng)

    # ------------------------------------------------------------- op counts
    def sign_cost(self) -> OperationCount:
        """One modular exponentiation dominates DSA signing (Table 2: "Sign. Gen. DSA")."""
        return OperationCount(modexp=1, hash_calls=1, sign_gen=1)

    def verify_cost(self) -> OperationCount:
        """Two exponentiations dominate DSA verification (Table 2: "Sign. Ver. DSA")."""
        return OperationCount(modexp=2, hash_calls=1, sign_verify=1)
