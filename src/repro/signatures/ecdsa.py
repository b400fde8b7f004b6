"""ECDSA (the "BD with 160-bit ECDSA" baseline).

Standard ECDSA over a named prime-field curve; with secp160r1 the signature is
two 160-bit scalars (320 bits), matching the paper's Table 3 footnote, and the
certificate carrying the public key is the 86-byte ECDSA certificate of
Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..exceptions import ParameterError
from ..groups.curves import SECP160R1
from ..groups.elliptic import ECPoint, EllipticCurve, ec_multi_scalar
from ..hashing.hashfuncs import HashFunction
from ..mathutils.memo import Memo
from ..mathutils.modular import modinv
from ..mathutils.rand import DeterministicRNG
from .base import BatchItem, OperationCount, Signature, SignatureScheme

__all__ = ["ECDSASignatureScheme", "ECDSAKeyPair"]


@dataclass(frozen=True)
class ECDSAKeyPair:
    """An ECDSA key pair: private scalar ``d`` and public point ``Q = d·G``."""

    private: int
    public: ECPoint


class ECDSASignatureScheme(SignatureScheme):
    """ECDSA signing/verification over an :class:`EllipticCurve`."""

    name = "ecdsa"

    def __init__(self, curve: EllipticCurve = SECP160R1, hash_function: HashFunction | None = None) -> None:
        self.curve = curve
        self.hash_function = hash_function or HashFunction(output_bits=curve.n.bit_length())
        #: (Q, message, r, s) -> outcome; see :meth:`verify`.
        self._verdicts = Memo()

    # -------------------------------------------------------------- key mgmt
    def generate_keypair(self, rng: DeterministicRNG) -> ECDSAKeyPair:
        """Generate ``d`` uniform in ``[1, n-1]`` and ``Q = d·G``."""
        d = self.curve.random_scalar(rng)
        return ECDSAKeyPair(private=d, public=self.curve.generator.multiply(d))

    # -------------------------------------------------------------- interface
    @property
    def signature_bits(self) -> int:
        """Two scalars modulo the group order (320 bits on secp160r1)."""
        return 2 * self.curve.n.bit_length()

    def sign(self, private_key, message: bytes, rng: DeterministicRNG) -> Signature:
        """Produce ``(r, s)`` with ``r = (k·G).x mod n``.

        The full commitment point ``R = k·G`` rides along in the signature's
        ``aux`` mapping (``vx``/``vy``): ``r`` keeps only ``R.x mod n``, which
        cannot be lifted back to the point the batch equation needs, so
        :meth:`batch_verify` consumes the aux point where present and falls
        back to per-item verification where not.  Host-side only —
        ``wire_bits`` stays the paper's two scalars and transcripts are
        unchanged.
        """
        d = private_key.private if isinstance(private_key, ECDSAKeyPair) else int(private_key)
        n = self.curve.n
        digest = self.hash_function.hash_to_zq(message, q=n)
        while True:
            k = self.curve.random_scalar(rng)
            point = self.curve.generator.multiply(k)
            r = point.x % n  # type: ignore[operator]
            if r == 0:
                continue
            s = (modinv(k, n) * (digest + r * d)) % n
            if s != 0:
                break
        return Signature(
            scheme=self.name,
            components={"r": r, "s": s},
            wire_bits=self.signature_bits,
            aux={"vx": point.x, "vy": point.y},  # type: ignore[dict-item]
        )

    def verify(self, public_key, message: bytes, signature: Signature) -> bool:
        """Standard ECDSA verification via ``u1·G + u2·Q``.

        Memoised per scheme instance in a :class:`~repro.mathutils.memo.Memo`
        keyed by ``(Q, message, r, s)``, like the DSA scheme: in the
        broadcast protocols every receiver verifies the same triple, and the
        outcome is a pure function of it.  Each receiver still records its
        own verification cost — the memo saves simulation host time only.
        The range check runs before the lookup.
        """
        q_point = public_key.public if isinstance(public_key, ECDSAKeyPair) else public_key
        if not isinstance(q_point, ECPoint):
            raise ParameterError("ECDSA public key must be an ECPoint")
        n = self.curve.n
        r, s = signature.component("r"), signature.component("s")
        if not (0 < r < n and 0 < s < n):
            return False
        return self._verdicts.compute(
            ((q_point.x, q_point.y), message, r, s),
            lambda: self._verify_uncached(q_point, message, r, s),
        )

    def _verify_uncached(self, q_point: "ECPoint", message: bytes, r: int, s: int) -> bool:
        n = self.curve.n
        digest = self.hash_function.hash_to_zq(message, q=n)
        try:
            w = modinv(s, n)
        except ParameterError:
            return False
        u1 = (digest * w) % n
        u2 = (r * w) % n
        point = self.curve.generator.multiply(u1).add(q_point.multiply(u2))
        if point.is_infinity:
            return False
        return point.x % n == r  # type: ignore[operator]

    def _aux_commitment(self, signature: Signature, r: int) -> Optional[ECPoint]:
        """The signing commitment ``R = k·G`` from aux data, or ``None``.

        Only a point that is on the curve, finite and consistent with ``r``
        is usable; anything else (absent aux, tampered values) sends the item
        down the per-item path instead, which keeps semantics exact.
        """
        vx, vy = signature.aux.get("vx"), signature.aux.get("vy")
        if not isinstance(vx, int) or not isinstance(vy, int):
            return None
        try:
            point = self.curve.point(vx, vy)
        except ParameterError:
            return None
        if point.is_infinity or point.x % self.curve.n != r:  # type: ignore[operator]
            return None
        return point

    # --------------------------------------------------------- batch verify
    has_batch_form = True

    def batch_verify(
        self, items: Sequence[BatchItem], rng: DeterministicRNG, **kwargs: object
    ) -> List[bool]:
        """Small-exponent batch test over a random linear combination.

        With the commitment point ``R_i = k_i·G`` recovered from aux data, a
        valid signature satisfies ``R_i == u1_i·G + u2_i·Q_i``, so for random
        64-bit coefficients ``l_i`` the whole batch satisfies::

            sum l_i·R_i  ==  (sum l_i·u1_i mod n)·G + sum (l_i·u2_i mod n)·Q_i

        evaluated as **one** interleaved multi-scalar multiplication
        (:func:`repro.groups.elliptic.ec_multi_scalar`) instead of ``2·k``
        independent double-and-add ladders — the dominant saving on the pure
        backend, where every point operation pays a field inversion.  Items
        failing structural checks, without a consistent commitment, or
        already memoised skip the combination; a failed combined check is
        bisected down to ground-truth per-item verifies, so accept/reject
        decisions always match loop verification exactly.
        """
        if kwargs:
            raise ParameterError(f"unknown verify options: {sorted(kwargs)}")
        n = self.curve.n
        results: List[Optional[bool]] = [None] * len(items)
        pending: List[tuple] = []  # (index, Q, message, r, s, R, u1, u2)
        for index, (public_key, message, signature) in enumerate(items):
            q_point = public_key.public if isinstance(public_key, ECDSAKeyPair) else public_key
            if not isinstance(q_point, ECPoint):
                raise ParameterError("ECDSA public key must be an ECPoint")
            r, s = signature.component("r"), signature.component("s")
            if not (0 < r < n and 0 < s < n):
                results[index] = False
                continue
            cached = self._verdicts.get(((q_point.x, q_point.y), message, r, s))
            if cached is not None:
                results[index] = cached
                continue
            commitment = self._aux_commitment(signature, r)
            if commitment is None:
                results[index] = self.verify(public_key, message, signature)
                continue
            digest = self.hash_function.hash_to_zq(message, q=n)
            try:
                w = modinv(s, n)
            except ParameterError:
                results[index] = self._verdicts.put(((q_point.x, q_point.y), message, r, s), False)
                continue
            pending.append(
                (index, q_point, message, r, s, commitment, (digest * w) % n, (r * w) % n)
            )
        self._batch_check(pending, results, rng)
        return [bool(outcome) for outcome in results]

    def _batch_check(
        self, entries: List[tuple], results: List[Optional[bool]], rng: DeterministicRNG
    ) -> None:
        """Combined check with bisection; fills ``results`` at entry indices."""
        if not entries:
            return
        if len(entries) == 1:
            index, q_point, message, r, s, _, _, _ = entries[0]
            results[index] = self._verdicts.put(
                ((q_point.x, q_point.y), message, r, s),
                self._verify_uncached(q_point, message, r, s),
            )
            return
        n = self.curve.n
        coefficients = [1 + rng.randbelow((1 << 64) - 1) for _ in entries]
        points: List[ECPoint] = [self.curve.generator]
        scalars: List[int] = [0]
        combined_u1 = 0
        for (_, q_point, _, _, _, commitment, u1, u2), l in zip(entries, coefficients):
            points.append(commitment)
            scalars.append(l)
            points.append(q_point)
            scalars.append(-((l * u2) % n))
            combined_u1 = (combined_u1 + l * u1) % n
        # sum l_i·R_i − (sum l_i·u1_i)·G − sum (l_i·u2_i)·Q_i  ==  infinity
        scalars[0] = -combined_u1
        if ec_multi_scalar(points, scalars).is_infinity:
            for index, q_point, message, r, s, _, _, _ in entries:
                results[index] = self._verdicts.put(((q_point.x, q_point.y), message, r, s), True)
            return
        half = len(entries) // 2
        self._batch_check(entries[:half], results, rng)
        self._batch_check(entries[half:], results, rng)

    # ------------------------------------------------------------- op counts
    def sign_cost(self) -> OperationCount:
        """One scalar multiplication dominates (Table 2: "Sign. Gen. ECDSA")."""
        return OperationCount(scalar_mul=1, hash_calls=1, sign_gen=1)

    def verify_cost(self) -> OperationCount:
        """Two scalar multiplications dominate (Table 2: "Sign. Ver. ECDSA")."""
        return OperationCount(scalar_mul=2, hash_calls=1, sign_verify=1)
