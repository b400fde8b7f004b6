"""The :class:`CryptoBackend` interface.

Every scenario, engine, adversary and campaign run ultimately bottoms out in
a handful of big-integer primitives: modular exponentiation, modular inverse,
simultaneous multi-exponentiation, fixed-base exponentiation and EC scalar
multiplication.  A backend is one interchangeable implementation of exactly
those primitives.  The contract is strict:

* **Bit-identical results.**  For every valid input, every backend returns
  the same integers (and raises :class:`~repro.exceptions.ParameterError`
  in the same situations) as the ``pure`` reference backend.  The golden
  equivalence suite (``tests/test_engine_equivalence.py``) pins this for
  the six flat protocols of the eight in the protocol table, and
  ``tests/test_backends.py`` pins it on randomized primitive inputs.
* **No RNG, no state.**  Backends are pure functions over integers; the
  deterministic RNG streams never route through them, so switching backends
  cannot perturb a protocol transcript.

Call sites never hold a backend or its bound methods: they call
:func:`repro.backends.registry.active_backend` at each operation, so a
wrapper installed on a backend class's methods sees every call.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..groups.elliptic import ECPoint

__all__ = ["CryptoBackend", "FixedBaseTable"]


class FixedBaseTable(abc.ABC):
    """A precomputed fixed-base exponentiation object (``pow(e)`` only)."""

    @abc.abstractmethod
    def pow(self, exponent: int) -> int:
        """``base ** exponent mod modulus`` for a non-negative exponent."""

    def __call__(self, exponent: int) -> int:
        return self.pow(exponent)


class CryptoBackend(abc.ABC):
    """One interchangeable implementation of the big-int hot-path primitives."""

    #: short identifier (``"pure"``, ``"native"``)
    name: str = "abstract"

    @abc.abstractmethod
    def modexp(self, base: int, exponent: int, modulus: int) -> int:
        """``base ** exponent mod modulus``; negative exponents invert first.

        Raises :class:`~repro.exceptions.ParameterError` for non-positive
        moduli and for negative exponents of non-invertible bases — the same
        conditions as :func:`repro.mathutils.modular.modexp`.
        """

    @abc.abstractmethod
    def modinv(self, a: int, n: int) -> int:
        """Multiplicative inverse of ``a`` modulo ``n``.

        Raises :class:`~repro.exceptions.ParameterError` when no inverse
        exists or ``n <= 0`` (matching :func:`repro.mathutils.modular.modinv`).
        """

    @abc.abstractmethod
    def multi_exp(self, bases: Sequence[int], exponents: Sequence[int], modulus: int) -> int:
        """Simultaneous ``prod bases[i]**exponents[i] mod modulus``.

        Negative exponents invert the base first, exactly like
        :func:`repro.mathutils.modular.multi_exp`.
        """

    @abc.abstractmethod
    def fixed_base(self, base: int, modulus: int, max_bits: int) -> FixedBaseTable:
        """A reusable fixed-base object for ``base ** e mod modulus``.

        ``max_bits`` bounds the exponent widths worth precomputing for (wider
        exponents still work).  Callers cache the returned object per group;
        see :attr:`repro.groups.schnorr.SchnorrGroup.fixed_base_g`.
        """

    def ec_scalar_mul(self, point: "ECPoint", scalar: int) -> "ECPoint":
        """Scalar multiplication ``scalar * P`` (MSB-first double-and-add).

        The default walks the scalar bits over the point's own ``add`` /
        ``double`` — whose field inversions already route through the active
        backend — so only backends with a genuinely different ladder need to
        override this.
        """
        if scalar == 0 or point.is_infinity:
            return point.curve.infinity
        if scalar < 0:
            return self.ec_scalar_mul(point.negate(), -scalar)
        result = point.curve.infinity
        for bit in bin(scalar)[2:]:
            result = result.double()
            if bit == "1":
                result = result.add(point)
        return result
