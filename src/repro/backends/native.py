"""The ``native`` backend: GMP-accelerated primitives via gmpy2.

gmpy2's ``powmod`` / ``invert`` run GMP's assembly big-int kernels, which are
roughly an order of magnitude faster than CPython's ``pow`` at 1024-bit
operand sizes.  The results are mathematically identical — both compute the
canonical least non-negative residue — so this backend is bit-identical to
``pure`` by construction; the equivalence tests assert it anyway.

gmpy2 is an *optional* dependency.  When it is importable,
:func:`repro.backends.registry.active_backend` serves this backend; when it
is not, :data:`HAVE_GMPY2` is ``False``, the ``pure`` backend runs instead
and constructing :class:`NativeBackend` raises
:class:`~repro.exceptions.ParameterError`.
"""

from __future__ import annotations

import math
from typing import Sequence

from .. import telemetry
from ..exceptions import ParameterError
from .base import CryptoBackend, FixedBaseTable

try:  # pragma: no cover - exercised only where gmpy2 is installed
    import gmpy2
    from gmpy2 import mpz, powmod

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - the common container case
    gmpy2 = None
    mpz = int

    def powmod(base, exponent, modulus):  # type: ignore[misc]
        raise ParameterError("gmpy2 is not installed; the native backend is unavailable")

    HAVE_GMPY2 = False

__all__ = ["NativeBackend", "HAVE_GMPY2"]


class _NativeFixedBase(FixedBaseTable):
    """Fixed-base wrapper over ``powmod``.

    GMP's sliding-window exponentiation already outruns the pure backend's
    Python-level precomputed table, so no table is built — the object only
    mirrors :class:`~repro.mathutils.modular.FixedBaseExp`'s interface and
    error contract (non-negative exponents only).
    """

    __slots__ = ("base", "modulus", "max_bits")

    def __init__(self, base: int, modulus: int, max_bits: int) -> None:
        if modulus <= 0:
            raise ParameterError(f"modulus must be positive, got {modulus}")
        if max_bits <= 0:
            raise ParameterError(f"max_bits must be positive, got {max_bits}")
        self.base = mpz(base % modulus)
        self.modulus = mpz(modulus)
        self.max_bits = max_bits

    def pow(self, exponent: int) -> int:
        if exponent < 0:
            raise ParameterError("FixedBaseExp handles non-negative exponents only")
        return int(powmod(self.base, exponent, self.modulus))


class NativeBackend(CryptoBackend):
    """gmpy2/GMP implementation of the big-int primitives."""

    name = "native"

    def __init__(self) -> None:
        if not HAVE_GMPY2:
            raise ParameterError(
                "gmpy2 is not installed; the native backend needs it (pip install gmpy2)"
            )

    def modexp(self, base: int, exponent: int, modulus: int) -> int:
        telemetry.count("crypto.modexp")
        if modulus <= 0:
            raise ParameterError(f"modulus must be positive, got {modulus}")
        if exponent < 0:
            # Route through modinv so a non-invertible base raises the same
            # ParameterError (and message shape) as the pure backend.
            base = self.modinv(base, modulus)
            exponent = -exponent
        return int(powmod(base, exponent, modulus))

    def modinv(self, a: int, n: int) -> int:
        if n <= 0:
            raise ParameterError(f"modulus must be positive, got {n}")
        a %= n
        try:
            return int(gmpy2.invert(a, n))
        except ZeroDivisionError:
            raise ParameterError(
                f"{a} has no inverse modulo {n} (gcd={math.gcd(a, n)})"
            ) from None

    def multi_exp(self, bases: Sequence[int], exponents: Sequence[int], modulus: int) -> int:
        telemetry.count("crypto.multi_exp")
        if modulus <= 0:
            raise ParameterError(f"modulus must be positive, got {modulus}")
        if len(bases) != len(exponents):
            raise ParameterError("bases and exponents must have the same length")
        # GMP's powmod is fast enough that a plain product of per-pair
        # exponentiations beats a Python-level interleaved Straus chain.
        mod = mpz(modulus)
        acc = mpz(1) % mod
        for base, exponent in zip(bases, exponents):
            if exponent == 0:
                continue
            if exponent < 0:
                base = self.modinv(base, modulus)
                exponent = -exponent
            acc = (acc * powmod(base, exponent, mod)) % mod
        return int(acc)

    def fixed_base(self, base: int, modulus: int, max_bits: int) -> _NativeFixedBase:
        return _NativeFixedBase(base, modulus, max_bits)
