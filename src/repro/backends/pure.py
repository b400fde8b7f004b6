"""The ``pure`` reference backend: today's CPython code paths, extracted.

This backend *is* the semantics contract — it delegates straight to the
:mod:`repro.mathutils.modular` primitives (builtin three-argument ``pow``,
builtin ``pow(a, -1, n)`` for inverses, windowed
:class:`~repro.mathutils.modular.FixedBaseExp`, Straus
:func:`~repro.mathutils.modular.multi_exp`) that the library used before the
backend layer existed, so routing through it changes nothing.
Every other backend is pinned bit-identical against it.
"""

from __future__ import annotations

from typing import Sequence

from .. import telemetry
from ..mathutils.modular import FixedBaseExp, modexp, modinv, multi_exp
from .base import CryptoBackend, FixedBaseTable

__all__ = ["PureBackend"]

# FixedBaseExp predates the backend layer and already satisfies the
# FixedBaseTable contract (pow + __call__); adopt it instead of wrapping.
FixedBaseTable.register(FixedBaseExp)


class PureBackend(CryptoBackend):
    """Reference implementation over CPython arbitrary-precision integers."""

    name = "pure"

    def modexp(self, base: int, exponent: int, modulus: int) -> int:
        telemetry.count("crypto.modexp")
        return modexp(base, exponent, modulus)

    def modinv(self, a: int, n: int) -> int:
        return modinv(a, n)

    def multi_exp(self, bases: Sequence[int], exponents: Sequence[int], modulus: int) -> int:
        telemetry.count("crypto.multi_exp")
        return multi_exp(bases, exponents, modulus)

    def fixed_base(self, base: int, modulus: int, max_bits: int) -> FixedBaseExp:
        return FixedBaseExp(base, modulus, max_bits)
