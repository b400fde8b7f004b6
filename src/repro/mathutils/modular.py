"""Modular-arithmetic primitives used throughout the library.

These are the small, heavily exercised building blocks under every signature
scheme and group-key protocol in the reproduction: extended gcd, modular
inverse, CRT recombination, Jacobi symbols, and product-mod helpers.  They are
pure functions over Python integers; CPython's arbitrary-precision ``int`` and
three-argument ``pow`` make them fast enough for 1024/2048-bit parameters
without any C extension.

Design notes (per the hpc-parallel guides): keep the functions simple and
testable first; the only "optimization" applied is using builtin ``pow`` /
``math.gcd`` which are already C-level.  The modular inverse is builtin
``pow(a, -1, n)``; :func:`egcd` stays iterative, so callers that need the
Bezout coefficients of large inputs never hit the recursion limit.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

from ..exceptions import ParameterError

__all__ = [
    "egcd",
    "modinv",
    "gcd",
    "lcm",
    "crt",
    "jacobi",
    "is_quadratic_residue",
    "product_mod",
    "modexp",
    "legendre",
    "int_nth_root",
    "is_perfect_square",
    "FixedBaseExp",
    "multi_exp",
]


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of ``a`` and ``b`` (non-negative result)."""
    return math.gcd(a, b)


def lcm(a: int, b: int) -> int:
    """Least common multiple of ``a`` and ``b``."""
    if a == 0 or b == 0:
        return 0
    return abs(a // math.gcd(a, b) * b)


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclidean algorithm.

    Returns ``(g, x, y)`` such that ``a*x + b*y == g == gcd(a, b)``.

    The implementation is iterative so it works for arbitrarily large inputs
    without hitting the recursion limit.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    # Normalise so the gcd is non-negative.
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def modinv(a: int, n: int) -> int:
    """Multiplicative inverse of ``a`` modulo ``n``.

    Raises
    ------
    ParameterError
        If ``gcd(a, n) != 1`` (no inverse exists) or ``n <= 0``.
    """
    if n <= 0:
        raise ParameterError(f"modulus must be positive, got {n}")
    a %= n
    try:
        return pow(a, -1, n)
    except ValueError:
        raise ParameterError(f"{a} has no inverse modulo {n} (gcd={math.gcd(a, n)})") from None


def modexp(base: int, exponent: int, modulus: int) -> int:
    """Modular exponentiation ``base**exponent mod modulus``.

    Thin wrapper over builtin :func:`pow` that supports negative exponents by
    inverting the base first, which the protocols need for terms such as
    ``(z_{i-1})^{-r_i}`` and ``H(ID)^{-c}``.
    """
    if modulus <= 0:
        raise ParameterError(f"modulus must be positive, got {modulus}")
    if exponent < 0:
        base = modinv(base, modulus)
        exponent = -exponent
    return pow(base, exponent, modulus)


def crt(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Chinese Remainder Theorem recombination.

    Given pairwise-coprime ``moduli`` and corresponding ``residues``, return
    the unique ``x`` modulo ``prod(moduli)`` with ``x = residues[i] (mod
    moduli[i])`` for every ``i``.  Used by the RSA-style GQ private-key
    generator to speed up ``H(ID)^d mod n`` via the factorisation of ``n``.
    """
    if len(residues) != len(moduli):
        raise ParameterError("residues and moduli must have the same length")
    if not moduli:
        raise ParameterError("need at least one congruence")
    x, m = residues[0] % moduli[0], moduli[0]
    for r_i, m_i in zip(residues[1:], moduli[1:]):
        g = math.gcd(m, m_i)
        if g != 1:
            raise ParameterError("moduli must be pairwise coprime for CRT")
        # Solve x + m*t = r_i (mod m_i)  ->  t = (r_i - x) * m^{-1} (mod m_i)
        t = ((r_i - x) * modinv(m, m_i)) % m_i
        x = x + m * t
        m *= m_i
        x %= m
    return x


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a/n)`` for odd positive ``n``.

    Returns -1, 0 or +1.  Used by the primality tests and by parameter
    validation (checking that the Schnorr-group generator is not trivially a
    quadratic non-residue when it should generate the order-q subgroup).
    """
    if n <= 0 or n % 2 == 0:
        raise ParameterError("Jacobi symbol defined only for odd positive n")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def legendre(a: int, p: int) -> int:
    """Legendre symbol ``(a/p)`` for odd prime ``p`` (no primality check)."""
    return jacobi(a, p)


def is_quadratic_residue(a: int, p: int) -> bool:
    """Whether ``a`` is a non-zero quadratic residue modulo odd prime ``p``."""
    a %= p
    if a == 0:
        return False
    return pow(a, (p - 1) // 2, p) == 1


def product_mod(values: Iterable[int], modulus: int) -> int:
    """Product of ``values`` reduced modulo ``modulus``.

    This is the workhorse of the proposed protocol's batch operations:
    ``Z = prod z_i mod p``, ``T = prod t_i mod n``, ``prod s_i mod n`` and the
    Lemma 1 check ``prod X_i mod p``.
    """
    if modulus <= 0:
        raise ParameterError(f"modulus must be positive, got {modulus}")
    acc = 1
    for v in values:
        acc = (acc * v) % modulus
    return acc


class FixedBaseExp:
    """Fixed-base modular exponentiation via windowed precomputation.

    Every protocol's Round 1 computes ``z_i = g^{r_i} mod p`` for the *same*
    base ``g``; a scenario sweep over hundreds of members repeats that
    exponentiation thousands of times.  This class trades a one-time table of
    ``g^{j · 2^{w·i}} mod m`` (for every window digit ``j`` and block ``i``)
    for exponentiations that need only ``ceil(bits/w) - 1`` multiplications
    and **no squarings**: write ``e`` in base ``2^w`` as digits ``d_i``, then
    ``g^e = prod_i table[i][d_i]``.

    Results are exactly ``pow(base, exponent, modulus)`` — the tests assert
    bit-identity — and exponents wider than ``max_bits`` transparently fall
    back to builtin :func:`pow`.

    Parameters
    ----------
    base / modulus:
        The fixed base and modulus.
    max_bits:
        Largest exponent width the table covers (e.g. the subgroup order's
        bit length for a Schnorr group).
    window:
        Window width ``w`` in bits.  The table holds
        ``ceil(max_bits/w) · 2^w`` residues; ``w = 5`` keeps that near 1000
        entries for 160-bit exponents, amortising after a handful of calls.
    """

    __slots__ = ("base", "modulus", "window", "max_bits", "_mask", "_table")

    def __init__(self, base: int, modulus: int, max_bits: int, window: int = 5) -> None:
        if modulus <= 0:
            raise ParameterError(f"modulus must be positive, got {modulus}")
        if max_bits <= 0:
            raise ParameterError(f"max_bits must be positive, got {max_bits}")
        if not 1 <= window <= 16:
            raise ParameterError(f"window must be in [1, 16], got {window}")
        self.base = base % modulus
        self.modulus = modulus
        self.window = window
        self.max_bits = max_bits
        self._mask = (1 << window) - 1
        blocks = (max_bits + window - 1) // window
        table = []
        block_base = self.base
        for _ in range(blocks):
            row = [1] * (1 << window)
            row[1] = block_base
            for j in range(2, 1 << window):
                row[j] = (row[j - 1] * block_base) % modulus
            table.append(row)
            # The next block's base is block_base^(2^window).
            block_base = (row[-1] * block_base) % modulus
        self._table = table

    def pow(self, exponent: int) -> int:
        """``base ** exponent mod modulus``, identical to builtin ``pow``."""
        if exponent < 0:
            raise ParameterError("FixedBaseExp handles non-negative exponents only")
        if exponent >> self.max_bits:
            return pow(self.base, exponent, self.modulus)
        result = 1
        modulus = self.modulus
        mask = self._mask
        window = self.window
        for row in self._table:
            if exponent == 0:
                break
            digit = exponent & mask
            if digit:
                result = (result * row[digit]) % modulus
            exponent >>= window
        return result

    __call__ = pow


def multi_exp(bases: Sequence[int], exponents: Sequence[int], modulus: int) -> int:
    """Simultaneous multi-exponentiation ``prod bases[i]**exponents[i] mod modulus``.

    Uses Straus's interleaved square-and-multiply: one shared squaring chain
    over the widest exponent, multiplying in each base at its set bits.  Its
    callers are DSA's batch check (many bases, 64-bit or ``q``-sized
    exponents), where the one chain beats a builtin ``pow`` per base, and GQ
    verification and GQ batch verification (two bases, a 17-bit ``e`` and a
    challenge-sized exponent).

    Negative exponents are supported by inverting the base first.
    """
    if modulus <= 0:
        raise ParameterError(f"modulus must be positive, got {modulus}")
    if len(bases) != len(exponents):
        raise ParameterError("bases and exponents must have the same length")
    pairs = []
    for base, exponent in zip(bases, exponents):
        if exponent < 0:
            base = modinv(base, modulus)
            exponent = -exponent
        if exponent:
            pairs.append((base % modulus, exponent))
    acc = 1 % modulus
    top = max((exponent.bit_length() for _, exponent in pairs), default=0)
    for bit in range(top - 1, -1, -1):
        acc = (acc * acc) % modulus
        for base, exponent in pairs:
            if (exponent >> bit) & 1:
                acc = (acc * base) % modulus
    return acc


def int_nth_root(x: int, n: int) -> int:
    """Floor of the n-th root of a non-negative integer ``x``."""
    if x < 0:
        raise ParameterError("x must be non-negative")
    if n <= 0:
        raise ParameterError("n must be positive")
    if x in (0, 1):
        return x
    hi = 1 << ((x.bit_length() + n - 1) // n + 1)
    lo = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def is_perfect_square(x: int) -> bool:
    """Whether ``x`` is a perfect square (used by primality sanity checks)."""
    if x < 0:
        return False
    r = int_nth_root(x, 2)
    return r * r == x
