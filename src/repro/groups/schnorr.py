"""Schnorr groups: prime-order subgroups of ``Z_p^*``.

The paper's Setup selects a 160-bit prime ``q`` and a 1024-bit prime ``p``
with ``q | p - 1`` and an element ``g`` of order ``q``; all keying material
``z_i = g^{r_i} mod p`` lives in the subgroup generated by ``g``.  This module
wraps that structure in a :class:`SchnorrGroup` value object with element
validation, exponentiation, and the handful of bulk operations the protocols
need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..backends.registry import active_backend
from ..exceptions import ParameterError
from ..mathutils.modular import product_mod
from ..mathutils.primes import generate_schnorr_parameters, is_probable_prime
from ..mathutils.rand import DeterministicRNG

__all__ = ["SchnorrGroup"]


@dataclass(frozen=True)
class SchnorrGroup:
    """A prime-order-``q`` subgroup of ``Z_p^*`` generated by ``g``.

    Attributes
    ----------
    p:
        The field prime (1024-bit in the paper's parameters).
    q:
        The subgroup order (160-bit prime dividing ``p - 1``).
    g:
        A generator of the order-``q`` subgroup.
    """

    p: int
    q: int
    g: int

    # ------------------------------------------------------------ validation
    def validate(self, *, check_primality: bool = True) -> None:
        """Raise :class:`ParameterError` if the parameters are inconsistent.

        ``check_primality=False`` skips the (comparatively expensive)
        Miller-Rabin checks; the named precomputed parameter sets were
        validated at generation time and the benchmark sweeps reuse them.
        """
        if self.p <= 3 or self.q <= 1 or not (1 < self.g < self.p):
            raise ParameterError("degenerate Schnorr parameters")
        if (self.p - 1) % self.q != 0:
            raise ParameterError("q must divide p - 1")
        if pow(self.g, self.q, self.p) != 1:
            raise ParameterError("g must have order dividing q")
        if self.g == 1 or pow(self.g, 1, self.p) == 1:
            raise ParameterError("g must not be the identity")
        if check_primality:
            if not is_probable_prime(self.p):
                raise ParameterError("p is not prime")
            if not is_probable_prime(self.q):
                raise ParameterError("q is not prime")

    # ---------------------------------------------------------- constructors
    @classmethod
    def generate(
        cls, p_bits: int = 1024, q_bits: int = 160, *, rng: DeterministicRNG | None = None
    ) -> "SchnorrGroup":
        """Generate fresh parameters with the paper's shape (q | p - 1)."""
        rng = rng or DeterministicRNG(0, label="schnorr-group")
        p, q, g = generate_schnorr_parameters(p_bits, q_bits, rng)
        group = cls(p=p, q=q, g=g)
        group.validate(check_primality=False)
        return group

    # ------------------------------------------------------------ operations
    @property
    def p_bits(self) -> int:
        """Bit length of the field prime ``p``."""
        return self.p.bit_length()

    @property
    def q_bits(self) -> int:
        """Bit length of the subgroup order ``q``."""
        return self.q.bit_length()

    @property
    def element_bits(self) -> int:
        """Wire size of one group element (transmitted as a ``p``-sized value)."""
        return self.p_bits

    def power(self, base: int, exponent: int) -> int:
        """``base ** exponent mod p`` with support for negative exponents."""
        return active_backend().modexp(base % self.p, exponent, self.p)

    def exp_g(self, exponent: int) -> int:
        """``g ** exponent mod p`` — the ``z_i = g^{r_i}`` operation.

        Every protocol's Round 1 exponentiates the *same* base ``g``, so this
        routes through a per-group fixed-base precomputation object (built
        lazily on first use and cached for the group's lifetime).  Because
        ``g`` has order ``q``, the exponent is first reduced modulo ``q`` —
        which also canonicalises negative exponents — and the result is
        bit-identical to ``pow(g, exponent, p)``.
        """
        return self.fixed_base_g.pow(exponent % self.q)

    @property
    def fixed_base_g(self):
        """The cached fixed-base exponentiation object for ``g`` (lazy)."""
        table = self.__dict__.get("_fixed_base_table")
        if table is None:
            table = active_backend().fixed_base(self.g, self.p, self.q.bit_length())
            # The dataclass is frozen; the cache is not a field, so set it
            # through object.__setattr__.
            object.__setattr__(self, "_fixed_base_table", table)
        return table

    def mul(self, *elements: int) -> int:
        """Product of elements modulo ``p``."""
        return product_mod(elements, self.p)

    def inv(self, element: int) -> int:
        """Multiplicative inverse modulo ``p``."""
        return active_backend().modinv(element, self.p)

    def div(self, numerator: int, denominator: int) -> int:
        """``numerator / denominator mod p`` — the ``z_{i+1} / z_{i-1}`` terms."""
        return (numerator * self.inv(denominator)) % self.p

    def product(self, elements: Iterable[int]) -> int:
        """Bulk product modulo ``p`` (``Z = prod z_i``, Lemma 1 check...)."""
        return product_mod(elements, self.p)

    def is_element(self, value: int) -> bool:
        """Whether ``value`` is a non-trivial element of ``Z_p^*``.

        Full subgroup membership (order exactly ``q``) costs an extra
        exponentiation; :meth:`is_subgroup_element` performs that check where
        the protocols require it.
        """
        return 1 <= value < self.p

    def is_subgroup_element(self, value: int) -> bool:
        """Whether ``value`` lies in the order-``q`` subgroup generated by ``g``."""
        if not self.is_element(value):
            return False
        return pow(value, self.q, self.p) == 1

    def random_exponent(self, rng: DeterministicRNG) -> int:
        """Sample ``r in Z_q^*`` (the paper's per-round secret exponents)."""
        return rng.zq_star(self.q)

    def describe(self) -> str:
        """Human-readable one-line summary used by example scripts."""
        return f"SchnorrGroup(|p|={self.p_bits} bits, |q|={self.q_bits} bits)"
