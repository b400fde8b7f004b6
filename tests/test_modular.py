"""Unit and property tests for :mod:`repro.mathutils.modular`."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.mathutils.modular import (
    crt,
    egcd,
    gcd,
    int_nth_root,
    is_perfect_square,
    is_quadratic_residue,
    jacobi,
    lcm,
    legendre,
    modexp,
    modinv,
    product_mod,
)


class TestEgcd:
    def test_basic_identity(self):
        g, x, y = egcd(240, 46)
        assert g == 2
        assert 240 * x + 46 * y == g

    def test_zero_arguments(self):
        assert egcd(0, 5)[0] == 5
        assert egcd(7, 0)[0] == 7
        assert egcd(0, 0)[0] == 0

    def test_negative_arguments(self):
        g, x, y = egcd(-12, 18)
        assert g == 6
        assert -12 * x + 18 * y == 6

    @given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=0, max_value=10**30))
    def test_matches_math_gcd(self, a, b):
        g, x, y = egcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g


class TestModinv:
    def test_small_inverse(self):
        assert modinv(3, 11) == 4

    def test_inverse_roundtrip(self):
        n = 2**61 - 1
        for a in (2, 12345, n - 2):
            inv = modinv(a, n)
            assert (a * inv) % n == 1

    def test_no_inverse_raises(self):
        with pytest.raises(ParameterError, match=r"^6 has no inverse modulo 9 \(gcd=3\)$"):
            modinv(6, 9)
        with pytest.raises(ParameterError, match=r"^3 has no inverse modulo 9 \(gcd=3\)$"):
            modinv(-6, 9)

    def test_zero_modulus_raises(self):
        with pytest.raises(ParameterError):
            modinv(1, 0)

    @given(st.integers(min_value=-(10**30), max_value=10**30), st.integers(min_value=1, max_value=10**30))
    def test_matches_extended_gcd(self, a, n):
        g, x, _ = egcd(a % n, n)
        if g == 1:
            assert modinv(a, n) == x % n
        else:
            with pytest.raises(ParameterError):
                modinv(a, n)

    @given(st.integers(min_value=1, max_value=10**18))
    def test_inverse_modulo_prime(self, a):
        p = 2_305_843_009_213_693_951  # Mersenne prime 2^61 - 1
        a = a % p or 1
        assert (a * modinv(a, p)) % p == 1


class TestModexp:
    def test_matches_builtin_pow(self):
        assert modexp(3, 100, 101) == pow(3, 100, 101)

    def test_negative_exponent(self):
        p = 101
        assert modexp(3, -1, p) == modinv(3, p)
        assert (modexp(5, -7, p) * pow(5, 7, p)) % p == 1

    def test_invalid_modulus(self):
        with pytest.raises(ParameterError):
            modexp(2, 3, 0)

    @given(
        st.integers(min_value=0, max_value=10**12),
        st.integers(min_value=0, max_value=2000),
    )
    def test_agrees_with_pow(self, base, exponent):
        modulus = 1_000_003
        assert modexp(base, exponent, modulus) == pow(base, exponent, modulus)


class TestCrt:
    def test_two_congruences(self):
        x = crt([2, 3], [3, 5])
        assert x % 3 == 2 and x % 5 == 3

    def test_three_congruences(self):
        x = crt([1, 2, 3], [5, 7, 11])
        assert x % 5 == 1 and x % 7 == 2 and x % 11 == 3

    def test_non_coprime_raises(self):
        with pytest.raises(ParameterError):
            crt([1, 2], [4, 6])

    def test_length_mismatch_raises(self):
        with pytest.raises(ParameterError):
            crt([1, 2], [5])

    def test_empty_raises(self):
        with pytest.raises(ParameterError):
            crt([], [])

    @given(st.integers(min_value=0, max_value=10**9))
    def test_recombination_roundtrip(self, x):
        p, q = 10_007, 10_009
        x %= p * q
        assert crt([x % p, x % q], [p, q]) == x


class TestJacobiLegendre:
    def test_quadratic_residues_mod_prime(self):
        p = 23
        residues = {pow(x, 2, p) for x in range(1, p)}
        for a in range(1, p):
            expected = 1 if a in residues else -1
            assert jacobi(a, p) == expected
            assert legendre(a, p) == expected
            assert is_quadratic_residue(a, p) == (a in residues)

    def test_zero_is_not_residue(self):
        assert jacobi(0, 17) == 0
        assert not is_quadratic_residue(0, 17)

    def test_even_modulus_raises(self):
        with pytest.raises(ParameterError):
            jacobi(3, 10)

    def test_multiplicativity(self):
        n = 9907  # odd prime
        for a, b in [(2, 3), (5, 11), (123, 456)]:
            assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


class TestProductMod:
    def test_simple_product(self):
        assert product_mod([2, 3, 4], 100) == 24

    def test_reduction(self):
        assert product_mod([10, 10, 10], 7) == 1000 % 7

    def test_empty_product_is_one(self):
        assert product_mod([], 13) == 1

    def test_invalid_modulus(self):
        with pytest.raises(ParameterError):
            product_mod([1, 2], 0)

    @given(st.lists(st.integers(min_value=0, max_value=10**9), max_size=30))
    def test_matches_naive(self, values):
        modulus = 1_000_000_007
        naive = 1
        for v in values:
            naive = (naive * v) % modulus
        assert product_mod(values, modulus) == naive


class TestRootsAndSquares:
    def test_nth_root_exact(self):
        assert int_nth_root(27, 3) == 3
        assert int_nth_root(1 << 100, 2) == 1 << 50

    def test_nth_root_floor(self):
        assert int_nth_root(26, 3) == 2
        assert int_nth_root(2, 10) == 1

    def test_nth_root_edge_cases(self):
        assert int_nth_root(0, 5) == 0
        assert int_nth_root(1, 5) == 1

    def test_nth_root_invalid(self):
        with pytest.raises(ParameterError):
            int_nth_root(-1, 2)
        with pytest.raises(ParameterError):
            int_nth_root(4, 0)

    def test_perfect_square(self):
        assert is_perfect_square(144)
        assert not is_perfect_square(145)
        assert not is_perfect_square(-4)

    @given(st.integers(min_value=0, max_value=10**20), st.integers(min_value=1, max_value=6))
    def test_root_bounds(self, x, n):
        r = int_nth_root(x, n)
        assert r**n <= x < (r + 1) ** n


class TestGcdLcm:
    def test_gcd(self):
        assert gcd(12, 18) == 6

    def test_lcm(self):
        assert lcm(4, 6) == 12
        assert lcm(0, 5) == 0

    @given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=1, max_value=10**12))
    def test_gcd_lcm_product(self, a, b):
        assert gcd(a, b) * lcm(a, b) == a * b
