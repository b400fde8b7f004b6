"""Fixed-base exponentiation and simultaneous multi-exponentiation.

The performance layer must be *invisible* except for speed: every result is
asserted bit-identical to builtin ``pow``-based computation.
"""

from __future__ import annotations

import pytest

from repro.core import SystemSetup
from repro.core.base import compute_bd_key
from repro.exceptions import ParameterError
from repro.groups.schnorr import SchnorrGroup
from repro.mathutils.modular import FixedBaseExp, modinv, multi_exp
from repro.mathutils.rand import DeterministicRNG
from repro.pki import Identity


class TestFixedBaseExp:
    def test_matches_pow_over_random_exponents(self, small_group, rng):
        fixed = FixedBaseExp(small_group.g, small_group.p, small_group.q.bit_length())
        for _ in range(200):
            e = rng.randbelow(small_group.q)
            assert fixed.pow(e) == pow(small_group.g, e, small_group.p)

    def test_edge_exponents(self, small_group):
        fixed = FixedBaseExp(small_group.g, small_group.p, small_group.q.bit_length())
        for e in (0, 1, 2, small_group.q - 1, small_group.q):
            assert fixed.pow(e) == pow(small_group.g, e, small_group.p)

    def test_every_window_width(self, small_group, rng):
        exponents = [rng.randbelow(small_group.q) for _ in range(20)]
        for window in (1, 2, 3, 5, 8):
            fixed = FixedBaseExp(
                small_group.g, small_group.p, small_group.q.bit_length(), window=window
            )
            for e in exponents:
                assert fixed.pow(e) == pow(small_group.g, e, small_group.p)

    def test_oversized_exponent_falls_back_to_pow(self, small_group):
        fixed = FixedBaseExp(small_group.g, small_group.p, 16)
        huge = small_group.q * 12345 + 678
        assert fixed.pow(huge) == pow(small_group.g, huge, small_group.p)

    def test_rejects_negative_exponent_and_bad_parameters(self, small_group):
        fixed = FixedBaseExp(small_group.g, small_group.p, 32)
        with pytest.raises(ParameterError):
            fixed.pow(-1)
        with pytest.raises(ParameterError):
            FixedBaseExp(small_group.g, 0, 32)
        with pytest.raises(ParameterError):
            FixedBaseExp(small_group.g, small_group.p, 0)
        with pytest.raises(ParameterError):
            FixedBaseExp(small_group.g, small_group.p, 32, window=0)

    def test_exp_g_routes_through_cache_and_matches_pow(self, small_group, rng):
        # A fresh, uncached group instance: the table must appear lazily.
        group = SchnorrGroup(p=small_group.p, q=small_group.q, g=small_group.g)
        assert "_fixed_base_table" not in group.__dict__
        exponents = [rng.randbelow(group.q * 3) for _ in range(50)] + [0, 1, group.q - 1]
        for e in exponents:
            assert group.exp_g(e) == pow(group.g, e, group.p)
        assert "_fixed_base_table" in group.__dict__

    def test_exp_g_negative_exponent_unchanged(self, small_group, rng):
        group = small_group
        for _ in range(10):
            e = group.random_exponent(rng)
            # The pre-cache semantics: invert the base, exponentiate by -e.
            reference = pow(modinv(group.g, group.p), e, group.p)
            assert group.exp_g(-e) == reference

    def test_initial_gka_exercises_the_fixed_base_table(self):
        # A setup on a *fresh* group object (the named sets are process-cached
        # and may already hold a table built by other tests).
        cached = SystemSetup.from_param_sets("test-256", "gq-test-256")
        group = SchnorrGroup(p=cached.group.p, q=cached.group.q, g=cached.group.g)
        setup = SystemSetup(group=group, pkg=cached.pkg, hash_function=cached.hash_function)
        from repro.core import ProposedGKAProtocol

        result = ProposedGKAProtocol(setup).run(
            [Identity(f"fb-{i}") for i in range(4)], seed=99
        )
        assert result.all_agree()
        assert "_fixed_base_table" in group.__dict__  # Round 1 built and used it


class TestMultiExp:
    def _reference(self, bases, exponents, modulus):
        acc = 1
        for base, exponent in zip(bases, exponents):
            if exponent < 0:
                base = modinv(base, modulus)
                exponent = -exponent
            acc = (acc * pow(base, exponent, modulus)) % modulus
        return acc

    def test_matches_product_of_pows(self, small_group, rng):
        p = small_group.p
        for size in (1, 2, 3, 7, 20):
            bases = [rng.randbelow(p - 2) + 1 for _ in range(size)]
            exponents = [rng.randbelow(small_group.q) for _ in range(size)]
            assert multi_exp(bases, exponents, p) == self._reference(bases, exponents, p)

    def test_negative_and_zero_exponents(self, small_group, rng):
        p = small_group.p
        bases = [rng.randbelow(p - 2) + 1 for _ in range(4)]
        exponents = [-3, 0, rng.randbelow(small_group.q), -rng.randbelow(small_group.q)]
        assert multi_exp(bases, exponents, p) == self._reference(bases, exponents, p)

    def test_empty_and_all_zero(self, small_group):
        assert multi_exp([], [], small_group.p) == 1
        assert multi_exp([5, 7], [0, 0], small_group.p) == 1

    def test_mismatched_lengths_and_bad_modulus(self):
        with pytest.raises(ParameterError):
            multi_exp([2, 3], [1], 97)
        with pytest.raises(ParameterError):
            multi_exp([2], [1], 0)

    def test_compute_bd_key_identical_to_naive(self, small_group, rng):
        """The telescoped BD key equals the textbook per-term computation.

        Also on forged X tables (arbitrary values, some beyond ``p``), where
        the telescoping identity no longer yields a shared key.
        """
        group = small_group
        for n in (2, 3, 6, 24):
            names = [f"u{i}" for i in range(n)]
            r = {name: group.random_exponent(rng) for name in names}
            z = {name: group.exp_g(r[name]) for name in names}
            honest = {}
            for i, name in enumerate(names):
                right, left = names[(i + 1) % n], names[(i - 1) % n]
                honest[name] = group.power(group.div(z[right], z[left]), r[name])
            forged = {name: rng.randbelow(2 * group.p) for name in names}
            for x in (honest, forged):
                keys = set()
                for i, name in enumerate(names):
                    # Naive reference: one pow per term, multiplied together.
                    left = names[(i - 1) % n]
                    naive = group.power(z[left], n * r[name])
                    for offset in range(n - 1):
                        other = names[(i + offset) % n]
                        naive = (naive * group.power(x[other], n - 1 - offset)) % group.p
                    key = compute_bd_key(group, names, name, r[name], z, x)
                    assert key == naive
                    keys.add(key)
                if x is honest:
                    assert len(keys) == 1  # everyone agrees
