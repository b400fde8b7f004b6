"""Tests for the hashing substrate: SHA-256, H, HMAC and the KDF."""

from __future__ import annotations

import hashlib
import hmac as std_hmac
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.hashing.hashfuncs import HashFunction, default_hash
from repro.hashing.kdf import (
    derive_key,
    derive_key_from_group_element,
    hkdf_expand,
    hkdf_extract,
    hmac_sha256,
    verify_hmac,
)
from repro.hashing.sha256 import sha256_digest


class TestPureSHA256:
    """FIPS 180-4 vectors for ``sha256_digest`` (stdlib ``hashlib`` underneath)."""

    def test_empty_vector(self):
        assert (
            sha256_digest(b"").hex()
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc_vector(self):
        assert (
            sha256_digest(b"abc").hex()
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_two_block_vector(self):
        message = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert (
            sha256_digest(message).hex()
            == "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )

    @given(st.binary(max_size=500))
    @settings(max_examples=50)
    def test_matches_hashlib(self, data):
        assert sha256_digest(data) == hashlib.sha256(data).digest()


class TestHMAC:
    def test_rfc4231_case_1(self):
        key = b"\x0b" * 20
        data = b"Hi There"
        expected = "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        assert hmac_sha256(key, data).hex() == expected

    def test_rfc4231_long_key(self):
        key = b"\xaa" * 131
        data = b"Test Using Larger Than Block-Size Key - Hash Key First"
        expected = "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        assert hmac_sha256(key, data).hex() == expected

    def test_verify_helpers(self):
        tag = hmac_sha256(b"k", b"m")
        assert verify_hmac(b"k", b"m", tag)
        assert not verify_hmac(b"k", b"m2", tag)
        assert not verify_hmac(b"k2", b"m", tag)
        assert not verify_hmac(b"k", b"m", tag[:-1])

    @given(st.binary(max_size=100), st.binary(max_size=300))
    @settings(max_examples=50)
    def test_matches_stdlib(self, key, message):
        assert hmac_sha256(key, message) == std_hmac.new(key, message, hashlib.sha256).digest()


class TestHashFunction:
    def test_output_bits_respected(self):
        for bits in (80, 128, 160, 161, 256):
            h = HashFunction(output_bits=bits)
            digest_int = h.digest_int(b"data")
            assert digest_int < 2**bits
            assert len(h.digest(b"data")) == (bits + 7) // 8

    def test_invalid_output_bits(self):
        with pytest.raises(ParameterError):
            HashFunction(output_bits=0)
        with pytest.raises(ParameterError):
            HashFunction(output_bits=100000)

    def test_domain_separation(self):
        h = HashFunction()
        assert h.digest(b"x", domain=b"a") != h.digest(b"x", domain=b"b")
        assert h.challenge(b"x") != h.digest_int(b"x")

    def test_deterministic(self):
        assert HashFunction().digest(b"a", b"b") == HashFunction().digest(b"a", b"b")

    def test_field_boundaries_matter(self):
        h = HashFunction()
        assert h.digest(b"ab", b"c") != h.digest(b"a", b"bc")

    def test_identity_to_zn_coprime(self):
        h = default_hash()
        n = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
        for identity in (b"alice", b"bob", b"carol"):
            value = h.identity_to_zn(identity, n)
            assert 2 <= value < n
            assert math.gcd(value, n) == 1

    def test_identity_to_zn_small_modulus_raises(self):
        with pytest.raises(ParameterError):
            default_hash().identity_to_zn(b"x", 3)

    def test_hash_to_zq(self):
        h = default_hash()
        q = 101
        assert 0 <= h.hash_to_zq(b"m", q=q) < q
        with pytest.raises(ParameterError):
            h.hash_to_zq(b"m", q=1)

    def test_map_to_point_index_nonzero(self):
        h = default_hash()
        for identity in (b"a", b"b", b"c", b"d"):
            assert 1 <= h.map_to_point_index(identity, 97) < 97

    def test_callable_alias(self):
        h = default_hash()
        assert h(b"msg") == h.digest(b"msg")


class TestKDF:
    def test_rfc5869_case_1(self):
        prk = hkdf_extract(bytes.fromhex("000102030405060708090a0b0c"), b"\x0b" * 22)
        assert prk.hex() == (
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        )
        okm = hkdf_expand(prk, bytes.fromhex("f0f1f2f3f4f5f6f7f8f9"), 42)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c"
            "5db02d56ecc4c5bf34007208d5b887185865"
        )

    def test_hkdf_deterministic_and_length(self):
        prk = hkdf_extract(b"salt", b"ikm")
        out = hkdf_expand(prk, b"info", 42)
        assert len(out) == 42
        assert out == hkdf_expand(prk, b"info", 42)
        assert out != hkdf_expand(prk, b"other", 42)

    def test_hkdf_expand_limits(self):
        prk = hkdf_extract(b"", b"ikm")
        with pytest.raises(ParameterError):
            hkdf_expand(prk, b"", 0)
        with pytest.raises(ParameterError):
            hkdf_expand(prk, b"", 255 * 32 + 1)

    def test_derive_key_lengths(self):
        assert len(derive_key(b"secret")) == 16
        assert len(derive_key(b"secret", length=32)) == 32
        assert derive_key(b"secret", info=b"a") != derive_key(b"secret", info=b"b")

    def test_derive_from_group_element(self):
        key = derive_key_from_group_element(12345678901234567890)
        assert len(key) == 16
        assert key == derive_key_from_group_element(12345678901234567890)
        assert key != derive_key_from_group_element(12345678901234567891)
        with pytest.raises(ParameterError):
            derive_key_from_group_element(0)
