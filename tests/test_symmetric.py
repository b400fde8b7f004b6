"""Tests for the AES substrate, block modes and the authenticated envelope."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DecryptionError, ParameterError
from repro.mathutils.rand import DeterministicRNG
from repro.symmetric.aes import AES
from repro.symmetric.authenc import AuthenticatedCiphertext, SymmetricEnvelope, group_key_to_bytes
from repro.symmetric.modes import (
    decrypt_cbc,
    decrypt_ctr,
    encrypt_cbc,
    encrypt_ctr,
    pkcs7_pad,
    pkcs7_unpad,
)

# NIST SP 800-38A, F.1: the four ECB plaintext blocks shared by every key size.
_SP800_38A_PLAINTEXT = (
    "6bc1bee22e409f96e93d7e117393172a",
    "ae2d8a571e03ac9c9eb76fac45af8e51",
    "30c81c46a35ce411e5fbc1191a0a52ef",
    "f69f2445df4f9b17ad2b417be66c3710",
)


class TestAESBlocks:
    def test_fips197_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES(key).encrypt_block(plaintext) == expected
        assert AES(key).decrypt_block(expected) == plaintext

    def test_fips197_aes192(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        assert AES(key).encrypt_block(plaintext) == expected

    def test_fips197_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert AES(key).encrypt_block(plaintext) == expected
        assert AES(key).decrypt_block(expected) == plaintext

    def test_zero_key_zero_block(self):
        assert AES(bytes(16)).encrypt_block(bytes(16)).hex() == "66e94bd4ef8a2c3b884cfa59ca342b2e"

    @pytest.mark.parametrize(
        "key, ciphertexts",
        [
            pytest.param(
                "2b7e151628aed2a6abf7158809cf4f3c",
                (
                    "3ad77bb40d7a3660a89ecaf32466ef97",
                    "f5d3d58503b9699de785895a96fdbaaf",
                    "43b1cd7f598ece23881b00e3ed030688",
                    "7b0c785e27e8ad3f8223207104725dd4",
                ),
                id="F.1.1-aes128",
            ),
            pytest.param(
                "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
                (
                    "bd334f1d6e45f25ff712a214571fa5cc",
                    "974104846d0ad3ad7734ecb3ecee4eef",
                    "ef7afd2270e2e60adce0ba2face6444e",
                    "9a4b41ba738d6c72fb16691603c18e0e",
                ),
                id="F.1.3-aes192",
            ),
            pytest.param(
                "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
                (
                    "f3eed1bdb5d2a03c064b5a7e3db181f8",
                    "591ccb10d410ed26dc5ba74a31362870",
                    "b6ed21b99ca6f4f9f153e7b1beafed1d",
                    "23304b7a39f9f3ff067d8d8f9e24ecc7",
                ),
                id="F.1.5-aes256",
            ),
        ],
    )
    def test_sp800_38a_ecb(self, key, ciphertexts):
        cipher = AES(bytes.fromhex(key))
        for plaintext, ciphertext in zip(_SP800_38A_PLAINTEXT, ciphertexts):
            assert cipher.encrypt_block(bytes.fromhex(plaintext)).hex() == ciphertext
            assert cipher.decrypt_block(bytes.fromhex(ciphertext)).hex() == plaintext

    @pytest.mark.parametrize(
        "key_len, expected",
        [
            (16, "022690d26cf28f0850e19d13c51ced1249a629a2bda77e05ca1b0c9d904ca280"),
            (24, "b7202b53cdf2ac7b3d13b648cb134e2331edba597d842439811972d1f91d7659"),
            (32, "5dce45c0655c766ead842385d2d2e553ba6e19351a48c084daf71ac09ad4545f"),
        ],
    )
    def test_seeded_digest_pin(self, key_len, expected):
        # 512 (key, block) pairs drawn from SHA-512, both directions per pair:
        # a change to the cipher's internals cannot move one output bit
        # without moving the digest.
        digest = hashlib.sha256()
        for i in range(512):
            seed = hashlib.sha512(b"aes-pin/%d/%d" % (key_len, i)).digest()
            cipher = AES(seed[:key_len])
            block = seed[32:48]
            digest.update(cipher.encrypt_block(block))
            digest.update(cipher.decrypt_block(block))
        assert digest.hexdigest() == expected

    def test_invalid_key_and_block_sizes(self):
        with pytest.raises(ParameterError):
            AES(b"short")
        cipher = AES(bytes(16))
        with pytest.raises(ParameterError):
            cipher.encrypt_block(b"too short")
        with pytest.raises(ParameterError):
            cipher.decrypt_block(bytes(17))

    @given(st.binary(min_size=16, max_size=16), st.sampled_from([16, 24, 32]))
    @settings(max_examples=25)
    def test_encrypt_decrypt_roundtrip(self, block, key_len):
        key = bytes(range(key_len))
        cipher = AES(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


class TestPadding:
    def test_pad_lengths(self):
        assert pkcs7_pad(b"") == bytes([16]) * 16
        assert pkcs7_pad(b"a" * 16)[-1] == 16
        assert len(pkcs7_pad(b"abc")) == 16

    def test_unpad_roundtrip(self):
        for length in range(0, 40):
            data = bytes(range(length % 256))[:length]
            assert pkcs7_unpad(pkcs7_pad(data)) == data

    def test_unpad_rejects_garbage(self):
        with pytest.raises(DecryptionError):
            pkcs7_unpad(b"")
        with pytest.raises(DecryptionError):
            pkcs7_unpad(b"a" * 15 + b"\x00")
        with pytest.raises(DecryptionError):
            pkcs7_unpad(b"a" * 14 + b"\x02\x03")
        with pytest.raises(DecryptionError):
            pkcs7_unpad(b"a" * 17)

    def test_pad_invalid_block_size(self):
        with pytest.raises(ParameterError):
            pkcs7_pad(b"x", 0)


class TestModes:
    def test_cbc_roundtrip(self):
        key, iv = bytes(16), bytes(range(16))
        for message in (b"", b"short", b"x" * 64, bytes(range(200))):
            assert decrypt_cbc(key, iv, encrypt_cbc(key, iv, message)) == message

    def test_cbc_iv_matters(self):
        key = bytes(16)
        ct1 = encrypt_cbc(key, bytes(16), b"message")
        ct2 = encrypt_cbc(key, bytes([1] * 16), b"message")
        assert ct1 != ct2

    def test_cbc_invalid_inputs(self):
        with pytest.raises(ParameterError):
            encrypt_cbc(bytes(16), b"shortiv", b"m")
        with pytest.raises(DecryptionError):
            decrypt_cbc(bytes(16), bytes(16), b"not a multiple of 16")

    def test_ctr_roundtrip_and_symmetry(self):
        key, nonce = bytes(16), bytes(12)
        message = b"counter mode needs no padding"
        ciphertext = encrypt_ctr(key, nonce, message)
        assert len(ciphertext) == len(message)
        assert decrypt_ctr(key, nonce, ciphertext) == message

    def test_ctr_known_answer_multi_block(self):
        # Seven blocks, the last one partial (100 = 6 * 16 + 4 bytes).
        key, nonce = bytes(range(16)), bytes(range(100, 112))
        message = bytes((7 * i + 3) % 256 for i in range(100))
        ciphertext = encrypt_ctr(key, nonce, message)
        assert ciphertext.hex() == (
            "4d484a3fefeafd6e1e255dcb9bca3e8e16f82d8d6fd18c0c8d0f47eed38a9577"
            "f988bf5d2404b5ee801c7e20b1f46ea063d21997fddfa0de7ffd28371b5c424f"
            "793683fc54feca65715a2e569a9c612be8a75c3bd2501c4ca8fc78dd4b10f0fc"
            "c730a3b5"
        )
        assert decrypt_ctr(key, nonce, ciphertext) == message

    def test_cbc_known_answer(self):
        key, iv = bytes(range(200, 224)), bytes(range(16, 32))
        message = bytes((11 * i + 5) % 256 for i in range(40))
        ciphertext = encrypt_cbc(key, iv, message)
        assert ciphertext.hex() == (
            "eb4d44ba7abb23dcd21c00ff0ea28dd9e0a44398e07c992172fb7292cc57cd54"
            "202470aafb65a90567dacf77c9e0eef2"
        )
        assert decrypt_cbc(key, iv, ciphertext) == message

    def test_ctr_nonce_size(self):
        with pytest.raises(ParameterError):
            encrypt_ctr(bytes(16), bytes(11), b"m")

    @given(st.binary(max_size=300))
    @settings(max_examples=25)
    def test_ctr_roundtrip_property(self, message):
        key, nonce = bytes(range(16)), bytes(range(12))
        assert decrypt_ctr(key, nonce, encrypt_ctr(key, nonce, message)) == message


class TestSymmetricEnvelope:
    def test_seal_known_answer(self):
        # Envelope bytes pinned for a fixed key and nonce stream: the MAC
        # and KDF must stay the same functions bit for bit.
        env = SymmetricEnvelope(98765432109876543210)
        sealed = env.seal(b"K* group element", b"U1", DeterministicRNG(2006, label="envelope"))
        assert sealed.nonce.hex() == "0f2ef8fcf3314b71feab907f"
        assert sealed.ciphertext.hex() == (
            "8a6e0681a378b9a6b2c269e1320260ec3fc66c861dc898558036c89e"
        )
        assert sealed.tag.hex() == (
            "d9988ed2ce964a654531a975d4e79680b8bb72a92229e07393c29bc9d6f5a239"
        )
        assert env.open(sealed, b"U1") == b"K* group element"

    def test_seal_open_roundtrip(self, rng):
        env = SymmetricEnvelope(b"a 16-byte secret")
        sealed = env.seal(b"payload", b"sender", rng)
        assert env.open(sealed, b"sender") == b"payload"

    def test_group_element_roundtrip(self, rng):
        env = SymmetricEnvelope(98765432109876543210)
        sealed = env.seal_group_element(123456789, b"U1", rng)
        assert env.open_group_element(sealed, b"U1") == 123456789

    def test_wrong_sender_rejected(self, rng):
        env = SymmetricEnvelope(42)
        sealed = env.seal(b"data", b"U1", rng)
        with pytest.raises(DecryptionError):
            env.open(sealed, b"U2")

    def test_wrong_key_rejected(self, rng):
        sealed = SymmetricEnvelope(42).seal(b"data", b"U1", rng)
        with pytest.raises(DecryptionError):
            SymmetricEnvelope(43).open(sealed, b"U1")

    def test_tampered_ciphertext_rejected(self, rng):
        env = SymmetricEnvelope(42)
        sealed = env.seal(b"data", b"U1", rng)
        tampered = AuthenticatedCiphertext(
            nonce=sealed.nonce,
            ciphertext=bytes([sealed.ciphertext[0] ^ 1]) + sealed.ciphertext[1:],
            tag=sealed.tag,
        )
        with pytest.raises(DecryptionError):
            env.open(tampered, b"U1")

    def test_tampered_tag_rejected(self, rng):
        env = SymmetricEnvelope(42)
        sealed = env.seal(b"data", b"U1", rng)
        tampered = AuthenticatedCiphertext(
            nonce=sealed.nonce, ciphertext=sealed.ciphertext, tag=bytes(32)
        )
        with pytest.raises(DecryptionError):
            env.open(tampered, b"U1")

    def test_wire_roundtrip_and_size(self, rng):
        env = SymmetricEnvelope(42)
        sealed = env.seal(b"data", b"U1", rng)
        blob = sealed.to_bytes()
        parsed = AuthenticatedCiphertext.from_bytes(blob)
        assert parsed == sealed
        assert sealed.wire_bits == 8 * len(blob)

    def test_invalid_key_material(self):
        with pytest.raises(ParameterError):
            SymmetricEnvelope(b"")
        with pytest.raises(ParameterError):
            SymmetricEnvelope(3.5)  # type: ignore[arg-type]
        with pytest.raises(ParameterError):
            group_key_to_bytes(0)

    @given(st.binary(max_size=200), st.binary(min_size=1, max_size=16))
    @settings(max_examples=25)
    def test_roundtrip_property(self, payload, sender):
        env = SymmetricEnvelope(b"0123456789abcdef")
        rng = DeterministicRNG(payload + sender)
        assert env.open(env.seal(payload, sender, rng), sender) == payload
