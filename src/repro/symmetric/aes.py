"""A from-scratch AES block cipher (AES-128/192/256).

The dynamic protocols of the paper (Join / Leave / Merge / Partition) encrypt
key-update material under the current group key using "a symmetric key
encryption E_k(m)".  The paper does not name a cipher; AES is the obvious
choice for 2006-era wireless devices, and Carman et al. (the paper's energy
reference [3]) measure AES-class symmetric costs as orders of magnitude below
modular exponentiation — which is exactly how the energy model treats them.

This is Rijndael's 32-bit table formulation (Daemen & Rijmen, *The Design of
Rijndael*, 2002, §4.2; FIPS-197 §5.1):

* the S-box and its inverse come from GF(2^8) log/antilog tables;
* SubBytes, ShiftRows and MixColumns fold into four 256-entry round tables,
  so a round is 16 table lookups and XORs over the state's four column words;
* decryption is the equivalent inverse cipher (FIPS-197 §5.3.5): four tables
  of its own, and round keys passed through InvMixColumns;
* the key schedule runs on 32-bit words for 128-, 192- and 256-bit keys.

There is no side-channel hardening: every table lookup is a memory access at
a key-dependent index, so cache timing can leak the key.  This is a research
simulator, not a production cipher.

Block modes (CTR, CBC) and padding live in :mod:`repro.symmetric.modes`.
"""

from __future__ import annotations

from functools import cached_property
from struct import Struct
from typing import List, Sequence, Tuple

from ..exceptions import ParameterError

__all__ = ["AES"]

Tables = Tuple[List[int], List[int], List[int], List[int]]
Words = Tuple[int, int, int, int]  # four column words: a state or a round key

# A block as four big-endian column words: row 0 is each word's top byte.
_BLOCK = Struct(">4I")
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _build_tables() -> Tuple[List[int], List[int], Tables, Tables]:
    """S-box, inverse S-box, and the encryption and decryption round tables."""
    # Successive powers of the generator x + 1 modulo x^8 + x^4 + x^3 + x + 1.
    exp, log = [0] * 255, [0] * 256
    x = 1
    for i in range(255):
        exp[i], log[x] = x, i
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)

    def mul(a: int, b: int) -> int:
        return exp[(log[a] + log[b]) % 255] if a and b else 0

    sbox, inv_sbox = [0] * 256, [0] * 256
    for a in range(256):
        # Multiplicative inverse, then the affine map b + rotl(b, 1..4) + 0x63.
        b = exp[-log[a] % 255] if a else 0
        s = b ^ 0x63
        for _ in range(4):
            b = ((b << 1) | (b >> 7)) & 0xFF
            s ^= b
        sbox[a], inv_sbox[s] = s, a

    def rotations(column: List[int]) -> Tables:
        # Table r serves the byte in row r: its MixColumns column rotated r rows.
        tables = [column]
        for _ in range(3):
            tables.append([(w >> 8) | ((w & 0xFF) << 24) for w in tables[-1]])
        return tables[0], tables[1], tables[2], tables[3]

    enc = rotations([mul(s, 2) << 24 | s << 16 | s << 8 | mul(s, 3) for s in sbox])
    dec = rotations([mul(s, 14) << 24 | mul(s, 9) << 16 | mul(s, 13) << 8 | mul(s, 11) for s in inv_sbox])
    return sbox, inv_sbox, enc, dec


_SBOX, _INV_SBOX, _ENC, _DEC = _build_tables()


def _sub_word(word: int) -> int:
    box = _SBOX
    return box[word >> 24] << 24 | box[word >> 16 & 255] << 16 | box[word >> 8 & 255] << 8 | box[word & 255]


def _inv_mix_column(word: int) -> int:
    # The decryption tables fold in the inverse S-box; the S-box cancels it.
    (d0, d1, d2, d3), box = _DEC, _SBOX
    return d0[box[word >> 24]] ^ d1[box[word >> 16 & 255]] ^ d2[box[word >> 8 & 255]] ^ d3[box[word & 255]]


def _rounds(
    s0: int, s1: int, s2: int, s3: int, keys: Sequence[Words], tables: Tables, box: Sequence[int]
) -> Words:
    """Run the cipher over four column words; row ``r`` of column ``c`` reads column ``c + r``."""
    t0, t1, t2, t3 = tables
    k0, k1, k2, k3 = keys[0]
    s0, s1, s2, s3 = s0 ^ k0, s1 ^ k1, s2 ^ k2, s3 ^ k3
    for k0, k1, k2, k3 in keys[1:-1]:
        s0, s1, s2, s3 = (
            t0[s0 >> 24] ^ t1[s1 >> 16 & 255] ^ t2[s2 >> 8 & 255] ^ t3[s3 & 255] ^ k0,
            t0[s1 >> 24] ^ t1[s2 >> 16 & 255] ^ t2[s3 >> 8 & 255] ^ t3[s0 & 255] ^ k1,
            t0[s2 >> 24] ^ t1[s3 >> 16 & 255] ^ t2[s0 >> 8 & 255] ^ t3[s1 & 255] ^ k2,
            t0[s3 >> 24] ^ t1[s0 >> 16 & 255] ^ t2[s1 >> 8 & 255] ^ t3[s2 & 255] ^ k3,
        )
    k0, k1, k2, k3 = keys[-1]
    return (
        (box[s0 >> 24] << 24 | box[s1 >> 16 & 255] << 16 | box[s2 >> 8 & 255] << 8 | box[s3 & 255]) ^ k0,
        (box[s1 >> 24] << 24 | box[s2 >> 16 & 255] << 16 | box[s3 >> 8 & 255] << 8 | box[s0 & 255]) ^ k1,
        (box[s2 >> 24] << 24 | box[s3 >> 16 & 255] << 16 | box[s0 >> 8 & 255] << 8 | box[s1 & 255]) ^ k2,
        (box[s3 >> 24] << 24 | box[s0 >> 16 & 255] << 16 | box[s1 >> 8 & 255] << 8 | box[s2 & 255]) ^ k3,
    )


class AES:
    """AES block cipher with a 128-, 192- or 256-bit key.

    >>> cipher = AES(bytes(16))
    >>> cipher.encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    block_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ParameterError("AES key must be 16, 24 or 32 bytes")
        self.key = bytes(key)
        nk = len(key) // 4
        rounds = nk + 6
        words = [int.from_bytes(self.key[i : i + 4], "big") for i in range(0, len(key), 4)]
        for i in range(nk, 4 * (rounds + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                temp = _sub_word((temp << 8 & 0xFFFFFFFF) | temp >> 24) ^ _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = _sub_word(temp)
            words.append(words[i - nk] ^ temp)
        self._enc_keys: List[Words] = [tuple(words[i : i + 4]) for i in range(0, len(words), 4)]

    @cached_property
    def _dec_keys(self) -> List[Words]:
        """Round keys of the equivalent inverse cipher, built on first use (CTR never decrypts)."""
        enc = self._enc_keys
        dec = [enc[-1], *(tuple(map(_inv_mix_column, key)) for key in reversed(enc[1:-1])), enc[0]]
        # InvShiftRows moves row r right where ShiftRows moves it left, so the
        # decryption keys, input and output list their columns as 0, 3, 2, 1:
        # read that way, _rounds serves both directions.
        return [(w0, w3, w2, w1) for w0, w1, w2, w3 in dec]

    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(plaintext) != 16:
            raise ParameterError("AES block must be exactly 16 bytes")
        return _BLOCK.pack(*_rounds(*_BLOCK.unpack(plaintext), self._enc_keys, _ENC, _SBOX))

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(ciphertext) != 16:
            raise ParameterError("AES block must be exactly 16 bytes")
        w0, w1, w2, w3 = _BLOCK.unpack(ciphertext)
        r0, r3, r2, r1 = _rounds(w0, w3, w2, w1, self._dec_keys, _DEC, _INV_SBOX)
        return _BLOCK.pack(r0, r1, r2, r3)
