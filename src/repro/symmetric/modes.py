"""Block-cipher modes of operation and padding for the AES substrate.

CTR builds its keystream a block at a time and XORs it onto the message as
one big-endian integer; CBC chains its blocks through the same XOR.
"""

from __future__ import annotations

from ..exceptions import DecryptionError, ParameterError
from .aes import AES

__all__ = ["pkcs7_pad", "pkcs7_unpad", "encrypt_cbc", "decrypt_cbc", "ctr_keystream", "encrypt_ctr", "decrypt_ctr"]


def _xor(data: bytes, mask: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    return (int.from_bytes(data, "big") ^ int.from_bytes(mask, "big")).to_bytes(len(data), "big")


def pkcs7_pad(data: bytes, block_size: int = 16) -> bytes:
    """Apply PKCS#7 padding up to ``block_size``."""
    if not 1 <= block_size <= 255:
        raise ParameterError("block_size must be in [1, 255]")
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_size: int = 16) -> bytes:
    """Remove PKCS#7 padding, raising :class:`DecryptionError` on malformed input."""
    if not data or len(data) % block_size != 0:
        raise DecryptionError("ciphertext length is not a multiple of the block size")
    pad_len = data[-1]
    if pad_len < 1 or pad_len > block_size:
        raise DecryptionError("invalid padding length")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise DecryptionError("invalid padding bytes")
    return data[:-pad_len]


def encrypt_cbc(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """AES-CBC encryption with PKCS#7 padding."""
    if len(iv) != 16:
        raise ParameterError("CBC IV must be 16 bytes")
    cipher = AES(key)
    padded = pkcs7_pad(plaintext)
    out = bytearray()
    previous = iv
    for offset in range(0, len(padded), 16):
        encrypted = cipher.encrypt_block(_xor(padded[offset : offset + 16], previous))
        out += encrypted
        previous = encrypted
    return bytes(out)


def decrypt_cbc(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    """AES-CBC decryption with PKCS#7 unpadding."""
    if len(iv) != 16:
        raise ParameterError("CBC IV must be 16 bytes")
    if len(ciphertext) % 16 != 0:
        raise DecryptionError("CBC ciphertext must be a multiple of 16 bytes")
    cipher = AES(key)
    out = bytearray()
    previous = iv
    for offset in range(0, len(ciphertext), 16):
        block = ciphertext[offset : offset + 16]
        out += _xor(cipher.decrypt_block(block), previous)
        previous = block
    return pkcs7_unpad(bytes(out))


def ctr_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Generate ``length`` bytes of AES-CTR keystream for a 12-byte nonce."""
    if len(nonce) != 12:
        raise ParameterError("CTR nonce must be 12 bytes")
    encrypt = AES(key).encrypt_block
    blocks = (length + 15) // 16
    return b"".join(encrypt(nonce + counter.to_bytes(4, "big")) for counter in range(blocks))[:length]


def encrypt_ctr(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """AES-CTR encryption (no padding required)."""
    return _xor(plaintext, ctr_keystream(key, nonce, len(plaintext)))


def decrypt_ctr(key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    """AES-CTR decryption (identical to encryption)."""
    return encrypt_ctr(key, nonce, ciphertext)
