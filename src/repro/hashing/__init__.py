"""Hashing substrate: SHA-256 and HMAC from the stdlib, the paper's ``H``, and the HKDF."""

from .hashfuncs import HashFunction, default_hash
from .kdf import (
    derive_key,
    derive_key_from_group_element,
    hkdf_expand,
    hkdf_extract,
    hmac_sha256,
    verify_hmac,
)
from .sha256 import sha256_digest

__all__ = [
    "HashFunction",
    "default_hash",
    "hmac_sha256",
    "verify_hmac",
    "derive_key",
    "derive_key_from_group_element",
    "hkdf_expand",
    "hkdf_extract",
    "sha256_digest",
]
