"""One-shot SHA-256, the library's default hash ``H``.

A thin helper over :mod:`hashlib`'s C implementation: the FIPS 180-4 test
vectors in the test suite pin it, and it sits under every challenge hash and
identity mapping — at scenario scale it runs millions of times.
"""

from __future__ import annotations

import hashlib

__all__ = ["sha256_digest"]


def sha256_digest(*parts: bytes) -> bytes:
    """One-shot SHA-256 of the concatenation of ``parts``."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()
