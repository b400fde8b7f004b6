"""The crypto backend every big-int hot path runs on, picked by one rule.

``native`` (gmpy2/GMP) when gmpy2 is importable, ``pure`` (CPython)
otherwise, fixed at import.  Backends are bit-identical, so the rule changes
host time only, never a result; reports and bench artifacts record
``active_backend().name``.
"""

from __future__ import annotations

from .base import CryptoBackend
from .native import HAVE_GMPY2, NativeBackend
from .pure import PureBackend

__all__ = ["active_backend"]

_ACTIVE: CryptoBackend = NativeBackend() if HAVE_GMPY2 else PureBackend()


def active_backend() -> CryptoBackend:
    """The backend every big-int hot path routes through."""
    return _ACTIVE
