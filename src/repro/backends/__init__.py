"""Crypto backends for the big-int hot paths.

See :mod:`repro.backends.base` for the primitive contract.  Two backends
implement it, ``pure`` and ``native``, and :func:`active_backend` serves
``native`` exactly when gmpy2 is importable (see
:mod:`repro.backends.registry`).
"""

from .base import CryptoBackend, FixedBaseTable
from .native import HAVE_GMPY2, NativeBackend
from .pure import PureBackend
from .registry import active_backend

__all__ = [
    "CryptoBackend",
    "FixedBaseTable",
    "PureBackend",
    "NativeBackend",
    "HAVE_GMPY2",
    "active_backend",
]
