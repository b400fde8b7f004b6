"""Baseline protocols the paper compares against: plain BD, sign-all
authenticated BD (SOK / ECDSA / DSA) and the SSN ID-based GKA.  The paper's
dynamic-membership baseline, re-executing authenticated BD over the new
member set, is the ``bd-<scheme>`` protocols' inherited
:meth:`~repro.core.base.Protocol.apply_event`."""

from .authenticated_bd import SUPPORTED_SCHEMES, AuthenticatedBDProtocol
from .bd import BurmesterDesmedtProtocol
from .ssn import SSNProtocol

__all__ = [
    "SUPPORTED_SCHEMES",
    "AuthenticatedBDProtocol",
    "BurmesterDesmedtProtocol",
    "SSNProtocol",
]
