"""Shared fixtures for the test suite.

All protocol-level tests run on the small named parameter sets
(256-bit Schnorr group, 256-bit GQ modulus) so the suite stays fast; a handful
of tests explicitly exercise the paper-sized 1024-bit parameters and are
marked accordingly.  Everything is seeded, so failures reproduce exactly.
"""

from __future__ import annotations

import weakref

import pytest

from repro.backends import HAVE_GMPY2, NativeBackend, PureBackend, registry
from repro.core import SystemSetup
from repro.energy import DeviceProfile, RADIO_100KBPS, WLAN_SPECTRUM24
from repro.groups.params import get_gq_modulus, get_schnorr_group
from repro.mathutils.rand import DeterministicRNG
from repro.pki import Identity


@pytest.fixture(scope="session")
def small_setup() -> SystemSetup:
    """A SystemSetup on fast test-sized parameters (shared across the session)."""
    return SystemSetup.from_param_sets("test-256", "gq-test-256")


@pytest.fixture(scope="session")
def paper_setup() -> SystemSetup:
    """A SystemSetup on the paper's 1024-bit parameters (used sparingly)."""
    return SystemSetup.from_param_sets("ipps2006-1024", "gq-1024")


@pytest.fixture(scope="session")
def small_group():
    """The small Schnorr group used by most unit tests."""
    return get_schnorr_group("test-256")


@pytest.fixture(scope="session")
def small_modulus():
    """The small GQ modulus used by most unit tests."""
    return get_gq_modulus("gq-test-256")


@pytest.fixture(params=["pure", "native"])
def backend(request, monkeypatch, small_group) -> str:
    """Run the requesting test once per crypto backend.

    The library picks its backend once, at import (``native`` exactly when
    gmpy2 is importable); this fixture swaps that module-level choice for
    the test.  Backends are bit-identical, so backend-parametrized tests
    assert the same values under every one; the ``native`` parameter skips
    cleanly on interpreters without gmpy2 rather than silently testing pure
    twice.  The session group's cached fixed-base table is dropped on the
    way in and out, so no leg reuses a table another backend built.
    """
    name = request.param
    if name == "native" and not HAVE_GMPY2:
        pytest.skip("gmpy2 not installed — native backend unavailable")
    monkeypatch.setattr(registry, "_ACTIVE", NativeBackend() if name == "native" else PureBackend())
    small_group.__dict__.pop("_fixed_base_table", None)
    yield name
    small_group.__dict__.pop("_fixed_base_table", None)


@pytest.fixture()
def rng() -> DeterministicRNG:
    """A fresh deterministic RNG per test."""
    return DeterministicRNG("pytest", label="test")


@pytest.fixture()
def members():
    """Six distinct identities (a convenient default group)."""
    return [Identity(f"member-{i:02d}") for i in range(6)]


@pytest.fixture(scope="session")
def wlan_profile() -> DeviceProfile:
    """StrongARM + Spectrum24 WLAN card (the paper's Table 5 configuration)."""
    return DeviceProfile(transceiver=WLAN_SPECTRUM24)


@pytest.fixture(scope="session")
def radio_profile() -> DeviceProfile:
    """StrongARM + 100 kbps radio transceiver."""
    return DeviceProfile(transceiver=RADIO_100KBPS)


@pytest.fixture()
def instance_refs(monkeypatch):
    """``track(*classes)`` returns weak references to every instance of
    ``classes`` constructed afterwards in the test (the list keeps growing)."""
    refs = []

    def track(*classes):
        for cls in classes:
            init = cls.__init__

            def tracking(self, *args, _init=init, **kwargs):
                _init(self, *args, **kwargs)
                refs.append(weakref.ref(self))

            monkeypatch.setattr(cls, "__init__", tracking)
        return refs

    return track


@pytest.fixture()
def wake_log(monkeypatch):
    """``record(cls)`` returns the ``(member name, payload)`` of every
    ``cls.on_wake`` call from then on in the test, in call order."""

    def record(cls):
        log = []
        on_wake = cls.on_wake

        def recording(machine, payload, now):
            log.append((machine.identity.name, payload))
            return on_wake(machine, payload, now)

        monkeypatch.setattr(cls, "on_wake", recording)
        return log

    return record
