"""The one backend rule, the test seam that swaps it, and primitive parity."""

from __future__ import annotations

import importlib.util

import pytest

from repro.backends import (
    CryptoBackend,
    NativeBackend,
    PureBackend,
    active_backend,
    native,
    registry,
)
from repro.exceptions import ParameterError
from repro.mathutils.rand import DeterministicRNG
from repro.engine.executor import EngineConfig
from repro.sim.specio import build, to_spec


class TestOneRule:
    def test_native_exactly_when_gmpy2_is_importable(self):
        expected = "native" if importlib.util.find_spec("gmpy2") is not None else "pure"
        assert active_backend().name == expected
        assert isinstance(active_backend(), CryptoBackend)

    def test_native_backend_needs_gmpy2(self, monkeypatch):
        monkeypatch.setattr(native, "HAVE_GMPY2", False)
        with pytest.raises(ParameterError, match="gmpy2"):
            NativeBackend()

    def test_fixture_drops_the_cached_fixed_base_table(self, backend, small_group):
        assert "_fixed_base_table" not in small_group.__dict__
        assert small_group.exp_g(5) == pow(small_group.g, 5, small_group.p)
        fresh = active_backend().fixed_base(small_group.g, small_group.p, small_group.q_bits)
        assert type(small_group.fixed_base_g) is type(fresh)


class TestPrimitiveParity:
    """Every backend must be bit-identical to pure on the primitive surface."""

    MOD = (1 << 127) - 1  # prime

    @pytest.fixture()
    def impl(self, backend):
        return active_backend()

    def test_modexp(self, impl):
        pure = PureBackend()
        rng = DeterministicRNG("modexp-parity")
        for _ in range(20):
            base = rng.randbelow(self.MOD)
            exponent = rng.randbelow(1 << 80)
            assert impl.modexp(base, exponent, self.MOD) == pure.modexp(
                base, exponent, self.MOD
            )
        assert impl.modexp(5, 0, 97) == 1
        assert impl.modexp(5, -1, 97) == pure.modinv(5, 97)
        with pytest.raises(ParameterError):
            impl.modexp(5, 3, 0)

    def test_modinv(self, impl):
        for a in (1, 2, 96, 12345):
            inverse = impl.modinv(a, 97)
            assert (inverse * a) % 97 == 1
        with pytest.raises(ParameterError):
            impl.modinv(0, 97)
        with pytest.raises(ParameterError):
            impl.modinv(6, 9)  # gcd 3

    def test_multi_exp(self, impl):
        pure = PureBackend()
        rng = DeterministicRNG("multiexp-parity")
        bases = [rng.randbelow(self.MOD) for _ in range(5)]
        exponents = [rng.randbelow(1 << 64) - (1 << 63) for _ in range(5)]
        exponents[2] = 0
        assert impl.multi_exp(bases, exponents, self.MOD) == pure.multi_exp(
            bases, exponents, self.MOD
        )

    def test_fixed_base(self, impl):
        rng = DeterministicRNG("fixed-base-parity")
        table = impl.fixed_base(3, self.MOD, 80)
        for _ in range(10):
            exponent = rng.randbelow(1 << 80)
            assert table.pow(exponent) == pow(3, exponent, self.MOD)
        with pytest.raises(ParameterError):
            table.pow(-1)


class TestEnginePlumbing:
    def test_engine_spec_round_trip(self):
        spec = {"latency": "instant", "round_timeout_s": 0.5}
        config = build(EngineConfig, spec)
        assert config is not None and config.round_timeout_s == 0.5
        assert to_spec(config) == spec

    def test_engine_spec_without_backend_unchanged(self):
        assert build(EngineConfig, "instant") is None
        assert to_spec(EngineConfig()) == "instant"

    @pytest.mark.parametrize(
        "key, value",
        [("adversary", "inject"), ("crypto_backend", "native"), ("round_timeout", 0.5)],
    )
    def test_engine_spec_rejects_other_keys(self, key, value):
        with pytest.raises(ParameterError, match=f"unknown engine spec keys: \\['{key}'\\]"):
            build(EngineConfig, {"latency": "instant", key: value})


class TestRunEquivalence:
    def test_scenario_bit_identical_across_backends(self, small_setup, backend, monkeypatch):
        """The same protocol run under the fixture's backend and under ``pure``.

        The ``pure`` leg agrees trivially; with gmpy2 installed the ``native``
        leg pins the bit-identity the golden equivalence fixtures rely on.
        """
        from repro.sim import Scenario, ScenarioRunner

        runner = ScenarioRunner(small_setup, check_agreement=False)
        scenario = Scenario(name="backend-eq", initial_size=5, seed="beq")
        under_fixture = runner.run("bd-dsa", scenario)
        monkeypatch.setattr(registry, "_ACTIVE", PureBackend())
        small_setup.group.__dict__.pop("_fixed_base_table", None)
        under_pure = runner.run("bd-dsa", scenario)
        assert under_fixture.key_fingerprint == under_pure.key_fingerprint
        assert under_fixture.total_energy_j == under_pure.total_energy_j
