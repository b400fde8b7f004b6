"""Tests for the four signature schemes: GQ (plain and batch), DSA, ECDSA, SOK."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.groups.curves import TINY_CURVE
from repro.groups.pairing import SimulatedPairingGroup
from repro.hashing.hashfuncs import HashFunction
from repro.mathutils.modular import product_mod
from repro.mathutils.rand import DeterministicRNG
from repro.mathutils.serialization import int_to_bytes
from repro.pki import Identity, PrivateKeyGenerator
from repro.signatures import (
    DSASignatureScheme,
    ECDSASignatureScheme,
    GQSignatureScheme,
    SOKSignatureScheme,
    Signature,
    gq_batch_verify,
    gq_commitment,
    gq_response,
    gq_signature_bits,
)
from repro.signatures.base import OperationCount
from repro.signatures.gq import GQParameters


@pytest.fixture()
def gq_pkg(small_modulus) -> PrivateKeyGenerator:
    return PrivateKeyGenerator(small_modulus, HashFunction(output_bits=160))


@pytest.fixture()
def gq_identities(gq_pkg):
    identities = [gq_pkg.registry.create(f"signer-{i}") for i in range(4)]
    keys = [gq_pkg.extract(identity) for identity in identities]
    return identities, keys


class TestGQSignature:
    def test_sign_verify_roundtrip(self, gq_pkg, gq_identities, rng):
        identities, keys = gq_identities
        scheme = GQSignatureScheme(gq_pkg.params)
        signature = scheme.sign(keys[0], b"message", rng)
        assert scheme.verify(identities[0].to_bytes(), b"message", signature)

    def test_verify_accepts_precomputed_public_key(self, gq_pkg, gq_identities, rng):
        identities, keys = gq_identities
        scheme = GQSignatureScheme(gq_pkg.params)
        signature = scheme.sign(keys[0], b"message", rng)
        hid = gq_pkg.params.identity_public_key(identities[0].to_bytes())
        assert scheme.verify(hid, b"message", signature)

    def test_wrong_message_rejected(self, gq_pkg, gq_identities, rng):
        identities, keys = gq_identities
        scheme = GQSignatureScheme(gq_pkg.params)
        signature = scheme.sign(keys[0], b"message", rng)
        assert not scheme.verify(identities[0].to_bytes(), b"other", signature)

    def test_wrong_identity_rejected(self, gq_pkg, gq_identities, rng):
        identities, keys = gq_identities
        scheme = GQSignatureScheme(gq_pkg.params)
        signature = scheme.sign(keys[0], b"message", rng)
        assert not scheme.verify(identities[1].to_bytes(), b"message", signature)

    def test_tampered_signature_rejected(self, gq_pkg, gq_identities, rng):
        identities, keys = gq_identities
        scheme = GQSignatureScheme(gq_pkg.params)
        signature = scheme.sign(keys[0], b"message", rng)
        tampered = Signature(
            scheme="gq",
            components={"s": signature.component("s") + 1, "c": signature.component("c")},
            wire_bits=signature.wire_bits,
        )
        assert not scheme.verify(identities[0].to_bytes(), b"message", tampered)
        zero_s = Signature(scheme="gq", components={"s": 0, "c": 1}, wire_bits=0)
        assert not scheme.verify(identities[0].to_bytes(), b"message", zero_s)

    def test_signature_wire_size(self, gq_pkg):
        params = gq_pkg.params
        assert gq_signature_bits(params) == params.modulus_bits + 160
        assert GQSignatureScheme(params).signature_bits == gq_signature_bits(params)

    def test_paper_sized_signature_is_1184_bits(self):
        from repro.groups.params import get_gq_modulus

        params = GQParameters(
            n=get_gq_modulus("gq-1024").n,
            e=get_gq_modulus("gq-1024").e,
            hash_function=HashFunction(output_bits=160),
        )
        assert gq_signature_bits(params) == 1184

    def test_key_extraction_consistency(self, gq_pkg, gq_identities):
        # S_ID^e == H(ID) mod n, the defining equation of the extracted key.
        identities, keys = gq_identities
        params = gq_pkg.params
        for identity, key in zip(identities, keys):
            assert pow(key.secret, params.e, params.n) == params.identity_public_key(identity.to_bytes())

    def test_cost_models(self, gq_pkg):
        scheme = GQSignatureScheme(gq_pkg.params)
        assert scheme.sign_cost().sign_gen == 1
        assert scheme.verify_cost().sign_verify == 1

    def test_degenerate_params_rejected(self):
        with pytest.raises(ParameterError):
            GQParameters(n=2, e=1, hash_function=HashFunction())


class TestGQBatchVerification:
    def _run_batch(self, gq_pkg, gq_identities, rng, corrupt_index=None, wrong_bound=False):
        identities, keys = gq_identities
        params = gq_pkg.params
        commitments = [gq_commitment(params, rng) for _ in keys]
        big_t = product_mod((t for _, t in commitments), params.n)
        bound = int_to_bytes(424242)
        challenge = params.hash_function.challenge(int_to_bytes(big_t), bound)
        responses = [
            gq_response(params, key, tau, challenge) for key, (tau, _) in zip(keys, commitments)
        ]
        if corrupt_index is not None:
            responses[corrupt_index] = (responses[corrupt_index] + 1) % params.n
        if wrong_bound:
            bound = int_to_bytes(424243)
        return gq_batch_verify(
            params, [i.to_bytes() for i in identities], responses, challenge, bound
        )

    def test_honest_batch_accepts(self, gq_pkg, gq_identities, rng):
        assert self._run_batch(gq_pkg, gq_identities, rng)

    @pytest.mark.parametrize("index", [0, 1, 3])
    def test_single_corruption_detected(self, gq_pkg, gq_identities, rng, index):
        assert not self._run_batch(gq_pkg, gq_identities, rng, corrupt_index=index)

    def test_wrong_bound_data_detected(self, gq_pkg, gq_identities, rng):
        assert not self._run_batch(gq_pkg, gq_identities, rng, wrong_bound=True)

    def test_input_validation(self, gq_pkg, gq_identities):
        identities, _ = gq_identities
        params = gq_pkg.params
        with pytest.raises(ParameterError):
            gq_batch_verify(params, [i.to_bytes() for i in identities], [1], 2, b"z")
        with pytest.raises(ParameterError):
            gq_batch_verify(params, [], [], 2, b"z")

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_batch_size_sweep(self, size):
        pkg = PrivateKeyGenerator(
            __import__("repro.groups.params", fromlist=["get_gq_modulus"]).get_gq_modulus("gq-test-256"),
            HashFunction(output_bits=128),
        )
        rng = DeterministicRNG(size)
        identities = [pkg.registry.create(f"batch-{size}-{i}") for i in range(size)]
        keys = [pkg.extract(i) for i in identities]
        params = pkg.params
        commitments = [gq_commitment(params, rng) for _ in keys]
        big_t = product_mod((t for _, t in commitments), params.n)
        bound = int_to_bytes(size)
        challenge = params.hash_function.challenge(int_to_bytes(big_t), bound)
        responses = [gq_response(params, k, tau, challenge) for k, (tau, _) in zip(keys, commitments)]
        assert gq_batch_verify(params, [i.to_bytes() for i in identities], responses, challenge, bound)


class TestDSA:
    def test_roundtrip(self, small_group, rng, backend):
        scheme = DSASignatureScheme(small_group)
        keypair = scheme.generate_keypair(rng)
        signature = scheme.sign(keypair, b"hello", rng)
        assert scheme.verify(keypair, b"hello", signature)
        assert scheme.verify(keypair.public, b"hello", signature)

    def test_rejections(self, small_group, rng):
        scheme = DSASignatureScheme(small_group)
        keypair = scheme.generate_keypair(rng)
        other = scheme.generate_keypair(rng)
        signature = scheme.sign(keypair, b"hello", rng)
        assert not scheme.verify(keypair, b"bye", signature)
        assert not scheme.verify(other, b"hello", signature)
        bad = Signature(scheme="dsa", components={"r": 0, "s": signature.component("s")}, wire_bits=0)
        assert not scheme.verify(keypair, b"hello", bad)

    def test_signature_size(self, small_group):
        assert DSASignatureScheme(small_group).signature_bits == 2 * small_group.q_bits

    def test_cost_models(self, small_group):
        scheme = DSASignatureScheme(small_group)
        assert scheme.sign_cost().modexp == 1
        assert scheme.verify_cost().modexp == 2


class TestECDSA:
    def test_roundtrip_tiny_curve(self, rng, backend):
        scheme = ECDSASignatureScheme(TINY_CURVE, HashFunction(output_bits=12))
        keypair = scheme.generate_keypair(rng)
        signature = scheme.sign(keypair, b"hello", rng)
        assert scheme.verify(keypair, b"hello", signature)
        assert not scheme.verify(keypair, b"tampered", signature)

    def test_roundtrip_secp160r1(self, rng):
        scheme = ECDSASignatureScheme()
        keypair = scheme.generate_keypair(rng)
        signature = scheme.sign(keypair, b"paper-sized curve", rng)
        assert scheme.verify(keypair, b"paper-sized curve", signature)
        assert signature.wire_bits == 2 * 161  # secp160r1 order is 161 bits

    def test_wrong_key_rejected(self, rng):
        scheme = ECDSASignatureScheme(TINY_CURVE, HashFunction(output_bits=12))
        keypair = scheme.generate_keypair(rng)
        other = scheme.generate_keypair(rng)
        signature = scheme.sign(keypair, b"hello", rng)
        assert not scheme.verify(other, b"hello", signature)

    def test_invalid_public_key_type(self, rng):
        scheme = ECDSASignatureScheme(TINY_CURVE, HashFunction(output_bits=12))
        keypair = scheme.generate_keypair(rng)
        signature = scheme.sign(keypair, b"hello", rng)
        with pytest.raises(ParameterError):
            scheme.verify(12345, b"hello", signature)

    def test_cost_models(self):
        scheme = ECDSASignatureScheme(TINY_CURVE)
        assert scheme.sign_cost().scalar_mul == 1
        assert scheme.verify_cost().scalar_mul == 2


class TestSOK:
    @pytest.fixture()
    def sok(self, small_group):
        return SOKSignatureScheme(SimulatedPairingGroup(small_group))

    def test_roundtrip(self, sok, rng):
        master = sok.generate_master_key(rng)
        key = sok.extract(master, b"alice")
        signature = sok.sign(key, b"message", rng)
        assert sok.verify(b"alice", b"message", signature, master_public=master)
        assert sok.verify(key.q_id, b"message", signature, master_public=master.public)

    def test_rejections(self, sok, rng):
        master = sok.generate_master_key(rng)
        key = sok.extract(master, b"alice")
        signature = sok.sign(key, b"message", rng)
        assert not sok.verify(b"bob", b"message", signature, master_public=master)
        assert not sok.verify(b"alice", b"other", signature, master_public=master)
        wrong_master = sok.generate_master_key(rng)
        assert not sok.verify(b"alice", b"message", signature, master_public=wrong_master)

    def test_requires_master_public(self, sok, rng):
        master = sok.generate_master_key(rng)
        key = sok.extract(master, b"alice")
        signature = sok.sign(key, b"message", rng)
        with pytest.raises(ParameterError):
            sok.verify(b"alice", b"message", signature)

    def test_signature_size_matches_paper(self, sok):
        assert sok.signature_bits == 2 * 194

    def test_cost_models(self, sok):
        assert sok.verify_cost().pairing == 2
        assert sok.verify_cost().map_to_point == 1
        assert sok.sign_cost().scalar_mul == 2


class TestBatchVerification:
    """``batch_verify`` must agree with per-item ``verify`` on every input."""

    def _dsa(self, small_group):
        return DSASignatureScheme(small_group)

    def _ecdsa(self):
        return ECDSASignatureScheme(TINY_CURVE, HashFunction(output_bits=12))

    @staticmethod
    def _items(scheme, rng, k, prefix=b"msg"):
        items = []
        for index in range(k):
            keypair = scheme.generate_keypair(rng)
            message = prefix + b"|%d" % index
            items.append((keypair, message, scheme.sign(keypair, message, rng)))
        return items

    @staticmethod
    def _agrees(scheme, items, rng):
        scheme._verdicts.clear()
        loop = [scheme.verify(pk, msg, sig) for pk, msg, sig in items]
        scheme._verdicts.clear()
        batch = scheme.batch_verify(items, rng.fork("coefficients"))
        assert batch == loop
        return loop

    def test_dsa_accepts_honest_batch(self, small_group, rng, backend):
        scheme = self._dsa(small_group)
        items = self._items(scheme, rng, 6)
        assert self._agrees(scheme, items, rng) == [True] * 6

    def test_ecdsa_accepts_honest_batch(self, rng, backend):
        scheme = self._ecdsa()
        items = self._items(scheme, rng, 6)
        assert self._agrees(scheme, items, rng) == [True] * 6

    @pytest.mark.parametrize("scheme_name", ["dsa", "ecdsa"])
    def test_randomized_tampering_agrees_with_loop(self, small_group, rng, scheme_name):
        """Random forgeries of every flavour: batch == loop, element-wise.

        Each trial flips a random subset of a fresh batch using a random
        tamper per item — wrong message, wrong key, bumped ``s``, zeroed
        ``r`` — and checks element-wise agreement between the combined check
        (plus bisection) and the ground-truth loop.
        """
        scheme = self._dsa(small_group) if scheme_name == "dsa" else self._ecdsa()
        tamper_rng = DeterministicRNG("tamper", label=scheme_name)
        for trial in range(6):
            items = self._items(scheme, rng, 8, prefix=b"trial-%d" % trial)
            expected = [True] * len(items)
            for index in range(len(items)):
                if tamper_rng.randbelow(3) != 0:
                    continue
                public_key, message, signature = items[index]
                kind = tamper_rng.randbelow(4)
                if kind == 0:
                    items[index] = (public_key, message + b"!", signature)
                elif kind == 1:
                    other = scheme.generate_keypair(rng)
                    items[index] = (other, message, signature)
                elif kind == 2:
                    forged = Signature(
                        scheme=signature.scheme,
                        components={
                            "r": signature.component("r"),
                            "s": signature.component("s") ^ 1,
                        },
                        wire_bits=signature.wire_bits,
                        aux=signature.aux,
                    )
                    items[index] = (public_key, message, forged)
                else:
                    forged = Signature(
                        scheme=signature.scheme,
                        components={"r": 0, "s": signature.component("s")},
                        wire_bits=signature.wire_bits,
                        aux=signature.aux,
                    )
                    items[index] = (public_key, message, forged)
                expected[index] = False
            results = self._agrees(scheme, items, rng)
            # s^1 could in principle still verify; everything else must fail.
            for index, flag in enumerate(expected):
                if not flag:
                    assert results[index] is False or results[index] == scheme.verify(
                        *items[index]
                    )

    def test_single_forgery_bisected_to_exact_index(self, small_group, rng):
        scheme = self._dsa(small_group)
        items = self._items(scheme, rng, 9)
        public_key, message, _ = items[5]
        other = scheme.generate_keypair(rng)
        items[5] = (public_key, message, scheme.sign(other, message, rng))
        results = self._agrees(scheme, items, rng)
        assert results == [True] * 5 + [False] + [True] * 3

    def test_missing_aux_falls_back_to_individual_verify(self, small_group, rng):
        scheme = self._dsa(small_group)
        items = [
            (pk, msg, Signature(sig.scheme, sig.components, sig.wire_bits))
            for pk, msg, sig in self._items(scheme, rng, 4)
        ]
        assert all(not item[2].aux for item in items)
        assert self._agrees(scheme, items, rng) == [True] * 4

    def test_lying_but_consistent_aux_cannot_flip_the_outcome(self, small_group, rng):
        # An aux commitment that passes the consistency screen (v % q == r)
        # but is not the real g^k: the combined equation fails, bisection
        # lands on the ground-truth individual verify, and the honest
        # signature still accepts.
        scheme = self._dsa(small_group)
        items = self._items(scheme, rng, 4)
        public_key, message, signature = items[2]
        fake_v = signature.aux["v"] + scheme.group.q
        if fake_v < scheme.group.p:
            forged = Signature(
                signature.scheme, signature.components, signature.wire_bits, aux={"v": fake_v}
            )
            items[2] = (public_key, message, forged)
        assert self._agrees(scheme, items, rng) == [True] * 4

    def test_ecdsa_negated_commitment_cannot_flip_the_outcome(self, rng):
        # -R shares R's x-coordinate, so it passes the aux screen; the
        # combined check fails and bisection restores the true accept.
        scheme = self._ecdsa()
        items = self._items(scheme, rng, 4)
        public_key, message, signature = items[1]
        point = scheme.curve.point(signature.aux["vx"], signature.aux["vy"]).negate()
        forged = Signature(
            signature.scheme,
            signature.components,
            signature.wire_bits,
            aux={"vx": point.x, "vy": point.y},
        )
        items[1] = (public_key, message, forged)
        assert self._agrees(scheme, items, rng) == [True] * 4

    def test_rng_cannot_influence_outcomes(self, small_group, rng):
        scheme = self._dsa(small_group)
        items = self._items(scheme, rng, 5)
        items[3] = (items[3][0], items[3][1] + b"!", items[3][2])
        scheme._verdicts.clear()
        first = scheme.batch_verify(items, DeterministicRNG("stream-a"))
        scheme._verdicts.clear()
        second = scheme.batch_verify(items, DeterministicRNG("stream-b"))
        assert first == second == [True, True, True, False, True]

    def test_sok_uses_the_loop_fallback(self, small_group, rng):
        sok = SOKSignatureScheme(SimulatedPairingGroup(small_group))
        assert not sok.has_batch_form
        master = sok.generate_master_key(rng)
        items = []
        for index in range(3):
            identity = b"party-%d" % index
            key = sok.extract(master, identity)
            items.append((identity, b"round", sok.sign(key, b"round", rng)))
        items[1] = (b"someone-else", items[1][1], items[1][2])
        results = sok.batch_verify(items, rng.fork("x"), master_public=master)
        assert results == [True, False, True]

    def test_unknown_kwargs_rejected_where_batched(self, small_group, rng):
        scheme = self._dsa(small_group)
        assert scheme.has_batch_form
        with pytest.raises(ParameterError):
            scheme.batch_verify([], rng, master_public=object())


class TestOperationCount:
    def test_merge_and_add(self):
        a = OperationCount(modexp=1, sign_gen=1)
        b = OperationCount(modexp=2, pairing=3)
        merged = a + b
        assert merged.modexp == 3 and merged.sign_gen == 1 and merged.pairing == 3
        assert merged.as_dict()["modexp"] == 3
