"""Tests for key generation primitives.

Primality and prime-width tests run against the scalar oracle in
``tests/oracles.py``; the batched path's parity with it is pinned in
``tests/test_keygen_batch.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keys import KeyPair, SymmetricKey, generate_keypair
from tests.oracles import is_probable_prime, random_prime


class TestPrimality:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 7919):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 9, 15, 91, 561, 7917):
            assert not is_probable_prime(c)

    def test_carmichael_numbers_rejected(self):
        for c in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(c)

    def test_large_known_prime(self):
        assert is_probable_prime(2**61 - 1)  # Mersenne prime

    def test_large_known_composite(self):
        assert not is_probable_prime((2**31 - 1) * (2**13 - 1))

    def test_random_prime_width(self):
        rng = np.random.default_rng(0)
        for bits in (8, 16, 32):
            p = random_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_random_prime_min_bits(self):
        with pytest.raises(ValueError):
            random_prime(2, np.random.default_rng(0))


class TestKeypair:
    def test_generates_valid_rsa(self):
        kp = generate_keypair(np.random.default_rng(1), bits=64)
        m = 123456789
        c = pow(m, kp.public.e, kp.public.n)
        assert pow(c, kp.private.d, kp.private.n) == m

    def test_distinct_keypairs(self):
        rng = np.random.default_rng(2)
        a = generate_keypair(rng)
        b = generate_keypair(rng)
        assert a.public.n != b.public.n

    def test_deterministic_given_rng(self):
        a = generate_keypair(np.random.default_rng(3))
        b = generate_keypair(np.random.default_rng(3))
        assert a.public.n == b.public.n

    def test_modulus_width(self):
        kp = generate_keypair(np.random.default_rng(4), bits=64)
        assert 60 <= kp.public.bits <= 64

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**30))
    def test_roundtrip_property(self, m):
        kp = generate_keypair(np.random.default_rng(5), bits=64)
        c = pow(m % kp.public.n, kp.public.e, kp.public.n)
        assert pow(c, kp.private.d, kp.private.n) == m % kp.public.n


class TestSymmetricKey:
    def test_empty_material_raises(self):
        with pytest.raises(ValueError):
            SymmetricKey(b"")

    def test_generate_length(self):
        k = SymmetricKey.generate(np.random.default_rng(0), length=24)
        assert len(k.material) == 24

    def test_generate_deterministic(self):
        a = SymmetricKey.generate(np.random.default_rng(2))
        b = SymmetricKey.generate(np.random.default_rng(2))
        assert a == b
