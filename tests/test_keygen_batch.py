"""Batched key generation against the scalar oracle.

``generate_keypair(rng, bits, size=k)`` must return the keys ``k``
scalar keypair searches return from the same stream, and leave the
generator exactly where the scalar walk leaves it (see the draw-order
contract in ``repro.crypto.keys``).  Its vectorised primality test must
agree with the scalar Miller–Rabin everywhere below ``2**32``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import keys
from repro.crypto.keys import _is_prime, generate_keypair
from repro.geometry.field import Field
from repro.mobility.static import StaticPosition
from repro.net import network
from repro.net.network import Network
from repro.sim.engine import Engine
from tests.oracles import is_probable_prime, scalar_keypair

#: Draw-block size the parity suite runs at, small enough that a few
#: dozen keys need several blocks.
_TEST_BLOCK = 64
#: Keys that need more primes than one block has candidates.
_MULTI_BLOCK = _TEST_BLOCK // 2 + 1


def _strong_probable_prime(n: int, a: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _chernick_carmichaels() -> list[int]:
    """Carmichael numbers (6k+1)(12k+1)(18k+1) below 2**32."""
    out = []
    for k in range(1, 200):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        n = factors[0] * factors[1] * factors[2]
        if n >= 2**32:
            break
        if all(is_probable_prime(f) for f in factors):
            out.append(n)
    return out


class TestPrimality:
    def test_agrees_below_20000(self):
        n = np.arange(20_000, dtype=np.uint64)
        assert _is_prime(n).tolist() == [is_probable_prime(int(v)) for v in n]

    def test_agrees_on_random_odd_32bit(self):
        rng = np.random.default_rng(2024)
        n = rng.integers(0, 2**31, size=20_000, dtype=np.uint64) * 2 + 1
        assert _is_prime(n).tolist() == [is_probable_prime(int(v)) for v in n]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2**31 - 1).map(lambda v: 2 * v + 1), max_size=64))
    def test_agrees_on_odd_32bit_property(self, values):
        n = np.array(values, dtype=np.uint64)
        assert _is_prime(n).tolist() == [is_probable_prime(v) for v in values]

    def test_rejects_carmichael_numbers(self):
        known = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341]
        chernick = _chernick_carmichaels()
        # Factors above the sieve's primes reach the Miller-Rabin stage.
        assert any(n > 137**3 for n in chernick)
        n = np.array(known + chernick, dtype=np.uint64)
        assert not _is_prime(n).any()

    def test_rejects_strong_pseudoprime_to_2_3_5_7(self):
        n = 3215031751
        assert 2**31 <= n < 2**32
        assert all(_strong_probable_prime(n, a) for a in (2, 3, 5, 7))
        assert not is_probable_prime(n)
        assert not _is_prime(np.array([n], dtype=np.uint64))[0]

    def test_32bit_boundary(self):
        n = np.array([2**32 - 5, 2**32 - 1, 2**31 - 1, 2**31 + 11], dtype=np.uint64)
        assert _is_prime(n).tolist() == [is_probable_prime(int(v)) for v in n]

    def test_empty(self):
        assert _is_prime(np.array([], dtype=np.uint64)).shape == (0,)


def _candidate_draws(rng: np.random.Generator, bits: int, n: int = 3) -> list:
    """The next ``n`` draws of the kind key generation makes."""
    high = 1 << (bits // 2 - 2)
    return [int(rng.integers(0, high, dtype=np.uint64)) for _ in range(n)]


def _assert_parity(seed: int, bits: int, size: int) -> None:
    ref_rng = np.random.default_rng(seed)
    expected = [scalar_keypair(ref_rng, bits) for _ in range(size)]
    rng = np.random.default_rng(seed)
    got = generate_keypair(rng, bits=bits, size=size)
    assert got == expected
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert _candidate_draws(rng, bits) == _candidate_draws(ref_rng, bits)


class TestParity:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bits=st.integers(3, 32).map(lambda half: 2 * half),
        size=st.sampled_from([0, 1, _MULTI_BLOCK]),
    )
    def test_matches_scalar_oracle(self, seed, bits, size):
        with mock.patch.object(keys, "_DRAW_BLOCK", _TEST_BLOCK):
            _assert_parity(seed, bits, size)

    @pytest.mark.parametrize("bits", [6, 7, 16, 33, 64])
    def test_production_block(self, bits):
        _assert_parity(seed=101, bits=bits, size=300)

    def test_size_zero_draws_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert generate_keypair(rng, size=0) == []
        assert rng.bit_generator.state == before

    def test_size_none_is_one_key(self):
        a = generate_keypair(np.random.default_rng(4))
        (b,) = generate_keypair(np.random.default_rng(4), size=1)
        assert isinstance(a, keys.KeyPair) and a == b

    def test_batch_equals_successive_calls(self):
        rng = np.random.default_rng(5)
        singles = [generate_keypair(rng, bits=32) for _ in range(20)]
        assert generate_keypair(np.random.default_rng(5), bits=32, size=20) == singles

    def test_keys_are_python_ints(self):
        kp = generate_keypair(np.random.default_rng(6))
        assert type(kp.public.n) is int and type(kp.private.d) is int


class TestRange:
    @pytest.mark.parametrize("bits", [0, 4, 5, 65, 128])
    def test_bits_out_of_range(self, bits):
        with pytest.raises(ValueError, match=rf"bits must be in \[6, 64\], got {bits}"):
            generate_keypair(np.random.default_rng(0), bits=bits)

    def test_negative_size(self):
        with pytest.raises(ValueError, match="size"):
            generate_keypair(np.random.default_rng(0), size=-1)

    def test_network_keypair_bits_names_bits(self, monkeypatch):
        monkeypatch.setattr(network, "KEYPAIR_BITS", 4)
        fld = Field(100.0, 100.0)
        with pytest.raises(ValueError, match="bits must be in .*, got 4$"):
            Network(
                Engine(seed=1), fld,
                lambda i, rng: StaticPosition(fld.random_point(rng)),
                3,
            )
