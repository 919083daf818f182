"""A further round of property-based tests across modules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.anonymity import route_overlap
from repro.crypto.cipher import PublicKeyCipher, SymmetricCipher
from repro.crypto.keys import SymmetricKey, generate_keypair
from repro.crypto.pseudonym import PseudonymManager
from repro.core.zones import Direction, destination_zone, separate_from_zone
from repro.geometry.primitives import Point, Rect
from repro.geometry.spatial_index import GridIndex

KP = generate_keypair(np.random.default_rng(77), bits=64)


class TestSignatureProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=300))
    def test_sign_verify_roundtrip(self, message):
        signer = PublicKeyCipher.for_owner(KP)
        sig = signer.sign(message)
        assert PublicKeyCipher.for_encryption(KP.public).verify(message, sig)

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=1, max_size=300), st.integers(0, 255))
    def test_tamper_detection(self, message, flip_byte):
        signer = PublicKeyCipher.for_owner(KP)
        sig = signer.sign(message)
        tampered = bytearray(message)
        tampered[flip_byte % len(tampered)] ^= 0x01
        if bytes(tampered) != message:
            assert not signer.verify(bytes(tampered), sig)


class TestPseudonymProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 1e4), st.floats(0.5, 500.0))
    def test_rotation_schedule(self, start, lifetime):
        m = PseudonymManager(b"\x01" * 6, np.random.default_rng(1))
        m.lifetime = lifetime
        first = m.current(start)
        assert m.current(start + lifetime * 0.99).digest == first.digest
        later = m.current(start + lifetime * 1.01)
        assert later.digest != first.digest
        assert m.was_ours(first.digest) and m.was_ours(later.digest)


class TestZoneCrossChecks:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0, 1000), st.floats(0, 1000),
        st.integers(1, 8), st.sampled_from(list(Direction)),
    )
    def test_zd_is_fixed_point_of_separation(self, dx, dy, h, first):
        """Separating any outside point from Z_D yields a next zone
        that still contains Z_D and whose area is ≥ Z_D's."""
        field = Rect(0, 0, 1000, 1000)
        zd = destination_zone(field, Point(dx, dy), h)
        outside = Point((dx + 500.0) % 1000.0, (dy + 500.0) % 1000.0)
        if zd.contains_closed(outside):
            return
        res = separate_from_zone(field, outside, zd, first)
        assert res.next_zone.contains_rect(zd)
        assert res.next_zone.area >= zd.area - 1e-6

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0, 1000), st.floats(0, 1000), st.integers(0, 7))
    def test_zone_nesting(self, dx, dy, h):
        """Z_D at depth h+1 nests inside Z_D at depth h."""
        field = Rect(0, 0, 1000, 1000)
        d = Point(dx, dy)
        outer = destination_zone(field, d, h)
        inner = destination_zone(field, d, h + 1)
        assert outer.contains_rect(inner)


class TestSpatialNearest:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 60), st.integers(0, 10_000))
    def test_nearest_matches_bruteforce(self, n, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 500, size=(n, 2))
        idx = GridIndex(pos, 100.0)
        q = rng.uniform(0, 500, size=2)
        got = idx.nearest(q[0], q[1])
        brute = int(np.argmin(((pos - q) ** 2).sum(axis=1)))
        assert ((pos[got] - q) ** 2).sum() == pytest.approx(
            ((pos[brute] - q) ** 2).sum()
        )


class TestOverlapMetamorphic:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=15))
    def test_self_overlap_is_one(self, route):
        assert route_overlap(route, route) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 15), min_size=1, max_size=10),
        st.lists(st.integers(16, 30), min_size=1, max_size=10),
    )
    def test_disjoint_overlap_is_zero(self, a, b):
        assert route_overlap(a, b) == 0.0


class TestSymmetricNonceDiscipline:
    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=1, max_size=128), st.integers(0, 2**63 - 1))
    def test_distinct_nonces_distinct_ciphertexts(self, data, seq):
        key = SymmetricKey(b"0123456789abcdef")
        c = SymmetricCipher(key)
        n1 = seq.to_bytes(8, "big")
        n2 = ((seq + 1) % 2**63).to_bytes(8, "big")
        assert c.encrypt(data, n1) != c.encrypt(data, n2)
