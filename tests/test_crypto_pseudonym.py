"""Tests for dynamic pseudonyms (§2.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.pseudonym import PseudonymManager, compute_pseudonym


def make_manager(lifetime=30.0, seed=0, mac=b"\x00\x01\x02\x03\x04\x05"):
    m = PseudonymManager(mac, np.random.default_rng(seed))
    m.lifetime = lifetime  # a constant, set on the instance
    return m


class TestComputePseudonym:
    def test_is_sha1_length(self):
        assert len(compute_pseudonym(b"abcdef", 1.0)) == 20

    def test_depends_on_mac(self):
        assert compute_pseudonym(b"aaaaaa", 1.0) != compute_pseudonym(b"bbbbbb", 1.0)

    def test_depends_on_timestamp(self):
        assert compute_pseudonym(b"aaaaaa", 1.0) != compute_pseudonym(b"aaaaaa", 1.01)

    def test_deterministic(self):
        assert compute_pseudonym(b"aaaaaa", 5.5) == compute_pseudonym(b"aaaaaa", 5.5)


class TestPseudonymManager:
    def test_stable_within_lifetime(self):
        m = make_manager(lifetime=30.0)
        a = m.current(0.0)
        b = m.current(29.9)
        assert a.digest == b.digest

    def test_rotates_after_expiry(self):
        m = make_manager(lifetime=30.0)
        a = m.current(0.0)
        b = m.current(30.1)
        assert a.digest != b.digest

    def test_validity_window(self):
        m = make_manager(lifetime=10.0)
        p = m.current(5.0)
        assert p.valid_at(5.0)
        assert p.valid_at(14.9)
        assert not p.valid_at(15.0)
        assert not p.valid_at(4.9)

    def test_was_ours_tracks_history(self):
        m = make_manager(lifetime=5.0)
        a = m.current(0.0)
        b = m.current(10.0)
        assert m.was_ours(a.digest)
        assert m.was_ours(b.digest)
        assert not m.was_ours(b"\x00" * 20)

    def test_distinct_nodes_distinct_pseudonyms(self):
        a = make_manager(mac=b"\x00" * 6, seed=1).current(0.0)
        b = make_manager(mac=b"\x01" * 6, seed=1).current(0.0)
        assert a.digest != b.digest

    def test_hex_rendering(self):
        p = make_manager().current(0.0)
        assert p.hex == p.digest.hex()
        assert len(p.hex) == 40

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31), st.integers(0, 2**31))
    def test_collision_resistance_property(self, seed_a, seed_b):
        """Distinct (mac, rng) managers virtually never collide."""
        mac_a = seed_a.to_bytes(6, "big", signed=False)
        mac_b = seed_b.to_bytes(6, "big", signed=False)
        a = PseudonymManager(mac_a, np.random.default_rng(seed_a)).current(0.0)
        b = PseudonymManager(mac_b, np.random.default_rng(seed_b)).current(0.0)
        if mac_a != mac_b:
            assert a.digest != b.digest
