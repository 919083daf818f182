"""Tests for named random streams."""

from __future__ import annotations

import numpy as np

from repro.sim.rng import RngRegistry, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "mac") == derive_seed(42, "mac")

    def test_name_sensitivity(self):
        assert derive_seed(42, "mac") != derive_seed(42, "mobility")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "mac") != derive_seed(2, "mac")

    def test_fits_63_bits(self):
        for s in range(20):
            assert 0 <= derive_seed(s, f"n{s}") < 2**63


class TestRngRegistry:
    def test_same_name_returns_same_stream(self):
        reg = RngRegistry(1)
        assert reg.stream("a") is reg.stream("a")

    def test_different_names_different_streams(self):
        reg = RngRegistry(1)
        assert reg.stream("a") is not reg.stream("b")

    def test_reproducible_across_registries(self):
        a = RngRegistry(9).stream("x").random(5)
        b = RngRegistry(9).stream("x").random(5)
        assert np.allclose(a, b)

    def test_streams_are_independent(self):
        """Drawing from one stream must not perturb another."""
        reg1 = RngRegistry(5)
        reg1.stream("a").random(100)  # burn stream a
        seq1 = reg1.stream("b").random(5)

        reg2 = RngRegistry(5)
        seq2 = reg2.stream("b").random(5)  # no burn of a
        assert np.allclose(seq1, seq2)

    def test_names_in_creation_order(self):
        reg = RngRegistry(0)
        reg.stream("z")
        reg.stream("a")
        assert reg.names() == ["z", "a"]
