"""Tests for the anonymity metrics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.analysis.anonymity import (
    anonymity_entropy,
    k_anonymity_set,
    mean_pairwise_overlap,
    route_overlap,
)


class TestKAnonymity:
    def test_counts_distinct(self):
        assert k_anonymity_set([1, 2, 2, 3]) == 3

    def test_empty(self):
        assert k_anonymity_set([]) == 0


class TestEntropy:
    def test_uniform_gives_log2n(self):
        assert anonymity_entropy([1.0] * 8) == pytest.approx(3.0)

    def test_certainty_gives_zero(self):
        assert anonymity_entropy([1.0]) == 0.0
        assert anonymity_entropy([5.0, 0.0, 0.0]) == 0.0

    def test_empty_or_zero_weights(self):
        assert anonymity_entropy([]) == 0.0
        assert anonymity_entropy([0.0, 0.0]) == 0.0

    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=30))
    def test_bounded_by_log2n(self, w):
        h = anonymity_entropy(w)
        assert -1e-9 <= h <= math.log2(len(w)) + 1e-9


class TestRouteOverlap:
    def test_identical_routes(self):
        assert route_overlap([1, 2, 3], [3, 2, 1]) == 1.0

    def test_disjoint_routes(self):
        assert route_overlap([1, 2], [3, 4]) == 0.0

    def test_partial(self):
        assert route_overlap([1, 2, 3], [3, 4, 5]) == pytest.approx(1 / 5)

    def test_both_empty(self):
        assert route_overlap([], []) == 1.0

    def test_mean_pairwise(self):
        routes = [[1, 2], [1, 2], [3, 4]]
        assert mean_pairwise_overlap(routes) == pytest.approx(0.5)

    def test_mean_pairwise_single_route_nan(self):
        assert math.isnan(mean_pairwise_overlap([[1, 2]]))

    @given(
        st.lists(st.integers(0, 20), max_size=10),
        st.lists(st.integers(0, 20), max_size=10),
    )
    def test_symmetric_and_bounded(self, a, b):
        o = route_overlap(a, b)
        assert 0.0 <= o <= 1.0
        assert o == route_overlap(b, a)
