"""Network.snapshot() incremental maintenance and staleness semantics."""

from __future__ import annotations

import numpy as np

from repro.geometry.field import Field
from repro.geometry.spatial_index import GridIndex
from repro.mobility.random_waypoint import RandomWaypoint
from repro.net import network
from repro.net.network import Network
from repro.sim.engine import Engine

from tests.conftest import build_network
from tests.oracles import NaiveIndex, assert_same_answers, scalar_positions


def _make_network(n_nodes=60, speed=2.0, seed=9):
    engine = Engine(seed=seed)
    fld = Field(1000.0, 1000.0)
    return Network(
        engine,
        fld,
        lambda i, rng: RandomWaypoint(fld, rng, speed_min=speed, speed_max=speed),
        n_nodes,
    )


def _assert_snapshot_correct(net: Network) -> None:
    """The cached snapshot equals a from-scratch build at ``now``."""
    pos, index = net.snapshot()
    expected = scalar_positions([n.mobility for n in net.nodes], net.engine.now)
    np.testing.assert_array_equal(pos, expected)
    fresh = GridIndex(expected.copy(), net.radio.range_m)
    naive = NaiveIndex(expected, net.radio.range_m)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, y = rng.uniform(-50, 1050, size=2)
        assert_same_answers([naive, index, fresh], "query_radius", x, y, 250.0)
        assert_same_answers(
            [naive, index, fresh], "query_rect", x - 100, y - 100, x + 100, y + 100
        )
        assert_same_answers([naive, index, fresh], "nearest", x, y, None)


class TestIncrementalSnapshot:
    def test_slow_nodes_refresh_incrementally(self):
        # At 2 m/s and 0.25 s steps nobody crosses a 250 m cell, so
        # after the initial build every refresh takes the diff path.
        net = _make_network(speed=2.0)
        net.snapshot()
        assert net.snapshot_rebuilds == 1
        for k in range(10):
            net.engine._now += 0.25
            _assert_snapshot_correct(net)
        assert net.snapshot_rebuilds == 1
        assert net.snapshot_incremental == 10

    def test_large_jump_refreshes_incrementally(self):
        # A 500 s jump moves (essentially) every node to a new cell;
        # the one refresh path rebuckets them all and stays correct.
        net = _make_network(speed=8.0)
        net.snapshot()
        net.engine._now += 500.0
        _assert_snapshot_correct(net)
        assert net.snapshot_rebuilds == 1
        assert net.snapshot_incremental == 1

    def test_within_resolution_reuses_cache(self):
        net = _make_network()
        pos1, idx1 = net.snapshot()
        net.engine._now += 0.1
        pos2, idx2 = net.snapshot()
        assert idx2 is idx1 and pos2 is pos1

    def test_incremental_path_result_identical_over_a_run(self, monkeypatch):
        # Mixed refreshes over a long mobile run stay correct.
        monkeypatch.setattr(network, "SNAPSHOT_RESOLUTION", 0.5)
        net = _make_network(n_nodes=40, speed=8.0)
        for k in range(30):
            net.engine._now += 0.7 if k % 5 else 13.0
            _assert_snapshot_correct(net)
        assert net.snapshot_incremental > 0  # diff path actually ran

    def test_state_change_refreshes_incrementally(self):
        # The index holds dead nodes too; readers filter by the active
        # mask, so a failure needs no rebuild.
        net = _make_network()
        net.snapshot()
        net.nodes[3].fail()
        net.engine._now += 0.25
        _assert_snapshot_correct(net)
        assert net.snapshot_rebuilds == 1
        assert net.snapshot_incremental == 1
        nbrs = net.neighbors_of(3)  # live nodes in range of the dead one
        assert nbrs
        assert all(3 not in net.neighbors_of(n) for n in nbrs)
        net.nodes[3].restore()
        assert all(3 in net.neighbors_of(n) for n in nbrs)
        assert net.snapshot_rebuilds == 1

    def test_state_change_does_not_invalidate_fresh_cache(self):
        # fail() drops the active mask but does not age out the
        # position cache.
        net = _make_network()
        pos1, idx1 = net.snapshot()
        net.nodes[0].fail()
        pos2, idx2 = net.snapshot()
        assert idx2 is idx1

    def test_neighbors_of_matches_oracle_after_incremental_updates(self):
        net = build_network(n_nodes=50, seed=13)
        for k in range(8):
            net.engine._now += 0.3
            _, index = net.snapshot()
            for nid in range(0, 50, 7):
                p = net.position_of(nid)
                naive = NaiveIndex(index.positions, net.radio.range_m)
                got = set(net.neighbors_of(nid))
                want = {
                    int(i)
                    for i in naive.query_radius(p.x, p.y, net.radio.range_m)
                    if i != nid
                }
                assert got == want


class TestStalenessSemantics:
    def test_zero_resolution_means_always_fresh(self, monkeypatch):
        # Satellite fix: with SNAPSHOT_RESOLUTION = 0.0 a second query at
        # the same timestamp used to reuse a cache built *before* a
        # state change; `>=` staleness makes it rebuild every call.
        monkeypatch.setattr(network, "SNAPSHOT_RESOLUTION", 0.0)
        net = _make_network()
        net.snapshot()
        net.snapshot()
        # Both calls refreshed (second one via the no-change diff path);
        # before the `>=` fix the second call reused the cache without
        # re-checking positions at all.
        assert net.snapshot_rebuilds + net.snapshot_incremental == 2
        # And a fractional time step — smaller than any non-zero
        # resolution would allow — is picked up immediately.
        net.engine._now += 1e-6
        pos, _ = net.snapshot()
        assert net.snapshot_rebuilds + net.snapshot_incremental == 3

    def test_exact_age_boundary_refreshes(self):
        net = _make_network()
        net.snapshot()
        net.engine._now += 0.2  # age == resolution: stale, not fresh
        net.snapshot()
        assert net.snapshot_rebuilds + net.snapshot_incremental == 2

    def test_zero_resolution_sees_state_changes_immediately(self, monkeypatch):
        monkeypatch.setattr(network, "SNAPSHOT_RESOLUTION", 0.0)
        net = _make_network()
        net.snapshot()
        net.nodes[5].fail()
        assert 5 not in net.neighbors_of(net.node_nearest_to(net.position_of(5), exclude=5))
