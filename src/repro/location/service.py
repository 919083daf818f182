"""Client-facing location service API.

``LocationService`` wires the replicated servers to the network: nodes
register at start-up, push position updates periodically when
*destination update* is enabled, and any node can perform a signed
lookup of another node's (position, public key).

Lookup requests are genuinely signed and verified (the paper's §2.2
protocol: "it will sign the request containing B's identity using its
own identity"), exercising the crypto substrate; the per-lookup crypto
cost is tallied but — matching the paper's latency metric, which starts
the clock when the data packet leaves the source — not charged to
packet latency.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.crypto.cipher import PublicKeyCipher
from repro.crypto.cost_model import CryptoCostModel
from repro.geometry.primitives import Point
from repro.location.server import LocationRecord, LocationServer
from repro.net.network import Network
from repro.sim.process import PeriodicTask


class LookupError_(RuntimeError):
    """No live server could answer a location lookup."""


class LocationService:
    """The replicated location service attached to one network.

    Parameters
    ----------
    network:
        The network whose nodes this service covers.  It gets
        ``N_L = round(sqrt(N))`` replicated servers (at least one), the
        count the paper's §4.3 overhead analysis wants.
    updates_enabled:
        The *destination update* toggle.  When ``True`` every node
        pushes its position each ``update_interval``; when ``False``
        only the initial registration exists, so lookups return stale
        positions — exactly the "without destination update" condition
        of Figs. 14b/15b/16b.
    update_interval:
        Push period in seconds when updates are enabled.
    cost_model:
        Where signature/verify costs of lookups are tallied.
    """

    def __init__(
        self,
        network: Network,
        updates_enabled: bool = True,
        update_interval: float = 2.0,
        cost_model: CryptoCostModel | None = None,
    ) -> None:
        n_servers = max(int(round(network.n_nodes**0.5)), 1)
        self.network = network
        self.updates_enabled = updates_enabled
        self.update_interval = update_interval
        self.cost_model = cost_model if cost_model is not None else CryptoCostModel()
        self.servers = [LocationServer(i) for i in range(n_servers)]
        self._update_task: PeriodicTask | None = None
        self.lookups = 0
        self.failed_lookups = 0
        # Write-round columns that never change between rounds (node
        # ids, long-term public keys), gathered lazily on first use.
        self._ids: list[int] | None = None
        self._publics: list | None = None

        self._register_all()
        if updates_enabled:
            self._update_task = PeriodicTask(
                network.engine,
                update_interval,
                self._push_updates,
                start_offset=update_interval,
            )

    # ------------------------------------------------------------------
    def _home_server(self, node_id: int) -> LocationServer:
        return self.servers[node_id % len(self.servers)]

    def _register_all(self) -> None:
        self._write_round()

    def _push_updates(self) -> None:
        self._write_round()

    def _write_round(self) -> None:
        """Write every node's current record to every server.

        One update round is ``N`` records fanned out to ``N_L``
        replicas — ``N·N_L`` stores, the service's dominant cost at
        large ``N``.  Positions for the whole population come from one
        ``Network.batch_positions`` pass: models are visited in node
        order, so every trajectory extension draws exactly what
        per-node ``position(now)`` calls would (and nodes whose
        trajectory already covers ``now`` draw nothing, same as the
        warm-cache scalar path).  Each node's position cache is primed with its
        fix, leaving per-node state as the scalar loop would.  Each
        server then adopts the round dict by reference in one
        :meth:`LocationServer.adopt_round` call; resulting tables and
        write/replication counter totals are identical to per-record
        stores.
        """
        now = self.network.engine.now
        nodes = self.network.nodes
        pos = np.empty((len(nodes), 2), dtype=np.float64)
        self.network.batch_positions(now, out=pos)
        # Positional map-construction keeps the per-node work (one
        # Point, one record, one cache prime) inside C-level iteration;
        # key generation never rotates, so the public-key column is
        # gathered once and reused every round.
        ids = self._ids
        if ids is None:
            ids = self._ids = [node.id for node in nodes]
            self._publics = [node.keypair.public for node in nodes]
        pts = list(map(Point, pos[:, 0].tolist(), pos[:, 1].tolist()))
        for node, p in zip(nodes, pts):
            node.prime_position(now, p)
        records: dict[int, LocationRecord] = dict(
            zip(
                ids,
                map(LocationRecord, ids, pts, self._publics, repeat(now)),
            )
        )
        n_servers = len(self.servers)
        n = len(records)
        # Node i homes at server i % N_L, so server s owns ceil/floor
        # counts of the contiguous id range.
        base, extra = divmod(n, n_servers)
        for server in self.servers:
            home_count = base + (1 if server.id < extra else 0)
            # The round covers every node, so replicas adopt the one
            # dict by reference instead of merging N records into each
            # of N_L tables — the service's former dominant cost at
            # large N.
            server.adopt_round(records, home_count)

    # ------------------------------------------------------------------
    def lookup(self, requester_id: int, target_id: int) -> LocationRecord:
        """Signed lookup of ``target_id``'s record.

        Tries servers starting from the requester's home replica and
        fails over to peers, so individual server failures are
        transparent ("each node can be in contact with all location
        servers in range").

        Raises
        ------
        LookupError_
            If no live server holds the record.
        """
        requester = self.network.nodes[requester_id]
        request = f"lookup:{target_id}".encode()
        signer = PublicKeyCipher.for_owner(requester.keypair)
        signature = signer.sign(request)
        self.cost_model.sign()

        order = [self._home_server(requester_id)] + [
            s for s in self.servers if s.id != self._home_server(requester_id).id
        ]
        for server in order:
            if not server.alive:
                continue
            # Server verifies the request signature before answering.
            verifier = PublicKeyCipher.for_encryption(requester.keypair.public)
            self.cost_model.verify()
            if not verifier.verify(request, signature):
                continue  # pragma: no cover - signature always valid here
            record = server.fetch(target_id)
            if record is not None:
                self.lookups += 1
                return record
        self.failed_lookups += 1
        raise LookupError_(f"no live server knows node {target_id}")

    def stop(self) -> None:
        """Stop the periodic update task (end of a run)."""
        if self._update_task is not None:
            self._update_task.stop()
            self._update_task = None

    # ------------------------------------------------------------------
    def message_overhead(self, duration: float, data_frequency: float) -> float:
        """§4.3 overhead ratio for this deployment.

        ``(N_L(N_L-1)f T + N f T) / (N F T)`` with ``f`` the update
        frequency, ``F`` the regular-communication frequency.
        """
        n = self.network.n_nodes
        n_l = len(self.servers)
        f = (1.0 / self.update_interval) if self.updates_enabled else 0.0
        big_f = data_frequency
        if big_f <= 0:
            raise ValueError("data_frequency must be positive")
        numerator = n_l * (n_l - 1) * f * duration + n * f * duration
        return numerator / (n * big_f * duration)
