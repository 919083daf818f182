"""Per-layer span recording from outside the program.

:class:`Tracer` replaces the public entry points of each layer — class
attributes and module functions, patched where callers look them up —
with wrappers that count calls and record spans.  A layer's self time
is its spans' duration minus the time of spans opened inside them, so
self times add up to the time spent inside any span.  Nothing in
``src/`` knows about this; :meth:`Tracer.uninstall` puts every original
back.

Set-up phases (``setup.*``) are *opaque*: a layer entry point called
while one is open (the location service's registration write round,
the snapshot interpolator's construction, ...) counts its call but its
time stays in the set-up phase, so the ``setup.*`` spans split
``setup_s`` and the other layers describe the event loop.
"""

from __future__ import annotations

import functools
import importlib
import time

#: (layer, owner, attribute): ``owner`` is ``"module"`` or
#: ``"module:Class"``; the attribute must be defined on that owner
#: itself, so uninstalling restores exactly what was there.  A module
#: function imported by name into another module is patched in both.
SITES: tuple[tuple[str, str, str], ...] = (
    ("sim", "repro.sim.engine:Engine", "run"),
    ("setup.keygen", "repro.net.network", "generate_keypair"),
    ("setup.network", "repro.net.network:Network", "__init__"),
    ("setup.location", "repro.location.service:LocationService", "__init__"),
    ("setup.protocol", "repro.experiments.runner", "make_protocol"),
    ("net.link", "repro.net.network:Network", "unicast"),
    ("net.link", "repro.net.network:Network", "local_broadcast"),
    ("net.link", "repro.net.network:Network", "broadcast_fanout"),
    ("net.mac", "repro.net.mac:Mac80211Dcf", "unicast"),
    ("net.mac", "repro.net.mac:Mac80211Dcf", "broadcast"),
    ("net.mac", "repro.net.mac:Mac80211Dcf", "unicast_batch"),
    ("net.mac", "repro.net.mac:Mac80211Dcf", "broadcast_batch"),
    ("net.hello", "repro.net.network:Network", "_emit_hello_round"),
    *(
        ("net.neighbor_table", "repro.net.neighbor_table:NeighborTable", name)
        for name in (
            "update", "bulk_update", "ingest_shared", "remove",
            "live_entries", "columns", "get", "purge", "__len__",
        )
    ),
    ("geometry", "repro.net.network:Network", "snapshot"),
    ("geometry", "repro.net.network:Network", "neighbors_of"),
    ("geometry", "repro.net.network:Network", "nodes_in_rect"),
    ("geometry", "repro.net.network:Network", "node_nearest_to"),
    ("routing", "repro.routing.gpsr", "next_hop_greedy"),
    ("routing", "repro.routing.gpsr", "next_hop_greedy_batched"),
    ("routing", "repro.routing.gpsr", "next_hop_right_hand"),
    ("routing", "repro.core.alert", "next_hop_greedy_batched"),
    ("core", "repro.net.node:Node", "deliver"),
    ("core", "repro.routing.base:RoutingProtocol", "send_data"),
    # ALERT's engine callbacks (crypto-delayed start, link-failure
    # retry, cover emission), which would otherwise count as ``sim``.
    ("core", "repro.core.alert:AlertProtocol", "_continue_from"),
    ("core", "repro.core.alert:AlertProtocol", "_on_link_failure"),
    ("core", "repro.core.notify_and_go:NotifyAndGo", "_send_cover"),
    ("core.zones", "repro.core.alert", "separate_from_zone"),
    ("core.zones", "repro.core.alert", "destination_zone"),
    *(
        ("crypto", "repro.crypto.cipher:SymmetricCipher", name)
        for name in ("encrypt", "encrypt_cost_only", "decrypt")
    ),
    *(
        ("crypto", "repro.crypto.cipher:PublicKeyCipher", name)
        for name in ("encrypt", "encrypt_cost_only", "decrypt", "sign", "verify")
    ),
    ("crypto", "repro.crypto.pseudonym:PseudonymManager", "current"),
    ("mobility", "repro.net.network:Network", "batch_positions"),
    ("mobility", "repro.mobility.base:SnapshotInterpolator", "__call__"),
    ("location", "repro.location.service:LocationService", "_write_round"),
    ("location", "repro.location.service:LocationService", "lookup"),
)

#: Self-time metric name of each layer.
SELF_METRICS: dict[str, str] = {
    layer: (
        f"{layer}_s" if layer.startswith("setup.") or layer == "core.zones"
        else f"{layer}.self_s"
    )
    for layer, _, _ in SITES
}


def site_name(owner: str, attr: str) -> str:
    """``module.Class.attr`` or ``module.attr``."""
    return f"{owner.replace(':', '.')}.{attr}"


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records per-layer self time and per-site call counts.

    ``self_s`` maps layer → seconds, ``calls`` maps site name → calls
    and ``tallies`` holds the counts a few wrappers derive from their
    arguments (broadcast receivers, batched resolutions).
    """

    def __init__(self) -> None:
        self.self_s = {layer: 0.0 for layer, _, _ in SITES}
        self.calls = {site_name(o, a): 0 for _, o, a in SITES}
        self.tallies = {
            "net.link.receivers": 0,
            "net.mac.batch_resolutions": 0,
            "routing.batched": 0,
        }
        # Child-time accumulators of the open spans; the bottom entry
        # collects the time of top-level spans.
        self._stack = [0.0]
        self._phase_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every site.  Call :meth:`uninstall` in a ``finally``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        from repro.net import mac
        from repro.net.neighbor_table import NeighborTable
        from repro.routing import gpsr

        table_len = NeighborTable.__len__  # the original, read before patching
        tallies = self.tallies

        def receivers(args, kwargs, result):
            tallies["net.link.receivers"] += len(result)

        def fanout_receivers(args, kwargs, result):
            # Below the cutover the fan-out calls local_broadcast, whose
            # wrapper already counted the receivers.
            if len(args[1]) >= mac._BATCH_MIN:
                tallies["net.link.receivers"] += sum(map(len, result))

        def mac_batch(args, kwargs, result):
            if len(result) >= mac._BATCH_MIN:
                tallies["net.mac.batch_resolutions"] += len(result)

        def greedy_batched(args, kwargs, result):
            batch_min = args[4] if len(args) > 4 else kwargs.get(
                "batch_min", gpsr._BATCH_MIN
            )
            if table_len(args[2]) >= batch_min:
                tallies["routing.batched"] += 1

        post = {
            "local_broadcast": receivers,
            "broadcast_fanout": fanout_receivers,
            "unicast_batch": mac_batch,
            "broadcast_batch": mac_batch,
            "next_hop_greedy_batched": greedy_batched,
        }
        try:
            for layer, owner, attr in SITES:
                obj = _resolve(owner)
                original = vars(obj)[attr]
                wrapper = self._wrap(
                    layer,
                    site_name(owner, attr),
                    original,
                    post.get(attr),
                    phase=layer.startswith("setup."),
                )
                self._saved.append((obj, attr, original))
                setattr(obj, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def _wrap(self, layer, site, fn, post, phase):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            calls[site] += 1
            if tracer._phase_depth and not phase:
                return fn(*args, **kwargs)
            if phase:
                tracer._phase_depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                stack[-1] += dt
                if phase:
                    tracer._phase_depth -= 1
            if post is not None:
                post(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # ------------------------------------------------------------------
    def layer_calls(self, layer: str) -> int:
        """Calls over every site of ``layer``."""
        return sum(
            self.calls[site_name(o, a)] for lay, o, a in SITES if lay == layer
        )

    def layer_metrics(self, result, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of a finished traced run of ``wall_s``."""
        out = {SELF_METRICS[layer]: s for layer, s in self.self_s.items()}
        engine = result.engine
        counts = engine.event_counts
        out["sim.events"] = engine.events_processed
        for cat in ("data", "control", "hello", "timer"):
            out[f"sim.events.{cat}"] = counts.get(cat, 0)

        out["net.link.calls"] = self.layer_calls("net.link")
        out["net.link.receivers"] = self.tallies["net.link.receivers"]

        mac = result.network.mac
        scalar = (
            self.calls["repro.net.mac.Mac80211Dcf.unicast"]
            + self.calls["repro.net.mac.Mac80211Dcf.broadcast"]
        )
        batched = self.tallies["net.mac.batch_resolutions"]
        out["net.mac.calls"] = self.layer_calls("net.mac")
        out["net.mac.attempts"] = mac.attempts_total
        out["net.mac.collisions"] = mac.collisions_total
        out["net.mac.drops"] = mac.drops_total
        out["net.mac.success_ratio"] = (
            (mac.attempts_total - mac.collisions_total) / mac.attempts_total
            if mac.attempts_total else 0.0
        )
        out["net.mac.batch_share"] = (
            batched / (batched + scalar) if batched + scalar else 0.0
        )

        out["net.hello.rounds"] = self.layer_calls("net.hello")
        out["net.neighbor_table.calls"] = self.layer_calls("net.neighbor_table")
        out["geometry.calls"] = self.layer_calls("geometry")
        out["geometry.snapshot_rebuilds"] = result.network.snapshot_rebuilds
        out["geometry.snapshot_incremental"] = result.network.snapshot_incremental

        greedy = (
            self.calls["repro.routing.gpsr.next_hop_greedy_batched"]
            + self.calls["repro.core.alert.next_hop_greedy_batched"]
        )
        out["routing.greedy_calls"] = greedy
        out["routing.batched_share"] = (
            self.tallies["routing.batched"] / greedy if greedy else 0.0
        )

        out["crypto.calls"] = self.layer_calls("crypto")
        out["crypto.cost_ops"] = (
            result.cost.total_operations()
            + result.protocol.location.cost_model.total_operations()
        )
        out["location.write_rounds"] = self.calls[
            "repro.location.service.LocationService._write_round"
        ]
        out["location.lookups"] = result.protocol.location.lookups
        out["trace.coverage"] = sum(self.self_s.values()) / wall_s
        return out
