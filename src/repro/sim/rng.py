"""Named, independently-seeded random streams.

Stochastic subsystems (mobility, MAC backoff, protocol randomness,
traffic jitter) each draw from their own named stream so that adding a
random draw in one subsystem does not perturb the sequence seen by
another — a standard variance-reduction discipline in network
simulation.  Streams are derived from a master seed with
``numpy.random.SeedSequence.spawn``-style child seeding keyed by the
stream name, so ``(master_seed, name)`` fully determines a stream.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 63-bit child seed from ``(master_seed, name)``.

    Uses SHA-256 over the pair so that streams are statistically
    independent and stable across processes and Python versions
    (``hash()`` is salted per-process and therefore unusable here).
    """
    payload = f"{master_seed}:{name}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class RngRegistry:
    """Registry of named :class:`numpy.random.Generator` streams.

    Example
    -------
    >>> reg = RngRegistry(42)
    >>> a = reg.stream("mobility")
    >>> b = reg.stream("mac")
    >>> reg.stream("mobility") is a   # cached
    True
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self.master_seed, name))
            self._streams[name] = gen
        return gen

    def names(self) -> list[str]:
        """Names of all streams created so far, in creation order."""
        return list(self._streams)
