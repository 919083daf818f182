"""Dynamic pseudonyms (paper §2.2).

Each node identifies itself by ``SHA-1(MAC address || timestamp)``
rather than its MAC address.  The timestamp's sub-second digits are
randomised ("we keep the precision of time stamp to a certain extent,
say 1 second, and randomize the digits within 1/10th") so an attacker
cannot recompute the pseudonym, and pseudonyms expire after
:attr:`PseudonymManager.lifetime` so they cannot be associated with
nodes over time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class Pseudonym:
    """One pseudonym: the digest plus its validity window."""

    digest: bytes
    issued_at: float
    expires_at: float

    def valid_at(self, t: float) -> bool:
        """Whether the pseudonym is still valid at time ``t``."""
        return self.issued_at <= t < self.expires_at

    @property
    def hex(self) -> str:
        """Hex rendering (used in logs and metrics keys)."""
        return self.digest.hex()


def compute_pseudonym(mac_address: bytes, timestamp: float) -> bytes:
    """SHA-1 over ``MAC || timestamp`` — the paper's construction."""
    payload = mac_address + format(timestamp, ".9f").encode()
    return hashlib.sha1(payload).digest()


class PseudonymManager:
    """Issues, rotates, and validates one node's pseudonyms.

    Parameters
    ----------
    mac_address:
        The node's real (hidden) MAC address bytes.
    rng:
        Random stream used to randomise the timestamp's sub-second
        digits.
    """

    #: Seconds a pseudonym stays valid before rotation, read through
    #: ``self`` at each rotation.  "If pseudonyms are changed too
    #: frequently, the routing may get perturbed; ... too infrequently,
    #: the adversaries may associate pseudonyms with nodes" (§2.2); the
    #: paper fixes no value, and 30 s sits in between.
    lifetime = 30.0

    def __init__(self, mac_address: bytes, rng: np.random.Generator) -> None:
        self.mac_address = mac_address
        self._rng = rng
        self._current: Pseudonym | None = None
        # Every digest this node ever issued, for O(1) ``was_ours`` —
        # the destination runs that check on every data delivery.
        self._digests: set[bytes] = set()

    def current(self, now: float) -> Pseudonym:
        """The valid pseudonym at ``now``, rotating if expired."""
        if self._current is None or not self._current.valid_at(now):
            self._rotate(now)
        assert self._current is not None
        return self._current

    def _rotate(self, now: float) -> None:
        # Whole-second precision with randomised 1/10th digits, per §2.2.
        base = float(int(now))
        fuzz = float(self._rng.uniform(0.0, 0.1))
        digest = compute_pseudonym(self.mac_address, base + fuzz)
        pseudonym = Pseudonym(
            digest=digest, issued_at=now, expires_at=now + self.lifetime
        )
        self._current = pseudonym
        self._digests.add(digest)

    def was_ours(self, digest: bytes) -> bool:
        """Whether this node ever used ``digest`` (test/metric helper).

        Real protocol code never calls this — it models the *node's own*
        knowledge, which adversaries do not have.
        """
        return digest in self._digests
