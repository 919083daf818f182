"""Simulated-time cost of cryptographic operations.

The paper's §5.2 calibration, measured single-threaded on a 1.8 GHz
processor: "A typical symmetric encryption costs several milliseconds
while a public key encryption operation costs 2-3 hundred
milliseconds."  Those two constants — and *how many* of each operation
a protocol performs per packet — are what separates ALERT's latency
curve from ALARM's and AO2P's in Figs. 14a/14b.  Charging them as
simulated seconds (rather than wall-clock) keeps benchmarks fast and
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CryptoCostModel:
    """Per-operation simulated costs, in seconds, and a tally of charges.

    The costs are class attributes, read through ``self`` at each
    charge, so a test can set one on an instance.
    """

    #: "A typical symmetric encryption costs several milliseconds"
    #: (§5.2): 3 ms each way.
    symmetric_encrypt_s = 0.003
    symmetric_decrypt_s = 0.003
    #: "A public key encryption operation costs 2-3 hundred
    #: milliseconds" (§5.2): the mid-point, 250 ms each way.
    pubkey_encrypt_s = 0.25
    pubkey_decrypt_s = 0.25
    #: Signatures and verifications are public-key operations, priced
    #: alike (the paper gives them no figure of their own).
    sign_s = 0.25
    verify_s = 0.25
    #: Hashes are negligible next to §5.2's figures but not free.
    hash_s = 0.00001
    #: running tally of charged operations, by name
    charges: dict[str, int] = field(default_factory=dict)

    def _charge(self, name: str, cost: float, count: int) -> float:
        if count < 0:
            raise ValueError(f"negative op count {count!r}")
        self.charges[name] = self.charges.get(name, 0) + count
        return cost * count

    def symmetric_encrypt(self, count: int = 1) -> float:
        """Cost of ``count`` symmetric encryptions."""
        return self._charge("symmetric_encrypt", self.symmetric_encrypt_s, count)

    def symmetric_decrypt(self, count: int = 1) -> float:
        """Cost of ``count`` symmetric decryptions."""
        return self._charge("symmetric_decrypt", self.symmetric_decrypt_s, count)

    def pubkey_encrypt(self, count: int = 1) -> float:
        """Cost of ``count`` public-key encryptions."""
        return self._charge("pubkey_encrypt", self.pubkey_encrypt_s, count)

    def pubkey_decrypt(self, count: int = 1) -> float:
        """Cost of ``count`` public-key decryptions."""
        return self._charge("pubkey_decrypt", self.pubkey_decrypt_s, count)

    def sign(self, count: int = 1) -> float:
        """Cost of ``count`` signature generations."""
        return self._charge("sign", self.sign_s, count)

    def verify(self, count: int = 1) -> float:
        """Cost of ``count`` signature verifications."""
        return self._charge("verify", self.verify_s, count)

    def hash(self, count: int = 1) -> float:
        """Cost of ``count`` hash computations."""
        return self._charge("hash", self.hash_s, count)

    def total_operations(self) -> int:
        """Total crypto operations charged so far."""
        return sum(self.charges.values())
