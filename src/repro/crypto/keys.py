"""Key material: RSA-style keypairs and symmetric keys.

Keypairs are textbook RSA over primes found with Miller–Rabin.  The
default modulus is tiny (64-bit) because these keys exist to exercise
the protocols' key-distribution paths, not to resist attack; see
``repro.crypto.cost_model`` for how the *simulated* expense of
realistic key sizes is charged.

RNG draw-order contract
-----------------------
Every golden trace depends on key generation consuming its ``rng``
stream in exactly this order:

* One ``integers(0, 1 << (half - 2), dtype=np.uint64)`` draw per prime
  *candidate* (``half = bits // 2``), whose top bit (exact width) and
  bottom bit (odd) are then forced on.
* A keypair takes the next two primes as ``p`` and ``q``; if ``p == q``
  or ``e`` divides ``(p - 1)(q - 1)`` it takes the two after them.
  The next keypair continues right after the last ``q`` drawn.

:func:`generate_keypair` draws candidates in bulk: one
``integers(..., size=m)`` call returns exactly the values of ``m``
scalar calls (PCG64 buffers 32-bit halves in its state).  Blocks
over-draw, so the generator is then rewound to its entry state and
advanced by one bulk draw of exactly the candidates used, which leaves
it where the scalar walk would; ``size=0`` draws nothing.
``tests/test_keygen_batch.py`` pins all of this against the scalar
reference in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SMALL_PRIMES = np.array((
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
), dtype=np.uint64)

# Deterministic Miller-Rabin witnesses: exact for every n < 4,759,123,141,
# which covers the uint64 domain below 2**32 where x * x cannot overflow.
_MR_WITNESSES_32 = (2, 7, 61)

#: Largest number of candidates drawn in one bulk block; bounds the
#: scratch arrays (a few MB at most) whatever the population.
_DRAW_BLOCK = 1 << 14

_E = 65537


def _is_prime(n: np.ndarray) -> np.ndarray:
    """Exact primality of each element of a uint64 array below ``2**32``.

    A sieve by ``_SMALL_PRIMES`` (an element *equal* to one is prime),
    then a deterministic Miller-Rabin on the survivors, which are all
    coprime to the witnesses.
    """
    n = np.asarray(n, dtype=np.uint64)
    prime = np.isin(n, _SMALL_PRIMES)
    coprime = n > 1
    for p in _SMALL_PRIMES:
        coprime &= n % p != 0
    idx = np.flatnonzero(coprime)
    one = np.uint64(1)
    for a in _MR_WITNESSES_32:
        m = n[idx]
        nm1 = m - one
        low = nm1 & (~nm1 + one)  # lowest set bit: n - 1 = d * low
        d = nm1 // low
        x, b = np.ones_like(m), np.uint64(a) % m  # x = a ** d % m
        for k in range(int(d.max(initial=0)).bit_length()):
            x = np.where(d >> np.uint64(k) & one, x * b % m, x)
            b = b * b % m
        ok = (x == one) | (x == nm1)
        # Square r - 1 more times, where low = 2**r.
        for j in range(1, int(low.max(initial=0)).bit_length() - 1):
            x = x * x % m
            ok |= (x == nm1) & (low >> np.uint64(j) > one)
        idx = idx[ok]
    prime[idx] = True
    return prime


@dataclass(frozen=True)
class PublicKey:
    """RSA public part ``(n, e)``."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        """Modulus width in bits."""
        return self.n.bit_length()


@dataclass(frozen=True)
class PrivateKey:
    """RSA private part ``(n, d)``."""

    n: int
    d: int


@dataclass(frozen=True)
class KeyPair:
    """An RSA keypair owned by one node."""

    public: PublicKey
    private: PrivateKey


def generate_keypair(
    rng: np.random.Generator, bits: int = 64, size: int | None = None
) -> KeyPair | list[KeyPair]:
    """Textbook-RSA keypairs with a ``bits``-bit modulus, ``6 <= bits <= 64``.

    ``size=None`` returns one :class:`KeyPair`; ``size=k`` returns a list
    of the ``k`` keypairs that ``k`` successive ``size=None`` calls would.
    ``rng`` is consumed as the module's draw-order contract describes.
    """
    if not 6 <= bits <= 64:
        raise ValueError(f"bits must be in [6, 64], got {bits}")
    count = 1 if size is None else size
    if count < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    half = bits // 2
    high = 1 << (half - 2)
    top = np.uint64(1 << (half - 1) | 1)
    entry_state = rng.bit_generator.state
    keys: list[KeyPair] = []
    p = None
    drawn = used = 0
    while len(keys) < count:
        # One odd candidate in ~0.35 * half is prime (prime number
        # theorem) and a key takes two; size the block ~15 % above that.
        m = min(_DRAW_BLOCK, 16 + (count - len(keys)) * half * 4 // 5)
        raw = rng.integers(0, high, size=m, dtype=np.uint64)
        cand = top | (raw << np.uint64(1))
        idx = np.flatnonzero(_is_prime(cand))
        for i, q in zip(idx.tolist(), cand[idx].tolist()):
            if p is None:
                p = q
                continue
            phi = (p - 1) * (q - 1)
            if p != q and phi % _E:
                n = p * q
                d = pow(_E, -1, phi)
                keys.append(KeyPair(PublicKey(n, _E), PrivateKey(n, d)))
                used = drawn + i + 1
                if len(keys) == count:
                    break
            p = None
        drawn += m
    rng.bit_generator.state = entry_state
    rng.integers(0, high, size=used, dtype=np.uint64)
    return keys[0] if size is None else keys


@dataclass(frozen=True)
class SymmetricKey:
    """A shared symmetric key (raw bytes).

    In ALERT this is ``K_s^S``: the per-session key the source embeds
    (public-key-encrypted) in its first packet to the destination.
    """

    material: bytes

    def __post_init__(self) -> None:
        if not self.material:
            raise ValueError("empty key material")

    @classmethod
    def generate(cls, rng: np.random.Generator, length: int = 16) -> "SymmetricKey":
        """Draw ``length`` random key bytes."""
        return cls(bytes(int(b) for b in rng.integers(0, 256, size=length)))
