"""The two-step partial multicast against intersection attacks (§3.3).

Instead of broadcasting each packet to all ~k nodes of the destination
zone, the last random forwarder multicasts packet *i* to only ``m``
of them; those holders sit on it until packet *i + 1* arrives in the
zone, then one-hop-broadcast the held packet.  The destination is
therefore *not* in the observable recipient set of every packet, which
breaks the attacker's set-intersection over repeated observations.

To stop the attacker from matching the rebroadcast bytes against the
original transmission, the last forwarder flips a random set of
payload bits and attaches the flip positions encrypted under the
destination's public key (the ``Bitmap`` field); the destination
undoes the flips before decrypting.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.crypto.cipher import PublicKeyCipher
from repro.crypto.keys import KeyPair, PublicKey


def apply_bit_flips(payload: bytes, positions: list[int]) -> bytes:
    """Flip the given bit positions of ``payload`` (involution)."""
    out = bytearray(payload)
    n_bits = len(out) * 8
    for pos in positions:
        if not 0 <= pos < n_bits:
            raise ValueError(f"bit position {pos} out of range")
        out[pos // 8] ^= 1 << (pos % 8)
    return bytes(out)


def encode_bitmap(positions: list[int]) -> bytes:
    """Serialise flip positions (u32 big-endian each)."""
    return b"".join(struct.pack(">I", p) for p in positions)


def decode_bitmap(blob: bytes) -> list[int]:
    """Inverse of :func:`encode_bitmap`."""
    if len(blob) % 4:
        raise ValueError("bitmap blob not 4-byte aligned")
    return [struct.unpack(">I", blob[i : i + 4])[0] for i in range(0, len(blob), 4)]


def scramble_payload(
    payload: bytes,
    dest_public: PublicKey,
    rng: np.random.Generator,
    n_flips: int = 8,
) -> tuple[bytes, bytes]:
    """Flip ``n_flips`` random bits; return (scrambled, encrypted bitmap).

    The flip positions are drawn from ``rng``; the bitmap is encrypted
    under ``dest_public``.  An empty payload comes back unchanged with
    an empty bitmap.
    """
    if not payload:
        return payload, b""
    n_bits = len(payload) * 8
    positions = sorted(
        int(p) for p in rng.choice(n_bits, size=min(n_flips, n_bits), replace=False)
    )
    scrambled = apply_bit_flips(payload, positions)
    cipher = PublicKeyCipher.for_encryption(dest_public)
    return scrambled, cipher.encrypt(encode_bitmap(positions))


def unscramble_payload(
    payload: bytes, bitmap_enc: bytes, dest_keypair: KeyPair
) -> bytes:
    """Destination-side recovery: decrypt the bitmap, undo the flips."""
    if not bitmap_enc:
        return payload
    positions = decode_bitmap(
        PublicKeyCipher.for_owner(dest_keypair).decrypt(bitmap_enc)
    )
    return apply_bit_flips(payload, positions)


def coverage_percent(m: int, k: int, p_c: float) -> float:
    """§3.3's coverage formula: ``m/k + (1 - m/k) · p_c``.

    The fraction of the zone's ``k`` nodes that end up receiving the
    packet when ``m`` first-step holders reach a fraction ``p_c`` of
    the remaining nodes in the second step.
    """
    if k <= 0 or not 0 <= m <= k:
        raise ValueError(f"need 0 <= m <= k with k > 0, got m={m}, k={k}")
    if not 0.0 <= p_c <= 1.0:
        raise ValueError(f"p_c must be in [0, 1], got {p_c}")
    frac = m / k
    return frac + (1.0 - frac) * p_c


class HolderState:
    """Held packets of one session awaiting the next zone delivery."""

    def __init__(self) -> None:
        #: (holder node id, held packet) pairs from the previous delivery
        self.holders: list[tuple[int, object]] = []
        #: seq of the packet currently held
        self.held_seq: int | None = None
