"""Symmetric and public-key ciphers (functional layer).

``SymmetricCipher`` is a hash-counter stream cipher (SHA-256 keystream
XOR) standing in for AES; ``PublicKeyCipher`` is chunked textbook RSA
standing in for the paper's RSA.  Both round-trip exactly and fail
loudly on the wrong key with overwhelming probability thanks to an
appended keyed MAC tag.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.keys import KeyPair, PublicKey, SymmetricKey

_TAG_LEN = 8


class IntegrityError(ValueError):
    """Decryption failed authentication (wrong key or tampered data)."""


# bench/spans.py wraps both encrypt_cost_only methods by name; drop
# them, ShadowCiphertext and the shadow branches of decrypt once its
# SITES no longer list them.
class ShadowCiphertext(bytes):
    """Wire-length-exact placeholder ciphertext; no protocol emits one.

    A ``bytes`` instance of exactly the wire length the genuine cipher
    would have produced that also carries the true plaintext, so
    correct-key decryption restores it without modular arithmetic.

    Construct with either an ``int`` (zero bytes of that wire length)
    or existing content bytes.
    """

    plaintext: bytes

    def __new__(
        cls, content: int | bytes, plaintext: bytes
    ) -> "ShadowCiphertext":
        self = super().__new__(cls, content)
        self.plaintext = plaintext
        return self

    def __getnewargs__(self) -> tuple[bytes, bytes]:
        # Packets deepcopy their headers on fork; rebuild with both
        # constructor arguments (plain bytes only carries itself).
        return (bytes(self), self.plaintext)


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """SHA-256 counter-mode keystream of exactly ``length`` bytes."""
    if length <= 0:
        return b""
    prefix = key + nonce
    blocks = b"".join(
        hashlib.sha256(prefix + counter.to_bytes(8, "big")).digest()
        for counter in range((length + 31) // 32)
    )
    return blocks[:length] if len(blocks) != length else blocks


def _xor(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings via one big-int operation."""
    n = len(a)
    return (
        int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    ).to_bytes(n, "big")


class SymmetricCipher:
    """Authenticated stream cipher under a :class:`SymmetricKey`.

    Wire format: ``nonce (8) || ciphertext || tag (8)``.
    """

    NONCE_LEN = 8

    def __init__(self, key: SymmetricKey) -> None:
        self._key = key.material

    def encrypt(self, plaintext: bytes, nonce: bytes) -> bytes:
        """Encrypt ``plaintext`` under the given 8-byte nonce."""
        if len(nonce) != self.NONCE_LEN:
            raise ValueError(f"nonce must be {self.NONCE_LEN} bytes")
        stream = _keystream(self._key, nonce, len(plaintext))
        ct = _xor(plaintext, stream)
        tag = hmac.new(self._key, nonce + ct, hashlib.sha256).digest()[:_TAG_LEN]
        return nonce + ct + tag

    def encrypt_cost_only(self, plaintext: bytes, nonce: bytes) -> ShadowCiphertext:
        """Wire-length-exact placeholder for :meth:`encrypt`."""
        if len(nonce) != self.NONCE_LEN:
            raise ValueError(f"nonce must be {self.NONCE_LEN} bytes")
        return ShadowCiphertext(
            self.NONCE_LEN + len(plaintext) + _TAG_LEN, plaintext
        )

    def decrypt(self, blob: bytes) -> bytes:
        """Decrypt and authenticate; raises :class:`IntegrityError`."""
        if isinstance(blob, ShadowCiphertext):
            return blob.plaintext
        if len(blob) < self.NONCE_LEN + _TAG_LEN:
            raise IntegrityError("ciphertext too short")
        nonce = blob[: self.NONCE_LEN]
        ct = blob[self.NONCE_LEN : -_TAG_LEN]
        tag = blob[-_TAG_LEN:]
        expect = hmac.new(self._key, nonce + ct, hashlib.sha256).digest()[:_TAG_LEN]
        if not hmac.compare_digest(tag, expect):
            raise IntegrityError("authentication tag mismatch")
        stream = _keystream(self._key, nonce, len(ct))
        return _xor(ct, stream)


class PublicKeyCipher:
    """Chunked textbook RSA over byte strings.

    Plaintext is split into chunks strictly smaller than the modulus;
    each chunk is padded with a one-byte length header so decryption
    restores exact byte boundaries.
    """

    def __init__(self, public: PublicKey, keypair: KeyPair | None = None) -> None:
        self._public = public
        self._keypair = keypair
        n_bytes = (public.n.bit_length() + 7) // 8
        # Reserve one byte of headroom so the chunk integer < n, and one
        # byte for the length header.
        self._chunk = max(n_bytes - 2, 1)
        self._block = n_bytes

    @classmethod
    def for_encryption(cls, public: PublicKey) -> "PublicKeyCipher":
        """Cipher that can encrypt (and verify) only."""
        return cls(public)

    @classmethod
    def for_owner(cls, keypair: KeyPair) -> "PublicKeyCipher":
        """Cipher for the keypair owner (can also decrypt and sign)."""
        return cls(keypair.public, keypair)

    # -- encryption ------------------------------------------------------
    def ciphertext_length(self, plaintext_len: int) -> int:
        """Wire length :meth:`encrypt` produces for a plaintext length."""
        blocks = -(-plaintext_len // self._chunk) if plaintext_len else 1
        return blocks * self._block

    def encrypt_cost_only(self, plaintext: bytes) -> ShadowCiphertext:
        """Wire-length-exact placeholder for :meth:`encrypt`."""
        return ShadowCiphertext(
            self.ciphertext_length(len(plaintext)), plaintext
        )

    def encrypt(self, plaintext: bytes) -> bytes:
        """RSA-encrypt ``plaintext`` (any length) for the public key."""
        out = bytearray()
        for i in range(0, len(plaintext), self._chunk):
            piece = plaintext[i : i + self._chunk]
            framed = bytes([len(piece)]) + piece.ljust(self._chunk, b"\0")
            m = int.from_bytes(framed, "big")
            c = pow(m, self._public.e, self._public.n)
            out.extend(c.to_bytes(self._block, "big"))
        # Empty plaintext still produces one block so the ciphertext is
        # never empty (simplifies packet handling).
        if not plaintext:
            framed = bytes([0]) + b"\0" * self._chunk
            m = int.from_bytes(framed, "big")
            c = pow(m, self._public.e, self._public.n)
            out.extend(c.to_bytes(self._block, "big"))
        return bytes(out)

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt with the private key; requires owner construction."""
        if self._keypair is None:
            raise PermissionError("no private key available")
        if isinstance(ciphertext, ShadowCiphertext):
            return ciphertext.plaintext
        if len(ciphertext) % self._block:
            raise IntegrityError("ciphertext not block-aligned")
        priv = self._keypair.private
        out = bytearray()
        for i in range(0, len(ciphertext), self._block):
            c = int.from_bytes(ciphertext[i : i + self._block], "big")
            if c >= priv.n:
                raise IntegrityError("ciphertext block out of range")
            m = pow(c, priv.d, priv.n)
            try:
                framed = m.to_bytes(self._chunk + 1, "big")
            except OverflowError as exc:
                raise IntegrityError("decryption under wrong key") from exc
            length = framed[0]
            if length > self._chunk:
                raise IntegrityError("corrupt chunk header")
            out.extend(framed[1 : 1 + length])
        return bytes(out)

    # -- signatures ------------------------------------------------------
    def sign(self, message: bytes) -> int:
        """Sign ``message`` (hash-then-exponentiate)."""
        if self._keypair is None:
            raise PermissionError("no private key available")
        priv = self._keypair.private
        digest = int.from_bytes(
            hashlib.sha256(message).digest(), "big"
        ) % priv.n
        return pow(digest, priv.d, priv.n)

    def verify(self, message: bytes, signature: int) -> bool:
        """Verify a signature produced by :meth:`sign`."""
        digest = int.from_bytes(
            hashlib.sha256(message).digest(), "big"
        ) % self._public.n
        return pow(signature, self._public.e, self._public.n) == digest


def hybrid_encrypt(
    public: PublicKey, key: SymmetricKey, plaintext: bytes, nonce: bytes
) -> tuple[bytes, bytes]:
    """ALERT's hybrid scheme: wrap ``key`` under ``public``, encrypt data.

    Returns ``(wrapped_key, ciphertext)`` — exactly the paper's §2.5
    construction where the source embeds ``K_s^S`` encrypted with the
    destination's public key and protects the payload symmetrically.
    """
    wrapped = PublicKeyCipher.for_encryption(public).encrypt(key.material)
    ciphertext = SymmetricCipher(key).encrypt(plaintext, nonce)
    return wrapped, ciphertext


def hybrid_decrypt(
    keypair: KeyPair, wrapped_key: bytes, ciphertext: bytes
) -> bytes:
    """Inverse of :func:`hybrid_encrypt` at the destination."""
    material = PublicKeyCipher.for_owner(keypair).decrypt(wrapped_key)
    key = SymmetricKey(material)
    return SymmetricCipher(key).decrypt(ciphertext)
