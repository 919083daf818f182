"""Tests for the symmetric / public-key ciphers and hybrid scheme."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.cipher import (
    IntegrityError,
    PublicKeyCipher,
    SymmetricCipher,
    hybrid_decrypt,
    hybrid_encrypt,
)
from repro.crypto.keys import SymmetricKey, generate_keypair

RNG = np.random.default_rng(42)
KP = generate_keypair(RNG, bits=64)
KEY = SymmetricKey.generate(RNG)
NONCE = b"\x00" * 8


class TestSymmetricCipher:
    def test_roundtrip(self):
        c = SymmetricCipher(KEY)
        blob = c.encrypt(b"hello world", NONCE)
        assert c.decrypt(blob) == b"hello world"

    def test_ciphertext_differs_from_plaintext(self):
        c = SymmetricCipher(KEY)
        blob = c.encrypt(b"hello world", NONCE)
        assert b"hello world" not in blob

    def test_nonce_changes_ciphertext(self):
        c = SymmetricCipher(KEY)
        a = c.encrypt(b"data", b"\x00" * 8)
        b = c.encrypt(b"data", b"\x01" * 8)
        assert a != b

    def test_wrong_key_fails_auth(self):
        blob = SymmetricCipher(KEY).encrypt(b"secret", NONCE)
        other = SymmetricCipher(SymmetricKey(b"other-key-bytes!"))
        with pytest.raises(IntegrityError):
            other.decrypt(blob)

    def test_tampered_ciphertext_fails_auth(self):
        blob = bytearray(SymmetricCipher(KEY).encrypt(b"secret", NONCE))
        blob[10] ^= 0xFF
        with pytest.raises(IntegrityError):
            SymmetricCipher(KEY).decrypt(bytes(blob))

    def test_short_blob_rejected(self):
        with pytest.raises(IntegrityError):
            SymmetricCipher(KEY).decrypt(b"tiny")

    def test_bad_nonce_length_rejected(self):
        with pytest.raises(ValueError):
            SymmetricCipher(KEY).encrypt(b"x", b"short")

    def test_empty_plaintext(self):
        c = SymmetricCipher(KEY)
        assert c.decrypt(c.encrypt(b"", NONCE)) == b""

    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=600), st.binary(min_size=8, max_size=8))
    def test_roundtrip_property(self, data, nonce):
        c = SymmetricCipher(KEY)
        assert c.decrypt(c.encrypt(data, nonce)) == data


class TestPublicKeyCipher:
    def test_roundtrip(self):
        enc = PublicKeyCipher.for_encryption(KP.public)
        dec = PublicKeyCipher.for_owner(KP)
        ct = enc.encrypt(b"wrapped session key material")
        assert dec.decrypt(ct) == b"wrapped session key material"

    def test_empty_plaintext_roundtrip(self):
        enc = PublicKeyCipher.for_encryption(KP.public)
        dec = PublicKeyCipher.for_owner(KP)
        assert dec.decrypt(enc.encrypt(b"")) == b""

    def test_decrypt_without_private_key_raises(self):
        enc = PublicKeyCipher.for_encryption(KP.public)
        with pytest.raises(PermissionError):
            enc.decrypt(enc.encrypt(b"data"))

    def test_wrong_key_decrypt_garbles_or_raises(self):
        other = generate_keypair(np.random.default_rng(9), bits=64)
        ct = PublicKeyCipher.for_encryption(KP.public).encrypt(b"data-data")
        dec = PublicKeyCipher.for_owner(other)
        try:
            assert dec.decrypt(ct) != b"data-data"
        except IntegrityError:
            pass  # also acceptable

    def test_misaligned_ciphertext_rejected(self):
        dec = PublicKeyCipher.for_owner(KP)
        with pytest.raises(IntegrityError):
            dec.decrypt(b"\x01\x02\x03")

    def test_sign_verify(self):
        signer = PublicKeyCipher.for_owner(KP)
        sig = signer.sign(b"message")
        assert PublicKeyCipher.for_encryption(KP.public).verify(b"message", sig)

    def test_verify_rejects_tampered_message(self):
        signer = PublicKeyCipher.for_owner(KP)
        sig = signer.sign(b"message")
        assert not signer.verify(b"messagX", sig)

    def test_verify_rejects_wrong_signer(self):
        other = generate_keypair(np.random.default_rng(11), bits=64)
        sig = PublicKeyCipher.for_owner(other).sign(b"m")
        assert not PublicKeyCipher.for_encryption(KP.public).verify(b"m", sig)

    def test_sign_without_private_raises(self):
        with pytest.raises(PermissionError):
            PublicKeyCipher.for_encryption(KP.public).sign(b"m")

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=200))
    def test_roundtrip_property(self, data):
        enc = PublicKeyCipher.for_encryption(KP.public)
        dec = PublicKeyCipher.for_owner(KP)
        assert dec.decrypt(enc.encrypt(data)) == data


class TestHybrid:
    def test_hybrid_roundtrip(self):
        wrapped, ct = hybrid_encrypt(KP.public, KEY, b"payload bytes", NONCE)
        assert hybrid_decrypt(KP, wrapped, ct) == b"payload bytes"

    def test_hybrid_wrong_keypair_fails(self):
        other = generate_keypair(np.random.default_rng(13), bits=64)
        wrapped, ct = hybrid_encrypt(KP.public, KEY, b"payload", NONCE)
        with pytest.raises((IntegrityError, ValueError)):
            hybrid_decrypt(other, wrapped, ct)


class TestShadowCiphertext:
    """Shadow placeholders must be wire-compatible with real output."""

    @given(pt=st.binary(max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_shadow_length_matches_real(self, pt):
        c = SymmetricCipher(KEY)
        assert len(c.encrypt_cost_only(pt, NONCE)) == len(c.encrypt(pt, NONCE))

    @given(pt=st.binary(max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_pubkey_shadow_length_matches_real(self, pt):
        c = PublicKeyCipher.for_encryption(KP.public)
        shadow = c.encrypt_cost_only(pt)
        assert len(shadow) == len(c.encrypt(pt))
        assert len(shadow) == c.ciphertext_length(len(pt))

    @given(pt=st.binary(max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_shadow_decrypts_to_plaintext(self, pt):
        sym = SymmetricCipher(KEY)
        assert sym.decrypt(sym.encrypt_cost_only(pt, NONCE)) == pt
        pub = PublicKeyCipher.for_owner(KP)
        assert pub.decrypt(pub.encrypt_cost_only(pt)) == pt

    def test_shadow_survives_deepcopy(self):
        import copy

        from repro.crypto.cipher import ShadowCiphertext

        s = SymmetricCipher(KEY).encrypt_cost_only(b"secret", NONCE)
        clone = copy.deepcopy(s)
        assert isinstance(clone, ShadowCiphertext)
        assert bytes(clone) == bytes(s)
        assert clone.plaintext == b"secret"

    def test_shadow_bytes_are_zero_filled(self):
        s = SymmetricCipher(KEY).encrypt_cost_only(b"abc", NONCE)
        assert set(bytes(s)) == {0}

    def test_pubkey_shadow_decrypt_requires_private_key(self):
        enc_only = PublicKeyCipher.for_encryption(KP.public)
        shadow = enc_only.encrypt_cost_only(b"x")
        with pytest.raises(PermissionError):
            enc_only.decrypt(shadow)
