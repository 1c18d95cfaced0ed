"""SHA-256 (FIPS 180-4): the pure-Python reference implementation.

The FLock module's frame-hash engine and crypto processor need a hash
primitive that lives entirely inside the simulated trusted boundary.  The
pure-Python implementation is self-contained so the repository has no
dependency on OpenSSL-backed wheels; it is verified against the FIPS test
vectors in the test suite.

Because every protocol message, DRBG draw and session MAC bottoms out in
this compression function, fleet-scale runs (``repro.runtime``) spend
nearly all their time here.  Speed therefore comes from the crypto
backend registry (:mod:`repro.crypto.backend`): consumers route digests
through an injected :class:`~repro.crypto.backend.CryptoBackend`, whose
``accelerated`` engine delegates to :mod:`hashlib` with byte-identical
output.  This module stays the executable specification the equivalence
suite pins that engine against.  (The old per-module
``set_accelerated`` global switch is retired in favour of the registry.)
"""

from __future__ import annotations

import struct

__all__ = ["SHA256", "sha256", "sha256_hex"]

_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

_H0 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

_MASK = 0xFFFFFFFF


class SHA256:
    """Incremental SHA-256 with the familiar ``update``/``digest`` API."""

    digest_size = 32
    block_size = 64
    name = "sha256"

    def __init__(self, data: bytes = b"") -> None:
        self._h = list(_H0)
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> "SHA256":
        """Absorb more message bytes."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"expected bytes-like, got {type(data).__name__}")
        data = bytes(data)
        self._length += len(data)
        self._buffer += data
        while len(self._buffer) >= 64:
            self._compress(self._buffer[:64])
            self._buffer = self._buffer[64:]
        return self

    def _compress(self, block: bytes) -> None:
        # Hot path: rotations are inlined and constants bound to locals.
        # (A function call per rotation costs ~3x on this, and the DRBG —
        # hence RSA key generation — sits directly on top of it.)
        mask = _MASK
        k = _K
        w = list(struct.unpack(">16I", block))
        append = w.append
        for i in range(16, 64):
            x = w[i - 15]
            s0 = ((x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ (x >> 3)) & mask
            y = w[i - 2]
            s1 = ((y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ (y >> 10)) & mask
            append((w[i - 16] + s0 + w[i - 7] + s1) & mask)

        a, b, c, d, e, f, g, h = self._h
        for i in range(64):
            s1 = ((e >> 6 | e << 26) ^ (e >> 11 | e << 21)
                  ^ (e >> 25 | e << 7)) & mask
            t1 = (h + s1 + ((e & f) ^ (~e & g)) + k[i] + w[i]) & mask
            s0 = ((a >> 2 | a << 30) ^ (a >> 13 | a << 19)
                  ^ (a >> 22 | a << 10)) & mask
            t2 = (s0 + ((a & b) ^ (a & c) ^ (b & c))) & mask
            h, g, f, e, d, c, b, a = (
                g, f, e, (d + t1) & mask, c, b, a, (t1 + t2) & mask)

        self._h = [(x + y) & mask for x, y in zip(self._h, (a, b, c, d, e, f, g, h))]

    def copy(self) -> "SHA256":
        """Independent clone of the running hash state."""
        clone = SHA256()
        clone._h = list(self._h)
        clone._buffer = self._buffer
        clone._length = self._length
        return clone

    def digest(self) -> bytes:
        """Digest of everything absorbed so far (state preserved)."""
        clone = self.copy()
        bit_length = clone._length * 8
        pad_len = (55 - clone._length) % 64
        clone.update(b"\x80" + b"\x00" * pad_len
                     + struct.pack(">Q", bit_length & 0xFFFFFFFFFFFFFFFF))
        assert not clone._buffer
        return struct.pack(">8I", *clone._h)

    def hexdigest(self) -> str:
        """Hex form of :meth:`digest`."""
        return self.digest().hex()


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 digest of ``data``."""
    return SHA256(data).digest()


def sha256_hex(data: bytes) -> str:
    """One-shot SHA-256 hex digest of ``data``."""
    return SHA256(data).hexdigest()
