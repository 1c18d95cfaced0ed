"""Pluggable crypto backends: one registry, two interchangeable engines.

Every signature, MAC, digest and DRBG draw in the tree goes through a
:class:`CryptoBackend`.  The base class *is* the ``reference`` backend —
it calls the from-scratch primitives in this package (pure-Python SHA-256
rounds, the class-based HMAC, per-call CRT recomputation) and therefore
serves as the executable specification.  :class:`AcceleratedBackend`
reimplements the hot paths (stdlib ``hashlib``/``hmac`` digests, cached
CRT parameters, a branchless Montgomery ladder for private-key
decryption, whole-block DRBG/ChaCha20 keystreams) and is pinned
byte-identical to the reference by the cross-backend equivalence suite:
same DRBG stream, same signatures, same envelopes, same transcripts.

Consumers take an injected backend with a free default — the same
pattern as the obs ``Instrumentation`` bundle: ``backend=None`` in a
constructor resolves to :func:`default_backend`, which honours the
``REPRO_CRYPTO_BACKEND`` environment variable (and the ``--backend``
flag of ``python -m repro load``).  Backends are stateless apart from
pure memo caches, so one instance is shared process-wide and
``deepcopy`` (the fleet factory clones whole devices) returns the same
instance — the backend is ambient wiring, not object state.

Adding a third backend: subclass :class:`CryptoBackend`, override any
subset of operations, and :func:`register_backend` a factory under a new
name.  The equivalence suite in ``tests/crypto/test_backend_equivalence``
is parameterized over :func:`available_backends`, so a new backend is
held to the same byte-identity bar automatically.
"""

from __future__ import annotations

import hashlib as _hashlib
import hmac as _stdlib_hmac
import os
from typing import Callable, Iterable

from .chacha20 import SessionCipher, chacha20_block, chacha20_xor
from .mac import HMAC, hkdf_sha256, hmac_md5, hmac_sha256
from .md5 import MD5, md5, md5_hex
from .rng import HmacDrbg
from .rsa import (
    RsaPrivateKey,
    RsaPublicKey,
    _emsa_pkcs1_v15,
    _modinv,
    _unpad_pkcs1_v15,
    generate_keypair,
)
from .sha256 import SHA256, sha256, sha256_hex

__all__ = [
    "CryptoBackend",
    "AcceleratedBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "default_backend",
    "set_default_backend",
]

#: Environment variable selecting the process-wide default backend.
BACKEND_ENV_VAR = "REPRO_CRYPTO_BACKEND"


class CryptoBackend:
    """The crypto engine interface; the base class is the ``reference``
    implementation built on this package's from-scratch primitives."""

    name = "reference"

    # ------------------------------------------------------------- digests
    def sha256(self, data: bytes) -> bytes:
        """One-shot SHA-256 digest."""
        return sha256(data)

    def sha256_hex(self, data: bytes) -> str:
        """One-shot SHA-256 hex digest."""
        return sha256_hex(data)

    def new_sha256(self, data: bytes = b""):
        """Incremental SHA-256 object (``update``/``digest``/``copy``)."""
        return SHA256(data)

    def md5(self, data: bytes) -> bytes:
        """One-shot MD5 digest (frame-hash checksum only)."""
        return md5(data)

    def md5_hex(self, data: bytes) -> str:
        """One-shot MD5 hex digest."""
        return md5_hex(data)

    def new_md5(self, data: bytes = b""):
        """Incremental MD5 object."""
        return MD5(data)

    # ------------------------------------------------------------- MAC/KDF
    def hmac_sha256(self, key: bytes, message: bytes) -> bytes:
        """One-shot HMAC-SHA256 tag."""
        return hmac_sha256(key, message)

    def hmac_md5(self, key: bytes, message: bytes) -> bytes:
        """One-shot HMAC-MD5 tag."""
        return hmac_md5(key, message)

    def hkdf_sha256(self, ikm: bytes, length: int, salt: bytes = b"",
                    info: bytes = b"") -> bytes:
        """HKDF-Extract-then-Expand with SHA-256."""
        return hkdf_sha256(ikm, length, salt=salt, info=info)

    # ---------------------------------------------------------------- DRBG
    def make_drbg(self, seed: bytes, personalization: bytes = b"") -> HmacDrbg:
        """An HMAC-DRBG whose HMAC engine belongs to this backend.

        The output stream is a pure function of (seed, personalization,
        call sequence) — identical for every backend — so swapping
        backends never perturbs nonces, padding or generated keys.
        """
        return HmacDrbg(seed, personalization=personalization,
                        hmac_fn=hmac_sha256)

    # ----------------------------------------------------------------- RSA
    def generate_keypair(self, rng: HmacDrbg, bits: int = 1024,
                         e: int = 65537) -> RsaPrivateKey:
        """RSA key generation; consumes the DRBG identically per backend."""
        return generate_keypair(rng, bits=bits, e=e)

    def rsa_sign(self, key: RsaPrivateKey, message: bytes) -> bytes:
        """EMSA-PKCS1-v1_5 SHA-256 signature (deterministic)."""
        return key.sign(message)

    def rsa_verify(self, key: RsaPublicKey, message: bytes,
                   signature: bytes) -> bool:
        """Verify an EMSA-PKCS1-v1_5 SHA-256 signature."""
        return key.verify(message, signature)

    def rsa_verify_batch(
        self, checks: Iterable[tuple[RsaPublicKey, bytes, bytes]],
    ) -> list[bool]:
        """Verify a batch of (key, message, signature) triples.

        The reference semantics are simply element-wise verification;
        accelerated backends may share padding/digest work across the
        batch.  Order of results matches order of inputs.
        """
        return [key.verify(message, signature)
                for key, message, signature in checks]

    def rsa_encrypt(self, key: RsaPublicKey, plaintext: bytes,
                    rng: HmacDrbg) -> bytes:
        """RSAES-PKCS1-v1_5 encryption; padding bytes come from ``rng``
        with identical draw sequence on every backend."""
        return key.encrypt(plaintext, rng)

    def rsa_decrypt(self, key: RsaPrivateKey, ciphertext: bytes) -> bytes:
        """RSAES-PKCS1-v1_5 decryption with constant-time unpadding."""
        return key.decrypt(ciphertext)

    # -------------------------------------------------------------- stream
    def chacha20_xor(self, key: bytes, nonce: bytes, data: bytes,
                     initial_counter: int = 1) -> bytes:
        """ChaCha20 keystream XOR (encrypt == decrypt)."""
        return chacha20_xor(key, nonce, data, initial_counter=initial_counter)

    def make_session_cipher(self, session_key: bytes) -> SessionCipher:
        """Encrypt-then-MAC session cipher bound to this backend."""
        return SessionCipher(session_key, backend=self)

    # ------------------------------------------------------------- plumbing
    def __repr__(self) -> str:
        return f"<CryptoBackend {self.name!r}>"

    # One backend instance is ambient process wiring shared by every
    # consumer; cloning a device must not fork the crypto engine (and the
    # accelerated memo caches are pure, so sharing is always sound).
    def __deepcopy__(self, memo) -> "CryptoBackend":
        return self

    def __copy__(self) -> "CryptoBackend":
        return self


# --------------------------------------------------------------------------
# Accelerated backend internals.
#
# _crt_params/_crt_private_op/_ladder_pow extend the audited modpow
# boundary ([tool.trust-lint.sc] modpow-boundary): CPython bigint
# arithmetic is value-dependent below Python-level analysis, so
# constant-time discipline stops at these functions by declared policy
# and every suppression carries its reason.  _ladder_pow itself is
# branchless — a fixed-width Montgomery ladder whose Python-level trace
# is identical for every exponent — so it stays inside the dynamic
# witness's trace scope.


def _crt_params(key: RsaPrivateKey,
                cache: dict) -> tuple[int, int, int]:
    """The (dp, dq, q_inv) CRT triple for ``key``, memoized.

    The reference ``_private_op`` recomputes these — including a
    Python-recursion ``_modinv`` — on every call; caching them is the
    single biggest private-op win.  The memo is keyed by the (frozen,
    by-value-hashable) key object and capped so long-lived processes
    cannot grow it without bound.
    """
    params = cache.get(key)  # trust-lint: disable=SC802 -- memo probe keyed by the private key inside the audited modpow boundary; the cache holds only key-derived constants
    if params is None:
        dp = key.d % (key.p - 1)  # trust-lint: disable=SC803 -- CRT exponent reduction inside the audited modpow boundary
        dq = key.d % (key.q - 1)  # trust-lint: disable=SC803 -- CRT exponent reduction inside the audited modpow boundary
        q_inv = _modinv(key.q, key.p)
        params = (dp, dq, q_inv)
        if len(cache) >= 64:
            cache.pop(next(iter(cache)))
        cache[key] = params  # trust-lint: disable=SC802 -- memo insert keyed by the private key inside the audited modpow boundary
    return params


def _crt_private_op(key: RsaPrivateKey, c: int,
                    params: tuple[int, int, int]) -> int:
    """CRT private-key operation with precomputed parameters."""
    dp, dq, q_inv = params
    m1 = pow(c % key.p, dp, key.p)  # trust-lint: disable=SC803 -- modular exponentiation inside the audited modpow boundary
    m2 = pow(c % key.q, dq, key.q)  # trust-lint: disable=SC803 -- modular exponentiation inside the audited modpow boundary
    h = (q_inv * (m1 - m2)) % key.p  # trust-lint: disable=SC803 -- CRT recombination inside the audited modpow boundary
    return m2 + h * key.q


def _ladder_pow(base: int, exponent: int, modulus: int, width: int) -> int:
    """Fixed-width branchless Montgomery ladder: ``base**exponent % modulus``.

    Every iteration performs the same two modular multiplications and the
    same pair of arithmetic-masked swaps, so the Python-level trace is
    independent of the exponent bits — ``width`` (a public size bound)
    alone fixes the trip count.  Used for private-key *decryption*,
    where the ciphertext is attacker-supplied and a uniform trace is
    worth the extra work per bit; signing public envelope bytes stays on
    the cheaper builtin ``pow``.
    """
    r0 = 1
    r1 = base % modulus  # trust-lint: disable=SC803 -- base reduction inside the audited modpow boundary
    for i in range(width - 1, -1, -1):
        bit = (exponent >> i) & 1  # trust-lint: disable=SC803 -- exponent bit extraction inside the audited modpow boundary
        # Masked swap in, multiply + square, masked swap out: bit == 1
        # computes (r0*r1, r1*r1), bit == 0 computes (r0*r0, r0*r1).
        # No data-dependent branch, swap or subscript.
        diff = (r0 ^ r1) * bit  # trust-lint: disable=SC803 -- arithmetic swap mask inside the audited modpow boundary
        r0 ^= diff  # trust-lint: disable=SC803 -- masked register swap inside the audited modpow boundary
        r1 ^= diff  # trust-lint: disable=SC803 -- masked register swap inside the audited modpow boundary
        r1 = (r0 * r1) % modulus  # trust-lint: disable=SC803 -- modular product inside the audited modpow boundary
        r0 = (r0 * r0) % modulus  # trust-lint: disable=SC803 -- modular square inside the audited modpow boundary
        diff = (r0 ^ r1) * bit  # trust-lint: disable=SC803 -- arithmetic swap mask inside the audited modpow boundary
        r0 ^= diff  # trust-lint: disable=SC803 -- masked register swap inside the audited modpow boundary
        r1 ^= diff  # trust-lint: disable=SC803 -- masked register swap inside the audited modpow boundary
    return r0 % modulus  # trust-lint: disable=SC803 -- final reduction inside the audited modpow boundary


def _hashlib_sha256(data: bytes) -> bytes:
    return _hashlib.sha256(data).digest()


class _FastHmacDrbg(HmacDrbg):
    """HMAC-DRBG with a block-fused generate loop on the C HMAC.

    Byte-identical to :class:`HmacDrbg` — same SP 800-90A state
    transitions — but each ``generate`` call precomputes all requested
    keystream blocks in one tight loop over ``hmac.digest`` before
    slicing, instead of re-entering the Python HMAC per block.
    """

    def __init__(self, seed: bytes, personalization: bytes = b"") -> None:
        super().__init__(seed, personalization=personalization,
                         hmac_fn=_stdlib_hmac_sha256)

    def generate(self, n_bytes: int) -> bytes:
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        if n_bytes > self.MAX_REQUEST:
            raise ValueError(
                f"single request limited to {self.MAX_REQUEST} bytes")
        digest = _stdlib_hmac.digest
        key = self._key
        value = self._value
        blocks = []
        produced = 0
        while produced < n_bytes:
            value = digest(key, value, "sha256")
            blocks.append(value)
            produced += 32
        self._value = value
        self._update()
        self._reseed_counter += 1
        return b"".join(blocks)[:n_bytes]


def _stdlib_hmac_sha256(key: bytes, message: bytes) -> bytes:
    return _stdlib_hmac.digest(key, message, "sha256")


class AcceleratedBackend(CryptoBackend):
    """Hot-path backend: stdlib digests, cached CRT, fused keystreams.

    Pinned byte-identical to the reference backend by the equivalence
    suite; only host wall-clock changes.
    """

    name = "accelerated"

    def __init__(self) -> None:
        self._crt_cache: dict[RsaPrivateKey, tuple[int, int, int]] = {}
        try:
            _hashlib.md5()
            self._md5 = _hashlib.md5
        except ValueError:  # pragma: no cover - FIPS builds forbid MD5
            self._md5 = None

    # ------------------------------------------------------------- digests
    def sha256(self, data: bytes) -> bytes:
        return _hashlib.sha256(data).digest()

    def sha256_hex(self, data: bytes) -> str:
        return _hashlib.sha256(data).hexdigest()

    def new_sha256(self, data: bytes = b""):
        return _hashlib.sha256(data)

    def md5(self, data: bytes) -> bytes:
        if self._md5 is None:  # pragma: no cover - FIPS builds
            return md5(data)
        return self._md5(data).digest()

    def md5_hex(self, data: bytes) -> str:
        return self.md5(data).hex()

    def new_md5(self, data: bytes = b""):
        if self._md5 is None:  # pragma: no cover - FIPS builds
            return MD5(data)
        return self._md5(data)

    # ------------------------------------------------------------- MAC/KDF
    def hmac_sha256(self, key: bytes, message: bytes) -> bytes:
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError("HMAC key must be bytes")
        return _stdlib_hmac.digest(key, message, "sha256")

    def hmac_md5(self, key: bytes, message: bytes) -> bytes:
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError("HMAC key must be bytes")
        if self._md5 is None:  # pragma: no cover - FIPS builds
            return hmac_md5(key, message)
        return _stdlib_hmac.digest(key, message, "md5")

    def hkdf_sha256(self, ikm: bytes, length: int, salt: bytes = b"",
                    info: bytes = b"") -> bytes:
        if length <= 0:
            raise ValueError("length must be positive")
        if length > 255 * 32:
            raise ValueError("HKDF-SHA256 output limited to 8160 bytes")
        digest = _stdlib_hmac.digest
        prk = digest(salt if salt else b"\x00" * 32, ikm, "sha256")
        okm = b""
        block = b""
        counter = 1
        while len(okm) < length:
            block = digest(prk, block + info + bytes([counter]), "sha256")
            okm += block
            counter += 1
        return okm[:length]

    # ---------------------------------------------------------------- DRBG
    def make_drbg(self, seed: bytes, personalization: bytes = b"") -> HmacDrbg:
        return _FastHmacDrbg(seed, personalization=personalization)

    # ----------------------------------------------------------------- RSA
    def rsa_sign(self, key: RsaPrivateKey, message: bytes) -> bytes:
        em = _emsa_pkcs1_v15(message, key.byte_length,
                             digest=_hashlib_sha256)
        params = _crt_params(key, self._crt_cache)
        m = _crt_private_op(key, int.from_bytes(em, "big"), params)
        return m.to_bytes(key.byte_length, "big")

    def rsa_verify(self, key: RsaPublicKey, message: bytes,
                   signature: bytes) -> bool:
        k = key.byte_length
        if len(signature) != k:
            return False
        s = int.from_bytes(signature, "big")
        if s >= key.n:
            return False
        em = pow(s, key.e, key.n).to_bytes(k, "big")
        expected = _emsa_pkcs1_v15(message, k, digest=_hashlib_sha256)
        return _stdlib_hmac.compare_digest(em, expected)

    def rsa_verify_batch(
        self, checks: Iterable[tuple[RsaPublicKey, bytes, bytes]],
    ) -> list[bool]:
        # Share the EMSA encoding across repeats of the same (message,
        # modulus size) — registration bundles verify the same envelope
        # bytes under several keys.
        encodings: dict[tuple[bytes, int], bytes] = {}
        verdicts = []
        for key, message, signature in checks:
            k = key.byte_length
            if len(signature) != k:
                verdicts.append(False)
                continue
            s = int.from_bytes(signature, "big")
            if s >= key.n:
                verdicts.append(False)
                continue
            expected = encodings.get((message, k))
            if expected is None:
                expected = _emsa_pkcs1_v15(message, k,
                                           digest=_hashlib_sha256)
                encodings[(message, k)] = expected
            em = pow(s, key.e, key.n).to_bytes(k, "big")
            verdicts.append(_stdlib_hmac.compare_digest(em, expected))
        return verdicts

    def rsa_decrypt(self, key: RsaPrivateKey, ciphertext: bytes) -> bytes:
        from .rsa import DecryptionError
        k = key.byte_length
        if len(ciphertext) != k:
            raise DecryptionError("ciphertext length mismatch")
        c = int.from_bytes(ciphertext, "big")
        if c >= key.n:
            raise DecryptionError("ciphertext out of range")
        dp, dq, q_inv = _crt_params(key, self._crt_cache)
        width = k * 4  # half-modulus bit width bounds both CRT exponents
        m1 = _ladder_pow(c % key.p, dp, key.p, width)  # trust-lint: disable=SC803 -- CRT half reduction inside the audited modpow boundary
        m2 = _ladder_pow(c % key.q, dq, key.q, width)  # trust-lint: disable=SC803 -- CRT half reduction inside the audited modpow boundary
        h = (q_inv * (m1 - m2)) % key.p  # trust-lint: disable=SC803 -- CRT recombination inside the audited modpow boundary
        em = (m2 + h * key.q).to_bytes(k, "big")
        return _unpad_pkcs1_v15(em, k)

    # -------------------------------------------------------------- stream
    def chacha20_xor(self, key: bytes, nonce: bytes, data: bytes,
                     initial_counter: int = 1) -> bytes:
        blocks = [chacha20_block(key, initial_counter + block_index, nonce)
                  for block_index in range((len(data) + 63) // 64)]
        # join/from_bytes degrade gracefully to b"" for empty input — no
        # data-dependent early exit needed.
        keystream = b"".join(blocks)[:len(data)]
        # One fused bigint XOR instead of a Python loop per byte.
        return (int.from_bytes(data, "little")
                ^ int.from_bytes(keystream, "little")).to_bytes(
                    len(data), "little")


# --------------------------------------------------------------------------
# Registry.

class _Registry:
    """Process-level backend table: factories plus memoized instances.

    One object owns the mutable state (rather than bare module globals)
    so shard workers share the table through a single owner; backends
    themselves are stateless-per-call and safe to share.
    """

    def __init__(self) -> None:
        self.factories: dict[str, Callable[[], CryptoBackend]] = {}
        self.instances: dict[str, CryptoBackend] = {}

    def register(self, name: str,
                 factory: Callable[[], CryptoBackend]) -> None:
        if not name or not isinstance(name, str):
            raise ValueError("backend name must be a non-empty string")
        if name in self.factories:
            raise ValueError(f"crypto backend {name!r} already registered")
        self.factories[name] = factory

    def get(self, name: str) -> CryptoBackend:
        try:
            instance = self.instances[name]
        except KeyError:
            if name not in self.factories:
                raise ValueError(
                    f"unknown crypto backend {name!r}; "
                    f"available: {', '.join(sorted(self.factories))}"
                ) from None
            instance = self.instances[name] = self.factories[name]()
        return instance


_REGISTRY = _Registry()
_DEFAULT_NAME: str | None = None


def register_backend(name: str,
                     factory: Callable[[], CryptoBackend]) -> None:
    """Register a backend factory under ``name``.

    Instantiation is lazy and memoized: the factory runs at most once
    per process, on first :func:`get_backend` lookup.
    """
    _REGISTRY.register(name, factory)


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY.factories)


def get_backend(name: str) -> CryptoBackend:
    """The (shared) backend instance registered under ``name``."""
    return _REGISTRY.get(name)


def default_backend() -> CryptoBackend:
    """The process-wide default backend.

    Resolved once: ``REPRO_CRYPTO_BACKEND`` if set, else ``accelerated``
    (byte-identical to ``reference``, so the choice never changes any
    transcript — only wall-clock).  Deterministic replays that must pin
    the backend explicitly (the fleet) carry it in their run
    configuration instead of re-reading the environment.
    """
    global _DEFAULT_NAME
    if _DEFAULT_NAME is None:
        _DEFAULT_NAME = os.environ.get(BACKEND_ENV_VAR, "accelerated")  # trust-lint: disable=DT605 -- one-shot process-level engine selection, resolved before any simulation state exists; runs pin the backend via FleetConfig/set_default_backend, and all backends are byte-identical anyway
    return get_backend(_DEFAULT_NAME)


def set_default_backend(name: str) -> str:
    """Select the process-wide default backend; returns the previous name.

    Validates eagerly so a typo fails at selection time, not at first
    use deep inside a run.
    """
    global _DEFAULT_NAME
    previous = default_backend().name
    get_backend(name)
    _DEFAULT_NAME = name
    return previous


register_backend("reference", CryptoBackend)
register_backend("accelerated", AcceleratedBackend)
