"""The FLock module: composition of the Fig. 5 blocks + trusted-boundary API.

A ``FlockModule`` owns a unique built-in device key pair, the CA's public
key, protected storage, the display repeater, the fingerprint data path and
the crypto processor.  Its public methods are the *only* operations the
untrusted host can request; private keys, fingerprint templates and raw
captures never appear in a return value (the identity-transfer bundle is the
sole exception, and it leaves encrypted under the receiving device's key).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.crypto import (
    Certificate,
    CertificateError,
    CryptoBackend,
    RsaPrivateKey,
    RsaPublicKey,
    default_backend,
)
from repro.fingerprint import FingerprintTemplate, MasterFingerprint
from repro.hardware import LocatedTouch, SensorLayout
from repro.obs import Instrumentation, NOOP

from .crypto_processor import CryptoProcessor
from .display import DisplayRepeater, Frame
from .fingerprint_controller import FingerprintController, TouchCapture
from .fingerprint_processor import (
    AuthDecision,
    ImageFingerprintProcessor,
    ModeledFingerprintProcessor,
)
from .rng import SimulationRng
from .storage import ProtectedFlash, PublicServiceView, ServiceRecord, SramModel, StorageError

__all__ = ["FlockError", "TouchAuthEvent", "FlockModule"]


class FlockError(Exception):
    """Raised on trusted-boundary violations or protocol misuse."""


@dataclass(frozen=True)
class TouchAuthEvent:
    """One touch's journey through the Fig. 6 pipeline (host-visible)."""

    captured: bool  # did the touch land on a sensor?
    decision: AuthDecision | None  # None when not captured
    capture_time_s: float  # sensor scan latency (0 when not captured)

    @property
    def verified(self) -> bool:
        """Captured, quality-passed AND matched the enrolled template."""
        return (self.captured and self.decision is not None
                and self.decision.accepted)


class FlockModule:
    """One FLock instance soldered to one mobile device."""

    def __init__(self, device_id: str, seed: bytes,
                 layout: SensorLayout,
                 processor_mode: str = "image",
                 key_bits: int = 1024,
                 obs: Instrumentation | None = None,
                 backend: CryptoBackend | None = None) -> None:
        if processor_mode not in ("image", "modeled"):
            raise ValueError("processor_mode must be 'image' or 'modeled'")
        self.device_id = device_id
        self.processor_mode = processor_mode
        self._obs = obs if obs is not None else NOOP
        self.backend = backend if backend is not None else default_backend()
        self._drbg = self.backend.make_drbg(
            seed, personalization=device_id.encode())
        self.crypto = CryptoProcessor(rng=self._drbg, key_bits=key_bits,
                                      backend=self.backend)
        self._device_key: RsaPrivateKey = self.backend.generate_keypair(
            self._drbg, bits=key_bits)
        self.flash = ProtectedFlash()
        self.sram = SramModel()
        self.display = DisplayRepeater(backend=self.backend)
        self.controller = FingerprintController(layout, obs=self._obs)
        self._local_processor: ImageFingerprintProcessor | ModeledFingerprintProcessor | None = None
        self._ca_public_key: RsaPublicKey | None = None
        self.certificate: Certificate | None = None
        self._pending_bindings: dict[str, tuple[RsaPrivateKey, RsaPublicKey, str]] = {}
        self._session_keys: dict[str, bytes] = {}
        self._pending_challenges: dict[str, tuple[bytes, int]] = {}
        self._verified_touch_count = 0

    # --------------------------------------------------------- observability
    @property
    def obs(self) -> Instrumentation:
        """Instrumentation bundle, shared down into controller + processor.

        Assigning a live bundle (``flock.obs = Instrumentation.live()``)
        re-wires the whole capture/match path in one step, so a composition
        root can instrument an already-built device.
        """
        return self._obs

    @obs.setter
    def obs(self, value: Instrumentation) -> None:
        self._obs = value
        self.controller.obs = value
        if self._local_processor is not None:
            self._local_processor.obs = value

    # ------------------------------------------------------------------ keys
    @property
    def public_key(self) -> RsaPublicKey:
        """The device's built-in public key (safe to disclose)."""
        return self._device_key.public_key

    def install_ca(self, ca_public_key: RsaPublicKey) -> None:
        """Burn the CA root into the module (done at manufacture)."""
        self._ca_public_key = ca_public_key

    def set_certificate(self, certificate: Certificate) -> None:
        """Install this device's CA-issued certificate."""
        if certificate.public_key != self.public_key:
            raise FlockError("certificate does not match the device key")
        self.certificate = certificate

    def _require_ca(self) -> RsaPublicKey:
        if self._ca_public_key is None:
            raise FlockError("no CA public key installed")
        return self._ca_public_key

    # ----------------------------------------------------- local enrollment
    def enroll_local_user(self, template: FingerprintTemplate,
                          score_model=None,
                          accept_threshold: float | None = None) -> None:
        """Store the device-unlock template and build the local processor."""
        self.flash.store_device_template(template)
        if self.processor_mode == "image":
            kwargs = {}
            if accept_threshold is not None:
                kwargs["accept_threshold"] = accept_threshold
            self._local_processor = ImageFingerprintProcessor(template, **kwargs)
        else:
            if score_model is None:
                raise FlockError("modeled processor requires a score model")
            kwargs = {}
            if accept_threshold is not None:
                kwargs["accept_threshold"] = accept_threshold
            self._local_processor = ModeledFingerprintProcessor(
                template.finger_id, score_model, **kwargs)
        self._local_processor.obs = self._obs

    def install_verification_cache(self, cache) -> None:
        """Attach a duck-typed match-score memoizer to the local processor.

        ``cache`` must expose ``memoize(kind, key, compute)``.  Only the
        image processor matches minutiae (a pure function of the two sets),
        so only it benefits; the modeled processor draws random scores and
        is left untouched.
        """
        if self._local_processor is not None and hasattr(
                self._local_processor, "match_cache"):
            self._local_processor.match_cache = cache

    def enroll_additional_finger(self, template: FingerprintTemplate) -> None:
        """Add another finger to the local identity (same user).

        Only the image-mode processor supports a template set; the modeled
        processor identifies the user by finger id and would need one
        score model per finger.
        """
        if self._local_processor is None:
            raise FlockError("enroll a primary finger first")
        if not isinstance(self._local_processor, ImageFingerprintProcessor):
            raise FlockError(
                "additional fingers require the image-mode processor")
        self._local_processor.add_template(template)

    @property
    def enrolled_finger_ids(self) -> list[str]:
        """Finger ids of every enrolled template."""
        if self._local_processor is None:
            return []
        if isinstance(self._local_processor, ImageFingerprintProcessor):
            return [t.finger_id for t in self._local_processor.templates]
        return [self._local_processor.enrolled_finger_id]

    # -------------------------------------------------- the Fig. 6 pipeline
    def handle_touch(self, touch: LocatedTouch, master: MasterFingerprint,
                     rng: SimulationRng) -> TouchAuthEvent:
        """Run one touch through capture -> quality -> match.

        ``master`` is the ground-truth finger physically touching the panel
        (the simulation's reality — it never crosses into any protocol
        message).
        """
        if self._local_processor is None:
            raise FlockError("no user enrolled")
        with self._obs.tracer.span("flock.touch",
                                   device=self.device_id) as span:
            capture: TouchCapture | None = self.controller.capture(
                touch, master, rng)
            if capture is None:
                span.set_attribute("captured", False)
                event = TouchAuthEvent(captured=False, decision=None,
                                       capture_time_s=0.0)
            else:
                decision = self._local_processor.authenticate(capture, rng)
                if decision.accepted:
                    self._verified_touch_count += 1
                span.set_attribute("captured", True)
                span.set_attribute("verified", decision.accepted)
                event = TouchAuthEvent(captured=True, decision=decision,
                                       capture_time_s=capture.capture_time_s)
        self._obs.metrics.counter(
            "flock.touches", help="touches through the Fig. 6 pipeline").inc(
            captured=event.captured, verified=event.verified)
        return event

    # -------------------------------------------------- service bindings
    def begin_service_binding(self, domain: str, account: str,
                              server_cert: Certificate, now: int) -> RsaPublicKey:
        """Fig. 9 step 2 part 1: verify the server cert, mint a key pair.

        Returns the fresh public key (pk_A); the private half stays pending
        inside the module until :meth:`complete_service_binding`.
        """
        ca_key = self._require_ca()
        server_cert.verify(ca_key, now, expected_role="web-server",
                           backend=self.backend)
        if server_cert.subject != domain:
            raise CertificateError(
                f"certificate subject {server_cert.subject!r} does not match "
                f"domain {domain!r}")
        if self.flash.has_record(domain):
            raise FlockError(f"already bound to {domain!r}")
        key_pair = self.crypto.generate_service_keypair()
        self._pending_bindings[domain] = (key_pair, server_cert.public_key,
                                          account)
        return key_pair.public_key

    def complete_service_binding(
            self, domain: str,
            template: FingerprintTemplate | None = None) -> PublicServiceView:
        """Fig. 9 step 2 part 2: store the record after fingerprint capture.

        ``template`` defaults to the enrolled device template; hosts
        should omit it so the raw template never crosses out of the
        module just to be handed straight back in.
        """
        if domain not in self._pending_bindings:
            raise FlockError(f"no pending binding for {domain!r}")
        if template is None:
            template = self.flash.device_template()
        key_pair, server_key, account = self._pending_bindings.pop(domain)
        record = ServiceRecord(
            domain=domain, account=account, key_pair=key_pair,
            fingerprint=template, server_public_key=server_key,
        )
        self.flash.add_record(record)
        return record.public_view()

    def service_view(self, domain: str) -> PublicServiceView:
        """The host-safe view of one bound service record."""
        return self.flash.record(domain).public_view()

    def unbind_service(self, domain: str) -> None:
        """Identity reset support: drop the record for a domain."""
        self.flash.remove_record(domain)

    # --------------------------------------- trusted crypto on stored keys
    def sign_as_device(self, message: bytes) -> bytes:
        """Sign with the built-in device key (never exported)."""
        return self.crypto.sign(self._device_key, message)

    def sign_for_service(self, domain: str, message: bytes) -> bytes:
        """Sign with the per-service key stored for a domain."""
        record = self.flash.record(domain)
        return self.crypto.sign(record.key_pair, message)

    def seal_for_server(self, domain: str, plaintext: bytes) -> bytes:
        """Encrypt under the bound server's public key (session-key seal)."""
        record = self.flash.record(domain)
        return self.crypto.rsa_encrypt(record.server_public_key, plaintext)

    def verify_server_signature(self, domain: str, message: bytes,
                                signature: bytes) -> bool:
        """Verify a signature under the bound server's public key."""
        record = self.flash.record(domain)
        return self.crypto.verify(record.server_public_key, message, signature)

    def mac(self, key: bytes, message: bytes) -> bytes:
        """HMAC under a caller-supplied key (not session keys)."""
        return self.crypto.mac(key, message)

    # -------------------------------------------------- session-key custody
    # The Fig. 10 session key never leaves the module: the host only ever
    # sees it sealed under the server's public key, and asks FLock to
    # MAC/verify traffic on its behalf.
    def open_session(self, domain: str) -> bytes:
        """Mint a session key for ``domain``; returns it *sealed* only."""
        record = self.flash.record(domain)
        session_key = self.crypto.new_session_key()
        self._session_keys[domain] = session_key
        return self.crypto.rsa_encrypt(record.server_public_key, session_key)

    def _session_key(self, domain: str) -> bytes:
        try:
            return self._session_keys[domain]
        except KeyError:
            raise FlockError(f"no open session for {domain!r}") from None

    #: Prefix reserved for FLock-originated attestations.  ``session_mac``
    #: refuses to MAC host-supplied messages carrying it, so the *only* way
    #: to produce a challenge attestation is :meth:`attest_challenge` —
    #: which demands a fresh verified fingerprint capture.
    ATTEST_PREFIX = b"flock-attest:"

    def session_mac(self, domain: str, message: bytes) -> bytes:
        """HMAC under the domain's session key (key never leaves)."""
        if message.startswith(self.ATTEST_PREFIX):
            raise FlockError(
                "attestation-prefixed messages can only be produced by "
                "attest_challenge")
        return self.crypto.mac(self._session_key(domain), message)

    # -------------------------------------------- re-authentication challenge
    def begin_challenge(self, domain: str, challenge_nonce: bytes) -> None:
        """Register a server-issued challenge for ``domain``.

        The attestation baseline is the current verified-touch counter:
        only a *new* verified capture after this point satisfies the
        challenge.
        """
        self._session_key(domain)  # must have an open session
        self._pending_challenges[domain] = (challenge_nonce,
                                            self._verified_touch_count)

    def attest_challenge(self, domain: str) -> bytes:
        """Produce the challenge attestation, if a fresh touch verified.

        Raises :class:`FlockError` when no verified capture happened since
        :meth:`begin_challenge` — which is exactly what an impostor or a
        touchless malware flood experiences.
        """
        if domain not in self._pending_challenges:
            raise FlockError(f"no pending challenge for {domain!r}")
        challenge_nonce, baseline = self._pending_challenges[domain]
        if self._verified_touch_count <= baseline:
            raise FlockError(
                "challenge requires a verified fingerprint capture newer "
                "than the challenge")
        del self._pending_challenges[domain]
        return self.crypto.mac(self._session_key(domain),
                               self.ATTEST_PREFIX + challenge_nonce)

    def verify_session_mac(self, domain: str, message: bytes,
                           tag: bytes) -> bool:
        """Verify a tag under the domain's session key."""
        from repro.crypto import constant_time_equal
        expected = self.crypto.mac(self._session_key(domain), message)
        return constant_time_equal(expected, tag)

    def close_session(self, domain: str) -> None:
        """Destroy the session key held for a domain."""
        self._session_keys.pop(domain, None)

    def has_session(self, domain: str) -> bool:
        """Whether a session key is currently held for a domain."""
        return domain in self._session_keys

    # ------------------------------------------------------------- display
    def show_frame(self, frame: Frame) -> bytes:
        """Route a frame through the display repeater; returns its hash."""
        self.sram.allocate(len(frame.page_content))
        try:
            return self.display.show(frame)
        finally:
            self.sram.release(len(frame.page_content))

    @property
    def current_frame_hash(self) -> bytes:
        """Hash of the frame currently displayed."""
        return self.display.current_hash

    # -------------------------------------------------- identity transfer
    def export_identity(self, new_device_key: RsaPublicKey,
                        authorizing_touch_verified: bool) -> bytes:
        """Encrypt all service records + biometric identity for a new device.

        The paper requires the user to authorize the transfer with a
        verified fingerprint on the old device; ``authorizing_touch_verified``
        is the outcome of that check (a :class:`TouchAuthEvent`'s verdict).
        """
        if not authorizing_touch_verified:
            raise FlockError("identity transfer requires fingerprint authorization")
        records = []
        for record in self.flash.all_records():
            records.append({
                "domain": record.domain,
                "account": record.account,
                "key": {"n": record.key_pair.n, "e": record.key_pair.e,
                        "d": record.key_pair.d, "p": record.key_pair.p,
                        "q": record.key_pair.q},
                "server_key": record.server_public_key.to_bytes().hex(),
                "template": record.fingerprint.to_bytes().hex(),
            })
        payload = {"records": records}
        if self.flash.has_device_template:
            payload["device_template"] = \
                self.flash.device_template().to_bytes().hex()
        plaintext = json.dumps(payload, sort_keys=True).encode()
        transfer_key = self.crypto.random_bytes(32)
        sealed_key = self.crypto.rsa_encrypt(new_device_key, transfer_key)
        body = self.backend.make_session_cipher(transfer_key).encrypt(plaintext)
        return len(sealed_key).to_bytes(4, "big") + sealed_key + body

    def import_identity(self, bundle: bytes) -> list[str]:
        """Decrypt and install a transfer bundle; returns bound domains."""
        key_len = int.from_bytes(bundle[:4], "big")
        sealed_key = bundle[4:4 + key_len]
        body = bundle[4 + key_len:]
        transfer_key = self.crypto.rsa_decrypt(self._device_key, sealed_key)
        plaintext = self.backend.make_session_cipher(transfer_key).decrypt(body)
        payload = json.loads(plaintext.decode())
        installed = []
        for item in payload["records"]:
            key = item["key"]
            record = ServiceRecord(
                domain=item["domain"],
                account=item["account"],
                key_pair=RsaPrivateKey(n=key["n"], e=key["e"], d=key["d"],
                                       p=key["p"], q=key["q"]),
                fingerprint=FingerprintTemplate.from_bytes(
                    bytes.fromhex(item["template"])),
                server_public_key=RsaPublicKey.from_bytes(
                    bytes.fromhex(item["server_key"])),
            )
            try:
                self.flash.add_record(record)
            except StorageError as exc:
                raise FlockError(f"import failed: {exc}") from exc
            installed.append(record.domain)
        if "device_template" in payload:
            template = FingerprintTemplate.from_bytes(
                bytes.fromhex(payload["device_template"]))
            if self.processor_mode == "image":
                # The biometric identity moves with the bundle: the new
                # device is immediately usable for local authentication.
                self.enroll_local_user(template)
            else:
                self.flash.store_device_template(template)
        return installed
