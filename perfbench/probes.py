"""Host-time probes for the traced benchmark run.

Every probe times calls into a layer's public functions from outside:
the program under test is never edited.  A :class:`LayerProfiler` keeps
one stack of open calls, so each probe reports its call count, its
inclusive time, and its *self* time (inclusive time minus the time of
probed calls made inside it).  :class:`Probes` installs the wrappers on
classes and modules and puts the originals back when it closes.

Crypto is observed through the backend registry instead of by patching:
:class:`ObservingBackend` wraps a fresh ``AcceleratedBackend`` and times
every contract operation, and is registered with ``register_backend``.
"""

from __future__ import annotations

import copy
import functools
import time

from repro.crypto import CryptoBackend
from repro.crypto.chacha20 import SessionCipher

__all__ = ["LayerProfiler", "LayerStat", "ObservingBackend", "Probes",
           "install_layer_probes"]

#: Every ``CryptoBackend`` operation the observing backend forwards.
CRYPTO_OPS = ("sha256", "sha256_hex", "new_sha256", "md5", "md5_hex",
              "new_md5", "hmac_sha256", "hmac_md5", "hkdf_sha256",
              "make_drbg", "generate_keypair", "rsa_sign", "rsa_verify",
              "rsa_verify_batch", "rsa_encrypt", "rsa_decrypt",
              "chacha20_xor")


class LayerStat:
    """Accumulated timings of one probe."""

    __slots__ = ("calls", "total_ns", "self_ns", "positive", "samples")

    def __init__(self, keep_samples: bool = False) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        #: Calls whose result the probe's ``outcome`` test accepted.
        self.positive = 0
        #: Inclusive duration of every call (ns), when kept.
        self.samples: list[int] | None = [] if keep_samples else None


class LayerProfiler:
    """A call stack of probed calls with per-probe self-time accounting."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {}
        self._stack: list[list[int]] = []

    def stat(self, name: str, keep_samples: bool = False) -> LayerStat:
        """The accumulator behind probe ``name`` (created on first use)."""
        if name not in self.stats:
            self.stats[name] = LayerStat(keep_samples)
        return self.stats[name]

    def take(self) -> dict[str, LayerStat]:
        """Hand over everything accumulated so far and start afresh."""
        taken = {}
        for name, stat in self.stats.items():
            if stat.calls:
                taken[name] = copy.copy(stat)
                if stat.samples is not None:
                    stat.samples = []
                stat.calls = stat.total_ns = stat.self_ns = stat.positive = 0
        return taken

    def timed(self, name: str, fn, keep_samples: bool = False,
              outcome=None):
        """``fn`` wrapped so every call is charged to probe ``name``."""
        stack = self._stack
        clock = time.perf_counter_ns
        stat = self.stat(name, keep_samples)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - frame[0]
                if stat.samples is not None:
                    stat.samples.append(elapsed)
                if stack:
                    stack[-1][0] += elapsed
            if outcome is not None and outcome(result):
                stat.positive += 1
            return result

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped to count calls only (no clock reads)."""
        stat = self.stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper


class Probes:
    """Installs wrappers over attributes and restores them on close."""

    def __init__(self, profiler: LayerProfiler) -> None:
        self.profiler = profiler
        self._saved: list[tuple[object, str, object]] = []

    def time(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with a timed wrapper charged to ``name``."""
        self._replace(owner, attr,
                      lambda fn: self.profiler.timed(name, fn, **options))

    def count(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a call counter charged to ``name``."""
        self._replace(owner, attr,
                      lambda fn: self.profiler.counted(name, fn))

    def _replace(self, owner, attr: str, wrap) -> None:
        # A class must define the attribute itself, so restoring it never
        # shadows an inherited one.
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def close(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def install_layer_probes(probes: Probes) -> None:
    """Wrap the public entry points of the runtime, net, flock,
    fingerprint and obs layers that a fleet run goes through."""
    from repro.flock import fingerprint_controller, fingerprint_processor
    from repro.flock.module import FlockModule
    from repro.net import message
    from repro.net.protocol import TrustClient
    from repro.net.webserver import WebServer
    from repro.obs.trace import NullTracer
    from repro.runtime.fleet import DeviceFactory
    from repro.runtime.metrics import FleetMetrics
    from repro.runtime.scheduler import EventLoop

    probes.time(EventLoop, "run", "runtime.loop")
    probes.time(FleetMetrics, "record", "runtime.metrics.record")
    probes.time(DeviceFactory, "__init__", "runtime.factory.init")
    probes.time(DeviceFactory, "build", "runtime.factory.build")

    for op, attr in (("register", "register"), ("login", "login"),
                     ("request", "request"),
                     ("challenge", "answer_challenge")):
        probes.time(TrustClient, attr, f"net.client.{op}",
                    keep_samples=True)
    probes.time(WebServer, "dispatch", "net.dispatch")
    probes.time(message, "canonical_payload", "net.codec.payload")

    probes.time(FlockModule, "handle_touch", "flock.touch",
                outcome=lambda event: event.verified)
    probes.time(FlockModule, "show_frame", "flock.frame")
    for attr in ("mac", "session_mac", "verify_session_mac",
                 "attest_challenge"):
        probes.time(FlockModule, attr, "flock.mac")
    probes.time(fingerprint_controller, "render_impression",
                "fingerprint.render")
    probes.time(fingerprint_processor, "assess_quality",
                "fingerprint.quality")

    probes.count(NullTracer, "span", "obs.noop.span")


class ObservingBackend(CryptoBackend):
    """A ``CryptoBackend`` that forwards to ``inner`` and charges every
    operation to probe ``crypto.<op>`` of ``profiler``."""

    name = "observed"

    def __init__(self, inner: CryptoBackend, profiler: LayerProfiler) -> None:
        self.inner = inner
        # Instance attributes shadow the base-class methods.
        for op in CRYPTO_OPS:
            setattr(self, op,
                    profiler.timed(f"crypto.{op}", getattr(inner, op)))

    def make_session_cipher(self, session_key: bytes) -> SessionCipher:
        # Bound to the observer, so the cipher's keystream calls are
        # counted as crypto.chacha20_xor.
        return SessionCipher(session_key, backend=self)
