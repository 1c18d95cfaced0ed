"""Fleet metrics: latency percentiles, throughput, outcome counters.

Everything here is deterministic by construction — no wall clock, no dict
iteration over unsorted byte keys — so two runs of the same seeded
simulation render byte-identical summaries (the replay tests and the load
benchmark both assert exactly that).

Since the observability refactor the numbers live in a
:class:`~repro.obs.MetricsRegistry` (``fleet.interactions``,
``fleet.latency_seconds``, ...) instead of private Counters; the public
query surface (``outcomes``, ``latency``, ``horizon_s``, row renderers) is
unchanged and derives its values from the registry, so existing reports
render byte-identically while exporters see the same instruments.
"""

from __future__ import annotations

from collections import Counter

from repro.obs import HistogramSeries, MetricsRegistry

__all__ = ["LatencyHistogram", "FleetMetrics"]


class LatencyHistogram(HistogramSeries):
    """Latency samples with nearest-rank percentiles.

    Kept as a named subclass of the registry's series type for API
    compatibility; semantics (raw samples, exact p50/p99, the negative-
    sample error message) are inherited unchanged.
    """


class FleetMetrics:
    """Aggregated outcome of one fleet run.

    ``registry`` lets a composition root (the fleet simulation) share one
    :class:`~repro.obs.MetricsRegistry` between fleet accounting, the
    verification cache and any injected instrumentation bundle; when
    omitted the metrics own a private registry, so standalone use needs no
    wiring.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._outcomes = self.registry.counter(
            "fleet.interactions",
            help="completed interactions by op and reason")
        self._latency = self.registry.histogram(
            "fleet.latency_seconds",
            help="end-to-end interaction latency by op")
        self._horizon = self.registry.gauge(
            "fleet.horizon_seconds",
            help="virtual time of the latest interaction completion")
        self._bytes = self.registry.gauge(
            "fleet.channel_bytes",
            help="channel byte totals by direction")
        self._messages = self.registry.gauge(
            "fleet.messages", help="messages carried over all channels")

    def record(self, op: str, reason: str, latency_s: float,
               finished_s: float) -> None:
        """Account one completed interaction."""
        self._outcomes.inc(op=op, reason=reason)
        self._latency.observe(latency_s, op=op)
        self.horizon_s = max(self.horizon_s, finished_s)

    # ------------------------------------------------- registry-backed state
    @property
    def outcomes(self) -> Counter:
        """``(op, reason)`` -> count, e.g. ``("request", "ok")``."""
        return Counter({(labels["op"], labels["reason"]): value
                        for labels, value in self._outcomes.series()})

    @property
    def latency(self) -> dict[str, HistogramSeries]:
        """Per-op latency distributions."""
        return {labels["op"]: series
                for labels, series in self._latency.series()}

    @property
    def horizon_s(self) -> float:
        """Virtual time of the latest interaction completion."""
        return self._horizon.value(default=0.0)

    @horizon_s.setter
    def horizon_s(self, value: float) -> None:
        self._horizon.set(float(value))

    @property
    def bytes_to_server(self) -> int:
        return self._bytes.value(direction="to_server")

    @bytes_to_server.setter
    def bytes_to_server(self, value: int) -> None:
        self._bytes.set(value, direction="to_server")

    @property
    def bytes_to_device(self) -> int:
        return self._bytes.value(direction="to_device")

    @bytes_to_device.setter
    def bytes_to_device(self, value: int) -> None:
        self._bytes.set(value, direction="to_device")

    @property
    def messages(self) -> int:
        return self._messages.value()

    @messages.setter
    def messages(self, value: int) -> None:
        self._messages.set(value)

    # -------------------------------------------------------------- queries
    @property
    def interactions(self) -> int:
        """Total interactions recorded (any outcome)."""
        return self._outcomes.total()

    def count(self, op: str, reason: str | None = None) -> int:
        """Interactions for one op, optionally restricted to a reason."""
        if reason is not None:
            return self._outcomes.value(op=op, reason=reason)
        return sum(value for labels, value in self._outcomes.series()
                   if labels["op"] == op)

    @property
    def throughput_rps(self) -> float:
        """Completed interactions per simulated second."""
        if self.horizon_s <= 0:
            return 0.0
        return self.interactions / self.horizon_s

    def latency_rows(self) -> list[tuple[str, int, float, float, float]]:
        """Sorted ``(op, count, mean_s, p50_s, p99_s)`` rows."""
        return [(op, hist.count, hist.mean, hist.percentile(50),
                 hist.percentile(99))
                for op, hist in sorted(self.latency.items())]
