"""The spectral-computation service layer.

Everything between a client and the hybrid runner: typed requests with a
canonical content address (:mod:`repro.service.requests`), an LRU + TTL
spectrum cache (:mod:`repro.service.cache`), in-flight request
coalescing (:mod:`repro.service.coalesce`), the bounded admission broker
with priority lanes and backpressure (:mod:`repro.service.broker`),
service telemetry ledgers (:mod:`repro.service.telemetry`), and a
deterministic synthetic traffic generator (:mod:`repro.service.loadgen`).

The whole layer runs on the same deterministic :class:`SimClock` the
hybrid runner uses, so a traffic trace plays back identically run after
run — latency percentiles included.
"""

from repro._lazy import _exports

__all__, __getattr__ = _exports(__name__, {
    "repro.service.broker": ("ServiceConfig", "SpectrumBroker", "Ticket", "run_trace"),
    "repro.service.cache": ("CacheStats", "SpectrumCache"),
    "repro.service.coalesce": ("RequestCoalescer",),
    "repro.service.loadgen": ("Arrival", "TrafficSpec", "generate_trace"),
    "repro.service.requests": ("SpectrumRequest", "compile_tasks"),
    "repro.service.telemetry": ("ServiceTelemetry",),
})
