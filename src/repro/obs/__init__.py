"""Deterministic campaign observability (``repro.obs``).

The telemetry layer under every campaign: a :class:`Telemetry` hub
collects counters, simulated-clock spans, and progress events from the
network fabric, the scanner's caches, the store's checkpoints, and the
parallel engine; events stream append-only into ``<store>/events/``
per producer and merge in deterministic ``(origin, seq)`` order.  Two
campaigns at the same seed/scale/workers emit byte-identical event
streams — telemetry is diffable across epochs exactly like results.

``repro-dnssec campaign stats --store <store>`` renders the collected
streams as a campaign telemetry report (:mod:`repro.obs.stats`, loaded
lazily — only the hub and the stream codec live at the bottom of the
dependency graph).
"""

from repro.obs.events import (
    EVENTS_DIR,
    EVENT_STREAM_FILENAME,
    QUERY_STREAM_FILENAME,
    WORKERS_DIR,
    campaign_event_streams,
    events_path,
    iter_campaign_events,
    query_events_path,
    read_events,
)
from repro.obs.telemetry import (
    DEFAULT_PROGRESS_EVERY,
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    as_telemetry,
)

__all__ = [
    "DEFAULT_PROGRESS_EVERY",
    "EVENTS_DIR",
    "EVENT_STREAM_FILENAME",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "QUERY_STREAM_FILENAME",
    "Telemetry",
    "WORKERS_DIR",
    "as_telemetry",
    "campaign_event_streams",
    "collect_stats",
    "events_path",
    "iter_campaign_events",
    "query_events_path",
    "read_events",
    "render_stats",
    "write_benchmark_metrics",
]

_LAZY = {
    "collect_stats": "repro.obs.stats",
    "render_stats": "repro.obs.stats",
    "write_benchmark_metrics": "repro.obs.stats",
}


def __getattr__(name):
    # stats pulls in the store and report layers; loading it lazily
    # keeps `repro.obs` importable from the scanner without a cycle.
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
