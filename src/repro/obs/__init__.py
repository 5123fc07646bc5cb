"""Deterministic campaign observability (``repro.obs``).

The telemetry layer under every campaign: a :class:`Telemetry` hub
collects counters, simulated-clock spans, and progress events from the
network fabric, the scanner's caches, the store's checkpoints, and the
parallel engine.  Every producer appends its *sessions* to its own
stream under ``<root>/events/`` (:func:`stream_path`) and one fold
(:func:`fold_stream`) reads any of them back.  Two campaigns at the
same seed/scale/workers emit byte-identical event streams — telemetry
is diffable across epochs exactly like results.

``repro-dnssec campaign stats --store <store>`` renders the collected
streams as a campaign telemetry report (:mod:`repro.obs.stats`, loaded
lazily — only the hub and the stream codec live at the bottom of the
dependency graph).
"""

from repro.obs.events import (
    EVENTS_DIR,
    WORKERS_DIR,
    campaign_event_streams,
    fold_stream,
    read_events,
    stream_path,
)
from repro.obs.telemetry import (
    PROGRESS_EVERY,
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    as_telemetry,
)

__all__ = [
    "PROGRESS_EVERY",
    "EVENTS_DIR",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
    "WORKERS_DIR",
    "as_telemetry",
    "campaign_event_streams",
    "collect_stats",
    "fold_stream",
    "read_events",
    "render_stats",
    "stream_path",
]

def __getattr__(name):
    # stats pulls in the store and report layers; loading it lazily
    # keeps `repro.obs` importable from the scanner without a cycle.
    if name in ("collect_stats", "render_stats"):
        from repro.obs import stats

        return getattr(stats, name)
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
