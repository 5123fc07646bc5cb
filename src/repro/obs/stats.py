"""Aggregate a root's telemetry streams into a readable report.

This is the offline half of the observability layer: given a campaign
store or a monitor root, :func:`collect_stats` folds every stream that
exists under it — the campaign's own and its workers', the query
plane's, the agent's, the monitor timeline's — into **one** counters
dict (the names are disjoint by prefix: ``net.`` ``cache.`` ``sched.``
``wire.`` ``chaos.`` ``retry.`` ``store.`` ``query.`` ``agent.``
``monitor.``) plus a per-producer session count, and
:func:`render_stats` prints one section per plane whose counters are
present — query volume, cache effectiveness, span timings, checkpoint
cadence, per-machine durations: the numbers the paper's fleet had to be
monitored for continuously (App. D).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.monitor.layout import (
    MONITOR_STATE_FILENAME,
    completed_epochs,
    epoch_dir,
    is_monitor_root,
)
from repro.obs.events import (
    SpanStats,
    add_counters,
    campaign_event_streams,
    fold_stream,
    machine_stats,
    stream_path,
)
from repro.reports.render import format_count, format_duration, render_table
from repro.store.manifest import load_manifest


@dataclass
class CampaignStats:
    """Everything ``repro-dnssec campaign stats`` reports."""

    root: str
    status: str
    seed: int
    scale: float
    records: int
    zones_total: Optional[int]
    # Opt-in telemetry only: the query plane records unconditionally, so
    # its stream says nothing about whether telemetry was enabled.
    events: int = 0
    streams: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    sessions: Dict[str, int] = field(default_factory=dict)  # per producer
    # Spans of the root's own narrative (campaign / monitor timeline);
    # the planes that act on a root later report through counters.
    spans: Dict[str, SpanStats] = field(default_factory=dict)
    last_progress: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    machines: List[Dict[str, Any]] = field(default_factory=list)


def _describe_root(root: Path) -> CampaignStats:
    """The report header: a campaign store's manifest, or — for a
    monitor root, which has no manifest of its own — its complete epoch
    stores summed."""
    if not is_monitor_root(root):
        manifest = load_manifest(root)  # StoreError: no campaign here either
        return CampaignStats(
            root=str(root),
            status=manifest.status,
            seed=manifest.seed,
            scale=manifest.scale,
            records=manifest.records,
            zones_total=manifest.zones_total,
        )
    state = json.loads((root / MONITOR_STATE_FILENAME).read_text(encoding="utf-8"))
    epochs = [load_manifest(epoch_dir(root, e)) for e in completed_epochs(root)]
    return CampaignStats(
        root=str(root),
        status=f"monitor ({len(epochs)} epoch store(s))",
        seed=int(state.get("seed", 0)),
        scale=float(state.get("scale", 0.0)),
        records=sum(manifest.records for manifest in epochs),
        zones_total=epochs[0].zones_total if epochs else None,
    )


def collect_stats(store_root: Path) -> CampaignStats:
    """Fold every telemetry stream under one campaign store or monitor
    root, plus the per-worker machine stats.

    Raises :class:`repro.store.StoreError` when *store_root* holds
    neither (the CLI turns that into a nonzero exit).
    """
    root = Path(store_root)
    stats = _describe_root(root)
    streams = [("stream", origin, path) for origin, path in campaign_event_streams(root)]
    streams += [
        (producer, "", stream_path(root, producer))
        for producer in ("monitor", "agent", "query")
        if stream_path(root, producer).exists()
    ]
    for producer, origin, path in streams:
        fold = fold_stream(path)
        stats.sessions[producer] = stats.sessions.get(producer, 0) + fold.sessions
        add_counters(stats.counters, fold.counters)
        if producer != "query":  # always-on reader traffic is not "telemetry enabled"
            stats.streams += 1
            stats.events += fold.events
        if producer in ("stream", "monitor"):  # the root's own narrative
            for name, agg in fold.spans.items():
                stats.spans.setdefault(name, SpanStats()).merge(agg)
            if fold.last_progress is not None:
                stats.last_progress[origin] = fold.last_progress
    stats.machines = machine_stats(root)
    return stats


def _rate(hits: float, misses: float) -> str:
    total = hits + misses
    return f"{100.0 * hits / total:.1f}%" if total else "-"


def _scan_sections(stats: CampaignStats, n) -> List[str]:
    """What a scan leaves behind: query volume, then the scheduler and
    wire-engine sections (only for campaigns that ran ``in_flight`` > 1
    / over real sockets, so serial simulated-fabric reports carry
    neither), then cache effectiveness."""
    c = stats.counters
    per_zone = f"{c['net.queries'] / stats.records:.1f}" if stats.records else "-"
    lines = [
        "",
        "query volume",
        f"  queries:      {n('net.queries')} ({per_zone}/zone)",
        f"  bytes:        {n('net.bytes_sent')} sent, {n('net.bytes_received')} received",
        f"  timeouts:     {n('net.timeouts')}",
        f"  truncations:  {n('net.truncations')} ({n('scan.tcp_fallbacks')} TCP fallbacks, "
        f"{n('net.tcp_queries')} TCP queries)",
        f"  rate limit:   {n('ratelimit.waits')} waits, "
        f"{format_duration(c.get('ratelimit.wait_seconds', 0.0))} waited (simulated)",
    ]
    if c.get("sched.tasks"):
        lines += [
            "",
            "scheduler (repro.sched)",
            f"  tasks:        {n('sched.tasks')} zone scans",
            f"  events:       {n('sched.events')} fired",
            f"  in flight:    {n('sched.in_flight_peak')} peak",
            f"  event queue:  {n('sched.queue_peak')} deep at peak",
            f"  gate waits:   {n('sched.gate_waits')} (single-flight cache fills)",
        ]
    if c.get("wire.queries"):
        batches = c.get("wire.batches", 0)
        per_batch = f"{c.get('wire.batched_queries', 0) / batches:.1f}" if batches else "-"
        lines += [
            "",
            "wire engine (repro.wire)",
            f"  queries:      {n('wire.queries')} over real sockets "
            f"({n('wire.servers_hosted')} servers hosted)",
            f"  in flight:    {n('wire.in_flight_peak')} peak",
            f"  batches:      {n('wire.batches')} selector passes with sends "
            f"({per_batch} queries/pass, {n('wire.batch_peak')} peak)",
            f"  answer memo:  {n('wire.response_cache_hits')} hits",
            f"  errors:       {n('wire.socket_errors')} socket, "
            f"{n('wire.demux_misses')} demux misses, {n('wire.decode_errors')} decode, "
            f"{n('wire.wall_timeouts')} wall timeouts",
        ]
    cache_rows = [
        [
            label,
            n(f"{key}.hits"),
            n(f"{key}.misses"),
            _rate(c.get(f"{key}.hits", 0), c.get(f"{key}.misses", 0)),
        ]
        for label, key in (
            ("dns", "cache.dns"),
            ("addresses", "cache.address"),
            ("signal zones", "cache.signal_zone"),
            ("chains", "cache.chain"),
        )
    ]
    return lines + ["", render_table(["cache", "hits", "misses", "hit rate"], cache_rows)]


def _fault_section(counters: Dict[str, float], n) -> List[str]:
    rows = [
        [name.removeprefix("chaos.faults."), n(name)]
        for name in sorted(counters)
        if name.startswith("chaos.faults.")
    ]
    rows.append(["(suppressed by fairness cap)", n("chaos.suppressed")])
    backoff = counters.get("retry.backoff_seconds", 0.0) + counters.get(
        "retry.resolver_backoff_seconds", 0.0
    )
    return [
        "",
        f"fault injection ({n('chaos.decisions')} decisions)",
        render_table(["fault", "injected"], rows),
        f"  retries:      {n('retry.attempts')} scanner + {n('retry.resolver_attempts')} "
        f"resolver attempts, {format_duration(backoff)} backoff (simulated)",
        f"  abandoned:    {n('retry.abandoned')} queries dead after full retry budget",
    ]


def _agent_section(stats: CampaignStats, n) -> List[str]:
    lines = [
        "",
        f"parental agent ({stats.sessions['agent']} session(s))",
        f"  considered:   {n('agent.considered')} zones across {n('agent.epochs_acted')} epoch(s)",
        f"  secured:      {n('agent.secured')} DS provisioned and verified",
        f"  rejected:     {n('agent.rejected')}",
        f"  re-scans:     {n('agent.rescans')} ({n('agent.rollbacks')} rollbacks, RFC 8078 s3)",
    ]
    reasons = {
        name.removeprefix("agent.reason."): value
        for name, value in stats.counters.items()
        if name.startswith("agent.reason.")
    }
    if reasons:
        rows = [
            [reason, format_count(int(count))]
            for reason, count in sorted(reasons.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        lines += ["", render_table(["decision reason", "zones"], rows)]
    return lines


def _query_section(stats: CampaignStats, n) -> List[str]:
    q = stats.counters
    hits = q.get("query.cache_hits", 0)
    misses = q.get("query.cache_misses", 0)
    per_miss = f"{q.get('query.index_seeks', 0) / misses:.1f}" if misses else "-"
    lines = [
        "",
        f"query plane ({stats.sessions['query']} session(s))",
        f"  lookups:      {n('query.lookups')} ({n('query.negative')} negative)",
        f"  cache:        {n('query.cache_hits')} hits, {n('query.cache_misses')} misses "
        f"({_rate(hits, misses)})",
        f"  index seeks:  {n('query.index_seeks')} ({per_miss}/uncached lookup)",
        f"  bytes read:   {n('query.bytes_read')}",
        f"  enumerations: {n('query.enumerations')}",
    ]
    if q.get("query.index_builds"):
        lines.append(
            f"  index builds: {n('query.index_builds')} "
            f"({n('query.index_records')} records compacted)"
        )
    if q.get("query.stale_detected"):
        lines.append(
            f"  staleness:    {n('query.stale_detected')}/{n('query.stale_checks')} checks "
            "found the snapshot behind the store"
        )
    return lines


def render_stats(stats: CampaignStats) -> str:
    """The telemetry report, paper-style plain text: the header, then
    each section whose trigger — a counter, a span, a session of its
    producer — is present.  A root is whatever its streams say it is:
    a monitor root is one whose streams carry ``monitor.*`` counters."""
    counters = stats.counters

    def n(name: str) -> str:
        return format_count(int(counters.get(name, 0)))

    planned = "?" if stats.zones_total is None else format_count(stats.zones_total)
    lines = [
        f"campaign telemetry: {stats.root}",
        f"status:    {stats.status}",
        f"campaign:  seed={stats.seed} scale={stats.scale:g}",
        f"zones:     {format_count(stats.records)}/{planned} persisted",
        f"events:    {format_count(stats.events)} across {stats.streams} stream(s)",
    ]
    if not stats.events and not counters:
        lines.append(
            "\nno telemetry events recorded — run the campaign with "
            "telemetry enabled (--telemetry / CampaignConfig(telemetry=True))"
        )
        return "\n".join(lines)

    if counters.get("monitor.epochs"):
        lines += [
            "",
            "monitor timeline",
            f"  epochs run:       {n('monitor.epochs')}",
            f"  events applied:   {n('monitor.events_applied')}",
            f"  zones re-scanned: {n('monitor.zones_rescanned')}",
        ]
    if "net.queries" in counters:
        lines += _scan_sections(stats, n)
    if stats.spans:
        span_rows = [
            [name, format_count(agg.count)]
            + [format_duration(d) for d in (agg.total, agg.mean, agg.longest)]
            for name, agg in sorted(stats.spans.items())
        ]
        # The timeline hub spans many worlds and binds no simulated clock.
        label = "span" if "monitor" in stats.sessions else "span (simulated)"
        lines += ["", render_table([label, "count", "total", "mean", "max"], span_rows)]
    if counters.get("chaos.decisions") or any(k.startswith("chaos.faults.") for k in counters):
        lines += _fault_section(counters, n)

    commits = stats.spans.get("segment_commit")
    checkpoints = counters.get("store.checkpoints", 0)
    if commits or checkpoints:
        count = commits.count if commits else int(checkpoints)
        records = commits.records if commits else 0
        cadence = f" (~{records / count:.0f} records/commit)" if count and records else ""
        lines += [
            "",
            f"checkpoints: {format_count(count)} commits, {n('store.segments')} segments{cadence}",
        ]
    if stats.machines:
        machine_rows = [
            [
                f"w{m.get('index', 0):02d}",
                format_count(m.get("zones", 0)),
                format_count(m.get("queries", 0)),
                format_duration(m.get("duration", 0.0)),
            ]
            for m in stats.machines
        ]
        header = ["machine", "zones", "queries", "duration (simulated)"]
        lines += ["", render_table(header, machine_rows)]
    if stats.sessions.get("agent"):
        lines += _agent_section(stats, n)
    if stats.sessions.get("query"):
        lines += _query_section(stats, n)
    return "\n".join(lines)
