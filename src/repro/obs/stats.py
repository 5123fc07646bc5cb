"""Aggregate a campaign's telemetry streams into a readable report.

This is the offline half of the observability layer: given a store, it
reads the manifest, every event stream (root + workers, in the
deterministic merge order), and the per-worker ``worker.json`` machine
stats, then renders query volume, cache effectiveness, span timings,
checkpoint cadence, and per-machine durations — the numbers the paper's
fleet had to be monitored for continuously (App. D).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs.events import (
    WORKERS_DIR,
    agent_events_path,
    campaign_event_streams,
    monitor_events_path,
    query_events_path,
    read_events,
)
from repro.reports.render import format_count, format_duration, render_table
from repro.store.manifest import load_manifest
from repro.store.shards import StoreError

# Monitor-root layout constants, duplicated here (like WORKERS_DIR) so
# the observability reader needs no import from repro.monitor.
MONITOR_STATE_FILENAME = "monitor.json"
EPOCHS_DIR = "epochs"


@dataclass
class SpanStats:
    """Aggregate over every span of one name."""

    count: int = 0
    total: float = 0.0
    longest: float = 0.0
    records: int = 0  # sum of the per-span "records" field, if present

    def add(self, duration: float, records: Optional[int]) -> None:
        self.count += 1
        self.total += duration
        self.longest = max(self.longest, duration)
        if records is not None:
            self.records += records

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class CampaignStats:
    """Everything ``repro-dnssec campaign stats`` reports."""

    root: str
    status: str
    seed: int
    scale: float
    records: int
    zones_total: Optional[int]
    events: int = 0
    streams: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    spans: Dict[str, SpanStats] = field(default_factory=dict)
    last_progress: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    machines: List[Dict[str, Any]] = field(default_factory=list)
    # Read-serving plane (events/query.jsonl) — kept apart from the
    # campaign counters because that stream is per-session and additive,
    # not a deterministic function of (seed, scale, config).
    query_counters: Dict[str, float] = field(default_factory=dict)
    query_sessions: int = 0
    # Parental agent (events/agent.jsonl) — same per-session-additive
    # discipline as the query stream: agent sessions run after epochs
    # complete and append one counters event each.
    agent_counters: Dict[str, float] = field(default_factory=dict)
    agent_sessions: int = 0
    # True when the root holds a monitor (epochs/eNNNN stores) rather
    # than a single campaign store.
    monitor_root: bool = False


def _machine_stats(root: Path) -> List[Dict[str, Any]]:
    """Final per-worker machine stats (heartbeat-only files — a worker
    killed mid-scan — are skipped: they carry no duration yet)."""
    machines: List[Dict[str, Any]] = []
    workers = root / WORKERS_DIR
    if not workers.is_dir():
        return machines
    for child in sorted(workers.iterdir()):
        stats_file = child / "worker.json"
        if not stats_file.exists():
            continue
        try:
            stats = json.loads(stats_file.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            continue
        if "duration" in stats:
            machines.append(stats)
    return machines


def collect_stats(store_root: Path) -> CampaignStats:
    """Read manifest + event streams + machine stats for one campaign.

    A monitor root (``monitor.json`` + per-epoch stores, no manifest of
    its own) is summarised across its epoch stores instead.

    Raises :class:`repro.store.StoreError` when *store_root* holds no
    campaign (the CLI turns that into a nonzero exit).
    """
    root = Path(store_root)
    try:
        manifest = load_manifest(root)
    except StoreError:
        if (root / MONITOR_STATE_FILENAME).exists():
            return _collect_monitor_stats(root)
        raise
    stats = CampaignStats(
        root=str(root),
        status=manifest.status,
        seed=manifest.seed,
        scale=manifest.scale,
        records=manifest.records,
        zones_total=manifest.zones_total,
    )
    for origin, path in campaign_event_streams(root):
        stats.streams += 1
        for event in read_events(path):
            stats.events += 1
            kind = event.get("kind")
            if kind == "counters":
                # Each producer's counters event carries *absolute*
                # totals for that machine; summing across origins gives
                # the campaign-wide figure.  The last event per origin
                # wins within a stream (they are cumulative).
                pass
            if kind == "span":
                agg = stats.spans.setdefault(event["name"], SpanStats())
                agg.add(event["t1"] - event["t0"], event.get("records"))
            elif kind == "progress":
                stats.last_progress[origin] = event
        # Fold in the final counters event of this stream (cumulative
        # within a producer, additive across producers).
        for event in reversed(read_events(path)):
            if event.get("kind") == "counters":
                for name, value in event["counters"].items():
                    stats.counters[name] = stats.counters.get(name, 0) + value
                break
    stats.machines = _machine_stats(root)
    query_stream = query_events_path(root)
    if query_stream.exists():
        # Unlike campaign streams, every CLI/service session appends its
        # own final counters event here — counters are cumulative within
        # a session and additive across sessions, so SUM all of them.
        for event in read_events(query_stream):
            if event.get("kind") != "counters":
                continue
            stats.query_sessions += 1
            for name, value in event["counters"].items():
                stats.query_counters[name] = stats.query_counters.get(name, 0) + value
    stats.agent_sessions = _fold_session_counters(
        agent_events_path(root), stats.agent_counters
    )
    return stats


def _fold_session_counters(path: Path, into: Dict[str, float]) -> int:
    """Sum per-session counter totals from an additive stream.

    Counters are cumulative within one producer session and additive
    across sessions; a ``seq`` that fails to advance marks a new
    session, so the fold adds each session's final counters event.
    Returns the session count (0 when the stream does not exist).
    """
    if not path.exists():
        return 0
    sessions = 0
    pending: Optional[Dict[str, float]] = None
    pending_seq = -1
    for event in read_events(path):
        if event.get("kind") != "counters":
            continue
        seq = event.get("seq", 0)
        if pending is not None and seq <= pending_seq:
            sessions += 1
            for name, value in pending.items():
                into[name] = into.get(name, 0) + value
        pending, pending_seq = event["counters"], seq
    if pending is not None:
        sessions += 1
        for name, value in pending.items():
            into[name] = into.get(name, 0) + value
    return sessions


def _collect_monitor_stats(root: Path) -> CampaignStats:
    """Summarise a monitor root: epoch stores + timeline/agent streams."""
    state = json.loads((root / MONITOR_STATE_FILENAME).read_text(encoding="utf-8"))
    stats = CampaignStats(
        root=str(root),
        status="monitor",
        seed=int(state.get("seed", 0)),
        scale=float(state.get("scale", 0.0)),
        records=0,
        zones_total=None,
        monitor_root=True,
    )
    epochs_dir = root / EPOCHS_DIR
    epochs = 0
    if epochs_dir.is_dir():
        for child in sorted(epochs_dir.iterdir()):
            try:
                manifest = load_manifest(child)
            except StoreError:
                continue
            epochs += 1
            stats.records += manifest.records
            if stats.zones_total is None:
                stats.zones_total = manifest.zones_total
    stats.status = f"monitor ({epochs} epoch store(s))"
    timeline = monitor_events_path(root)
    if timeline.exists():
        stats.streams += 1
        for event in read_events(timeline):
            stats.events += 1
            if event.get("kind") == "span":
                agg = stats.spans.setdefault(event["name"], SpanStats())
                agg.add(event["t1"] - event["t0"], event.get("records"))
        _fold_session_counters(timeline, stats.counters)
    stats.agent_sessions = _fold_session_counters(
        agent_events_path(root), stats.agent_counters
    )
    if stats.agent_sessions:
        stats.streams += 1
        stats.events += len(read_events(agent_events_path(root)))
    return stats


def _rate(hits: float, misses: float) -> str:
    total = hits + misses
    if not total:
        return "-"
    return f"{100.0 * hits / total:.1f}%"


def _render_query_plane(stats: CampaignStats) -> List[str]:
    """The ``query plane`` stats section (read-serving counters)."""
    q = stats.query_counters
    if not q:
        return []
    lookups = q.get("query.lookups", 0)
    hits = q.get("query.cache_hits", 0)
    misses = q.get("query.cache_misses", 0)
    per_miss = f"{q.get('query.index_seeks', 0) / misses:.1f}" if misses else "-"
    lines = [
        "",
        f"query plane ({stats.query_sessions} session(s))",
        f"  lookups:      {format_count(int(lookups))} "
        f"({format_count(int(q.get('query.negative', 0)))} negative)",
        f"  cache:        {format_count(int(hits))} hits, "
        f"{format_count(int(misses))} misses ({_rate(hits, misses)})",
        f"  index seeks:  {format_count(int(q.get('query.index_seeks', 0)))} "
        f"({per_miss}/uncached lookup)",
        f"  bytes read:   {format_count(int(q.get('query.bytes_read', 0)))}",
        f"  enumerations: {format_count(int(q.get('query.enumerations', 0)))}",
    ]
    if q.get("query.index_builds"):
        lines.append(
            f"  index builds: {format_count(int(q.get('query.index_builds', 0)))} "
            f"({format_count(int(q.get('query.index_records', 0)))} records compacted)"
        )
    if q.get("query.stale_detected"):
        lines.append(
            f"  staleness:    {format_count(int(q.get('query.stale_detected', 0)))}"
            f"/{format_count(int(q.get('query.stale_checks', 0)))} checks found "
            "the snapshot behind the store"
        )
    return lines


def _render_wire_engine(counters: Dict[str, float]) -> List[str]:
    """The ``wire engine`` stats section.

    Present only when the campaign actually scanned over real sockets
    (``wire.queries`` > 0): simulated-fabric campaigns render no wire
    section at all, keeping their reports byte-identical to pre-wire
    output.
    """
    queries = counters.get("wire.queries", 0)
    if not queries:
        return []
    batches = counters.get("wire.batches", 0)
    batched = counters.get("wire.batched_queries", 0)
    per_batch = f"{batched / batches:.1f}" if batches else "-"
    return [
        "",
        "wire engine (repro.wire)",
        f"  queries:      {format_count(int(queries))} over real sockets "
        f"({format_count(int(counters.get('wire.servers_hosted', 0)))} servers hosted)",
        f"  in flight:    {format_count(int(counters.get('wire.in_flight_peak', 0)))} peak",
        f"  batches:      {format_count(int(batches))} flushes "
        f"({per_batch} queries/flush, {format_count(int(counters.get('wire.batch_peak', 0)))} peak)",
        f"  resp. cache:  {format_count(int(counters.get('wire.response_cache_hits', 0)))} hits",
        f"  errors:       {format_count(int(counters.get('wire.socket_errors', 0)))} socket, "
        f"{format_count(int(counters.get('wire.demux_misses', 0)))} demux misses, "
        f"{format_count(int(counters.get('wire.decode_errors', 0)))} decode, "
        f"{format_count(int(counters.get('wire.wall_timeouts', 0)))} wall timeouts",
    ]


def _render_agent(stats: CampaignStats) -> List[str]:
    """The ``parental agent`` stats section.

    Present only when an agent has acted on the root — campaigns and
    monitors that never ran one render byte-identically to before.
    """
    a = stats.agent_counters
    if not a:
        return []
    lines = [
        "",
        f"parental agent ({stats.agent_sessions} session(s))",
        f"  considered:   {format_count(int(a.get('agent.considered', 0)))} zones "
        f"across {format_count(int(a.get('agent.epochs_acted', 0)))} epoch(s)",
        f"  secured:      {format_count(int(a.get('agent.secured', 0)))} DS provisioned "
        "and verified",
        f"  rejected:     {format_count(int(a.get('agent.rejected', 0)))}",
        f"  re-scans:     {format_count(int(a.get('agent.rescans', 0)))} "
        f"({format_count(int(a.get('agent.rollbacks', 0)))} rollbacks, RFC 8078 s3)",
    ]
    reasons = {
        name.removeprefix("agent.reason."): value
        for name, value in a.items()
        if name.startswith("agent.reason.")
    }
    if reasons:
        rows = [
            [reason, format_count(int(count))]
            for reason, count in sorted(reasons.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        lines += ["", render_table(["decision reason", "zones"], rows)]
    return lines


def _render_monitor_root(stats: CampaignStats, lines: List[str]) -> str:
    """The monitor-root flavour of the stats report: timeline counters
    and spans, then the agent and query-plane sections."""
    c = stats.counters
    if c.get("monitor.epochs"):
        lines += [
            "",
            "monitor timeline",
            f"  epochs run:       {format_count(int(c.get('monitor.epochs', 0)))}",
            f"  events applied:   {format_count(int(c.get('monitor.events_applied', 0)))}",
            f"  zones re-scanned: {format_count(int(c.get('monitor.zones_rescanned', 0)))}",
        ]
    if stats.spans:
        span_rows = [
            [
                name,
                format_count(agg.count),
                format_duration(agg.total),
                format_duration(agg.mean),
                format_duration(agg.longest),
            ]
            for name, agg in sorted(stats.spans.items())
        ]
        lines += ["", render_table(["span", "count", "total", "mean", "max"], span_rows)]
    lines += _render_agent(stats)
    lines += _render_query_plane(stats)
    return "\n".join(lines)


def render_stats(stats: CampaignStats) -> str:
    """The campaign telemetry report, paper-style plain text."""
    counters = stats.counters
    planned = "?" if stats.zones_total is None else format_count(stats.zones_total)
    lines = [
        f"campaign telemetry: {stats.root}",
        f"status:    {stats.status}",
        f"campaign:  seed={stats.seed} scale={stats.scale:g}",
        f"zones:     {format_count(stats.records)}/{planned} persisted",
        f"events:    {format_count(stats.events)} across {stats.streams} stream(s)",
    ]
    if stats.monitor_root:
        return _render_monitor_root(stats, lines)
    if not stats.events:
        if stats.query_counters:
            lines += _render_query_plane(stats)
            return "\n".join(lines)
        lines.append(
            "\nno telemetry events recorded — run the campaign with "
            "telemetry enabled (--telemetry / CampaignConfig(telemetry=True))"
        )
        return "\n".join(lines)

    queries = counters.get("net.queries", 0)
    per_zone = f"{queries / stats.records:.1f}" if stats.records else "-"
    lines += [
        "",
        "query volume",
        f"  queries:      {format_count(int(queries))} ({per_zone}/zone)",
        f"  bytes:        {format_count(int(counters.get('net.bytes_sent', 0)))} sent, "
        f"{format_count(int(counters.get('net.bytes_received', 0)))} received",
        f"  timeouts:     {format_count(int(counters.get('net.timeouts', 0)))}",
        f"  truncations:  {format_count(int(counters.get('net.truncations', 0)))} "
        f"({format_count(int(counters.get('scan.tcp_fallbacks', 0)))} TCP fallbacks, "
        f"{format_count(int(counters.get('net.tcp_queries', 0)))} TCP queries)",
        f"  rate limit:   {format_count(int(counters.get('ratelimit.waits', 0)))} waits, "
        f"{format_duration(counters.get('ratelimit.wait_seconds', 0.0))} waited (simulated)",
    ]

    if counters.get("sched.tasks"):
        lines += [
            "",
            "scheduler (repro.sched)",
            f"  tasks:        {format_count(int(counters.get('sched.tasks', 0)))} zone scans",
            f"  events:       {format_count(int(counters.get('sched.events', 0)))} fired",
            f"  in flight:    {format_count(int(counters.get('sched.in_flight_peak', 0)))} peak",
            f"  event queue:  {format_count(int(counters.get('sched.queue_peak', 0)))} deep at peak",
            f"  gate waits:   {format_count(int(counters.get('sched.gate_waits', 0)))} "
            "(single-flight cache fills)",
        ]

    lines += _render_wire_engine(counters)

    cache_rows = []
    for label, key in (
        ("dns", "cache.dns"),
        ("addresses", "cache.address"),
        ("signal zones", "cache.signal_zone"),
        ("chains", "cache.chain"),
    ):
        hits = counters.get(f"{key}.hits", 0)
        misses = counters.get(f"{key}.misses", 0)
        cache_rows.append(
            [label, format_count(int(hits)), format_count(int(misses)), _rate(hits, misses)]
        )
    lines += ["", render_table(["cache", "hits", "misses", "hit rate"], cache_rows)]

    if stats.spans:
        span_rows = [
            [
                name,
                format_count(agg.count),
                format_duration(agg.total),
                format_duration(agg.mean),
                format_duration(agg.longest),
            ]
            for name, agg in sorted(stats.spans.items())
        ]
        lines += [
            "",
            render_table(
                ["span (simulated)", "count", "total", "mean", "max"], span_rows
            ),
        ]

    fault_counters = {
        name: value for name, value in counters.items() if name.startswith("chaos.faults.")
    }
    if fault_counters or counters.get("chaos.decisions"):
        fault_rows = [
            [name.removeprefix("chaos.faults."), format_count(int(value))]
            for name, value in sorted(fault_counters.items())
        ]
        fault_rows.append(["(suppressed by fairness cap)",
                           format_count(int(counters.get("chaos.suppressed", 0)))])
        lines += [
            "",
            "fault injection "
            f"({format_count(int(counters.get('chaos.decisions', 0)))} decisions)",
            render_table(["fault", "injected"], fault_rows),
            f"  retries:      {format_count(int(counters.get('retry.attempts', 0)))} scanner "
            f"+ {format_count(int(counters.get('retry.resolver_attempts', 0)))} resolver attempts, "
            f"{format_duration(counters.get('retry.backoff_seconds', 0.0) + counters.get('retry.resolver_backoff_seconds', 0.0))} backoff (simulated)",
            f"  abandoned:    {format_count(int(counters.get('retry.abandoned', 0)))} "
            "queries dead after full retry budget",
        ]

    commits = stats.spans.get("segment_commit")
    checkpoints = counters.get("store.checkpoints", 0)
    if commits or checkpoints:
        count = commits.count if commits else int(checkpoints)
        records = commits.records if commits else 0
        cadence = f" (~{records / count:.0f} records/commit)" if count and records else ""
        lines += [
            "",
            f"checkpoints: {format_count(count)} commits, "
            f"{format_count(int(counters.get('store.segments', 0)))} segments{cadence}",
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
        lines += [
            "",
            render_table(
                ["machine", "zones", "queries", "duration (simulated)"], machine_rows
            ),
        ]
    lines += _render_agent(stats)
    lines += _render_query_plane(stats)
    return "\n".join(lines)


def write_benchmark_metrics(
    results_dir: Path,
    stem: str,
    payload: Dict[str, Any],
    telemetry=None,
) -> Path:
    """Write one ``BENCH_<stem>.json`` metrics twin through the hub.

    The shared emission path for every benchmark artifact: the payload
    is recorded as a ``metric`` event on *telemetry* (when given) and
    written as the machine-readable JSON twin downstream tooling reads.
    """
    if telemetry is not None:
        telemetry.metric(stem, payload)
    path = Path(results_dir) / f"BENCH_{stem}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
