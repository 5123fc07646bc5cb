"""The stream contract: where producers append, and the one fold that
reads them back.

A *stream* is an append-only JSONL file, one per producer, at
``<root>/events/<producer>.jsonl``: ``stream`` is the campaign itself
(the sequential run or the parallel parent under the campaign root,
each parallel worker under ``<root>/workers/wNN``), ``query`` the
read-serving plane, ``monitor`` a monitor root's timeline, ``agent``
the parental agent.  The files stay separate because the campaign
stream is byte-identical for a given (seed, scale, config) and must
stay so; query and agent traffic is driven by whoever asks later.

A stream is a sequence of **sessions** — one per process that appended
to it (a run, its resume, each ``query get``).  Every session numbers
its events from ``seq`` 0, so a ``seq`` that fails to advance starts
the next one; :func:`fold_stream` is the only code that knows this.
Counters are cumulative within a session (its last ``counters`` event
holds the totals) and additive across sessions and origins, except
names ending ``_peak``, which fold by ``max``.

Nothing is ever merged byte-wise: the *read order* is the merge.
Campaign streams sort by origin (the root first, then workers in
directory order) and events within a stream are in per-session ``seq``
order — a pure function of the stored data, the same discipline the
manifest merge applies to ``(bucket, origin, sequence)``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

EVENTS_DIR = "events"

# The parallel engine's worker-store directory and per-worker statistics
# file (defined here, at the bottom of the dependency graph, so the
# observability reader needs no import from repro.parallel).
WORKERS_DIR = "workers"
WORKER_STATS_FILENAME = "worker.json"


def stream_path(root: Path, producer: str = "stream") -> Path:
    """Where *producer* appends under *root* (default: the campaign)."""
    return Path(root) / EVENTS_DIR / f"{producer}.jsonl"


def truncate_torn_tail(fh) -> None:
    """Cut a final line that is not newline-terminated off *fh* (opened
    ``a+b``): its writer died mid-line, so it was never durable."""
    size = fh.seek(0, os.SEEK_END)
    if size == 0:
        return
    fh.seek(size - 1)
    if fh.read(1) == b"\n":
        return
    start = max(0, size - (1 << 16))
    fh.seek(start)
    keep = start + fh.read(size - start).rfind(b"\n") + 1
    fh.truncate(keep)
    fh.seek(keep)


def read_events(path: Path) -> List[Dict[str, Any]]:
    """Parse one stream file into event dicts.

    A torn final line (a process killed mid-write) is skipped; a
    corrupt line anywhere else raises.
    """
    lines = Path(path).read_bytes().split(b"\n")
    lines.pop()  # what follows the last newline: empty unless torn
    return [json.loads(line) for line in lines if line.strip()]


def campaign_event_streams(store_root: Path) -> List[Tuple[str, Path]]:
    """Every campaign stream under a store, in merge order.

    Returns ``(origin, path)`` pairs: origin ``""`` for the campaign
    root's own stream, ``workers/wNN`` for each worker's — sorted, so
    the order is deterministic no matter which worker finished first.
    """
    root = Path(store_root)
    candidates = [root]
    if (root / WORKERS_DIR).is_dir():
        candidates += sorted((root / WORKERS_DIR).iterdir())
    return [
        (child.relative_to(root).as_posix() if child != root else "", stream_path(child))
        for child in candidates
        if stream_path(child).exists()
    ]


def machine_stats(store_root: Path) -> List[Dict[str, Any]]:
    """Each finished worker's machine statistics, in worker order.

    A file without a ``duration`` is a heartbeat of a worker that never
    finished, and one that does not parse was torn by a killed writer:
    both are liveness data, not a machine report, and are skipped.
    """
    machines: List[Dict[str, Any]] = []
    for path in sorted((Path(store_root) / WORKERS_DIR).glob(f"*/{WORKER_STATS_FILENAME}")):
        try:
            stats = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            continue
        if "duration" in stats:
            machines.append(stats)
    return machines


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

    def merge(self, other: "SpanStats") -> None:
        self.count += other.count
        self.total += other.total
        self.longest = max(self.longest, other.longest)
        self.records += other.records

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def add_counters(into: Dict[str, float], counters: Dict[str, float]) -> None:
    """Combine two producers' (or sessions') totals: sum, peaks by max."""
    for name, value in counters.items():
        if name.endswith("_peak"):
            into[name] = max(into.get(name, 0), value)
        else:
            into[name] = into.get(name, 0) + value


@dataclass
class StreamFold:
    """What one stream file adds up to."""

    events: int = 0
    sessions: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    spans: Dict[str, SpanStats] = field(default_factory=dict)
    last_progress: Optional[Dict[str, Any]] = None


def fold_stream(path: Path) -> StreamFold:
    """Walk every event of one stream, session by session."""
    fold = StreamFold()
    previous_seq = float("inf")  # so the first event opens session one
    session_counters: Dict[str, float] = {}
    for event in read_events(path):
        seq = event.get("seq", 0)
        if seq <= previous_seq:
            fold.sessions += 1
            add_counters(fold.counters, session_counters)
            session_counters = {}
        previous_seq = seq
        fold.events += 1
        kind = event.get("kind")
        if kind == "counters":
            session_counters = event["counters"]
        elif kind == "span":
            agg = fold.spans.setdefault(event["name"], SpanStats())
            agg.add(event["t1"] - event["t0"], event.get("records"))
        elif kind == "progress":
            fold.last_progress = event
    add_counters(fold.counters, session_counters)
    return fold
