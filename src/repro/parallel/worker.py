"""The worker half of the parallel campaign engine.

A worker process is a *scan machine* in the paper's sense (App. D).  It
receives the campaign's :class:`~repro.campaign.CampaignConfig` and
runs the same executor steps a sequential campaign runs
(:func:`repro.campaign.prepare`, :func:`repro.campaign.scan_into`) with
exactly three differences: its scanner waits on a clock of its own, its
chaos and retry streams are derived from ``(campaign seed, first
bucket)``, and it scans only the zones whose shard bucket falls in its
assigned range — into its own checkpointed
:class:`~repro.store.CampaignStore` under the campaign root.  All
communication with the parent is through the filesystem: the worker's
store manifest carries the durable scan state and a small
``worker.json`` carries per-machine statistics — so a crashed worker
leaves exactly its last checkpoint behind and any subset of workers can
be re-run by :func:`repro.campaign.resume_campaign`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.campaign import CampaignConfig, open_store, prepare, scan_into, seal
from repro.obs.events import WORKER_STATS_FILENAME, stream_path
from repro.obs.telemetry import PROGRESS_EVERY, as_telemetry
from repro.scanner.fleet import give_own_clock
from repro.store.manifest import load_manifest, manifest_path
from repro.store.shards import StoreError, stored_zones, write_atomic

from repro.parallel.partition import zones_for_buckets

# Exit code of a fault-injected "crash" (tests kill workers this way).
EXIT_SIMULATED_CRASH = 99


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker needs — picklable, so it survives spawn."""

    index: int
    buckets: Tuple[int, ...]
    store_dir: str  # this worker's own store directory
    # Existing stores whose persisted zones are already done (the root
    # store and any sibling worker stores); the worker reads only the
    # segments of its own buckets from each.
    skip_roots: Tuple[str, ...]
    # Fault injection for tests: hard-exit (no checkpoint, no stats)
    # after committing results for this many zones.
    crash_after: Optional[int]
    # The campaign's own config, with two fields resolved by the parent:
    # ``num_shards`` is the root manifest's, and ``telemetry`` is a plain
    # bool (a hub is not picklable-by-contract) — the worker builds its
    # own hub on its machine clock, streaming into ``<store>/events/``.
    config: CampaignConfig


def worker_stats_path(store_dir: Path) -> Path:
    return Path(store_dir) / WORKER_STATS_FILENAME


def _write_stats(store_dir: Path, stats: Dict[str, Any]) -> None:
    """Atomically publish the worker's machine statistics."""
    write_atomic(worker_stats_path(store_dir), json.dumps(stats, indent=2, sort_keys=True) + "\n")


def run_worker(spec: WorkerSpec) -> Dict[str, Any]:
    """Scan this worker's shard partition into its own store.

    Designed to be the ``target`` of a spawned process, but callable
    inline (tests use both).  Returns the machine statistics written to
    ``worker.json``.
    """
    root = Path(spec.store_dir)
    buckets = list(spec.buckets)
    config = spec.config

    fresh = not manifest_path(root).exists()
    if not fresh:
        own_manifest = load_manifest(root)
        if (own_manifest.seed, own_manifest.scale) != (config.seed, config.scale):
            raise StoreError(
                f"worker store {root} belongs to campaign "
                f"(seed={own_manifest.seed}, scale={own_manifest.scale:g}), "
                f"not (seed={config.seed}, scale={config.scale:g})"
            )
        if (
            own_manifest.complete
            and own_manifest.num_shards == config.num_shards
            and own_manifest.config.get("buckets") == buckets
        ):
            # This worker finished in a previous run with the same
            # partition: its store already holds its entire share, so we
            # can skip even the world rebuild.
            stats_file = worker_stats_path(root)
            if stats_file.exists():
                return json.loads(stats_file.read_text(encoding="utf-8"))
            stats = {
                "index": spec.index,
                "buckets": buckets,
                "zones": own_manifest.records,
                "scanned": 0,
                "queries": 0,
                "duration": 0.0,
            }
            _write_stats(root, stats)
            return stats

    # Each machine gets its own decision streams: derived, not shared, so
    # no two workers replay identical fault patterns or backoff jitter,
    # yet each stream is a pure function of (campaign seed, bucket).
    retry = config.effective_retry()
    config = replace(
        config,
        chaos=config.chaos and config.chaos.derive("worker", buckets[0]),
        retry=retry and retry.derive("worker", buckets[0]),
    )
    telemetry = as_telemetry(config.telemetry)
    world, scanner, zones, _ = prepare(config, telemetry=telemetry)
    # A scan machine: rate-limit waits and spans run on its own clock.
    clock = give_own_clock(scanner)
    mine = zones_for_buckets(zones, config.num_shards, buckets)

    created = {"zones_total": len(mine), "config": {"worker": spec.index, "buckets": buckets}}
    store = open_store(config, root, telemetry, create=created if fresh else None)
    if telemetry.enabled:
        telemetry.open_sink(stream_path(root))

    skip: set[str] = set()
    for skip_root in dict.fromkeys((str(root), *spec.skip_roots)):
        candidate = Path(skip_root)
        if manifest_path(candidate).exists():
            skip |= stored_zones(candidate, load_manifest(candidate), buckets)
    remainder = [zone for zone in mine if zone.to_text() not in skip]

    if store.manifest.complete and remainder:
        # A repartitioned resume moved extra buckets into this worker.
        store.reopen_in_progress()

    def each(scanned: int, total: int) -> None:
        if telemetry.enabled and scanned % PROGRESS_EVERY == 0:
            # Transient liveness signal for the parent (the parent polls
            # worker.json): deliberately *not* part of the persisted
            # event stream, which must stay timing-independent.
            _write_stats(
                root,
                {
                    "index": spec.index,
                    "heartbeat": True,
                    "buckets": buckets,
                    "zones_done": scanned,
                    "zones_total": total,
                },
            )
        if spec.crash_after is not None and scanned >= spec.crash_after:
            # Hard exit: skips the store's checkpoint-on-exit, so
            # buffered-but-uncommitted records are lost — exactly what a
            # real crash leaves behind.
            os._exit(EXIT_SIMULATED_CRASH)

    queries_before = world.network.queries_sent
    scan_into(scanner, remainder, store, each=each)

    stats = {
        "index": spec.index,
        "buckets": buckets,
        "zones": len(mine),
        "scanned": len(remainder),
        "queries": world.network.queries_sent - queries_before,
        "duration": clock.now(),
    }
    seal(telemetry, scanner)
    _write_stats(root, stats)
    return stats
