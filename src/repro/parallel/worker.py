"""The worker half of the parallel campaign engine.

A worker process is a *scan machine* in the paper's sense (App. D): it
rebuilds the same deterministic world from ``(seed, scale)``, claims the
zones whose shard bucket falls in its assigned range, scans them with
its own simulated clock and rate limiter
(:func:`repro.scanner.fleet.make_machine_scanner`), and commits results
into its own checkpointed :class:`~repro.store.CampaignStore` under the
campaign root.  All communication with the parent is through the
filesystem: the worker's store manifest carries the durable scan state
and a small ``worker.json`` carries per-machine statistics — so a
crashed worker leaves exactly its last checkpoint behind and any subset
of workers can be re-run by :func:`repro.parallel.resume_parallel_campaign`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.chaos import ChaosConfig, RetryPolicy
from repro.monitor.spec import MonitorSpec
from repro.scenarios.spec import ScenarioSpec
from repro.obs.events import events_path
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.store.checkpoint import DEFAULT_CHECKPOINT_EVERY, CampaignStore
from repro.store.manifest import load_manifest, manifest_path
from repro.store.shards import StoreError

from repro.parallel.partition import stored_zones_for_buckets, zones_for_buckets

# Exit code of a fault-injected "crash" (tests kill workers this way).
EXIT_SIMULATED_CRASH = 99

WORKER_STATS_FILENAME = "worker.json"


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker needs — picklable, so it survives spawn."""

    index: int
    seed: int
    scale: float
    num_shards: int
    buckets: Tuple[int, ...]
    store_dir: str  # this worker's own store directory
    # Existing stores whose persisted zones are already done (the root
    # store and any sibling worker stores); the worker reads only the
    # segments of its own buckets from each.
    skip_roots: Tuple[str, ...] = ()
    compress: bool = True
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    use_sources: bool = False
    # Observability: a plain bool (the hub itself is not picklable-by-
    # contract); the worker builds its own hub bound to its machine
    # clock, streaming into ``<worker store>/events/``.
    telemetry: bool = False
    # Fault injection (repro.chaos): the campaign-level config; each
    # worker derives its own decision stream from (seed, first bucket)
    # so fault patterns are independent across machines yet replayable.
    chaos: Optional[ChaosConfig] = None
    # Scanner/resolver retry policy; None → legacy single-retry.
    retry: Optional[RetryPolicy] = None
    # Concurrent in-flight zones (repro.sched): each worker runs its own
    # event loop over its machine clock; None → legacy serial scan.
    in_flight: Optional[int] = None
    # Fault injection for tests: hard-exit (no checkpoint, no stats)
    # after committing results for this many zones.
    crash_after: Optional[int] = field(default=None)
    # Monitoring plane: when set, the worker replays the seeded event
    # stream to this epoch before scanning, and (for epoch >= 1)
    # narrows its share to the changed-zone subset.  The subset is
    # *recomputed* in-process from the (picklable) monitor spec — the
    # event stream is layout-independent, so no zone lists are shipped.
    epoch: Optional[int] = None
    monitor: Optional[MonitorSpec] = None
    # Scenario plane for *plain* parallel campaigns (epoch campaigns
    # carry it inside the monitor spec); frozen and picklable, so every
    # worker rebuilds the exact same scenario population.
    scenarios: Optional[ScenarioSpec] = None


def worker_stats_path(store_dir: Path) -> Path:
    return Path(store_dir) / WORKER_STATS_FILENAME


def _write_stats(store_dir: Path, stats: Dict[str, Any]) -> None:
    """Atomically publish the worker's machine statistics."""
    path = worker_stats_path(store_dir)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def run_worker(spec: WorkerSpec) -> Dict[str, Any]:
    """Scan this worker's shard partition into its own store.

    Designed to be the ``target`` of a spawned process, but callable
    inline (tests use both).  Returns the machine statistics written to
    ``worker.json``.
    """
    root = Path(spec.store_dir)
    buckets = list(spec.buckets)

    own_manifest = None
    if manifest_path(root).exists():
        own_manifest = load_manifest(root)
        if (own_manifest.seed, own_manifest.scale) != (spec.seed, spec.scale):
            raise StoreError(
                f"worker store {root} belongs to campaign "
                f"(seed={own_manifest.seed}, scale={own_manifest.scale:g}), "
                f"not (seed={spec.seed}, scale={spec.scale:g})"
            )
        if (
            own_manifest.complete
            and own_manifest.num_shards == spec.num_shards
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

    # Imported lazily: worlds are heavy and the fast path above avoids them.
    from repro.campaign import _scan_list
    from repro.monitor.timeline import scan_world
    from repro.scanner.fleet import make_machine_scanner

    telemetry = Telemetry() if spec.telemetry else NULL_TELEMETRY
    world, scan_override, _ = scan_world(
        spec.scale, spec.seed, monitor=spec.monitor, epoch=spec.epoch,
        scenarios=spec.scenarios,
    )
    world.network.enable_response_cache()
    if spec.chaos is not None and spec.chaos.enabled:
        # Each machine gets its own decision stream: derived, not
        # shared, so no two workers replay identical fault patterns,
        # yet each stream is a pure function of (campaign seed, bucket).
        world.network.install_chaos(spec.chaos.derive("worker", buckets[0]))
    config = world.scanner_config()
    if spec.retry is not None:
        config = replace(config, retry_policy=spec.retry.derive("worker", buckets[0]))
    if spec.in_flight is not None:
        config = replace(config, in_flight=spec.in_flight)
    scanner, clock = make_machine_scanner(world, config=config, telemetry=telemetry)
    scan_list = (
        scan_override if scan_override is not None else _scan_list(world, spec.use_sources)
    )
    mine = zones_for_buckets(scan_list, spec.num_shards, buckets)

    if own_manifest is None:
        store = CampaignStore.create(
            root,
            seed=spec.seed,
            scale=spec.scale,
            num_shards=spec.num_shards,
            compress=spec.compress,
            zones_total=len(mine),
            config={"worker": spec.index, "buckets": buckets},
            checkpoint_every=spec.checkpoint_every,
            telemetry=telemetry,
        )
    else:
        store = CampaignStore.open(
            root, checkpoint_every=spec.checkpoint_every, telemetry=telemetry
        )
    if telemetry.enabled:
        telemetry.open_sink(events_path(root))

    skip: set[str] = set()
    for skip_root in dict.fromkeys((str(root), *spec.skip_roots)):
        candidate = Path(skip_root)
        if manifest_path(candidate).exists():
            skip |= stored_zones_for_buckets(candidate, buckets)
    remainder = [zone for zone in mine if zone.to_text() not in skip]

    if store.manifest.complete and remainder:
        # A repartitioned resume moved extra buckets into this worker.
        store.reopen_in_progress()

    queries_before = world.network.queries_sent
    scanned = 0
    if remainder:
        with store:
            for _ in scanner.scan_iter(remainder, sink=store.append):
                scanned += 1
                if telemetry.enabled:
                    telemetry.maybe_progress(scanned, len(remainder))
                    if scanned % telemetry.progress_every == 0:
                        # Transient liveness signal for the parent (the
                        # parent polls worker.json): deliberately *not*
                        # part of the persisted event stream, which must
                        # stay timing-independent.
                        _write_stats(
                            root,
                            {
                                "index": spec.index,
                                "heartbeat": True,
                                "buckets": buckets,
                                "zones_done": scanned,
                                "zones_total": len(remainder),
                            },
                        )
                if spec.crash_after is not None and scanned >= spec.crash_after:
                    # Hard exit: skips the context manager's checkpoint,
                    # so buffered-but-uncommitted records are lost —
                    # exactly what a real crash leaves behind.
                    os._exit(EXIT_SIMULATED_CRASH)
    store.complete()

    stats = {
        "index": spec.index,
        "buckets": buckets,
        "zones": len(mine),
        "scanned": scanned,
        "queries": world.network.queries_sent - queries_before,
        "duration": clock.now(),
    }
    if telemetry.enabled:
        telemetry.capture_scanner(scanner)
        telemetry.flush_counters()
        telemetry.close()
    _write_stats(root, stats)
    return stats
