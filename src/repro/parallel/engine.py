"""The parent half of the parallel campaign engine: the ``workers=N``
scan step.

A parallel campaign is an ordinary one.  :func:`repro.campaign._execute`
opens the root store and, once every zone is stored, analyses it and
re-checks — as for every layout; its scan step is
:func:`scan_with_workers` instead of a scan in this process:

1. the parent spawns one process per worker, handing each the config
   itself and a contiguous range of shard buckets
   (:mod:`repro.parallel.partition`);
2. while the workers scan, the parent prepares its own copy of the
   world (:func:`repro.campaign.prepare` — the operator database and
   the §4.4 re-check need one), so the build cost overlaps the scan
   instead of preceding it;
3. each worker commits checkpointed shard segments into its own store
   under ``<root>/workers/wNN``;
4. the parent merges the worker *manifests* — not the files — into the
   root manifest: every segment keeps its bytes and digest, its path
   simply points into the worker subdirectory, and global sequence
   numbers are reassigned in ``(bucket, origin, sequence)`` order.  The
   merge is therefore a single atomic manifest rewrite, crash-safe by
   the same argument as any other checkpoint, and the merged stream
   order is a pure function of the data — never of worker timing.

Determinism invariant: the streamed analysis of the merged store, and
the report after the re-check pass, are byte-identical (Tables 1–3,
Figure 1) to a sequential run at the same seed and scale.  Aggregates
do not depend on record order, the record *set* is exactly the scan
list, and the re-check gives every transiently-failing zone the same
observation budget a sequential campaign gives it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.campaign import CampaignConfig, prepare, record_total
from repro.obs.events import WORKERS_DIR, machine_stats
from repro.obs.telemetry import NULL_TELEMETRY
from repro.scanner.fleet import MachineReport
from repro.store.checkpoint import CampaignStore
from repro.store.manifest import load_manifest, manifest_path
from repro.store.shards import StoreError

from repro.parallel.partition import bucket_ranges
from repro.parallel.worker import WorkerSpec, run_worker, worker_stats_path

class ParallelCampaignError(StoreError):
    """One or more workers did not finish; the store remains resumable."""

    def __init__(self, message: str, failed: Dict[int, Optional[int]]):
        super().__init__(message)
        # worker index -> exit code (None if the process died signal-less).
        self.failed = failed


def worker_dir(root: Path, index: int) -> Path:
    return Path(root) / WORKERS_DIR / f"w{index:02d}"


def _existing_worker_roots(root: Path) -> List[Path]:
    """Worker stores already on disk, in deterministic (name) order."""
    base = Path(root) / WORKERS_DIR
    if not base.exists():
        return []
    return sorted(
        child for child in base.iterdir() if manifest_path(child).exists()
    )


def _ensure_children_can_import() -> None:
    """Spawned workers re-import :mod:`repro`; make sure they can.

    The tier-1 invocation (``PYTHONPATH=src pytest``) already covers
    this, but a caller who put ``src`` on ``sys.path`` by hand would
    otherwise spawn workers that die on import.
    """
    import repro

    package_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )


def _spawn_workers(specs: Sequence[WorkerSpec]) -> List[multiprocessing.Process]:
    # spawn (not fork): workers must prove they can rebuild the world
    # from (seed, scale) alone — the property the determinism argument
    # rests on — and must not inherit the parent's interpreter state.
    _ensure_children_can_import()
    context = multiprocessing.get_context("spawn")
    processes = []
    for spec in specs:
        process = context.Process(target=run_worker, args=(spec,), name=f"repro-w{spec.index:02d}")
        process.start()
        processes.append(process)
    return processes


def _join_workers(
    root: Path,
    specs: Sequence[WorkerSpec],
    processes: Sequence[multiprocessing.Process],
    telemetry=NULL_TELEMETRY,
) -> None:
    if telemetry.enabled and telemetry.on_heartbeat is not None:
        _join_with_heartbeats(specs, processes, telemetry)
    failed: Dict[int, Optional[int]] = {}
    for spec, process in zip(specs, processes):
        process.join()
        if process.exitcode != 0:
            failed[spec.index] = process.exitcode
    if failed:
        detail = ", ".join(f"w{index:02d} (exit {code})" for index, code in sorted(failed.items()))
        raise ParallelCampaignError(
            f"{len(failed)}/{len(specs)} workers did not finish: {detail}; "
            f"the store at {root} is resumable with resume_campaign(workers=...)",
            failed,
        )


def _join_with_heartbeats(
    specs: Sequence[WorkerSpec],
    processes: Sequence[multiprocessing.Process],
    telemetry,
    poll_interval: float = 0.25,
) -> None:
    """Surface worker liveness while waiting (live display only).

    Heartbeats go to ``telemetry.on_heartbeat`` and are never recorded:
    what the parent happens to observe depends on process timing, and
    the persisted event stream must stay a pure function of the config.
    """
    pending = {spec.index: process for spec, process in zip(specs, processes)}
    roots = {spec.index: Path(spec.store_dir) for spec in specs}
    last_seen: Dict[int, object] = {}
    while pending:
        for index, process in list(pending.items()):
            process.join(timeout=poll_interval)
            if not process.is_alive():
                del pending[index]
            stats_file = worker_stats_path(roots[index])
            if not stats_file.exists():
                continue
            try:
                stats = json.loads(stats_file.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                continue  # caught mid-replace; the next poll rereads
            key = (stats.get("heartbeat"), stats.get("zones_done"), stats.get("duration"))
            if last_seen.get(index) != key:
                last_seen[index] = key
                telemetry.live(worker=index, **stats)


def merge_worker_manifests(
    store: CampaignStore, worker_roots: Sequence[Path], telemetry=NULL_TELEMETRY
) -> None:
    """Fold completed worker stores into the root manifest and mark the
    campaign complete.

    Segments are referenced in place (paths relative to the root point
    into the worker subdirectories); bytes, record counts, and digests
    are untouched.  Global sequence numbers are reassigned in
    ``(bucket, origin, worker_sequence)`` order — a pure function of the
    stored data, so two runs that scanned the same zones produce the
    same manifest ordering no matter which worker finished first.
    """
    with telemetry.span("manifest_merge") as span:
        entries = []
        # Pre-existing root-owned segments (a sequential store finished in
        # parallel) sort before any worker's segments of the same bucket.
        for info in store.manifest.shards:
            entries.append((info.bucket, "", info.sequence, info))
        for wroot in sorted(worker_roots):
            wmanifest = load_manifest(wroot)
            if not wmanifest.complete:
                raise StoreError(f"worker store {wroot} is still in progress; cannot merge")
            if wmanifest.num_shards != store.manifest.num_shards:
                raise StoreError(
                    f"worker store {wroot} has {wmanifest.num_shards} shards, "
                    f"campaign has {store.manifest.num_shards}"
                )
            origin = wroot.relative_to(store.root).as_posix()
            for info in wmanifest.shards:
                entries.append(
                    (info.bucket, origin, info.sequence, replace(info, path=f"{origin}/{info.path}"))
                )
        entries.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
        store.manifest.shards = [
            replace(info, sequence=sequence) for sequence, (_, _, _, info) in enumerate(entries)
        ]
        store.complete()
        span["workers"] = len(worker_roots)
        span["segments"] = len(entries)


def scan_with_workers(config: CampaignConfig, store: CampaignStore, telemetry, faults=None):
    """Finish the campaign in the open *store* with ``config.workers``
    processes; returns ``(world, scanner, events, machines, done)``.

    One worker per bucket range scans whatever is not stored yet:
    completed worker stores are recognised by their manifests and
    skipped wholesale, crashed ones resume from their last checkpoint,
    missing ones start fresh, and a worker count different from the one
    the campaign started with repartitions only the remaining zones
    (every stored zone is skipped wherever it lives, so shares stay
    disjoint).  *faults* (tests only) hard-kills workers mid-scan:
    ``{worker_index: crash_after_n_zones}``.
    """
    root, manifest = store.root, store.manifest
    specs: List[WorkerSpec] = []
    if not manifest.complete:
        skip_roots = tuple(
            str(path)
            for path in ([root] if manifest.shards else []) + _existing_worker_roots(root)
        )
        worker_config = replace(config, num_shards=manifest.num_shards, telemetry=telemetry.enabled)
        specs = [
            WorkerSpec(
                index=index,
                buckets=tuple(bucket_range),
                store_dir=str(worker_dir(root, index)),
                skip_roots=skip_roots,
                crash_after=(faults or {}).get(index),
                config=worker_config,
            )
            for index, bucket_range in enumerate(bucket_ranges(manifest.num_shards, config.workers))
        ]
        # A resume with a different worker count can strand worker stores
        # of the old partition: nobody reopens them, but their committed
        # zones are in every new worker's skip-set.  Complete them (orphan
        # sweep included) so the merge can reference their segments.
        owned = {Path(spec.store_dir) for spec in specs}
        for wroot in _existing_worker_roots(root):
            if wroot not in owned and not load_manifest(wroot).complete:
                CampaignStore.open(wroot).complete()
        processes = _spawn_workers(specs)

    # Overlap: the parent builds (and, for epochs, replays) its world
    # while the workers scan.  Its fault stream is its own — a chaotic
    # campaign re-checks under chaos too.
    parent = replace(config, chaos=config.chaos and config.chaos.derive("recheck"))
    world, scanner, zones, events = prepare(parent, telemetry=telemetry)
    if specs:
        record_total(store, zones)
        _join_workers(root, specs, processes, telemetry=telemetry)
        manifest.config["workers"] = config.workers
        # Merge every worker store on disk — including leftovers from an
        # earlier run with a different worker count.
        merge_worker_manifests(store, _existing_worker_roots(root), telemetry=telemetry)
    # Every stored observation came from a *worker's* world, so every
    # suspicious zone gets the resumed-campaign double-check budget: the
    # parent's fresh world replays the transient failure once first.
    machines = [
        MachineReport(stats["index"], stats["zones"], stats["queries"], stats["duration"])
        for stats in machine_stats(root)
    ]
    return world, scanner, events, machines, frozenset(store.completed_zones())
