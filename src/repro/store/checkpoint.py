"""Checkpointed campaign writing: persist-as-you-scan, resume after a crash.

A :class:`CampaignStore` is the progress sink a scanning campaign
writes into.  Results are buffered per zone-hash bucket and, every
``checkpoint_every`` records, sealed into immutable shard segments with
the manifest updated afterwards — so at any kill point the store holds
exactly the records of the last completed checkpoint, each one a fully
valid JSON line in a digest-verified segment.

Resume is a set difference: open the manifest, stream the stored zone
names into a skip-set, and scan only the remainder (the scanner's
``scan_iter(..., skip=...)`` path).  The deSEC dsbootstrap agent works
the same way against its table of known delegations — incremental
passes over whatever is not yet done.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from repro.obs.telemetry import as_telemetry
from repro.scanner.results import ZoneScanResult
from repro.store.manifest import (
    STATUS_COMPLETE,
    STATUS_IN_PROGRESS,
    CampaignManifest,
    load_manifest,
    manifest_path,
    save_manifest,
)
from repro.store.shards import (
    StoreError,
    orphan_files,
    shard_for_zone,
    stored_zones,
    write_shard,
)

logger = logging.getLogger(__name__)

DEFAULT_NUM_SHARDS = 16
DEFAULT_CHECKPOINT_EVERY = 256


class CampaignStore:
    """Writable handle on a sharded campaign store."""

    def __init__(
        self,
        root: Path,
        manifest: CampaignManifest,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        telemetry=None,
    ):
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.root = Path(root)
        self.manifest = manifest
        self.checkpoint_every = checkpoint_every
        self.telemetry = as_telemetry(telemetry)
        self._buffers: Dict[int, List[ZoneScanResult]] = {}
        self._buffered = 0
        self.checkpoints = 0  # commits performed through this handle
        self.swept_orphans = 0  # crash debris removed on open()

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: Path,
        seed: int,
        scale: float,
        num_shards: int = DEFAULT_NUM_SHARDS,
        compress: bool = True,
        zones_total: Optional[int] = None,
        config: Optional[Dict[str, Any]] = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        telemetry=None,
        epoch: Optional[int] = None,
    ) -> "CampaignStore":
        """Initialise a fresh store directory (refuses to clobber one)."""
        root = Path(root)
        if manifest_path(root).exists():
            raise StoreError(f"{root} already holds a campaign store")
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        manifest = CampaignManifest(
            seed=seed,
            scale=scale,
            num_shards=num_shards,
            compress=compress,
            config=dict(config or {}),
            zones_total=zones_total,
            epoch=epoch,
        )
        save_manifest(root, manifest)
        return cls(root, manifest, checkpoint_every=checkpoint_every, telemetry=telemetry)

    @classmethod
    def open(
        cls,
        root: Path,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        telemetry=None,
    ) -> "CampaignStore":
        """Open an existing store for appending (the resume path).

        Unreferenced segment files — debris from a crash between a
        segment commit and the manifest rewrite — are swept here so they
        can never be confused with live data.
        """
        root = Path(root)
        manifest = load_manifest(root)
        store = cls(root, manifest, checkpoint_every=checkpoint_every, telemetry=telemetry)
        swept = orphan_files(root, manifest.shards)
        for path in swept:
            path.unlink()
            logger.warning("swept uncommitted shard debris %s", path.name)
        store.swept_orphans = len(swept)
        if swept:
            store.telemetry.count("store.orphans_swept", len(swept))
        return store

    # -- writing -----------------------------------------------------------

    def append(self, result: ZoneScanResult) -> None:
        """Buffer one result; checkpoints automatically every
        ``checkpoint_every`` records."""
        if self.manifest.complete:
            raise StoreError("campaign is already complete; refusing to append")
        bucket = shard_for_zone(result.zone.to_text(), self.manifest.num_shards)
        self._buffers.setdefault(bucket, []).append(result)
        self._buffered += 1
        if self._buffered >= self.checkpoint_every:
            self.checkpoint()

    def checkpoint(self) -> int:
        """Seal all buffered records into new shard segments, then
        atomically rewrite the manifest to reference them.

        Returns the number of records committed.  Crash ordering: the
        segments are durable before the manifest names them, so the
        manifest never references a partial shard; at worst a crash
        leaves orphan segments that the next :meth:`open` sweeps.
        """
        if not self._buffered:
            return 0
        with self.telemetry.span("segment_commit") as span:
            committed = 0
            sequence = self.manifest.next_sequence
            new_infos = []
            for bucket in sorted(self._buffers):
                batch = self._buffers[bucket]
                if not batch:
                    continue
                info = write_shard(
                    self.root, bucket, sequence, batch, compress=self.manifest.compress
                )
                sequence += 1
                committed += info.records
                new_infos.append(info)
            # Buffers drop and the in-memory manifest extends *before* the
            # durable manifest rewrite: if the rewrite fails transiently, a
            # later checkpoint re-saves the same (already durable) segments
            # with no duplicate records; if the process dies instead, the
            # unreferenced segments are swept as orphans on the next open.
            self._buffers.clear()
            self._buffered = 0
            self.manifest.shards.extend(new_infos)
            save_manifest(self.root, self.manifest)
            self.checkpoints += 1
            span["segments"] = len(new_infos)
            span["records"] = committed
        tel = self.telemetry
        if tel.enabled:
            tel.count("store.checkpoints")
            tel.count("store.segments", len(new_infos))
            tel.count("store.records", committed)
        return committed

    def complete(self) -> None:
        """Final checkpoint + mark the campaign complete."""
        self.checkpoint()
        self.manifest.status = STATUS_COMPLETE
        save_manifest(self.root, self.manifest)

    def reopen_in_progress(self) -> None:
        """Mark a complete campaign as in-progress again (used when a
        new scan pass extends an existing store)."""
        self.manifest.status = STATUS_IN_PROGRESS
        save_manifest(self.root, self.manifest)

    # -- resume support ----------------------------------------------------

    def completed_zones(self) -> Set[str]:
        """Dotted names of every durably persisted zone (the skip-set)."""
        return stored_zones(self.root, self.manifest)

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Preserve progress even on error; completion stays explicit.
        self.checkpoint()
