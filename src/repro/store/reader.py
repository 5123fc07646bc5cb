"""Streaming access to a stored campaign.

A :class:`StoreReader` feeds :meth:`AnalysisPipeline.analyze` straight
from shard segments — one record decoded at a time, none retained — so
re-analysing a campaign far larger than memory costs only the report's
own aggregates.  This is the offline half of the paper's methodology:
the 6.5 TiB archive was analysed without ever re-scanning.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.pipeline import AnalysisPipeline, AnalysisReport
from repro.scanner.results import ZoneScanResult
from repro.store.manifest import CampaignManifest, load_manifest
from repro.store.shards import (
    ShardInfo,
    StoreError,
    iter_shard_objects,
    rebuild_record,
    stored_zones,
)


@dataclass
class StoreSummary:
    """What ``repro-dnssec store status`` prints."""

    root: str
    status: str
    seed: int
    scale: float
    records: int
    zones_total: Optional[int]
    segments: int
    buckets_used: int
    num_shards: int
    compressed: bool
    bytes_on_disk: int

    def render(self) -> str:
        planned = "?" if self.zones_total is None else str(self.zones_total)
        lines = [
            f"store:     {self.root}",
            f"status:    {self.status}",
            f"campaign:  seed={self.seed} scale={self.scale:g}",
            f"progress:  {self.records}/{planned} zones persisted",
            f"layout:    {self.segments} segments across "
            f"{self.buckets_used}/{self.num_shards} buckets"
            f" ({'gzip' if self.compressed else 'plain'} JSONL)",
            f"disk:      {self.bytes_on_disk} bytes",
        ]
        return "\n".join(lines)


class StoreReader:
    """Read-only handle on a campaign store."""

    def __init__(self, root: Path, verify_digests: bool = False):
        self.root = Path(root)
        self.manifest: CampaignManifest = load_manifest(
            self.root, verify_digests=verify_digests
        )

    # -- streaming ---------------------------------------------------------

    def _ordered_shards(self) -> List[ShardInfo]:
        # Commit order; deterministic for a given store regardless of
        # the manifest's list order.
        return sorted(self.manifest.shards, key=lambda info: (info.sequence, info.bucket))

    def iter_results(self) -> Iterator[ZoneScanResult]:
        """Stream every stored result in commit order, O(1) memory: each
        stored object rebuilt by :func:`~repro.store.shards.rebuild_record`,
        so a record that does not rebuild raises
        :class:`~repro.store.shards.ShardCorruption` naming its segment."""
        for info, obj in self.iter_located():
            yield rebuild_record(info, obj)

    def iter_located(self) -> Iterator[Tuple[ShardInfo, Dict[str, Any]]]:
        """:meth:`iter_results`' stream before reconstruction: each stored
        JSON object with the segment it was read from, for a consumer
        that rebuilds (:func:`~repro.store.shards.rebuild_record`) only
        the records it keeps."""
        for info in self._ordered_shards():
            for obj in iter_shard_objects(self.root, info):
                yield info, obj

    def iter_objects(self) -> Iterator[Dict[str, Any]]:
        """Each stored JSON object of :meth:`iter_located`, alone."""
        for _, obj in self.iter_located():
            yield obj

    def zones(self) -> Set[str]:
        """Dotted names of every stored zone, streamed from the segments
        without RRset reconstruction (:func:`repro.store.shards.stored_zones`)."""
        return stored_zones(self.root, self.manifest)

    # -- analysis ----------------------------------------------------------

    def reanalyze(self, operator_db=None) -> AnalysisReport:
        """Re-run the full analysis pipeline over the stored campaign
        without loading it into memory."""
        return AnalysisPipeline(operator_db).analyze(self.iter_results())

    # -- inspection --------------------------------------------------------

    def summary(self) -> StoreSummary:
        size = 0
        for info in self.manifest.shards:
            path = self.root / info.path
            try:
                size += path.stat().st_size
            except FileNotFoundError:
                # A manifest naming a segment that is gone is on-disk
                # damage (committed segments are immutable) — report the
                # store as damaged with the offending path rather than
                # leaking a bare FileNotFoundError.
                raise StoreError(
                    f"store is damaged: manifest references missing shard {info.path}"
                ) from None
        return StoreSummary(
            root=str(self.root),
            status=self.manifest.status,
            seed=self.manifest.seed,
            scale=self.manifest.scale,
            records=self.manifest.records,
            zones_total=self.manifest.zones_total,
            segments=len(self.manifest.shards),
            buckets_used=len({info.bucket for info in self.manifest.shards}),
            num_shards=self.manifest.num_shards,
            compressed=self.manifest.compress,
            bytes_on_disk=size,
        )
