"""Append-only, sharded scan-result storage.

The paper archived every DNS message of a month-long scan (6.5 TiB,
App. D) and analysed offline.  A flat file does not survive that shape
of campaign: a crash loses everything since the last full dump, and a
re-analysis must read one giant stream.  This module stores results as
immutable *shard segments* instead:

* records are routed to one of ``num_shards`` buckets by a stable hash
  of the zone name, so any later parallel consumer (a re-analysis
  fleet, a per-bucket merge) can partition work without coordination;
* each checkpoint seals the buffered records of a bucket into one new
  segment file, written crash-safely — temp file in the same directory,
  flush + fsync, atomic rename, directory fsync;
* segments are never modified after commit; the campaign manifest
  (:mod:`repro.store.manifest`) lists the committed segments with
  record counts and SHA-256 content digests, which is what makes a
  half-written file detectable and ignorable.

Segments are JSON-lines (:mod:`repro.scanner.serialize`), optionally
gzip-compressed with deterministic framing so identical record streams
give identical digests.  They are read two ways: :func:`iter_shard`
rebuilds every record, :func:`iter_shard_objects` stops at the stored
JSON object for consumers that need one field or keep only some records
(record lines are parsed in :mod:`repro.scanner.serialize` only).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set

from repro.scanner.results import ZoneScanResult
from repro.scanner.serialize import (
    LoadStats,
    dump_results,
    load_objects,
    load_results,
    open_results_read,
    open_results_write,
)

SHARD_DIR = "shards"


class StoreError(Exception):
    """A campaign store is missing, malformed, or inconsistent."""


class ShardCorruption(StoreError):
    """A committed shard's bytes no longer match its manifest digest."""


def shard_for_zone(zone: str, num_shards: int) -> int:
    """Stable bucket index for a zone name.

    SHA-256 over the lowercased dotted name — stable across processes,
    platforms, and Python versions (unlike ``hash()``), so a resumed or
    re-opened campaign routes every zone to the same bucket.
    """
    digest = hashlib.sha256(zone.lower().encode("ascii", "backslashreplace")).digest()
    return int.from_bytes(digest[:4], "big") % num_shards


@dataclass(frozen=True)
class ShardInfo:
    """Manifest entry for one committed, immutable shard segment."""

    path: str  # POSIX path relative to the store root
    bucket: int  # zone-hash bucket the records belong to
    sequence: int  # global commit order (checkpoint counter)
    records: int
    sha256: str  # digest of the file bytes as committed
    compressed: bool

    def to_obj(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "bucket": self.bucket,
            "sequence": self.sequence,
            "records": self.records,
            "sha256": self.sha256,
            "compressed": self.compressed,
        }

    @classmethod
    def from_obj(cls, obj: Dict[str, Any]) -> "ShardInfo":
        return cls(
            path=obj["path"],
            bucket=obj["bucket"],
            sequence=obj["sequence"],
            records=obj["records"],
            sha256=obj["sha256"],
            compressed=obj["compressed"],
        )


def shard_filename(bucket: int, sequence: int, compressed: bool) -> str:
    suffix = ".jsonl.gz" if compressed else ".jsonl"
    return f"b{bucket:03d}-{sequence:06d}{suffix}"


def fsync_dir(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_atomic(path: Path, text: str) -> None:
    """Replace *path* with *text* crash-safely: a temp file beside it,
    flush + fsync, atomic rename, directory fsync.  A reader — or a
    process killed at any point — sees the old bytes or the new ones,
    never a torn file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fp:
        fp.write(text)
        fp.flush()
        os.fsync(fp.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def write_shard(
    root: Path,
    bucket: int,
    sequence: int,
    results: Iterable[ZoneScanResult],
    compress: bool = True,
) -> ShardInfo:
    """Commit *results* as one immutable shard segment.

    The bytes land in a temp file first; only after flush + fsync is it
    renamed into place (atomic on POSIX), then the directory entry is
    fsynced.  A crash at any point leaves either no file or a stray
    ``*.tmp`` — never a half-written segment under the final name.
    """
    shard_dir = root / SHARD_DIR
    shard_dir.mkdir(parents=True, exist_ok=True)
    name = shard_filename(bucket, sequence, compress)
    final = shard_dir / name
    tmp = shard_dir / (name + ".tmp")
    fp = open_results_write(str(tmp), compress=compress)
    try:
        count = dump_results(results, fp)
        fp.flush()
    finally:
        fp.close()
    # fsync the committed bytes before the rename makes them visible.
    with open(tmp, "rb") as raw:
        os.fsync(raw.fileno())
        digest = hashlib.sha256(raw.read()).hexdigest()
    os.replace(tmp, final)
    fsync_dir(shard_dir)
    return ShardInfo(
        path=f"{SHARD_DIR}/{name}",
        bucket=bucket,
        sequence=sequence,
        records=count,
        sha256=digest,
        compressed=compress,
    )


def _read_shard(root: Path, info: ShardInfo, load, strict: bool, stats: Optional[LoadStats]):
    path = Path(root) / info.path
    if not path.exists():
        raise StoreError(f"manifest references missing shard {info.path}")
    with open_results_read(str(path)) as fp:
        yield from load(fp, strict=strict, stats=stats)


def iter_shard(
    root: Path,
    info: ShardInfo,
    strict: bool = False,
    stats: Optional[LoadStats] = None,
) -> Iterator[ZoneScanResult]:
    """Stream one shard's records (gzip auto-detected by magic bytes)."""
    return _read_shard(root, info, load_results, strict, stats)


def iter_shard_objects(root: Path, info: ShardInfo) -> Iterator[Dict[str, Any]]:
    """One committed shard's records as stored JSON objects, strictly
    (:func:`repro.scanner.serialize.load_objects`) — the reader for
    consumers that do not rebuild every record."""
    return _read_shard(root, info, load_objects, True, None)


def stored_zones(root: Path, manifest, buckets: Optional[Iterable[int]] = None) -> Set[str]:
    """Dotted names of every zone *manifest* holds at *root* — of the
    zone-hash *buckets* only, when given.

    The one stored-zone lister: a resume's skip-set, a worker's (which
    reads only its own buckets' segments, so it costs I/O proportional
    to its share of the store) and a reader's name listing.  Reads only
    each object's ``zone`` field — no RRset reconstruction.
    """
    wanted = None if buckets is None else set(buckets)
    zones: Set[str] = set()
    for info in manifest.shards:
        if wanted is not None and info.bucket not in wanted:
            continue
        try:
            zones.update(obj["zone"] for obj in iter_shard_objects(root, info))
        except (ValueError, KeyError, TypeError) as exc:
            # Committed segments are atomic; a corrupt line here
            # means on-disk damage, not a crash artefact.
            raise ShardCorruption(f"corrupt record inside committed shard {info.path}") from exc
    return zones


def verify_shard(root: Path, info: ShardInfo) -> None:
    """Raise :class:`ShardCorruption` unless the shard's bytes match the
    digest recorded at commit time."""
    path = root / info.path
    if not path.exists():
        raise StoreError(f"manifest references missing shard {info.path}")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != info.sha256:
        raise ShardCorruption(
            f"shard {info.path}: digest {digest[:12]}… != manifest {info.sha256[:12]}…"
        )


def orphan_files(root: Path, known: Iterable[ShardInfo]) -> List[Path]:
    """Files in the shard directory the manifest does not reference —
    debris from a crash between segment commit and manifest update."""
    shard_dir = root / SHARD_DIR
    if not shard_dir.exists():
        return []
    referenced = {root / info.path for info in known}
    return sorted(p for p in shard_dir.iterdir() if p.is_file() and p not in referenced)
