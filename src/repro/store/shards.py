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
give identical digests.  They are read one way, by
:func:`iter_shard_objects`: the stored JSON objects, strictly — a line
that does not decode to a record object raises :class:`ShardCorruption`
naming the segment and the line, because no committed segment holds a
torn line.  A consumer rebuilds the records it keeps through
:func:`rebuild_record`, the one rebuild step, which names the segment
and the zone of a record that does not rebuild (record lines are parsed
in :mod:`repro.scanner.serialize` only).
"""

from __future__ import annotations

import gzip
import hashlib
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set

from repro.scanner.results import ZoneScanResult
from repro.scanner.serialize import (
    dump_results,
    load_objects,
    open_results_read,
    open_results_write,
    result_from_obj,
)

SHARD_DIR = "shards"


class StoreError(Exception):
    """A campaign store is missing, malformed, or inconsistent."""


class ShardCorruption(StoreError):
    """A committed shard is damaged: its bytes no longer match its
    manifest digest, or a line of it is not a record that rebuilds."""


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


def iter_shard_objects(root: Path, info: ShardInfo) -> Iterator[Dict[str, Any]]:
    """One committed shard's records as stored JSON objects, in line
    order (:func:`repro.scanner.serialize.load_objects`) — the one way a
    segment is read.  A line that is not a record object, or bytes that
    do not decode, raise :class:`ShardCorruption` naming the segment."""
    path = Path(root) / info.path
    if not path.exists():
        raise StoreError(f"manifest references missing shard {info.path}")
    with open_results_read(str(path)) as fp:
        try:
            yield from load_objects(fp)
        except (ValueError, EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise ShardCorruption(
                f"corrupt record inside committed shard {info.path}: {exc}"
            ) from exc


def rebuild_record(info: ShardInfo, obj: Dict[str, Any]) -> ZoneScanResult:
    """A stored object of segment *info* rebuilt into its result.
    Committed shards are atomic, so a record that does not rebuild is
    disk damage — :class:`ShardCorruption` naming the segment and the
    zone, as for a line that does not decode."""
    try:
        return result_from_obj(obj)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ShardCorruption(
            f"corrupt record inside committed shard {info.path}: "
            f"zone {obj['zone']} does not rebuild: {exc!r}"
        ) from exc


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
        zones.update(obj["zone"] for obj in iter_shard_objects(root, info))
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
