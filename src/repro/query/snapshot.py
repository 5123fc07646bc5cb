"""The indexed snapshot: a compacted, versioned read twin of a store.

``build_index`` walks a campaign store's manifest in commit order and
emits, under ``<store>/index/``, everything the serving layer
(:mod:`repro.query.service`) needs to answer per-zone questions without
streaming the campaign:

* **re-packed bucket data** — ``buckets/qNNN.jsonl``: every record of
  zone-hash bucket N as canonical JSON lines (uncompressed, so a record
  is one seek + one read), sorted by ``(key64, zone)`` where ``key64``
  is the first 8 bytes of the zone-name SHA-256 — the same hash family
  that routes records to buckets;
* **per-bucket meta rows** — ``buckets/qNNN.meta.jsonl``: one small
  JSON line per zone carrying the hot verdict fields (status,
  eligibility, signal outcome, operator, signal operator, flags) plus
  the record's ``(offset, length)`` in the data file — the one copy a
  point lookup and an enumeration both read;
* **sorted offset indexes** — ``buckets/qNNN.idx``: fixed-width binary
  rows ``(key64, meta_offset, meta_length)`` (20 bytes, big-endian),
  sorted by key — a point lookup is a binary search of ~20-byte probes.

Determinism invariant: every file above is a pure function of the
*record set* (plus the operator DB and validation time), never of the
segment layout — a store written serially, by N workers, or through a
kill/resume produces a byte-identical index.  The one exception is
``pin.json``, which records the manifest generation the snapshot was
built from (segment paths and digests are layout-specific by nature)
and is therefore excluded from the byte-identity contract.  The pin is
what lets a :class:`~repro.query.service.QueryService` keep serving a
*stale-but-consistent* snapshot while a campaign appends new segments:
appends change the manifest, not ``index/``, and the service reports
staleness by comparing the live manifest digest against the pin.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.bootstrap import SignalOutcome
from repro.core.operators import OperatorDB
from repro.core.pipeline import ZoneVerdict, zone_verdict
from repro.dnssec.validator import DEFAULT_VALIDATION_TIME
from repro.monitor.layout import completed_epochs, epoch_dir, is_monitor_root
from repro.obs.telemetry import as_telemetry
from repro.scanner.serialize import result_from_obj, result_to_obj
from repro.store.manifest import CampaignManifest, load_manifest
from repro.store.shards import ShardInfo, StoreError, iter_shard_objects

INDEX_DIR = "index"
BUCKETS_DIR = "buckets"
SNAPSHOT_FILENAME = "snapshot.json"
PIN_FILENAME = "pin.json"
SNAPSHOT_VERSION = 1

# One binary index row: key64, meta offset, meta length (big-endian).
IDX_ROW = struct.Struct(">QQI")
IDX_ROW_SIZE = IDX_ROW.size

# Meta-row flag bits (kept additive; never reassign existing bits).
FLAG_RESOLVED = 1
FLAG_HAS_CDS = 2
FLAG_CDS_DELETE = 4
FLAG_HAS_SIGNAL = 8
FLAG_MULTI_OPERATOR = 16
FLAG_SAMPLED = 32


class QueryError(StoreError):
    """The query index is missing, stale where freshness was required,
    or inconsistent with its own metadata."""


def index_dir(store_root: Path) -> Path:
    return Path(store_root) / INDEX_DIR


def snapshot_path(store_root: Path) -> Path:
    return index_dir(store_root) / SNAPSHOT_FILENAME


def pin_path(store_root: Path) -> Path:
    return index_dir(store_root) / PIN_FILENAME


def zone_key64(zone: str) -> int:
    """Sort/lookup key: first 8 bytes of the zone-name SHA-256 (the
    same digest whose first 4 bytes route the zone to its bucket)."""
    digest = hashlib.sha256(zone.lower().encode("ascii", "backslashreplace")).digest()
    return int.from_bytes(digest[:8], "big")


def manifest_generation(manifest: CampaignManifest) -> str:
    """Digest identifying one manifest generation (segment set).

    Layout-specific on purpose: two stores holding the same records via
    different segment layouts pin different generations — the pin
    answers "has *this* store moved since the snapshot was built",
    nothing more.
    """
    hasher = hashlib.sha256()
    for entry in sorted(f"{i.sequence}:{i.path}:{i.sha256}" for i in manifest.shards):
        hasher.update(entry.encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()


@dataclass(frozen=True)
class BucketFiles:
    """Index-relative paths of one bucket's three files."""

    bucket: int

    @property
    def data(self) -> str:
        return f"{BUCKETS_DIR}/q{self.bucket:03d}.jsonl"

    @property
    def meta(self) -> str:
        return f"{BUCKETS_DIR}/q{self.bucket:03d}.meta.jsonl"

    @property
    def idx(self) -> str:
        return f"{BUCKETS_DIR}/q{self.bucket:03d}.idx"


@dataclass
class SnapshotInfo:
    """The parsed ``snapshot.json`` + ``pin.json`` pair."""

    root: Path  # the *store* root (index lives under root/index)
    version: int
    seed: int
    scale: float
    num_buckets: int
    records: int
    zones_digest: str
    operators_attributed: bool
    validation_now: int
    # Monitoring plane: the epoch of the indexed campaign store (None
    # for plain campaigns — such snapshots serialise unchanged).
    epoch: Optional[int] = None
    buckets: List[Dict[str, Any]] = field(default_factory=list)
    pin: Dict[str, Any] = field(default_factory=dict)

    @property
    def pinned_generation(self) -> Optional[str]:
        return self.pin.get("manifest_generation")

    @property
    def pinned_records(self) -> Optional[int]:
        return self.pin.get("manifest_records")

    def is_fresh(self, manifest: CampaignManifest) -> bool:
        """True when the live manifest is exactly the pinned generation."""
        return self.pinned_generation == manifest_generation(manifest)

    def bucket_files(self, bucket: int) -> BucketFiles:
        if not 0 <= bucket < self.num_buckets:
            raise QueryError(f"bucket {bucket} out of range (0..{self.num_buckets - 1})")
        return BucketFiles(bucket)


def _meta_row(zone: str, result, verdict: ZoneVerdict, offset: int, length: int) -> Dict[str, Any]:
    assessment = verdict.assessment
    return {
        "zone": zone,
        "status": assessment.status.value,
        "eligibility": assessment.eligibility.value,
        "outcome": assessment.signal_outcome.value,
        "operator": verdict.operator,
        "signal_operator": verdict.signal_operator,
        "flags": _record_flags(result, assessment, verdict.attribution.multi),
        "offset": offset,
        "length": length,
    }


def canonical_record_line(result) -> str:
    """One record as canonical snapshot JSON (no newline).

    ``queries_used`` is zeroed: it counts the DNS queries *this
    execution* spent on the zone, which depends on cache warmth and
    therefore on how the campaign was partitioned (serial, workers,
    kill/resume).  Everything measured *about the zone* is identical
    across layouts; the execution accounting is not, so the snapshot —
    a pure function of the record set — cannot carry it.  The store
    segments remain the source of truth for scan-cost accounting.
    """
    obj = result_to_obj(result)
    obj["queries_used"] = 0
    return json.dumps(obj, separators=(",", ":"))


def _record_flags(result, assessment, multi: bool) -> int:
    flags = 0
    if result.resolved:
        flags |= FLAG_RESOLVED
    if assessment.cds.present:
        flags |= FLAG_HAS_CDS
    if assessment.cds.present and assessment.cds.is_delete:
        flags |= FLAG_CDS_DELETE
    if assessment.signal_outcome != SignalOutcome.NO_SIGNAL:
        flags |= FLAG_HAS_SIGNAL
    if multi:
        flags |= FLAG_MULTI_OPERATOR
    if result.sampled:
        flags |= FLAG_SAMPLED
    return flags


def indexed_stores(store_root: Path) -> List[Path]:
    """The campaign stores an index build of *store_root* covers: the
    store itself, or every complete epoch store of a monitor root,
    oldest first."""
    root = Path(store_root)
    if not is_monitor_root(root):
        return [root]
    stores = [epoch_dir(root, epoch) for epoch in completed_epochs(root)]
    if not stores:
        raise StoreError(f"monitor at {root} has no completed epochs to index")
    return stores


def build_index(
    store_root: Path,
    operator_db: Optional[OperatorDB] = None,
    telemetry=None,
) -> SnapshotInfo:
    """Compact a campaign store into its query snapshot.

    Walks the manifest in commit order (later commits win on duplicate
    zones, matching the reader's stream order), re-packs each zone-hash
    bucket sorted by ``(key64, zone)``, takes each zone's meta row from
    the analysis pipeline's own :func:`~repro.core.pipeline.zone_verdict`,
    and writes the whole snapshot into a temp directory swapped in at
    the end — an interrupted build never leaves a half snapshot under
    ``index/``.

    Without *operator_db* every zone attributes to ``unknown`` —
    exactly what :meth:`StoreReader.reanalyze`'s default does — so the
    differential invariant (index answers == full-scan ground truth)
    holds whichever way both sides are called.

    Monitoring plane: pointed at a monitor root instead of a single
    campaign store, the build recurses — one snapshot per complete
    epoch store (:func:`indexed_stores`) — and returns the newest
    epoch's :class:`SnapshotInfo`, so the epoch-aware
    :class:`~repro.query.service.QueryService` finds every per-epoch
    index already in place.
    """
    root = Path(store_root)
    if is_monitor_root(root):
        for store in indexed_stores(root):
            newest = build_index(store, operator_db=operator_db, telemetry=telemetry)
        return newest
    manifest = load_manifest(root)
    telemetry = as_telemetry(telemetry)
    db = operator_db or OperatorDB()

    final_dir = index_dir(root)
    tmp_dir = root / (INDEX_DIR + ".tmp")
    if tmp_dir.exists():
        shutil.rmtree(tmp_dir)
    (tmp_dir / BUCKETS_DIR).mkdir(parents=True)

    by_bucket: Dict[int, List[ShardInfo]] = {}
    for info in sorted(manifest.shards, key=lambda info: (info.sequence, info.bucket)):
        by_bucket.setdefault(info.bucket, []).append(info)
    bucket_entries: List[Dict[str, Any]] = []
    total_records = 0
    zones_hasher = hashlib.sha256()

    with telemetry.span("index_build") as span:
        for bucket in range(manifest.num_shards):
            # Commit order within the bucket; a dict keyed by zone makes
            # later commits win should a store ever hold a duplicate.
            latest: Dict[str, Any] = {}
            for info in by_bucket.get(bucket, ()):
                for obj in iter_shard_objects(root, info):
                    latest[obj["zone"]] = obj

            rows = sorted(
                ((zone_key64(zone), zone, obj) for zone, obj in latest.items()),
                key=lambda item: (item[0], item[1]),
            )
            files = BucketFiles(bucket)
            data_path = tmp_dir / files.data
            meta_path = tmp_dir / files.meta
            idx_path = tmp_dir / files.idx

            data_offset = 0
            meta_offset = 0
            idx_rows = []
            with open(data_path, "w", encoding="utf-8", newline="\n") as data_fp, open(
                meta_path, "w", encoding="utf-8", newline="\n"
            ) as meta_fp:
                for key64, zone, obj in rows:
                    # The stored object is canonical_record_line's input
                    # (identity pinned by tests/test_text_memo.py).
                    result = result_from_obj(obj)
                    obj["queries_used"] = 0
                    line = json.dumps(obj, separators=(",", ":"))
                    data_fp.write(line)
                    data_fp.write("\n")

                    verdict = zone_verdict(result, db)
                    meta = _meta_row(zone, result, verdict, data_offset, len(line) + 1)
                    meta_line = json.dumps(meta, separators=(",", ":"), sort_keys=True)
                    meta_fp.write(meta_line)
                    meta_fp.write("\n")
                    idx_rows.append((key64, meta_offset, len(meta_line) + 1))

                    zones_hasher.update(zone.encode("ascii", "backslashreplace"))
                    zones_hasher.update(b"\n")

                    data_offset += len(line) + 1
                    meta_offset += len(meta_line) + 1
                    total_records += 1

            with open(idx_path, "wb") as idx_fp:
                for key64, offset, length in idx_rows:
                    idx_fp.write(IDX_ROW.pack(key64, offset, length))

            bucket_entries.append(
                {
                    "bucket": bucket,
                    "records": len(rows),
                    "data": files.data,
                    "data_sha256": _sha256_file(data_path),
                    "meta": files.meta,
                    "meta_sha256": _sha256_file(meta_path),
                    "idx": files.idx,
                    "idx_sha256": _sha256_file(idx_path),
                }
            )
        span["records"] = total_records

    snapshot_obj = {
        "version": SNAPSHOT_VERSION,
        "seed": manifest.seed,
        "scale": manifest.scale,
        "num_buckets": manifest.num_shards,
        "records": total_records,
        "zones_digest": zones_hasher.hexdigest(),
        "operators_attributed": operator_db is not None,
        "validation_now": DEFAULT_VALIDATION_TIME,
        "buckets": bucket_entries,
    }
    if manifest.epoch is not None:
        snapshot_obj["epoch"] = manifest.epoch
    (tmp_dir / SNAPSHOT_FILENAME).write_text(
        json.dumps(snapshot_obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    # The pin is the one layout-specific file: which manifest generation
    # this snapshot reflects (see the module docstring).
    pin_obj = {
        "manifest_generation": manifest_generation(manifest),
        "manifest_records": manifest.records,
        "manifest_status": manifest.status,
        "built_unix": time.time(),
    }
    (tmp_dir / PIN_FILENAME).write_text(
        json.dumps(pin_obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    if final_dir.exists():
        shutil.rmtree(final_dir)
    tmp_dir.replace(final_dir)

    if telemetry.enabled:
        telemetry.count("query.index_builds")
        telemetry.count("query.index_records", total_records)
    return load_snapshot(root)


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_snapshot(store_root: Path) -> SnapshotInfo:
    """Open a store's snapshot metadata (raises :class:`QueryError`
    when no index has been built)."""
    root = Path(store_root)
    path = snapshot_path(root)
    if not path.exists():
        raise QueryError(
            f"no query index at {root} — build one with: repro-dnssec query index --store {root}"
        )
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise QueryError(f"snapshot metadata at {root} is not valid JSON: {exc}") from exc
    if obj.get("version") != SNAPSHOT_VERSION:
        raise QueryError(f"unsupported snapshot version {obj.get('version')!r}")
    pin: Dict[str, Any] = {}
    if pin_path(root).exists():
        try:
            pin = json.loads(pin_path(root).read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            pin = {}
    return SnapshotInfo(
        root=root,
        version=obj["version"],
        seed=obj["seed"],
        scale=obj["scale"],
        num_buckets=obj["num_buckets"],
        records=obj["records"],
        zones_digest=obj["zones_digest"],
        operators_attributed=obj["operators_attributed"],
        validation_now=obj["validation_now"],
        epoch=obj.get("epoch"),
        buckets=obj["buckets"],
        pin=pin,
    )


def verify_snapshot(store_root: Path) -> SnapshotInfo:
    """Re-hash every snapshot file against its recorded digest."""
    snapshot = load_snapshot(store_root)
    base = index_dir(snapshot.root)
    for entry in snapshot.buckets:
        for path_key, digest_key in (
            ("data", "data_sha256"),
            ("meta", "meta_sha256"),
            ("idx", "idx_sha256"),
        ):
            target = base / entry[path_key]
            if not target.exists():
                raise QueryError(f"snapshot references missing file {entry[path_key]}")
            if _sha256_file(target) != entry[digest_key]:
                raise QueryError(f"snapshot file {entry[path_key]} does not match its digest")
    return snapshot
