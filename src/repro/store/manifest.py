"""The campaign manifest: one JSON document that *is* the store's truth.

Only records reachable from the manifest exist.  Shard segments are
committed first, then the manifest is rewritten (atomically, same
temp + fsync + rename discipline) to reference them — so a crash
between the two steps leaves orphan segment files that are simply
ignored (and swept on the next open), and the manifest can never name
a partial shard.

The manifest also pins the campaign's identity — seed, scale, and the
scan configuration — so a resume cannot silently mix results from two
different worlds, and a diff can refuse to compare apples to oranges.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.store.shards import ShardInfo, StoreError, verify_shard, write_atomic

MANIFEST_FILENAME = "manifest.json"
FORMAT_VERSION = 1

STATUS_IN_PROGRESS = "in-progress"
STATUS_COMPLETE = "complete"


@dataclass
class CampaignManifest:
    """Everything needed to validate, resume, and re-analyse a campaign."""

    seed: int
    scale: float
    num_shards: int
    compress: bool
    config: Dict[str, Any] = field(default_factory=dict)
    status: str = STATUS_IN_PROGRESS
    zones_total: Optional[int] = None  # planned scan-list size, if known
    shards: List[ShardInfo] = field(default_factory=list)
    created: float = field(default_factory=time.time)
    updated: float = field(default_factory=time.time)
    version: int = FORMAT_VERSION
    # Monitoring-plane identity: which simulated week this campaign
    # observed (None on plain, non-monitored campaigns — such manifests
    # serialise byte-identically to the pre-epoch format).
    epoch: Optional[int] = None

    @property
    def records(self) -> int:
        """Zones durably persisted (committed segments only)."""
        return sum(info.records for info in self.shards)

    @property
    def complete(self) -> bool:
        return self.status == STATUS_COMPLETE

    @property
    def parent_epoch(self) -> Optional[int]:
        """The epoch this one is a delta against: the previous week (None
        on the baseline epoch 0 and on plain campaigns)."""
        return self.epoch - 1 if self.epoch else None

    @property
    def next_sequence(self) -> int:
        return max((info.sequence for info in self.shards), default=-1) + 1

    def to_obj(self) -> Dict[str, Any]:
        obj = {
            "version": self.version,
            "seed": self.seed,
            "scale": self.scale,
            "num_shards": self.num_shards,
            "compress": self.compress,
            "config": self.config,
            "status": self.status,
            "zones_total": self.zones_total,
            "created": self.created,
            "updated": self.updated,
            "shards": [info.to_obj() for info in self.shards],
        }
        if self.epoch is not None:
            obj["epoch"] = self.epoch
            obj["parent_epoch"] = self.parent_epoch
        return obj

    @classmethod
    def from_obj(cls, obj: Dict[str, Any]) -> "CampaignManifest":
        version = obj.get("version")
        if version != FORMAT_VERSION:
            raise StoreError(f"unsupported manifest version {version!r}")
        return cls(
            seed=obj["seed"],
            scale=obj["scale"],
            num_shards=obj["num_shards"],
            compress=obj["compress"],
            config=dict(obj.get("config", {})),
            status=obj["status"],
            zones_total=obj.get("zones_total"),
            shards=[ShardInfo.from_obj(item) for item in obj["shards"]],
            created=obj.get("created", 0.0),
            updated=obj.get("updated", 0.0),
            version=version,
            epoch=obj.get("epoch"),
        )


def manifest_path(root: Path) -> Path:
    return Path(root) / MANIFEST_FILENAME


def save_manifest(root: Path, manifest: CampaignManifest) -> None:
    """Atomically rewrite the manifest (temp + fsync + rename)."""
    Path(root).mkdir(parents=True, exist_ok=True)
    manifest.updated = time.time()
    write_atomic(manifest_path(root), json.dumps(manifest.to_obj(), indent=2, sort_keys=True) + "\n")


def load_manifest(root: Path, verify_digests: bool = False) -> CampaignManifest:
    """Open and validate a manifest.

    Always checks that every referenced shard file exists and that
    sequence numbers are unique; with *verify_digests* each shard's
    bytes are re-hashed against the recorded digest (reads everything —
    the paranoid open used before trusting a store for analysis).
    """
    root = Path(root)
    path = manifest_path(root)
    if not path.exists():
        raise StoreError(f"no campaign store at {root} (missing {MANIFEST_FILENAME})")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise StoreError(f"manifest at {root} is not valid JSON: {exc}") from exc
    manifest = CampaignManifest.from_obj(obj)

    sequences = [info.sequence for info in manifest.shards]
    if len(set(sequences)) != len(sequences):
        raise StoreError(f"manifest at {root} has duplicate shard sequence numbers")
    for info in manifest.shards:
        if info.bucket >= manifest.num_shards:
            raise StoreError(
                f"shard {info.path} claims bucket {info.bucket} "
                f"but the store has {manifest.num_shards} buckets"
            )
        target = root / info.path
        if not target.exists():
            raise StoreError(f"manifest references missing shard {info.path}")
        if verify_digests:
            verify_shard(root, info)
    return manifest


def is_adversarial(root: Path) -> bool:
    """Whether the campaign stored at *root* planted the adversarial
    scenario operators — recorded under ``scenarios`` for a plain
    campaign, inside the monitor spec for an epoch.  False for anything
    that is not a readable store (a monitor root, a missing directory)."""
    try:
        config = load_manifest(root).config
    except StoreError:
        return False
    monitor = config.get("monitor") or {}
    return config.get("scenarios") is not None or monitor.get("scenarios") is not None
