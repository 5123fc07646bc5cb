"""The read-serving plane: point lookups and scans over a snapshot.

A :class:`QueryService` answers per-zone questions — "what is this
zone's DNSSEC status, is it bootstrappable, who operates it" — against
the indexed snapshot built by :func:`repro.query.build_index`, at a
per-lookup cost that never depends on campaign size:

* a **point lookup** binary-searches the bucket's sorted ``.idx`` file
  with ~20-byte probes (≤ ``log2(bucket records) + 1`` seeks), then
  reads exactly one meta row — it never streams a segment;
* the hot-field answer is an LRU-cached :class:`ZoneStatusView`;
  *misses are cached too* (the negative cache), so hammering the
  service with absent names stays O(1) amortised;
* **enumerations** (the paper's counts, operator portfolios) stream
  the same meta rows bucket by bucket — counts and filters over
  :meth:`iter_status`, whose views equal the point lookups' — instead
  of decoding full records;
* the full archived record behind a view is one seek away
  (:meth:`zone_record`) because each meta row carries its record's
  ``(offset, length)`` in the re-packed bucket data file.

Consistency model: the service serves the *pinned* snapshot.  A
campaign appending to the same store changes segments and the manifest
but never ``index/``, so every answer stays internally consistent
(stale-but-consistent); :meth:`check_stale` reports whether the live
manifest has moved past the pin, and a rebuild + fresh service picks
up the new records.  A monitor root is served the same way: the
longest run of completed epochs from the baseline that all carry a
snapshot, later epochs invisible until they are indexed.

Everything the service does is accounted through ``query.*`` telemetry
counters (lookups, cache hits/misses, negative answers, index seeks,
bytes read, enumerations) — which is also how the tests pin the
"no full scan, bounded bytes per lookup" contract.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.bootstrap import BootstrapEligibility, SignalOutcome
from repro.core.pipeline import AnalysisReport, paper_contribution
from repro.core.status import DnssecStatus
from repro.dns.name import Name, NameError_
from repro.monitor.layout import completed_epochs, epoch_dir, is_monitor_root
from repro.obs.telemetry import as_telemetry
from repro.scanner.results import ZoneScanResult
from repro.scanner.serialize import result_from_obj
from repro.store.manifest import load_manifest
from repro.store.shards import shard_for_zone
from repro.query.snapshot import (
    FLAG_CDS_DELETE,
    FLAG_HAS_CDS,
    FLAG_HAS_SIGNAL,
    FLAG_MULTI_OPERATOR,
    FLAG_RESOLVED,
    FLAG_SAMPLED,
    IDX_ROW,
    IDX_ROW_SIZE,
    QueryError,
    SnapshotInfo,
    index_dir,
    load_snapshot,
    snapshot_path,
    zone_key64,
)

DEFAULT_CACHE_SIZE = 4096

# Sentinel cached for zones the snapshot does not hold.
_NEGATIVE = None


@dataclass(frozen=True)
class ZoneStatusView:
    """The hot per-zone answer: assessment fields without the record."""

    zone: str
    status: str
    eligibility: str
    outcome: str
    operator: str
    signal_operator: Optional[str]
    flags: int
    bucket: int
    offset: int  # record location in the bucket data file …
    length: int  # … for QueryService.zone_record

    @property
    def resolved(self) -> bool:
        return bool(self.flags & FLAG_RESOLVED)

    @property
    def has_cds(self) -> bool:
        return bool(self.flags & FLAG_HAS_CDS)

    @property
    def cds_delete(self) -> bool:
        return bool(self.flags & FLAG_CDS_DELETE)

    @property
    def has_signal(self) -> bool:
        return bool(self.flags & FLAG_HAS_SIGNAL)

    @property
    def multi_operator(self) -> bool:
        return bool(self.flags & FLAG_MULTI_OPERATOR)

    @property
    def sampled(self) -> bool:
        return bool(self.flags & FLAG_SAMPLED)

    def render(self) -> str:
        """What ``repro-dnssec query get`` prints."""
        lines = [
            f"zone:         {self.zone}",
            f"status:       {self.status}",
            f"eligibility:  {self.eligibility}",
            f"signal:       {self.outcome}",
            f"operator:     {self.operator}"
            + (" (multi-operator)" if self.multi_operator else ""),
        ]
        if self.signal_operator is not None:
            lines.append(f"signal via:   {self.signal_operator}")
        tags = [
            tag
            for tag, on in (
                ("resolved", self.resolved),
                ("cds", self.has_cds),
                ("cds-delete", self.cds_delete),
                ("sampled", self.sampled),
            )
            if on
        ]
        if tags:
            lines.append(f"tags:         {' '.join(tags)}")
        return "\n".join(lines)


def _view(row: Dict[str, Any], bucket: int) -> ZoneStatusView:
    """The view of one meta row (a lookup's and an enumeration's alike)."""
    return ZoneStatusView(bucket=bucket, **row)


def _normalize_zone(name: str) -> str:
    """Canonical dotted form matching stored ``zone.to_text()`` output."""
    try:
        return Name.from_text(name).to_text()
    except NameError_:
        # Absent from the snapshot by construction; still a valid query.
        return name if name.endswith(".") else name + "."


class QueryService:
    """Read-serving handle on one store's indexed snapshot."""

    def __init__(
        self,
        store_root: Path,
        cache_size: int = DEFAULT_CACHE_SIZE,
        telemetry=None,
    ):
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.root = Path(store_root)
        self.cache_size = cache_size
        self.telemetry = as_telemetry(telemetry)
        self._cache: "OrderedDict[str, Optional[ZoneStatusView]]" = OrderedDict()
        self._handles: Dict[Tuple[int, str], Any] = {}
        # Monitoring plane: a monitor root is served by delegating each
        # lookup to the per-epoch sub-service of the newest epoch whose
        # snapshot holds the zone (newest-wins, like the merged
        # analysis).  Only the gap-free run of indexed epochs from the
        # baseline is served — newest-wins over a hole would answer with
        # a verdict the merged view has already superseded — and a
        # completed epoch past it makes the root stale, as an append
        # does a plain store.  self.snapshot stays None in that mode.
        self._epoch_services: Dict[int, "QueryService"] = {}
        self._monitor_epochs: List[int] = []
        if is_monitor_root(self.root):
            for epoch in completed_epochs(self.root):
                if not snapshot_path(epoch_dir(self.root, epoch)).exists():
                    break
                self._monitor_epochs.append(epoch)
            if not self._monitor_epochs:
                raise QueryError(
                    f"no query index at {self.root} (no completed epoch is indexed) — "
                    f"build one with: repro-dnssec query index --store {self.root}"
                )
            self.snapshot: Optional[SnapshotInfo] = None
        else:
            self.snapshot = load_snapshot(self.root)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        for fp in self._handles.values():
            fp.close()
        self._handles.clear()
        for service in self._epoch_services.values():
            service.close()
        self._epoch_services.clear()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- freshness ---------------------------------------------------------

    def check_stale(self) -> bool:
        """True when the live manifest has moved past the pinned
        generation (new segments committed since the index was built).
        The service keeps serving the pinned snapshot either way."""
        if self._monitor_epochs:
            # A monitor root is stale when an epoch completed since it
            # was opened or is not served, or its newest served one is.
            if completed_epochs(self.root) != self._monitor_epochs:
                return True
            return self._epoch_service(self._monitor_epochs[-1]).check_stale()
        manifest = load_manifest(self.root)
        stale = not self.snapshot.is_fresh(manifest)
        if self.telemetry.enabled:
            self.telemetry.count("query.stale_checks")
            if stale:
                self.telemetry.count("query.stale_detected")
        return stale

    # -- point lookups -----------------------------------------------------

    def zone_status(
        self, name: str, epoch: Optional[int] = None
    ) -> Optional[ZoneStatusView]:
        """Point lookup: the hot-field view for one zone, or ``None``.

        Cache → binary search of the bucket ``.idx`` → one meta row.
        Never streams a bucket, never touches a shard segment.

        On a monitor root, *epoch* selects the simulated week to answer
        as of (default: the newest complete epoch): the lookup walks
        epochs from there down to the baseline and returns the newest
        view of the zone — the same newest-wins rule the merged epoch
        analysis applies.  On a plain store, a non-matching *epoch* is
        an error.
        """
        if self._monitor_epochs:
            service = self._service_holding(name, epoch)
            return service.zone_status(name) if service is not None else None
        if epoch is not None and epoch != self.snapshot.epoch:
            raise QueryError(
                f"this snapshot holds epoch {self.snapshot.epoch}, not epoch {epoch}"
            )
        zone = _normalize_zone(name)
        tel = self.telemetry
        if tel.enabled:
            tel.count("query.lookups")
        if zone in self._cache:
            self._cache.move_to_end(zone)
            view = self._cache[zone]
            if tel.enabled:
                tel.count("query.cache_hits")
                if view is _NEGATIVE:
                    tel.count("query.negative")
            return view
        if tel.enabled:
            tel.count("query.cache_misses")
        view = self._lookup(zone)
        self._cache[zone] = view
        if len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
        if view is _NEGATIVE and tel.enabled:
            tel.count("query.negative")
        return view

    def zone_record(
        self, name: str, epoch: Optional[int] = None
    ) -> Optional[ZoneScanResult]:
        """The full archived record behind :meth:`zone_status` — one
        seek + one read of the re-packed bucket data file."""
        if self._monitor_epochs:
            service = self._service_holding(name, epoch)
            return service.zone_record(name) if service is not None else None
        view = self.zone_status(name, epoch=epoch)
        if view is None:
            return None
        files = self.snapshot.bucket_files(view.bucket)
        fp = self._handle(view.bucket, "data", files.data, binary=False)
        fp.seek(view.offset)
        line = fp.read(view.length)
        if self.telemetry.enabled:
            self.telemetry.count("query.bytes_read", view.length)
        return result_from_obj(json.loads(line))

    # -- enumerations ------------------------------------------------------

    def iter_status(self) -> Iterator[ZoneStatusView]:
        """Every zone's hot-field view, in deterministic snapshot order
        (bucket, then zone hash) — streams the meta rows, not records;
        each view equals :meth:`zone_status` of its zone.

        Enumerations are per-store: a delta epoch holds only the week's
        changed zones, so enumerating a monitor root would silently mix
        populations.  The merged longitudinal view lives on
        :meth:`repro.monitor.Monitor.analyze` / ``classifications``; a
        single week is one epoch store away."""
        # Guard at call time, not first next() — misuse should not hide
        # inside a lazily-consumed generator.
        if self._monitor_epochs:
            newest = epoch_dir(self.root, self._monitor_epochs[-1])
            raise QueryError(
                "enumerations are not defined on a monitor root — open a "
                f"per-epoch store (e.g. QueryService({str(newest)!r})) or use "
                "repro.monitor.Monitor.analyze() for the merged view"
            )
        return self._iter_status()

    def _iter_status(self) -> Iterator[ZoneStatusView]:
        tel = self.telemetry
        if tel.enabled:
            tel.count("query.enumerations")
        for bucket in range(self.snapshot.num_buckets):
            meta = self.snapshot.bucket_files(bucket).meta
            fp = self._handle(bucket, "meta", meta, binary=False)
            fp.seek(0)
            # The whole bucket at once: a lookup between two views may
            # seek the same handle.
            text = fp.read()
            if tel.enabled:
                tel.count("query.bytes_read", len(text))
            for line in text.splitlines():
                yield _view(json.loads(line), bucket)

    def report(self) -> AnalysisReport:
        """The paper's counts over the whole snapshot: each meta row's
        :func:`~repro.core.pipeline.paper_contribution`, summed — the
        counter ``store reanalyze`` renders Tables 1–3 and Figure 1
        from, with no verdict kept (``verdicts`` stays empty)."""
        report = AnalysisReport()
        for view in self.iter_status():
            report.counts.update(
                paper_contribution(
                    DnssecStatus(view.status),
                    BootstrapEligibility(view.eligibility),
                    SignalOutcome(view.outcome),
                    view.has_cds,
                    view.operator,
                    view.signal_operator,
                )
            )
        return report

    def zones_with_status(self, status: str) -> List[str]:
        """Zone names in one status class (e.g. ``"island"``)."""
        return [view.zone for view in self.iter_status() if view.status == status]

    def zones_for_operator(self, operator: str) -> List[str]:
        """Zone names attributed to one operator (the operator scan)."""
        return [view.zone for view in self.iter_status() if view.operator == operator]

    # -- internals ---------------------------------------------------------

    def _epoch_service(self, epoch: int) -> "QueryService":
        service = self._epoch_services.get(epoch)
        if service is None:
            service = QueryService(
                epoch_dir(self.root, epoch),
                cache_size=self.cache_size,
                telemetry=self.telemetry,
            )
            self._epoch_services[epoch] = service
        return service

    def _service_holding(
        self, name: str, epoch: Optional[int]
    ) -> Optional["QueryService"]:
        """The newest per-epoch sub-service (at or below *epoch*) whose
        snapshot holds the zone, or None when no epoch scanned it."""
        if epoch is None:
            epoch = self._monitor_epochs[-1]
        candidates = [e for e in self._monitor_epochs if e <= epoch]
        if not candidates:
            raise QueryError(
                f"monitor at {self.root} has no complete epoch <= {epoch}"
            )
        for e in reversed(candidates):
            service = self._epoch_service(e)
            if service.zone_status(name) is not None:
                return service
        return None

    def _lookup(self, zone: str) -> Optional[ZoneStatusView]:
        bucket = shard_for_zone(zone, self.snapshot.num_buckets)
        files = self.snapshot.bucket_files(bucket)
        key = zone_key64(zone)
        idx_fp = self._handle(bucket, "idx", files.idx, binary=True)
        idx_fp.seek(0, 2)
        rows = idx_fp.tell() // IDX_ROW_SIZE

        tel = self.telemetry

        def probe(i: int) -> Tuple[int, int, int]:
            idx_fp.seek(i * IDX_ROW_SIZE)
            row = IDX_ROW.unpack(idx_fp.read(IDX_ROW_SIZE))
            if tel.enabled:
                tel.count("query.index_seeks")
                tel.count("query.bytes_read", IDX_ROW_SIZE)
            return row

        # Leftmost row with key64 >= key (classic bisect over the file).
        lo, hi = 0, rows
        while lo < hi:
            mid = (lo + hi) // 2
            if probe(mid)[0] < key:
                lo = mid + 1
            else:
                hi = mid
        # key64 collisions are ~2^-64 but cheap to handle: walk equal
        # keys comparing actual zone names from the meta rows.
        zone_cmp = zone.lower()
        meta_fp = self._handle(bucket, "meta", files.meta, binary=False)
        while lo < rows:
            key64, meta_offset, meta_len = probe(lo)
            if key64 != key:
                return None
            meta_fp.seek(meta_offset)
            obj = json.loads(meta_fp.read(meta_len))
            if tel.enabled:
                tel.count("query.bytes_read", meta_len)
            if obj["zone"].lower() == zone_cmp:
                return _view(obj, bucket)
            lo += 1
        return None

    def _handle(self, bucket: int, kind: str, rel_path: str, binary: bool):
        """Lazily opened, service-lifetime file handle per bucket file."""
        cache_key = (bucket, kind)
        fp = self._handles.get(cache_key)
        if fp is None:
            path = index_dir(self.root) / rel_path
            if not path.exists():
                raise QueryError(f"snapshot references missing file {rel_path}")
            fp = open(path, "rb") if binary else open(path, "r", encoding="utf-8")
            self._handles[cache_key] = fp
        return fp

    # -- reporting ---------------------------------------------------------

    def summary(self) -> str:
        """What ``repro-dnssec query serve``'s banner prints."""
        if self._monitor_epochs:
            newest = self._epoch_service(self._monitor_epochs[-1])
            return "\n".join(
                [
                    f"monitor:   {self.root}",
                    f"epochs:    {len(completed_epochs(self.root))} complete "
                    f"(serving as of epoch {self._monitor_epochs[-1]})",
                    f"campaign:  seed={newest.snapshot.seed} "
                    f"scale={newest.snapshot.scale:g}",
                ]
            )
        manifest = load_manifest(self.root)
        fresh = self.snapshot.is_fresh(manifest)
        behind = manifest.records - (self.snapshot.pinned_records or self.snapshot.records)
        lines = [
            f"store:     {self.root}",
            f"snapshot:  {self.snapshot.records} zones across "
            f"{self.snapshot.num_buckets} buckets (v{self.snapshot.version})",
            f"campaign:  seed={self.snapshot.seed} scale={self.snapshot.scale:g}",
            f"freshness: {'fresh' if fresh else f'stale ({behind} records behind)'}",
            f"operators: {'attributed' if self.snapshot.operators_attributed else 'not attributed'}",
        ]
        return "\n".join(lines)
