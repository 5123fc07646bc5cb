"""repro.query — indexed snapshots + the read-serving plane.

Two halves:

* :mod:`repro.query.snapshot` — ``build_index`` compacts a campaign
  store into a deterministic, versioned snapshot under ``<store>/index/``
  (per bucket: re-packed records, one meta row per zone holding the
  pipeline's verdict, a sorted offset index), byte-identical for a
  given record set regardless of how the segments were laid down;
* :mod:`repro.query.service` — ``QueryService`` serves point lookups
  (O(log n) seeks per uncached lookup) and enumerations (a stream of
  the same meta rows) from that snapshot, stale-but-consistent while a
  campaign keeps appending.
"""

from repro.query.snapshot import (
    FLAG_CDS_DELETE,
    FLAG_HAS_CDS,
    FLAG_HAS_SIGNAL,
    FLAG_MULTI_OPERATOR,
    FLAG_RESOLVED,
    FLAG_SAMPLED,
    QueryError,
    SnapshotInfo,
    build_index,
    index_dir,
    indexed_stores,
    load_snapshot,
    manifest_generation,
    verify_snapshot,
    zone_key64,
)
from repro.query.service import QueryService, ZoneStatusView

__all__ = [
    "FLAG_CDS_DELETE",
    "FLAG_HAS_CDS",
    "FLAG_HAS_SIGNAL",
    "FLAG_MULTI_OPERATOR",
    "FLAG_RESOLVED",
    "FLAG_SAMPLED",
    "QueryError",
    "QueryService",
    "SnapshotInfo",
    "ZoneStatusView",
    "build_index",
    "index_dir",
    "indexed_stores",
    "load_snapshot",
    "manifest_generation",
    "verify_snapshot",
    "zone_key64",
]
