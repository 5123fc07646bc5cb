"""Shard-range partitioning of campaign work across worker processes.

The campaign store already routes every record to a bucket by
``SHA-256(zone) % num_shards`` (:func:`repro.store.shards.shard_for_zone`)
— a partition key that is stable across processes, platforms, and
Python versions.  The parallel engine reuses it as the *work* partition:
each worker owns a contiguous range of buckets and scans exactly the
zones whose hash falls in its range.  Because the key is a pure function
of the zone name, every worker can rebuild the same deterministic world
from ``(seed, scale)`` and compute its own share without any
coordination, and the shares are disjoint and complete by construction.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from repro.dns.name import Name
from repro.store.shards import shard_for_zone


def bucket_ranges(num_shards: int, workers: int) -> List[range]:
    """Contiguous, near-even bucket ranges covering ``0..num_shards-1``.

    The first ``num_shards % workers`` workers get one extra bucket.
    Raises :class:`ValueError` when there are more workers than buckets —
    a worker with no buckets would idle while pretending to help.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > num_shards:
        raise ValueError(
            f"workers ({workers}) cannot exceed num_shards ({num_shards}); "
            f"create the store with more shards"
        )
    base, extra = divmod(num_shards, workers)
    ranges: List[range] = []
    start = 0
    for index in range(workers):
        width = base + (1 if index < extra else 0)
        ranges.append(range(start, start + width))
        start += width
    return ranges


def zones_for_buckets(
    zones: Iterable[Name], num_shards: int, buckets: Iterable[int]
) -> List[Name]:
    """The sub-list of *zones* whose shard bucket falls in *buckets*,
    preserving scan-list order."""
    wanted: Set[int] = set(buckets)
    return [
        zone
        for zone in zones
        if shard_for_zone(zone.to_text(), num_shards) in wanted
    ]
