"""Multiprocess shard-partitioned campaign execution.

See :mod:`repro.parallel.engine` for the architecture: workers own
contiguous shard-bucket ranges of the deterministic scan list, commit
into per-worker stores, and the parent merges manifests into one
campaign whose streamed report is byte-identical to a sequential run.
"""

from repro.parallel.engine import (
    ParallelCampaignError,
    merge_worker_manifests,
    worker_dir,
)
from repro.parallel.partition import bucket_ranges, zones_for_buckets
from repro.parallel.worker import EXIT_SIMULATED_CRASH, WorkerSpec, run_worker

__all__ = [
    "EXIT_SIMULATED_CRASH",
    "ParallelCampaignError",
    "WorkerSpec",
    "bucket_ranges",
    "merge_worker_manifests",
    "run_worker",
    "worker_dir",
    "zones_for_buckets",
]
