"""Tests for the multiprocess parallel campaign engine.

The load-bearing claim of :mod:`repro.parallel` is *merge determinism*:
a campaign split across N worker processes renders the same bytes
(Tables 1-3, Figure 1) as the sequential campaign at the same
seed/scale — including after a worker crash and a resume.
"""

import pytest

from repro.campaign import CampaignConfig, resume_campaign, run_campaign
from repro.dns.name import Name
from repro.parallel import ParallelCampaignError, bucket_ranges, zones_for_buckets
from repro.reports import render_artifacts
from repro.store import StoreReader
from repro.store.shards import shard_for_zone
from tests.helpers import run_with_faults

SCALE = 1e-6
SEED = 41


@pytest.fixture(scope="module")
def sequential():
    return run_campaign(CampaignConfig(scale=SCALE, seed=SEED, recheck=True))


@pytest.fixture(scope="module")
def sequential_artifacts(sequential):
    return render_artifacts(sequential.report)


class TestPartition:
    def test_ranges_cover_every_bucket_once(self):
        for workers in (1, 2, 3, 4, 7, 16):
            ranges = bucket_ranges(16, workers)
            assert len(ranges) == workers
            buckets = [b for r in ranges for b in r]
            assert buckets == list(range(16))  # complete, disjoint, ordered

    def test_ranges_are_near_even(self):
        widths = [len(r) for r in bucket_ranges(16, 3)]
        assert sum(widths) == 16
        assert max(widths) - min(widths) <= 1

    def test_rejects_bad_worker_counts(self):
        with pytest.raises(ValueError):
            bucket_ranges(16, 0)
        with pytest.raises(ValueError):
            bucket_ranges(16, 17)

    def test_zone_partition_disjoint_and_complete(self, sequential):
        zones = sequential.world.scan_list
        shares = [zones_for_buckets(zones, 16, r) for r in bucket_ranges(16, 4)]
        flat = [zone for share in shares for zone in share]
        assert sorted(n.to_text() for n in flat) == sorted(n.to_text() for n in zones)
        seen = set()
        for share in shares:
            texts = {zone.to_text() for zone in share}
            assert not (texts & seen)
            seen |= texts

    def test_partition_follows_shard_hash(self):
        zones = [Name.from_text(f"zone{i}.example") for i in range(50)]
        ranges = bucket_ranges(16, 4)
        for bucket_range in ranges:
            for zone in zones_for_buckets(zones, 16, bucket_range):
                assert shard_for_zone(zone.to_text(), 16) in bucket_range


class TestByteIdentity:
    @pytest.fixture(scope="class")
    def parallel(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("parallel") / "store"
        return run_campaign(CampaignConfig(scale=SCALE, seed=SEED, store_dir=root, workers=4))

    def test_reports_byte_identical(self, parallel, sequential_artifacts):
        assert render_artifacts(parallel.report) == sequential_artifacts

    def test_recheck_matches_sequential(self, parallel, sequential):
        assert parallel.rechecked == sequential.rechecked

    def test_merged_store_holds_every_zone_once(self, parallel, sequential):
        stored = [r.zone.to_text() for r in StoreReader(parallel.store_dir).iter_results()]
        expected = sorted(n.to_text() for n in sequential.world.scan_list)
        assert sorted(stored) == expected
        assert len(set(stored)) == len(stored)

    def test_machine_reports_cover_the_campaign(self, parallel, sequential):
        assert len(parallel.machines) == 4
        assert sum(m.zones for m in parallel.machines) == len(sequential.world.scan_list)
        assert all(m.duration > 0 for m in parallel.machines)
        # The parallel campaign's simulated duration is the slowest
        # machine — strictly less than one machine doing everything.
        assert parallel.simulated_duration < sequential.simulated_duration

    def test_store_backed_sequential_matches_too(
        self, tmp_path, sequential_artifacts
    ):
        campaign = run_campaign(
            CampaignConfig(scale=SCALE, seed=SEED, store_dir=tmp_path / "seq-store")
        )
        assert render_artifacts(campaign.report) == sequential_artifacts


class TestCrashAndResume:
    def test_killed_worker_then_resume_is_byte_identical(
        self, tmp_path, sequential, sequential_artifacts
    ):
        root = tmp_path / "store"
        with pytest.raises(ParallelCampaignError) as excinfo:
            run_with_faults(
                CampaignConfig(
                    scale=SCALE, seed=SEED, store_dir=root, workers=3, checkpoint_every=4
                ),
                faults={1: 5},
            )
        assert set(excinfo.value.failed) == {1}

        resumed = resume_campaign(root)  # worker count comes from the manifest
        assert render_artifacts(resumed.report) == sequential_artifacts
        assert resumed.rechecked == sequential.rechecked

        stored = [r.zone.to_text() for r in StoreReader(root).iter_results()]
        assert sorted(stored) == sorted(n.to_text() for n in sequential.world.scan_list)
        assert len(set(stored)) == len(stored)

        # Resuming a complete parallel campaign is a cheap no-op that
        # still renders the same bytes.
        again = resume_campaign(root)
        assert render_artifacts(again.report) == sequential_artifacts

    def test_resume_with_different_worker_count(
        self, tmp_path, sequential_artifacts
    ):
        root = tmp_path / "store"
        with pytest.raises(ParallelCampaignError):
            run_with_faults(
                CampaignConfig(
                    scale=SCALE, seed=SEED, store_dir=root, workers=4, checkpoint_every=4
                ),
                faults={0: 3, 2: 3},
            )
        resumed = resume_campaign(root, workers=2)
        assert render_artifacts(resumed.report) == sequential_artifacts


class TestWiring:
    def test_workers_requires_a_store(self):
        with pytest.raises(ValueError, match="store_dir"):
            run_campaign(CampaignConfig(scale=SCALE, seed=SEED, workers=2))

    def test_workers_rejects_prebuilt_world(self, tmp_path, sequential):
        with pytest.raises(ValueError, match="world"):
            run_campaign(
                CampaignConfig(store_dir=tmp_path / "s", workers=2),
                world=sequential.world,
            )
