"""The App. D scan fleet has one model: the machine a ``workers=N``
campaign spawns.  M3 builds those machines in-process
(:func:`repro.experiments.machine_runs`); here their clocks are held to
what a real worker reports for the same buckets."""

import re
from dataclasses import replace

import pytest

from repro.campaign import CampaignConfig, scan_into
from repro.core import AnalysisPipeline
from repro.ecosystem.paper_targets import TOTAL_DOMAINS
from repro.experiments import fleet_table, machine_runs
from repro.parallel import WorkerSpec, bucket_ranges, run_worker, worker_dir
from repro.parallel.worker import scan_machine
from repro.store import DEFAULT_NUM_SHARDS

CONFIG = CampaignConfig(scale=2e-7, seed=51)
# A worker's config: the parallel engine resolves the shard count for it.
WORKER_CONFIG = replace(CONFIG, num_shards=DEFAULT_NUM_SHARDS)


@pytest.fixture(scope="module")
def runs():
    return {size: machine_runs(CONFIG, size) for size in (1, 2, 4)}


class TestPartition:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            machine_runs(CONFIG, 0)
        with pytest.raises(ValueError):
            machine_runs(CONFIG, DEFAULT_NUM_SHARDS + 1)


class TestFleetScan:
    def test_results_match_single_scanner(self):
        def analyze(machines):
            # Each machine scans its own freshly built world replica.
            results, operators = [], None
            for buckets in bucket_ranges(DEFAULT_NUM_SHARDS, machines):
                world, scanner, _, zones = scan_machine(WORKER_CONFIG, buckets)
                results += scan_into(scanner, zones)
                operators = world.operator_db
            return AnalysisPipeline(operators).analyze(results)

        fleet, single = analyze(3), analyze(1)
        assert fleet.tally("status") == single.tally("status")
        assert fleet.tally("outcome") == single.tally("outcome")

    def test_machine_reports(self, runs):
        [(alone, _)] = runs[1]
        assert len(runs[4]) == 4
        assert all(zones > 0 and duration > 0 for zones, duration in runs[4])
        assert sum(zones for zones, _ in runs[4]) == alone

    def test_slices_are_the_machines_a_campaign_spawns(self, runs, tmp_path):
        # Called inline, as tests/test_executor.py does.
        reported = [
            run_worker(
                WorkerSpec(
                    index=index,
                    buckets=tuple(buckets),
                    store_dir=str(worker_dir(tmp_path, index)),
                    skip_roots=(),
                    crash_after=None,
                    config=replace(WORKER_CONFIG, store_dir=tmp_path),
                )
            )
            for index, buckets in enumerate(bucket_ranges(DEFAULT_NUM_SHARDS, 2))
        ]
        assert runs[2] == [(stats["zones"], stats["duration"]) for stats in reported]

    def test_more_machines_finish_sooner(self, runs):
        [(_, alone)] = runs[1]
        assert max(duration for _, duration in runs[4]) < alone * 0.5

    def test_days_are_priced_per_scanned_zone(self, runs):
        [(zones, duration)] = runs[1]
        # Rare-case preservation adds zones beyond scale × population.
        assert zones != round(TOTAL_DOMAINS * CONFIG.scale)
        text, _ = fleet_table(runs)
        [shown] = re.findall(r"would need ~([\d,]+) days", text)
        assert shown == f"{duration / zones * TOTAL_DOMAINS / 86_400:,.0f}"
