"""Tests for the multi-machine scan fleet."""

import pytest

from repro.core import AnalysisPipeline
from repro.ecosystem import build_world
from repro.scanner.fleet import ScanFleet


@pytest.fixture(scope="module")
def world():
    return build_world(scale=1e-6, seed=51)


class TestPartition:
    def test_round_robin_covers_everything(self, world):
        fleet = ScanFleet(world, machines=3)
        shares = fleet.partition(world.scan_list)
        assert sum(len(s) for s in shares) == len(world.scan_list)
        flattened = [zone for share in shares for zone in share]
        assert sorted(flattened, key=lambda n: n.canonical_key()) == sorted(
            world.scan_list, key=lambda n: n.canonical_key()
        )

    def test_balanced(self, world):
        shares = ScanFleet(world, machines=4).partition(world.scan_list)
        sizes = [len(s) for s in shares]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_size(self, world):
        with pytest.raises(ValueError):
            ScanFleet(world, machines=0)


class TestFleetScan:
    def test_results_match_single_scanner(self):
        # Transient-failure behaviours are stateful (first queries fail),
        # so each scan gets its own identically-seeded world.
        world_a = build_world(scale=1e-6, seed=51)
        world_b = build_world(scale=1e-6, seed=51)
        fleet_report = ScanFleet(world_a, machines=3).scan()
        single = world_b.make_scanner().scan_many(world_b.scan_list)
        fleet_analysis = AnalysisPipeline(world_a.operator_db).analyze(fleet_report.results)
        single_analysis = AnalysisPipeline(world_b.operator_db).analyze(single)
        assert fleet_analysis.tally("status") == single_analysis.tally("status")
        assert fleet_analysis.tally("outcome") == single_analysis.tally("outcome")

    def test_machine_reports(self, world):
        report = ScanFleet(world, machines=3).scan()
        assert len(report.machines) == 3
        assert all(m.queries > 0 for m in report.machines)
        assert report.duration == max(m.duration for m in report.machines)

    def test_more_machines_finish_sooner(self, world):
        durations = {size: ScanFleet(world, machines=size).scan().duration for size in (1, 4)}
        assert durations[4] < durations[1]
        # Near-linear at this scale (no per-NS contention modelled
        # across machines): 4 machines cut the duration at least in half.
        assert durations[4] < durations[1] * 0.5

    def test_duration_days_property(self, world):
        report = ScanFleet(world, machines=2).scan(world.scan_list[:30])
        assert report.duration_days == pytest.approx(report.duration / 86_400)
