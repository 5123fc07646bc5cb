"""Direct tests for the campaign orchestration (build → scan → analyze
→ re-check)."""

import gc
import random
from dataclasses import fields

import pytest

from repro.campaign import CampaignConfig, run_campaign
from repro.core.bootstrap import INCORRECT_OUTCOMES, SignalOutcome
from repro.core.pipeline import AnalysisPipeline, AnalysisReport
from repro.ecosystem.spec import SignalScenario
from repro.ecosystem.world import build_world
from repro.reports import compute_table3, render_artifacts
from tests.helpers import assert_rescans_change_only_the_signal, folded, run_recording_rescans

SCALE = 1e-6


@pytest.fixture(scope="module")
def recorded():
    return run_recording_rescans(CampaignConfig(scale=SCALE, seed=41, recheck=True))


@pytest.fixture(scope="module")
def campaign(recorded):
    return recorded[0]


class TestRecheck:
    def test_transients_resolved(self, campaign):
        transients = {
            spec.name + "."
            for spec in campaign.world.specs.values()
            if spec.signal == SignalScenario.SIG_TRANSIENT
        }
        assert transients
        assert set(campaign.rechecked) == transients
        by_zone = {a.zone: a for a in campaign.report.assessments}
        for zone in transients:
            assert by_zone[zone].signal_outcome == SignalOutcome.CORRECT

    def test_persistent_misconfigs_stay(self, campaign):
        persistent = {
            SignalScenario.NS_COVERAGE: SignalOutcome.INCORRECT_NS_COVERAGE,
            SignalScenario.ZONE_CUT: SignalOutcome.INCORRECT_ZONE_CUT,
            SignalScenario.SIG_EXPIRED: SignalOutcome.INCORRECT_SIGNAL_DNSSEC,
        }
        by_zone = {a.zone: a for a in campaign.report.assessments}
        for spec in campaign.world.specs.values():
            expected = persistent.get(spec.signal)
            if expected is None:
                continue
            assert by_zone[spec.name + "."].signal_outcome == expected, spec.name

    def test_counter_consistency_after_recheck(self, campaign):
        report = campaign.report
        assert sum(report.tally("outcome").values()) == report.total_scanned
        incorrect = sum(report.count("outcome", o) for o in INCORRECT_OUTCOMES)
        funnel_incorrect = compute_table3(report).total("incorrect")
        assert incorrect == funnel_incorrect

    def test_rescans_change_only_the_signal(self, recorded):
        assert_rescans_change_only_the_signal(*recorded)


class TestFold:
    """A report is the sum of its zones' contributions."""

    def test_report_holds_one_per_zone_field(self):
        assert {f.name: f.type for f in fields(AnalysisReport)} == {
            "verdicts": "List[ZoneVerdict]",
            "counts": "Counter",
        }

    def test_counts_are_the_sum_of_contributions_after_recheck(self, campaign):
        assert campaign.rechecked
        assert campaign.report.counts == folded(campaign.report)

    def test_zone_order_changes_nothing(self, campaign):
        pipeline = AnalysisPipeline(campaign.world.operator_db)
        report = pipeline.analyze(campaign.results)
        shuffled = list(campaign.results)
        random.Random(5).shuffle(shuffled)
        other = pipeline.analyze(shuffled)
        assert other.counts == report.counts
        targets = campaign.world.targets
        assert render_artifacts(other, targets) == render_artifacts(report, targets)


class TestADroppedWorldIsFreedByRefcount:
    def test_no_reference_cycle_survives_a_campaign(self):
        # A world is tens of thousands of objects per hundred zones; one
        # cycle through it (a zone provider closing over its operator's
        # runtime, a kept exception whose traceback holds the frame that
        # keeps it) parks all of them until the next full collection.
        gc.collect()
        gc.disable()
        try:
            world = build_world(scale=1.25e-7, seed=3)
            result = run_campaign(CampaignConfig(scale=1.25e-7, seed=3), world=world)
            assert world.network.timeouts  # the kept-exception path was taken
            del world, result
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestAStoreRecordsTheWorldItScanned:
    def test_a_foreign_world_is_refused_before_a_store_exists(self, tmp_path):
        """Regression: the manifest used to record the *config's* seed
        while the scan ran over the caller's world, so a resume rebuilt
        a different population and silently finished the store with it."""
        from repro.store import StoreError

        world = build_world(scale=1e-6, seed=7)
        root = tmp_path / "store"
        with pytest.raises(StoreError, match="does not match"):
            run_campaign(
                CampaignConfig(seed=1, scale=1e-6, store_dir=root, stop_after=10), world=world
            )
        assert not root.exists()

    def test_in_memory_over_a_foreign_world_stays_legal(self):
        world = build_world(scale=1.25e-7, seed=7)
        result = run_campaign(CampaignConfig(recheck=False), world=world)  # default seed/scale
        assert result.world is world and len(result.results) == len(world.scan_list)
