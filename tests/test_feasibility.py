"""Tests for the App.-D registry-feasibility estimator."""

import pytest

from repro.campaign import CampaignConfig, run_campaign
from repro.core.bootstrap import SignalOutcome
from repro.core.feasibility import estimate_feasibility, render_feasibility

SCALE = 2e-6


@pytest.fixture(scope="module")
def feasibility():
    campaign = run_campaign(CampaignConfig(scale=SCALE, seed=37, recheck=False))
    network = campaign.world.network
    bytes_per_query = (network.bytes_sent + network.bytes_received) / max(
        1, network.queries_sent
    )
    report = estimate_feasibility(campaign.report, bytes_per_query)
    return campaign, report


class TestEstimates:
    def test_strategies_present(self, feasibility):
        _, report = feasibility
        names = {e.strategy for e in report.estimates}
        assert names == {"exhaustive", "short_circuit", "signal_only"}

    def test_short_circuit_saves(self, feasibility):
        _, report = feasibility
        exhaustive = report.by_name("exhaustive")
        short = report.by_name("short_circuit")
        assert short.queries < exhaustive.queries
        # App. D: most of the population is unsigned — savings are large.
        assert report.savings_vs_exhaustive["short_circuit"] > 0.5

    def test_signal_only_is_tiny(self, feasibility):
        _, report = feasibility
        exhaustive = report.by_name("exhaustive")
        signal_only = report.by_name("signal_only")
        assert signal_only.zones_scanned < exhaustive.zones_scanned * 0.2
        assert signal_only.queries < exhaustive.queries * 0.2

    def test_paper_extrapolation(self, feasibility):
        campaign, report = feasibility
        paper = report.by_name("exhaustive").scaled_to_paper(campaign.world.scale)
        # ~287.6M zones at ~20-40 queries each: order 10^9-10^10.
        assert paper.zones_scanned > 200_000_000
        assert paper.queries > 10**9
        # A single 50 qps vantage point would need years — which is why
        # the paper used many machines and a month.
        assert paper.days_at_50qps > 100

    def test_bytes_scale_with_queries(self, feasibility):
        _, report = feasibility
        for estimate in report.estimates:
            if estimate.queries:
                assert estimate.bytes_moved > estimate.queries  # >1 B/query

    def test_deep_scans_cost_what_signal_zones_cost(self, feasibility):
        # Every resolved zone has a signal scan (one per delegation NS);
        # only zones whose verdict has a signal set the deep-scan cost.
        campaign, report = feasibility
        signal = [
            result.queries_used
            for result, assessment in zip(campaign.results, campaign.report.assessments)
            if assessment.signal_outcome != SignalOutcome.NO_SIGNAL
        ]
        assert 0 < len(signal) < sum(result.resolved for result in campaign.results)
        signal_only = report.by_name("signal_only")
        assert signal_only.zones_scanned == len(signal)
        assert signal_only.queries == len(signal) * int(sum(signal) / len(signal))

    def test_render(self, feasibility):
        campaign, report = feasibility
        text = render_feasibility(report, campaign.world.scale)
        assert "short_circuit" in text and "fewer queries" in text

    def test_unknown_strategy(self, feasibility):
        _, report = feasibility
        with pytest.raises(KeyError):
            report.by_name("nope")
