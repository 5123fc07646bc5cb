"""Registry-deployment feasibility estimation (Appendix D).

The paper argues a registry need not scan like a measurement study: it
can skip zones with extant DS, abandon a zone at the first disqualifier,
and only follow the signaling chain for the ~1.2 M zones that actually
publish signal RRs.  This module turns the measured campaign costs into
those estimates, for three strategies:

* ``exhaustive``    — scan every zone the way the study did;
* ``short_circuit`` — skip zones with DS; stop at the first
  disqualifier (unsigned → 1 probe, no CDS → a few);
* ``signal_only``   — deep-scan only zones with signal RRs (what an
  RFC 9615 registry processor converges to with a candidate feed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.bootstrap import SignalOutcome
from repro.core.status import DnssecStatus


@dataclass
class StrategyEstimate:
    """Workload estimate for one registry scanning strategy."""

    strategy: str
    zones_scanned: int
    queries: int
    bytes_moved: int
    days_at_50qps: float  # single vantage point at the paper's limit

    def scaled_to_paper(self, scale: float) -> "StrategyEstimate":
        """Extrapolate counts to the paper's 287.6 M-zone population."""
        factor = 1.0 / scale
        return StrategyEstimate(
            strategy=self.strategy,
            zones_scanned=round(self.zones_scanned * factor),
            queries=round(self.queries * factor),
            bytes_moved=round(self.bytes_moved * factor),
            days_at_50qps=self.days_at_50qps * factor,
        )


@dataclass
class FeasibilityReport:
    estimates: List[StrategyEstimate]

    def by_name(self, name: str) -> StrategyEstimate:
        for estimate in self.estimates:
            if estimate.strategy == name:
                return estimate
        raise KeyError(name)

    @property
    def savings_vs_exhaustive(self) -> Dict[str, float]:
        base = self.by_name("exhaustive").queries or 1
        return {
            e.strategy: 1.0 - e.queries / base
            for e in self.estimates
            if e.strategy != "exhaustive"
        }


# Query budgets for the cheap probes of the short-circuit strategy.
_DS_CHECK = 1  # the registry already *has* its own DS data, ~free
_UNSIGNED_PROBE = 3  # SOA + DNSKEY at one NS
_NO_CDS_PROBE = 5  # + CDS/CDNSKEY at one NS


def short_circuit_cost(status: DnssecStatus, cds_present: bool, queries_used: int) -> int:
    """What the short-circuit strategy spends on one zone: skip it if it
    has DS, stop at the first disqualifier, else assess it in full."""
    if status == DnssecStatus.SECURE:
        return _DS_CHECK
    if status in (DnssecStatus.UNRESOLVED, DnssecStatus.UNSIGNED):
        return _UNSIGNED_PROBE
    if not cds_present:
        return _NO_CDS_PROBE
    return queries_used


def estimate_feasibility(report, bytes_per_query: float) -> FeasibilityReport:
    """Estimate the three strategies from one campaign's
    :class:`~repro.core.pipeline.AnalysisReport` (its ``appd`` counts)."""
    zones = report.total_scanned
    zones_deep = zones - report.count("outcome", SignalOutcome.NO_SIGNAL)
    # A deep scan costs what scanning a signal zone cost the campaign.
    deep_cost = report.count("appd", "signal_queries") / zones_deep if zones_deep else 0.0

    def make(strategy: str, zones: int, queries: int) -> StrategyEstimate:
        return StrategyEstimate(
            strategy=strategy,
            zones_scanned=zones,
            queries=queries,
            bytes_moved=round(queries * bytes_per_query),
            days_at_50qps=queries / 50 / 86_400,
        )

    return FeasibilityReport(
        estimates=[
            make("exhaustive", zones, report.total_queries),
            make("short_circuit", zones, report.count("appd", "short_circuit")),
            make("signal_only", zones_deep, zones_deep * int(deep_cost)),
        ]
    )


def render_feasibility(report: FeasibilityReport, scale: float) -> str:
    lines = [
        f"{'strategy':<15} {'zones':>10} {'queries':>12} {'GiB':>8} {'days@50qps':>11}   (extrapolated to 287.6M zones)"
    ]
    for estimate in report.estimates:
        paper = estimate.scaled_to_paper(scale)
        lines.append(
            f"{estimate.strategy:<15} {paper.zones_scanned:>10,} {paper.queries:>12,} "
            f"{paper.bytes_moved / 2**30:>8,.0f} {paper.days_at_50qps:>11,.1f}"
        )
    for name, saving in report.savings_vs_exhaustive.items():
        lines.append(f"  {name}: {100 * saving:.1f} % fewer queries than exhaustive")
    return "\n".join(lines)
