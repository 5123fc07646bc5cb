"""Figure 1: breakdown of DNSSEC status and bootstrapping possibility."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.bootstrap import BootstrapEligibility
from repro.core.pipeline import AnalysisReport
from repro.core.status import DnssecStatus
from repro.reports.render import format_count, format_pct, render_table


@dataclass
class Figure1Data:
    """The Figure 1 boxes (counts of resolved zones)."""

    total: int = 0
    unsigned: int = 0
    with_dnssec: int = 0
    already_secured: int = 0
    invalid_dnssec: int = 0
    islands: int = 0
    island_without_cds: int = 0
    island_invalid_cds: int = 0
    island_cds_delete: int = 0
    possible_to_bootstrap: int = 0


_ELIGIBILITY_FIELDS = {
    BootstrapEligibility.UNSIGNED: "unsigned",
    BootstrapEligibility.ALREADY_SECURED: "already_secured",
    BootstrapEligibility.INVALID_DNSSEC: "invalid_dnssec",
    BootstrapEligibility.ISLAND_NO_CDS: "island_without_cds",
    BootstrapEligibility.ISLAND_CDS_INVALID: "island_invalid_cds",
    BootstrapEligibility.ISLAND_CDS_DELETE: "island_cds_delete",
    BootstrapEligibility.BOOTSTRAPPABLE: "possible_to_bootstrap",
}


def compute_figure1(report: AnalysisReport) -> Figure1Data:
    data = Figure1Data()
    for eligibility, field in _ELIGIBILITY_FIELDS.items():
        setattr(data, field, report.count("eligibility", eligibility))
    data.total = report.total_resolved
    data.islands = report.count("status", DnssecStatus.ISLAND)
    data.with_dnssec = data.already_secured + data.invalid_dnssec + data.islands
    return data


def render_figure1(data: Figure1Data, expected: Optional[Figure1Data] = None) -> str:
    def body(data: Figure1Data):
        rows = [
            ["Scanned (resolved)", format_count(data.total), ""],
            ["Without DNSSEC", format_count(data.unsigned), format_pct(data.unsigned, data.total)],
            ["With DNSSEC", format_count(data.with_dnssec), format_pct(data.with_dnssec, data.total)],
            ["  Already secured", format_count(data.already_secured), format_pct(data.already_secured, data.total)],
            ["  Invalid DNSSEC", format_count(data.invalid_dnssec), format_pct(data.invalid_dnssec, data.total)],
            ["  Secure islands", format_count(data.islands), format_pct(data.islands, data.total)],
            ["    without CDS", format_count(data.island_without_cds), format_pct(data.island_without_cds, data.total)],
            ["    invalid CDS", format_count(data.island_invalid_cds), format_pct(data.island_invalid_cds, data.total)],
            ["    CDS delete", format_count(data.island_cds_delete), format_pct(data.island_cds_delete, data.total)],
            ["    possible to bootstrap", format_count(data.possible_to_bootstrap), format_pct(data.possible_to_bootstrap, data.total)],
        ]
        return rows

    out = render_table(
        ["", "Zones", "%"],
        body(data),
        title="Figure 1: DNSSEC status and bootstrapping possibility",
    )
    if expected is not None:
        out += "\n\n" + render_table(
            ["", "Zones", "%"], body(expected), title="Figure 1 (paper targets, scaled)"
        )
    return out
