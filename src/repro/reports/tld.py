"""Per-TLD adoption report (§6: the financial-incentive effect).

The paper's conclusion highlights that registries paying operators to
deploy DNSSEC (.ch/.li: 1 CHF/year, .se: 10 SEK, .eu: 0.12 EUR) see a
concentration of CDS-publishing operators.  This report breaks the
measured deployment down per public suffix so the effect is visible:
the incentivised TLDs host disproportionately many secured and
CDS-publishing zones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.pipeline import AnalysisReport
from repro.reports.render import format_count, format_pct, render_table


@dataclass
class TldRow:
    suffix: str
    domains: int = 0
    secured: int = 0
    with_cds: int = 0

    @property
    def secured_pct(self) -> float:
        return 100.0 * self.secured / self.domains if self.domains else 0.0

    @property
    def cds_pct(self) -> float:
        return 100.0 * self.with_cds / self.domains if self.domains else 0.0


def compute_tld_report(report: AnalysisReport) -> List[TldRow]:
    """Adoption per public suffix (resolved zones only), largest first."""
    rows = [
        TldRow(suffix, domains, report.count("tld", suffix, "secured"), report.count("tld", suffix, "with_cds"))
        for suffix, domains in report.tally("tld", "domains").items()
    ]
    # Ties break on the suffix so the table is identical regardless of
    # zone order (serial vs. merged parallel shards).
    return sorted(rows, key=lambda r: (-r.domains, r.suffix))


def render_tld_report(rows: List[TldRow]) -> str:
    body = [
        [
            row.suffix,
            format_count(row.domains),
            format_count(row.secured),
            format_pct(row.secured, row.domains),
            format_count(row.with_cds),
            format_pct(row.with_cds, row.domains),
        ]
        for row in rows
    ]
    return render_table(
        ["TLD", "Domains", "Secured", "%", "w/ CDS", "%"],
        body,
        title="Per-TLD DNSSEC adoption (§6 incentive effect)",
    )
