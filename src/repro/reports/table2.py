"""Table 2: the top-20 DNS operators publishing CDS RRs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.pipeline import AnalysisReport
from repro.reports.render import format_count, format_pct, render_table


@dataclass
class Table2Row:
    operator: str
    with_cds: int
    domains: int

    @property
    def pct(self) -> float:
        return 100.0 * self.with_cds / self.domains if self.domains else 0.0


def compute_table2(report: AnalysisReport, limit: int = 20) -> List[Table2Row]:
    return [
        Table2Row(name, report.count("table2", name, "with_cds"), report.count("table1", name, "domains"))
        for name in report.top_cds_operators(limit)
    ]


def render_table2(rows: List[Table2Row], expected: Optional[List[Table2Row]] = None) -> str:
    headers = ["#", "DNS Operator", "Dom. w. CDS", "%"]

    def body(rows: List[Table2Row]) -> List[List[str]]:
        return [
            [
                str(i + 1),
                row.operator,
                format_count(row.with_cds),
                format_pct(row.with_cds, row.domains),
            ]
            for i, row in enumerate(rows)
        ]

    out = render_table(
        headers,
        body(rows),
        title="Table 2: top DNS operators publishing CDS RRs",
        align_left=(1,),
    )
    if expected is not None:
        out += "\n\n" + render_table(
            headers,
            body(expected),
            title="Table 2 (paper targets, scaled)",
            align_left=(1,),
        )
    return out
