"""Table 1: DNSSEC status amongst the top-20 DNS operators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.pipeline import AnalysisReport
from repro.reports.render import format_count, format_pct, render_table


@dataclass
class Table1Row:
    operator: str
    domains: int
    unsigned: int
    secured: int
    invalid: int
    islands: int


def compute_table1(report: AnalysisReport, limit: int = 20) -> List[Table1Row]:
    """The Table 1 rows, ordered by portfolio size."""
    columns = ("domains", "unsigned", "secured", "invalid", "islands")
    return [
        Table1Row(name, *(report.count("table1", name, column) for column in columns))
        for name in report.top_operators(limit)
    ]


def render_table1(
    rows: List[Table1Row], expected: Optional[List[Table1Row]] = None
) -> str:
    headers = [
        "Operator",
        "Domains",
        "Unsigned",
        "%",
        "Secured",
        "%",
        "Invalid",
        "%",
        "Islands",
        "%",
    ]
    body = []
    for row in rows:
        body.append(
            [
                row.operator,
                format_count(row.domains),
                format_count(row.unsigned),
                format_pct(row.unsigned, row.domains),
                format_count(row.secured),
                format_pct(row.secured, row.domains),
                format_count(row.invalid),
                format_pct(row.invalid, row.domains),
                format_count(row.islands),
                format_pct(row.islands, row.domains),
            ]
        )
    out = render_table(headers, body, title="Table 1: DNSSEC amongst the top 20 DNS operators")
    if expected is not None:
        exp_body = []
        for row in expected:
            exp_body.append(
                [
                    row.operator,
                    format_count(row.domains),
                    format_count(row.unsigned),
                    format_pct(row.unsigned, row.domains),
                    format_count(row.secured),
                    format_pct(row.secured, row.domains),
                    format_count(row.invalid),
                    format_pct(row.invalid, row.domains),
                    format_count(row.islands),
                    format_pct(row.islands, row.domains),
                ]
            )
        out += "\n\n" + render_table(
            headers, exp_body, title="Table 1 (paper targets, scaled)"
        )
    return out

