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


def table1_row(report: AnalysisReport, operator: str) -> Table1Row:
    """*operator*'s Table 1 row."""
    columns = ("domains", "unsigned", "secured", "invalid", "islands")
    return Table1Row(operator, *(report.count("table1", operator, c) for c in columns))


def compute_table1(
    report: AnalysisReport, limit: Optional[int] = 20
) -> List[Table1Row]:
    """The Table 1 rows, ordered by portfolio size (``None``: all operators)."""
    return [table1_row(report, name) for name in report.top_operators(limit)]


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

    def body(table: List[Table1Row]) -> List[List[str]]:
        return [
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
            for row in table
        ]

    out = render_table(
        headers, body(rows), title="Table 1: DNSSEC amongst the top 20 DNS operators"
    )
    if expected is not None:
        out += "\n\n" + render_table(
            headers, body(expected), title="Table 1 (paper targets, scaled)"
        )
    return out
