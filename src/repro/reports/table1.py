"""Table 1: DNSSEC status amongst the top-20 DNS operators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.pipeline import AnalysisReport
from repro.ecosystem.spec import StatusScenario
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
    """The measured Table 1 rows, ordered by portfolio size."""
    rows = []
    for name in report.top_operators(limit):
        stats = report.operators[name]
        rows.append(
            Table1Row(
                operator=name,
                domains=stats.domains,
                unsigned=stats.unsigned,
                secured=stats.secured,
                invalid=stats.invalid,
                islands=stats.islands,
            )
        )
    return rows


def expected_table1(targets, limit: int = 20) -> List[Table1Row]:
    """Table 1 as the scaled cell population predicts it."""
    by_op: Dict[str, Table1Row] = {}
    status_field = {
        StatusScenario.UNSIGNED: "unsigned",
        StatusScenario.SECURE: "secured",
        StatusScenario.INVALID_ERRANT_DS: "invalid",
        StatusScenario.INVALID_BADSIG: "invalid",
        StatusScenario.ISLAND: "islands",
        StatusScenario.ISLAND_BADSIG: "islands",
    }
    from repro.ecosystem.world import attributed_operator

    for cell in targets.cells:
        field = status_field.get(cell.status)
        if field is None:
            continue
        operator = attributed_operator(cell)
        row = by_op.setdefault(operator, Table1Row(operator, 0, 0, 0, 0, 0))
        row.domains += cell.count
        setattr(row, field, getattr(row, field) + cell.count)
    ordered = sorted(by_op.values(), key=lambda r: (-r.domains, r.operator))
    return [row for row in ordered if row.operator != "unknown"][:limit]


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

