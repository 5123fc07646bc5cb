"""Table 3: DNS operators publishing CDS RRs in RFC 9615 signal zones."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.pipeline import AnalysisReport
from repro.reports.render import format_count, render_table

AB_COLUMNS = ("Cloudflare", "deSEC", "Glauca")
ROWS = (
    ("with_signal", "Domains with signal CDS"),
    ("already_secured", "  already secured"),
    ("cannot", "  cannot be bootstrapped"),
    ("cannot_delete", "    deletion request"),
    ("cannot_invalid", "    invalid DNSSEC"),
    ("potential", "  potential to bootstrap"),
    ("incorrect", "    signal zone incorrect"),
    ("correct", "    signal zone correct"),
)


@dataclass
class SignalFunnel:
    """One Table 3 column: the funnel rows of :data:`ROWS`."""

    with_signal: int = 0
    already_secured: int = 0
    cannot: int = 0
    cannot_delete: int = 0
    cannot_invalid: int = 0  # unsigned / bogus zone / bad in-zone CDS
    potential: int = 0
    incorrect: int = 0
    correct: int = 0


@dataclass
class Table3Data:
    """The funnel per column (Cloudflare / deSEC / Glauca / Others / Total)."""

    columns: Dict[str, SignalFunnel] = field(default_factory=dict)

    def total(self, row: str) -> int:
        return sum(getattr(funnel, row) for funnel in self.columns.values())


def compute_table3(report: AnalysisReport) -> Table3Data:
    """The funnel rows per signal operator, folded into the A/B columns."""
    data = Table3Data(columns={name: SignalFunnel() for name in (*AB_COLUMNS, "Others")})
    for (table, row, operator), count in report.counts.items():
        if table == "table3":
            funnel = data.columns[operator if operator in AB_COLUMNS else "Others"]
            setattr(funnel, row, getattr(funnel, row) + count)
    return data


def render_table3(data: Table3Data, expected: Optional[Table3Data] = None) -> str:
    headers = ["", *AB_COLUMNS, "Others", "Total"]

    def body(data: Table3Data) -> List[List[str]]:
        rows = []
        for attr, label in ROWS:
            row = [label]
            for column in (*AB_COLUMNS, "Others"):
                row.append(format_count(getattr(data.columns[column], attr)))
            row.append(format_count(data.total(attr)))
            rows.append(row)
        return rows

    out = render_table(
        headers,
        body(data),
        title="Table 3: DNS operators publishing CDS RRs in signal zones",
    )
    if expected is not None:
        out += "\n\n" + render_table(
            headers, body(expected), title="Table 3 (paper targets, scaled)"
        )
    return out
