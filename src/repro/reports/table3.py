"""Table 3: DNS operators publishing CDS RRs in RFC 9615 signal zones."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.bootstrap import (
    CANNOT_OUTCOMES,
    INCORRECT_OUTCOMES,
    BootstrapAssessment,
    SignalOutcome,
)
from repro.core.pipeline import AnalysisReport, SignalFunnel
from repro.ecosystem.spec import SignalScenario
from repro.ecosystem.world import expected_classification
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
class Table3Data:
    """The funnel per column (Cloudflare / deSEC / Glauca / Others / Total)."""

    columns: Dict[str, SignalFunnel] = field(default_factory=dict)

    def total(self, row: str) -> int:
        return sum(getattr(funnel, row) for funnel in self.columns.values())


def _column_for(operator: str) -> str:
    return operator if operator in AB_COLUMNS else "Others"


def compute_table3(report: AnalysisReport) -> Table3Data:
    data = Table3Data(columns={name: SignalFunnel() for name in (*AB_COLUMNS, "Others")})
    for operator, counter in report.outcome_by_operator.items():
        column = data.columns[_column_for(operator)]
        for outcome, count in counter.items():
            for _ in range(count):
                column.observe(outcome)
    return data


def expected_table3(targets, after_recheck: bool = True) -> Table3Data:
    data = Table3Data(columns={name: SignalFunnel() for name in (*AB_COLUMNS, "Others")})
    for cell in targets.cells:
        if cell.signal == SignalScenario.NONE:
            continue
        _, _, outcome = expected_classification(cell, after_recheck=after_recheck)
        column = data.columns[_column_for(cell.operator)]
        for _ in range(cell.count):
            column.observe(outcome)
    return data


def apply_recheck(
    report: AnalysisReport, rescans: Dict[str, BootstrapAssessment]
) -> None:
    """Fold re-scan assessments into the report (the paper re-checked
    zones whose signal errors looked transient; see §4.4).  The signal
    report travels with the outcome derived from it, so the acceptance
    ladder and Table 3 read the same evidence."""
    for assessment in report.assessments:
        rescan = rescans.get(assessment.zone)
        if rescan is None or rescan.signal_outcome == assessment.signal_outcome:
            continue
        operator = report.signal_operators.get(
            assessment.zone, report.attributions[assessment.zone].primary
        )
        old, new_outcome = assessment.signal_outcome, rescan.signal_outcome
        assessment.signal, assessment.signal_outcome = rescan.signal, new_outcome
        report.outcome_counts[old] -= 1
        report.outcome_counts[new_outcome] += 1
        by_op = report.outcome_by_operator.setdefault(operator, type(report.outcome_counts)())
        by_op[old] -= 1
        by_op[new_outcome] += 1
        funnel = report.signal_funnels[operator]
        _unobserve(funnel, old)
        funnel.observe(new_outcome)


def _unobserve(funnel: SignalFunnel, outcome: SignalOutcome) -> None:
    if outcome == SignalOutcome.NO_SIGNAL:
        return
    funnel.with_signal -= 1
    if outcome == SignalOutcome.ALREADY_SECURED:
        funnel.already_secured -= 1
    elif outcome in CANNOT_OUTCOMES:
        funnel.cannot -= 1
        if outcome == SignalOutcome.CANNOT_DELETE_REQUEST:
            funnel.cannot_delete -= 1
        else:
            funnel.cannot_invalid -= 1
    else:
        funnel.potential -= 1
        if outcome in INCORRECT_OUTCOMES:
            funnel.incorrect -= 1
        else:
            funnel.correct -= 1


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
