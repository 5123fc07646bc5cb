"""Report generation: regenerate the paper's Tables 1–3 and Figure 1
from an :class:`~repro.core.pipeline.AnalysisReport`, side by side with
the scaled paper expectations, plus shape checks."""

from typing import Dict

from repro.core.pipeline import AnalysisReport, paper_contribution
from repro.ecosystem.spec import CdsScenario
from repro.ecosystem.world import attributed_operator, expected_classification
from repro.reports.render import format_count, format_pct, render_table
from repro.reports.table1 import compute_table1, render_table1
from repro.reports.table2 import compute_table2, render_table2
from repro.reports.table3 import compute_table3, render_table3
from repro.reports.figure1 import compute_figure1, render_figure1
from repro.reports.table_security import compute_security, render_security
from repro.reports.tld import compute_tld_report, render_tld_report
from repro.reports.compare import ShapeCheck, check_shapes
from repro.reports.dashboard import zone_status_dashboard

ARTIFACTS = ("table1", "table2", "table3", "figure1", "tld", "security")


def expected_report(targets) -> AnalysisReport:
    """The paper artefacts as a world's scaled cells predict them: the
    measured side's :func:`~repro.core.pipeline.paper_contribution`,
    once per cell (its ground-truth classification after the §4.4
    re-check), weighted by the cell's zone count.  Render it through
    the same ``compute_*`` functions as a measured report."""
    report = AnalysisReport()
    for cell in targets.cells:
        status, eligibility, outcome = expected_classification(cell, after_recheck=True)
        counts = paper_contribution(
            status,
            eligibility,
            outcome,
            cell.cds != CdsScenario.NONE,
            attributed_operator(cell),
            cell.operator,
        )
        report.counts.update({key: n * cell.count for key, n in counts.items()})
    return report


def render_artifacts(report, targets=None) -> Dict[str, str]:
    """Every artefact of *report* as the exact text a user sees, keyed
    and ordered by :data:`ARTIFACTS`.  With *targets* (a world's scaled
    paper targets) the four paper artefacts carry their expected twin."""
    expected = expected_report(targets) if targets is not None else None

    def twin(compute):
        return compute(expected) if expected is not None else None

    return {
        "table1": render_table1(compute_table1(report), twin(compute_table1)),
        "table2": render_table2(compute_table2(report), twin(compute_table2)),
        "table3": render_table3(compute_table3(report), twin(compute_table3)),
        "figure1": render_figure1(compute_figure1(report), twin(compute_figure1)),
        "tld": render_tld_report(compute_tld_report(report)),
        "security": render_security(compute_security(report)),
    }


__all__ = [
    "ARTIFACTS",
    "ShapeCheck",
    "check_shapes",
    "compute_figure1",
    "compute_security",
    "compute_table1",
    "compute_table2",
    "compute_table3",
    "compute_tld_report",
    "expected_report",
    "render_tld_report",
    "format_count",
    "format_pct",
    "render_artifacts",
    "render_figure1",
    "render_security",
    "render_table",
    "render_table1",
    "render_table2",
    "render_table3",
    "zone_status_dashboard",
]
