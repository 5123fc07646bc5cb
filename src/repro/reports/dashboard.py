"""The operator dashboard: per-operator portfolio health from an index.

``repro-dnssec query dashboard`` renders, for each operator, its
portfolio size, DNSSEC status split, CDS population, and bootstrappable
count — the live-operations view of the paper's Tables 1–2, read from
the same counter: :meth:`repro.query.QueryService.report` folds the
query snapshot's per-zone meta rows through
:func:`~repro.core.pipeline.paper_contribution` instead of re-analysing
every record.  Streaming one small row per zone makes the dashboard
cost independent of record size (RRsets, signal chains), which is what
lets an operator watch a multi-million-zone campaign's deployment
posture between checkpoints.
"""

from __future__ import annotations

from typing import List

from repro.core.bootstrap import BootstrapEligibility
from repro.core.operators import UNKNOWN_OPERATOR
from repro.reports.render import format_count, format_pct, render_table
from repro.reports.table1 import Table1Row, compute_table1, table1_row


def zone_status_dashboard(service, limit: int = 20) -> str:
    """Render the per-operator deployment dashboard as plain text: the
    *limit* largest operators (Table 1 ordering; 0 = all), then
    ``unknown`` if it holds zones.  *service* is a
    :class:`~repro.query.QueryService`."""
    report = service.report()
    bootstrappable = BootstrapEligibility.BOOTSTRAPPABLE

    def row(t1: Table1Row) -> List[str]:
        boot = report.count("eligibility", bootstrappable, t1.operator)
        return [
            t1.operator,
            format_count(t1.domains),
            format_count(t1.unsigned),
            format_count(t1.secured),
            format_count(t1.islands),
            format_count(t1.invalid),
            format_count(report.count("table2", t1.operator, "with_cds")),
            format_count(boot),
            format_pct(boot, t1.domains),
        ]

    rows = compute_table1(report, limit or None)
    unknown = table1_row(report, UNKNOWN_OPERATOR)
    if unknown.domains:
        rows.append(unknown)

    total = report.total_scanned
    total_boot = report.count("eligibility", bootstrappable)
    header = [
        f"operator dashboard: {service.root}",
        f"zones:     {format_count(total)} indexed, "
        f"{format_count(total_boot)} bootstrappable "
        f"({format_pct(total_boot, total)}%)",
        "",
    ]
    table = render_table(
        [
            "operator",
            "domains",
            "unsigned",
            "secure",
            "island",
            "invalid",
            "CDS",
            "bootstr.",
            "%",
        ],
        [row(t1) for t1 in rows],
    )
    return "\n".join(header) + table
