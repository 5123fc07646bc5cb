"""The operator dashboard: per-operator portfolio health from an index.

``repro-dnssec query dashboard`` renders, for each operator, its
portfolio size, DNSSEC status split, CDS population, and bootstrappable
count — the live-operations view of the paper's Tables 1–2, answered
from the query snapshot's per-zone meta rows instead of a full
re-analysis.  Streaming one small row per zone makes the dashboard cost
independent of record size (RRsets, signal chains), which is what lets
an operator watch a multi-million-zone campaign's deployment posture
between checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.bootstrap import BootstrapEligibility
from repro.core.operators import UNKNOWN_OPERATOR
from repro.core.status import DnssecStatus
from repro.query.snapshot import FLAG_HAS_CDS
from repro.reports.render import format_count, format_pct, render_table


@dataclass
class OperatorRow:
    """One operator's dashboard accumulators."""

    domains: int = 0
    by_status: Dict[str, int] = field(default_factory=dict)
    with_cds: int = 0
    bootstrappable: int = 0

    def status(self, name: str) -> int:
        return self.by_status.get(name, 0)


def compute_dashboard(service) -> Dict[str, OperatorRow]:
    """Cross-tab the snapshot's operator/status/eligibility/flags
    fields into per-operator rows (*service* is a
    :class:`~repro.query.QueryService`)."""
    rows: Dict[str, OperatorRow] = {}
    bootstrappable = BootstrapEligibility.BOOTSTRAPPABLE.value
    for view in service.iter_status():
        row = rows.setdefault(view.operator, OperatorRow())
        row.domains += 1
        row.by_status[view.status] = row.by_status.get(view.status, 0) + 1
        if view.flags & FLAG_HAS_CDS:
            row.with_cds += 1
        if view.eligibility == bootstrappable:
            row.bootstrappable += 1
    return rows


def zone_status_dashboard(service, limit: int = 20) -> str:
    """Render the per-operator deployment dashboard as plain text."""
    rows = compute_dashboard(service)
    named = [(name, row) for name, row in rows.items() if name != UNKNOWN_OPERATOR]
    named.sort(key=lambda item: (-item[1].domains, item[0]))
    shown = named[:limit]

    unsigned = DnssecStatus.UNSIGNED.value
    secure = DnssecStatus.SECURE.value
    island = DnssecStatus.ISLAND.value
    invalid = DnssecStatus.INVALID.value

    table_rows: List[List[str]] = []
    for name, row in shown:
        table_rows.append(
            [
                name,
                format_count(row.domains),
                format_count(row.status(unsigned)),
                format_count(row.status(secure)),
                format_count(row.status(island)),
                format_count(row.status(invalid)),
                format_count(row.with_cds),
                format_count(row.bootstrappable),
                format_pct(row.bootstrappable, row.domains),
            ]
        )
    unknown = rows.get(UNKNOWN_OPERATOR)
    if unknown is not None:
        table_rows.append(
            [
                UNKNOWN_OPERATOR,
                format_count(unknown.domains),
                format_count(unknown.status(unsigned)),
                format_count(unknown.status(secure)),
                format_count(unknown.status(island)),
                format_count(unknown.status(invalid)),
                format_count(unknown.with_cds),
                format_count(unknown.bootstrappable),
                format_pct(unknown.bootstrappable, unknown.domains),
            ]
        )

    total = sum(row.domains for row in rows.values())
    total_boot = sum(row.bootstrappable for row in rows.values())
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
        table_rows,
    )
    return "\n".join(header) + table
