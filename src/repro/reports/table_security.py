"""Bootstrap security table: what a conformant parental agent rejects.

The paper's tables count what operators *publish*; this table counts
what an RFC 9615 / RFC 8078 parental agent would *do about it*.  Every
signal-publishing zone in a campaign is run through the pure acceptance
function :func:`repro.provisioning.policies.decide` (no DS is installed — the
table is a dry run) and bucketed per signal operator by the stable
reason code.  Adversarial operators therefore show up as columns whose
entire population lands on one rejection row — the quantified claim
that the verification pipeline defeats that attack shape.

Like every other report, the computation only reads the
:class:`~repro.core.pipeline.AnalysisReport`, so serial, parallel and
resumed campaigns render byte-identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.pipeline import AnalysisReport
from repro.reports.render import format_count, render_table

#: Rows in the rendered table's pinned order (accepted first; *not* the
#: ladder's precedence order).  ``compute_security`` checks the codes
#: against the ladder: every rejection it can name has a row, except
#: ``no_signal`` (the table covers signal publishers only);
#: ``verification_failed`` is a post-provision outcome the pure function
#: never returns.
ROWS = (
    ("chain_authenticated", "Accepted: chain authenticated"),
    ("zone_went_dark", "Rejected: zone went dark"),
    ("ds_already_present", "Rejected: DS already present"),
    ("delete_request", "Rejected: deletion request"),
    ("algorithm_not_permitted", "Rejected: algorithm not permitted"),
    ("zone_unsigned", "Rejected: zone unsigned"),
    ("zone_dnssec_invalid", "Rejected: zone DNSSEC invalid"),
    ("cds_disagreement", "Rejected: CDS disagreement"),
    ("cds_signature_invalid", "Rejected: CDS signature invalid"),
    ("signal_zone_cut", "Rejected: zone cut in signal name"),
    ("signal_coverage_gap", "Rejected: signal coverage gap"),
    ("unauthenticated_chain", "Rejected: unauthenticated chain"),
    ("signal_mismatch", "Rejected: signal/zone CDS mismatch"),
    ("no_zone_cds", "Rejected: no CDS in zone"),
)


@dataclass
class SecurityTableData:
    """Per-operator reason-code counts for all signal-publishing zones."""

    # operator -> reason code -> count
    columns: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def operators(self) -> List[str]:
        return sorted(self.columns)

    def count(self, operator: str, reason: str) -> int:
        return self.columns.get(operator, {}).get(reason, 0)

    def total(self, reason: str) -> int:
        return sum(column.get(reason, 0) for column in self.columns.values())


def compute_security(report: AnalysisReport) -> SecurityTableData:
    """The agent's acceptance function, dry-run over *report*.

    Zones without any signal are out of scope (an agent never considers
    them); everything else counts once, under its reason code
    (:func:`repro.core.pipeline.contribution` applies ``decide``).
    """
    # Lazy import: rendering Tables 1-3 must not pull in provisioning.
    from repro.provisioning.policies import CHAIN_AUTHENTICATED, LADDER, NO_SIGNAL

    ladder = {CHAIN_AUTHENTICATED, *(reason for reason, _, _ in LADDER)} - {NO_SIGNAL}
    assert {reason for reason, _ in ROWS} == ladder, "ROWS out of step with LADDER"
    data = SecurityTableData()
    for (table, reason, operator), count in report.counts.items():
        if table == "security" and count:
            data.columns.setdefault(operator, {})[reason] = count
    return data


def render_security(data: SecurityTableData) -> str:
    operators = data.operators
    headers = ["", *operators, "Total"]
    rows: List[List[str]] = []
    for reason, label in ROWS:
        row = [label]
        for operator in operators:
            row.append(format_count(data.count(operator, reason)))
        row.append(format_count(data.total(reason)))
        rows.append(row)
    considered = sum(data.total(reason) for reason, _ in ROWS)
    rows.append(
        [
            "Signals considered",
            *(
                format_count(sum(data.columns[op].values()))
                for op in operators
            ),
            format_count(considered),
        ]
    )
    return render_table(
        headers,
        rows,
        title="Bootstrap security: parental-agent decisions per signal operator",
    )
