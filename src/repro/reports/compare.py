"""Shape checks: does the regenerated evaluation tell the paper's story?

We do not require the absolute counts to match (the substrate is a
simulator and the population is scaled); we require the *shape* — who
wins, by roughly what factor, where the taxonomy mass sits — to hold.
Each check returns a :class:`ShapeCheck` with a pass/fail and detail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.bootstrap import BootstrapEligibility
from repro.core.pipeline import AnalysisReport
from repro.core.status import DnssecStatus
from repro.reports.table3 import AB_COLUMNS, Table3Data, compute_table3


@dataclass
class ShapeCheck:
    name: str
    passed: bool
    detail: str
    # Provenance: which paper table the assertion guards and, for
    # monitored campaigns, which epoch produced the numbers — so a
    # failing check in a delta chain names the diverging artefact
    # instead of just "some shape broke".
    table: str = ""
    epoch: Optional[int] = None

    def __str__(self) -> str:
        marker = "PASS" if self.passed else "FAIL"
        line = f"[{marker}] {self.name}: {self.detail}"
        provenance = [p for p in (self.table, None if self.epoch is None else f"epoch {self.epoch}") if p]
        if provenance:
            line += f" ({', '.join(provenance)})"
        return line


# Which paper artefact each shape assertion guards (see the paper's
# Tables 1-3): status distribution, per-operator CDS publishing, and
# the authenticated-bootstrapping funnel respectively.
_TABLE_FOR_CHECK = {
    "dnssec-rare": "table1",
    "secured-about-5-percent": "table1",
    "invalid-under-half-percent": "table1",
    "godaddy-biggest-operator": "table2",
    "google-dominates-cds": "table2",
    "cloudflare-delete-islands": "table2",
    "inconsistency-is-multi-operator": "table2",
    "three-ab-operators": "table3",
    "cloudflare-dominates-ab": "table3",
    "ab-implemented-correctly": "table3",
    "ab-deployment-space-small": "table3",
    "signal-rrs-not-cleaned-up": "table3",
}


def _pct(numerator: int, denominator: int) -> float:
    return 100.0 * numerator / denominator if denominator else 0.0


def check_shapes(
    report: AnalysisReport,
    table3: Table3Data,
    targets=None,
    epoch: Optional[int] = None,
) -> List[ShapeCheck]:
    """Run every shape assertion the paper's narrative rests on.

    When *targets* (the world's scaled PaperTargets) is given, checks
    that are distorted by rare-case preservation at small scales fall
    back to exact comparison against the scaled expectation.  *epoch*
    stamps every check with the simulated week it measured (the
    monitoring plane passes it), so failures name the diverging
    epoch/table pair.
    """
    checks: List[ShapeCheck] = []
    resolved = report.total_resolved
    expected3 = None
    if targets is not None:
        from repro.reports import expected_report

        expected3 = compute_table3(expected_report(targets))

    unsigned_pct = _pct(report.count("status", DnssecStatus.UNSIGNED), resolved)
    checks.append(
        ShapeCheck(
            "dnssec-rare",
            90 <= unsigned_pct <= 96,
            f"unsigned = {unsigned_pct:.1f} % (paper: 93.2 %)",
        )
    )
    secure_pct = _pct(report.count("status", DnssecStatus.SECURE), resolved)
    checks.append(
        ShapeCheck(
            "secured-about-5-percent",
            4 <= secure_pct <= 7,
            f"secured = {secure_pct:.1f} % (paper: 5.5 %)",
        )
    )
    invalid_pct = _pct(report.count("status", DnssecStatus.INVALID), resolved)
    checks.append(
        ShapeCheck(
            "invalid-under-half-percent",
            invalid_pct < 0.5,
            f"invalid = {invalid_pct:.2f} % (paper: 0.2 %)",
        )
    )

    top = report.top_operators(3)
    checks.append(
        ShapeCheck(
            "godaddy-biggest-operator",
            bool(top) and top[0] == "GoDaddy",
            f"top operators: {top}",
        )
    )

    cds_top = report.top_cds_operators(3)
    checks.append(
        ShapeCheck(
            "google-dominates-cds",
            bool(cds_top) and cds_top[0] == "Google Domains",
            f"top CDS publishers: {cds_top}",
        )
    )

    # AB is implemented by exactly three operators at scale.
    ab_with_signal = {
        name: table3.columns[name].with_signal for name in AB_COLUMNS
    }
    checks.append(
        ShapeCheck(
            "three-ab-operators",
            all(count > 0 for count in ab_with_signal.values()),
            f"signal populations: {ab_with_signal}",
        )
    )
    cf = table3.columns["Cloudflare"].with_signal
    others = sum(f.with_signal for name, f in table3.columns.items() if name != "Cloudflare")
    # At paper scale the factor is ~155x; rare-case preservation caps it
    # at small scales, so require a decisive 5x.
    checks.append(
        ShapeCheck(
            "cloudflare-dominates-ab",
            cf > 5 * max(1, others),
            f"Cloudflare signal zones = {cf}, everyone else = {others} "
            "(paper: 1.23 M vs ~7.9 k)",
        )
    )

    potential = table3.total("potential")
    correct = table3.total("correct")
    ratio_ok = potential > 0 and correct / potential >= 0.98
    if not ratio_ok and expected3 is not None:
        # The incorrect cells are preserved-at-1 rarities; as long as the
        # measured funnel equals the scaled expectation, the paper-scale
        # ratio (99.9 %) holds by construction.
        ratio_ok = (
            correct == expected3.total("correct")
            and table3.total("incorrect") == expected3.total("incorrect")
        )
    checks.append(
        ShapeCheck(
            "ab-implemented-correctly",
            ratio_ok,
            f"correct/potential = {correct}/{potential} "
            "(paper: 99.9 %; small scales keep every rare misconfiguration)",
        )
    )

    bootstrappable = report.count("eligibility", BootstrapEligibility.BOOTSTRAPPABLE)
    boot_pct = _pct(bootstrappable, resolved)
    checks.append(
        ShapeCheck(
            "ab-deployment-space-small",
            boot_pct < 0.5,
            f"bootstrappable = {boot_pct:.2f} % of zones (paper: ~0.1 %)",
        )
    )

    with_signal = table3.total("with_signal")
    secured_share = _pct(table3.total("already_secured"), with_signal)
    checks.append(
        ShapeCheck(
            "signal-rrs-not-cleaned-up",
            50 <= secured_share <= 80,
            f"{secured_share:.0f} % of signal zones are already secured "
            "(operators flout the RFC 9615 cleanup recommendation; paper: 65 %)",
        )
    )

    delete_islands = report.count("§4.2", "cds_delete_island")
    cf_delete = report.count("§4.2", "cds_delete_island", "Cloudflare")
    checks.append(
        ShapeCheck(
            "cloudflare-delete-islands",
            delete_islands == 0 or cf_delete / delete_islands >= 0.75,
            f"Cloudflare holds {cf_delete}/{delete_islands} delete-request islands "
            "(paper: 96.7 %)",
        )
    )

    inconsistent = report.count("§4.2", "islands_cds_inconsistent")
    multi = report.count("§4.2", "islands_cds_inconsistent_multi_operator")
    checks.append(
        ShapeCheck(
            "inconsistency-is-multi-operator",
            inconsistent == 0 or multi / inconsistent >= 0.5,
            f"{multi}/{inconsistent} inconsistent-CDS islands are multi-operator "
            "(paper: 86.9 %)",
        )
    )
    for check in checks:
        check.table = _TABLE_FOR_CHECK.get(check.name, "")
        check.epoch = epoch
    return checks
