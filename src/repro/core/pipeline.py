"""End-to-end analysis pipeline: scan results → paper aggregates.

Feeds every :class:`~repro.scanner.results.ZoneScanResult` through the
per-zone assessment and accumulates the aggregate views behind the
paper's Tables 1–3 and Figure 1, plus the in-text §4.2 statistics
(CDS-in-unsigned zones, delete-sentinel populations, query failures,
consistency splits).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.core.bootstrap import (
    BootstrapAssessment,
    BootstrapEligibility,
    CANNOT_OUTCOMES,
    INCORRECT_OUTCOMES,
    SignalOutcome,
    assess_zone,
)
from repro.core.operators import OperatorAttribution, OperatorDB, UNKNOWN_OPERATOR
from repro.core.status import DnssecStatus
from repro.scanner.results import ZoneScanResult


class ZoneVerdict(NamedTuple):
    """Everything the paper's tables say about one zone."""

    assessment: BootstrapAssessment
    attribution: OperatorAttribution
    operator: str  # the Tables 1–2 column
    signal_operator: Optional[str]  # the Table 3 column; None without a signal


def zone_verdict(result: ZoneScanResult, operator_db: OperatorDB) -> ZoneVerdict:
    """Assess and attribute one zone — the one rule the analysis
    pipeline and the query index builder share.

    Multi-operator setups are ambiguous — the paper tags them as unknown
    operators (§3.1).  A signal is attributed to its *publisher* instead:
    the operator of the first NS hostname under which signal RRs were
    actually found (in multi-operator setups only one party typically
    publishes the signaling zone), falling back to the zone's operator.
    """
    assessment = assess_zone(result)
    attribution = operator_db.identify(result.delegation_ns)
    operator = UNKNOWN_OPERATOR if attribution.multi else attribution.primary
    signal_operator = None
    if assessment.signal_outcome != SignalOutcome.NO_SIGNAL:
        publisher = next((scan.ns_host for scan in result.signals if scan.any_cds), None)
        if publisher is not None:
            signal_operator = operator_db.identify_host(publisher)
        if signal_operator is None:
            signal_operator = operator
    return ZoneVerdict(assessment, attribution, operator, signal_operator)


@dataclass
class OperatorStats:
    """Per-operator accumulators for Tables 1 and 2."""

    domains: int = 0
    unsigned: int = 0
    secured: int = 0
    invalid: int = 0
    islands: int = 0
    with_cds: int = 0

    def observe(self, assessment: BootstrapAssessment) -> None:
        self.domains += 1
        if assessment.status == DnssecStatus.UNSIGNED:
            self.unsigned += 1
        elif assessment.status == DnssecStatus.SECURE:
            self.secured += 1
        elif assessment.status == DnssecStatus.INVALID:
            self.invalid += 1
        elif assessment.status == DnssecStatus.ISLAND:
            self.islands += 1
        if assessment.cds.present:
            self.with_cds += 1


@dataclass
class SignalFunnel:
    """Per-operator accumulators for Table 3."""

    with_signal: int = 0
    already_secured: int = 0
    cannot: int = 0
    cannot_delete: int = 0
    cannot_invalid: int = 0  # unsigned / bogus zone / bad in-zone CDS
    potential: int = 0
    incorrect: int = 0
    correct: int = 0

    def observe(self, outcome: SignalOutcome) -> None:
        if outcome == SignalOutcome.NO_SIGNAL:
            return
        self.with_signal += 1
        if outcome == SignalOutcome.ALREADY_SECURED:
            self.already_secured += 1
        elif outcome in CANNOT_OUTCOMES:
            self.cannot += 1
            if outcome == SignalOutcome.CANNOT_DELETE_REQUEST:
                self.cannot_delete += 1
            else:
                self.cannot_invalid += 1
        else:
            self.potential += 1
            if outcome in INCORRECT_OUTCOMES:
                self.incorrect += 1
            else:
                self.correct += 1


@dataclass
class AnalysisReport:
    """Everything derived from one scan campaign."""

    assessments: List[BootstrapAssessment] = field(default_factory=list)
    attributions: Dict[str, OperatorAttribution] = field(default_factory=dict)
    # Zone → operator its signal is attributed to (publisher-based).
    signal_operators: Dict[str, str] = field(default_factory=dict)

    status_counts: Counter = field(default_factory=Counter)
    eligibility_counts: Counter = field(default_factory=Counter)
    outcome_counts: Counter = field(default_factory=Counter)
    outcome_by_operator: Dict[str, Counter] = field(default_factory=dict)

    operators: Dict[str, OperatorStats] = field(default_factory=dict)
    signal_funnels: Dict[str, SignalFunnel] = field(default_factory=dict)

    # §4.2 in-text statistics.
    cds_in_unsigned: int = 0
    cds_delete_unsigned: int = 0
    cds_delete_signed: int = 0
    cds_delete_island: int = 0
    cds_delete_island_by_operator: Counter = field(default_factory=Counter)
    cds_query_failures: int = 0  # zones whose NSes all errored on CDS
    islands_with_cds: int = 0
    islands_cds_consistent: int = 0
    islands_cds_inconsistent: int = 0
    islands_cds_inconsistent_multi_operator: int = 0
    islands_cds_no_dnskey_match: int = 0
    islands_cds_bad_sigs: int = 0
    multi_operator_zones: int = 0

    total_scanned: int = 0
    total_resolved: int = 0
    total_queries: int = 0

    # -- derived views -----------------------------------------------------

    def status_count(self, status: DnssecStatus) -> int:
        return self.status_counts.get(status, 0)

    def eligibility_count(self, eligibility: BootstrapEligibility) -> int:
        return self.eligibility_counts.get(eligibility, 0)

    def outcome_count(self, outcome: SignalOutcome) -> int:
        return self.outcome_counts.get(outcome, 0)

    def top_operators(self, limit: int = 20) -> List[str]:
        """Operator names by portfolio size (Table 1 ordering)."""
        named = [
            (name, stats)
            for name, stats in self.operators.items()
            if name != UNKNOWN_OPERATOR
        ]
        named.sort(key=lambda item: (-item[1].domains, item[0]))
        return [name for name, _ in named[:limit]]

    def top_cds_operators(self, limit: int = 20) -> List[str]:
        """Operator names by zones-with-CDS (Table 2 ordering)."""
        named = [
            (name, stats)
            for name, stats in self.operators.items()
            if name != UNKNOWN_OPERATOR and stats.with_cds
        ]
        named.sort(key=lambda item: (-item[1].with_cds, item[0]))
        return [name for name, _ in named[:limit]]


class AnalysisPipeline:
    """Runs the per-zone assessment and aggregation."""

    def __init__(self, operator_db: Optional[OperatorDB] = None):
        self.operator_db = operator_db or OperatorDB()

    def analyze(self, results: Iterable[ZoneScanResult]) -> AnalysisReport:
        """Assess and aggregate *results* into an :class:`AnalysisReport`.

        *results* may be any iterable — a list, or a generator such as
        :meth:`repro.store.StoreReader.iter_results`.  Each record is
        consumed exactly once and never retained, so re-analysing an
        arbitrarily large stored campaign runs in O(1) memory on top of
        the report's own per-zone assessment list.
        """
        report = AnalysisReport()
        for result in results:
            self._observe(report, result)
        return report

    # -- internals ------------------------------------------------------------

    def _observe(self, report: AnalysisReport, result: ZoneScanResult) -> None:
        report.total_scanned += 1
        report.total_queries += result.queries_used
        assessment, attribution, operator, signal_operator = zone_verdict(
            result, self.operator_db
        )
        report.assessments.append(assessment)
        report.attributions[assessment.zone] = attribution

        report.status_counts[assessment.status] += 1
        if assessment.status != DnssecStatus.UNRESOLVED:
            report.total_resolved += 1
        report.eligibility_counts[assessment.eligibility] += 1
        report.outcome_counts[assessment.signal_outcome] += 1

        if attribution.multi:
            report.multi_operator_zones += 1
        stats = report.operators.setdefault(operator, OperatorStats())
        stats.observe(assessment)

        if signal_operator is not None:
            report.signal_operators[assessment.zone] = signal_operator
            funnel = report.signal_funnels.setdefault(signal_operator, SignalFunnel())
            funnel.observe(assessment.signal_outcome)
            by_op = report.outcome_by_operator.setdefault(signal_operator, Counter())
            by_op[assessment.signal_outcome] += 1

        self._observe_cds_stats(report, assessment, attribution)

    def _observe_cds_stats(
        self,
        report: AnalysisReport,
        assessment: BootstrapAssessment,
        attribution: OperatorAttribution,
    ) -> None:
        cds = assessment.cds
        status = assessment.status
        if status == DnssecStatus.UNRESOLVED:
            return
        if cds.all_failed:
            report.cds_query_failures += 1
        if cds.present and status == DnssecStatus.UNSIGNED:
            report.cds_in_unsigned += 1
            if cds.is_delete:
                report.cds_delete_unsigned += 1
        if cds.present and cds.is_delete:
            if status == DnssecStatus.SECURE:
                report.cds_delete_signed += 1
            elif status == DnssecStatus.ISLAND:
                report.cds_delete_island += 1
                report.cds_delete_island_by_operator[attribution.primary] += 1
        if status == DnssecStatus.ISLAND and cds.present:
            report.islands_with_cds += 1
            if cds.consistent:
                report.islands_cds_consistent += 1
            else:
                report.islands_cds_inconsistent += 1
                if attribution.multi:
                    report.islands_cds_inconsistent_multi_operator += 1
            if cds.matches_dnskey is False:
                report.islands_cds_no_dnskey_match += 1
            if cds.sigs_valid is False:
                report.islands_cds_bad_sigs += 1
