"""End-to-end analysis pipeline: scan results → paper aggregates.

Every zone becomes one :class:`ZoneVerdict`, and :func:`contribution`
is the one place a verdict becomes counts, keyed ``(table, row,
column)``.  A report is the sum of its zones' contributions, so every
view — Tables 1–3, Figure 1, the in-text §4.2 statistics
(CDS-in-unsigned zones, delete-sentinel populations, query failures,
consistency splits), the per-TLD and security tables and App. D's
costs — is a read of one counter.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, List, NamedTuple, Optional, Tuple

from repro.core.bootstrap import (
    BootstrapAssessment,
    BootstrapEligibility,
    CANNOT_OUTCOMES,
    INCORRECT_OUTCOMES,
    SignalOutcome,
    assess_zone,
)
from repro.core.feasibility import short_circuit_cost
from repro.core.operators import OperatorAttribution, OperatorDB, UNKNOWN_OPERATOR
from repro.core.status import DnssecStatus
from repro.scanner.results import ZoneScanResult


class ZoneVerdict(NamedTuple):
    """Everything the paper's tables say about one zone."""

    assessment: BootstrapAssessment
    attribution: OperatorAttribution
    operator: str  # the Tables 1–2 column
    signal_operator: Optional[str]  # the Table 3 column; None without a signal
    queries_used: int  # what scanning the zone cost (App. D)


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
    return ZoneVerdict(assessment, attribution, operator, signal_operator, result.queries_used)


#: Table 1's status columns (unresolved zones count in ``domains`` only).
_TABLE1_COLUMNS = {
    DnssecStatus.UNSIGNED: "unsigned",
    DnssecStatus.SECURE: "secured",
    DnssecStatus.INVALID: "invalid",
    DnssecStatus.ISLAND: "islands",
}


def _funnel_rows(outcome: SignalOutcome) -> Tuple[str, ...]:
    """The Table 3 rows a signal outcome counts in."""
    if outcome == SignalOutcome.ALREADY_SECURED:
        return ("with_signal", "already_secured")
    if outcome in CANNOT_OUTCOMES:
        why = "cannot_delete" if outcome == SignalOutcome.CANNOT_DELETE_REQUEST else "cannot_invalid"
        return ("with_signal", "cannot", why)
    correct = "incorrect" if outcome in INCORRECT_OUTCOMES else "correct"
    return ("with_signal", "potential", correct)


def paper_contribution(
    status: DnssecStatus,
    eligibility: BootstrapEligibility,
    outcome: SignalOutcome,
    cds_present: bool,
    operator: str,
    signal_operator: Optional[str],
) -> Counter:
    """One zone's counts in the paper's artefacts, from the six facts
    they read: the status, eligibility and outcome totals (Figure 1's
    boxes are these; eligibility is also split per *operator*, the
    dashboard's column), Table 1 (status per *operator*), Table 2 (CDS
    per *operator*) and Table 3 (the funnel rows per *signal_operator*).
    Rows and columns are the rendered artefact's.

    The measured side reaches it through :func:`contribution`; the
    expected side (:func:`repro.reports.expected_report`) calls it once
    per cell of the world's scaled population; the query plane
    (:meth:`repro.query.QueryService.report`) once per meta row.
    """
    counts = Counter(
        {
            ("zones", "scanned", None): 1,
            ("status", status, None): 1,
            ("eligibility", eligibility, None): 1,
            ("eligibility", eligibility, operator): 1,
            ("outcome", outcome, None): 1,
            ("table1", operator, "domains"): 1,
        }
    )
    if status in _TABLE1_COLUMNS:
        counts["table1", operator, _TABLE1_COLUMNS[status]] = 1
    if cds_present:
        counts["table2", operator, "with_cds"] = 1
    if outcome != SignalOutcome.NO_SIGNAL:
        for row in _funnel_rows(outcome):
            counts["table3", row, signal_operator] = 1
    return counts


def contribution(verdict: ZoneVerdict) -> Counter:
    """Everything one zone adds to a report, keyed ``(table, row,
    column)``: :func:`paper_contribution`, then the measured-only keys —
    query cost and multi-operator setups (``zones``), the §4.2 in-text
    counters (``§4.2``; ``cds_delete_island`` is also split per primary
    operator), the per-TLD row (``tld``), the parental agent's reason
    code per signal operator (``security``) and App. D's costs
    (``appd``).  Pure: a function of *verdict* alone.
    """
    # Lazy imports: core must not import the ecosystem or provisioning
    # layers at load time.
    from repro.dns.name import Name
    from repro.ecosystem import psl
    from repro.provisioning.policies import decide

    assessment, attribution = verdict.assessment, verdict.attribution
    status, cds, outcome = assessment.status, assessment.cds, assessment.signal_outcome
    counts = paper_contribution(
        status, assessment.eligibility, outcome, cds.present, verdict.operator, verdict.signal_operator
    )
    counts["zones", "queries", None] = verdict.queries_used
    if attribution.multi:
        counts["zones", "multi_operator", None] = 1
    counts["appd", "short_circuit", None] = short_circuit_cost(
        status, cds.present, verdict.queries_used
    )
    if outcome != SignalOutcome.NO_SIGNAL:
        counts["security", decide(assessment)[1], verdict.signal_operator] = 1
        counts["appd", "signal_queries", None] = verdict.queries_used
    if status == DnssecStatus.UNRESOLVED:
        return counts

    if cds.all_failed:
        counts["§4.2", "cds_query_failures", None] = 1
    if cds.present and status == DnssecStatus.UNSIGNED:
        counts["§4.2", "cds_in_unsigned", None] = 1
        if cds.is_delete:
            counts["§4.2", "cds_delete_unsigned", None] = 1
    if cds.present and cds.is_delete:
        if status == DnssecStatus.SECURE:
            counts["§4.2", "cds_delete_signed", None] = 1
        elif status == DnssecStatus.ISLAND:
            counts["§4.2", "cds_delete_island", None] = 1
            counts["§4.2", "cds_delete_island", attribution.primary] = 1
    if status == DnssecStatus.ISLAND and cds.present:
        counts["§4.2", "islands_with_cds", None] = 1
        if cds.consistent:
            counts["§4.2", "islands_cds_consistent", None] = 1
        else:
            counts["§4.2", "islands_cds_inconsistent", None] = 1
            if attribution.multi:
                counts["§4.2", "islands_cds_inconsistent_multi_operator", None] = 1
        if cds.matches_dnskey is False:
            counts["§4.2", "islands_cds_no_dnskey_match", None] = 1
        if cds.sigs_valid is False:
            counts["§4.2", "islands_cds_bad_sigs", None] = 1

    try:
        _, suffix = psl.registrable_part(Name.from_text(assessment.zone))
    except ValueError:
        return counts
    counts["tld", suffix, "domains"] = 1
    if status == DnssecStatus.SECURE:
        counts["tld", suffix, "secured"] = 1
    if cds.present:
        counts["tld", suffix, "with_cds"] = 1
    return counts


@dataclass
class AnalysisReport:
    """Everything derived from one scan campaign: each zone's verdict in
    scan order, and ``counts``, the sum of their contributions."""

    verdicts: List[ZoneVerdict] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def add(self, verdict: ZoneVerdict) -> None:
        self.verdicts.append(verdict)
        self.counts.update(contribution(verdict))

    def revise(self, index: int, verdict: ZoneVerdict) -> None:
        """Swap zone *index*'s verdict: subtract its old contribution,
        add the new one.  ``subtract`` keeps zeroed keys in place, so
        every view iterates the keys in the order zones first set them."""
        self.counts.subtract(contribution(self.verdicts[index]))
        self.counts.update(contribution(verdict))
        self.verdicts[index] = verdict

    @property
    def assessments(self) -> List[BootstrapAssessment]:
        """Each zone's assessment, in scan order (a view of ``verdicts``)."""
        return [verdict.assessment for verdict in self.verdicts]

    def count(self, table: str, row, column=None) -> int:
        """The count at ``(table, row, column)``; 0 if no zone set it."""
        return self.counts.get((table, row, column), 0)

    def tally(self, table: str, column=None) -> Counter:
        """``row → count`` for one column of *table*, rows in the order
        zones first set them."""
        return Counter(
            {row: n for (name, row, col), n in self.counts.items() if name == table and col == column}
        )

    @property
    def total_scanned(self) -> int:
        return self.count("zones", "scanned")

    @property
    def total_resolved(self) -> int:
        return self.total_scanned - self.count("status", DnssecStatus.UNRESOLVED)

    @property
    def total_queries(self) -> int:
        return self.count("zones", "queries")

    def top_operators(self, limit: Optional[int] = 20) -> List[str]:
        """Operator names by portfolio size (Table 1 ordering; ``None``:
        all of them)."""
        return _ranked(self.tally("table1", "domains"), limit)

    def top_cds_operators(self, limit: int = 20) -> List[str]:
        """Operator names by zones-with-CDS (Table 2 ordering)."""
        return _ranked(self.tally("table2", "with_cds"), limit)


def _ranked(by_operator: Counter, limit: Optional[int]) -> List[str]:
    named = [
        (name, n) for name, n in by_operator.items() if name != UNKNOWN_OPERATOR and n
    ]
    named.sort(key=lambda item: (-item[1], item[0]))
    return [name for name, _ in named[:limit]]


class AnalysisPipeline:
    """Runs the per-zone assessment and aggregation."""

    def __init__(self, operator_db: Optional[OperatorDB] = None):
        self.operator_db = operator_db or OperatorDB()

    def analyze(self, results: Iterable[ZoneScanResult]) -> AnalysisReport:
        """Assess and aggregate *results* into an :class:`AnalysisReport`.

        *results* may be any iterable — a list, or a generator such as
        :meth:`repro.store.StoreReader.iter_results`.  Each record is
        consumed once and not retained: the report keeps one
        :class:`ZoneVerdict` per zone (its assessment, attribution,
        operator columns and query cost) and the summed counter, whose
        size is bounded by operators × classes, not by zones.
        """
        report = AnalysisReport()
        for result in results:
            report.add(zone_verdict(result, self.operator_db))
        return report
