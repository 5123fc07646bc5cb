"""Per-zone bootstrapping assessment: the paper's taxonomy (§4.3, §4.4).

Combines the status classifier, the CDS report, and the signal report
into (a) the Figure 1 eligibility class and (b) the Table 3 signal
outcome for zones publishing signal RRs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.cds import CdsReport, analyze_cds
from repro.core.signal import SignalReport, analyze_signals
from repro.core.status import DnssecStatus, classify_status, island_is_internally_valid
from repro.dnssec.validator import FailureReason
from repro.scanner.results import ZoneScanResult


class BootstrapEligibility(enum.Enum):
    """Figure 1 classes: can this zone benefit from (authenticated)
    bootstrapping at all?"""

    UNRESOLVED = "unresolved"
    UNSIGNED = "unsigned"  # no DNSSEC at all — nothing to bootstrap
    ALREADY_SECURED = "already_secured"  # full chain exists
    INVALID_DNSSEC = "invalid_dnssec"  # has DS but bogus — bootstrap can't help
    ISLAND_NO_CDS = "island_no_cds"  # signed, no DS, but no CDS to bootstrap from
    ISLAND_CDS_INVALID = "island_cds_invalid"  # CDS don't match the zone's keys
    ISLAND_CDS_DELETE = "island_cds_delete"  # CDS carry a delete request
    BOOTSTRAPPABLE = "bootstrappable"  # island + valid consistent CDS (303 k)


class SignalOutcome(enum.Enum):
    """Table 3 funnel for zones with signal RRs."""

    NO_SIGNAL = "no_signal"
    ALREADY_SECURED = "already_secured"
    CANNOT_DELETE_REQUEST = "cannot_delete_request"
    CANNOT_ZONE_UNSIGNED = "cannot_zone_unsigned"
    CANNOT_ZONE_INVALID = "cannot_zone_invalid"
    CANNOT_CDS_INCONSISTENT = "cannot_cds_inconsistent"
    CANNOT_CDS_SIG_INVALID = "cannot_cds_sig_invalid"
    INCORRECT_ZONE_CUT = "incorrect_zone_cut"
    INCORRECT_NS_COVERAGE = "incorrect_ns_coverage"
    INCORRECT_SIGNAL_DNSSEC = "incorrect_signal_dnssec"
    INCORRECT_MISMATCH = "incorrect_mismatch"
    CORRECT = "correct"


# Outcomes the paper's Table 3 groups under "cannot be bootstrapped".
CANNOT_OUTCOMES = frozenset(
    {
        SignalOutcome.CANNOT_DELETE_REQUEST,
        SignalOutcome.CANNOT_ZONE_UNSIGNED,
        SignalOutcome.CANNOT_ZONE_INVALID,
        SignalOutcome.CANNOT_CDS_INCONSISTENT,
        SignalOutcome.CANNOT_CDS_SIG_INVALID,
    }
)

# Outcomes grouped under "Signal zone incorrect".
INCORRECT_OUTCOMES = frozenset(
    {
        SignalOutcome.INCORRECT_ZONE_CUT,
        SignalOutcome.INCORRECT_NS_COVERAGE,
        SignalOutcome.INCORRECT_SIGNAL_DNSSEC,
        SignalOutcome.INCORRECT_MISMATCH,
    }
)


@dataclass
class BootstrapAssessment:
    """Everything the pipeline derives for one zone."""

    zone: str
    status: DnssecStatus
    status_detail: Optional[FailureReason]
    eligibility: BootstrapEligibility
    cds: CdsReport
    signal: SignalReport
    signal_outcome: SignalOutcome

    @property
    def has_signal(self) -> bool:
        return self.signal_outcome != SignalOutcome.NO_SIGNAL


def _eligibility(
    status: DnssecStatus, cds: CdsReport, internally_valid: bool
) -> BootstrapEligibility:
    if status == DnssecStatus.UNRESOLVED:
        return BootstrapEligibility.UNRESOLVED
    if status == DnssecStatus.UNSIGNED:
        return BootstrapEligibility.UNSIGNED
    if status == DnssecStatus.SECURE:
        return BootstrapEligibility.ALREADY_SECURED
    if status == DnssecStatus.INVALID:
        return BootstrapEligibility.INVALID_DNSSEC
    # Secure islands:
    if not cds.present:
        return BootstrapEligibility.ISLAND_NO_CDS
    if cds.is_delete:
        return BootstrapEligibility.ISLAND_CDS_DELETE
    if cds.matches_dnskey is False or cds.sigs_valid is False or not internally_valid:
        return BootstrapEligibility.ISLAND_CDS_INVALID
    if not cds.consistent:
        # Inconsistent CDS between NSes (the 5 333 of §4.2) — RFC 8078
        # acceptance would fail; the paper still counts them eligible in
        # Fig. 1 only when consistent, so bin them with invalid CDS.
        return BootstrapEligibility.ISLAND_CDS_INVALID
    return BootstrapEligibility.BOOTSTRAPPABLE


def _signal_outcome(
    status: DnssecStatus,
    eligibility: BootstrapEligibility,
    cds: CdsReport,
    signal: SignalReport,
    internally_valid: bool,
) -> SignalOutcome:
    if not signal.any_signal:
        return SignalOutcome.NO_SIGNAL
    if status == DnssecStatus.SECURE:
        return SignalOutcome.ALREADY_SECURED
    # "Cannot be bootstrapped" reasons, in the paper's order of precedence.
    if signal.is_delete or (cds.present and cds.is_delete):
        return SignalOutcome.CANNOT_DELETE_REQUEST
    if status in (DnssecStatus.UNSIGNED,):
        return SignalOutcome.CANNOT_ZONE_UNSIGNED
    if status == DnssecStatus.INVALID or not internally_valid:
        return SignalOutcome.CANNOT_ZONE_INVALID
    if cds.present and not cds.consistent:
        return SignalOutcome.CANNOT_CDS_INCONSISTENT
    if cds.present and cds.sigs_valid is False:
        return SignalOutcome.CANNOT_CDS_SIG_INVALID
    if cds.present and cds.matches_dnskey is False:
        return SignalOutcome.CANNOT_CDS_SIG_INVALID
    # Potential to bootstrap: now judge the signal zones themselves.
    if not signal.no_zone_cuts:
        return SignalOutcome.INCORRECT_ZONE_CUT
    if not signal.covered_all_ns:
        return SignalOutcome.INCORRECT_NS_COVERAGE
    if not signal.secure_and_valid:
        return SignalOutcome.INCORRECT_SIGNAL_DNSSEC
    if signal.matches_zone_cds is False:
        return SignalOutcome.INCORRECT_MISMATCH
    return SignalOutcome.CORRECT


def assess_zone(result: ZoneScanResult) -> BootstrapAssessment:
    """Run the full per-zone analysis (signatures are validated at
    :data:`~repro.dnssec.validator.DEFAULT_VALIDATION_TIME`)."""
    status, detail = classify_status(result)
    cds = analyze_cds(result)
    internally_valid = island_is_internally_valid(result)
    signal = analyze_signals(result, cds.cds_rrset or cds.cdnskey_rrset)
    eligibility = _eligibility(status, cds, internally_valid)
    outcome = _signal_outcome(status, eligibility, cds, signal, internally_valid)
    return BootstrapAssessment(
        zone=result.zone.to_text(),
        status=status,
        status_detail=detail,
        eligibility=eligibility,
        cds=cds,
        signal=signal,
        signal_outcome=outcome,
    )
