"""RFC 9615 signal-zone evaluation (§4.4 of the paper).

A zone's bootstrapping signal is acceptable when (RFC 9615 §4):

1. signaling names exist under **every** authoritative NS hostname;
2. the signaling names involve **no zone cuts** below ``_signal.<ns>``;
3. every server of each signaling zone returns the **same** CDS RRset;
4. the signaling zones are **securely delegated** from the root and the
   CDS RRsets carry **valid signatures**;
5. the signaling CDS **match** the CDS published in the zone itself.

:func:`analyze_signals` runs these checks over the scanner's
:class:`~repro.scanner.results.SignalScan` records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.dns.name import Name
from repro.dns.rrset import RRset
from repro.dnssec.validator import FailureReason, validate_chain_link, validate_rrset
from repro.scanner.results import ChainLink, SignalScan, ZoneScanResult


class SignalZoneStatus(enum.Enum):
    """DNSSEC state of one signaling zone's chain of trust."""

    SECURE = "secure"
    INSECURE = "insecure"  # a link lacks DS — no chain to the root
    BOGUS = "bogus"  # a link exists but fails validation
    UNKNOWN = "unknown"  # chain could not be collected


def validate_chain(
    links: Sequence[ChainLink], expected_apex: Optional[Name] = None
) -> SignalZoneStatus:
    """Validate a root-to-apex chain of trust.

    The root DNSKEY RRset acts as the trust anchor (its self-signature
    must verify); each subsequent link needs a signed DS in the parent
    that authenticates the child's DNSKEY RRset.
    """
    if not links:
        return SignalZoneStatus.UNKNOWN
    root = links[0]
    if root.dnskey_rrset is None or not len(root.dnskey_rrset):
        return SignalZoneStatus.UNKNOWN
    parent_keys = list(root.dnskey_rrset.rdatas)
    if not validate_rrset(root.dnskey_rrset, root.dnskey_rrsigs, parent_keys):
        return SignalZoneStatus.BOGUS
    for link in links[1:]:
        if link.ds_rrset is None or not len(link.ds_rrset):
            return SignalZoneStatus.INSECURE
        # The DS RRset must be signed by the parent zone.
        ds_ok = validate_rrset(link.ds_rrset, link.ds_rrsigs, parent_keys)
        if not ds_ok:
            return SignalZoneStatus.BOGUS
        step = validate_chain_link(
            link.zone, link.ds_rrset, link.dnskey_rrset, link.dnskey_rrsigs
        )
        if not step.ok:
            if step.reason in (FailureReason.NO_MATCHING_DS, FailureReason.NO_DNSKEY):
                return SignalZoneStatus.BOGUS
            return SignalZoneStatus.BOGUS
        parent_keys = list(link.dnskey_rrset.rdatas)
    if expected_apex is not None and links[-1].zone != expected_apex:
        return SignalZoneStatus.INSECURE
    return SignalZoneStatus.SECURE


@dataclass
class PerNsSignal:
    """Evaluation of one NS hostname's signaling zone."""

    ns_host: Name
    present: bool = False
    name_too_long: bool = False
    consistent: bool = True
    has_zone_cut: bool = False
    chain_status: SignalZoneStatus = SignalZoneStatus.UNKNOWN
    sigs_valid: Optional[bool] = None
    is_delete: bool = False
    cds_rrset: Optional[RRset] = None
    error: Optional[str] = None


@dataclass
class SignalReport:
    """Zone-level aggregation of the RFC 9615 checks."""

    per_ns: List[PerNsSignal] = field(default_factory=list)
    any_signal: bool = False
    covered_all_ns: bool = False  # condition 1
    no_zone_cuts: bool = True  # condition 2
    consistent: bool = True  # condition 3
    secure_and_valid: bool = False  # condition 4
    matches_zone_cds: Optional[bool] = None  # condition 5
    is_delete: bool = False

    @property
    def acceptable(self) -> bool:
        """All five signal-side conditions hold."""
        return (
            self.any_signal
            and self.covered_all_ns
            and self.no_zone_cuts
            and self.consistent
            and self.secure_and_valid
            and self.matches_zone_cds is not False
            and not self.is_delete
        )


class SignalThreat(enum.Enum):
    """Adversarial failure mode of an unacceptable signal (if any).

    Labels the *attack shape* a conformant RFC 9615 verifier defeats,
    complementing :class:`SignalZoneStatus` (which labels one chain).
    """

    NONE = "none"
    SPLIT_VIEW = "split_view"  # NSes/servers disagree on the CDS RRset
    UNSIGNED_CHAIN = "unsigned_chain"  # signal zone not securely delegated
    SPOOFED_SIGNAL = "spoofed_signal"  # records present but not validly signed


def classify_signal_threat(report: SignalReport) -> SignalThreat:
    """Which adversarial shape (if any) *report* exhibits.

    Checked in fixed precedence — disagreement, then a missing chain of
    trust, then bad signatures — so a signal failing several checks gets
    one stable label regardless of per-NS ordering.
    """
    if not report.any_signal:
        return SignalThreat.NONE
    present = [entry for entry in report.per_ns if entry.present]
    if not report.consistent:
        return SignalThreat.SPLIT_VIEW
    if any(
        entry.chain_status in (SignalZoneStatus.INSECURE, SignalZoneStatus.UNKNOWN)
        for entry in present
    ):
        return SignalThreat.UNSIGNED_CHAIN
    if any(
        entry.chain_status == SignalZoneStatus.BOGUS or entry.sigs_valid is False
        for entry in present
    ):
        return SignalThreat.SPOOFED_SIGNAL
    return SignalThreat.NONE


def _evaluate_one(scan: SignalScan) -> PerNsSignal:
    entry = PerNsSignal(ns_host=scan.ns_host)
    if scan.name_too_long:
        entry.name_too_long = True
        entry.error = "signaling name exceeds 255 octets"
        return entry
    if scan.error:
        entry.error = scan.error
        return entry
    entry.present = scan.any_cds
    if not entry.present:
        return entry
    entry.has_zone_cut = bool(scan.zone_cuts)

    # Consistency across the signaling zone's servers: every server must
    # present the same (non-empty) CDS data.
    views = []
    signing_views = []
    for key in sorted(scan.cds_by_ip):
        response = scan.cds_by_ip[key]
        if not response.answered:
            entry.consistent = False
            continue
        rdatas = frozenset(
            rd.to_canonical_wire() for rd in (response.rrset.rdatas if response.rrset else ())
        )
        views.append(rdatas)
        if response.has_data:
            signing_views.append(response)
            if entry.cds_rrset is None:
                entry.cds_rrset = response.rrset
    if views and any(view != views[0] for view in views[1:]):
        entry.consistent = False

    if entry.cds_rrset is not None:
        entry.is_delete = any(
            getattr(rd, "is_delete", False) for rd in entry.cds_rrset.rdatas
        )

    entry.chain_status = validate_chain(scan.chain, scan.signal_zone_apex)
    if entry.chain_status == SignalZoneStatus.SECURE and signing_views:
        apex_link = scan.chain[-1] if scan.chain else None
        if apex_link is not None and apex_link.dnskey_rrset is not None:
            keys = list(apex_link.dnskey_rrset.rdatas)
            entry.sigs_valid = all(
                bool(validate_rrset(view.rrset, view.rrsigs, keys))
                for view in signing_views
            )
        else:
            entry.sigs_valid = False
    elif signing_views:
        entry.sigs_valid = False
    return entry


def analyze_signals(result: ZoneScanResult, zone_cds_rrset: Optional[RRset]) -> SignalReport:
    """Evaluate all of a zone's signaling scans against RFC 9615 §4."""
    report = SignalReport()
    for scan in result.signals:
        report.per_ns.append(_evaluate_one(scan))

    present = [entry for entry in report.per_ns if entry.present]
    report.any_signal = bool(present)
    if not report.any_signal:
        report.covered_all_ns = False
        return report

    report.covered_all_ns = all(
        entry.present and entry.consistent for entry in report.per_ns
    )
    report.no_zone_cuts = not any(entry.has_zone_cut for entry in report.per_ns)
    report.consistent = all(entry.consistent for entry in present)

    # Cross-NS consistency: every NS's signaling CDS must agree.
    rrsets = [entry.cds_rrset for entry in present if entry.cds_rrset is not None]
    if rrsets and any(not rrsets[0].same_rdata_as(other) for other in rrsets[1:]):
        report.consistent = False

    report.secure_and_valid = all(
        entry.chain_status == SignalZoneStatus.SECURE and entry.sigs_valid is True
        for entry in present
    ) and bool(present)

    report.is_delete = any(entry.is_delete for entry in present)

    if rrsets:
        if zone_cds_rrset is not None:
            report.matches_zone_cds = all(
                rrset.same_rdata_as(zone_cds_rrset) for rrset in rrsets
            )
        else:
            report.matches_zone_cds = None
    return report
