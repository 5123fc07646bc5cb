"""CDS/CDNSKEY deployment and correctness analysis (§4.2, RFC 7344/8078).

For each zone the report captures the checks the paper runs:

* did any nameserver answer CDS queries at all (pre-RFC 3597 servers
  error out — the 7.6 M "lack of support" population);
* are the RRsets consistent across all queried nameservers;
* is a delete sentinel (``CDS 0 0 0 00``) published;
* do the CDS records correspond to DNSKEYs actually in the zone;
* do the signatures over the CDS RRset validate under the zone's keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dns.rdata import CDNSKEY, CDS, _DSBase
from repro.dns.rrset import RRset
from repro.dnssec.ds import ds_matches_dnskey
from repro.dnssec.validator import validate_rrset
from repro.scanner.results import RRQueryResult, ZoneScanResult


@dataclass
class CdsReport:
    """Per-zone outcome of the CDS/CDNSKEY checks."""

    queried: int = 0  # server addresses asked
    answered: int = 0  # addresses that answered (even if empty)
    any_answer: bool = False
    all_failed: bool = False  # every address errored/timed out → "no support"
    present: bool = False  # any CDS or CDNSKEY data seen
    consistent: bool = True  # identical rdata across answering servers
    is_delete: bool = False  # delete sentinel published
    matches_dnskey: Optional[bool] = None  # None when no DNSKEY comparison possible
    sigs_valid: Optional[bool] = None  # None when unsigned zone / no sigs seen
    cds_rrset: Optional[RRset] = None  # a representative CDS RRset
    cdnskey_rrset: Optional[RRset] = None
    inconsistent_keys: List[str] = field(default_factory=list)  # which servers disagreed


def _collect(
    responses: Dict[str, RRQueryResult],
) -> tuple[int, int, List[str], Dict[str, RRQueryResult]]:
    queried = len(responses)
    answering = {key: r for key, r in responses.items() if r.answered}
    failed = [key for key, r in responses.items() if not r.answered]
    return queried, len(answering), failed, answering


def _consistent(answering: Dict[str, RRQueryResult]) -> tuple[bool, List[str]]:
    """All answering servers must present the same rdata set (an empty
    answer versus data is also an inconsistency, RFC 9615 condition ii)."""
    canonical: Optional[frozenset] = None
    offenders: List[str] = []
    views: Dict[str, frozenset] = {}
    for key, result in sorted(answering.items()):
        rdatas = frozenset(
            rd.to_canonical_wire() for rd in (result.rrset.rdatas if result.rrset else ())
        )
        views[key] = rdatas
        if canonical is None:
            canonical = rdatas
    if canonical is None:
        return True, []
    for key, rdatas in views.items():
        if rdatas != canonical:
            offenders.append(key)
    return not offenders, offenders


def analyze_cds(result: ZoneScanResult) -> CdsReport:
    """Run the §4.2 checks for one zone's scan result."""
    report = CdsReport()
    cds_q, cds_a, _, cds_ok = _collect(result.cds_by_ns)
    cdnskey_q, cdnskey_a, _, cdnskey_ok = _collect(result.cdnskey_by_ns)
    report.queried = cds_q + cdnskey_q
    report.answered = cds_a + cdnskey_a
    report.any_answer = report.answered > 0
    report.all_failed = report.queried > 0 and report.answered == 0

    cds_consistent, cds_offenders = _consistent(cds_ok)
    cdnskey_consistent, cdnskey_offenders = _consistent(cdnskey_ok)
    report.consistent = cds_consistent and cdnskey_consistent
    report.inconsistent_keys = sorted(set(cds_offenders) | set(cdnskey_offenders))

    for collection, attr in ((cds_ok, "cds_rrset"), (cdnskey_ok, "cdnskey_rrset")):
        for _, response in sorted(collection.items()):
            if response.has_data:
                setattr(report, attr, response.rrset)
                report.present = True
                break

    # Delete sentinel detection (RFC 8078 §4).
    for rrset in (report.cds_rrset, report.cdnskey_rrset):
        if rrset is not None and any(
            isinstance(rd, (_DSBase, CDNSKEY)) and rd.is_delete for rd in rrset.rdatas
        ):
            report.is_delete = True

    # DNSKEY correspondence and signature validity need the zone's keys.
    if report.present and result.dnskey is not None and result.dnskey.has_data:
        dnskeys = list(result.dnskey.rrset.rdatas)
        report.matches_dnskey = _cds_match_dnskeys(result, report, dnskeys)
        sig_checks: List[bool] = []
        for key, responses in (("cds", cds_ok), ("cdnskey", cdnskey_ok)):
            for _, response in sorted(responses.items()):
                if response.has_data:
                    outcome = validate_rrset(response.rrset, response.rrsigs, dnskeys)
                    sig_checks.append(bool(outcome))
                    break
        report.sigs_valid = all(sig_checks) if sig_checks else None
    elif report.present:
        # CDS present in a zone without DNSKEYs (§4.2 "CDS in unsigned
        # zones"): nothing to match against.
        report.matches_dnskey = False if not report.is_delete else None
        report.sigs_valid = None
    return report


def _cds_match_dnskeys(result: ZoneScanResult, report: CdsReport, dnskeys) -> bool:
    zone = result.zone
    ok = True
    if report.cds_rrset is not None:
        for rd in report.cds_rrset.rdatas:
            if not isinstance(rd, CDS) or rd.is_delete:
                continue
            if not any(ds_matches_dnskey(zone, rd, key) for key in dnskeys):
                ok = False
    if report.cdnskey_rrset is not None:
        for rd in report.cdnskey_rrset.rdatas:
            if not isinstance(rd, CDNSKEY) or rd.is_delete:
                continue
            if not any(key.public_key == rd.public_key and key.algorithm == rd.algorithm for key in dnskeys):
                ok = False
    return ok
